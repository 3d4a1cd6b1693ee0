"""The enumeration and sampling kernels against independent oracles."""
import warnings
from collections import Counter

import numpy as np
import pytest

from shiftlab import kernels
from shiftlab.graphs import BudgetExceededError, FiniteGraph, build_graph, enumerate_periodic, periodic_count_exponents
from shiftlab.induction import _bfs_dist_to
from shiftlab.potentials import FiniteRangePotential
from shiftlab.thermo import partition_function

from oracles import (
    brute_force_first_returns,
    brute_force_periodic,
    integer_trace,
    random_irreducible_graph,
    random_rational_values,
    scalar_chain,
)


def _csr_and_reach(graph, n):
    indptr, indices = graph.csr
    return indptr, indices, kernels.exact_reach(graph.adjacency, n)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_closed_paths_match_brute_force(gm, n):
    g = gm.graph
    indptr, indices, reach = _csr_and_reach(g, n)
    paths, overflow = kernels.closed_paths(indptr, indices, reach, n, (), 10_000)
    assert not overflow
    expected = brute_force_periodic(set(g.edges), g.n_vertices, n)
    assert [tuple(r) for r in paths] == expected


@pytest.mark.parametrize("prefix", [(0,), (1,), (0, 1)])
def test_closed_paths_prefix(full2, prefix):
    g = full2.graph
    n = 6
    indptr, indices, reach = _csr_and_reach(g, n)
    paths, _ = kernels.closed_paths(indptr, indices, reach, n, prefix, 10_000)
    expected = brute_force_periodic(set(g.edges), g.n_vertices, n, prefix)
    assert [tuple(r) for r in paths] == expected


def test_closed_paths_and_count_keys_match_brute_force_on_random_graphs():
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        names, edges = random_irreducible_graph(rng, 5)
        g = build_graph(names, edges).graph
        for n in (1, 3, 5, 7):
            indptr, indices, reach = _csr_and_reach(g, n)
            expected = brute_force_periodic(set(g.edges), g.n_vertices, n)
            paths, overflow = kernels.closed_paths(indptr, indices, reach, n, (), 2_000_000)
            assert not overflow
            assert [tuple(r) for r in paths] == expected
            keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, (), 2_000_000)
            assert not overflow
            assert list(keys) == sorted(keys)
            # periodic_count_exponents decodes the same walk's keys
            counts, multiplicities = periodic_count_exponents(g, n, reach=reach)
            assert multiplicities.tolist() == mult.tolist()
            by_counts = Counter(tuple(w.count(v) for v in range(g.n_vertices)) for w in expected)
            assert {tuple(c): m for c, m in zip(counts.tolist(), multiplicities.tolist())} == by_counts


def test_count_keys_aggregate_paths(gm):
    g = gm.graph
    n = 6
    indptr, indices, reach = _csr_and_reach(g, n)
    paths, _ = kernels.closed_paths(indptr, indices, reach, n, (), 10_000)
    keys, mult, _ = kernels.closed_path_count_keys(indptr, indices, reach, n, (), 10_000)
    assert int(mult.sum()) == len(paths)
    # reconstruct count keys from raw paths
    seen = {}
    for row in paths:
        counts = [0] * g.n_vertices
        for v in row:
            counts[v] += 1
        key = sum(c << (4 * v) for v, c in enumerate(counts))
        seen[key] = seen.get(key, 0) + 1
    assert seen == {int(k): int(m) for k, m in zip(keys, mult)}


def test_closed_paths_overflow(full2):
    g = full2.graph
    n = 12
    indptr, indices, reach = _csr_and_reach(g, n)
    _, overflow = kernels.closed_paths(indptr, indices, reach, n, (), 100)
    assert overflow


def test_first_returns_match_brute_force(gm, full2):
    rng = np.random.default_rng(31)
    cases = [(gm.graph, 0), (gm.graph, 1), (full2.graph, 0)]
    for _ in range(4):
        g = build_graph(*random_irreducible_graph(rng, 5)).graph
        cases.append((g, int(rng.integers(0, g.n_vertices))))
    for g, word_vertex in cases:
        indptr, indices = g.csr
        allowed = np.ones(g.n_vertices, dtype=bool)
        allowed[word_vertex] = False
        # distances to the return vertex through allowed intermediates
        dist = _bfs_dist_to(g, allowed, word_vertex)
        flat, lengths, overflow = kernels.first_return_paths(
            indptr, indices, allowed, dist, word_vertex, word_vertex, 6, 10_000
        )
        assert not overflow
        loops = []
        pos = 0
        for k in lengths:
            loops.append(tuple(int(x) for x in flat[pos:pos + int(k)]))
            pos += int(k)
        assert loops == brute_force_first_returns(set(g.edges), allowed, word_vertex, word_vertex, 6)
        # first returns never revisit the base vertex in the middle
        for loop in loops:
            assert loop[0] == word_vertex
            assert all(s != word_vertex for s in loop[1:])


def test_step_chain_matches_scalar_reference():
    P = np.array([[0.2, 0.8], [0.6, 0.4]])
    cum = np.cumsum(P, axis=1)
    uniforms = np.random.default_rng(7).random(5000)
    assert kernels.step_chain(cum, 0, uniforms).tolist() == scalar_chain(cum, 0, uniforms)
    # ties at a cumulative value step past it; a row summing below 1 falls
    # through to the last state
    cum = np.array([[0.25, 0.5, 1.0], [0.0, 0.5, 0.9999999999999999], [0.5, 0.75, 1.0]])
    uniforms = np.array([0.25, 0.5, 0.0, 0.5, 0.99999999999999999, 0.75, 0.9999999999999999, 0.1])
    for start in range(3):
        assert kernels.step_chain(cum, start, uniforms).tolist() == scalar_chain(cum, start, uniforms)


def test_step_chain_crosses_table_chunks_on_a_large_chain():
    # 1024 states make a next-state table of 1024 uniforms per chunk, so
    # 2600 steps cross two chunk boundaries
    rng = np.random.default_rng(1024)
    S = 1024
    P = rng.random((S, S)) ** 8
    P /= P.sum(axis=1, keepdims=True)
    cum = np.cumsum(P, axis=1)
    cum[3] *= 0.5  # a row summing below 1 falls through to the last state
    uniforms = rng.random(2600)
    uniforms[:20] = cum[7, :20]  # ties at a cumulative value step past it
    for start in (0, 7, S - 1):
        assert kernels.step_chain(cum, start, uniforms).tolist() == scalar_chain(cum, start, uniforms)


def test_step_chain_without_uniforms_stays_at_start():
    cum = np.cumsum(np.full((3, 3), 1 / 3), axis=1)
    out = kernels.step_chain(cum, 2, np.empty(0))
    assert out.tolist() == [2] == scalar_chain(cum, 2, [])
    assert out.dtype == np.int32


def _walk_peak(adj, n, prefix):
    """Most candidates the closed-path walk meets at one depth, by matrix powers.

    At depth d (from the start width max(len(prefix), 1) up to n - 1) the
    candidates are the walks of d edges that start with ``prefix`` and whose
    last vertex reaches the first in n - d steps.  A kernel overflows under a
    cap exactly when this peak exceeds it.
    """
    A = adj.astype(object)
    peak = 0
    for d in range(max(len(prefix), 1), n):
        closes = (np.linalg.matrix_power(A, n - d) > 0).T  # closes[u, v]: v reaches u
        if prefix:
            walks = np.linalg.matrix_power(A, d - len(prefix) + 1)[prefix[-1]]
            count = walks[closes[prefix[0]]].sum()
        else:
            count = np.linalg.matrix_power(A, d)[closes].sum()
        peak = max(peak, int(count))
    return peak


def test_count_keys_and_closed_paths_share_the_budget():
    # every cap from 0 to the first that fits: both kernels overflow together,
    # exactly when a depth holds more candidates than the cap, and
    # partition_function truncates at the first n whose peak exceeds it
    rng = np.random.default_rng(1511)
    for _ in range(4):
        g = build_graph(*random_irreducible_graph(rng, 4)).graph
        f = FiniteRangePotential.from_vertex_values(g, random_rational_values(rng, g.n_vertices))
        n_max = 1
        while n_max < 15 and integer_trace(g.adjacency, n_max + 1) <= 300:
            n_max += 1
        for prefix in [(), *g.words(1)[:1], *g.words(2)[:1]]:
            peaks = {n: _walk_peak(g.adjacency, n, prefix) for n in range(1, n_max + 1)}
            for n in range(max(len(prefix), 1), n_max + 1):
                indptr, indices, reach = _csr_and_reach(g, n)
                for cap in range(peaks[n] + 1):
                    _, overflow = kernels.closed_paths(indptr, indices, reach, n, prefix, cap)
                    *_, key_overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, prefix, cap)
                    assert overflow == key_overflow == (cap < peaks[n]), (prefix, n, cap)
            for cap in range(max(peaks.values()) + 1):
                want = next((n for n in range(len(prefix), n_max + 1) if n >= 1 and cap < peaks[n]), None)
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "enumeration budget exceeded", UserWarning)
                    table = partition_function(g, f, prefix, n_max, budget=cap)
                assert table.truncated_at == want, (prefix, cap)


def test_window_walk_is_the_per_length_walks_concatenated():
    # random graphs of 1-8 vertices (not necessarily irreducible), prefixes of
    # length 0-2 and windows inside 1..15: at every cap from 0 to the peak the
    # window's keys and multiplicities, its path rows (each padded with -1 to
    # the window's longest length) and its periodic points are the per-length
    # calls' concatenated, and its overflow flag is their OR (on overflow,
    # enumerate_periodic raises for the window exactly when some length does)
    rng = np.random.default_rng(1513)
    for _ in range(30):
        V = int(rng.integers(1, 9))
        edges = {(int(u), int(v)) for u, v in rng.integers(0, V, size=(int(rng.integers(V, 3 * V + 1)), 2))}
        g = FiniteGraph(tuple(str(v) for v in range(V)), tuple(sorted(edges)))
        words = [w for lp in range(3) for w in g.words(lp)]
        prefix = words[int(rng.integers(len(words)))]
        # lengths from the prefix's up to 15 while the walks stay small
        peaks = {}
        for m in range(max(len(prefix), 1), 16):
            peaks[m] = _walk_peak(g.adjacency, m, prefix)
            if peaks[m] > 100:
                break
        n_min, n = sorted(int(m) for m in rng.choice(list(peaks), size=2))
        indptr, indices, reach = _csr_and_reach(g, n)
        peak = max(peaks[m] for m in range(n_min, n + 1))
        for cap in range(peak + 2):
            per_length = [kernels.closed_path_count_keys(indptr, indices, reach, m, prefix, cap)
                          for m in range(n_min, n + 1)]
            keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, prefix, cap, n_min=n_min)
            assert overflow == any(o for *_, o in per_length) == (cap < peak), (g.edges, prefix, n_min, n, cap)
            if not overflow:
                assert keys.tolist() == [int(k) for keys_m, _, _ in per_length for k in keys_m]
                assert mult.tolist() == [int(c) for _, mult_m, _ in per_length for c in mult_m]
            rows_per_length = [kernels.closed_paths(indptr, indices, reach, m, prefix, cap) for m in range(n_min, n + 1)]
            rows, row_overflow = kernels.closed_paths(indptr, indices, reach, n, prefix, cap, n_min=n_min)
            assert row_overflow == overflow == any(o for _, o in rows_per_length)
            if row_overflow:
                assert rows.shape == (0, n)
                with pytest.raises(BudgetExceededError):
                    enumerate_periodic(g, n, prefix, cap, n_min=n_min, reach=reach)
                continue
            assert rows.dtype == np.int32 and rows.shape[1] == n
            assert rows.tolist() == [list(r) + [-1] * (n - len(r)) for rows_m, _ in rows_per_length for r in rows_m.tolist()]
            points = enumerate_periodic(g, n, prefix, cap, n_min=n_min, reach=reach)
            assert points == tuple(x for m in range(n_min, n + 1) for x in enumerate_periodic(g, m, prefix, cap))


def test_overflow_counts_saturate_instead_of_wrapping():
    # on the complete graph with 64 vertices there are 64^m closed paths of
    # length m (64^(m-1) from a one-letter prefix), past int64 from m = 11 on;
    # saturated at cap + 1 the counts still decide every length exactly
    adj = np.ones((64, 64), dtype=bool)
    reach = kernels.exact_reach(adj, 15)
    cap = 10**12  # 64^6 < cap < 64^7
    assert kernels.overflowing_lengths(reach, (), 1, 15, cap).tolist() == [m >= 7 for m in range(1, 16)]
    assert kernels.overflowing_lengths(reach, (0,), 1, 15, cap).tolist() == [m >= 8 for m in range(1, 16)]
    # a walk that takes no step never overflows, even at cap 0
    assert kernels.overflowing_lengths(reach, (0, 1), 2, 3, 0).tolist() == [False, True]
    # an overflowing window walks nothing and returns empty arrays
    indptr, indices = kernels.csr_adjacency(64, [(u, v) for u in range(64) for v in range(64)])
    paths, overflow = kernels.closed_paths(indptr, indices, reach, 15, (), cap)
    assert overflow and paths.shape == (0, 15) and paths.dtype == np.int32
