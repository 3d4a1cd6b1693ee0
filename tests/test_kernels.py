"""The enumeration and sampling kernels against independent oracles."""
import math
import tracemalloc
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
    count_keys_by_visit_matrix,
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


def test_merged_count_keys_are_multinomials_on_the_full_3_shift():
    # every word of length m is a closed path of the full 3-shift, so the key
    # with visit counts c has multiplicity m! / (c_0! c_1! c_2!): the walk
    # merges 43 million paths of length 16 into 153 keys
    V, n = 3, 16
    indptr, indices = kernels.csr_adjacency(V, [(u, v) for u in range(V) for v in range(V)])
    reach = kernels.exact_reach(np.ones((V, V), dtype=bool), n)
    width = kernels.count_key_width(V, n)

    def counts(keys):
        return [tuple((int(k) >> (width * v)) & (2**width - 1) for v in range(V)) for k in keys]

    def multinomial(c):
        return math.factorial(sum(c)) // math.prod(math.factorial(x) for x in c)

    def compositions(m):
        return [(a, b, m - a - b) for a in range(m + 1) for b in range(m + 1 - a)]

    keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, (), 3**n)
    assert not overflow and keys.tolist() == sorted(keys.tolist())
    assert sorted(counts(keys)) == sorted(compositions(n))
    assert mult.tolist() == [multinomial(c) for c in counts(keys)]
    assert int(mult.sum()) == 3**n
    # the prefix (0, 1) pins two letters and leaves the other n - 2 free
    keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, (0, 1), 3**n)
    assert not overflow and len(keys) == len(compositions(n - 2))
    assert mult.tolist() == [multinomial((a - 1, b - 1, c)) for a, b, c in counts(keys)]
    assert int(mult.sum()) == 3 ** (n - 2)
    # the window [1, n]: every length's keys in ascending order, shortest first
    keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, (), 3**n, n_min=1)
    lengths = [sum(c) for c in counts(keys)]
    assert not overflow and lengths == [m for m in range(1, n + 1) for _ in compositions(m)]
    assert all(a < b for a, b, m, l in zip(keys.tolist(), keys.tolist()[1:], lengths, lengths[1:]) if m == l)
    assert mult.tolist() == [multinomial(c) for c in counts(keys)]
    assert int(mult.sum()) == sum(3**m for m in range(1, n + 1))


def test_count_keys_refuse_windows_past_int64(gm):
    # the golden mean's closed paths of lengths 1..89 number 1.13 * 2^63,
    # each length's below the cap: the multiplicities could wrap, so refuse
    g = gm.graph
    indptr, indices, reach = _csr_and_reach(g, 89)
    assert sum(kernels.closed_path_counts(reach, (), 1, 89).tolist()) >= 2**63
    with pytest.raises(ValueError, match="2\\^63 or more closed paths"):
        kernels.closed_path_count_keys(indptr, indices, reach, 89, (), 2**62, n_min=1)
    # length 89 alone has 0.43 * 2^63 closed paths, with 0 to 44 isolated 1s
    keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, 89, (), 2**62)
    assert not overflow and len(keys) == 45 and int(mult.sum()) == int(np.trace(reach[89]))


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


def _full_shift(V, n):
    indptr, indices = kernels.csr_adjacency(V, [(u, v) for u in range(V) for v in range(V)])
    return indptr, indices, kernels.exact_reach(np.ones((V, V), dtype=bool), n)


def _seeded_dense_graph(V, p, seed):
    """A Hamiltonian cycle on a seeded permutation plus seeded random edges, each with probability p."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(V)
    edges = {(int(perm[i]), int(perm[(i + 1) % V])) for i in range(V)}
    edges |= {(a, b) for a in range(V) for b in range(V) if rng.random() < p}
    return build_graph([str(v) for v in range(V)], sorted(edges)).graph


def _assert_same_rows(got, want):
    assert got.dtype == want.dtype == np.int32 and got.flags.c_contiguous
    assert got.shape == want.shape and np.array_equal(got, want)


def test_closed_paths_across_assembly_blocks():
    # results of many 16k-row assembly blocks are the per-length calls
    # concatenated, each padded with -1, and on the full 2-shift every binary
    # word of each length in counting order
    indptr, indices, reach = _full_shift(2, 16)
    window, overflow = kernels.closed_paths(indptr, indices, reach, 16, (), 2**16, n_min=10)
    assert not overflow and len(window) == 130_048 > 4 * kernels._ASSEMBLY_ROWS
    per_length = []
    for m in range(10, 17):
        rows, _ = kernels.closed_paths(indptr, indices, reach, m, (), 2**16)
        words = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
        _assert_same_rows(rows, words.astype(np.int32))
        per_length.append(np.pad(rows, ((0, 0), (0, 16 - m)), constant_values=-1))
    _assert_same_rows(window, np.concatenate(per_length))
    # the seed-5 8-vertex graph at n = 11: its rows are the one-letter prefixes' rows in order
    g = _seeded_dense_graph(8, 0.35, seed=5)
    indptr, indices, reach = _csr_and_reach(g, 11)
    paths, overflow = kernels.closed_paths(indptr, indices, reach, 11, (), 2_000_000)
    assert not overflow and len(paths) == 277_906 == integer_trace(g.adjacency, 11)
    by_first = [kernels.closed_paths(indptr, indices, reach, 11, (v,), 2_000_000)[0] for v in range(8)]
    _assert_same_rows(paths, np.concatenate(by_first))
    assert g.adjacency[paths, np.roll(paths, -1, axis=1)].all()
    keys = paths.astype(np.int64) @ (np.int64(8) ** np.arange(10, -1, -1, dtype=np.int64))
    assert (np.diff(keys) > 0).all()


def test_closed_paths_memory_is_about_the_result():
    # the walk keeps links, not rows: the traced peak of the full 2-shift's
    # 65,536 rows at n = 16 stays near the 4 MiB result, where copying every
    # partial path at every depth reached 2.8 times it
    indptr, indices, reach = _full_shift(2, 16)
    tracemalloc.start()
    try:
        paths, _ = kernels.closed_paths(indptr, indices, reach, 16, (), 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths.shape == (2**16, 16)
    assert peak < 2.25 * paths.nbytes, peak / paths.nbytes


def test_count_keys_merge_only_large_depths(monkeypatch):
    # the full 3-shift's walk over the window [5, 8] holds 3, 9 and 27 states
    # at its first depths, which stay unmerged, and 81 or more after them,
    # which merge; every length's keys still match the brute-force paths'
    states = []
    walk = kernels._closed_walk

    def recording_walk(*args):
        steps = walk(*args)
        step = next(steps)
        while True:
            states.append(len(step[1]))
            keep = yield step
            try:
                step = steps.send(keep)
            except StopIteration:
                return

    V, n_min, n = 3, 5, 8
    indptr, indices, reach = _full_shift(V, n)
    monkeypatch.setattr(kernels, "_closed_walk", recording_walk)
    keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, (), 3**n, n_min=n_min)
    assert min(states) <= kernels._MERGE_STATES < max(states[:-1])
    edges = {(u, v) for u in range(V) for v in range(V)}
    want = [count_keys_by_visit_matrix(np.array(brute_force_periodic(edges, V, m)), V, kernels.count_key_width(V, n))
            for m in range(n_min, n + 1)]
    assert not overflow
    assert keys.tolist() == [int(key) for keys_m, _ in want for key in keys_m]
    assert mult.tolist() == [int(m) for _, mult_m in want for m in mult_m]


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
