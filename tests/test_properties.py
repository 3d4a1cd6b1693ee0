"""Property tests of the integer Z_n route against the loops it replaced.

Each reference below is the straightforward per-point or per-path loop:
Birkhoff sums added one ``value_at`` at a time, count keys packed through a
visit-count matrix, and Z_n summed over enumerated points with one Birkhoff
sum per point.
"""
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import kernels, thermo
from shiftlab.expsum import ExpSum
from shiftlab.graphs import (
    BudgetExceededError,
    FiniteGraph,
    PeriodicPoint,
    enumerate_periodic,
    periodic_count_exponents,
)
from shiftlab.potentials import FiniteRangePotential, birkhoff_sum

from oracles import integer_trace

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
)
floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def graph_with_cycle(draw, max_vertices=4, max_period=6):
    """A graph on 1..max_vertices vertices that carries the closed word it returns."""
    V = draw(st.integers(1, max_vertices))
    word = tuple(draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=max_period)))
    edges = {(word[i], word[(i + 1) % len(word)]) for i in range(len(word))}
    edges |= draw(st.sets(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1))))
    return FiniteGraph(tuple(str(v) for v in range(V)), tuple(sorted(edges))), word


def looped_birkhoff_sum(f, x, n):
    total = Fraction(0) if f.rational else 0.0
    for k in range(n):
        total = total + f.value_at(x, k)
    return total


@SETTINGS
@given(st.data())
def test_birkhoff_sum_matches_windowwise_sum(data):
    g, word = data.draw(graph_with_cycle())
    span = data.draw(st.integers(1, 3))
    left = data.draw(st.integers(0, min(2, span - 1)))
    values = rationals if data.draw(st.booleans()) else floats
    f = FiniteRangePotential(g, left, span - left, {w: data.draw(values) for w in g.words(span)})
    x = PeriodicPoint(word)
    for n in range(1, 3 * len(word) + 2):
        got, want = birkhoff_sum(f, x, n), looped_birkhoff_sum(f, x, n)
        if f.rational:
            assert type(got) is Fraction and got == want
        else:
            assert got.hex() == want.hex()  # bit-identical, signed zeros included


def count_keys_by_visit_matrix(paths, V):
    counts = np.zeros((paths.shape[0], V), dtype=np.int64)
    np.add.at(counts, (np.arange(paths.shape[0])[:, None], paths), 1)
    keys = counts @ (np.int64(1) << (4 * np.arange(V, dtype=np.int64)))
    return np.unique(keys, return_counts=True)


@st.composite
def graph_n_prefix(draw):
    g, _ = draw(graph_with_cycle(max_vertices=5))
    n = draw(st.integers(1, 15))
    lp = draw(st.integers(0, min(2, n)))
    prefix = draw(st.sampled_from(g.words(lp)))
    return g, n, prefix


@SETTINGS
@given(graph_n_prefix())
def test_count_keys_match_visit_matrix_packing(case):
    g, n, prefix = case
    indptr, indices = g.csr
    reach = kernels.exact_reach(g.adjacency, n)
    paths, overflow = kernels.closed_paths(indptr, indices, reach, n, prefix, 20_000)
    keys, mult, key_overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, prefix, 20_000)
    assert key_overflow == overflow
    if overflow:
        return
    want_keys, want_mult = count_keys_by_visit_matrix(paths, g.n_vertices)
    assert keys.tolist() == want_keys.tolist() and mult.tolist() == want_mult.tolist()


@SETTINGS
@given(graph_n_prefix())
def test_count_exponents_decode_like_unpack_count_key(case):
    g, n, prefix = case
    indptr, indices = g.csr
    reach = kernels.exact_reach(g.adjacency, n)
    keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, prefix, 20_000)
    try:
        counts, multiplicities = periodic_count_exponents(g, n, prefix, budget=20_000)
    except BudgetExceededError:
        assert overflow
        return
    assert counts.tolist() == [list(kernels.unpack_count_key(k, g.n_vertices)) for k in keys]
    assert multiplicities.tolist() == mult.tolist()


def per_point_zn(f, points, n):
    return ExpSum(Counter(birkhoff_sum(f, x, n) for x in points))


@SETTINGS
@given(st.data())
def test_window_class_route_equals_per_point_loop(data):
    # spans 1-3, every left range, prefixes of length 0-2 (so n < len(W) too)
    g, _ = data.draw(graph_with_cycle(max_vertices=4))
    span = data.draw(st.integers(1, 3))
    left = data.draw(st.integers(0, span - 1))
    f = FiniteRangePotential(g, left, span - left, {w: data.draw(rationals) for w in g.words(span)})
    W = data.draw(st.sampled_from(g.words(data.draw(st.integers(0, 2)))))
    n = 1
    while n <= 10 and integer_trace(g.adjacency, n) <= 2000:
        points = enumerate_periodic(g, n, W)
        assert thermo._zn_from_points(f, points, n) == per_point_zn(f, points, n)
        n += 1


@SETTINGS
@given(st.data())
def test_count_key_route_equals_per_point_route(data):
    g, _ = data.draw(graph_with_cycle(max_vertices=5))
    f = FiniteRangePotential.from_vertex_values(g, [data.draw(rationals) for _ in range(g.n_vertices)])
    W = data.draw(st.sampled_from(g.words(data.draw(st.integers(0, 2)))))
    n_max = 1
    while n_max < 15 and integer_trace(g.adjacency, n_max + 1) <= 3000:
        n_max += 1
    table = thermo.partition_function(g, f, W, n_max)
    for n in range(1, n_max + 1):
        points = enumerate_periodic(g, n, W)
        assert table.zn_exact(n) == thermo._zn_from_points(f, points, n) == per_point_zn(f, points, n)
