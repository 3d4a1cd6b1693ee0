"""Property tests of the integer Z_n route against the loops it replaced.

Each reference below is the straightforward per-point or per-path loop:
Birkhoff sums added one ``value_at`` at a time, count keys packed through a
visit-count matrix, Z_n summed over enumerated points with one Birkhoff
sum per point, and ExpSum arithmetic on dicts keyed by Fraction exponents.
"""
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
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

from oracles import brute_force_periodic, count_keys_by_visit_matrix, integer_trace, key_width

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
    want_keys, want_mult = count_keys_by_visit_matrix(paths, g.n_vertices, 4)
    assert keys.tolist() == want_keys.tolist() and mult.tolist() == want_mult.tolist()


def _repacked(counts, width):
    return (counts @ (np.int64(1) << (width * np.arange(counts.shape[1], dtype=np.int64)))).tolist()


@SETTINGS
@given(graph_n_prefix())
def test_count_exponents_decode_the_count_keys(case):
    # the visit counts periodic_count_exponents decodes pack back into the kernel's keys
    g, n, prefix = case
    indptr, indices = g.csr
    reach = kernels.exact_reach(g.adjacency, n)
    keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, prefix, 20_000)
    try:
        counts, multiplicities = periodic_count_exponents(g, n, prefix, budget=20_000)
    except BudgetExceededError:
        assert overflow
        return
    assert _repacked(counts, 4) == keys.tolist()
    assert multiplicities.tolist() == mult.tolist()


@st.composite
def sparse_graph_long_n_prefix(draw):
    """A graph on 1-12 vertices of one closed word and at most three more edges, n in 16-31."""
    V = draw(st.integers(1, 12))
    word = tuple(draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=12)))
    edges = {(word[i], word[(i + 1) % len(word)]) for i in range(len(word))}
    edges |= draw(st.sets(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)), max_size=3))
    g = FiniteGraph(tuple(str(v) for v in range(V)), tuple(sorted(edges)))
    n = draw(st.integers(16, 31))
    prefix = draw(st.sampled_from(g.words(draw(st.integers(0, 2)))))
    return g, n, prefix


@SETTINGS
@given(sparse_graph_long_n_prefix())
def test_count_keys_past_15_match_visit_matrix_packing(case):
    # past n = 15 the fields widen to 5 bits; 12 vertices of them fit in 63 bits
    g, n, prefix = case
    indptr, indices = g.csr
    reach = kernels.exact_reach(g.adjacency, n)
    paths, overflow = kernels.closed_paths(indptr, indices, reach, n, prefix, 20_000)
    keys, mult, key_overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, prefix, 20_000)
    assert key_overflow == overflow
    if overflow:
        return
    assert kernels.count_key_width(g.n_vertices, n) == key_width(n) == 5
    want_keys, want_mult = count_keys_by_visit_matrix(paths, g.n_vertices, 5)
    assert keys.tolist() == want_keys.tolist() and mult.tolist() == want_mult.tolist()
    counts, multiplicities = periodic_count_exponents(g, n, prefix, budget=20_000, reach=reach)
    assert _repacked(counts, 5) == keys.tolist() and multiplicities.tolist() == mult.tolist()
    assert counts.sum(axis=1).tolist() == [n] * len(counts)


def test_count_keys_that_do_not_fit_raise():
    # V fields of max(4, n.bit_length()) bits must fit in 63
    assert [kernels.count_key_width(V, n) for V, n in ((15, 15), (12, 31), (9, 127))] == [4, 5, 7]
    assert [kernels.max_count_key_length(V) for V in (1, 9, 12, 13, 15, 16)] == [2**63 - 1, 127, 31, 15, 15, 0]
    for V, n in ((16, 1), (13, 16), (12, 32), (9, 128)):
        g = FiniteGraph(tuple(str(v) for v in range(V)), tuple((v, (v + 1) % V) for v in range(V)))
        indptr, indices = g.csr
        reach = kernels.exact_reach(g.adjacency, n)
        with pytest.raises(ValueError, match="63 bits"):
            kernels.count_key_width(V, n)
        with pytest.raises(ValueError, match="63 bits"):
            kernels.closed_path_count_keys(indptr, indices, reach, n, (), 100)
        with pytest.raises(ValueError, match="63 bits"):
            periodic_count_exponents(g, n, reach=reach)


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


@SETTINGS
@given(st.data())
def test_constant_tables_are_counts_times_exp_nc(data):
    # a constant table c of span 1-2 and left range 0-1, W of length 0-2 (not
    # always admissible) and budgets that truncate: Z_n(W) is the brute-force
    # count of the n-periodic points through W times exp(n c); the table ends
    # at the first n past max(|W|, 1) whose count exceeds the budget (the walk
    # of that length takes no step, so no budget cuts it); an inadmissible W
    # gives the zero table
    g, _ = data.draw(graph_with_cycle(max_vertices=3, max_period=4))
    span = data.draw(st.integers(1, 2))
    left = data.draw(st.integers(0, span - 1))
    c = data.draw(st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))))
    f = FiniteRangePotential(g, left, span - left, {w: c for w in g.words(span)})
    V = g.n_vertices
    W = tuple(data.draw(st.lists(st.integers(0, V - 1), max_size=2)))
    n_max = data.draw(st.integers(1, 7))
    budget = data.draw(st.integers(0, 40))
    counts = {n: sum(all(x[i % n] == s for i, s in enumerate(W)) for x in brute_force_periodic(set(g.edges), V, n))
              for n in range(1, n_max + 1)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = thermo.partition_function(g, f, W, n_max, budget=budget)
    messages = [str(w.message) for w in caught]
    if not g.is_word(W):
        assert table.note == "base word not admissible" and table.truncated_at is None
        assert table.entries == {n: ExpSum() for n in range(1, n_max + 1)}
        return
    cut = next((n for n in range(max(len(W), 1) + 1, n_max + 1) if counts[n] > budget), None)
    assert table.truncated_at == cut
    assert any("budget exceeded" in m for m in messages) == (cut is not None)
    assert table.entries == {n: ExpSum({n * c: counts[n]}) for n in range(1, cut or n_max + 1)}


# --------------------------------------------------------------------------
# ExpSum against a dict keyed by Fraction exponents

fraction_terms = st.dictionaries(
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 7, 12])),
    st.integers(1, 5), max_size=6,
)


@st.composite
def expsum_and_reference(draw):
    """An ExpSum over the exponents' least common denominator times a random factor, and its terms."""
    terms = draw(fraction_terms)
    q = math.lcm(*(e.denominator for e in terms)) * draw(st.integers(1, 4))
    return ExpSum.from_coeffs(q, {int(e * q): m for e, m in terms.items()}), terms


def ref_add(a, b):
    return dict(Counter(a) + Counter(b))


def ref_mul(a, b):
    out = Counter()
    for e1, m1 in a.items():
        for e2, m2 in b.items():
            out[e1 + e2] += m1 * m2
    return dict(out)


def ref_float(terms):
    return math.fsum(m * math.exp(float(e)) for e, m in terms.items())


@SETTINGS
@given(expsum_and_reference(), expsum_and_reference())
def test_expsum_matches_fraction_dict_reference(x, y):
    (a, ta), (b, tb) = x, y
    assert dict(a.terms) == ta and ExpSum(ta) == a and hash(ExpSum(ta)) == hash(a)
    assert dict((a + b).terms) == ref_add(ta, tb) and dict((a * b).terms) == ref_mul(ta, tb)
    assert (a == b) == (ta == tb) and (a + b == b + a) and (a * b == b * a)
    assert a.pairs() == sorted(ta.items()) and a.count == sum(ta.values())
    assert repr(a) == "ExpSum(" + (" + ".join(f"{m}*exp({e})" for e, m in sorted(ta.items())) or "0") + ")"
    assert a.is_integer() == all(e == 0 for e in ta) and bool(a) == bool(ta)
    assert a.includes(b) == all(ta.get(e, 0) >= m for e, m in tb.items())
    # k / q is correctly rounded like float(Fraction(k, q)), so the values are bit-identical
    assert a.float_value().hex() == ref_float(ta).hex()
    assert (a * b).float_value().hex() == ref_float(ref_mul(ta, tb)).hex()


@SETTINGS
@given(fraction_terms, st.integers(1, 5), st.integers(1, 5))
def test_expsum_equal_over_any_common_denominator(terms, s1, s2):
    # the same sum over two denominators: equal, one hash, one value, and
    # arithmetic across them lands on the lcm
    q = math.lcm(*(e.denominator for e in terms))
    a = ExpSum.from_coeffs(q * s1, {int(e * q * s1): m for e, m in terms.items()})
    b = ExpSum.from_coeffs(q * s2, {int(e * q * s2): m for e, m in terms.items()})
    assert a == b and hash(a) == hash(b) and a.pairs() == b.pairs() and repr(a) == repr(b)
    assert a.float_value() == b.float_value()
    assert (a + b).q == math.lcm(q * s1, q * s2) and a + b == ExpSum(ref_add(terms, terms))
    assert a.includes(b) and b.includes(a)
    if terms:
        e, m = next(iter(terms.items()))
        assert a.terms[e] == m and e in b.terms and a.terms.get(e + Fraction(1, 10 * q)) is None
