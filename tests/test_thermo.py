"""Partition functions, pressure, equilibrium measures, zeta, distortion."""
import math
import tracemalloc
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest

from shiftlab import documents as docs
from shiftlab import kernels, thermo
from shiftlab.expsum import ExpSum
from shiftlab.graphs import (
    ExhaustionLevel,
    ExhaustionPresentation,
    BudgetExceededError,
    FiniteGraph,
    build_graph,
    enumerate_periodic,
    periodic_count_exponents,
)
from shiftlab.potentials import FiniteRangePotential, PotentialError, bowen_reduce
from shiftlab.thermo import (
    MarkovMeasure,
    PartitionFunctionTable,
    equilibrium_measure,
    export_zn_csv,
    measure_pressure,
    partition_function,
    pressure_exhaustion,
    pressure_from_table,
    pressure_spectral,
    stationary_vector,
    zeta_series,
)

from oracles import (
    decimal_log_perron,
    decimal_weighted_traces,
    det_one_minus_tA,
    integer_trace,
    lucas_numbers,
    random_irreducible_graph,
    random_rational_values,
    rational_series_coeffs,
    tree_theorem_stationary,
    vertex_weighted_traces,
    weighted_trace_expsum,
    zeta_fraction_recurrence,
)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def zero(graph):
    return FiniteRangePotential.zero(graph)


class TestPartitionFunction:
    def test_full2_powers_of_two(self, full2):
        t = partition_function(full2.graph, zero(full2.graph), (0,), 10)
        assert [t.zn_exact(n).as_integer() for n in range(1, 11)] == [2 ** (n - 1) for n in range(1, 11)]

    def test_gm_at_one(self, gm):
        t = partition_function(gm.graph, zero(gm.graph), (1,), 4)
        assert [t.zn_exact(n).as_integer() for n in range(1, 5)] == [0, 1, 1, 2]

    def test_gm_trace_is_lucas(self, gm):
        t = partition_function(gm.graph, zero(gm.graph), (), 10)
        assert [t.zn_exact(n).as_integer() for n in range(1, 11)] == lucas_numbers(10)

    def test_exact_oracle_equivalence_fixtures(self, gm, full2):
        rng = np.random.default_rng(100)
        for g in (gm.graph, full2.graph):
            values = random_rational_values(rng, g.n_vertices)
            f = FiniteRangePotential.from_vertex_values(g, values)
            t = partition_function(g, f, (), 10)
            for n in range(1, 11):
                assert t.zn_exact(n) == weighted_trace_expsum(g.adjacency, values, n)

    def test_count_key_route_equals_pointwise_route(self, gm):
        # aggregated enumeration must agree with naive per-point summation
        from shiftlab.potentials import birkhoff_sum

        rng = np.random.default_rng(42)
        values = random_rational_values(rng, 2)
        f = FiniteRangePotential.from_vertex_values(gm.graph, values)
        t = partition_function(gm.graph, f, (), 8)
        for n in range(1, 9):
            acc = ExpSum()
            for x in enumerate_periodic(gm.graph, n):
                acc.add_term(birkhoff_sum(f, x, n), 1)
            assert t.zn_exact(n) == acc

    def test_count_key_route_with_numerators_past_int64(self, full2):
        # 6 * (5 * 2**62) overflows int64, so the exponents need Python integers
        values = [F(2**62, 3), F(-(2**61) - 1, 5)]
        f = FiniteRangePotential.from_vertex_values(full2.graph, values)
        t = partition_function(full2.graph, f, (), 6)
        for n in range(1, 7):
            assert t.zn_exact(n) == weighted_trace_expsum(full2.graph.adjacency, values, n)

    def test_float_error_bound_contains_decimal_truth(self):
        # Gaussian tables with sigma up to 5 make Birkhoff sums whose rounding,
        # amplified by exp, is larger than the rounding of the final sum
        rng = np.random.default_rng(2026)
        for trial in range(240):
            V = int(rng.integers(2, 6))
            perm = rng.permutation(V)
            edges = {(int(perm[i]), int(perm[(i + 1) % V])) for i in range(V)}
            p = rng.uniform(0.1, 0.6)
            edges |= {(u, v) for u in range(V) for v in range(V) if rng.random() < p}
            g = build_graph([str(i) for i in range(V)], sorted(edges)).graph
            span = int(rng.integers(1, 3))
            left = int(rng.integers(0, span))
            sigma = (0.5, 2.0, 5.0)[trial % 3]
            table = {w: float(rng.normal(0.0, sigma)) for w in g.words(span)}
            f = FiniteRangePotential(g, left, span - left, table)
            n_max = 1
            while n_max < 9 and integer_trace(g.adjacency, n_max + 1) <= 2000:
                n_max += 1
            if trial >= 200:  # a third of the values are sevenths, which no float holds exactly
                table.update({w: F(int(rng.integers(-35, 36)), 7) for w in g.words(span)[1::3]})
                f = FiniteRangePotential(g, left, span - left, table)
            t = partition_function(g, f, (), n_max)
            truth = decimal_weighted_traces(g, table, n_max)
            for n in range(1, n_max + 1):
                value, err = t.entries[n]
                assert abs(Decimal(value) - truth[n - 1]) <= Decimal(err), (trial, n)

    def test_float_route_carries_errors(self, full2):
        f = FiniteRangePotential.from_vertex_values(full2.graph, [0.0, math.log(3)])
        t = partition_function(full2.graph, f, (), 6)
        assert not t.exact
        # trace of [[1,1],[3,3]]^n = 4^n
        for n in range(1, 7):
            v = t.zn_float(n)
            assert abs(v - 4.0**n) <= max(t.zn_error(n), 1e-9 * 4.0**n)

    def test_budget_truncates_with_flag(self, full2):
        with pytest.warns(UserWarning, match="budget"):
            t = partition_function(full2.graph, zero(full2.graph), (), 14, budget=200)
        assert t.truncated_at is not None
        assert all(n < t.truncated_at for n in t.entries)

    def test_inadmissible_base_word_flagged(self, gm):
        with pytest.warns(UserWarning, match="not admissible"):
            t = partition_function(gm.graph, zero(gm.graph), (1, 1), 4)
        assert all(not t.entries[n] for n in t.entries)

    def test_bowen_reduction_invariance(self, gm, full2):
        rng = np.random.default_rng(77)
        for g in (gm.graph, full2.graph):
            table = {w: F(int(rng.integers(-8, 9)), 5) for w in g.words(2)}
            f = FiniteRangePotential(g, 1, 1, table)
            fr, _ = bowen_reduce(f)
            t1 = partition_function(g, f, (0,), 10)
            t2 = partition_function(g, fr, (0,), 10)
            for n in range(1, 11):
                assert t1.zn_exact(n) == t2.zn_exact(n)

    def test_other_shift_types_are_refused_by_name(self, gm):
        # an exhaustion presentation has no one graph to walk, and a loop
        # system's table has its own entry point, which the error names
        from shiftlab.induction import induce

        exh = ExhaustionPresentation(("0", "1"), (ExhaustionLevel((0, 1), gm.graph),))
        for shift in (exh, induce(gm.graph, (0,), maxlen=6).loops, None):
            with pytest.raises(ValueError, match="FiniteGraph or FinitePresentation, not .*"
                                                 "induction.loop_partition_function"):
                partition_function(shift, zero(gm.graph), (), 4)

    def test_csv_export(self, full2):
        t = partition_function(full2.graph, zero(full2.graph), (0,), 9)
        text = export_zn_csv(t, math.log(2))
        lines = text.strip().splitlines()
        assert lines[0] == "n,Z_n,ratio"
        n, z, ratio = lines[1].split(",")
        assert (n, float(z), float(ratio)) == ("1", 1.0, 0.5)


class TestWorkCounts:
    """Work counted on fixed inputs, where a timing would only be noise."""

    @staticmethod
    def _window_classes(points, span, n):
        return {frozenset(Counter(tuple(x[(k + i) % n] for i in range(span)) for k in range(n)).items())
                for x in points}

    def test_one_birkhoff_sum_per_window_class(self, gm, monkeypatch):
        calls = Counter()
        real = thermo.birkhoff_sum

        def counting(f, x, n):
            calls[n] += 1
            return real(f, x, n)

        monkeypatch.setattr(thermo, "birkhoff_sum", counting)
        g = build_graph(*random_irreducible_graph(np.random.default_rng(8), 4)).graph
        rng = np.random.default_rng(9)
        for span, left in ((2, 0), (2, 1), (3, 1)):
            words = g.words(span)
            f = FiniteRangePotential(g, left, span - left, dict(zip(words, random_rational_values(rng, len(words)))))
            calls.clear()
            partition_function(g, f, (), 8)
            for n in range(1, 9):
                points = enumerate_periodic(g, n)
                assert calls[n] == len(self._window_classes(points, span, n))
            assert calls[8] < len(enumerate_periodic(g, 8))
        # span 1 takes the count-key route as far as its keys fit: on the
        # golden mean to n_max = 17 it makes no Birkhoff sum
        f = FiniteRangePotential.from_vertex_values(gm.graph, [F(1, 3), F(-2, 7)])
        calls.clear()
        partition_function(gm.graph, f, (), 17)
        assert not calls
        # 13 vertices keep 4-bit fields, so that route stops at 15 and the
        # rest go per point
        g13 = build_graph([str(v) for v in range(13)], [(v, (v + 1) % 13) for v in range(13)] + [(0, 0)]).graph
        f13 = FiniteRangePotential.from_vertex_values(g13, [F(v, 3) for v in range(13)])
        calls.clear()
        partition_function(g13, f13, (), 17)
        assert sorted(calls) == [16, 17]
        for n in (16, 17):
            assert calls[n] == len(self._window_classes(enumerate_periodic(g13, n), 1, n))
        # 13^18 > 2^63, so a span-18 table's base-13 window ids are
        # compressed once on the way (unchecked they would wrap), and still
        # tell every window apart
        words = g13.words(18)
        f18 = FiniteRangePotential(g13, 8, 10, dict(zip(words, random_rational_values(rng, len(words)))))
        calls.clear()
        table = partition_function(g13, f18, (), 20)
        for n in range(1, 21):
            points = enumerate_periodic(g13, n)
            assert calls[n] == len(self._window_classes(points, 18, n))
            assert table.zn_exact(n).count == len(points)

    def test_span_one_tables_on_twelve_vertices_make_no_birkhoff_sum_to_31(self, monkeypatch):
        # 12 vertex fields of 5 bits fit in 63, so every n <= 31 takes count
        # keys; the table still equals the trace oracle's, which packs its own keys
        calls = []
        monkeypatch.setattr(thermo, "birkhoff_sum", lambda *a: calls.append(a))
        edges = [(v, (v + 1) % 12) for v in range(12)] + [(0, 0), (5, 3), (9, 2)]
        g = build_graph([str(v) for v in range(12)], edges).graph
        values = random_rational_values(np.random.default_rng(31), 12)
        f = FiniteRangePotential.from_vertex_values(g, values)
        t = partition_function(g, f, (), 31)
        assert not calls and t.truncated_at is None and len(t.entries) == 31
        for n in (1, 12, 16, 23, 31):
            assert t.zn_exact(n) == weighted_trace_expsum(g.adjacency, values, n), n
        assert [t.zn_exact(n).count for n in range(1, 32)] == [integer_trace(g.adjacency, n) for n in range(1, 32)]
        t0 = partition_function(g, f, (0, 0), 31)
        assert not calls and t0.zn_exact(31).count == np.linalg.matrix_power(g.adjacency.astype(object), 30)[0, 0]

    def test_count_key_route_adds_no_terms_one_at_a_time(self, full2, monkeypatch):
        calls = []
        real = ExpSum.add_term

        def counting(self, exponent, multiplicity=1):
            calls.append(exponent)
            return real(self, exponent, multiplicity)

        monkeypatch.setattr(ExpSum, "add_term", counting)
        f = FiniteRangePotential.from_vertex_values(full2.graph, [F(1, 3), F(-1, 2)])
        # every n >= len(W), so every entry takes the count-key route
        for W in ((), (0,), (1,)):
            t = partition_function(full2.graph, f, W, 12)
            assert len(t.entries) == 12
        assert calls == []

    def test_one_reach_table_per_table(self, gm, monkeypatch):
        # each n built its own reach[0..n]: n_max (n_max + 1) / 2 matrix
        # products per table where n_max do
        calls = []
        real = kernels.exact_reach

        def counting(adj, n):
            calls.append(n)
            return real(adj, n)

        monkeypatch.setattr(kernels, "exact_reach", counting)
        span2 = FiniteRangePotential(gm.graph, 1, 1, {w: F(k, 3) for k, w in enumerate(gm.graph.words(2))})
        for f, W in ((FiniteRangePotential.from_vertex_values(gm.graph, [F(1, 3), F(-2, 7)]), (0, 1)),
                     (span2, (1,)), (FiniteRangePotential.from_vertex_values(gm.graph, [0.5, -0.25]), ())):
            calls.clear()
            t = partition_function(gm.graph, f, W, 17)
            assert calls == [17] and len(t.entries) == 17
        reach = real(gm.graph.adjacency, 9)
        for n in range(1, 10):
            assert enumerate_periodic(gm.graph, n, (0,), reach=reach) == enumerate_periodic(gm.graph, n, (0,))
        with pytest.raises(ValueError, match="does not cover"):
            enumerate_periodic(gm.graph, 10, reach=reach)

    def test_reach_table_stops_at_the_budget(self, gm, monkeypatch):
        # the zero potential's golden-mean table ends at n = 31 whatever n_max
        # is, and its reach table ends with it, not at n_max
        calls = []
        real = kernels.exact_reach

        def counting(adj, n):
            calls.append(n)
            return real(adj, n)

        monkeypatch.setattr(kernels, "exact_reach", counting)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "enumeration budget exceeded", UserWarning)
            short = partition_function(gm.graph, zero(gm.graph), (), 100)
            calls.clear()
            long = partition_function(gm.graph, zero(gm.graph), (), 10**5)
            assert max(calls) < 1000
            assert long.truncated_at == short.truncated_at == 31
            assert long.n_max == short.n_max == 30 and long.entries == short.entries
            # a 12-cycle with one chord grows slowly: its table passes the
            # first 64 reach rows and ends at the first count over the budget
            g = FiniteGraph(tuple(map(str, range(12))), tuple(sorted({(v, (v + 1) % 12) for v in range(12)} | {(0, 6)})))
            want = next(m for m in range(2, 500) if integer_trace(g.adjacency, m) > 5000)
            calls.clear()
            t = partition_function(g, zero(g), (), 500, budget=5000)
            assert 64 < want == t.truncated_at and max(calls) < 500
        # counts that never pass the budget need every row: a cycle, and a
        # cycle that leads into a self-loop (its reach counts grow without bound
        # between the two components, but no closed path runs there)
        for edges in ([(0, 1), (1, 0)], [(0, 1), (1, 0), (1, 2), (2, 2)]):
            g = FiniteGraph(tuple(map(str, range(1 + max(max(e) for e in edges)))), tuple(edges))
            calls.clear()
            t = partition_function(g, zero(g), (), 1000, budget=10)
            assert t.truncated_at is None and calls[-1] == 1000
            assert [t.entries[n].count for n in range(1, 1001)] == [integer_trace(g.adjacency, n) for n in range(1, 1001)]

    def test_one_count_key_walk_per_table(self, monkeypatch):
        # a complete span-1 table makes one walk for every n its keys cover;
        # a table its budget truncates makes one walk below the truncation and
        # none at it (the path counts decide the overflow), and keeps the
        # truncation and entries of per-n periodic_count_exponents calls
        overflows = []
        real = kernels.closed_path_count_keys

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            overflows.append(out[2])
            return out

        monkeypatch.setattr(kernels, "closed_path_count_keys", counting)
        rng = np.random.default_rng(15)
        g = build_graph(*random_irreducible_graph(rng, 5)).graph
        values = random_rational_values(rng, g.n_vertices)
        f = FiniteRangePotential.from_vertex_values(g, values)
        for W in ((), g.words(1)[0], g.words(2)[0]):
            overflows.clear()
            t = partition_function(g, f, W, 12)
            assert overflows == [False] and t.truncated_at is None and len(t.entries) == 12
            # a budget that every period's points just fit still takes one walk
            overflows.clear()
            t = partition_function(g, f, W, 12, budget=max(len(enumerate_periodic(g, n, W)) for n in range(1, 13)))
            assert overflows == [False] and t.truncated_at is None and len(t.entries) == 12
            budget = len(enumerate_periodic(g, 9, W)) - 1
            overflows.clear()
            with pytest.warns(UserWarning, match="budget exceeded"):
                t = partition_function(g, f, W, 12, budget=budget)
            walks = list(overflows)
            want = {}
            for n in range(1, 13):
                try:
                    counts, mult = periodic_count_exponents(g, n, W, budget)
                except BudgetExceededError:
                    break
                terms = Counter()
                for row, m in zip(counts.tolist(), mult.tolist()):
                    terms[sum(c * v for c, v in zip(row, values))] += m
                want[n] = ExpSum(terms)
            assert t.truncated_at == n < 12 and t.entries == want, W
            assert walks == [False], W

    def test_constant_tables_walk_nothing(self, monkeypatch):
        # a constant rational table, of any span and left range, reads N_n off
        # the reach table: Z_n = N_n exp(n c), and no closed-path walk of
        # either kind is made, also when the budget truncates the table
        g = build_graph(*random_irreducible_graph(np.random.default_rng(18), 5)).graph
        A = g.adjacency.astype(object)
        tables = [(zero(g), F(0)),
                  (FiniteRangePotential(g, 1, 1, {w: F(-2, 3) for w in g.words(2)}), F(-2, 3)),
                  (FiniteRangePotential(g, 0, 2, {w: F(5) for w in g.words(2)}), F(5))]
        cases = [(W, len(enumerate_periodic(g, 9, W)) - 1) for W in ((), g.words(1)[0], g.words(2)[0])]
        walks = []
        monkeypatch.setattr(kernels, "closed_paths", lambda *a, **k: walks.append(a))
        monkeypatch.setattr(kernels, "closed_path_count_keys", lambda *a, **k: walks.append(a))
        for f, c in tables:
            for W, budget in cases:
                t = partition_function(g, f, W, 12)
                with pytest.warns(UserWarning, match="budget exceeded"):
                    cut = partition_function(g, f, W, 12, budget=budget)
                assert not walks and t.truncated_at is None and cut.truncated_at <= 9
                for n in range(max(len(W), 1), 13):
                    power = np.linalg.matrix_power(A, n - max(len(W), 1) + 1)
                    count = int(np.trace(power)) if not W else int(power[W[-1], W[0]])
                    assert t.zn_exact(n) == ExpSum({n * c: count}), (W, n)
                assert cut.entries == {n: t.entries[n] for n in range(1, cut.truncated_at)}

    def test_constant_float_tables_walk_nothing(self, monkeypatch):
        # a float is a dyadic rational, so a constant float table reads N_n
        # off the reach table like a rational one, and each entry is the
        # bracket of N_n exp(n c)
        g = build_graph(*random_irreducible_graph(np.random.default_rng(18), 5)).graph
        walks = []
        monkeypatch.setattr(kernels, "closed_paths", lambda *a, **k: walks.append(a))
        monkeypatch.setattr(kernels, "closed_path_count_keys", lambda *a, **k: walks.append(a))
        for c in (0.1, -2.75, 5e-324):
            for f in (FiniteRangePotential.from_vertex_values(g, [c] * g.n_vertices),
                      FiniteRangePotential(g, 1, 1, {w: c for w in g.words(2)})):
                t = partition_function(g, f, (), 12)
                assert not walks and not t.exact and t.truncated_at is None
                for n in range(1, 13):
                    count = integer_trace(g.adjacency, n)
                    assert t.entries[n] == thermo.bracket(ExpSum({n * F(c): count})), (c, n)
                    value, err = t.entries[n]
                    with localcontext() as ctx:
                        ctx.prec = 60
                        truth = count * (n * Decimal(c)).exp()
                    assert abs(Decimal(value) - truth) <= Decimal(err), (c, n)

    def test_span_two_tables_walk_once(self, monkeypatch):
        # the per-point route makes one closed_paths walk for all the periods of
        # a table far below the budget; a table near it walks runs of
        # consecutive periods, each run as long as its points fit the budget
        # together (a period alone always fits, as the table ends before the
        # first that does not).  Each period takes one Birkhoff sum per window
        # class, split or not
        rng = np.random.default_rng(19)
        g = build_graph(*random_irreducible_graph(rng, 5)).graph
        words = g.words(2)
        f = FiniteRangePotential(g, 1, 1, dict(zip(words, random_rational_values(rng, len(words)))))
        cases = []
        for W in ((), g.words(1)[0], g.words(2)[0]):
            points = {n: enumerate_periodic(g, n, W) for n in range(1, 11)}
            classes = {n: len(self._window_classes(points[n], 2, n)) for n in range(1, 11)}
            counts = {n: len(points[n]) for n in range(1, 11)}
            cases += [(W, None, classes, counts), (W, counts[8] - 1, classes, counts)]
        walks, sums = [], Counter()
        real_walk, real_sum = kernels.closed_paths, thermo.birkhoff_sum
        monkeypatch.setattr(kernels, "closed_paths", lambda *a, **k: walks.append((k["n_min"], a[3])) or real_walk(*a, **k))
        monkeypatch.setattr(thermo, "birkhoff_sum", lambda f, x, n: sums.update([n]) or real_sum(f, x, n))
        split = 0
        for W, budget, classes, counts in cases:
            walks.clear()
            sums.clear()
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "enumeration budget exceeded", UserWarning)
                t = partition_function(g, f, W, 10, **({} if budget is None else {"budget": budget}))
            assert (t.truncated_at is None) == (budget is None)
            assert [n for a, b in walks for n in range(a, b + 1)] == [n for n in t.entries if n >= max(len(W), 1)]
            if budget is None:
                assert len(walks) == 1, W
            else:
                held = [sum(counts[n] for n in range(a, b + 1)) for a, b in walks]
                assert all(h <= budget for h in held), (W, walks, held)
                assert all(h + counts[a] > budget for h, (a, _) in zip(held, walks[1:])), (W, walks, held)
                split += len(walks) > 1
            assert {n: sums[n] for n in t.entries} == {n: classes[n] for n in t.entries}
            assert sum(sums.values()) == sum(classes[n] for n in t.entries)
        assert split

    def test_per_point_tables_hold_at_most_the_budget(self, monkeypatch):
        # a 12-cycle with the chord 0 -> 6, vertex values (i mod 3) / 2 and
        # budget 20,000 keeps 106,070 points of periods 32-120 (the count keys
        # end at 31 on 12 vertices).  One walk of them all peaked at 472 MiB
        # traced; in runs of periods whose points fit the budget together, no
        # walk holds more than 20,000 points and the peak stays below a third
        # of that.  The table equals a dynamic-programming count of the paths
        g = FiniteGraph(tuple(map(str, range(12))), tuple(sorted({(v, (v + 1) % 12) for v in range(12)} | {(0, 6)})))
        f = FiniteRangePotential.from_vertex_values(g, [F(v % 3, 2) for v in range(12)])
        held = []
        monkeypatch.setattr("shiftlab.graphs.enumerate_periodic",
                            lambda *a, **k: held.append(len(out := enumerate_periodic(*a, **k))) or out)
        tracemalloc.start()
        try:
            t = partition_function(g, f, (), 120, budget=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.truncated_at is None and t.n_max == 120
        assert sum(held) == 106_070 and max(held) <= 20_000 < sum(held), held
        assert peak < 472 * 2**20 / 3, peak / 2**20
        want = vertex_weighted_traces(g.adjacency, [v % 3 for v in range(12)], 120)
        assert all(t.zn_exact(n) == ExpSum({F(s, 2): c for s, c in want[n - 1].items()}) for n in range(1, 121))

    def test_count_keys_emit_every_point(self):
        # kernels.points_emitted, the multiplicities' sum, is the number of
        # closed paths: the trace, or a diagonal entry, of A^n
        g = build_graph(*random_irreducible_graph(np.random.default_rng(12), 6)).graph
        indptr, indices = g.csr
        A = g.adjacency.astype(object)
        for n in (1, 4, 9, 12):
            reach = kernels.exact_reach(g.adjacency, n)
            power = np.linalg.matrix_power(A, n)
            _, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, (), 10**6)
            assert not overflow and int(mult.sum()) == integer_trace(g.adjacency, n)
            for v in range(g.n_vertices):
                _, mult, _ = kernels.closed_path_count_keys(indptr, indices, reach, n, (v,), 10**6)
                assert int(mult.sum()) == power[v, v]


class TestPressureSpectral:
    def test_full2_log2(self, full2):
        est = pressure_spectral(full2.graph, zero(full2.graph))
        assert est.error <= 1e-9
        assert abs(est.value - math.log(2)) <= 1e-9

    def test_gm_golden_mean(self, gm):
        est = pressure_spectral(gm.graph, zero(gm.graph))
        assert abs(est.value - 0.4812118251) <= 1e-9
        assert abs(est.value - LOG_PHI) <= est.error + 1e-12

    def test_full2_weighted_log4(self, full2):
        f = FiniteRangePotential.from_vertex_values(full2.graph, [F(0), math.log(3)])
        est = pressure_spectral(full2.graph, f)
        assert abs(est.value - math.log(4)) <= 1e-9

    def test_constant_shift_property(self, gm, full2):
        rng = np.random.default_rng(12)
        for g in (gm.graph, full2.graph):
            values = random_rational_values(rng, g.n_vertices)
            f = FiniteRangePotential.from_vertex_values(g, values)
            c = F(3, 7)
            fc = FiniteRangePotential.from_vertex_values(g, [v + c for v in values])
            p0 = pressure_spectral(g, f).value
            p1 = pressure_spectral(g, fc).value
            assert abs(p1 - (p0 + float(c))) <= 1e-9

    def test_memory_potentials_reduce_first(self, full2):
        rng = np.random.default_rng(13)
        table = {w: F(int(rng.integers(-4, 5)), 3) for w in full2.graph.words(2)}
        f = FiniteRangePotential(full2.graph, 1, 1, table)
        fr, _ = bowen_reduce(f)
        assert abs(pressure_spectral(full2.graph, f).value
                   - pressure_spectral(full2.graph, fr).value) <= 1e-11

    def test_errors_contain_the_decimal_pressure(self):
        # vertex potentials up to +-60 on graphs whose Perron root has a
        # closed form: the full 2- and 3-shifts, the golden mean, its mirror
        # and the 2-cycle, whose spectrum {rho, -rho} is periodic.  An
        # absolute slop of 4 eps missed values whose ulp is larger: (35/2, 33)
        # on the full 2-shift gave 33.00000018553912 +- 8.8e-16, 2.8e-15 away
        # from log(e^17.5 + e^33)
        shapes = [
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            [(u, v) for u in range(3) for v in range(3)],
            [(0, 0), (0, 1), (1, 0)],
            [(0, 1), (1, 0), (1, 1)],
            [(0, 1), (1, 0)],
        ]
        graphs = [build_graph([str(v) for v in range(1 + max(max(e) for e in edges))], edges).graph
                  for edges in shapes]
        cases = [(graphs[0], [F(35, 2), F(33)])]
        rng = np.random.default_rng(120)
        while len(cases) < 320:
            g = graphs[int(rng.integers(len(graphs)))]
            q = int(rng.integers(1, 11))
            cases.append((g, [F(int(rng.integers(-60 * q, 60 * q + 1)), q) for _ in range(g.n_vertices)]))
        for g, values in cases:
            est = pressure_spectral(g, FiniteRangePotential.from_vertex_values(g, values))
            want = decimal_log_perron(g.adjacency, values)
            assert abs(Decimal(est.value) - want) <= Decimal(est.error), (g.edges, values, est)

    def test_far_from_one_or_periodic_converges_quickly(self):
        # with a shift by 1 these ran the power iteration to its 200,000-step
        # cap: a Perron root far below 1 (full 2- and 3-shifts), or the two
        # largest moduli of M + I nearly equal (golden mean with e^60 on one
        # vertex, the 2-cycle) -- and their errors were up to +-20
        full3 = [(u, v) for u in range(3) for v in range(3)]
        for edges, values in [
            ([(0, 0), (0, 1), (1, 0), (1, 1)], [F(-10), F(-2256, 100)]),
            ([(0, 0), (0, 1), (1, 0)], [F(0), F(60)]),
            (full3, [F(-113, 2), F(-40), F(-33, 2)]),
            ([(0, 1), (1, 0)], [F(1471, 100), F(357, 100)]),
        ]:
            g = build_graph([str(v) for v in range(1 + max(max(e) for e in edges))], edges).graph
            est = pressure_spectral(g, FiniteRangePotential.from_vertex_values(g, values))
            assert est.iterations < 1000 and est.error < 1e-12, (edges, est)
            assert abs(Decimal(est.value) - decimal_log_perron(g.adjacency, values)) <= Decimal(est.error)

    def test_row_sums_far_above_the_perron_root(self):
        # span 2: the block rows run from e^-23 to e^46, while both cycles,
        # the loop at 0 and 0 -> 1 -> 2 -> 0, weigh 1, so the Perron root
        # solves lam^3 = lam^2 + 1 (about 1.4656).  A shift of the size of the
        # row sums' geometric mean (e^11.5) ran to the iteration cap here
        g = build_graph(["0", "1", "2"], [(0, 0), (0, 1), (1, 2), (2, 0)]).graph
        f = FiniteRangePotential(g, 0, 2, {(0, 0): F(0), (0, 1): F(-23), (1, 2): F(46), (2, 0): F(-23)})
        with localcontext() as ctx:
            ctx.prec = 60
            lam = Decimal(2)
            for _ in range(30):
                lam -= (lam**3 - lam**2 - 1) / (3 * lam**2 - 2 * lam)
            want = lam.ln()
        est = pressure_spectral(g, f)
        assert est.iterations < 1000 and est.error < 1e-12, est
        assert abs(Decimal(est.value) - want) <= Decimal(est.error)
        mu = equilibrium_measure(g, f)
        assert abs(measure_pressure(mu, f) - float(want)) <= 1e-9

    def test_periodic_graph_with_a_tiny_least_row_sum_converges_quickly(self):
        # each cycle weighs 1, so rho = 1, but the least row sum of M is e^-300
        # or e^-40: a shift capped by the Collatz-Wielandt lower bound of M
        # alone climbed to rho about twofold per step (461, 86 and 141
        # iterations); the bound from M^p, p the period, starts it at rho
        for edges, values in [
            ([(0, 1), (1, 0)], [F(-300), F(300)]),
            ([(0, 1), (1, 0)], [F(-40), F(40)]),
            ([(0, 1), (1, 2), (2, 0)], [F(-40), F(0), F(40)]),
        ]:
            g = build_graph([str(v) for v in range(len(values))], edges).graph
            est = pressure_spectral(g, FiniteRangePotential.from_vertex_values(g, values))
            assert est.iterations <= 80 and est.value - est.error <= 0.0 <= est.value + est.error, (values, est)

    def test_non_irreducible_rejected(self):
        from shiftlab.graphs import FiniteGraph

        g = FiniteGraph(("a", "b"), ((0, 0), (0, 1), (1, 1)))
        with pytest.raises(ValueError, match="irreducible"):
            pressure_spectral(g, FiniteRangePotential.from_vertex_values(g, [F(0), F(0)]))


class TestPressureFromTable:
    def test_full2_within_1e3(self, full2):
        t = partition_function(full2.graph, zero(full2.graph), (0,), 16)
        est = pressure_from_table(t)
        assert abs(est.value - math.log(2)) <= 1e-3
        assert abs(est.value - math.log(2)) <= est.error

    def test_gm_lucas_within_1e2(self, gm):
        t = partition_function(gm.graph, zero(gm.graph), (), 12)
        est = pressure_from_table(t)
        assert abs(est.value - 0.4812) <= 1e-2
        assert abs(est.value - LOG_PHI) <= est.error

    def test_all_zero_table_errors(self):
        entries = {n: ExpSum() for n in range(1, 10)}
        t = PartitionFunctionTable((), True, entries, 9)
        with pytest.raises(ValueError, match="positive entries"):
            pressure_from_table(t)

    def test_period_two_residue_class(self):
        g = build_graph(["a", "b"], [(0, 1), (1, 0)]).graph
        t = partition_function(g, zero(g), (), 16)
        est = pressure_from_table(t, period=2)
        assert abs(est.value - 0.0) <= est.error + 1e-12

    def test_agrees_with_spectral_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            names, edges = random_irreducible_graph(rng, 7)
            pres = build_graph(names, edges)
            values = random_rational_values(rng, pres.graph.n_vertices)
            f = FiniteRangePotential.from_vertex_values(pres.graph, values)
            t = partition_function(pres.graph, f, (), 12)
            est_t = pressure_from_table(t, pres.period)
            est_s = pressure_spectral(pres.graph, f)
            assert abs(est_t.value - est_s.value) <= est_t.error + est_s.error


class TestEquilibriumMeasure:
    def test_bernoulli_closed_form(self, full2):
        f = FiniteRangePotential.from_vertex_values(
            full2.graph, [math.log(0.3), math.log(0.7)]
        )
        mu = equilibrium_measure(full2.graph, f)
        assert np.allclose(mu.transitions, [[0.3, 0.7], [0.3, 0.7]], atol=1e-12)
        assert abs(measure_pressure(mu, f)) <= 1e-9

    def test_parry_measure_on_gm(self, gm):
        mu = equilibrium_measure(gm.graph, zero(gm.graph))
        phi = (1 + math.sqrt(5)) / 2
        assert abs(mu.transitions[0, 0] - 1 / phi) <= 1e-12
        assert abs(mu.transitions[0, 1] - 1 / phi**2) <= 1e-12
        assert abs(mu.transitions[1, 0] - 1.0) <= 1e-12
        assert abs(mu.entropy() - LOG_PHI) <= 1e-9

    def test_single_loop_point_mass(self):
        g = build_graph(["a"], [(0, 0)]).graph
        f = FiniteRangePotential.from_vertex_values(g, [F(5, 2)])
        mu = equilibrium_measure(g, f)
        assert mu.entropy() == 0.0
        assert measure_pressure(mu, f) == 2.5

    def test_contracts_hold(self, gm, full2):
        rng = np.random.default_rng(21)
        for g in (gm.graph, full2.graph):
            f = FiniteRangePotential.from_vertex_values(
                g, random_rational_values(rng, g.n_vertices)
            )
            mu = equilibrium_measure(g, f)
            assert np.max(np.abs(mu.transitions.sum(axis=1) - 1)) <= 1e-12
            assert np.max(np.abs(mu.stationary @ mu.transitions - mu.stationary)) <= 1e-12
            est = pressure_spectral(g, f)
            assert abs(measure_pressure(mu, f) - est.value) <= 1e-9

    def test_range_two_recodes_to_blocks(self, gm):
        rng = np.random.default_rng(22)
        table = {w: F(int(rng.integers(-4, 5)), 3) for w in gm.graph.words(2)}
        f = FiniteRangePotential(gm.graph, 0, 2, table)
        mu = equilibrium_measure(gm.graph, f)
        assert mu.order == 2
        assert abs(measure_pressure(mu, f) - pressure_spectral(gm.graph, f).value) <= 1e-9

    def test_variational_dominance(self, gm, full2):
        rng = np.random.default_rng(2025)
        for g in (gm.graph, full2.graph):
            f = FiniteRangePotential.from_vertex_values(
                g, random_rational_values(rng, g.n_vertices)
            )
            mu = equilibrium_measure(g, f)
            best = measure_pressure(mu, f)
            for _ in range(100):
                nu = _perturb(mu, rng)
                assert measure_pressure(nu, f) <= best + 1e-9


    def test_three_block_measure_is_stationary(self, gm, fixture_dir):
        f = docs.parse_potential(docs.loads((fixture_dir / "gm-range1-block2.json").read_text()), gm.graph)
        mu = equilibrium_measure(gm.graph, f)  # MarkovMeasure checks pi P = pi within 1e-12
        assert len(mu.blocks) == 3
        assert np.max(np.abs(mu.stationary @ mu.transitions - mu.stationary)) <= 1e-12


class TestStationaryVector:
    def test_matches_tree_theorem_on_rational_matrices(self):
        rng = np.random.default_rng(1776)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            # a cycle through every state keeps the chain irreducible
            weights = [[int(rng.integers(0, 5)) * (rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                weights[i][(i + 1) % n] += int(rng.integers(1, 5))
            P = [[F(w, sum(row)) for w in row] for row in weights]
            exact = tree_theorem_stationary(P)
            pi = stationary_vector(np.array([[float(x) for x in row] for row in P]))
            assert np.all(pi >= 0) and abs(pi.sum() - 1.0) <= 1e-15
            assert max(abs(float(p - F(q))) for p, q in zip(exact, pi)) <= 1e-14, P

    def test_periodic_chain(self):
        P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert np.allclose(stationary_vector(P), 1 / 3, rtol=0, atol=1e-16)

    def test_two_closed_classes_are_singular(self):
        with pytest.raises(ValueError, match="singular"):
            stationary_vector(np.eye(2))


def _perturb(mu: MarkovMeasure, rng) -> MarkovMeasure:
    noise = np.exp(rng.uniform(-0.3, 0.3, size=mu.transitions.shape))
    P = np.where(mu.transitions > 0, mu.transitions * noise, 0.0)
    P = P / P.sum(axis=1, keepdims=True)
    pi = np.asarray(mu.stationary, dtype=float).copy()
    damp = 0.5 * (P + np.eye(P.shape[0]))
    for _ in range(100_000):
        nxt = pi @ damp
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) < 1e-16:
            pi = nxt
            break
        pi = nxt
    return MarkovMeasure(
        graph=mu.graph, order=mu.order, blocks=mu.blocks, transitions=P, stationary=pi
    )


class TestMarkovMeasureContract:
    def _bernoulli(self, full2, **changes):
        fields = dict(
            graph=full2.graph, order=1, blocks=((0,), (1,)),
            transitions=np.array([[0.5, 0.5], [0.5, 0.5]]), stationary=np.array([0.5, 0.5]),
        )
        return MarkovMeasure(**{**fields, **changes})

    def test_valid_measure_accepted(self, full2):
        assert self._bernoulli(full2).order == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, full2, bad):
        with pytest.raises(ValueError, match="finite"):
            self._bernoulli(full2, stationary=np.array([bad, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            self._bernoulli(full2, transitions=np.array([[0.5, bad], [0.5, 0.5]]))

    def test_order_below_one_rejected(self, full2):
        for order in (0, -1):
            with pytest.raises(ValueError, match="order"):
                self._bernoulli(full2, order=order)
        with pytest.raises(ValueError, match="order"):
            self._bernoulli(full2, order=0, blocks=((), ()))

    def test_blocks_must_be_words_of_the_order(self, gm, full2):
        with pytest.raises(ValueError, match="length 1"):
            self._bernoulli(full2, blocks=((0,), (1, 0)))
        with pytest.raises(ValueError, match="length 2"):
            self._bernoulli(full2, order=2)
        with pytest.raises(ValueError, match="admissible"):
            MarkovMeasure(
                graph=gm.graph, order=2, blocks=((0, 1), (1, 1)),
                transitions=np.array([[0.0, 1.0], [1.0, 0.0]]), stationary=np.array([0.5, 0.5]),
            )


class TestMeasurePressure:
    def test_fair_coin(self, full2):
        mu = MarkovMeasure(
            graph=full2.graph, order=1, blocks=((0,), (1,)),
            transitions=np.array([[0.5, 0.5], [0.5, 0.5]]),
            stationary=np.array([0.5, 0.5]),
        )
        assert abs(measure_pressure(mu, zero(full2.graph)) - math.log(2)) == 0.0

    def test_range_mismatch_rejected(self, gm):
        mu = equilibrium_measure(gm.graph, zero(gm.graph))
        table = {w: F(0) for w in gm.graph.words(3)}
        wide = FiniteRangePotential(gm.graph, 0, 3, table)
        with pytest.raises(PotentialError, match="resolves at most"):
            measure_pressure(mu, wide)


class TestZetaSeries:
    def test_full2_geometric(self, full2):
        t = partition_function(full2.graph, zero(full2.graph), (), 10)
        assert zeta_series(t, 4) == [F(1), F(2), F(4), F(8), F(16)]

    def test_gm_fibonacci(self, gm):
        t = partition_function(gm.graph, zero(gm.graph), (), 10)
        assert zeta_series(t, 4) == [F(1), F(1), F(2), F(3), F(5)]

    def test_closed_forms_to_order_ten(self, gm, full2):
        t_f = partition_function(full2.graph, zero(full2.graph), (), 10)
        assert zeta_series(t_f, 10) == rational_series_coeffs([F(1), F(-2)], 10)
        t_g = partition_function(gm.graph, zero(gm.graph), (), 10)
        assert zeta_series(t_g, 10) == rational_series_coeffs([F(1), F(-1), F(-1)], 10)

    def test_integer_recurrence_matches_the_fraction_recurrence_and_the_determinant(self):
        # on random graphs to order 20 the integer recurrence returns the
        # Fractions of the reference recurrence and of 1 / det(I - tA)
        rng = np.random.default_rng(1970)
        for _ in range(8):
            g = build_graph(*random_irreducible_graph(rng, 6)).graph
            t = partition_function(g, zero(g), (), 20, budget=10**18)
            zs = [t.zn_exact(n).as_integer() for n in range(1, 21)]
            assert zs == [integer_trace(g.adjacency, n) for n in range(1, 21)]
            got = zeta_series(t, 20)
            assert all(type(c) is F for c in got)
            assert got == zeta_fraction_recurrence(zs, 20)
            assert got == rational_series_coeffs(det_one_minus_tA(g.adjacency), 20)

    @pytest.mark.parametrize("shift,potential", [("gm.json", "gm-range1.json"), ("full2.json", "full2-scale-log3.json")])
    def test_weighted_coefficients_are_brackets_of_the_exact_series(self, fixture_dir, shift, potential):
        # a rational (non-integer) and a float table: each coefficient is a
        # (value, error) bracket that holds the 60-digit series of the exact Z_n
        g = docs.parse_shift(docs.loads((fixture_dir / shift).read_text())).graph
        f = docs.parse_potential(docs.loads((fixture_dir / potential).read_text()), g)
        got = zeta_series(partition_function(g, f, (), 12), 12)
        zs = decimal_weighted_traces(g, f.table, 12)
        with localcontext() as ctx:
            ctx.prec = 60
            truth = [Decimal(1)]
            for k in range(1, 13):
                truth.append(sum(zs[j - 1] * truth[k - j] for j in range(1, k + 1)) / k)
        assert len(got) == 13 and got[0] == (1.0, 0.0)
        for k, ((value, err), want) in enumerate(zip(got, truth)):
            assert abs(Decimal(value) - want) <= Decimal(err) <= Decimal(1e-14) * want, k

    def test_empty_shift(self):
        t = PartitionFunctionTable((), True, {n: ExpSum() for n in range(1, 5)}, 4)
        assert zeta_series(t, 3) == [F(1), F(0), F(0), F(0)]

    def test_missing_entries_rejected(self, gm):
        t = partition_function(gm.graph, zero(gm.graph), (), 4)
        with pytest.raises(ValueError, match="missing"):
            zeta_series(t, 8)

    def test_nonempty_base_word_rejected(self, gm):
        t = partition_function(gm.graph, zero(gm.graph), (0,), 6)
        with pytest.raises(ValueError, match="empty base word"):
            zeta_series(t, 4)


class TestExhaustion:
    def test_repeated_level_rejected(self, gm):
        lvl = ExhaustionLevel((0, 1), gm.graph)
        with pytest.raises(Exception):
            ExhaustionPresentation(("0", "1"), (lvl, lvl))  # no strict growth

    def test_single_level_equals_spectral(self, gm):
        exh = ExhaustionPresentation(("0", "1"), (ExhaustionLevel((0, 1), gm.graph),))
        f = FiniteRangePotential.zero(gm.graph)
        est = pressure_exhaustion(exh, f)
        assert est.value == pressure_spectral(gm.graph, f).value

    def test_top_level_must_cover_alphabet(self, gm):
        lvl = ExhaustionLevel((0,), build_graph(["0"], [(0, 0)]).graph)
        with pytest.raises(Exception, match="cover the whole ambient alphabet"):
            ExhaustionPresentation(("0", "1"), (lvl,))

    def test_gm_levels(self, gm):
        lvl1 = ExhaustionLevel((0,), build_graph(["0"], [(0, 0)]).graph)
        lvl2 = ExhaustionLevel((0, 1), gm.graph)
        exh = ExhaustionPresentation(("0", "1"), (lvl1, lvl2))
        f = FiniteRangePotential.zero(gm.graph)
        est = pressure_exhaustion(exh, f)
        assert est.method == "exhaustion-sup"
        assert abs(est.levels[0] - 0.0) <= 1e-12
        assert abs(est.levels[1] - LOG_PHI) <= 1e-9
        assert est.value == est.levels[-1]

    def test_full2_exhausted_by_gm(self, gm, full2):
        lvl1 = ExhaustionLevel((0, 1), gm.graph)
        lvl2 = ExhaustionLevel((0, 1), full2.graph)
        exh = ExhaustionPresentation(("0", "1"), (lvl1, lvl2))
        est = pressure_exhaustion(exh, FiniteRangePotential.zero(full2.graph))
        assert abs(est.levels[0] - 0.4812) <= 1e-3
        assert abs(est.levels[1] - 0.6931) <= 1e-3
        # nondecreasing, and bounded by the ambient pressure
        assert est.levels[0] <= est.levels[1] + 1e-12
        amb = pressure_spectral(full2.graph, FiniteRangePotential.zero(full2.graph))
        assert est.value <= amb.value + 1e-12

    def test_not_nested_rejected(self, gm, full2):
        lvl1 = ExhaustionLevel((0, 1), full2.graph)
        lvl2 = ExhaustionLevel((0, 1), gm.graph)
        with pytest.raises(Exception, match="nested"):
            ExhaustionPresentation(("0", "1"), (lvl1, lvl2))
