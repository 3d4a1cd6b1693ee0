"""Shift presentations: validation, periodic points, block recoding."""
import itertools
import warnings
from collections import Counter

import numpy as np
import pytest

from shiftlab.graphs import (
    BudgetExceededError,
    FiniteGraph,
    GraphError,
    build_graph,
    enumerate_periodic,
    higher_block,
    irreducible_and_period,
    periodic_count_exponents,
    recurrent_core,
    strongly_connected_components,
)

from oracles import brute_force_periodic, integer_trace, random_irreducible_graph, warshall_components


class TestBuildGraph:
    def test_full2_valid(self, full2):
        assert full2.period == 1
        assert full2.removed == ()

    def test_gm_period_one(self, gm):
        # cycle lengths 1 (loop at 0) and 2 (0-1 cycle): gcd 1
        assert gm.period == 1

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(["a"], [(0, 0), (0, 0)])

    def test_empty_after_pruning(self):
        with pytest.raises(GraphError, match="empty"):
            build_graph(["a", "b"], [(0, 1)])

    def test_non_irreducible_reports_components(self):
        with pytest.raises(GraphError, match="components"):
            build_graph(["a", "b", "c", "d"], [(0, 1), (1, 0), (2, 3), (3, 2)])

    def test_pruning_reports_removed(self):
        pres = build_graph(["a", "b", "sink"], [(0, 1), (1, 0), (0, 2)])
        assert pres.removed == ("sink",)
        assert pres.graph.names == ("a", "b")

    def test_pruning_idempotent(self):
        pres = build_graph(["a", "b", "sink"], [(0, 1), (1, 0), (0, 2)])
        again = build_graph(pres.graph.names, pres.graph.edges)
        assert again.graph == pres.graph
        assert again.removed == ()

    def test_closed_words_are_nonempty(self, gm):
        assert gm.graph.is_closed_word((0,)) and gm.graph.is_closed_word((0, 1))
        assert not gm.graph.is_closed_word((1,))
        assert not gm.graph.is_closed_word(())


class TestIrreducibleAndPeriod:
    def test_full2(self, full2):
        assert irreducible_and_period(full2.graph) == (True, 1)

    def test_two_cycle(self):
        g = build_graph(["a", "b"], [(0, 1), (1, 0)]).graph
        assert irreducible_and_period(g) == (True, 2)

    def test_disjoint_loops(self):
        g = FiniteGraph(("a", "b"), ((0, 0), (1, 1)))
        flag, period = irreducible_and_period(g)
        assert flag is False and period is None

    def test_three_cycle(self):
        g = build_graph(list("abc"), [(0, 1), (1, 2), (2, 0)]).graph
        assert irreducible_and_period(g) == (True, 3)


class TestStronglyConnectedComponents:
    def test_matches_transitive_closure_on_random_graphs(self):
        rng = np.random.default_rng(1972)
        reducible = 0
        for _ in range(300):
            V = int(rng.integers(1, 13))
            density = rng.uniform(0.0, 0.4)
            edges = [(u, v) for u in range(V) for v in range(V) if rng.random() < density]
            comps = strongly_connected_components(FiniteGraph(tuple(map(str, range(V))), tuple(edges)))
            assert comps == warshall_components(V, edges), edges
            reducible += len(comps) > 1
        assert reducible > 100

    def test_long_cycle_needs_no_recursion(self):
        N = 20_000
        g = FiniteGraph(tuple(map(str, range(N))), tuple((v, (v + 1) % N) for v in range(N)))
        assert strongly_connected_components(g) == [tuple(range(N))]


class TestRecurrentCore:
    def test_nonempty_iff_transitive_closure_finds_a_cycle(self):
        rng = np.random.default_rng(222)
        kinds = {"dag": 0, "reducible": 0, "cyclic": 0}
        for i in range(300):
            V = int(rng.integers(1, 10))
            density = rng.uniform(0.0, 0.4)
            edges = [(u, v) for u in range(V) for v in range(V) if rng.random() < density]
            if i % 3 == 0:  # forward edges only: a DAG
                edges = [(u, v) for u, v in edges if u < v]
            alive, core = recurrent_core(edges)
            comps = warshall_components(V, edges)
            cyclic = any(len(c) > 1 for c in comps) or any(u == v for u, v in edges)
            assert bool(alive) == cyclic, edges
            assert core <= set(edges) and alive == sorted({v for e in core for v in e})
            assert {u for u, _ in core} == {v for _, v in core} == set(alive)
            kinds["dag" if not cyclic else "reducible" if len(comps) > 1 else "cyclic"] += 1
        assert kinds["dag"] >= 50 and kinds["reducible"] >= 50 and kinds["cyclic"] >= 10, kinds

    def test_keeps_paths_between_cycles(self):
        # 0 -> 1 -> 2 with loops at 0 and 2 keeps 1; the sink 3 goes
        alive, core = recurrent_core([(0, 0), (0, 1), (1, 2), (2, 2), (2, 3)])
        assert alive == [0, 1, 2]
        assert core == {(0, 0), (0, 1), (1, 2), (2, 2)}


class TestPeriodicCountExponents:
    def test_aggregates_the_enumerated_points(self, gm, full2):
        rng = np.random.default_rng(92)
        graphs = [gm.graph, full2.graph]
        for _ in range(3):
            names, edges = random_irreducible_graph(rng, 5)
            graphs.append(build_graph(names, edges).graph)
        for g in graphs:
            V = g.n_vertices
            for n in range(1, 7):
                for length in range(4):
                    for W in itertools.product(range(V), repeat=length):
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always")
                            points = enumerate_periodic(g, n, W)
                            counts, mult = periodic_count_exponents(g, n, W)
                        assert len(caught) == (0 if g.is_word(W) else 2), (W, n)
                        want = Counter(tuple(np.bincount(pt, minlength=V)) for pt in points)
                        got = Counter({tuple(c): int(m) for c, m in zip(counts.tolist(), mult.tolist())})
                        assert got == want, (g.edges, n, W)
                        assert counts.shape == (len(want), V)

    def test_inadmissible_and_long_prefixes(self, gm):
        with pytest.warns(UserWarning, match="not an admissible word"):
            counts, mult = periodic_count_exponents(gm.graph, 3, (1, 1))
        assert counts.shape == (0, 2) and mult.shape == (0,)
        counts, mult = periodic_count_exponents(gm.graph, 1, (0, 0))
        assert counts.tolist() == [[1, 0]] and mult.tolist() == [1]

    def test_window_must_hold_the_prefix(self, gm):
        # a window of periods aggregates by visit counts only from the prefix
        # length on; shorter periods are single calls
        for n_min, n, W in [(1, 4, (0, 0)), (2, 5, (0, 1, 0)), (0, 3, ()), (4, 3, (0,))]:
            with pytest.raises(ValueError, match="window"):
                periodic_count_exponents(gm.graph, n, W, n_min=n_min)
        with pytest.warns(UserWarning, match="not an admissible word"):
            counts, mult = periodic_count_exponents(gm.graph, 5, (1, 1), n_min=2)
        assert counts.shape == (0, 2) and mult.shape == (0,)
        counts, mult = periodic_count_exponents(gm.graph, 5, (0, 0), n_min=2)
        want = [periodic_count_exponents(gm.graph, m, (0, 0)) for m in range(2, 6)]
        assert counts.tolist() == [row for c, _ in want for row in c.tolist()]
        assert mult.tolist() == [k for _, m in want for k in m.tolist()]


class TestEnumeratePeriodic:
    def test_full2_n3_prefix0(self, full2):
        pts = enumerate_periodic(full2.graph, 3, (0,))
        assert len(pts) == 4  # 2^(3-1)

    def test_gm_n4_prefix1(self, gm):
        pts = enumerate_periodic(gm.graph, 4, (1,))
        assert pts == ((1, 0, 0, 0), (1, 0, 1, 0))

    def test_gm_n1_prefix1_empty(self, gm):
        assert enumerate_periodic(gm.graph, 1, (1,)) == ()

    def test_non_word_prefix_warns_empty(self, gm):
        with pytest.warns(UserWarning, match="not an admissible word"):
            assert enumerate_periodic(gm.graph, 3, (1, 1)) == ()

    def test_period_shorter_than_prefix(self, gm):
        assert enumerate_periodic(gm.graph, 1, (0, 0, 0)) == ((0,),)
        # period 2 repeating (0,0) also spells 000...
        assert enumerate_periodic(gm.graph, 2, (0, 0, 0)) == ((0, 0),)
        # but no period-2 point can start with 001
        assert enumerate_periodic(gm.graph, 2, (0, 0, 1)) == ()

    def test_budget(self, full2):
        with pytest.raises(BudgetExceededError):
            enumerate_periodic(full2.graph, 14, budget=50)

    def test_matches_brute_force(self, gm, full2):
        for pres in (gm, full2):
            g = pres.graph
            for n in range(1, 7):
                got = list(enumerate_periodic(g, n))
                assert got == brute_force_periodic(set(g.edges), g.n_vertices, n)

    def test_counts_equal_trace(self, gm, full2):
        rng = np.random.default_rng(11)
        graphs = [gm.graph, full2.graph]
        for _ in range(4):
            names, edges = random_irreducible_graph(rng, 6)
            graphs.append(build_graph(names, edges).graph)
        for g in graphs:
            for n in range(1, 13):
                assert len(enumerate_periodic(g, n)) == integer_trace(g.adjacency, n)


class TestHigherBlock:
    def test_gm_two_blocks(self, gm):
        H, lab = higher_block(gm.graph, 2)
        assert H.n_vertices == 3
        assert len(H.edges) == 5
        assert H.names == ("00", "01", "10")
        assert lab.apply((0, 1, 2)) == (0, 0, 1)

    def test_full2_two_blocks(self, full2):
        H, _ = higher_block(full2.graph, 2)
        assert H.n_vertices == 4
        assert len(H.edges) == 8

    def test_block_one_is_identity(self, gm):
        H, lab = higher_block(gm.graph, 1)
        assert H == gm.graph
        assert lab.symbol_map == (0, 1)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_periodic_counts_preserved(self, gm, full2, N):
        for pres in (gm, full2):
            H, _ = higher_block(pres.graph, N)
            for n in range(1, 11):
                assert len(enumerate_periodic(H, n)) == len(
                    enumerate_periodic(pres.graph, n)
                )

    @pytest.mark.parametrize("N", [2, 3])
    def test_period_preserved(self, N):
        g = build_graph(["a", "b"], [(0, 1), (1, 0)]).graph
        H, _ = higher_block(g, N)
        assert irreducible_and_period(H) == (True, 2)

    def test_labeling_is_conjugacy_on_periodic_points(self, gm):
        # the labeling is injective on periodic points of every period
        H, lab = higher_block(gm.graph, 3)
        for n in range(1, 9):
            images = [lab.apply(p) for p in enumerate_periodic(H, n)]
            assert len(set(images)) == len(images)
            assert set(images) == set(enumerate_periodic(gm.graph, n))


def test_words_lexicographic(gm):
    ws = gm.graph.words(3)
    assert ws == sorted(ws)
    assert (1, 1) not in {w[:2] for w in ws}
