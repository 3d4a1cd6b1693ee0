"""Potentials, Birkhoff sums, Bowen reduction."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

from shiftlab.graphs import enumerate_periodic
from shiftlab.potentials import FiniteRangePotential, PotentialError, birkhoff_sum, bowen_reduce


class TestBirkhoffSum:
    def test_zero_potential(self, full2):
        f = FiniteRangePotential.zero(full2.graph)
        assert birkhoff_sum(f, (0, 1), 7) == 0

    def test_first_coordinate(self, full2):
        f = FiniteRangePotential.from_vertex_values(full2.graph, [F(0), F(1)])
        assert birkhoff_sum(f, (0, 1), 4) == 2

    def test_pair_indicator_counts_cyclically(self, gm):
        # weight 1 exactly on the window 00; the orbit word 0010 wraps around,
        # so both the position-0 and the position-3 windows contribute
        f = FiniteRangePotential(gm.graph, 0, 2, {(0, 0): F(1), (0, 1): F(0), (1, 0): F(0)})
        assert birkhoff_sum(f, (0, 0, 1, 0), 4) == 2

    def test_additivity(self, gm):
        f = FiniteRangePotential.from_vertex_values(gm.graph, [F(1, 3), F(-2, 7)])
        x = (0, 0, 1)
        for n in range(1, 6):
            for m in range(1, 6):
                shifted = x[n % 3:] + x[:n % 3]
                assert birkhoff_sum(f, x, n + m) == birkhoff_sum(f, x, n) + birkhoff_sum(
                    f, shifted, m
                )

    def test_invalid_point_rejected(self, gm):
        f = FiniteRangePotential.zero(gm.graph)
        with pytest.raises(PotentialError):
            birkhoff_sum(f, (1, 1), 2)

    @pytest.mark.parametrize("word", [(1, 0, 1), (0, 2), (0, -1), (-1,)])
    def test_inadmissible_orbit_words_raise_on_every_path(self, gm, word):
        # a missing wrap edge (1 -> 1), an out-of-range letter, and negative
        # letters, which a numpy index would read as vertex 1; each for span 1
        # and for n below the word's length (checked edge by edge), and for
        # spans 2-3 over whole and partial turns (the window lookups are the
        # check)
        tables = [FiniteRangePotential.zero(gm.graph)] + [
            FiniteRangePotential(gm.graph, left, span - left, {w: F(1) for w in gm.graph.words(span)})
            for span in (2, 3) for left in range(span)
        ]
        for f in tables:
            for n in (1, len(word), 2 * len(word), len(word) + 1):
                with pytest.raises(PotentialError, match="not admissible"):
                    birkhoff_sum(f, word, n)

    def test_empty_orbit_word_rejected(self, gm):
        # a closed orbit has at least one letter; () once died dividing by its length
        f = FiniteRangePotential.zero(gm.graph)
        with pytest.raises(PotentialError, match="not admissible"):
            birkhoff_sum(f, (), 3)


class TestTableValidation:
    def test_table_must_cover_exactly(self, gm):
        with pytest.raises(PotentialError, match="cover exactly"):
            FiniteRangePotential(gm.graph, 0, 2, {(0, 0): F(1)})
        with pytest.raises(PotentialError, match="cover exactly"):
            FiniteRangePotential(
                gm.graph, 0, 1, {(0,): F(1), (1,): F(0), (2,): F(0)}
            )

    def test_non_finite_rejected(self, gm):
        with pytest.raises(PotentialError, match="non-finite"):
            FiniteRangePotential.from_vertex_values(gm.graph, [math.inf, 0.0])


class TestBowenReduce:
    def test_future_only_is_fixed(self, gm):
        f = FiniteRangePotential.zero(gm.graph)
        g, h = bowen_reduce(f)
        assert g.table == f.table and g.left == 0
        assert all(v == 0 for v in h.table.values())

    def test_full2_memory_one(self, full2):
        # f(x) = x_{-1} x_0
        f = FiniteRangePotential(
            full2.graph, 1, 1,
            {(0, 0): F(0), (0, 1): F(0), (1, 0): F(0), (1, 1): F(1)},
        )
        g, h = bowen_reduce(f)
        assert g.left == 0 and g.right == 2
        assert h.table == f.table  # h = f for m = 1, r = 1
        for w in full2.graph.words(3):
            lhs = f.table[w[0:2]] + h.table[w[1:3]] - h.table[w[0:2]]
            assert lhs == g.table[w[1:3]]

    def test_coboundary_identity_random(self, gm):
        rng = np.random.default_rng(3)
        for _ in range(10):
            table = {w: F(int(rng.integers(-9, 10)), 4) for w in gm.graph.words(2)}
            f = FiniteRangePotential(gm.graph, 1, 1, table)
            g, h = bowen_reduce(f)
            for w in gm.graph.words(3):
                assert f.table[w[0:2]] + h.table[w[1:3]] - h.table[w[0:2]] == g.table[w[1:3]]

    def test_periodic_sums_invariant(self, full2):
        rng = np.random.default_rng(4)
        table = {w: F(int(rng.integers(-9, 10)), 3) for w in full2.graph.words(3)}
        f = FiniteRangePotential(full2.graph, 1, 2, table)
        g, _ = bowen_reduce(f)
        for n in range(1, 7):
            for x in enumerate_periodic(full2.graph, n):
                assert birkhoff_sum(f, x, n) == birkhoff_sum(g, x, n)
