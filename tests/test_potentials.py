"""Potentials, Birkhoff sums, tail sums at z = 1, Bowen reduction."""
import math
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest

from shiftlab.graphs import enumerate_periodic
from shiftlab.potentials import (
    FiniteRangePotential,
    GeometricTail,
    PolynomialTail,
    PotentialError,
    ZeroTail,
    birkhoff_sum,
    bowen_reduce,
    tail_sum,
)

from oracles import ZETA, tail_series


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

    def test_sup_recorded(self, gm):
        f = FiniteRangePotential.from_vertex_values(gm.graph, [F(1, 3), F(7, 2)])
        assert f.sup_value == 3.5


def _inside(bracket, want: Decimal):
    lo, hi = bracket
    assert Decimal(lo) <= want <= Decimal(hi), (lo, want, hi)


class TestCertificates:
    """The variation sums sum_{n > start} n^p omega_n (p = 0, 1) at z = 1
    that certify summable variation: exact where they can be, None when
    they diverge, bracketing 80-digit values otherwise."""

    def test_geometric_p1_sums_to_two_exactly(self):
        # sum_{n >= 1} n 2^-n = 2, sum_{n > 1} n 2^-n = 2 - 1/2, sum_{n > 1} 2^-n = 1/2
        assert tail_sum(GeometricTail(F(1), F(1, 2)), 0, 1, 1) == (F(2), F(2))
        assert tail_sum(GeometricTail(F(1), F(1, 2)), 1, 1, 1) == (F(3, 2), F(3, 2))
        assert tail_sum(GeometricTail(F(1), F(1, 2)), 1, 1, 0) == (F(1, 2), F(1, 2))
        assert tail_sum(GeometricTail(F(1), F(1)), 0, 1, 0) is None

    def test_zero_accepts(self):
        for start in (0, 1, 5):
            for d in (0, 1):
                assert tail_sum(ZeroTail(), start, 1, d) == (0, 0)

    def test_inverse_square_p1_rejected(self):
        # sum n * n^-power diverges for power <= 2, sum n^-power for power <= 1
        for start in range(9):
            assert tail_sum(PolynomialTail(F(1), 2), start, 1, 1) is None
            assert tail_sum(PolynomialTail(1.0, 2), start, 1, 1) is None

    def test_shifted_polynomial_certificates_against_zeta(self):
        # omega_n = (n + shift)^-power past n0 is the unshifted tail past n0 + shift
        for shift in range(1, 6):
            for n0 in (0, 3):
                for power in (2, 3, 4):
                    for d in (0, 1):
                        got = tail_sum(PolynomialTail(F(1), power), n0 + shift, 1, d)
                        if power - d <= 1:
                            assert got is None
                            continue
                        _inside(got, tail_series("polynomial", 1.0, power, n0 + shift, 1.0, d))
        # sum_{n > 2} n n^-3 = zeta(2) - 5/4
        lo, hi = tail_sum(PolynomialTail(1.0, 3), 2, 1, 1)
        _inside((lo, hi), ZETA[2] - Decimal("1.25"))
        assert (hi - lo) / 2 <= 1e-12


class TestTailSumAtOne:
    """sum_{n > start} n^d omega_n of a declared tail law, against 80-digit values."""

    def test_inverse_square_p0_value(self):
        lo, hi = tail_sum(PolynomialTail(1.0, 2), 0, 1, 0)
        _inside((lo, hi), tail_series("polynomial", 1.0, 2, 0, 1.0, 0))
        assert lo <= math.pi**2 / 6 <= hi

    def test_float_geometric_tails_near_ratio_one(self):
        for ratio in (1 - 1e-6, 1 - 1e-9):
            for start in (0, 1000, 3000):
                for d in (0, 1):
                    want = tail_series("geometric", 0.75, ratio, start, 1.0, d)
                    _inside(tail_sum(GeometricTail(0.75, ratio), start, 1, d), want)


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
