"""Potentials, Birkhoff sums, oscillation certificates, Bowen reduction."""
import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest

from shiftlab.graphs import enumerate_periodic
from shiftlab.potentials import (
    FiniteRangePotential,
    GeometricTail,
    PolynomialTail,
    PotentialError,
    RegularityClass,
    VariationCertificate,
    ZeroTail,
    birkhoff_sum,
    bowen_reduce,
    certify_class,
    check_variation_certificate,
    lift_variation,
)

from oracles import tail_series

# omega_n = 2^-n for every n: explicit first term, geometric remainder
GEO_CERT = VariationCertificate(
    prefix=(F(1, 2),), tail=GeometricTail(F(1), F(1, 2)), p=1, words=((0,),)
)


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


class TestCertificates:
    def test_geometric_p1_sums_to_two_exactly(self):
        res = check_variation_certificate(GEO_CERT)
        assert res.accept and res.exact
        assert res.value == 2.0 and res.error == 0.0

    def test_inverse_square_p1_rejected(self):
        cert = VariationCertificate(prefix=(), tail=PolynomialTail(F(1), 2), p=1)
        res = check_variation_certificate(cert)
        assert not res.accept
        assert "diverges" in res.witness

    def test_zero_accepts(self):
        cert = VariationCertificate(prefix=(), tail=ZeroTail(), p=1)
        res = check_variation_certificate(cert)
        assert res.accept and res.value == 0.0 and res.exact

    def test_inverse_square_p0_value(self):
        cert = VariationCertificate(prefix=(), tail=PolynomialTail(1.0, 2), p=0)
        res = check_variation_certificate(cert)
        assert res.accept
        assert abs(res.value - math.pi**2 / 6) <= res.error

    def test_monotone_smaller_omega_never_flips(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n0 = int(rng.integers(0, 4))
            base = sorted((F(int(rng.integers(1, 40)), 40) for _ in range(n0)), reverse=True)
            ratio = F(int(rng.integers(1, 9)), 10)
            coef = min(base) if base else F(1)
            cert = VariationCertificate(
                prefix=tuple(base), tail=GeometricTail(coef * F(1, 2), ratio), p=1
            )
            res = check_variation_certificate(cert)
            assert res.accept
            smaller = VariationCertificate(
                prefix=tuple(x / 2 for x in base),
                tail=GeometricTail(coef * F(1, 4), ratio),
                p=1,
            )
            res2 = check_variation_certificate(smaller)
            assert res2.accept
            assert res2.value <= res.value + 1e-12

    def test_p_outside_zero_one_rejected(self):
        for p in (2, -1):
            with pytest.raises(PotentialError, match="p must be 0"):
                VariationCertificate(prefix=(), tail=ZeroTail(), p=p)

    @staticmethod
    def _within_error(res, want: Decimal):
        assert res.accept and not res.exact
        assert abs(Decimal(res.value) - want) <= Decimal(res.error), (res, want)

    def test_float_geometric_certificates_near_ratio_one(self):
        # long prefixes of omega_n = c r^n with the tail c r^n past them
        for ratio in (1 - 1e-6, 1 - 1e-9):
            for n0 in (1000, 3000):
                prefix = tuple(0.75 * ratio**n for n in range(1, n0 + 1))
                for p in (0, 1):
                    res = check_variation_certificate(
                        VariationCertificate(prefix=prefix, tail=GeometricTail(0.75, ratio), p=p))
                    head = sum(F(n) ** p * F(w) for n, w in enumerate(prefix, start=1))
                    with localcontext() as ctx:
                        ctx.prec = 60
                        want = Decimal(head.numerator) / Decimal(head.denominator) + tail_series(
                            "geometric", 0.75, ratio, n0, 1.0, p)
                        self._within_error(res, want)

    def test_shifted_polynomial_certificates_against_zeta(self):
        for shift in range(1, 6):
            for power in (2, 3, 4):
                for p in (0, 1):
                    for n0 in (0, 3):
                        prefix = tuple(F(1, (n + shift) ** power) for n in range(1, n0 + 1))
                        cert = VariationCertificate(prefix=prefix, tail=PolynomialTail(F(1), power, shift), p=p)
                        res = check_variation_certificate(cert)
                        if power - p <= 1:
                            assert not res.accept and "diverges" in res.witness
                            continue
                        head = sum(F(n) ** p * w for n, w in enumerate(prefix, start=1))
                        want = Decimal(head.numerator) / Decimal(head.denominator) + tail_series(
                            "polynomial", 1.0, power, n0, 1.0, p, shift=shift)
                        self._within_error(res, want)
        # sum n (n+2)^-3 = zeta(2) - 5/4 - 2 (zeta(3) - 9/8)
        res = check_variation_certificate(VariationCertificate(prefix=(), tail=PolynomialTail(1.0, 3, 2), p=1))
        assert abs(res.value - 0.240820260529038) <= res.error <= 1e-12

    def test_nonincreasing_enforced(self):
        with pytest.raises(PotentialError, match="nonincreasing"):
            VariationCertificate(prefix=(F(1, 4), F(1, 2)), tail=ZeroTail(), p=1)
        with pytest.raises(PotentialError, match="continue nonincreasingly"):
            VariationCertificate(prefix=(F(1, 8),), tail=GeometricTail(F(1), F(1, 2)), p=1)


class TestLiftVariation:
    def test_shift_by_min_offset(self):
        lifted = lift_variation(GEO_CERT, 2, 1)
        for n in range(1, 8):
            assert lifted.omega(n) == F(1, 2) ** (n + 1)

    def test_identity_when_offsets_zero(self):
        assert lift_variation(GEO_CERT, 0, 0) == GEO_CERT

    def test_lifted_sum_still_bounded(self):
        lifted = lift_variation(GEO_CERT, 3, 0)
        res = check_variation_certificate(lifted)
        assert res.accept
        assert res.value <= 2.0 + 1e-12

    def test_lifted_sum_bounded_by_shifted_sums(self):
        # partial sums of both sides of the displayed bound:
        # sum n^p max(omega_{n+L}, omega_{n+M}) <= sum (n+L)^p omega_{n+L} + (n+M)^p omega_{n+M}
        rng = np.random.default_rng(14)
        for _ in range(15):
            cert = VariationCertificate(
                prefix=(),
                tail=GeometricTail(F(int(rng.integers(1, 5))), F(int(rng.integers(1, 9)), 10)),
                p=int(rng.integers(0, 2)),
            )
            L, M = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            lifted = lift_variation(cert, L, M)
            p = cert.p
            lhs = sum(n**p * lifted.omega(n) for n in range(1, 60))
            rhs = sum(
                (n + L) ** p * cert.omega(n + L) + (n + M) ** p * cert.omega(n + M)
                for n in range(1, 60)
            )
            assert lhs <= rhs
            for n in range(1, 30):
                assert lifted.omega(n) == max(cert.omega(n + L), cert.omega(n + M))

    def test_lift_preserves_acceptance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cert = VariationCertificate(
                prefix=(),
                tail=GeometricTail(F(int(rng.integers(1, 6))), F(int(rng.integers(1, 9)), 10)),
                p=int(rng.integers(0, 2)),
            )
            assert check_variation_certificate(cert).accept
            L, M = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            assert check_variation_certificate(lift_variation(cert, L, M)).accept


class TestRegularityClass:
    def test_e0_plus_needs_future_only(self, full2):
        f = FiniteRangePotential(
            full2.graph, 1, 1,
            {w: F(0) for w in full2.graph.words(2)},
        )
        cert = VariationCertificate(prefix=(), tail=ZeroTail(), p=0)
        with pytest.raises(PotentialError, match="future-only"):
            certify_class(f, cert, RegularityClass.E0_PLUS)

    def test_e1_requires_p1(self, gm):
        f = FiniteRangePotential.zero(gm.graph)
        cert = VariationCertificate(prefix=(), tail=ZeroTail(), p=0)
        with pytest.raises(PotentialError, match="needs p = 1"):
            certify_class(f, cert, RegularityClass.E1)
        assert certify_class(f, GEO_CERT, RegularityClass.E1).accept


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
