"""Induced presentations, loop systems, recurrence classification."""
import math
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest

from shiftlab.graphs import BudgetExceededError, GraphError, build_graph, higher_block
from shiftlab.induction import (
    Loop,
    LoopSystem,
    TailDescriptor,
    _tail_sum,
    induce,
    induce_structured,
    lift_potential,
    loop_partition_function,
    loop_zn_exact,
    phi_injective_on_periodic,
    return_series,
    verify_zn_coincidence,
)
from shiftlab.potentials import (
    FiniteRangePotential,
    PotentialError,
    GeometricTail,
    VariationCertificate,
    check_variation_certificate,
)
from shiftlab.thermo import partition_function, pressure_spectral, recurrence_classify

from oracles import (
    decimal_loop_zn,
    integer_trace,
    random_irreducible_graph,
    random_rational_values,
    tail_series,
)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
C6 = 6.0 / math.pi**2


class TestInduce:
    def test_gm_at_zero(self, gm):
        ind = induce(gm.graph, (0,), maxlen=10)
        loops = [(lp.length, lp.label) for lp in ind.loops.loops]
        assert loops == [(1, (0,)), (2, (0, 1))]
        (tail,) = ind.loops.tails
        assert tail.kind == "zero"  # off-core part (vertex 1 alone) has no cycle

    def test_gm_at_one(self, gm):
        ind = induce(gm.graph, (1,), maxlen=10)
        loops = [(lp.length, lp.label) for lp in ind.loops.loops]
        assert loops == [(k, (1,) + (0,) * (k - 1)) for k in range(2, 11)]
        (tail,) = ind.loops.tails
        assert tail.kind == "geometric" and tail.bound == "upper"
        assert tail.ratio == pytest.approx(1.0, abs=1e-9)

    def test_full2_at_zero(self, full2):
        ind = induce(full2.graph, (0,), maxlen=10)
        loops = [(lp.length, lp.label) for lp in ind.loops.loops]
        assert loops == [(k, (0,) + (1,) * (k - 1)) for k in range(1, 11)]

    def test_two_letter_word(self, gm):
        ind = induce(gm.graph, (1, 0), maxlen=8)
        # first returns of the 2-block vertex "10"
        for lp in ind.loops.loops:
            assert lp.label[:2] == (1, 0)

    def test_inadmissible_word_rejected(self, gm):
        with pytest.raises(GraphError, match="admissible"):
            induce(gm.graph, (1, 1), maxlen=5)

    def test_different_lengths_rejected(self, gm):
        with pytest.raises(GraphError, match="common length"):
            induce(gm.graph, (0,), (0, 1), maxlen=5)

    def test_budget(self, full2):
        with pytest.raises(BudgetExceededError):
            induce(full2.graph, (0,), maxlen=40, budget=10)

    def test_two_word_induction(self, gm):
        ind = induce(gm.graph, (0,), (1,), maxlen=8)
        pairs = {(lp.src, lp.dst) for lp in ind.loops.loops}
        assert pairs == {(1, 1), (1, 2), (2, 1)}  # no 1->...->1 path avoiding 0... 2->2 impossible
        assert ind.loops.two_vertex


class TestStructuredInduction:
    def test_doubled_word_shape(self, gm):
        # shortest lexicographic fillers: w a w b = 0 0 0 0 and 1 0 1 0
        ind = induce_structured(gm.graph, (0,), maxlen=12)
        assert ind.source_words == ((0, 0, 0, 0),)
        assert ind.offsets == (1, 1)  # L = |w|, M = N - |b| - L - 1
        ind2 = induce_structured(gm.graph, (1,), maxlen=12)
        assert ind2.source_words == ((1, 0, 1, 0),)
        assert ind2.offsets == (1, 1)

    def test_lift_uses_offsets(self, gm):
        ind = induce_structured(gm.graph, (0,), maxlen=12)
        cert = VariationCertificate(
            prefix=(F(1, 2),), tail=GeometricTail(F(1), F(1, 2)), p=1, words=((0,),)
        )
        f = FiniteRangePotential.from_vertex_values(gm.graph, [F(1, 4), F(-1, 4)])
        system, lifted = lift_potential(ind, f, cert)
        s = min(ind.offsets)
        for n in range(1, 6):
            assert lifted.omega(n) == cert.omega(n + s)
        assert check_variation_certificate(lifted).accept


class TestLiftPotential:
    def test_zero_potential_zero_weights(self, gm):
        ind = induce(gm.graph, (0,), maxlen=10)
        system, _ = lift_potential(ind, FiniteRangePotential.zero(gm.graph))
        assert all(lp.log_weight == 0 for lp in system.loops)

    def test_range_one_weights_sum_labels(self, gm):
        c0, c1 = F(2, 3), F(-1, 5)
        f = FiniteRangePotential.from_vertex_values(gm.graph, [c0, c1])
        ind = induce(gm.graph, (0,), maxlen=10)
        system, _ = lift_potential(ind, f)
        by_len = {lp.length: lp.log_weight for lp in system.loops}
        assert by_len[1] == c0
        assert by_len[2] == c0 + c1

    def test_certificate_lift(self, gm):
        cert = VariationCertificate(
            prefix=(F(1, 2),), tail=GeometricTail(F(1), F(1, 2)), p=1, words=((0,),)
        )
        ind = induce(gm.graph, (0,), maxlen=8)
        _, lifted = lift_potential(ind, FiniteRangePotential.zero(gm.graph), cert)
        # default offsets (0, N-1) shift by min = 0
        assert lifted == cert

    def test_composed_weight_additivity(self, gm):
        rng = np.random.default_rng(8)
        f = FiniteRangePotential.from_vertex_values(gm.graph, random_rational_values(rng, 2))
        ind = induce(gm.graph, (0,), maxlen=10)
        system, _ = lift_potential(ind, f)
        from shiftlab.potentials import birkhoff_sum
        from shiftlab.graphs import PeriodicPoint

        l1, l2 = system.loops[0], system.loops[1]
        composed = PeriodicPoint(l1.label + l2.label)
        total = birkhoff_sum(f, composed, l1.length + l2.length)
        assert total == l1.log_weight + l2.log_weight


def _random_potential(rng, g, span, left, rational):
    values = random_rational_values(rng, len(g.words(span)))
    if not rational:
        values = [float(x) + float(rng.normal(0, 1e-3)) for x in values]
    return FiniteRangePotential(g, left, span - left, dict(zip(g.words(span), values)))


class TestWeighing:
    def test_weighing_twice_equals_weighing_once(self):
        # the series and Z_n of a system weighed through lift_potential equal
        # those of the same system handed the potential directly
        rng = np.random.default_rng(41)
        kinds = set()
        for _ in range(24):
            names, edges = random_irreducible_graph(rng, 5)
            g = build_graph(names, edges).graph
            span = int(rng.integers(1, 4))
            left = int(rng.integers(0, 2)) if span > 1 else 0
            rational = bool(rng.integers(0, 2))
            f = _random_potential(rng, g, span, left, rational)
            v = int(rng.integers(0, g.n_vertices))
            W = (v,) if span < 3 else (v, int(g.successors(v)[0]))
            try:
                ind = induce(g, W, maxlen=8, budget=50_000)
            except BudgetExceededError:
                continue
            weighted, _ = lift_potential(ind, f)
            once, twice = return_series(weighted), return_series(ind.loops, f)
            for z in (0.05, 0.3, 0.55):
                assert repr((once.F(z), once.Fprime(z))) == repr((twice.F(z), twice.Fprime(z)))
            if rational:
                assert loop_zn_exact(ind.loops, f, 9) == loop_zn_exact(weighted, None, 9)
            else:
                for system, pot in ((ind.loops, f), (weighted, None)):
                    with pytest.raises(ValueError, match="rational"):
                        loop_zn_exact(system, pot, 9)
            kinds.add((span, left, rational))
        assert {k[0] for k in kinds} == {1, 2, 3} and {k[2] for k in kinds} == {True, False}
        assert any(k[1] == 1 for k in kinds)

    def test_underflowed_power_iteration_gives_a_finite_tail(self):
        # the off-core matrix has a zero row while its other entries grow by
        # about e^4 per power step, so that entry of u underflows to 0 and the
        # quotient (B u) / u was 0/0: a NaN tail and an SPR verdict at lam 5e299
        g = build_graph(["0", "1", "2"], [(0, 1), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]).graph
        f = FiniteRangePotential(g, 0, 3, {
            (0, 1, 1): 4.0, (0, 1, 2): 0.83, (1, 1, 1): 0.0, (1, 1, 2): -1.0, (1, 2, 0): -0.57,
            (1, 2, 1): 0.5, (1, 2, 2): -0.14, (2, 0, 1): -0.2, (2, 1, 1): 4.0, (2, 1, 2): 1.0,
            (2, 2, 0): -2.0, (2, 2, 1): -1.5, (2, 2, 2): 4.0,
        })
        ind = induce(g, (0, 1), maxlen=8)
        weighted, _ = lift_potential(ind, f)
        longer, _ = lift_potential(induce(g, (0, 1), maxlen=14), f)
        assert weighted.tails
        for t in weighted.tails:
            assert t.kind == "geometric" and math.isfinite(t.coef) and math.isfinite(t.ratio)
            for n in range(t.start + 1, 15):  # the bound holds on the loops past maxlen
                w_n = sum(lp.count * math.exp(lp.log_weight) for lp in longer.loops
                          if lp.length == n and (lp.src, lp.dst) == (t.src, t.dst))
                assert 0 < w_n <= t.coef * t.ratio**n
        assert recurrence_classify(ind.loops, f).verdict == "indeterminate"
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TailDescriptor(kind="geometric", coef=1.0, ratio=bad)

    def test_labeled_system_without_base_words_rejected(self, gm):
        ind = induce(gm.graph, (0,), maxlen=6)
        bare = LoopSystem(loops=ind.loops.loops, tails=ind.loops.tails, names=ind.loops.names)
        f = FiniteRangePotential.zero(gm.graph)
        with pytest.raises(PotentialError, match="base words"):
            loop_zn_exact(bare, f, 5)
        with pytest.raises(PotentialError, match="base words"):
            partition_function(bare, f, n_max=5)


class TestTailSum:
    @staticmethod
    def _contains(tail, z, d):
        want = tail_series(tail.kind, tail.coef, tail.ratio if tail.kind == "geometric" else tail.power,
                           tail.start, z, d)
        got = _tail_sum(tail, z, d)
        if want is None:
            assert got is None, (tail, z, d)
            return
        lo, hi = got
        assert Decimal(lo) <= want <= Decimal(hi), (tail, z, d, lo, float(want), hi)

    def test_geometric_tails_against_closed_forms(self):
        for coef, ratio, start in ((0.25, 0.5, 1), (1.7, 1.3, 4), (0.01, 0.9, 0), (3.0, 2.0, 12)):
            tail = TailDescriptor(kind="geometric", coef=coef, ratio=ratio, start=start)
            for z in (0.05, 0.3, 0.5, 0.7, 0.76, 0.99):
                for d in (0, 1):
                    self._contains(tail, z, d)

    def test_polynomial_tails_at_one_against_zeta(self):
        for power in (2.0, 3.0, 4.0):
            for start in (0, 1, 7, 40):
                tail = TailDescriptor(kind="polynomial", coef=0.37, power=power, start=start)
                for d in (0, 1):
                    self._contains(tail, 1.0, d)

    def test_polynomial_tails_inside_the_disk(self):
        for power in (1.0, 1.5, 2.0, 3.5):
            for start in (0, 3, 30):
                tail = TailDescriptor(kind="polynomial", coef=2.5, power=power, start=start)
                for z in (0.1, 0.5, 0.8, 0.9):
                    for d in (0, 1):
                        self._contains(tail, z, d)


class TestZnCoincidence:
    def test_gm_at_one_example(self, gm):
        ind = induce(gm.graph, (1,), maxlen=10)
        rep = verify_zn_coincidence(gm.graph, FiniteRangePotential.zero(gm.graph), (1,), ind, 8)
        assert rep.all_equal
        # n = 4: both sides are 2
        n4 = [r for r in rep.rows if r[0] == 4][0]
        assert "2*exp(0)" in n4[1]

    def test_gm_at_zero_compositions(self, gm):
        ind = induce(gm.graph, (0,), maxlen=10)
        rep = verify_zn_coincidence(gm.graph, FiniteRangePotential.zero(gm.graph), (0,), ind, 8)
        assert rep.all_equal
        table = loop_partition_function(ind.loops, None, 8)
        # compositions of 3 into parts {1, 2}: 3  (= (A^3)_{00})
        assert table.zn_exact(3).as_integer() == 3
        assert table.zn_exact(3).as_integer() == integer_trace(
            gm.graph.adjacency, 3
        ) - 1  # closed 3-paths at vertex 1: exactly one (1->0->0->1 starts at 1)

    def test_random_triples_exact(self):
        rng = np.random.default_rng(90)
        done = 0
        while done < 6:
            names, edges = random_irreducible_graph(rng, 6)
            pres = build_graph(names, edges)
            g = pres.graph
            f = FiniteRangePotential.from_vertex_values(
                g, random_rational_values(rng, g.n_vertices)
            )
            v = int(rng.integers(0, g.n_vertices))
            ind = induce(g, (v,), maxlen=10)
            rep = verify_zn_coincidence(g, f, (v,), ind, 10)
            assert rep.all_equal, (names, edges, v)
            done += 1

    def test_perturbed_weight_detected(self, gm):
        ind = induce(gm.graph, (0,), maxlen=10)
        f = FiniteRangePotential.zero(gm.graph)
        system, _ = lift_potential(ind, f)
        bad_loops = list(system.loops)
        bad_loops[0] = Loop(
            length=1, src=1, dst=1, label=None, count=1, log_weight=F(1, 7)
        )
        bad = LoopSystem(
            loops=tuple(bad_loops), tails=system.tails,
            names=system.names, base_words=system.base_words,
        )
        left = partition_function(gm.graph, f, (0,), 6)
        from shiftlab.induction import loop_zn_exact

        right = loop_zn_exact(bad, None, 6)
        mismatch = [n for n in range(1, 7) if left.zn_exact(n) != right[n - 1]]
        assert mismatch and mismatch[0] == 1

    def test_two_vertex_float_table_matches_exact(self):
        loops_rat = (
            Loop(length=1, src=1, dst=1, log_weight=F(1, 4)),
            Loop(length=2, src=1, dst=2, log_weight=F(-1, 3)),
            Loop(length=1, src=2, dst=1, log_weight=F(1, 5)),
            Loop(length=3, src=2, dst=2, log_weight=F(0)),
        )
        sys_rat = LoopSystem(loops=loops_rat, tails=())
        exact = loop_partition_function(sys_rat, None, 8)
        sys_flt = LoopSystem(
            loops=tuple(
                Loop(length=l.length, src=l.src, dst=l.dst, log_weight=float(l.log_weight))
                for l in loops_rat
            ),
            tails=(),
        )
        approx = loop_partition_function(sys_flt, None, 8)
        assert exact.exact and not approx.exact
        for n in range(1, 9):
            e = exact.zn_float(n)
            a, err = approx.entries[n]
            assert abs(a - e) <= max(err, 1e-12 * max(1.0, abs(e)))

    @staticmethod
    def _misses(system, n_max, f=None):
        table = loop_partition_function(system, f, n_max)
        truth = decimal_loop_zn(system, n_max, f)
        misses = []
        for n in range(1, n_max + 1):
            value, err = table.entries[n]
            if abs(Decimal(value) - truth[n - 1]) > Decimal(err) or (err == 0 and truth[n - 1]):
                misses.append((n, value, err, truth[n - 1]))
        return misses

    def test_float_table_error_contains_decimal_truth(self):
        # the first entry that reaches the subnormal range, n = 255, and the
        # entries that underflow to zero past n = 1064 keep a positive bound
        decaying = LoopSystem(loops=(Loop(1, log_weight=-3.3), Loop(2, log_weight=-6.6)), tails=())
        assert not self._misses(decaying, 400)
        single = LoopSystem(loops=(Loop(1, log_weight=-0.7),), tails=())
        assert not self._misses(single, 1200)
        rng = np.random.default_rng(61)
        for _ in range(40):
            pairs = [(1, 1)] + ([(1, 2), (2, 1), (2, 2)] if rng.random() < 0.4 else [])
            loops = tuple(
                Loop(length=int(rng.integers(1, 8)), src=a, dst=b, count=int(rng.integers(1, 4)),
                     log_weight=float(rng.normal(-1.0, 2.0)))
                for a, b in pairs for _ in range(int(rng.integers(1, 4)))
            )
            assert not self._misses(LoopSystem(loops=loops, tails=()), 120)

    def test_float_potential_table_error_contains_decimal_truth(self):
        # weighing by a float potential rounds each loop's Birkhoff sum too
        rng = np.random.default_rng(62)
        for _ in range(12):
            names, edges = random_irreducible_graph(rng, 5)
            g = build_graph(names, edges).graph
            span = int(rng.integers(1, 3))
            f = FiniteRangePotential(g, 0, span, {w: float(rng.normal(0, 3)) for w in g.words(span)})
            ind = induce(g, (int(rng.integers(0, g.n_vertices)),), maxlen=8)
            assert not self._misses(ind.loops, 40, f)

    def test_truncated_tail_reports_inequality(self, gm):
        ind = induce(gm.graph, (1,), maxlen=5)
        rep = verify_zn_coincidence(gm.graph, FiniteRangePotential.zero(gm.graph), (1,), ind, 8)
        assert rep.inequality_only
        assert rep.all_equal  # right side embeds in the left multiset


class TestInjectivity:
    def test_gm_both_vertices(self, gm):
        for v in (0, 1):
            ind = induce(gm.graph, (v,), maxlen=12)
            ok, witness = phi_injective_on_periodic(ind, 10)
            assert ok and witness is None

    def test_random_graphs(self):
        rng = np.random.default_rng(91)
        for _ in range(5):
            names, edges = random_irreducible_graph(rng, 6)
            g = build_graph(names, edges).graph
            ind = induce(g, (0,), maxlen=8)
            ok, _ = phi_injective_on_periodic(ind, 8)
            assert ok


class TestRecurrenceClassify:
    def test_gm_at_zero_spr(self, gm):
        ind = induce(gm.graph, (0,), maxlen=10)
        r = recurrence_classify(ind.loops, FiniteRangePotential.zero(gm.graph))
        assert r.verdict == "SPR" and r.positive_recurrent
        assert abs(math.log(r.lam) - LOG_PHI) <= 1e-6
        lo, hi = r.F_at_z
        assert lo <= 1.0 <= hi or abs(0.5 * (lo + hi) - 1) < 1e-6

    def test_gm_at_one_spr(self, gm):
        ind = induce(gm.graph, (1,), maxlen=50)
        r = recurrence_classify(ind.loops, FiniteRangePotential.zero(gm.graph))
        assert r.verdict == "SPR"
        assert abs(math.log(r.lam) - LOG_PHI) <= 1e-6

    def test_lambda_matches_spectral_pressure(self, gm, full2):
        rng = np.random.default_rng(17)
        for g in (gm.graph, full2.graph):
            f = FiniteRangePotential.from_vertex_values(
                g, random_rational_values(rng, g.n_vertices)
            )
            ind = induce(g, (0,), maxlen=60)
            r = recurrence_classify(ind.loops, f)
            est = pressure_spectral(g, f)
            assert r.verdict == "SPR"
            assert abs(math.log(r.lam) - est.value) <= 1e-6

    def test_null_recurrent_renewal(self):
        sys_ = LoopSystem(
            loops=(), tails=(TailDescriptor(kind="polynomial", coef=C6, power=2.0, start=0),)
        )
        r = recurrence_classify(sys_)
        assert r.verdict == "null_recurrent"
        assert not r.positive_recurrent
        lo, hi = r.F_at_z
        assert lo <= 1.0 <= hi and hi - lo < 1e-9
        assert r.Fprime_at_z is None  # divergent

    def test_transient_renewal(self):
        sys_ = LoopSystem(
            loops=(), tails=(TailDescriptor(kind="polynomial", coef=C6 / 2, power=2.0, start=0),)
        )
        r = recurrence_classify(sys_)
        assert r.verdict == "transient"
        lo, hi = r.F_at_z
        assert abs(0.5 * (lo + hi) - 0.5) <= 1e-9

    def test_positive_recurrent_boundary(self):
        # w_n = c n^-3 with c = 1/zeta(3): F(1) = 1, F'(1) = zeta(2)/zeta(3) finite
        zeta3 = sum(n**-3.0 for n in range(1, 2_000_000))  # to float precision
        sys_ = LoopSystem(
            loops=(), tails=(TailDescriptor(kind="polynomial", coef=1.0 / zeta3, power=3.0, start=0),)
        )
        r = recurrence_classify(sys_, atol=1e-6)
        assert r.verdict == "positive_recurrent"
        assert r.Fprime_at_z is not None

    def test_indeterminate_when_tolerance_too_tight(self):
        # F(1) = 1 but the rigorous interval is wider than the requested atol,
        # so no class can be certified and the verdict must say so
        zeta2_minus_1 = math.pi**2 / 6 - 1.0
        sys_ = LoopSystem(
            loops=(Loop(length=1, log_weight=math.log(0.3)),),
            tails=(TailDescriptor(kind="polynomial", coef=0.7 / zeta2_minus_1, power=2.0, start=1),),
        )
        r = recurrence_classify(sys_, atol=1e-15)
        assert r.verdict == "indeterminate"
        assert "cannot be separated" in r.detail
        # at an honest tolerance the same system classifies as null recurrent
        r2 = recurrence_classify(sys_, atol=1e-9)
        assert r2.verdict == "null_recurrent"

    def test_geometric_tail_always_spr(self):
        sys_ = LoopSystem(
            loops=(Loop(length=1, log_weight=math.log(0.5)),),
            tails=(TailDescriptor(kind="geometric", coef=0.25, ratio=0.5, start=1),),
        )
        r = recurrence_classify(sys_)
        # F(z) = 0.5 z + 0.25 sum_{n>=2} (z/2)^n ... diverges at R = 2: root inside
        assert r.verdict == "SPR"

    def test_lambda_brackets_are_honest(self):
        # on random graphs the certified lambda bracket must contain the true
        # Perron value, or the verdict must honestly refuse to certify
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 8:
            names, edges = random_irreducible_graph(rng, 6)
            pres = build_graph(names, edges)
            g = pres.graph
            f = FiniteRangePotential.from_vertex_values(
                g, random_rational_values(rng, g.n_vertices)
            )
            try:
                ind = induce(g, (0,), maxlen=16, budget=200_000)
            except BudgetExceededError:
                continue
            r = recurrence_classify(ind.loops, f)
            est = pressure_spectral(g, f)
            if r.verdict == "SPR":
                lo, hi = r.lam_bounds
                assert math.log(lo) - 1e-9 <= est.value <= math.log(hi) + 1e-9
            else:
                assert r.verdict == "indeterminate"
            checked += 1

    def test_span_wider_than_word_brackets_perron_root(self, gm, full2):
        # a 2-block potential on 1-letter words: the off-core tail bound
        # takes each block's largest extension, and must still contain the
        # Perron root of the weighted 2-block matrix
        rng = np.random.default_rng(106)
        for g in (gm.graph, full2.graph):
            table = {w: F(int(rng.integers(-6, 7)), 5) for w in g.words(2)}
            f = FiniteRangePotential(g, 0, 2, table)
            H, lab = higher_block(g, 2)
            M = np.zeros((H.n_vertices, H.n_vertices))
            for u, v in H.edges:
                M[u, v] = math.exp(float(table[lab.block_words[u]]))
            rho = max(abs(np.linalg.eigvals(M)))
            r = recurrence_classify(induce(g, (0,), maxlen=30).loops, f)
            assert r.verdict == "SPR"
            lo, hi = r.lam_bounds
            assert lo <= rho <= hi

    def test_period_of_loop_system(self, gm):
        ind = induce(gm.graph, (0,), maxlen=10)
        assert ind.loops.period == 1
        only_two = LoopSystem(loops=(Loop(length=2), Loop(length=4)), tails=())
        assert only_two.period == 2
