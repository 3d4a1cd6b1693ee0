"""One-block codes, magic words, the induced point map, measure transport."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

from shiftlab.codes import (
    AlmostIsomorphism,
    CodeError,
    DomainError,
    EventuallyPeriodicPoint,
    OneBlockCode,
    assemble_ai,
    from_periodic,
    gamma_on_point,
    labeling_code,
    points_equal,
    shift_point,
    transport_measure,
    verify_correspondence,
    verify_magic,
)
from shiftlab.graphs import PeriodicPoint, build_graph, higher_block
from shiftlab.potentials import FiniteRangePotential
from shiftlab.thermo import equilibrium_measure, measure_pressure

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


@pytest.fixture(scope="module")
def gm_graph():
    return build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0)]).graph


@pytest.fixture(scope="module")
def full2_graph():
    return build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0), (1, 1)]).graph


@pytest.fixture(scope="module")
def identity_code(gm_graph):
    return OneBlockCode(source=gm_graph, target=gm_graph, symbol_map=(0, 1), conjugacy_window=1)


@pytest.fixture(scope="module")
def block2_code(gm_graph):
    H, lab = higher_block(gm_graph, 2)
    return labeling_code(H, lab, gm_graph)


@pytest.fixture(scope="module")
def collapse_code(full2_graph):
    point = build_graph(["*"], [(0, 0)]).graph
    return OneBlockCode(source=full2_graph, target=point, symbol_map=(0, 0))


@pytest.fixture(scope="module")
def gm_self_ai(block2_code):
    cert = verify_magic(block2_code, (1, 0), 0, 8)
    assert cert.certified
    return assemble_ai(block2_code, block2_code, cert, cert)


class TestOneBlockCode:
    def test_identity_apply(self, identity_code):
        assert identity_code.apply(PeriodicPoint((1, 0))).word == (1, 0)

    def test_labeling_applies_first_letter(self, gm_graph, block2_code):
        H, lab = higher_block(gm_graph, 2)
        idx = lab.block_index()
        x = PeriodicPoint((idx[(1, 0)], idx[(0, 1)]))
        assert block2_code.apply(x).word == (1, 0)

    def test_collapse_constant(self, collapse_code):
        assert collapse_code.apply(PeriodicPoint((0, 1))).word == (0, 0)

    def test_edge_violation_rejected(self, gm_graph, full2_graph):
        # mapping FULL2 onto GM sends the forbidden 11 edge nowhere
        with pytest.raises(CodeError, match="not a target edge"):
            OneBlockCode(source=full2_graph, target=gm_graph, symbol_map=(0, 1))

    def test_inadmissible_input_rejected(self, identity_code):
        with pytest.raises(CodeError, match="not admissible"):
            identity_code.apply(PeriodicPoint((1, 1)))


class TestVerifyMagic:
    def test_identity_certified(self, identity_code):
        cert = verify_magic(identity_code, (1,), 0, 8)
        assert cert.certified

    def test_block2_certified(self, block2_code):
        cert = verify_magic(block2_code, (1, 0), 0, 8)
        assert cert.certified

    def test_collapse_refuted_with_sound_witness(self, collapse_code):
        cert = verify_magic(collapse_code, (0,), 0, 2)
        assert cert.status == "refuted"
        C, u, v = cert.witness
        assert u != v
        # soundness: both witnesses map onto the same W C W window
        image = (0,) + C + (0,)
        assert collapse_code.apply_word(u) == image == collapse_code.apply_word(v)

    def test_offset_window_validated(self, identity_code):
        with pytest.raises(CodeError, match="offset"):
            verify_magic(identity_code, (1,), 5, 4)

    def test_nonword_rejected(self, identity_code):
        with pytest.raises(CodeError, match="target word"):
            verify_magic(identity_code, (1, 1), 0, 4)

    def test_budget_reports_partial_depth(self, block2_code):
        cert = verify_magic(block2_code, (1, 0), 0, 8, budget=40)
        assert cert.certified
        assert cert.truncated
        assert cert.depth < 8 and cert.requested_depth == 8

    def test_truncated_certificate_cannot_assemble(self, block2_code):
        cert = verify_magic(block2_code, (1, 0), 0, 8, budget=40)
        with pytest.raises(CodeError, match="truncated"):
            assemble_ai(block2_code, block2_code, cert, cert)

    def test_periodic_preimage_condition(self, gm_graph):
        # a code onto FULL2 from GM: the image point (11)^inf has no preimage,
        # so any magic-word candidate must be refuted on condition (1)
        full2 = build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0), (1, 1)]).graph
        code = OneBlockCode(source=gm_graph, target=full2, symbol_map=(0, 1))
        cert = verify_magic(code, (0,), 0, 3)
        assert cert.status == "refuted"
        assert cert.periodic_failure is not None
        assert 1 in cert.periodic_failure  # the failing cyclic word uses letter 1


class TestAssemble:
    def test_identity_ai(self, identity_code):
        cert = verify_magic(identity_code, (1,), 0, 6)
        ai = assemble_ai(identity_code, identity_code, cert, cert)
        assert ai.conjugate_legs

    def test_refuted_certificate_rejected(self, collapse_code, identity_code):
        bad = verify_magic(collapse_code, (0,), 0, 2)
        good = verify_magic(identity_code, (1,), 0, 4)
        with pytest.raises(CodeError, match="refuted"):
            assemble_ai(identity_code, identity_code, good, bad)

    def test_mismatched_sources_rejected(self, identity_code, block2_code):
        cert1 = verify_magic(identity_code, (1,), 0, 4)
        cert2 = verify_magic(block2_code, (1, 0), 0, 4)
        with pytest.raises(CodeError, match="common source"):
            assemble_ai(identity_code, block2_code, cert1, cert2)


class TestGamma:
    def test_identity_on_periodic(self, gm_self_ai):
        x = from_periodic(PeriodicPoint((1, 0)))
        y = gamma_on_point(gm_self_ai, x)
        assert points_equal(x, y)

    def test_shift_commutation(self, gm_self_ai):
        x = EventuallyPeriodicPoint(left=(0, 1), core=(0, 0, 0, 1), right=(0, 0, 1))
        for k in range(-4, 5):
            a = gamma_on_point(gm_self_ai, shift_point(x, k))
            b = shift_point(gamma_on_point(gm_self_ai, x), k)
            assert points_equal(a, b)

    def test_genuinely_eventually_periodic(self, gm_self_ai):
        x = EventuallyPeriodicPoint(left=(1, 0), core=(0, 0, 0, 0, 1), right=(0, 0, 1))
        y = gamma_on_point(gm_self_ai, x)
        assert points_equal(x, y)  # the self AI acts as the identity

    def test_domain_error_without_magic_word(self, gm_self_ai):
        with pytest.raises(DomainError):
            gamma_on_point(gm_self_ai, from_periodic(PeriodicPoint((0,))))

    def test_point_shifting(self):
        x = EventuallyPeriodicPoint(left=(0, 1), core=(1, 1), right=(0,))
        s = shift_point(x, 2)
        assert [s.sample(i) for i in range(-3, 3)] == [x.sample(i + 2) for i in range(-3, 3)]


class TestTransport:
    def test_identity_ai_keeps_bernoulli(self, full2_graph):
        code = OneBlockCode(source=full2_graph, target=full2_graph, symbol_map=(0, 1), conjugacy_window=1)
        cert = verify_magic(code, (0,), 0, 6)
        ai = assemble_ai(code, code, cert, cert)
        from shiftlab.thermo import MarkovMeasure

        mu = MarkovMeasure(
            graph=full2_graph, order=1, blocks=((0,), (1,)),
            transitions=np.array([[0.5, 0.5], [0.5, 0.5]]),
            stationary=np.array([0.5, 0.5]),
        )
        rep = transport_measure(ai, mu, order=1)
        assert np.allclose(rep.measure.transitions, 0.5, atol=1e-12)
        assert abs(rep.entropy_out - rep.entropy_in) <= 1e-12

    def test_sampling_concentrated_measure(self, full2_graph):
        # every sampled 2-block is "00": nine frequencies of 1/9 sum to
        # 1 + 2**-52, and the width must still come out real
        code = OneBlockCode(source=full2_graph, target=full2_graph, symbol_map=(0, 1), conjugacy_window=1)
        cert = verify_magic(code, (0,), 0, 6)
        ai = assemble_ai(code, code, cert, cert)
        from shiftlab.thermo import MarkovMeasure

        eps = 1e-12
        mu = MarkovMeasure(
            graph=full2_graph, order=1, blocks=((0,), (1,)),
            transitions=np.array([[1 - eps, eps], [0.5, 0.5]]),
            stationary=np.array([1 - 2 * eps, 2 * eps]),
        )
        rep = transport_measure(ai, mu, order=1, samples=10, seed=1)
        assert rep.measure.blocks == ((0,),)
        assert math.isfinite(rep.confidence_width) and rep.confidence_width >= 0

    def test_sampling_width_positive_on_concentrated_measure(self, full2_graph):
        # every sampled 2-block is "00"; nine identical blocks are no certainty,
        # and the Wilson half-width at p = 1 is z^2 / (2 (n + z^2)) with n = 9
        code = OneBlockCode(source=full2_graph, target=full2_graph, symbol_map=(0, 1), conjugacy_window=1)
        cert = verify_magic(code, (0,), 0, 6)
        ai = assemble_ai(code, code, cert, cert)
        from shiftlab.thermo import MarkovMeasure

        eps = 1e-12
        mu = MarkovMeasure(
            graph=full2_graph, order=1, blocks=((0,), (1,)),
            transitions=np.array([[1 - eps, eps], [0.5, 0.5]]),
            stationary=np.array([1 - 2 * eps, 2 * eps]),
        )
        rep = transport_measure(ai, mu, order=1, samples=10, seed=1)
        assert rep.measure.blocks == ((0,),)
        assert rep.confidence_width > 0
        assert rep.confidence_width == pytest.approx(1.96**2 / (2 * (9 + 1.96**2)), rel=1e-12)

    def test_parry_closed_form(self, gm_self_ai, gm_graph):
        mu = equilibrium_measure(gm_graph, FiniteRangePotential.zero(gm_graph))
        rep = transport_measure(gm_self_ai, mu, order=2)
        assert rep.method == "closed-form"
        assert abs(rep.entropy_out - LOG_PHI) <= 1e-12
        assert rep.tv_gap <= 1e-12

    def test_sampling_reproduces_entropy(self, gm_self_ai, gm_graph):
        mu = equilibrium_measure(gm_graph, FiniteRangePotential.zero(gm_graph))
        rep = transport_measure(gm_self_ai, mu, order=2, samples=100_000, seed=42)
        assert rep.method == "sampling"
        assert abs(rep.entropy_out - LOG_PHI) <= 0.01
        assert rep.confidence_width is not None

    def test_sampling_deterministic_per_seed(self, gm_self_ai, gm_graph):
        mu = equilibrium_measure(gm_graph, FiniteRangePotential.zero(gm_graph))
        a = transport_measure(gm_self_ai, mu, order=1, samples=5000, seed=7)
        b = transport_measure(gm_self_ai, mu, order=1, samples=5000, seed=7)
        assert np.array_equal(a.measure.transitions, b.measure.transitions)
        c = transport_measure(gm_self_ai, mu, order=1, samples=5000, seed=8)
        assert not np.array_equal(a.measure.transitions, c.measure.transitions)

    def test_seed_required_for_sampling(self, gm_self_ai, gm_graph):
        mu = equilibrium_measure(gm_graph, FiniteRangePotential.zero(gm_graph))
        with pytest.raises(CodeError, match="seed"):
            transport_measure(gm_self_ai, mu, order=1, samples=1000)

    def test_not_fully_supported_rejected(self, gm_self_ai, gm_graph):
        from shiftlab.thermo import MarkovMeasure

        mu = MarkovMeasure(
            graph=gm_graph, order=1, blocks=((0,), (1,)),
            transitions=np.array([[1.0, 0.0], [1.0, 0.0]]),
            stationary=np.array([1.0, 0.0]),
        )
        with pytest.raises(CodeError, match="fully supported"):
            transport_measure(gm_self_ai, mu, order=1)

    def test_non_conjugate_legs_fall_back_to_sampling(self, gm_graph):
        # same codes but without the conjugacy marker: closed form unavailable
        H, lab = higher_block(gm_graph, 2)
        plain = OneBlockCode(source=H, target=gm_graph, symbol_map=lab.symbol_map)
        cert = verify_magic(plain, (1, 0), 0, 6)
        ai = assemble_ai(plain, plain, cert, cert)
        assert not ai.conjugate_legs
        mu = equilibrium_measure(gm_graph, FiniteRangePotential.zero(gm_graph))
        with pytest.raises(CodeError, match="sampling budget and seed"):
            transport_measure(ai, mu, order=1)
        rep = transport_measure(ai, mu, order=1, samples=50_000, seed=11)
        assert rep.method == "sampling"
        assert abs(rep.entropy_out - LOG_PHI) <= 0.02

    def test_entropy_and_pressure_preserved(self, gm_self_ai, gm_graph):
        rng = np.random.default_rng(3)
        f = FiniteRangePotential.from_vertex_values(gm_graph, [F(1, 3), F(-2, 5)])
        g = FiniteRangePotential(gm_graph, 0, 2, {w: f.table[w[:1]] for w in gm_graph.words(2)})
        mu = equilibrium_measure(gm_graph, f)
        rep = transport_measure(gm_self_ai, mu, order=2)
        assert abs(rep.entropy_out - mu.entropy()) <= 1e-9
        assert abs(measure_pressure(rep.measure, g) - measure_pressure(mu, f)) <= 1e-9


class TestDistinctLegsAi:
    """An almost isomorphism between genuinely different presentations:
    the golden mean shift and its own 2-block graph."""

    @pytest.fixture()
    def cross_ai(self, gm_graph):
        H, lab = higher_block(gm_graph, 2)
        code_s = labeling_code(H, lab, gm_graph)          # R = H -> S = GM
        code_t = OneBlockCode(source=H, target=H,
                              symbol_map=tuple(range(H.n_vertices)),
                              conjugacy_window=1)          # R = H -> T = H
        cert_s = verify_magic(code_s, (1, 0), 0, 6)
        cert_t = verify_magic(code_t, (0,), 0, 4)
        return assemble_ai(code_s, code_t, cert_s, cert_t), H, lab

    def test_gamma_is_block_recoding(self, cross_ai, gm_graph):
        ai, H, lab = cross_ai
        idx = lab.block_index()
        x = from_periodic(PeriodicPoint((1, 0)))
        y = gamma_on_point(ai, x)
        expected = from_periodic(PeriodicPoint((idx[(1, 0)], idx[(0, 1)])))
        assert points_equal(y, expected)

    def test_transport_preserves_entropy_across_presentations(self, cross_ai, gm_graph):
        ai, H, _ = cross_ai
        mu = equilibrium_measure(gm_graph, FiniteRangePotential.zero(gm_graph))
        rep = transport_measure(ai, mu, order=1)
        assert rep.measure.graph == H
        assert abs(rep.entropy_out - LOG_PHI) <= 1e-12

    def test_correspondence_across_presentations(self, cross_ai, gm_graph):
        ai, H, lab = cross_ai
        f = FiniteRangePotential.from_vertex_values(gm_graph, [F(1, 4), F(-1, 3)])
        g = FiniteRangePotential.from_vertex_values(
            H, [f.table[(w[0],)] for w in lab.block_words]
        )
        rep = verify_correspondence(ai, f, g, n_max=8)
        assert rep.passed
        assert rep.pressure_gap <= rep.pressure_tolerance
        assert rep.measure_block_gap <= 1e-9

    def test_recurrence_class_matches_on_both_legs(self, cross_ai, gm_graph):
        # corresponding potentials classify identically on the two legs
        import math as _math

        from shiftlab.induction import induce
        from shiftlab.thermo import recurrence_classify

        ai, H, lab = cross_ai
        f = FiniteRangePotential.from_vertex_values(gm_graph, [F(1, 4), F(-1, 3)])
        g = FiniteRangePotential.from_vertex_values(
            H, [f.table[(w[0],)] for w in lab.block_words]
        )
        r_s = recurrence_classify(induce(gm_graph, (1, 0), maxlen=40).loops, f)
        v10 = lab.block_index()[(1, 0)]
        r_t = recurrence_classify(induce(H, (v10,), maxlen=40).loops, g)
        assert r_s.verdict == r_t.verdict == "SPR"
        assert abs(_math.log(r_s.lam) - _math.log(r_t.lam)) <= 1e-6


class TestCorrespondence:
    def test_identity_pass(self, gm_graph, identity_code):
        cert = verify_magic(identity_code, (1,), 0, 6)
        ai = assemble_ai(identity_code, identity_code, cert, cert)
        f = FiniteRangePotential.from_vertex_values(gm_graph, [F(1, 2), F(-1, 3)])
        rep = verify_correspondence(ai, f, f, n_max=8)
        assert rep.passed
        assert rep.pressure_gap <= rep.pressure_tolerance
        assert rep.measure_block_gap <= 1e-9

    def test_block_recoding_pass(self, gm_self_ai, gm_graph):
        f = FiniteRangePotential.from_vertex_values(gm_graph, [F(1, 3), F(-1, 2)])
        g = FiniteRangePotential(gm_graph, 0, 2, {w: f.table[w[:1]] for w in gm_graph.words(2)})
        rep = verify_correspondence(gm_self_ai, f, g, n_max=10)
        assert rep.passed
        assert rep.witnesses_checked > 0
        assert rep.pressure_gap <= 1e-9
        assert rep.measure_block_gap <= 1e-9

    def test_perturbed_block_fails_with_witness(self, gm_self_ai, gm_graph):
        f = FiniteRangePotential.from_vertex_values(gm_graph, [F(1, 3), F(-1, 2)])
        table = {w: f.table[w[:1]] for w in gm_graph.words(2)}
        table[(0, 1)] += F(1, 50)
        g_bad = FiniteRangePotential(gm_graph, 0, 2, table)
        rep = verify_correspondence(gm_self_ai, f, g_bad, n_max=8)
        assert not rep.passed
        assert rep.first_failure is not None
        word, pos = rep.first_failure
        # the witness really does disagree there
        x = from_periodic(PeriodicPoint(word))
        y = gamma_on_point(gm_self_ai, x)
        fx = f.table[tuple(x.sample(pos + i) for i in range(1))]
        gy = g_bad.table[tuple(y.sample(pos + i) for i in range(2))]
        assert fx != gy
