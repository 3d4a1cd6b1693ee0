"""One-block codes, magic words, the induced point map, measure transport."""
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlab.codes import (
    AlmostIsomorphism,
    CodeError,
    DomainError,
    EventuallyPeriodicPoint,
    MagicWordCertificate,
    OneBlockCode,
    _block_frequencies,
    _letters,
    _markovize,
    _occurrences_in,
    _supported_letters,
    _total_variation,
    assemble_ai,
    from_periodic,
    gamma_on_point,
    labeling_code,
    transport_measure,
    verify_correspondence,
    verify_magic,
)
from shiftlab.documents import loads, parse_ai, parse_measure, parse_potential
from shiftlab.graphs import FiniteGraph, build_graph, enumerate_periodic, higher_block
from shiftlab.potentials import FiniteRangePotential
from shiftlab.thermo import MarkovMeasure, equilibrium_measure, measure_pressure

from conftest import FIXTURES
from oracles import (
    block_image_marginals,
    has_periodic_lift,
    integer_trace,
    magic_word_violation,
    points_equal,
    scalar_chain,
    shift_point,
    supported_letters,
)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


@pytest.fixture(scope="module")
def gm_graph():
    return build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0)]).graph


@pytest.fixture(scope="module")
def full2_graph():
    return build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0), (1, 1)]).graph


@pytest.fixture(scope="module")
def identity_code(gm_graph):
    return OneBlockCode(source=gm_graph, target=gm_graph, symbol_map=(0, 1))


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


@pytest.fixture(scope="module")
def plain_ai(gm_graph):
    """The 2-block codes of gm_self_ai, built from the symbol map alone."""
    H, lab = higher_block(gm_graph, 2)
    plain = OneBlockCode(source=H, target=gm_graph, symbol_map=lab.symbol_map)
    cert = verify_magic(plain, (1, 0), 0, 6)
    return assemble_ai(plain, plain, cert, cert)


@pytest.fixture(scope="module")
def road():
    """The road-colouring almost isomorphism of fixtures/road-ai.json and its documents.

    G on {a, b, c} (edges aa, ab, bc, ba, ca, cb) is not conjugate to the
    full 2-shift, yet both have entropy log 2: code_s is the 2-block
    labeling of G and code_t colours G's edges aa, bc, ca as 0 and ab, ba,
    cb as 1 (a road colouring with synchronising word 000).
    """
    def doc(name):
        return loads((FIXTURES / name).read_text())

    ai = parse_ai(doc("road-ai.json"))
    f = parse_potential(doc("road-f.json"), ai.code_s.target)
    g = parse_potential(doc("road-g.json"), ai.code_t.target)
    return ai, f, g, parse_measure(doc("road-parry.json"))


def _random_code(rng, max_source=6, max_target=3) -> OneBlockCode:
    Vs, Vt = int(rng.integers(2, max_source + 1)), int(rng.integers(1, max_target + 1))
    src = [(u, v) for u in range(Vs) for v in range(Vs) if rng.random() < 0.35]
    symbol_map = tuple(int(t) for t in rng.integers(0, Vt, Vs))
    tgt = {(symbol_map[u], symbol_map[v]) for u, v in src}
    tgt |= {(a, b) for a in range(Vt) for b in range(Vt) if rng.random() < 0.3}
    return OneBlockCode(
        source=FiniteGraph(tuple(map(str, range(Vs))), tuple(src)),
        target=FiniteGraph(tuple(map(str, range(Vt))), tuple(sorted(tgt))),
        symbol_map=symbol_map,
    )


def _two_runs_code(L: int) -> OneBlockCode:
    """Two parallel runs over one loop: not even finite-to-one, for any L.

    The target is 0 -> 0 and 0 -> c1 -> ... -> cL -> 0; the source has one
    letter a over 0 and two runs p1..pL and q1..qL over c1..cL, so the word
    0 c1 ... cL 0 has two preimages that differ along the whole gap.
    """
    target = FiniteGraph(("0", *(f"c{i}" for i in range(1, L + 1))),
                         ((0, 0), (0, 1), *((i, i + 1) for i in range(1, L)), (L, 0)))
    runs = [((i, i + 1), (L + i, L + i + 1)) for i in range(1, L)]
    source = FiniteGraph(("a", *(f"p{i}" for i in range(1, L + 1)), *(f"q{i}" for i in range(1, L + 1))),
                         ((0, 0), (0, 1), (0, L + 1), *(e for pair in runs for e in pair), (L, 0), (2 * L, 0)))
    return OneBlockCode(source=source, target=target, symbol_map=(0, *range(1, L + 1), *range(1, L + 1)))


@st.composite
def small_codes(draw):
    """A code on 2-4 source letters, at most two over each letter of a
    possibly reducible target, with a candidate word and an offset."""
    Vs = draw(st.integers(2, 4))
    Vt = draw(st.integers((Vs + 1) // 2, 3))
    symbol_map = tuple(draw(st.lists(st.integers(0, Vt - 1), min_size=Vs, max_size=Vs)))
    assume(all(symbol_map.count(t) <= 2 for t in range(Vt)))
    letters = st.tuples(st.integers(0, Vs - 1), st.integers(0, Vs - 1))
    src = draw(st.sets(letters, min_size=Vs))
    tgt = {(symbol_map[u], symbol_map[v]) for u, v in src}
    tgt |= draw(st.sets(st.tuples(st.integers(0, Vt - 1), st.integers(0, Vt - 1))))
    code = OneBlockCode(
        source=FiniteGraph(tuple(map(str, range(Vs))), tuple(src)),
        target=FiniteGraph(tuple(map(str, range(Vt))), tuple(tgt)),
        symbol_map=symbol_map,
    )
    W = draw(st.sampled_from(code.target.words(1) + code.target.words(2)))
    return code, W, draw(st.integers(0, len(W)))


class TestOneBlockCode:
    def test_identity_apply(self, identity_code):
        assert identity_code.apply((1, 0)) == (1, 0)

    def test_labeling_applies_first_letter(self, gm_graph, block2_code):
        H, lab = higher_block(gm_graph, 2)
        idx = lab.block_index()
        assert block2_code.apply((idx[(1, 0)], idx[(0, 1)])) == (1, 0)

    def test_collapse_constant(self, collapse_code):
        assert collapse_code.apply((0, 1)) == (0, 0)

    def test_edge_violation_rejected(self, gm_graph, full2_graph):
        # mapping FULL2 onto GM sends the forbidden 11 edge nowhere
        with pytest.raises(CodeError, match="not a target edge"):
            OneBlockCode(source=full2_graph, target=gm_graph, symbol_map=(0, 1))

    def test_inadmissible_input_rejected(self, identity_code):
        with pytest.raises(CodeError, match="not admissible"):
            identity_code.apply((1, 1))


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

    def test_periodic_preimage_condition(self, gm_graph):
        # a code onto FULL2 from GM: the image point (11)^inf has no preimage,
        # so any magic-word candidate must be refuted on condition (1)
        full2 = build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0), (1, 1)]).graph
        code = OneBlockCode(source=gm_graph, target=full2, symbol_map=(0, 1))
        cert = verify_magic(code, (0,), 0, 3)
        assert cert.status == "refuted"
        assert cert.periodic_failure is not None
        assert 1 in cert.periodic_failure  # the failing cyclic word uses letter 1


    def test_periodic_preimage_matches_lift_search(self):
        rng = np.random.default_rng(4242)
        outcomes = set()
        for _ in range(60):
            code = _random_code(rng, max_source=5)
            src, symbol_map = code.source.edges, code.symbol_map
            fibers = code.fibers()
            W = (symbol_map[0],)
            cert = verify_magic(code, W, 0)
            if cert.periodic_failure is not None:
                # the failing word may be longer than any fixed period bound
                z = cert.periodic_failure
                assert z[:1] == W and code.target.is_closed_word(z)
                assert not has_periodic_lift(set(src), fibers, z), (src, symbol_map, z)
                outcomes.add(False)
            elif cert.certified:
                lifts = [has_periodic_lift(set(src), fibers, z)
                         for p in range(1, 4) for z in enumerate_periodic(code.target, p) if W[0] in z]
                assert all(lifts), (src, symbol_map)
                outcomes.add(True)
        assert outcomes == {True, False}

    def test_negative_depth_rejected(self, identity_code):
        with pytest.raises(CodeError, match="depth"):
            verify_magic(identity_code, (0,), 0, -1)

    def test_depth_is_recorded_not_searched(self, block2_code):
        cert = verify_magic(block2_code, (1, 0), 0, 10**30)
        assert cert.certified and cert.depth == 10**30
        assert verify_magic(block2_code, (1, 0), 0) == MagicWordCertificate((1, 0), 0, 0, "certified")

    @pytest.mark.parametrize("L", [9, 12])
    def test_split_past_any_depth_is_refuted(self, L):
        # a search to depth 8 certified these: the split gap is L letters long
        code = _two_runs_code(L)
        cert = verify_magic(code, (0,), 0, 8)
        assert cert.status == "refuted"
        C, u, v = cert.witness
        assert C == tuple(range(1, L + 1))
        assert u != v and code.apply_word(u) == code.apply_word(v) == (0, *C, 0)

    def test_ai_between_shifts_of_unequal_entropy_refused(self):
        code = _two_runs_code(9)
        entropy = [math.log(max(abs(np.linalg.eigvals(g.adjacency.astype(float)))))
                   for g in (code.source, code.target)]
        assert abs(entropy[0] - 0.2282) < 1e-4 and abs(entropy[1] - 0.1802) < 1e-4
        ident = OneBlockCode(code.source, code.source, tuple(range(code.source.n_vertices)))
        with pytest.raises(CodeError):
            assemble_ai(ident, code, verify_magic(ident, (0,), 0, 8), verify_magic(code, (0,), 0, 8))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small_codes())
    def test_decision_matches_enumeration_past_its_witness(self, case):
        code, W, offset = case
        cert = verify_magic(code, W, offset)
        if cert.witness is not None:
            C, u, v = cert.witness
            assert magic_word_violation(code, W, offset, len(C)) == ("gap", C)
            assert code.apply_word(u) == code.apply_word(v) == W + C + W
            assert u[offset:offset + len(W) + len(C)] != v[offset:offset + len(W) + len(C)]
        elif cert.periodic_failure is not None:
            z = cert.periodic_failure
            assert z[:len(W)] == W and code.target.is_closed_word(z)
            assert not has_periodic_lift(set(code.source.edges), code.fibers(), z)
            kind, word = magic_word_violation(code, W, offset, max(len(z) - 2 * len(W), 1))
            assert kind == "periodic" and len(word) <= len(z)
        else:
            assert magic_word_violation(code, W, offset, 3) is None


class TestSupportedLetters:
    """The bitmask fiber passes against the set-based reference."""

    def test_masks_match_set_oracle(self):
        rng = np.random.default_rng(5150)
        kinds = set()
        for _ in range(240):
            code = _random_code(rng, max_source=8)
            n = int(rng.integers(1, 12))
            if rng.random() < 0.5:
                # arbitrary letters: mostly images without a preimage
                image = tuple(int(t) for t in rng.integers(0, code.target.n_vertices, n))
            else:
                # the image of a random source path: always has a preimage
                path = [int(rng.integers(code.source.n_vertices))]
                while len(path) < n and len(code.source.successors(path[-1])):
                    path.append(int(rng.choice(code.source.successors(path[-1]))))
                image = code.apply_word(path)
            expected = supported_letters(code, image)
            masks = _supported_letters(code, image)
            if expected is None:
                assert masks is None, (code, image)
                kinds.add("no preimage")
                continue
            assert [_letters(m) for m in masks] == expected, (code, image)
            kinds.add("not pinned" if any(len(s) > 1 for s in expected) else "pinned")
        assert kinds == {"no preimage", "not pinned", "pinned"}

    def test_occurrences_match_slicing(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            seq = tuple(int(t) for t in rng.integers(0, 3, int(rng.integers(0, 15))))
            W = tuple(int(t) for t in rng.integers(0, 3, int(rng.integers(1, 4))))
            expected = [i for i in range(len(seq) - len(W) + 1) if seq[i:i + len(W)] == W]
            assert _occurrences_in(seq, W).tolist() == expected


class TestBlockLabeling:
    """A higher-block labeling is a conjugacy, and the lift moves measures across it exactly."""

    def test_higher_block_labelings_accepted(self, gm_graph, full2_graph):
        for g in (gm_graph, full2_graph):
            mu = equilibrium_measure(g, FiniteRangePotential.zero(g))
            for N in (1, 2, 3, 4):
                H, lab = higher_block(g, N)
                code = labeling_code(H, lab, g)
                assert code.symbol_map == lab.symbol_map
                cert = verify_magic(code, (1, 0, 1, 0)[:N], 0)
                rep = transport_measure(assemble_ai(code, code, cert, cert), mu, order=2)
                got, want = rep.measure.word_distribution(3), mu.word_distribution(3)
                assert max(abs(got.get(w, 0.0) - want.get(w, 0.0)) for w in set(got) | set(want)) <= 1e-12

    def test_two_cycle_transport_is_exact_at_every_block_length(self):
        cycle = build_graph(["0", "1"], [(0, 1), (1, 0)]).graph
        mu = MarkovMeasure(graph=cycle, order=1, blocks=((0,), (1,)),
                           transitions=np.array([[0.0, 1.0], [1.0, 0.0]]), stationary=np.array([0.5, 0.5]))
        for N in range(1, 6):
            code = labeling_code(*higher_block(cycle, N), cycle)
            cert = verify_magic(code, (0,), 0, 4)
            rep = transport_measure(assemble_ai(code, code, cert, cert), mu, order=1)
            assert rep.method == "closed-form" and rep.measure.blocks == ((0,), (1,))
            assert (rep.measure.transitions == mu.transitions).all() and rep.tv_gap == 0.0


class TestAssemble:
    def test_identity_ai(self, identity_code):
        cert = verify_magic(identity_code, (1,), 0, 6)
        ai = assemble_ai(identity_code, identity_code, cert, cert)
        assert ai.common == identity_code.source

    def test_refuted_certificate_rejected(self, collapse_code, identity_code):
        bad = verify_magic(collapse_code, (0,), 0, 2)
        good = verify_magic(identity_code, (1,), 0, 4)
        with pytest.raises(CodeError, match="refuted"):
            assemble_ai(identity_code, identity_code, good, bad)

    def test_certificate_of_another_code_rejected(self, gm_graph, block2_code):
        # a word certified for the 2-block labeling does not carry over to a
        # code that collapses the 2-block graph to one point
        point = build_graph(["0"], [(0, 0)]).graph
        collapse = OneBlockCode(source=block2_code.source, target=point, symbol_map=(0, 0, 0))
        cert = verify_magic(block2_code, (0,), 0, 8)
        assert cert.certified and verify_magic(collapse, (0,), 0, 8).status == "refuted"
        with pytest.raises(CodeError, match="own leg"):
            assemble_ai(block2_code, collapse, cert, cert)

    def test_reducible_common_extension_rejected(self, gm_graph):
        # the golden mean plus an isolated fixed point z, both sent onto the
        # golden mean: (1,) is certified on both legs, but C is reducible
        C = FiniteGraph(("a", "b", "z"), ((0, 0), (0, 1), (1, 0), (2, 2)))
        code = OneBlockCode(source=C, target=gm_graph, symbol_map=(0, 1, 0))
        cert = verify_magic(code, (1,), 0)
        assert cert.certified
        with pytest.raises(CodeError, match="almost isomorphism must be irreducible"):
            assemble_ai(code, code, cert, cert)

    def test_mismatched_sources_rejected(self, identity_code, block2_code):
        cert1 = verify_magic(identity_code, (1,), 0, 4)
        cert2 = verify_magic(block2_code, (1, 0), 0, 4)
        with pytest.raises(CodeError, match="common source"):
            assemble_ai(identity_code, block2_code, cert1, cert2)


class TestGamma:
    def test_identity_on_periodic(self, gm_self_ai):
        x = from_periodic((1, 0))
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
            gamma_on_point(gm_self_ai, from_periodic((0,)))

    def test_point_shifting(self):
        x = EventuallyPeriodicPoint(left=(0, 1), core=(1, 1), right=(0,))
        s = shift_point(x, 2)
        assert [s.sample(i) for i in range(-3, 3)] == [x.sample(i + 2) for i in range(-3, 3)]

    def test_pinning_equals_sliding(self, road):
        # code_s the 2-block labeling of G, so gamma is also the sliding map
        # y_j = phi_T(block (x_j, x_{j+1})); the single pinning pass must agree
        rng = np.random.default_rng(808)
        ais = _labeling_ais(rng, [road[0]], 30)
        compared = 0
        for ai in ais:
            G, tmap = ai.code_s.target, ai.code_t.symbol_map
            H, lab = higher_block(G, 2)
            assert H == ai.common
            block = lab.block_index()
            cycles = [w for n in range(1, 5) for w in enumerate_periodic(G, n)]
            for _ in range(8):
                left, right = (cycles[int(rng.integers(len(cycles)))] for _ in range(2))
                core = [left[-1]]
                for _ in range(int(rng.integers(0, 5))):
                    core.append(int(rng.choice(G.successors(core[-1]))))
                core += _bridge(G, core[-1], right[0])
                x = EventuallyPeriodicPoint(left, tuple(core[1:]), right, int(rng.integers(-3, 4)))
                try:
                    y = gamma_on_point(ai, x)
                except DomainError:
                    continue
                a, b = x.core_start - 2 * len(left), x.core_end + 2 * len(right)
                xs = x.window(a, b + 1)
                assert y.window(a, b) == tuple(tmap[block[xs[j:j + 2]]] for j in range(b - a)), (ai, x)
                compared += 1
        assert compared >= 100


class TestTransport:
    def test_identity_ai_keeps_bernoulli(self, full2_graph):
        code = OneBlockCode(source=full2_graph, target=full2_graph, symbol_map=(0, 1))
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
        code = OneBlockCode(source=full2_graph, target=full2_graph, symbol_map=(0, 1))
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
        code = OneBlockCode(source=full2_graph, target=full2_graph, symbol_map=(0, 1))
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

    def test_plain_ai_is_exact_and_samples_only_with_a_budget(self, gm_graph, plain_ai):
        mu = equilibrium_measure(gm_graph, FiniteRangePotential.zero(gm_graph))
        rep = transport_measure(plain_ai, mu, order=1)
        assert rep.method == "closed-form" and rep.samples is None and rep.confidence_width is None
        assert abs(rep.entropy_out - LOG_PHI) <= 1e-12 and rep.tv_gap <= 1e-12
        rep = transport_measure(plain_ai, mu, order=1, samples=50_000, seed=11)
        assert rep.method == "sampling"
        assert abs(rep.entropy_out - LOG_PHI) <= 0.02

    def test_measure_on_a_fixed_point_is_not_fully_supported(self, gm_self_ai, gm_graph):
        # the block (0,) alone carries 0^inf: the golden mean's word (1,) has no mass
        mu = MarkovMeasure(graph=gm_graph, order=1, blocks=((0,),),
                           transitions=np.array([[1.0]]), stationary=np.array([1.0]))
        assert not mu.fully_supported()
        with pytest.raises(CodeError, match="fully supported"):
            transport_measure(gm_self_ai, mu, order=1)

    def test_lift_matches_the_block_labeling_oracle(self, road):
        # code_s a 2-block labeling: gamma is the sliding map y_j = phi_T(block (x_j, x_{j+1})),
        # so the image's marginals are mu's pushed through that map
        rng = np.random.default_rng(4242)
        ais = _labeling_ais(rng, [road[0]], 30)
        for i, ai in enumerate(ais):
            G = ai.code_s.target
            H, lab = higher_block(G, 2)
            assert H == ai.common
            values = {w: F(int(rng.integers(-6, 7)), int(rng.integers(1, 6))) for w in G.words(1 + i % 2)}
            mu = equilibrium_measure(G, FiniteRangePotential(G, 0, 1 + i % 2, values))
            for order in (1, 2):
                rep = transport_measure(ai, mu, order=order)
                q = {k: block_image_marginals(mu, lab.block_words, ai.code_t.symbol_map, k)
                     for k in (order, order + 1, order + 2)}
                model, _ = _markovize(ai.code_t.target, order, q[order], q[order + 1])
                got, want = rep.measure.word_distribution(order + 2), model.word_distribution(order + 2)
                assert max(abs(got.get(w, 0.0) - want.get(w, 0.0)) for w in set(got) | set(want)) <= 1e-12
                assert abs(rep.entropy_out - model.entropy()) <= 1e-12
                assert abs(rep.tv_gap - _total_variation(want, q[order + 2])) <= 1e-12

    @pytest.mark.parametrize("ai_name, order, samples, seed", [
        ("gm_self_ai", 1, 20_000, 5),
        ("gm_self_ai", 2, 20_000, 77),
        ("gm_self_ai", 2, 3_000, 12),
        ("plain_ai", 1, 20_000, 11),
        ("plain_ai", 2, 5_000, 3),
    ])
    def test_sampled_report_equals_oracle_rebuild(self, request, gm_graph, ai_name, order, samples, seed):
        ai = request.getfixturevalue(ai_name)
        mu = equilibrium_measure(gm_graph, FiniteRangePotential.zero(gm_graph))
        rep = transport_measure(ai, mu, order=order, samples=samples, seed=seed)
        measure, tv, width = _oracle_sampled_transport(ai, mu, order, samples, seed)
        assert rep.method == "sampling"
        assert rep.measure.blocks == measure.blocks
        assert rep.measure.transitions.shape == measure.transitions.shape
        assert (rep.measure.transitions == measure.transitions).all()
        assert (rep.measure.stationary == measure.stationary).all()
        assert rep.entropy_in == mu.entropy()
        assert rep.entropy_out == measure.entropy()
        assert rep.tv_gap == tv
        assert (rep.seed, rep.samples) == (seed, samples)
        assert rep.confidence_width == width

    def test_block_frequencies_match_running_counts(self):
        # letters up to 2**40 force the window numbers to be renumbered by rank
        rng = np.random.default_rng(31)
        for high in (2, 5, 2**40):
            y = rng.integers(0, high, 700)
            y[400:420] = y[:20]
            for k in (1, 2, 3, 4):
                n = len(y) - k + 1
                expected = {}
                for j in range(n):
                    w = tuple(int(v) for v in y[j:j + k])
                    expected[w] = expected.get(w, 0.0) + 1.0 / n
                got = _block_frequencies(y, k)
                assert list(got.items()) == list(expected.items())

    def test_order_and_budget_below_one_rejected(self, gm_self_ai, gm_graph):
        mu = equilibrium_measure(gm_graph, FiniteRangePotential.zero(gm_graph))
        for order in (0, -1):
            with pytest.raises(CodeError, match="order"):
                transport_measure(gm_self_ai, mu, order=order)
            with pytest.raises(CodeError, match="order"):
                transport_measure(gm_self_ai, mu, order=order, samples=100, seed=1)
        for samples in (0, -1):
            with pytest.raises(CodeError, match="sampling budget"):
                transport_measure(gm_self_ai, mu, order=1, samples=samples, seed=1)

    def test_entropy_and_pressure_preserved(self, gm_self_ai, gm_graph):
        rng = np.random.default_rng(3)
        f = FiniteRangePotential.from_vertex_values(gm_graph, [F(1, 3), F(-2, 5)])
        g = FiniteRangePotential(gm_graph, 0, 2, {w: f.table[w[:1]] for w in gm_graph.words(2)})
        mu = equilibrium_measure(gm_graph, f)
        rep = transport_measure(gm_self_ai, mu, order=2)
        assert abs(rep.entropy_out - mu.entropy()) <= 1e-9
        assert abs(measure_pressure(rep.measure, g) - measure_pressure(mu, f)) <= 1e-9


def _labeling_ais(rng, ais: list, count: int) -> list:
    """Extend ``ais`` to ``count`` random almost isomorphisms whose code_s is the
    2-block labeling of an irreducible G on 2-4 letters.

    code_t is the identity of the 2-block graph when the list has odd length,
    and otherwise a random 0/1 colouring of it with a certified magic word.
    """
    while len(ais) < count:
        V = int(rng.integers(2, 5))
        perm = rng.permutation(V)
        edges = {(int(perm[i]), int(perm[(i + 1) % V])) for i in range(V)}
        edges |= {(u, v) for u in range(V) for v in range(V) if rng.random() < 0.35}
        G = FiniteGraph(tuple(map(str, range(V))), tuple(sorted(edges)))
        H, lab = higher_block(G, 2)
        code_s = labeling_code(H, lab, G)
        cert_s = verify_magic(code_s, (int(rng.integers(V)),), 0, 4)
        if len(ais) % 2:
            code_t = OneBlockCode(source=H, target=H, symbol_map=tuple(range(H.n_vertices)))
            ais.append(assemble_ai(code_s, code_t, cert_s, verify_magic(code_t, (0,), 0, 4)))
            continue
        symbol_map = tuple(int(t) for t in rng.integers(0, 2, H.n_vertices))
        image = {(symbol_map[u], symbol_map[v]) for u, v in H.edges}
        code_t = OneBlockCode(source=H, target=FiniteGraph(("0", "1"), tuple(sorted(image))),
                              symbol_map=symbol_map)
        certs = [c for W in code_t.target.words(1) + code_t.target.words(2) for off in range(len(W) + 1)
                 if (c := verify_magic(code_t, W, off, 4)).certified]
        if certs:
            ais.append(assemble_ai(code_s, code_t, cert_s, certs[0]))
    return ais


def _bridge(g, u, v) -> list[int]:
    """A shortest list of letters p with u p v admissible in g."""
    prev, frontier = {u: None}, [u]
    while frontier:
        nxt = []
        for s in frontier:
            if g.has_edge(s, v):
                path = []
                while s != u:
                    path.append(s)
                    s = prev[s]
                return path[::-1]
            for t in map(int, g.successors(s)):
                if t not in prev:
                    prev[t] = s
                    nxt.append(t)
        frontier = nxt
    raise AssertionError("no path: the graph is not irreducible")


def _oracle_sampled_transport(ai, mu, order, samples, seed):
    """The sampled transport rebuilt from reference pieces.

    The seeded stream drives the scalar chain, set-based reachability pins
    gamma between the first and last magic word, and running dict counts
    add 1/n per window; codes._markovize turns the counts into the measure.
    """
    rng = np.random.default_rng(seed)
    cum_pi, u0 = np.cumsum(mu.stationary), rng.random()
    start = next((j for j in range(len(cum_pi)) if cum_pi[j] > u0), len(cum_pi) - 1)
    states = scalar_chain(np.cumsum(mu.transitions, axis=1), start, rng.random(samples))
    word = list(mu.blocks[states[0]]) + [mu.blocks[s][-1] for s in states[1:]]
    W, I = ai.cert_s.word, ai.cert_s.offset
    occ = [i for i in range(len(word) - len(W) + 1) if tuple(word[i:i + len(W)]) == W]
    a, b = occ[0], occ[-1]
    support = supported_letters(ai.code_s, word[a:b + len(W)])
    assert all(len(support[j]) == 1 for j in range(I, I + b - a))
    y = [ai.code_t.symbol_map[support[j][0]] for j in range(I, I + b - a)]
    qk, qk1 = {}, {}
    for k, q in ((order, qk), (order + 1, qk1)):
        n = len(y) - k + 1
        for j in range(n):
            w = tuple(y[j:j + k])
            q[w] = q.get(w, 0.0) + 1.0 / n
    measure, tv = _markovize(ai.code_t.target, order, qk, qk1)
    n1, z2 = len(y) - order, 1.96**2
    width = max(
        1.96 / (1 + z2 / n1) * math.sqrt(max(p * (1 - p), 0.0) / n1 + z2 / (4 * n1**2))
        for p in qk1.values()
    )
    return measure, tv, width


class TestDistinctLegsAi:
    """An almost isomorphism between genuinely different presentations:
    the golden mean shift and its own 2-block graph."""

    @pytest.fixture()
    def cross_ai(self, gm_graph):
        H, lab = higher_block(gm_graph, 2)
        code_s = labeling_code(H, lab, gm_graph)          # R = H -> S = GM
        code_t = OneBlockCode(source=H, target=H,
                              symbol_map=tuple(range(H.n_vertices)))  # R = H -> T = H
        cert_s = verify_magic(code_s, (1, 0), 0, 6)
        cert_t = verify_magic(code_t, (0,), 0, 4)
        return assemble_ai(code_s, code_t, cert_s, cert_t), H, lab

    def test_gamma_is_block_recoding(self, cross_ai, gm_graph):
        ai, H, lab = cross_ai
        idx = lab.block_index()
        x = from_periodic((1, 0))
        y = gamma_on_point(ai, x)
        expected = from_periodic((idx[(1, 0)], idx[(0, 1)]))
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
        x = from_periodic(word)
        y = gamma_on_point(gm_self_ai, x)
        fx = f.table[tuple(x.sample(pos + i) for i in range(1))]
        gy = g_bad.table[tuple(y.sample(pos + i) for i in range(2))]
        assert fx != gy

    def test_measure_layer_runs_on_plain_ai(self, plain_ai, gm_graph):
        f = FiniteRangePotential.from_vertex_values(gm_graph, [F(1, 3), F(-1, 2)])
        g = FiniteRangePotential(gm_graph, 0, 2, {w: f.table[w[:1]] for w in gm_graph.words(2)})
        rep = verify_correspondence(plain_ai, f, g, n_max=8)
        assert rep.first_failure is None and rep.witnesses_checked > 0
        assert rep.pressure_gap <= rep.pressure_tolerance
        assert rep.measure_block_gap <= 1e-9
        assert rep.passed is True


class TestRoadColouringAi:
    """A genuine almost isomorphism: G is not conjugate to the full 2-shift."""

    def test_periodic_counts_differ_from_the_full_shift(self, road):
        ai = road[0]
        G, full2 = ai.code_s.target, ai.code_t.target
        counts = [integer_trace(G.adjacency, n) for n in range(1, 7)]
        assert counts == [1, 5, 7, 17, 31, 65]
        assert [integer_trace(full2.adjacency, n) for n in range(1, 7)] == [2**n for n in range(1, 7)]

    def test_correspondence_checks_every_layer(self, road):
        ai, f, g, _ = road
        rep = verify_correspondence(ai, f, g, n_max=8)
        assert rep.passed
        assert rep.first_failure is None and rep.witnesses_checked > 0
        assert rep.measure_block_gap <= 1e-9

    def test_perturbed_target_potential_fails_with_witness(self, road):
        ai, f, g, _ = road
        table = dict(g.table)
        table[(0,)] += F(1, 50)
        g_bad = FiniteRangePotential(g.graph, 0, 1, table)
        rep = verify_correspondence(ai, f, g_bad, n_max=8)
        assert not rep.passed
        word, pos = rep.first_failure
        x = from_periodic(word)
        y = gamma_on_point(ai, x)
        assert f.value(x.window(pos, pos + 2)) != g_bad.value(y.window(pos, pos + 1))

    def test_parry_measure_moves_to_the_uniform_bernoulli_measure(self, road):
        ai, _, _, parry = road
        for k in (1, 2, 3):
            rep = transport_measure(ai, parry, order=k)
            assert rep.method == "closed-form"
            dist = rep.measure.word_distribution(k + 1)
            assert len(dist) == 2 ** (k + 1)
            assert all(abs(p - 2.0 ** -(k + 1)) <= 1e-15 for p in dist.values()), dist
            assert abs(rep.entropy_out - math.log(2)) <= 1e-15
            assert rep.tv_gap <= 1e-15  # the image is Markov: (k+2)-marginals agree

    def test_non_markov_image_shows_in_tv_gap(self, road):
        # the order-k model reproduces the image's (k+1)-marginals whatever k
        # is; its (k+2)-marginals differ, and its entropy exceeds the image's
        ai = road[0]
        G = ai.code_s.target
        mu = equilibrium_measure(G, FiniteRangePotential.from_vertex_values(G, [F(1, 3), F(-1, 2), F(1, 5)]))
        gaps = []
        for k in (1, 2, 3):
            rep = transport_measure(ai, mu, order=k)
            assert rep.entropy_out > rep.entropy_in
            gaps.append(rep.tv_gap)
        assert [round(g, 4) for g in gaps] == [0.0272, 0.0107, 0.0050]


@pytest.fixture(scope="module")
def road_reversed():
    """fixtures/road-ai-reversed.json: the road AI with its legs swapped.

    S is the full 2-shift and code_s the road colouring, which is not
    injective; T is G on {a, b, c}.
    """
    return parse_ai(loads((FIXTURES / "road-ai-reversed.json").read_text()))


def _bernoulli(graph, p0: float) -> MarkovMeasure:
    row = np.array([p0, 1 - p0])
    return MarkovMeasure(graph=graph, order=1, blocks=((0,), (1,)),
                         transitions=np.array([row, row]), stationary=row.copy())


class TestReversedRoadAi:
    """The paper's case: code_s is a road colouring, not a conjugacy."""

    def test_uniform_bernoulli_moves_to_the_parry_measure(self, road_reversed):
        ai = road_reversed
        G = ai.code_t.target
        parry = equilibrium_measure(G, FiniteRangePotential.zero(G))
        for order in (1, 2, 3):
            rep = transport_measure(ai, _bernoulli(ai.code_s.target, 0.5), order=order)
            assert rep.method == "closed-form"
            for k in (1, 2, 3):
                got, want = rep.measure.word_distribution(k), parry.word_distribution(k)
                assert set(got) == set(want)
                assert max(abs(got[w] - want[w]) for w in want) <= 1e-15, (order, k)
            assert abs(rep.entropy_out - math.log(2)) <= 1e-15

    def test_correspondence_of_zero_potentials_passes(self, road_reversed):
        ai = road_reversed
        rep = verify_correspondence(ai, FiniteRangePotential.zero(ai.code_s.target),
                                    FiniteRangePotential.zero(ai.code_t.target), n_max=8)
        assert rep.passed and rep.first_failure is None and rep.witnesses_checked > 0
        assert isinstance(rep.measure_block_gap, float) and rep.measure_block_gap <= 1e-9

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampler_lies_within_two_wilson_widths_of_the_lift(self, road_reversed, seed):
        mu = _bernoulli(road_reversed.code_s.target, 0.3)
        exact = transport_measure(road_reversed, mu, order=2).measure.word_distribution(3)
        rep = transport_measure(road_reversed, mu, order=2, samples=200_000, seed=seed)
        sampled = rep.measure.word_distribution(3)
        gap = max(abs(sampled.get(w, 0.0) - exact.get(w, 0.0)) for w in set(sampled) | set(exact))
        assert rep.method == "sampling" and gap <= 2 * rep.confidence_width
