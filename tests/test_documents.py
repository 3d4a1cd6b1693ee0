"""Document schemas: round trips, canonical form, rejection of bad input."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

from shiftlab import documents as docs
from shiftlab.graphs import ExhaustionLevel, ExhaustionPresentation, build_graph, higher_block
from shiftlab.induction import Loop, LoopSystem, TailDescriptor, induce
from shiftlab.potentials import FiniteRangePotential
from shiftlab.thermo import equilibrium_measure
from shiftlab.codes import labeling_code, verify_magic, assemble_ai


def roundtrip(doc):
    return docs.loads(docs.dumps(doc))


class TestGraphDocs:
    def test_round_trip(self, gm):
        doc = docs.emit_graph(gm.graph)
        back = docs.parse_graph(roundtrip(doc))
        assert back.graph == gm.graph
        assert docs.dumps(docs.emit_graph(back.graph)) == docs.dumps(doc)

    def test_unknown_keys_rejected(self):
        with pytest.raises(docs.SchemaError, match="unknown keys"):
            docs.parse_graph(
                {"kind": "graph", "schema": 1, "alphabet": ["a"], "edges": [[0, 0]], "x": 1}
            )

    def test_wrong_schema_rejected(self):
        with pytest.raises(docs.SchemaError, match="schema"):
            docs.parse_graph({"kind": "graph", "schema": 99, "alphabet": ["a"], "edges": [[0, 0]]})

    def test_wrong_kind_rejected(self):
        with pytest.raises(docs.SchemaError, match="kind"):
            docs.parse_graph({"kind": "potential", "schema": 1})


class TestExhaustionDocs:
    def test_round_trip(self, gm):
        lvl1 = ExhaustionLevel((0,), build_graph(["0"], [(0, 0)]).graph)
        lvl2 = ExhaustionLevel((0, 1), gm.graph)
        exh = ExhaustionPresentation(("0", "1"), (lvl1, lvl2))
        back = docs.parse_exhaustion(roundtrip(docs.emit_exhaustion(exh)))
        assert back == exh

    def test_edge_outside_level_rejected(self):
        with pytest.raises(docs.SchemaError, match="outside the level"):
            docs.parse_exhaustion(
                {
                    "kind": "exhaustion", "schema": 1, "alphabet": ["a", "b"],
                    "levels": [{"vertices": [0], "edges": [[0, 1]]}],
                }
            )


class TestLoopDocs:
    def test_renewal_round_trip(self):
        sys_ = LoopSystem(
            loops=(Loop(length=2, log_weight=F(1, 3)),),
            tails=(TailDescriptor(kind="polynomial", coef=0.5, power=2.0, start=2),),
        )
        back = docs.parse_loops(roundtrip(docs.emit_loops(sys_)))
        assert back.loops == sys_.loops
        assert back.tails == sys_.tails

    def test_induced_round_trip(self, gm):
        ind = induce(gm.graph, (0,), maxlen=8)
        doc = docs.emit_loops(ind.loops)
        back = docs.parse_loops(roundtrip(doc))
        assert back.loops == ind.loops.loops
        assert back.base_words == ind.loops.base_words
        # off-core machinery is live-only and does not serialize
        assert back.off_core is None

    def test_classification_survives_round_trip(self, gm):
        from shiftlab.thermo import recurrence_classify

        ind = induce(gm.graph, (1,), maxlen=40)
        direct = recurrence_classify(ind.loops)
        back = docs.parse_loops(roundtrip(docs.emit_loops(ind.loops)))
        again = recurrence_classify(back)
        assert direct.verdict == again.verdict == "SPR"
        assert math.isclose(direct.lam, again.lam, rel_tol=0, abs_tol=1e-12)


class TestPotentialDocs:
    def test_rational_round_trip(self, gm):
        f = FiniteRangePotential.from_vertex_values(gm.graph, [F(1, 3), F(-1, 2)])
        f2 = docs.parse_potential(roundtrip(docs.emit_potential(f)), gm.graph)
        assert f2.table == f.table and f2.rational

    def test_float_weights_stay_float(self, full2):
        f = FiniteRangePotential.from_vertex_values(full2.graph, [math.log(0.3), math.log(0.7)])
        f2 = docs.parse_potential(roundtrip(docs.emit_potential(f)), full2.graph)
        assert f2.table == f.table and not f2.rational

    def test_integer_means_exact(self, gm):
        doc = {
            "kind": "potential", "schema": 1, "left_range": 0, "right_range": 1,
            "weights": {"0": 2, "1": -1},
        }
        f = docs.parse_potential(doc, gm.graph)
        assert f.rational and f.table[(0,)] == F(2)

    def test_bad_rational_rejected(self, gm):
        doc = {
            "kind": "potential", "schema": 1, "left_range": 0, "right_range": 1,
            "weights": {"0": "x/y", "1": 0},
        }
        with pytest.raises(docs.SchemaError, match="rational"):
            docs.parse_potential(doc, gm.graph)

    def test_unknown_symbol_rejected(self, gm):
        doc = {
            "kind": "potential", "schema": 1, "left_range": 0, "right_range": 1,
            "weights": {"0": 0, "q": 0},
        }
        with pytest.raises(docs.SchemaError, match="unknown symbol"):
            docs.parse_potential(doc, gm.graph)


class TestCodeAndAiDocs:
    def test_code_round_trip(self, gm):
        H, lab = higher_block(gm.graph, 2)
        code = labeling_code(H, lab, gm.graph)
        doc = roundtrip(docs.emit_code(code))
        back = docs.parse_code(doc)
        assert back.symbol_map == code.symbol_map
        with pytest.raises(docs.SchemaError, match="unknown keys"):
            docs.parse_code({**doc, "conjugacy_window": 2})

    def test_ai_round_trip_reverifies(self, gm):
        H, lab = higher_block(gm.graph, 2)
        code = labeling_code(H, lab, gm.graph)
        cert = verify_magic(code, (1, 0), 0, 6)
        ai = assemble_ai(code, code, cert, cert)
        back = docs.parse_ai(roundtrip(docs.emit_ai(ai)))
        assert back.cert_s.certified and back.cert_t.certified

    def test_ai_with_bad_word_fails_reverification(self, full2):
        point = build_graph(["*"], [(0, 0)]).graph
        from shiftlab.codes import OneBlockCode

        collapse = OneBlockCode(source=full2.graph, target=point, symbol_map=(0, 0))
        doc = {
            "kind": "ai", "schema": 1,
            "code_s": docs.emit_code(collapse),
            "code_t": docs.emit_code(collapse),
            "cert_s": {"word": "*", "offset": 0},
            "cert_t": {"word": "*", "offset": 0},
        }
        with pytest.raises(docs.SchemaError, match="re-verification"):
            docs.parse_ai(doc)
        # the depth a search once needed is no longer part of the document
        doc["cert_s"]["depth"] = 8
        with pytest.raises(docs.SchemaError, match="depth"):
            docs.parse_ai(doc)


class TestMeasureDocs:
    def test_round_trip(self, gm):
        mu = equilibrium_measure(gm.graph, FiniteRangePotential.zero(gm.graph))
        back = docs.parse_measure(roundtrip(docs.emit_measure(mu)))
        assert back.order == mu.order
        assert np.allclose(back.transitions, mu.transitions, atol=0)
        assert np.allclose(back.stationary, mu.stationary, atol=0)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_rejected(self, fixture_dir, literal):
        text = (fixture_dir / "full2-bernoulli-half.json").read_text()
        for old in ('  0.5,\n  0.5\n ]', '[\n   0.5,'):  # a stationary entry, then a transition
            assert old in text
            doc = docs.loads(text.replace(old, old.replace("0.5", literal, 1), 1))
            with pytest.raises(ValueError, match="finite"):
                docs.parse_measure(doc)

    def test_integral_fields_must_be_integers(self, fixture_dir):
        base = docs.loads((fixture_dir / "full2-bernoulli-half.json").read_text())
        for order in (math.nan, math.inf, 1.5, True, "1"):
            with pytest.raises(docs.SchemaError, match="order must be an integer"):
                docs.parse_measure({**base, "order": order})
        assert docs.parse_measure({**base, "order": 1.0}).order == 1
        graph = {**base["graph"], "edges": [[0, 0], [0, math.inf]]}
        with pytest.raises(docs.SchemaError, match="edge endpoint"):
            docs.parse_graph(graph)
        with pytest.raises(docs.SchemaError, match="pair"):
            docs.parse_graph({**base["graph"], "edges": [[0, 0, 1]]})


def test_dumps_is_strict_json():
    text = docs.dumps({"b": [math.inf, -math.inf, 1.5], "a": (0.0, {"c": math.inf})})
    assert "Infinity" not in text
    assert docs.loads(text) == {"a": [0.0, {"c": "inf"}], "b": ["inf", "-inf", 1.5]}
    with pytest.raises(ValueError):
        docs.dumps({"x": math.nan})


def test_canonical_emission_is_stable(gm, fixture_dir):
    text = (fixture_dir / "gm.json").read_text()
    doc = docs.loads(text)
    assert docs.dumps(doc) == text


PARSERS = {"graph": docs.parse_graph, "exhaustion": docs.parse_exhaustion, "loops": docs.parse_loops,
           "code": docs.parse_code, "ai": docs.parse_ai, "measure": docs.parse_measure}


# each potential fixture and the graph it is used with: a graph fixture, or
# the target of one leg of an almost isomorphism fixture
POTENTIAL_GRAPHS = {
    "full2-log-bernoulli-37.json": "full2.json",
    "full2-scale-log3.json": "full2.json",
    "full2-x0.json": "full2.json",
    "gm-range1.json": "gm.json",
    "gm-range1-block2.json": "gm.json",
    "road-f.json": ("road-ai.json", "code_s"),
    "road-g.json": ("road-ai.json", "code_t"),
    "zero.json": "gm.json",
}


def test_every_fixture_parses(fixture_dir):
    potentials = set()
    for path in sorted(fixture_dir.glob("*.json")):
        doc = docs.loads(path.read_text())
        assert doc["kind"] in {*PARSERS, "potential"}, path.name
        if doc["kind"] != "potential":
            PARSERS[doc["kind"]](doc)
            continue
        potentials.add(path.name)
        where = POTENTIAL_GRAPHS[path.name]
        if isinstance(where, str):
            graph = docs.parse_graph(docs.loads((fixture_dir / where).read_text())).graph
        else:
            ai = docs.parse_ai(docs.loads((fixture_dir / where[0]).read_text()))
            graph = getattr(ai, where[1]).target
        docs.parse_potential(doc, graph)
    assert potentials == set(POTENTIAL_GRAPHS)
