"""JSON document schemas and canonical serialization.

Every workspace document is ``{"kind": ..., "schema": 1, ...}``; parsers
reject unknown keys so stale or misspelled fixtures fail loudly.  Emission
is canonical (sorted keys, fixed indentation), so identical inputs give
byte-identical files.  Rationals serialize as ``"p/q"`` strings; JSON
numbers stay floats, JSON integers become exact rationals.  Output is strict
JSON: an infinite float is written as the string ``"inf"`` or ``"-inf"``.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

import numpy as np

from .codes import AlmostIsomorphism, MagicWordCertificate, OneBlockCode, verify_magic
from .graphs import (
    ExhaustionLevel,
    ExhaustionPresentation,
    FiniteGraph,
    FinitePresentation,
    Word,
    build_graph,
)
from .induction import Loop, LoopSystem, TailDescriptor
from .potentials import (
    FiniteRangePotential,
    GeometricTail,
    PolynomialTail,
    VariationCertificate,
    ZeroTail,
)
from .thermo import MarkovMeasure

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


def _strict(obj):
    """``obj`` with every infinite float written as the string "inf" or "-inf"."""
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def dumps(doc: dict) -> str:
    """Canonical strict JSON: infinities as strings, and NaN is an error."""
    return json.dumps(_strict(doc), sort_keys=True, indent=1, allow_nan=False) + "\n"


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise SchemaError("document must be a JSON object")
    return obj


def _check_keys(obj: dict, required: set[str], optional: set[str] = frozenset()) -> None:
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")


def _check_header(obj: dict, kind: str) -> None:
    if obj.get("kind") != kind:
        raise SchemaError(f"expected kind={kind!r}, got {obj.get('kind')!r}")
    if obj.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {obj.get('schema')!r}")


def _number_in(x) -> Fraction | float:
    if isinstance(x, bool):
        raise SchemaError("booleans are not numbers")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise SchemaError(f"numbers must be finite, got {x!r}")
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"cannot parse rational {x!r}") from None
    raise SchemaError(f"expected a number, got {type(x).__name__}")


def _integer_in(x, what: str) -> int:
    """A JSON integer, or a float with an integral value."""
    if isinstance(x, bool) or not (isinstance(x, int) or (isinstance(x, float) and x.is_integer())):
        raise SchemaError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _number_out(x) -> Any:
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, int):
        return x
    return float(x)


def _name_index(names) -> dict[str, int]:
    return {n: i for i, n in enumerate(names)}


def word_key(names, word: Word) -> str:
    return ",".join(names[s] for s in word)


def parse_word(names, key) -> Word:
    idx = _name_index(names)
    if isinstance(key, str):
        parts = key.split(",") if key else []
    elif isinstance(key, list):
        parts = [str(p) for p in key]
    else:
        raise SchemaError(f"cannot parse word {key!r}")
    try:
        return tuple(idx[p] for p in parts)
    except KeyError as e:
        raise SchemaError(f"unknown symbol {e.args[0]!r} in word {key!r}") from None


# --------------------------------------------------------------------------
# graphs and presentations


def emit_graph(g: FiniteGraph) -> dict:
    return {
        "kind": "graph",
        "schema": SCHEMA_VERSION,
        "alphabet": list(g.names),
        "edges": [list(e) for e in g.edges],
    }


def parse_graph(obj: dict) -> FinitePresentation:
    _check_header(obj, "graph")
    _check_keys(obj, {"kind", "schema", "alphabet", "edges"})
    if any(not isinstance(e, list) or len(e) != 2 for e in obj["edges"]):
        raise SchemaError("every edge must be a pair of vertex indices")
    edges = [(_integer_in(u, "edge endpoint"), _integer_in(v, "edge endpoint")) for u, v in obj["edges"]]
    return build_graph(obj["alphabet"], edges)


def emit_exhaustion(exh: ExhaustionPresentation) -> dict:
    levels = []
    for lv in exh.levels:
        levels.append(
            {
                "vertices": list(lv.vertex_ids),
                "edges": [
                    [lv.vertex_ids[u], lv.vertex_ids[v]] for u, v in lv.graph.edges
                ],
            }
        )
    return {
        "kind": "exhaustion",
        "schema": SCHEMA_VERSION,
        "alphabet": list(exh.names),
        "levels": levels,
    }


def parse_exhaustion(obj: dict) -> ExhaustionPresentation:
    _check_header(obj, "exhaustion")
    _check_keys(obj, {"kind", "schema", "alphabet", "levels"})
    names = tuple(str(n) for n in obj["alphabet"])
    levels = []
    for item in obj["levels"]:
        _check_keys(item, {"vertices", "edges"})
        vids = tuple(_integer_in(v, "level vertex") for v in item["vertices"])
        if any(not 0 <= v < len(names) for v in vids):
            raise SchemaError(f"level vertices must index the alphabet of {len(names)} symbols")
        pos = {v: i for i, v in enumerate(vids)}
        try:
            edges = [(pos[_integer_in(u, "level edge endpoint")], pos[_integer_in(v, "level edge endpoint")])
                     for u, v in item["edges"]]
        except KeyError as e:
            raise SchemaError(f"level edge uses vertex {e.args[0]} outside the level") from None
        pres = build_graph([names[v] for v in vids], edges)
        if pres.removed:
            raise SchemaError("exhaustion levels must not need pruning")
        levels.append(ExhaustionLevel(vertex_ids=vids, graph=pres.graph))
    return ExhaustionPresentation(names=names, levels=tuple(levels))


def emit_loops(sys_: LoopSystem) -> dict:
    names = sys_.names
    loops = []
    for lp in sys_.loops:
        entry = {
            "len": lp.length,
            "count": lp.count,
            "src": lp.src,
            "dst": lp.dst,
            "log_weight": _number_out(lp.log_weight),
            "label": None if lp.label is None or names is None else word_key(names, lp.label),
        }
        loops.append(entry)
    tails = []
    for t in sys_.tails:
        tails.append(
            {
                "type": t.kind,
                "coef": float(t.coef),
                "ratio": float(t.ratio),
                "power": float(t.power),
                "start": t.start,
                "bound": t.bound,
                "src": t.src,
                "dst": t.dst,
            }
        )
    return {
        "kind": "loops",
        "schema": SCHEMA_VERSION,
        "alphabet": None if names is None else list(names),
        "base": [word_key(names, w) for w in sys_.base_words] if names else [],
        "loops": loops,
        "tails": tails,
    }


def parse_loops(obj: dict) -> LoopSystem:
    _check_header(obj, "loops")
    _check_keys(obj, {"kind", "schema", "alphabet", "base", "loops", "tails"})
    names = None if obj["alphabet"] is None else tuple(str(n) for n in obj["alphabet"])
    loops = []
    for item in obj["loops"]:
        _check_keys(item, {"len"}, {"count", "src", "dst", "log_weight", "label"})
        label = item.get("label")
        if label is not None:
            if names is None:
                raise SchemaError("labeled loops need an alphabet")
            label = parse_word(names, label)
        loops.append(
            Loop(
                length=_integer_in(item["len"], "loop len"),
                src=_integer_in(item.get("src", 1), "loop src"),
                dst=_integer_in(item.get("dst", 1), "loop dst"),
                label=label,
                count=_integer_in(item.get("count", 1), "loop count"),
                log_weight=_number_in(item.get("log_weight", 0)),
            )
        )
    tails = []
    for item in obj["tails"]:
        _check_keys(item, {"type"}, {"coef", "ratio", "power", "start", "bound", "src", "dst"})
        tails.append(
            TailDescriptor(
                kind=str(item["type"]),
                coef=float(_number_in(item.get("coef", 0.0))),
                ratio=float(_number_in(item.get("ratio", 0.0))),
                power=float(_number_in(item.get("power", 0.0))),
                start=_integer_in(item.get("start", 0), "tail start"),
                bound=str(item.get("bound", "exact")),
                src=_integer_in(item.get("src", 1), "tail src"),
                dst=_integer_in(item.get("dst", 1), "tail dst"),
            )
        )
    base = tuple(parse_word(names, w) for w in obj["base"]) if names else ()
    return LoopSystem(loops=tuple(loops), tails=tuple(tails), names=names, base_words=base)


def parse_shift(obj: dict):
    kind = obj.get("kind")
    if kind == "graph":
        return parse_graph(obj)
    if kind == "exhaustion":
        return parse_exhaustion(obj)
    if kind == "loops":
        return parse_loops(obj)
    raise SchemaError(f"not a shift presentation: kind={kind!r}")


# --------------------------------------------------------------------------
# potentials


def _emit_cert_tail(tail) -> dict:
    if isinstance(tail, ZeroTail):
        return {"type": "zero"}
    if isinstance(tail, GeometricTail):
        return {"type": "geometric", "coef": _number_out(tail.coef), "ratio": _number_out(tail.ratio)}
    return {
        "type": "polynomial",
        "coef": _number_out(tail.coef),
        "power": _number_out(tail.power),
        "shift": tail.shift,
    }


def _parse_cert_tail(obj: dict):
    kind = obj.get("type")
    if kind == "zero":
        _check_keys(obj, {"type"})
        return ZeroTail()
    if kind == "geometric":
        _check_keys(obj, {"type", "coef", "ratio"})
        return GeometricTail(coef=_number_in(obj["coef"]), ratio=_number_in(obj["ratio"]))
    if kind == "polynomial":
        _check_keys(obj, {"type", "coef", "power"}, {"shift"})
        return PolynomialTail(
            coef=_number_in(obj["coef"]),
            power=_number_in(obj["power"]),
            shift=_integer_in(obj.get("shift", 0), "certificate tail shift"),
        )
    raise SchemaError(f"unknown certificate tail type {kind!r}")


def emit_potential(f: FiniteRangePotential, cert: VariationCertificate | None = None) -> dict:
    names = f.graph.names
    out = {
        "kind": "potential",
        "schema": SCHEMA_VERSION,
        "left_range": f.left,
        "right_range": f.right,
        "weights": {word_key(names, w): _number_out(x) for w, x in f.table.items()},
        "certificate": None,
    }
    if cert is not None:
        out["certificate"] = {
            "prefix": [_number_out(x) for x in cert.prefix],
            "tail": _emit_cert_tail(cert.tail),
            "p": cert.p,
            "words": None if cert.words is None else [word_key(names, w) for w in cert.words],
        }
    return out


def parse_potential(obj: dict, graph: FiniteGraph) -> tuple[FiniteRangePotential, VariationCertificate | None]:
    _check_header(obj, "potential")
    _check_keys(obj, {"kind", "schema", "left_range", "right_range", "weights"}, {"certificate"})
    table = {
        parse_word(graph.names, k): _number_in(v) for k, v in obj["weights"].items()
    }
    f = FiniteRangePotential(graph, _integer_in(obj["left_range"], "left_range"),
                             _integer_in(obj["right_range"], "right_range"), table)
    cert = None
    cobj = obj.get("certificate")
    if cobj is not None:
        _check_keys(cobj, {"prefix", "tail", "p"}, {"words"})
        words = cobj.get("words")
        cert = VariationCertificate(
            prefix=tuple(_number_in(x) for x in cobj["prefix"]),
            tail=_parse_cert_tail(cobj["tail"]),
            p=_integer_in(cobj["p"], "certificate p"),
            words=None if words is None else tuple(parse_word(graph.names, w) for w in words),
        )
    return f, cert


# --------------------------------------------------------------------------
# codes, almost isomorphisms, measures


def emit_code(code: OneBlockCode) -> dict:
    return {
        "kind": "code",
        "schema": SCHEMA_VERSION,
        "source": emit_graph(code.source),
        "target": emit_graph(code.target),
        "phi": {
            code.source.names[s]: code.target.names[t]
            for s, t in enumerate(code.symbol_map)
        },
        "conjugacy_window": code.conjugacy_window,
    }


def parse_code(obj: dict) -> OneBlockCode:
    _check_header(obj, "code")
    _check_keys(obj, {"kind", "schema", "source", "target", "phi"}, {"conjugacy_window"})
    source = parse_graph(obj["source"]).graph
    target = parse_graph(obj["target"]).graph
    sidx = _name_index(source.names)
    tidx = _name_index(target.names)
    symbol_map = [0] * source.n_vertices
    seen = set()
    for sname, tname in obj["phi"].items():
        if sname not in sidx:
            raise SchemaError(f"phi maps unknown source symbol {sname!r}")
        if tname not in tidx:
            raise SchemaError(f"phi hits unknown target symbol {tname!r}")
        symbol_map[sidx[sname]] = tidx[tname]
        seen.add(sname)
    if seen != set(source.names):
        raise SchemaError("phi must be total on the source alphabet")
    window = obj.get("conjugacy_window")
    return OneBlockCode(
        source=source,
        target=target,
        symbol_map=tuple(symbol_map),
        conjugacy_window=None if window is None else _integer_in(window, "conjugacy_window"),
    )


def emit_ai(ai: AlmostIsomorphism) -> dict:
    def cert(c: MagicWordCertificate, target_names) -> dict:
        return {
            "word": word_key(target_names, c.word),
            "offset": c.offset,
            "depth": c.depth,
        }

    return {
        "kind": "ai",
        "schema": SCHEMA_VERSION,
        "code_s": emit_code(ai.code_s),
        "code_t": emit_code(ai.code_t),
        "cert_s": cert(ai.cert_s, ai.code_s.target.names),
        "cert_t": cert(ai.cert_t, ai.code_t.target.names),
    }


def parse_ai(obj: dict) -> AlmostIsomorphism:
    """Rebuild an almost isomorphism, re-verifying both magic certificates."""
    _check_header(obj, "ai")
    _check_keys(obj, {"kind", "schema", "code_s", "code_t", "cert_s", "cert_t"})
    code_s = parse_code(obj["code_s"])
    code_t = parse_code(obj["code_t"])
    certs = []
    for code, key in ((code_s, "cert_s"), (code_t, "cert_t")):
        c = obj[key]
        _check_keys(c, {"word", "offset", "depth"})
        word = parse_word(code.target.names, c["word"])
        offset = _integer_in(c["offset"], f"{key} offset")
        cert = verify_magic(code, word, offset, _integer_in(c["depth"], f"{key} depth"))
        if not cert.certified:
            raise SchemaError(f"{key} failed re-verification: {cert}")
        certs.append(cert)
    return AlmostIsomorphism(code_s=code_s, code_t=code_t, cert_s=certs[0], cert_t=certs[1])


def emit_measure(mu: MarkovMeasure) -> dict:
    names = mu.graph.names
    return {
        "kind": "measure",
        "schema": SCHEMA_VERSION,
        "graph": emit_graph(mu.graph),
        "order": mu.order,
        "blocks": [word_key(names, w) for w in mu.blocks],
        "transitions": [[float(x) for x in row] for row in mu.transitions],
        "stationary": [float(x) for x in mu.stationary],
    }


def parse_measure(obj: dict) -> MarkovMeasure:
    _check_header(obj, "measure")
    _check_keys(obj, {"kind", "schema", "graph", "order", "blocks", "transitions", "stationary"})
    graph = parse_graph(obj["graph"]).graph
    blocks = tuple(parse_word(graph.names, w) for w in obj["blocks"])
    return MarkovMeasure(
        graph=graph,
        order=_integer_in(obj["order"], "order"),
        blocks=blocks,
        transitions=np.asarray(obj["transitions"], dtype=np.float64),
        stationary=np.asarray(obj["stationary"], dtype=np.float64),
    )
