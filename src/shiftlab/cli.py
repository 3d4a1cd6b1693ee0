"""Command-line front end.

Reports are canonical JSON on stdout (byte-identical for identical inputs
and seeds); a short human-readable summary goes to stderr.  Exit codes:
0 success, 1 verification failure (with a witness in the report), 2 schema
or input errors.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import documents as docs
from .codes import CodeError, DomainError, transport_measure, verify_correspondence, verify_magic
from .graphs import BudgetExceededError, ExhaustionPresentation, FinitePresentation, GraphError
from .induction import LoopSystem, induce, lift_potential
from .potentials import FiniteRangePotential, PotentialError
from .thermo import (
    ConvergenceError,
    export_zn_csv,
    equilibrium_measure,
    measure_pressure,
    partition_function,
    pressure_exhaustion,
    pressure_from_table,
    pressure_spectral,
    recurrence_classify,
    zeta_series,
)


def _num(value, error=None, exact=False):
    if exact:
        return {"value": value, "exact": True}
    return {"value": value, "error": error}


def _load(path: str) -> dict:
    try:
        return docs.loads(Path(path).read_text())
    except FileNotFoundError:
        raise docs.SchemaError(f"no such file: {path}") from None


def _load_shift(path: str):
    return docs.parse_shift(_load(path))


def _graph_of(shift):
    if isinstance(shift, FinitePresentation):
        return shift.graph
    raise docs.SchemaError("this command needs a finite graph presentation")


def _load_potential(path: str | None, graph):
    if path is None:
        return FiniteRangePotential.zero(graph), None
    return docs.parse_potential(_load(path), graph)


def _parse_word_arg(names, text: str):
    if text == "":
        return ()
    if "," in text:
        parts = text.split(",")
    elif all(len(n) == 1 for n in names):
        parts = list(text)
    else:
        parts = [text]
    idx = {n: i for i, n in enumerate(names)}
    try:
        return tuple(idx[p] for p in parts)
    except KeyError as e:
        raise docs.SchemaError(f"unknown symbol {e.args[0]!r} in word {text!r}") from None


def _print_report(report: dict, human: list[str]) -> None:
    sys.stdout.write(docs.dumps(report))
    for line in human:
        print(line, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands


def cmd_entropy(args) -> int:
    shift = _load_shift(args.shift)
    if isinstance(shift, ExhaustionPresentation):
        est = pressure_exhaustion(shift, _ambient_zero(shift))
        report = {
            "command": "entropy",
            "method": est.method,
            "entropy": _num(est.value, est.error),
            "levels": [_num(v, est.error) for v in est.levels],
        }
        _print_report(report, [f"entropy (exhaustion sup over {len(est.levels)} levels): {est.value:.10f} +- {est.error:.2e}"])
        return 0
    if isinstance(shift, LoopSystem):
        verdict = recurrence_classify(shift, atol=args.atol)
        lam = verdict.lam
        report = {
            "command": "entropy",
            "method": "loop-classification",
            "verdict": verdict.verdict,
            "entropy": _num(math.log(lam), (verdict.lam_bounds[1] - verdict.lam_bounds[0]) / max(lam, 1e-300)) if lam else None,
        }
        _print_report(report, [f"verdict {verdict.verdict}; log lambda = {math.log(lam):.10f}" if lam else f"verdict {verdict.verdict}"])
        return 0
    graph = _graph_of(shift)
    est = pressure_spectral(graph, FiniteRangePotential.zero(graph))
    report = {
        "command": "entropy",
        "method": est.method,
        "entropy": _num(est.value, est.error),
        "iterations": est.iterations,
    }
    _print_report(report, [f"entropy: {est.value:.10f} +- {est.error:.2e}"])
    return 0


def _ambient_zero(exh: ExhaustionPresentation) -> FiniteRangePotential:
    top = exh.levels[-1]
    return FiniteRangePotential.zero(top.graph)


def cmd_pressure(args) -> int:
    shift = _load_shift(args.shift)
    if isinstance(shift, ExhaustionPresentation):
        f, _ = docs.parse_potential(_load(args.potential), shift.levels[-1].graph) if args.potential else (_ambient_zero(shift), None)
        est = pressure_exhaustion(shift, f)
        report = {
            "command": "pressure",
            "method": est.method,
            "pressure": _num(est.value, est.error),
            "levels": [_num(v, est.error) for v in est.levels],
        }
        _print_report(report, [f"pressure ({est.method}): {est.value:.10f} +- {est.error:.2e}"])
        return 0
    graph = _graph_of(shift)
    f, _ = _load_potential(args.potential, graph)
    if args.method == "table":
        period = shift.period if isinstance(shift, FinitePresentation) else 1
        table = partition_function(graph, f, (), args.nmax)
        est = pressure_from_table(table, period)
    else:
        est = pressure_spectral(graph, f)
    report = {
        "command": "pressure",
        "method": est.method,
        "pressure": _num(est.value, est.error),
        "iterations": est.iterations,
    }
    _print_report(report, [f"pressure ({est.method}): {est.value:.10f} +- {est.error:.2e}"])
    return 0


def cmd_zn(args) -> int:
    shift = _load_shift(args.shift)
    if isinstance(shift, LoopSystem):
        from .induction import loop_partition_function

        f = None
        if args.potential:
            raise docs.SchemaError("loop-system Z tables use baked weights; omit --potential")
        table = loop_partition_function(shift, f, args.nmax)
        graph = None
    else:
        graph = _graph_of(shift)
        f, _ = _load_potential(args.potential, graph)
        W = _parse_word_arg(graph.names, args.word)
        table = partition_function(graph, f, W, args.nmax)
    rows = []
    for n in sorted(table.entries):
        z = table.zn_float(n)
        rows.append({"n": n, "Z_n": _num(z, exact=True) if table.exact else _num(z, table.zn_error(n))})
    report = {
        "command": "zn",
        "base_word": args.word,
        "exact": table.exact,
        "truncated_at": table.truncated_at,
        "entries": rows,
    }
    human = [f"Z_{r['n']} = {r['Z_n']['value']}" for r in rows]
    if args.csv:
        if graph is None:
            raise docs.SchemaError("--csv needs a finite graph shift (ratio uses spectral pressure)")
        est = pressure_spectral(graph, f)
        Path(args.csv).write_text(export_zn_csv(table, est.value))
        human.append(f"wrote {args.csv} (ratios at P = {est.value:.10f})")
    _print_report(report, human)
    return 0


def cmd_classify(args) -> int:
    shift = _load_shift(args.loops)
    if not isinstance(shift, LoopSystem):
        raise docs.SchemaError("classify expects a loop-system document")
    verdict = recurrence_classify(shift, None, atol=args.atol)
    report = {
        "command": "classify",
        "verdict": verdict.verdict,
        "positive_recurrent": verdict.positive_recurrent,
        "lambda": None if verdict.lam is None else _num(verdict.lam, None if verdict.lam_bounds is None else verdict.lam_bounds[1] - verdict.lam_bounds[0]),
        "F_at_1_over_lambda": None if verdict.F_at_z is None else {"lower": verdict.F_at_z[0], "upper": verdict.F_at_z[1]},
        "Fprime_at_1_over_lambda": "divergent" if verdict.Fprime_at_z is None else {"lower": verdict.Fprime_at_z[0], "upper": verdict.Fprime_at_z[1]},
        "radius": verdict.radius,
        "detail": verdict.detail,
    }
    human = [f"verdict: {verdict.verdict} ({verdict.detail})"]
    if verdict.lam is not None:
        human.append(f"lambda = {verdict.lam:.12g}")
    _print_report(report, human)
    return 0 if verdict.verdict != "indeterminate" else 1


def cmd_zeta(args) -> int:
    shift = _load_shift(args.shift)
    graph = _graph_of(shift)
    f, _ = _load_potential(args.potential, graph)
    table = partition_function(graph, f, (), args.order)
    coeffs = zeta_series(table, args.order)
    exact = isinstance(coeffs[0], Fraction)
    report = {
        "command": "zeta",
        "order": args.order,
        "exact": exact,
        "coefficients": [str(c) if exact else float(c) for c in coeffs],
    }
    _print_report(report, ["zeta coefficients: " + ", ".join(str(c) for c in coeffs)])
    return 0


def cmd_equilibrium(args) -> int:
    shift = _load_shift(args.shift)
    graph = _graph_of(shift)
    f, _ = _load_potential(args.potential, graph)
    mu = equilibrium_measure(graph, f)
    p = measure_pressure(mu, f)
    est = pressure_spectral(graph, f)
    doc = docs.emit_measure(mu)
    if args.out:
        Path(args.out).write_text(docs.dumps(doc))
    report = {
        "command": "equilibrium",
        "order": mu.order,
        "entropy": _num(mu.entropy(), 1e-12),
        "measure_pressure": _num(p, 1e-12),
        "spectral_pressure": _num(est.value, est.error),
        "pressure_gap": _num(abs(p - est.value), None),
        "measure": None if args.out else doc,
    }
    human = [
        f"order-{mu.order} equilibrium measure; entropy {mu.entropy():.10f}",
        f"measure pressure {p:.10f} vs spectral {est.value:.10f}",
    ]
    if args.out:
        human.append(f"wrote {args.out}")
    _print_report(report, human)
    return 0


def cmd_induce(args) -> int:
    shift = _load_shift(args.shift)
    graph = _graph_of(shift)
    W1 = _parse_word_arg(graph.names, args.word)
    W2 = _parse_word_arg(graph.names, args.word2) if args.word2 else None
    ind = induce(graph, W1, W2, maxlen=args.maxlen)
    system = ind.loops
    if args.potential:
        f, cert = _load_potential(args.potential, graph)
        system, lifted_cert = lift_potential(ind, f, cert)
    doc = docs.emit_loops(system)
    if args.out:
        Path(args.out).write_text(docs.dumps(doc))
    counts: dict[int, int] = {}
    for lp in system.loops:
        counts[lp.length] = counts.get(lp.length, 0) + lp.count
    report = {
        "command": "induce",
        "base": [graph.word_name(w) for w in ind.source_words],
        "offsets": list(ind.offsets),
        "loop_counts": {str(k): v for k, v in sorted(counts.items())},
        "tails": [t.kind for t in system.tails],
        "loops": None if args.out else doc,
    }
    human = [f"loops by length: {dict(sorted(counts.items()))}"]
    if args.out:
        human.append(f"wrote {args.out}")
    _print_report(report, human)
    return 0


def cmd_verify_magic(args) -> int:
    code = docs.parse_code(_load(args.code))
    W = _parse_word_arg(code.target.names, args.word)
    cert = verify_magic(code, W, args.offset, args.depth)
    report = {
        "command": "verify-magic",
        "word": args.word,
        "offset": args.offset,
        "depth": args.depth,
        "status": cert.status,
        "witness": None,
    }
    human = [f"{args.word!r}: {cert.status} (depth {args.depth})"]
    if cert.witness is not None:
        C, u, v = cert.witness
        names_s, names_t = code.source.names, code.target.names
        report["witness"] = {
            "gap_word": docs.word_key(names_t, C),
            "preimage_a": docs.word_key(names_s, u),
            "preimage_b": docs.word_key(names_s, v),
        }
        human.append(f"witness gap {C}: preimages {u} vs {v}")
    if cert.periodic_failure is not None:
        report["witness"] = {"periodic_word_without_preimage": docs.word_key(code.target.names, cert.periodic_failure)}
    _print_report(report, human)
    return 0 if cert.certified else 1


def cmd_transport(args) -> int:
    ai = docs.parse_ai(_load(args.ai))
    mu = docs.parse_measure(_load(args.measure))
    rep = transport_measure(ai, mu, order=args.order, samples=args.samples, seed=args.seed)
    doc = docs.emit_measure(rep.measure)
    if args.out:
        Path(args.out).write_text(docs.dumps(doc))
    report = {
        "command": "transport",
        "method": rep.method,
        "order": args.order,
        "entropy_in": _num(rep.entropy_in, 1e-12),
        "entropy_out": _num(rep.entropy_out, rep.confidence_width if rep.method == "sampling" else 1e-12),
        "tv_gap": rep.tv_gap,
        "seed": rep.seed,
        "samples": rep.samples,
        "measure": None if args.out else doc,
    }
    human = [f"{rep.method} transport: entropy {rep.entropy_in:.8f} -> {rep.entropy_out:.8f}"]
    if args.out:
        human.append(f"wrote {args.out}")
    _print_report(report, human)
    return 0


def cmd_verify_correspondence(args) -> int:
    ai = docs.parse_ai(_load(args.ai))
    f, _ = docs.parse_potential(_load(args.potential), ai.code_s.target)
    g, _ = docs.parse_potential(_load(args.target_potential), ai.code_t.target)
    rep = verify_correspondence(ai, f, g, n_max=args.nmax, tol=args.tol)
    report = {
        "command": "verify-correspondence",
        "passed": rep.passed,
        "pressure_s": _num(rep.pressure_s, None),
        "pressure_t": _num(rep.pressure_t, None),
        "pressure_gap": _num(rep.pressure_gap, rep.pressure_tolerance),
        "witnesses_checked": rep.witnesses_checked,
        "first_failure": None if rep.first_failure is None else {
            "orbit_word": docs.word_key(ai.code_s.target.names, rep.first_failure[0]),
            "position": rep.first_failure[1],
        },
        "equilibrium_block_gap": rep.measure_block_gap,
    }
    human = [
        f"pressures {rep.pressure_s:.10f} / {rep.pressure_t:.10f} (gap {rep.pressure_gap:.2e})",
        f"witnesses checked: {rep.witnesses_checked}; passed: {rep.passed}",
    ]
    if rep.measure_block_gap is None:
        human.append("measure layer not checked: code_s is not a conjugacy, so the report cannot pass")
    _print_report(report, human)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="shiftlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("entropy", help="topological entropy of a presentation")
    sp.add_argument("--shift", required=True)
    sp.add_argument("--atol", type=float, default=1e-9)
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("pressure", help="pressure of a shift with a potential")
    sp.add_argument("--shift", required=True)
    sp.add_argument("--potential")
    sp.add_argument("--method", choices=["spectral", "table"], default="spectral")
    sp.add_argument("--nmax", type=int, default=14)
    sp.set_defaults(func=cmd_pressure)

    sp = sub.add_parser("zn", help="local partition function table")
    sp.add_argument("--shift", required=True)
    sp.add_argument("--potential")
    sp.add_argument("--word", default="")
    sp.add_argument("--nmax", type=int, default=10)
    sp.add_argument("--csv", help="write n,Z_n,ratio CSV here")
    sp.set_defaults(func=cmd_zn)

    sp = sub.add_parser("classify", help="recurrence class of a loop system")
    sp.add_argument("--loops", required=True)
    sp.add_argument("--atol", type=float, default=1e-9)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("zeta", help="zeta-function series coefficients")
    sp.add_argument("--shift", required=True)
    sp.add_argument("--potential")
    sp.add_argument("--order", type=int, default=8)
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("equilibrium", help="equilibrium Markov measure")
    sp.add_argument("--shift", required=True)
    sp.add_argument("--potential")
    sp.add_argument("--out", help="write the measure document here")
    sp.set_defaults(func=cmd_equilibrium)

    sp = sub.add_parser("induce", help="first-return presentation at a word")
    sp.add_argument("--shift", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("--word2")
    sp.add_argument("--maxlen", type=int, default=20)
    sp.add_argument("--potential", help="bake loop weights and tails for this potential")
    sp.add_argument("--out", help="write the loop-system document here")
    sp.set_defaults(func=cmd_induce)

    sp = sub.add_parser("verify-magic", help="certify or refute a magic word")
    sp.add_argument("--code", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("--offset", type=int, default=0)
    sp.add_argument("--depth", type=int, default=8)
    sp.set_defaults(func=cmd_verify_magic)

    sp = sub.add_parser("transport", help="move a measure across an almost isomorphism")
    sp.add_argument("--ai", required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_transport)
    sp.add_argument("--out", help="write the transported measure here")

    sp = sub.add_parser("verify-correspondence", help="check f and g correspond across an AI")
    sp.add_argument("--ai", required=True)
    sp.add_argument("--potential", required=True, help="potential on the S leg")
    sp.add_argument("--target-potential", required=True, help="potential on the T leg")
    sp.add_argument("--nmax", type=int, default=10)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(func=cmd_verify_correspondence)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except docs.SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except (GraphError, PotentialError, CodeError, DomainError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:
        print(f"input error: a value is out of float range ({e})", file=sys.stderr)
        return 2
    except (BudgetExceededError, ConvergenceError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
