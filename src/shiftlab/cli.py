"""Command-line front end.

Reports are canonical JSON on stdout (byte-identical for identical inputs
and seeds); a short human-readable summary goes to stderr.  Exit codes:
0 success, 1 verification failure (with a witness in the report), 2 schema
or input errors.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import documents as docs
from . import intervals as iv
from .graphs import BudgetExceededError, ExhaustionPresentation, FinitePresentation
from .potentials import FiniteRangePotential
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


def _is_loop_system(shift) -> bool:
    # parse_shift returns a loop system for every document that is neither a
    # graph nor an exhaustion; asking so keeps induction unloaded for the others
    return not isinstance(shift, (FinitePresentation, ExhaustionPresentation))


def _graph_of(shift):
    if isinstance(shift, FinitePresentation):
        return shift.graph
    raise docs.SchemaError("this command needs a finite graph presentation")


def _load_potential(path: str | None, graph):
    if path is None:
        return FiniteRangePotential.zero(graph)
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


def cmd_pressure(args) -> int:
    """``pressure``, and ``entropy`` as the pressure of the zero potential.

    One dispatch on the shift kind.  A graph takes ``pressure_spectral``, or
    ``pressure_from_table`` under ``--method table``; an exhaustion takes
    ``pressure_exhaustion`` with the potential on its top level.  A loop
    system's weights are baked in, so its pressure is log lambda, bracketed
    by the outward log of the lambda bracket of ``recurrence_classify``.  A
    flag that does not apply to the shift exits 2.
    """
    name = args.command
    shift = _load_shift(args.shift)
    if args.method == "table" and not isinstance(shift, FinitePresentation):
        raise docs.SchemaError("--method table needs a finite graph presentation")
    if _is_loop_system(shift):
        if args.potential:
            raise docs.SchemaError("a loop system's weights are baked in; omit --potential")
        verdict = recurrence_classify(shift)
        value = iv.midrad(iv.log(verdict.lam_bounds)) if verdict.lam else None
        report = {"method": "loop-classification", "verdict": verdict.verdict,
                  name: None if value is None else _num(*value)}
        human = f"{name} (verdict {verdict.verdict})" + ("" if value is None else f": {value[0]:.10f} +- {value[1]:.2e}")
    else:
        if isinstance(shift, ExhaustionPresentation):
            est = pressure_exhaustion(shift, _load_potential(args.potential, shift.levels[-1].graph))
            report = {"levels": [_num(v, est.error) for v in est.levels]}
        else:
            f = _load_potential(args.potential, shift.graph)
            if args.method == "table":
                est = pressure_from_table(partition_function(shift.graph, f, (), args.nmax), shift.period)
            else:
                est = pressure_spectral(shift.graph, f)
            report = {"iterations": est.iterations}
        report.update({"method": est.method, name: _num(est.value, est.error)})
        human = f"{name} ({est.method}): {est.value:.10f} +- {est.error:.2e}"
    _print_report({"command": name, **report}, [human])
    return 0


def cmd_zn(args) -> int:
    shift = _load_shift(args.shift)
    if _is_loop_system(shift):
        from .induction import loop_partition_function

        f = None
        if args.potential:
            raise docs.SchemaError("loop-system Z tables use baked weights; omit --potential")
        table = loop_partition_function(shift, f, args.nmax)
        graph = None
    else:
        graph = _graph_of(shift)
        f = _load_potential(args.potential, graph)
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
    if table.note:
        report["note"] = table.note
        human.append(f"note: {table.note}")
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
    if not _is_loop_system(shift):
        raise docs.SchemaError("classify expects a loop-system document")
    verdict = recurrence_classify(shift)
    report = {
        "command": "classify",
        "verdict": verdict.verdict,
        "positive_recurrent": verdict.positive_recurrent,
        "lambda": None if verdict.lam_bounds is None else _num(*iv.midrad(verdict.lam_bounds)),
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
    f = _load_potential(args.potential, graph)
    table = partition_function(graph, f, (), args.order)
    coeffs = zeta_series(table, args.order)
    exact = isinstance(coeffs[0], Fraction)
    report = {
        "command": "zeta",
        "order": args.order,
        "exact": exact,
        "coefficients": [str(c) if exact else _num(*c) for c in coeffs],
    }
    shown = [str(c) if exact else f"{c[0]!r} +- {c[1]:.1e}" for c in coeffs]
    _print_report(report, ["zeta coefficients: " + ", ".join(shown)])
    return 0


def cmd_equilibrium(args) -> int:
    shift = _load_shift(args.shift)
    graph = _graph_of(shift)
    f = _load_potential(args.potential, graph)
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
    from .induction import induce, lift_potential

    shift = _load_shift(args.shift)
    graph = _graph_of(shift)
    W1 = _parse_word_arg(graph.names, args.word)
    W2 = _parse_word_arg(graph.names, args.word2) if args.word2 else None
    ind = induce(graph, W1, W2, maxlen=args.maxlen)
    system = ind.loops
    if args.potential:
        system = lift_potential(ind, _load_potential(args.potential, graph))
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
    from .codes import verify_magic

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
    human = [f"{args.word!r}: {cert.status}"]
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
    from .codes import transport_measure

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
    from .codes import verify_correspondence

    ai = docs.parse_ai(_load(args.ai))
    f = docs.parse_potential(_load(args.potential), ai.code_s.target)
    g = docs.parse_potential(_load(args.target_potential), ai.code_t.target)
    rep = verify_correspondence(ai, f, g, n_max=args.nmax)
    report = {
        "command": "verify-correspondence",
        "passed": rep.passed,
        "pressure_s": _num(rep.pressure_s.value, rep.pressure_s.error),
        "pressure_t": _num(rep.pressure_t.value, rep.pressure_t.error),
        "pressure_gap": _num(rep.pressure_gap, rep.pressure_tolerance),
        "witnesses_checked": rep.witnesses_checked,
        "first_failure": None if rep.first_failure is None else {
            "orbit_word": docs.word_key(ai.code_s.target.names, rep.first_failure[0]),
            "position": rep.first_failure[1],
        },
        "equilibrium_block_gap": rep.measure_block_gap,
    }
    human = [
        f"pressures {rep.pressure_s.value:.10f} / {rep.pressure_t.value:.10f} (gap {rep.pressure_gap:.2e})",
        f"witnesses checked: {rep.witnesses_checked}; passed: {rep.passed}",
    ]
    _print_report(report, human)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="shiftlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("entropy", help="topological entropy: the pressure of the zero potential")
    sp.add_argument("--shift", required=True)
    sp.set_defaults(func=cmd_pressure, potential=None, method="spectral")

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
    sp.add_argument("--depth", type=int, default=8, help="recorded in the report, not searched")
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
    sp.set_defaults(func=cmd_verify_correspondence)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except docs.SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # GraphError, PotentialError, CodeError and DomainError among them
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:
        print(f"input error: a value is out of float range ({e})", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"input error: too large for memory ({e})", file=sys.stderr)
        return 2
    except (BudgetExceededError, ConvergenceError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
