"""End-to-end CLI checks: reports, determinism, exit codes."""
import argparse
import json
import math
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftlab import intervals as iv
from shiftlab.cli import build_parser, main
from shiftlab.documents import parse_shift
from shiftlab.thermo import recurrence_classify

PHI = (1 + math.sqrt(5)) / 2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_pressure_gm(capsys, fixture_dir):
    code, report, _ = run_cli(
        capsys, "pressure", "--shift", str(fixture_dir / "gm.json"),
        "--potential", str(fixture_dir / "zero.json"),
    )
    assert code == 0
    assert abs(report["pressure"]["value"] - 0.4812118251) <= 1e-9
    assert report["pressure"]["error"] <= 1e-9


def test_pressure_table_method(capsys, fixture_dir):
    code, report, _ = run_cli(
        capsys, "pressure", "--shift", str(fixture_dir / "gm.json"), "--method", "table",
        "--nmax", "12",
    )
    assert code == 0
    assert abs(report["pressure"]["value"] - math.log(PHI)) <= report["pressure"]["error"]


def test_entropy_exhaustion(capsys, fixture_dir):
    code, report, _ = run_cli(capsys, "entropy", "--shift", str(fixture_dir / "gm-exhaustion.json"))
    assert code == 0
    levels = [lv["value"] for lv in report["levels"]]
    assert levels[0] == pytest.approx(0.0, abs=1e-12)
    assert levels[1] == pytest.approx(math.log(PHI), abs=1e-9)


def test_zn_and_csv(capsys, tmp_path, fixture_dir):
    out = tmp_path / "zn.csv"
    code, report, _ = run_cli(
        capsys, "zn", "--shift", str(fixture_dir / "full2.json"), "--word", "0",
        "--nmax", "8", "--csv", str(out),
    )
    assert code == 0
    assert [e["Z_n"]["value"] for e in report["entries"]] == [2 ** (n - 1) for n in range(1, 9)]
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,Z_n,ratio"
    assert all(abs(float(line.split(",")[2]) - 0.5) < 1e-9 for line in lines[1:])


def test_zn_reports_the_note_of_a_lower_bound_table(capsys, fixture_dir):
    # the 6/pi^2 renewal has no explicit loops: every entry would be a lower
    # bound, so the table ends at length 0, and the report says why; a
    # complete table has no note key
    code, report, err = run_cli(capsys, "zn", "--shift", str(fixture_dir / "renewal-6pi2.json"), "--nmax", "4")
    assert code == 0 and report["entries"] == [] and report["truncated_at"] == 1
    assert report["note"] == (
        "explicit loops cover lengths <= 0; a tail holds the longer loops, so the table ends there")
    assert "note: explicit loops cover lengths <= 0" in err
    for doc in ("gm.json", "gm-at-0-loops.json"):
        code, report, err = run_cli(capsys, "zn", "--shift", str(fixture_dir / doc), "--nmax", "6")
        assert code == 0 and "note" not in report and "note" not in err, doc


def test_zeta_with_a_potential_reports_brackets(capsys, fixture_dir):
    code, report, _ = run_cli(capsys, "zeta", "--shift", str(fixture_dir / "gm.json"),
                              "--potential", str(fixture_dir / "gm-range1.json"), "--order", "4")
    assert code == 0 and report["exact"] is False
    assert report["coefficients"][0] == {"value": 1.0, "error": 0.0}
    assert all(0 < c["error"] <= 1e-14 * c["value"] for c in report["coefficients"][1:])


def test_zeta_full2(capsys, fixture_dir):
    code, report, _ = run_cli(capsys, "zeta", "--shift", str(fixture_dir / "full2.json"), "--order", "4")
    assert code == 0
    assert report["coefficients"] == ["1", "2", "4", "8", "16"]
    assert report["exact"] is True


def test_classify_renewal_fixtures(capsys, fixture_dir):
    code, report, _ = run_cli(capsys, "classify", "--loops", str(fixture_dir / "renewal-6pi2.json"))
    assert code == 0
    assert report["verdict"] == "null_recurrent"
    assert report["Fprime_at_1_over_lambda"] == "divergent"
    lo, hi = report["F_at_1_over_lambda"]["lower"], report["F_at_1_over_lambda"]["upper"]
    assert lo <= 1.0 <= hi

    code, report, _ = run_cli(capsys, "classify", "--loops", str(fixture_dir / "renewal-3pi2.json"))
    assert code == 0
    assert report["verdict"] == "transient"


def test_classify_gm_loops(capsys, fixture_dir):
    code, report, _ = run_cli(capsys, "classify", "--loops", str(fixture_dir / "gm-at-1-loops.json"))
    assert code == 0
    assert report["verdict"] == "SPR"
    assert abs(math.log(report["lambda"]["value"]) - math.log(PHI)) <= 1e-6


def test_equilibrium_writes_measure(capsys, tmp_path, fixture_dir):
    out = tmp_path / "mu.json"
    code, report, _ = run_cli(
        capsys, "equilibrium", "--shift", str(fixture_dir / "gm.json"), "--out", str(out),
    )
    assert code == 0
    assert abs(report["entropy"]["value"] - math.log(PHI)) <= 1e-9
    from shiftlab import documents as docs

    mu = docs.parse_measure(docs.loads(out.read_text()))
    assert mu.order == 1


def test_induce_roundtrip_classify(capsys, tmp_path, fixture_dir):
    out = tmp_path / "loops.json"
    code, report, _ = run_cli(
        capsys, "induce", "--shift", str(fixture_dir / "gm.json"), "--word", "0",
        "--maxlen", "10", "--out", str(out),
    )
    assert code == 0
    assert report["loop_counts"] == {"1": 1, "2": 1}
    code, report, _ = run_cli(capsys, "classify", "--loops", str(out))
    assert code == 0
    assert report["verdict"] == "SPR"


def test_induce_with_potential_wider_than_word(capsys, tmp_path, fixture_dir):
    out = tmp_path / "weighted-loops.json"
    code, report, _ = run_cli(
        capsys, "induce", "--shift", str(fixture_dir / "gm.json"), "--word", "0",
        "--potential", str(fixture_dir / "gm-range1-block2.json"), "--out", str(out),
    )
    assert code == 0
    # f(0,0) = 1/3 on the loop "0"; f(0,1) + f(1,0) = -1/6 on the loop "0,1"
    weights = {lp["label"]: lp["log_weight"] for lp in json.loads(out.read_text())["loops"]}
    assert weights == {"0": "1/3", "0,1": "-1/6"}
    code, report, _ = run_cli(capsys, "classify", "--loops", str(out))
    assert code == 0
    assert report["verdict"] == "SPR"
    code, preport, _ = run_cli(
        capsys, "pressure", "--shift", str(fixture_dir / "gm.json"),
        "--potential", str(fixture_dir / "gm-range1-block2.json"),
    )
    assert abs(math.log(report["lambda"]["value"]) - preport["pressure"]["value"]) <= 1e-6


def test_induce_with_potential_bakes_weights(capsys, tmp_path, fixture_dir):
    out = tmp_path / "weighted-loops.json"
    code, _, _ = run_cli(
        capsys, "induce", "--shift", str(fixture_dir / "gm.json"), "--word", "0",
        "--maxlen", "30", "--potential", str(fixture_dir / "gm-range1.json"),
        "--out", str(out),
    )
    assert code == 0
    code, report, _ = run_cli(capsys, "classify", "--loops", str(out))
    assert code == 0
    assert report["verdict"] == "SPR"
    # the baked classification reproduces the spectral pressure of the potential
    code, preport, _ = run_cli(
        capsys, "pressure", "--shift", str(fixture_dir / "gm.json"),
        "--potential", str(fixture_dir / "gm-range1.json"),
    )
    assert abs(math.log(report["lambda"]["value"]) - preport["pressure"]["value"]) <= 1e-6


def test_induce_two_words_with_potential_roundtrip_classify(capsys, tmp_path):
    # the word "c" has a higher block index than word2 "a"; the lifted tails
    # used to swap the loop vertices, and classify reported lambda
    # 1.12838 +- 0.00205 against the Perron root 1.138872
    shift, pot, out = tmp_path / "g.json", tmp_path / "f.json", tmp_path / "loops.json"
    edges = [[0, 2], [1, 0], [1, 1], [2, 1]]
    shift.write_text(json.dumps({"kind": "graph", "schema": 1, "alphabet": ["a", "b", "c"], "edges": edges}))
    pot.write_text(json.dumps({"kind": "potential", "schema": 1, "left_range": 0, "right_range": 1,
                               "weights": {"a": "1", "b": "-1", "c": "0"}}))
    code, report, _ = run_cli(
        capsys, "induce", "--shift", str(shift), "--word", "c", "--word2", "a", "--maxlen", "4",
        "--potential", str(pot), "--out", str(out),
    )
    assert code == 0 and report["base"] == ["c", "a"]
    assert json.loads(out.read_text())["base"] == ["c", "a"]
    code, report, _ = run_cli(capsys, "classify", "--loops", str(out))
    M = np.zeros((3, 3))
    for u, v in edges:
        M[u, v] = math.exp((1, -1, 0)[u])
    rho = max(abs(np.linalg.eigvals(M)))
    assert code == 0 and report["verdict"] == "SPR"
    assert abs(report["lambda"]["value"] - rho) <= report["lambda"]["error"]
    assert report["Fprime_at_1_over_lambda"] != "divergent"


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_classify_writes_infinite_bracket_ends_as_strict_json(capsys, tmp_path):
    # on this induced system F and F' at 1/lambda have an infinite upper end,
    # which used to come out as the non-JSON literal Infinity
    shift, out = tmp_path / "g.json", tmp_path / "loops.json"
    edges = [[0, 3], [1, 2], [1, 3], [2, 0], [2, 3], [3, 1]]
    shift.write_text(json.dumps({"kind": "graph", "schema": 1, "alphabet": ["a", "b", "c", "d"], "edges": edges}))
    assert main(["induce", "--shift", str(shift), "--word", "a", "--word2", "c", "--maxlen", "4",
                 "--out", str(out)]) == 0
    _strict_json(capsys.readouterr().out)
    _strict_json(out.read_text())
    assert main(["classify", "--loops", str(out)]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["verdict"] == "SPR"
    assert report["F_at_1_over_lambda"]["upper"] == report["Fprime_at_1_over_lambda"]["upper"] == "inf"


def test_entropy_of_a_loop_system_matches_classify(capsys, fixture_dir):
    # classify reports the lambda bracket as value and half-width, entropy its
    # outward log the same way, and pressure of a loop system is that entropy
    for loops in ("gm-at-0-loops.json", "gm-at-1-loops.json"):
        path = str(fixture_dir / loops)
        verdict = recurrence_classify(parse_shift(json.loads((fixture_dir / loops).read_text())))
        code, report, _ = run_cli(capsys, "entropy", "--shift", path)
        assert code == 0 and report["method"] == "loop-classification" and report["verdict"] == "SPR"
        assert (report["entropy"]["value"], report["entropy"]["error"]) == iv.midrad(iv.log(verdict.lam_bounds))
        assert abs(report["entropy"]["value"] - math.log(PHI)) <= report["entropy"]["error"], loops
        _, creport, _ = run_cli(capsys, "classify", "--loops", path)
        assert (creport["lambda"]["value"], creport["lambda"]["error"]) == iv.midrad(verdict.lam_bounds)
        _, preport, _ = run_cli(capsys, "pressure", "--shift", path)
        assert preport["pressure"] == report["entropy"] and preport["command"] == "pressure"


def test_entropy_at_lambda_one_is_exactly_zero(capsys, fixture_dir):
    # the renewal lambda bracket is (1, 1), and log 1 = +0 exactly
    for command in ("entropy", "pressure"):
        code, report, _ = run_cli(capsys, command, "--shift", str(fixture_dir / "renewal-6pi2.json"))
        assert code == 0 and report[command] == {"value": 0.0, "error": 0.0}


@pytest.mark.parametrize("shift, flags, message", [
    ("gm-at-0-loops.json", ["--potential", "gm-range1.json"], "omit --potential"),
    ("gm-at-0-loops.json", ["--method", "table"], "--method table needs a finite graph"),
    ("gm-exhaustion.json", ["--method", "table"], "--method table needs a finite graph"),
    ("gm.json", ["--nmax", "3"], "--nmax sets the table length of --method table"),
])
def test_pressure_flags_that_do_not_apply_exit_2(capsys, fixture_dir, shift, flags, message):
    argv = ["pressure", "--shift", str(fixture_dir / shift)] + [str(fixture_dir / a) if a.endswith(".json") else a
                                                                for a in flags]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and message in captured.err


def test_exhaustion_levels_print_their_own_errors(capsys, tmp_path):
    # every level printed the top level's error, which was not a lower level's bound
    from shiftlab import documents as docs
    from shiftlab.thermo import pressure_spectral, restrict_potential

    exh_path, pot_path = tmp_path / "exh.json", tmp_path / "pot.json"
    exh_path.write_text(json.dumps({
        "kind": "exhaustion", "schema": 1, "alphabet": ["0", "1", "2"],
        "levels": [{"vertices": [0, 1], "edges": [[0, 0], [0, 1], [1, 0]]},
                   {"vertices": [0, 1, 2], "edges": [[0, 0], [0, 1], [1, 0], [0, 2], [2, 1]]}]}))
    pot_path.write_text(json.dumps({"kind": "potential", "schema": 1, "left_range": 0, "right_range": 1,
                                    "weights": {"0": "2", "1": "-1", "2": "1"}}))
    code, report, _ = run_cli(capsys, "pressure", "--shift", str(exh_path), "--potential", str(pot_path))
    assert code == 0
    exh = parse_shift(docs.loads(exh_path.read_text()))
    f = docs.parse_potential(docs.loads(pot_path.read_text()), exh.levels[-1].graph)
    for printed, lv in zip(report["levels"], exh.levels, strict=True):
        own = pressure_spectral(lv.graph, restrict_potential(f, exh.names, lv))
        assert printed == {"value": own.value, "error": own.error}
    assert report["pressure"] == report["levels"][-1]


def test_pressure_exhaustion_with_potential(capsys, fixture_dir):
    # level 0 is the self-loop at 0, which weighs f(0) = 1/3; level 1 is the
    # golden mean shift, whose pressure is the supremum
    code, report, _ = run_cli(
        capsys, "pressure", "--shift", str(fixture_dir / "gm-exhaustion.json"),
        "--potential", str(fixture_dir / "gm-range1.json"),
    )
    assert code == 0 and report["method"] == "exhaustion-sup"
    levels = [lv["value"] for lv in report["levels"]]
    assert levels[0] == pytest.approx(1 / 3, abs=1e-12)
    _, spectral, _ = run_cli(
        capsys, "pressure", "--shift", str(fixture_dir / "gm.json"),
        "--potential", str(fixture_dir / "gm-range1.json"),
    )
    assert levels[1] == report["pressure"]["value"] == spectral["pressure"]["value"]
    assert report["pressure"]["value"] > levels[0]


def test_verify_magic_certified_and_refuted(capsys, tmp_path, fixture_dir):
    from shiftlab import documents as docs
    from shiftlab.codes import OneBlockCode
    from shiftlab.graphs import build_graph

    ai_doc = docs.loads((fixture_dir / "gm-self-ai.json").read_text())
    code_doc = ai_doc["code_s"]
    code_path = tmp_path / "code.json"
    code_path.write_text(docs.dumps(code_doc))
    rc, report, _ = run_cli(
        capsys, "verify-magic", "--code", str(code_path), "--word", "1,0",
        "--offset", "0", "--depth", "8",
    )
    assert rc == 0 and report["status"] == "certified"

    full2 = build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0), (1, 1)]).graph
    point = build_graph(["*"], [(0, 0)]).graph
    collapse = OneBlockCode(source=full2, target=point, symbol_map=(0, 0))
    bad_path = tmp_path / "collapse.json"
    bad_path.write_text(docs.dumps(docs.emit_code(collapse)))
    rc, report, _ = run_cli(
        capsys, "verify-magic", "--code", str(bad_path), "--word", "*", "--depth", "2",
    )
    assert rc == 1
    assert report["status"] == "refuted"
    assert report["witness"] is not None


@pytest.mark.parametrize("argv, message", [
    (["zn", "--shift", "gm-at-1-loops.json", "--word", "0", "--nmax", "3"], "omit --word"),
    (["transport", "--ai", "gm-self-ai.json", "--measure", "gm-parry.json", "--order", "2", "--seed", "5"],
     "a seed applies to sampling transport only"),
])
def test_zn_and_transport_flags_that_do_not_apply_exit_2(capsys, fixture_dir, argv, message):
    # each was ignored: the loop table is at "1" whatever --word says, and the
    # exact transport draws nothing
    rc = main([str(fixture_dir / a) if a.endswith(".json") else a for a in argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and message in captured.err


def test_transport_sampling_seed_required(capsys, fixture_dir):
    rc = main([
        "transport", "--ai", str(fixture_dir / "gm-self-ai.json"),
        "--measure", str(fixture_dir / "gm-parry.json"), "--order", "2",
        "--samples", "1000",
    ])
    assert rc == 2
    capsys.readouterr()


def test_transport_closed_form_and_sampling(capsys, fixture_dir):
    rc, report, _ = run_cli(
        capsys, "transport", "--ai", str(fixture_dir / "gm-self-ai.json"),
        "--measure", str(fixture_dir / "gm-parry.json"), "--order", "2",
    )
    assert rc == 0
    assert report["method"] == "closed-form"
    assert abs(report["entropy_out"]["value"] - math.log(PHI)) <= 1e-9

    rc, report, _ = run_cli(
        capsys, "transport", "--ai", str(fixture_dir / "gm-self-ai.json"),
        "--measure", str(fixture_dir / "gm-parry.json"), "--order", "2",
        "--samples", "20000", "--seed", "42",
    )
    assert rc == 0
    assert report["method"] == "sampling"
    assert abs(report["entropy_out"]["value"] - math.log(PHI)) <= 0.02


@pytest.mark.parametrize("extra, message", [
    (["--order", "0"], "order must be at least 1"),
    (["--order", "-1"], "order must be at least 1"),
    (["--order", "0", "--samples", "1000", "--seed", "1"], "order must be at least 1"),
    (["--order", "1", "--samples", "0", "--seed", "1"], "sampling budget must be at least 1"),
    (["--order", "1", "--samples", "-1", "--seed", "1"], "sampling budget must be at least 1"),
])
def test_transport_rejects_order_and_budget_below_one(capsys, fixture_dir, extra, message):
    rc = main([
        "transport", "--ai", str(fixture_dir / "gm-self-ai.json"),
        "--measure", str(fixture_dir / "gm-parry.json"), *extra,
    ])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["pressure", "gm.json", "--method", "table", "--nmax", "-1"], "n_max = -1 must be at least 0"),
    (["zn", "gm.json", "--nmax", "-5"], "n_max = -5 must be at least 0"),
    (["zeta", "gm.json", "--order", "-3"], "n_max = -3 must be at least 0"),
    # the two-cycle's counts never pass the budget, so its table needs a
    # reach table of 10^17 steps, which cannot be mapped at all
    (["zn", "two-cycle.json", "--nmax", str(10**17)], "too large for memory"),
])
def test_bad_table_lengths_exit_2(capsys, fixture_dir, argv, message):
    rc = main([argv[0], "--shift", str(fixture_dir / argv[1]), *argv[2:]])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_a_table_the_budget_ends_needs_no_reach_past_it(capsys, fixture_dir):
    # the golden mean's table ends at n = 31 under the budget, so n_max = 10^17 costs no more than 100
    with pytest.warns(UserWarning, match="budget exceeded at n=31"):
        rc = main(["zn", "--shift", str(fixture_dir / "gm.json"), "--nmax", str(10**17)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["truncated_at"] == 31 and [e["n"] for e in report["entries"]] == list(range(1, 31))


def test_transport_rejects_nan_measure(capsys, tmp_path, fixture_dir):
    text = (fixture_dir / "full2-bernoulli-half.json").read_text()
    bad = tmp_path / "nan.json"
    bad.write_text(text.replace('"stationary": [\n  0.5', '"stationary": [\n  NaN', 1))
    assert "NaN" in bad.read_text()
    rc = main(["transport", "--ai", str(fixture_dir / "gm-self-ai.json"), "--measure", str(bad), "--order", "1"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def _numeric_paths(obj, path=()):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield path
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numeric_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numeric_paths(v, path + (i,))


def _key_paths(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield path + (k,)
            yield from _key_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _key_paths(v, path + (i,))


def _mutated(doc, path, value=None, drop=False):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value(parent[path[-1]])
    return doc


def _document_mutations(doc, rng, per_kind):
    """Seeded mutations: per_kind numeric literals (or all, if fewer) made NaN,
    infinite, negative and huge, and per_kind keys dropped, anywhere in the document."""
    numeric = list(_numeric_paths(doc))
    keys = [p for p in _key_paths(doc) if isinstance(p[-1], str)]
    kinds = {
        "nan": lambda x: math.nan,
        "inf": lambda x: math.inf,
        "negative": lambda x: -abs(x) - 1,
        "huge": lambda x: 10**30 if isinstance(x, int) else 1e300,
    }
    out = []
    for kind, value in kinds.items():
        for i in rng.choice(len(numeric), size=min(per_kind, len(numeric)), replace=False):
            out.append((kind, numeric[i], _mutated(doc, numeric[i], value)))
    for i in rng.choice(len(keys), size=min(per_kind, len(keys)), replace=False):
        out.append(("drop", keys[i], _mutated(doc, keys[i], drop=True)))
    return out


def test_transport_fuzzed_documents_exit_2(capsys, tmp_path, fixture_dir):
    rng = np.random.default_rng(2024)
    paths = {"ai": fixture_dir / "gm-self-ai.json", "measure": fixture_dir / "gm-parry.json"}
    cases = []
    for role, path in paths.items():
        doc = json.loads(path.read_text())
        cases += [(role, kind, where, bad) for kind, where, bad in _document_mutations(doc, rng, 6)]
    measure = json.loads(paths["measure"].read_text())
    cases.append(("measure", "order 0", ("order",), {**measure, "order": 0}))
    for role, kind, where, bad in cases:
        mutated = tmp_path / f"{role}.json"
        mutated.write_text(json.dumps(bad))  # writes NaN and Infinity literals
        files = {**paths, role: mutated}
        rc = main(["transport", "--ai", str(files["ai"]), "--measure", str(files["measure"]), "--order", "1"])
        err = capsys.readouterr().err
        assert rc == 2 and err.strip(), (role, kind, where, rc, err)


@pytest.mark.parametrize("fixture, argv", [
    ("gm-at-0-loops.json", ["classify", "--loops", "{doc}"]),
    ("gm-exhaustion.json", ["pressure", "--shift", "{doc}"]),
    ("gm-range1.json", ["pressure", "--shift", "{gm}", "--potential", "{doc}"]),
])
def test_shift_and_potential_fuzzed_documents(capsys, tmp_path, fixture_dir, fixture, argv):
    """Mutated loop, exhaustion and potential documents never end in a traceback.

    A mutation can leave a valid document (a dropped optional key, a negative
    log weight), so such a case may exit 0; any other exit is 2 with a
    message, and a non-finite literal is always rejected.
    """
    rng = np.random.default_rng(7)
    doc = json.loads((fixture_dir / fixture).read_text())
    rejected = set()
    for kind, where, bad in _document_mutations(doc, rng, 6):
        mutated = tmp_path / fixture
        mutated.write_text(json.dumps(bad))  # writes NaN and Infinity literals
        rc = main([a.format(doc=mutated, gm=fixture_dir / "gm.json") for a in argv])
        err = capsys.readouterr().err
        assert rc in (0, 2), (kind, where, rc, err)
        assert rc == 0 or err.strip(), (kind, where)
        assert rc == 2 or kind not in ("nan", "inf"), (kind, where)
        if rc == 2:
            rejected.add(kind)
    assert {"nan", "inf", "negative", "drop"} <= rejected


def test_potential_with_a_certificate_key_exits_2(capsys, tmp_path, fixture_dir):
    # a potential is its finite table; this one claims zero variation, though
    # its value at 0 moves by 10 with the next symbol, and was once accepted
    doc = {"kind": "potential", "schema": 1, "left_range": 0, "right_range": 2,
           "weights": {"0,0": 5, "0,1": -5, "1,0": 0},
           "certificate": {"prefix": [], "tail": {"type": "zero"}, "p": 1}}
    bad = tmp_path / "zero-tail.json"
    bad.write_text(json.dumps(doc))
    rc = main(["pressure", "--shift", str(fixture_dir / "gm.json"), "--potential", str(bad)])
    assert rc == 2 and "unknown keys" in capsys.readouterr().err


def test_zero_tail_with_a_positive_coef_exits_2(capsys, tmp_path):
    # a zero tail weighs nothing; one declaring coef 0.5 was once read as "no
    # tail" by tail_sum but as a weighted tail by zn, whose table then ended at 2
    doc = {"kind": "loops", "schema": 1, "alphabet": None, "base": [], "loops": [{"len": 1}],
           "tails": [{"type": "zero", "coef": 0.5, "start": 2}]}
    bad = tmp_path / "zero-tail-loops.json"
    bad.write_text(json.dumps(doc))
    rc = main(["zn", "--shift", str(bad), "--nmax", "6"])
    assert rc == 2 and "zero tail has coef 0" in capsys.readouterr().err
    doc["tails"][0]["coef"] = 0.0
    bad.write_text(json.dumps(doc))
    rc, report, _ = run_cli(capsys, "zn", "--shift", str(bad), "--nmax", "6")
    assert rc == 0 and report["truncated_at"] is None and len(report["entries"]) == 6


def test_verify_correspondence_cli(capsys, fixture_dir):
    rc, report, _ = run_cli(
        capsys, "verify-correspondence", "--ai", str(fixture_dir / "gm-self-ai.json"),
        "--potential", str(fixture_dir / "gm-range1.json"),
        "--target-potential", str(fixture_dir / "gm-range1-block2.json"),
        "--nmax", "8",
    )
    assert rc == 0
    assert report["passed"] is True
    assert report["pressure_gap"]["value"] <= 1e-9
    # each leg's pressure carries the error that pressure_spectral computed
    assert all(math.isfinite(report[leg]["error"]) for leg in ("pressure_s", "pressure_t"))
    _, pressure, _ = run_cli(capsys, "pressure", "--shift", str(fixture_dir / "gm.json"),
                             "--potential", str(fixture_dir / "gm-range1.json"))
    assert report["pressure_s"] == pressure["pressure"]


def test_road_colouring_ai_cli(capsys, fixture_dir):
    # code_t is not a conjugacy; both commands take the exact route all the same
    ai = str(fixture_dir / "road-ai.json")
    for order in ("1", "2", "3"):
        rc, report, _ = run_cli(capsys, "transport", "--ai", ai,
                                "--measure", str(fixture_dir / "road-parry.json"), "--order", order)
        assert rc == 0
        assert report["method"] == "closed-form"
        assert abs(report["entropy_out"]["value"] - math.log(2)) <= 1e-12
    rc, report, _ = run_cli(
        capsys, "verify-correspondence", "--ai", ai,
        "--potential", str(fixture_dir / "road-f.json"),
        "--target-potential", str(fixture_dir / "road-g.json"), "--nmax", "8",
    )
    assert rc == 0
    assert report["passed"] is True
    assert report["equilibrium_block_gap"] <= 1e-9


def test_reversed_road_ai_cli(capsys, fixture_dir, tmp_path):
    # code_s is the road colouring, not injective: transport needs no sample
    # budget, and the correspondence check runs its measure layer
    ai = str(fixture_dir / "road-ai-reversed.json")
    rc, report, _ = run_cli(capsys, "transport", "--ai", ai,
                            "--measure", str(fixture_dir / "full2-bernoulli-half.json"), "--order", "2")
    assert rc == 0
    assert report["method"] == "closed-form" and report["samples"] is None
    assert abs(report["entropy_out"]["value"] - math.log(2)) <= 1e-12
    zero_g = tmp_path / "zero-g.json"
    zero_g.write_text(json.dumps({"kind": "potential", "schema": 1, "left_range": 0, "right_range": 1,
                                  "weights": {"a": 0, "b": 0, "c": 0}}))
    rc, report, _ = run_cli(
        capsys, "verify-correspondence", "--ai", ai,
        "--potential", str(fixture_dir / "zero.json"), "--target-potential", str(zero_g), "--nmax", "8",
    )
    assert rc == 0
    assert report["passed"] is True and report["first_failure"] is None
    assert isinstance(report["equilibrium_block_gap"], float) and report["equilibrium_block_gap"] <= 1e-9


def test_transport_rejects_a_measure_on_a_fixed_point(capsys, fixture_dir, tmp_path):
    # one block (0,) on the golden mean: the word (1,) has no mass
    doc = json.loads((fixture_dir / "gm-parry.json").read_text())
    doc.update(order=1, blocks=["0"], transitions=[[1.0]], stationary=[1.0])
    measure = tmp_path / "fixed-point.json"
    measure.write_text(json.dumps(doc))
    rc = main(["transport", "--ai", str(fixture_dir / "gm-self-ai.json"), "--measure", str(measure),
               "--order", "1"])
    assert rc == 2
    assert "fully supported" in capsys.readouterr().err


def test_reports_byte_identical(fixture_dir, tmp_path, src_env):
    cmd = [
        sys.executable, "-m", "shiftlab.cli", "transport",
        "--ai", str(fixture_dir / "gm-self-ai.json"),
        "--measure", str(fixture_dir / "gm-parry.json"),
        "--order", "2", "--samples", "5000", "--seed", "123",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True, env=src_env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=src_env)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.strip().startswith("{")


def test_schema_violation_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "graph", "schema": 1, "alphabet": ["a"], "edges": [[0,0]], "junk": 1}\n')
    rc = main(["pressure", "--shift", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "schema error" in captured.err


def test_missing_file_exit_2(capsys):
    rc = main(["pressure", "--shift", "/nonexistent/f.json"])
    capsys.readouterr()
    assert rc == 2


def test_zn_gm_lucas(capsys, fixture_dir):
    code, report, _ = run_cli(
        capsys, "zn", "--shift", str(fixture_dir / "gm.json"), "--nmax", "8",
    )
    assert code == 0
    assert [e["Z_n"]["value"] for e in report["entries"]][:5] == [1, 3, 4, 7, 11]


def test_import_loads_neither_scipy_nor_numba(src_env):
    code = "import sys, shiftlab, shiftlab.cli; print(sorted({'scipy', 'numba'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=src_env)
    assert out.stdout.strip() == "[]"


# every name `from shiftlab import *` gave when __init__ imported every module,
# less PeriodicPoint (a periodic point is now its orbit word, a plain tuple),
# the declared variation certificates (a potential is its finite table) and
# the tail-law classes (a declared tail is its TailDescriptor)
PACKAGE_EXPORTS = sorted("""
    AlmostIsomorphism BlockLabeling BudgetExceededError CodeError ConvergenceError DomainError
    EventuallyPeriodicPoint ExhaustionLevel ExhaustionPresentation ExpSum FiniteGraph FinitePresentation
    FiniteRangePotential GraphError InducedPresentation Loop LoopSystem MagicWordCertificate
    MarkovMeasure OneBlockCode PartitionFunctionTable PressureEstimate
    RecurrenceClass TailDescriptor assemble_ai birkhoff_sum
    bowen_reduce build_graph codes
    enumerate_periodic equilibrium_measure export_zn_csv expsum from_periodic gamma_on_point graphs
    higher_block induce induction intervals irreducible_and_period kernels labeling_code
    lift_potential loop_partition_function measure_pressure partition_function
    phi_injective_on_periodic potentials pressure_exhaustion pressure_from_table
    pressure_spectral recurrence_classify thermo transport_measure verify_correspondence
    verify_magic verify_zn_coincidence zeta_series
""".split())


def test_package_names_resolve_with_the_leaf_layers_unloaded(src_env):
    # import shiftlab loads the core only; each leaf name then resolves on first use,
    # to the object its module defines, and an unknown name is still an AttributeError
    code = """if True:
        import json, sys, shiftlab
        leaves = sorted({'shiftlab.codes', 'shiftlab.induction'} & set(sys.modules))
        listed = set(dir(shiftlab))
        same = all(getattr(shiftlab, n) is getattr(sys.modules['shiftlab.' + m], n) for n, m in shiftlab._LAZY.items())
        star = {}
        exec('from shiftlab import *', star)
        try:
            shiftlab.no_such_name
            unknown = 'resolved'
        except AttributeError:
            unknown = 'AttributeError'
        print(json.dumps([leaves, sorted(shiftlab.__all__), sorted(set(shiftlab.__all__) - listed), same,
                          sorted(set(star) - {'__builtins__'}), unknown]))
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=src_env)
    leaves, exported, unlisted, same, star, unknown = json.loads(out.stdout)
    assert leaves == []
    assert exported == star == PACKAGE_EXPORTS
    assert unlisted == [] and same and unknown == "AttributeError"


@pytest.mark.parametrize("argv, rc, leaves", [
    (["entropy", "--shift", "gm.json"], 0, []),
    (["zn", "--shift", "gm-at-0-loops.json"], 0, ["shiftlab.induction"]),
    # the empty word is a CodeError, which main reports as an input error
    (["verify-magic", "--code", "gm-block2-code.json", "--word", ""], 2, ["shiftlab.codes"]),
    # a graph table is thermo.partition_function alone, so induction stays unloaded
    (["zn", "--shift", "gm.json"], 0, []),
    (["zeta", "--shift", "gm.json"], 0, []),
    (["pressure", "--shift", "gm.json", "--method", "table"], 0, []),
])
def test_a_command_loads_only_the_leaf_layers_it_runs(src_env, fixture_dir, argv, rc, leaves):
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    code = f"""if True:
        import contextlib, io, json, sys
        from shiftlab.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main({argv!r})
        print(json.dumps([rc, sorted({{'shiftlab.codes', 'shiftlab.induction'}} & set(sys.modules))]))
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=src_env)
    assert json.loads(out.stdout) == [rc, leaves], out.stderr


def _readme_cli_lines():
    """The ``shiftlab ...`` lines of README's CLI block, continuation lines joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("shiftlab ")]


def test_readme_cli_lines_run(capsys, fixture_dir, tmp_path, monkeypatch):
    # every documented command exits 0 as written, and every subcommand is documented
    shutil.copytree(fixture_dir, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    for argv in lines:
        rc = main(argv)
        assert rc == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {argv[0] for argv in lines}
