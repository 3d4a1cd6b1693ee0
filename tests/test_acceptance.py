"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import time
from fractions import Fraction as F

import numpy as np

from shiftlab.codes import assemble_ai, labeling_code, transport_measure, verify_correspondence, verify_magic
from shiftlab.graphs import build_graph, higher_block
from shiftlab.induction import induce, LoopSystem, TailDescriptor
from shiftlab.potentials import FiniteRangePotential, bowen_reduce
from shiftlab.thermo import (
    equilibrium_measure,
    measure_pressure,
    partition_function,
    pressure_from_table,
    pressure_spectral,
    recurrence_classify,
)

from oracles import random_irreducible_graph, random_rational_values, weighted_trace_expsum
from test_thermo import _perturb

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {tag}{suffix}")
    assert ok, f"criterion {number} {name} failed {suffix}"


def test_criterion_1_exact_zn_oracle(gm, full2):
    rng = np.random.default_rng(6180339)
    cases = []
    for pres in (gm, full2):
        cases.append((pres.graph, random_rational_values(rng, pres.graph.n_vertices)))
    for _ in range(20):
        names, edges = random_irreducible_graph(rng, 8)
        g = build_graph(names, edges).graph
        cases.append((g, random_rational_values(rng, g.n_vertices)))
    start = time.perf_counter()
    ok = True
    for g, values in cases:
        f = FiniteRangePotential.from_vertex_values(g, values)
        table = partition_function(g, f, (), 10)
        for n in range(1, 11):
            ok &= table.zn_exact(n) == weighted_trace_expsum(g.adjacency, values, n)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(1, "exact Zn oracle", ok, f"{len(cases)} cases in {elapsed:.2f}s")


def test_criterion_2_pressure_consistency(gm, full2):
    rng = np.random.default_rng(271828)
    fixtures = [
        (full2.graph, FiniteRangePotential.zero(full2.graph), (0,), 16, 1),
        (gm.graph, FiniteRangePotential.zero(gm.graph), (), 12, 1),
    ]
    two_cycle = build_graph(["a", "b"], [(0, 1), (1, 0)])
    fixtures.append((two_cycle.graph, FiniteRangePotential.zero(two_cycle.graph), (), 16, 2))
    for _ in range(20):
        names, edges = random_irreducible_graph(rng, 7)
        pres = build_graph(names, edges)
        f = FiniteRangePotential.from_vertex_values(
            pres.graph, random_rational_values(rng, pres.graph.n_vertices)
        )
        fixtures.append((pres.graph, f, (), max(12, 7 * pres.period), pres.period))
    ok = True
    worst = 0.0
    for g, f, W, nmax, period in fixtures:
        t = partition_function(g, f, W, nmax)
        est_t = pressure_from_table(t, period)
        est_s = pressure_spectral(g, f)
        gap = abs(est_t.value - est_s.value)
        ok &= gap <= est_t.error + est_s.error
        worst = max(worst, gap - est_t.error - est_s.error)
    gm_est = pressure_spectral(gm.graph, FiniteRangePotential.zero(gm.graph))
    ok &= abs(gm_est.value - 0.4812118251) <= 1e-9
    ok &= abs(gm_est.value - LOG_PHI) <= 1e-9
    report(2, "pressure consistency", ok, f"{len(fixtures)} fixtures, worst margin {worst:.1e}")


def test_criterion_3_restriction_invariance(gm):
    ok = True
    zero = FiniteRangePotential.zero(gm.graph)
    for word, maxlen in (((0,), 12), ((1,), 50)):
        ind = induce(gm.graph, word, maxlen=maxlen)
        verdict = recurrence_classify(ind.loops, zero)
        ok &= verdict.verdict == "SPR"
        ok &= abs(math.log(verdict.lam) - LOG_PHI) <= 1e-6
    report(3, "restriction invariance", ok)


def test_criterion_4_zn_coincidence(gm, full2):
    from shiftlab.induction import verify_zn_coincidence

    rng = np.random.default_rng(314159)
    cases = []
    for pres in (gm, full2):
        f = FiniteRangePotential.from_vertex_values(
            pres.graph, random_rational_values(rng, pres.graph.n_vertices)
        )
        for v in range(pres.graph.n_vertices):
            cases.append((pres.graph, f, (v,)))
    while len(cases) < 24:
        names, edges = random_irreducible_graph(rng, 6)
        g = build_graph(names, edges).graph
        f = FiniteRangePotential.from_vertex_values(g, random_rational_values(rng, g.n_vertices))
        cases.append((g, f, (int(rng.integers(0, g.n_vertices)),)))
    ok = True
    for g, f, W in cases:
        ind = induce(g, W, maxlen=10, budget=2_000_000)
        rep = verify_zn_coincidence(g, f, W, ind, 10)
        ok &= rep.all_equal
    report(4, "Zn coincidence", ok, f"{len(cases)} triples, exact to n=10")


def test_criterion_5_equilibrium_maximality(gm, full2):
    rng = np.random.default_rng(1618)
    ok = True
    for pres in (gm, full2):
        g = pres.graph
        for f in (
            FiniteRangePotential.zero(g),
            FiniteRangePotential.from_vertex_values(g, random_rational_values(rng, g.n_vertices)),
        ):
            mu = equilibrium_measure(g, f)
            ok &= float(np.max(np.abs(mu.transitions.sum(axis=1) - 1.0))) <= 1e-12
            ok &= float(np.max(np.abs(mu.stationary @ mu.transitions - mu.stationary))) <= 1e-12
            best = measure_pressure(mu, f)
            for _ in range(200):
                nu = _perturb(mu, rng)
                ok &= measure_pressure(nu, f) <= best + 1e-9
    report(5, "equilibrium maximality", ok, "200 perturbations per fixture")


def test_criterion_6_recurrence_classification(gm):
    c6 = 6.0 / math.pi**2
    start = time.perf_counter()
    null_sys = LoopSystem(
        loops=(), tails=(TailDescriptor(kind="polynomial", coef=c6, power=2.0, start=0),)
    )
    r_null = recurrence_classify(null_sys)
    trans_sys = LoopSystem(
        loops=(), tails=(TailDescriptor(kind="polynomial", coef=c6 / 2, power=2.0, start=0),)
    )
    r_trans = recurrence_classify(trans_sys)
    zero = FiniteRangePotential.zero(gm.graph)
    r_gm0 = recurrence_classify(induce(gm.graph, (0,), maxlen=12).loops, zero)
    r_gm1 = recurrence_classify(induce(gm.graph, (1,), maxlen=50).loops, zero)
    elapsed = time.perf_counter() - start
    ok = r_null.verdict == "null_recurrent"
    ok &= r_null.F_at_z[0] <= 1.0 <= r_null.F_at_z[1] and r_null.F_at_z[1] - r_null.F_at_z[0] < 1e-9
    ok &= r_null.Fprime_at_z is None
    ok &= r_trans.verdict == "transient" and r_trans.F_at_z[1] < 1.0
    ok &= r_gm0.verdict == "SPR" and r_gm1.verdict == "SPR"
    ok &= elapsed < 5.0
    report(6, "recurrence classification", ok, f"{elapsed:.2f}s")


def test_criterion_7_magic_word_suite(gm, full2):
    from shiftlab.codes import OneBlockCode

    identity = OneBlockCode(source=gm.graph, target=gm.graph, symbol_map=(0, 1))
    H, lab = higher_block(gm.graph, 2)
    block2 = labeling_code(H, lab, gm.graph)
    point = build_graph(["*"], [(0, 0)]).graph
    collapse = OneBlockCode(source=full2.graph, target=point, symbol_map=(0, 0))

    ok = verify_magic(identity, (1,), 0, 8).certified
    ok &= verify_magic(block2, (1, 0), 0, 8).certified
    cert = verify_magic(collapse, (0,), 0, 2)
    ok &= cert.status == "refuted" and cert.witness is not None
    if cert.witness is not None:
        C, u, v = cert.witness
        image = (0,) + C + (0,)
        ok &= u != v
        ok &= collapse.apply_word(u) == image == collapse.apply_word(v)
    report(7, "magic-word suite", ok)


def test_criterion_8_correspondence(gm):
    g_graph = gm.graph
    H, lab = higher_block(g_graph, 2)
    code = labeling_code(H, lab, g_graph)
    cert = verify_magic(code, (1, 0), 0, 8)
    ai = assemble_ai(code, code, cert, cert)
    f = FiniteRangePotential.from_vertex_values(g_graph, [F(1, 3), F(-1, 2)])
    g = FiniteRangePotential(g_graph, 0, 2, {w: f.table[w[:1]] for w in g_graph.words(2)})

    rep = verify_correspondence(ai, f, g, n_max=10)
    ok = rep.passed
    ok &= rep.pressure_gap <= 1e-9
    ok &= rep.first_failure is None
    ok &= rep.measure_block_gap <= 1e-9

    mu_f = equilibrium_measure(g_graph, f)
    sampled = transport_measure(ai, mu_f, order=2, samples=100_000, seed=42)
    ok &= abs(sampled.entropy_out - mu_f.entropy()) <= 0.01
    report(8, "correspondence across the almost isomorphism", ok,
           f"witnesses={rep.witnesses_checked}")


def test_criterion_9_bowen_reduction(gm, full2):
    rng = np.random.default_rng(999)
    ok = True
    for pres in (gm, full2):
        g = pres.graph
        table = {w: F(int(rng.integers(-8, 9)), 5) for w in g.words(2)}
        f = FiniteRangePotential(g, 1, 1, table)
        reduced, h = bowen_reduce(f)
        for W in ((), (0,)):
            t1 = partition_function(g, f, W, 10)
            t2 = partition_function(g, reduced, W, 10)
            for n in range(1, 11):
                ok &= t1.zn_exact(n) == t2.zn_exact(n)
        # coboundary identity on all words of span + 1 letters
        for w in g.words(f.span + 1):
            ok &= f.table[w[0:2]] + h.table[w[1:3]] - h.table[w[0:2]] == reduced.table[w[1:3]]
    report(9, "Bowen reduction", ok)
