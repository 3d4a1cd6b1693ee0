"""The benchmark workloads: seeded inputs, operations and their checks.

Each workload turns a seed into a fixed, interleaved list of operations.
An operation is one call sequence into shiftlab (``run``), a reference
computed without shiftlab's algorithms (``ref``), a check of the output
against it (``check``), and the exact or discrete part of the output that
goes into the workload digest (``exact``).  The seed changes the inputs
inside each size band; the order of operation kinds is fixed, so every run
measures the same mix.

shiftlab is reached through module attributes at call time (never through
names bound at import), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from shiftlab import codes, graphs, induction, kernels, potentials, thermo
import shiftlab.cli as cli
import shiftlab.documents as documents

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
LEGACY_CAP = 50_000_000


class CheckFailed(AssertionError):
    pass


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    ref: Callable[[], Any]
    check: Callable[[Any, Any], None]
    exact: Callable[[Any], Any] = lambda out: None


# --------------------------------------------------------------------------
# shared input generation


def random_graph(rng, V: int, p: float, self_loop: bool = True) -> list[tuple[int, int]]:
    """A Hamiltonian cycle (irreducible), optionally a self-loop (aperiodic),
    plus each other edge with probability p."""
    perm = [int(x) for x in rng.permutation(V)]
    edges = {(perm[i], perm[(i + 1) % V]) for i in range(V)}
    if self_loop:
        v = int(rng.integers(V))
        edges.add((v, v))
    for a in range(V):
        for b in range(V):
            if rng.random() < p:
                edges.add((a, b))
    return sorted(edges)


def legacy_dense_graph(v: int, p: float, seed: int) -> graphs.FiniteGraph:
    """The dense random graph of the earlier backend benchmark, bit for bit."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(v)
    edges = {(int(perm[i]), int(perm[(i + 1) % v])) for i in range(v)}
    for a in range(v):
        for b in range(v):
            if rng.random() < p:
                edges.add((a, b))
    return graphs.build_graph([str(i) for i in range(v)], sorted(edges)).graph


def random_word(rng, adj: np.ndarray, length: int) -> tuple[int, ...]:
    if length == 0:
        return ()
    w = [int(rng.integers(adj.shape[0]))]
    while len(w) < length:
        w.append(int(rng.choice(np.nonzero(adj[w[-1]])[0])))
    return tuple(w)


def random_table(rng, adj: np.ndarray, span: int, rational: bool) -> dict:
    table = {}
    for w in ref.block_words(adj, span):
        if rational:
            table[w] = Fraction(int(rng.integers(-6, 7)), int(rng.choice([2, 3, 4, 6])))
        else:
            table[w] = float(rng.normal(0.0, 0.5))
    return table


def exact_pairs(z) -> list:
    return [[str(e), m] for e, m in z.pairs()]


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# Slack for comparing against LAPACK eigenvalues and fsum-level float sums;
# far above their rounding, far below any real discrepancy.
EIG_SLACK = 1e-9
REL_SLACK = 1e-9


# --------------------------------------------------------------------------
# zn-tables


# Caps bound the points on the route that dominates a table's cost (count
# keys for n <= 15; per-point Birkhoff sums past it, or for every n when the
# potential is float or reads two symbols).  They are set so that every kind
# costs about the same, which keeps the latency distribution unimodal.
#
# zn-tables runs the kinds whose outputs are exact and ends at the table
# (zeta_series for the zero potential).  zn-estimates runs the kinds whose
# outputs carry an error claim -- float tables, and pressure_from_table on
# every table -- and checks each claim against the truth.  Some of those
# claims are too narrow (workloads.json says which), so it fails on some
# seeds and is not gated.
ZN_EXACT = ("exact-keyed", "exact-points", "exact-span2", "zeta")
ZN_ESTIMATES = ("exact-keyed", "exact-points", "exact-span2", "float")
ZN_KINDS = {
    # kind: (span, rational, zero potential, n_max band, route, cap)
    "exact-keyed": (1, True, False, (10, 15), "keyed", 30_000),
    "exact-points": (1, True, False, (16, 18), "points", 500),
    "exact-span2": (2, True, False, (8, 14), "all", 800),
    "float": (None, False, False, (8, 14), "all", 1_600),
    "zeta": (1, True, True, (10, 15), "keyed", 30_000),
}


def _zn_cost(counts: list[int], n_max: int, route: str) -> int:
    if route == "keyed":
        return sum(counts[:n_max])
    return sum(counts[15:n_max] if route == "points" else counts[:n_max])


def _zn_input(rng, kind: str):
    """Draw graphs until the table's cost lands in [cap/2, cap]: stratifying
    by size keeps the per-pass work close to equal across seeds."""
    span, rational, zero, (lo, hi), route, cap = ZN_KINDS[kind]
    span = span or int(rng.integers(1, 3))
    p = 0.3
    for _ in range(10_000):
        V = int(rng.integers(2, 9))
        edges = random_graph(rng, V, p)
        adj = ref.adjacency(V, edges)
        W = () if zero else random_word(rng, adj, int(rng.integers(0, 3)))
        chain = ref.chain_for(adj, span, W)
        counts = ref.periodic_counts(chain, W, hi)
        fits = [n for n in range(lo, hi + 1)
                if _zn_cost(counts, n, route) <= cap and sum(c > 0 for c in counts[:n]) >= 6]
        if not fits:
            p *= 0.7  # sparser graphs have fewer periodic points
            continue
        n_max = fits[-1]
        if 2 * _zn_cost(counts, n_max, route) >= cap:
            break
        p = min(0.9, p * 1.2)
    else:
        raise RuntimeError(f"no {kind} input in its size band")
    if zero:
        left, table = 0, {(v,): Fraction(0) for v in range(V)}
    else:
        left = int(rng.integers(0, span))
        table = random_table(rng, adj, span, rational)
    return dict(V=V, edges=edges, adj=adj, W=W, span=span, left=left, table=table,
                n_max=n_max, zero=zero, chain=chain)


def _zn_op(kind: str, x: dict, estimate: bool) -> Op:
    names = [str(v) for v in range(x["V"])]
    graph = graphs.build_graph(names, x["edges"]).graph
    f = potentials.FiniteRangePotential(graph, x["left"], x["span"] - x["left"], x["table"])
    W, n_max = x["W"], x["n_max"]

    def run():
        table = thermo.partition_function(graph, f, W, n_max)
        if x["zero"]:
            return table, thermo.zeta_series(table, n_max)
        return table, thermo.pressure_from_table(table, 1) if estimate else None

    def reference():
        chain = x["chain"]
        weights = chain.weights(x["table"], x["span"])
        return dict(
            counts=ref.periodic_counts(chain, W, n_max),
            sums=ref.weighted_sums(chain, weights, W, n_max),
            log_rho=ref.log_perron_root(chain, weights),
            zeta=ref.zeta_coefficients(x["adj"], n_max) if x["zero"] else None,
        )

    def check(out, r):
        table, tail = out
        expect(table.truncated_at is None and sorted(table.entries) == list(range(1, n_max + 1)),
               f"incomplete table (truncated at {table.truncated_at})")
        for n in range(1, n_max + 1):
            z = table.entries[n]
            if table.exact:
                expect(z.count == r["counts"][n - 1], f"Z_{n} multiplicity {z.count} != {r['counts'][n - 1]}")
                expect(close(z.float_value(), r["sums"][n - 1], REL_SLACK * r["sums"][n - 1]),
                       f"Z_{n} value {z.float_value()!r} != {r['sums'][n - 1]!r}")
            else:
                value, err = z
                expect(close(value, r["sums"][n - 1], err),
                       f"float Z_{n} = {value!r} +- {err:.3g} misses {r['sums'][n - 1]!r}")
        if x["zero"]:
            expect(all(table.entries[n].is_integer() for n in range(1, n_max + 1)), "zero potential gave exponents")
            expect(list(tail) == r["zeta"], "zeta coefficients differ from 1/det(I - zA)")
        elif estimate:
            expect(close(tail.value, r["log_rho"], tail.error + EIG_SLACK),
                   f"Z-extrapolated pressure {tail.value!r} +- {tail.error:.3g} misses log rho {r['log_rho']!r}")

    def exact(out):
        table, tail = out
        if not table.exact:
            return [kind, n_max, None]
        rows = [exact_pairs(table.entries[n]) for n in sorted(table.entries)]
        return [kind, n_max, rows, [str(c) for c in tail] if x["zero"] else None]

    return Op(kind, run, reference, check, exact)


def _legacy_closed_paths_op() -> Op:
    """Closed paths at n = 11 on the seed-5 dense graph (earlier backend benchmark)."""
    g = legacy_dense_graph(8, 0.35, seed=5)
    n = 11
    indptr, indices = g.csr
    reach = kernels.exact_reach(g.adjacency, n)

    def run():
        return kernels.closed_paths(indptr, indices, reach, n, (), LEGACY_CAP)

    def reference():
        adj = ref.adjacency(g.n_vertices, g.edges)
        return dict(adj=adj, count=ref.periodic_counts(ref.chain_for(adj, 1), (), n)[-1])

    def check(out, r):
        paths, overflow = out
        expect(not overflow, "closed-path kernel overflowed")
        expect(paths.shape == (r["count"], n), f"{paths.shape[0]} closed paths, expected {r['count']}")
        expect(bool(r["adj"][paths, np.roll(paths, -1, axis=1)].all()), "a row is not a closed walk")
        keys = paths.astype(np.int64) @ (np.int64(8) ** np.arange(n - 1, -1, -1, dtype=np.int64))
        expect(bool(np.all(np.diff(keys) > 0)), "rows are not strictly lexicographic")

    return Op("kernel-closed-paths-n11", run, reference, check, lambda out: int(out[0].shape[0]))


def zn_tables(seed: int, tiny: bool, estimate: bool = False) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    # 90 inputs of each kind keep the mix's median and 90th-percentile cost
    # within a few percent between seeds; a pass takes about 16 s
    rounds = 1 if tiny else 90
    kinds = ZN_ESTIMATES if estimate else ZN_EXACT
    ops = [_zn_op(kind, _zn_input(rng, kind), estimate) for _ in range(rounds) for kind in kinds]
    if not estimate:
        ops.append(_legacy_closed_paths_op())
    return ops


# --------------------------------------------------------------------------
# spectral-measure


def _exhaustion_edges(rng, sizes: list[int]) -> list[list[tuple[int, int]]]:
    """Edge sets of strictly nested irreducible levels, by ear decomposition."""
    v0 = sizes[0]
    edges = set(random_graph(rng, v0, 0.15))
    levels = [sorted(edges)]
    for lo, hi in zip(sizes, sizes[1:]):
        a, b = int(rng.integers(lo)), int(rng.integers(lo))
        path = [a] + list(range(lo, hi)) + [b]
        edges |= set(zip(path, path[1:]))
        for _ in range(int(rng.integers(1, 4))):
            edges.add((int(rng.integers(hi)), int(rng.integers(hi))))
        levels.append(sorted(edges))
    return levels


def _spectral_input(rng, kind: str):
    span = int(rng.integers(1, 4))
    left = int(rng.integers(0, span))
    if kind == "exhaustion":
        sizes = sorted(int(s) for s in rng.choice(np.arange(4, 41), size=int(rng.integers(2, 5)), replace=False))
        levels = _exhaustion_edges(rng, sizes)
        V, core = sizes[-1], levels[-1]
        raw, removed = core, ()
    else:
        V = int(rng.integers(10, 21) if kind == "self-code" else rng.integers(10, 61))
        core = random_graph(rng, V, 1.2 / V, self_loop=False)
        # stranded vertices, for build_graph to prune
        extra = int(rng.integers(0, 3))
        raw = core + [(V + i, int(rng.integers(V))) for i in range(extra)]
        removed = tuple(f"v{V + i}" for i in range(extra))
        levels, sizes = None, None
    adj = ref.adjacency(V, core)
    return dict(V=V, raw=raw, n_raw=V + len(removed), removed=removed, core=core, adj=adj,
                span=span, left=left, levels=levels, sizes=sizes,
                table=random_table(rng, adj, span, rational=kind != "graph-float"),
                W=random_word(rng, adj, 2))


def _spectral_op(kind: str, x: dict) -> Op:
    names = [f"v{i}" for i in range(x["n_raw"])]
    span, left = x["span"], x["left"]
    ai = None
    if kind == "self-code":
        base = graphs.build_graph(names, x["raw"]).graph
        H, lab = graphs.higher_block(base, 2)
        code = codes.labeling_code(H, lab, base)
        cert = codes.verify_magic(code, x["W"], 0, 2)
        ai = codes.assemble_ai(code, code, cert, cert)

    def run():
        pres = graphs.build_graph(names, x["raw"])
        f = potentials.FiniteRangePotential(pres.graph, left, span - left, x["table"])
        out = dict(pres=pres, ps=thermo.pressure_spectral(pres.graph, f))
        out["mu"] = mu = thermo.equilibrium_measure(pres.graph, f)
        out["mp"] = thermo.measure_pressure(mu, f)
        if x["levels"] is not None:
            levels = []
            for k, edges in zip(x["sizes"], x["levels"]):
                lv = graphs.build_graph(names[:k], edges).graph
                levels.append(graphs.ExhaustionLevel(vertex_ids=tuple(range(k)), graph=lv))
            exh = graphs.ExhaustionPresentation(names=tuple(names), levels=tuple(levels))
            out["exh"] = thermo.pressure_exhaustion(exh, f)
        if ai is not None:
            out["transport"] = codes.transport_measure(ai, mu, order=mu.order)
        return out

    def reference():
        chain = ref.chain_for(x["adj"], span)
        return dict(log_rho=ref.log_perron_root(chain, chain.weights(x["table"], span)),
                    period=ref.period(x["adj"]))

    def check(out, r):
        pres, ps, mu = out["pres"], out["ps"], out["mu"]
        expect(pres.removed == x["removed"], f"pruned {pres.removed}, expected {x['removed']}")
        expect(pres.graph.edges == tuple(x["core"]), "pruned graph differs from its core")
        expect(pres.period == r["period"], f"period {pres.period} != {r['period']}")
        expect(close(ps.value, r["log_rho"], ps.error + EIG_SLACK),
               f"spectral pressure {ps.value!r} +- {ps.error:.3g} misses log rho {r['log_rho']!r}")
        expect(close(out["mp"], r["log_rho"], ps.error + EIG_SLACK),
               f"measure pressure {out['mp']!r} != log rho {r['log_rho']!r}")
        if "exh" in out:
            est = out["exh"]
            expect(all(b >= a - EIG_SLACK for a, b in zip(est.levels, est.levels[1:])), "level pressures decrease")
            expect(close(est.value, r["log_rho"], est.error + EIG_SLACK), "exhaustion sup misses log rho of the top level")
        if "transport" in out:
            rep = out["transport"]
            h = ref.markov_entropy(mu.transitions, mu.stationary)
            expect(rep.method == "closed-form", f"transport took the {rep.method} route")
            expect(close(rep.entropy_in, h, REL_SLACK) and close(rep.entropy_out, h, REL_SLACK),
                   f"self-code transport moved entropy {rep.entropy_in!r} -> {rep.entropy_out!r} (ref {h!r})")
            expect(rep.tv_gap <= REL_SLACK, f"self-code transport tv gap {rep.tv_gap!r}")

    def exact(out):
        mu = out["mu"]
        return [kind, list(out["pres"].removed), out["pres"].period, out["pres"].graph.n_vertices,
                mu.order, len(mu.blocks), len(out["exh"].levels) if "exh" in out else None,
                out["transport"].method if "transport" in out else None]

    return Op(kind, run, reference, check, exact)


SPECTRAL_KINDS = ("graph-rational", "graph-float", "exhaustion", "self-code")


def spectral_measure(seed: int, tiny: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    rounds = 1 if tiny else 12
    return [_spectral_op(kind, _spectral_input(rng, kind)) for _ in range(rounds) for kind in SPECTRAL_KINDS]


# --------------------------------------------------------------------------
# induce-transport

SAMPLES = 30_000
# verify_magic's cost is dominated by the periodic words it lifts: about
# sum over p <= depth + 4 of Z_p * p^4 steps on 2-block codes, ~25 ns each.
MAGIC_COST_CAP = 4_000_000


def _magic_cost(counts: list[int], depth: int) -> int:
    return sum(c * p**4 for p, c in enumerate(counts[:depth + 4], start=1))


def _induce_graph(rng):
    """Draw graphs until verify_magic at some depth in 6..10 costs [cap/2, cap]."""
    p = 0.2
    for _ in range(10_000):
        V = int(rng.integers(3, 7))
        edges = random_graph(rng, V, p)
        adj = ref.adjacency(V, edges)
        counts = ref.periodic_counts(ref.chain_for(adj, 1), (), 14)
        depths = [d for d in range(6, 11) if _magic_cost(counts, d) <= MAGIC_COST_CAP]
        if not depths:
            p *= 0.7
        elif 2 * _magic_cost(counts, depths[-1]) < MAGIC_COST_CAP:
            p = min(0.9, p * 1.2)
        else:
            return V, edges, adj, depths[-1]
    raise RuntimeError("no induce-transport graph in its size band")


def _induce_ops(rng) -> list[Op]:
    V, edges, adj, depth = _induce_graph(rng)
    names = [str(v) for v in range(V)]
    g = graphs.build_graph(names, edges).graph
    span = int(rng.integers(1, 3))
    table = random_table(rng, adj, span, rational=True)
    f = potentials.FiniteRangePotential(g, 0, span, table)
    W = random_word(rng, adj, int(rng.integers(1, 3)))
    maxlen = int(rng.integers(8, 13))
    n_max = min(maxlen, 10)
    chain = ref.chain_for(adj, span, W)
    Vh = ref.BlockChain(adj, len(W)).adj.shape[0]

    # induce, classify, loop Z_n and the Z_n coincidence, one induced system --
    def induce_run():
        ind = induction.induce(g, W, maxlen=maxlen)
        try:
            verdict = thermo.recurrence_classify(ind.loops, f)
        except Exception as e:  # a crash fails the check, but the other steps still run
            verdict = e
        return (ind, verdict, induction.loop_partition_function(ind.loops, f, n_max),
                induction.verify_zn_coincidence(g, f, W, ind, n_max))

    def induce_ref():
        weights = chain.weights(table, span)
        return dict(returns=ref.first_return_counts(adj, W, maxlen + Vh + 2),
                    counts=ref.periodic_counts(chain, W, n_max),
                    sums=ref.weighted_sums(chain, weights, W, n_max),
                    rho=math.exp(ref.log_perron_root(chain, weights)))

    def loop_counts(ind) -> dict[int, int]:
        counts: dict[int, int] = {}
        for lp in ind.loops.loops:
            counts[lp.length] = counts.get(lp.length, 0) + lp.count
        return counts

    def induce_check(out, r):
        ind, verdict, table, coincidence = out
        counts = loop_counts(ind)
        complete = all(t.kind == "zero" for t in ind.loops.tails)
        K = max(counts) if complete else maxlen
        want = {k: c for k, c in enumerate(r["returns"][:K], start=1) if c}
        expect(counts == want, f"first-return counts {counts} != {want}")
        expect(not complete or not any(r["returns"][K:]), "tails claim completeness but longer first returns exist")
        expect(not isinstance(verdict, Exception), f"recurrence_classify raised {verdict!r}")
        expect(verdict.verdict in ("SPR", "indeterminate"), f"finite irreducible graph classified {verdict.verdict}")
        if verdict.verdict == "SPR":
            lo, hi = verdict.lam_bounds
            expect(lo * (1 - REL_SLACK) <= r["rho"] <= hi * (1 + REL_SLACK),
                   f"lambda bounds [{lo!r}, {hi!r}] miss the Perron root {r['rho']!r}")
        expect(table.exact and sorted(table.entries) == list(range(1, n_max + 1)), "loop table not exact or incomplete")
        for n in range(1, n_max + 1):
            z = table.entries[n]
            expect(z.count == r["counts"][n - 1], f"loop Z_{n} multiplicity {z.count} != {r['counts'][n - 1]}")
            expect(close(z.float_value(), r["sums"][n - 1], REL_SLACK * r["sums"][n - 1]), f"loop Z_{n} value")
        expect(coincidence.all_equal, "ambient and loop-composition Z_n differ")

    def induce_exact(out):
        ind, verdict, table, coincidence = out
        return ["induce", sorted(loop_counts(ind).items()), [t.kind for t in ind.loops.tails],
                type(verdict).__name__ if isinstance(verdict, Exception) else verdict.verdict,
                [exact_pairs(table.entries[n]) for n in sorted(table.entries)], coincidence.all_equal]

    ops = [Op("induce", induce_run, induce_ref, induce_check, induce_exact)]

    # magic words on the 2-block labeling code, a conjugacy ------------------
    H2, lab2 = graphs.higher_block(g, 2)
    code2 = codes.labeling_code(H2, lab2, g)
    mu = thermo.equilibrium_measure(g, f)
    # the likeliest 2-word, so that sampled orbits pin it many times
    Wm = max(sorted(mu.word_distribution(2).items()), key=lambda item: item[1])[0]

    def magic_check(out, r):
        expect(out.status == "certified" and out.depth == depth,
               f"conjugacy code gave {out.status} at depth {out.depth}/{depth}")

    ops.append(Op("magic", lambda: codes.verify_magic(code2, Wm, 0, depth), lambda: None, magic_check,
                  lambda out: ["magic", out.status, out.depth]))

    # seeded sampling transport across the self almost isomorphism ----------
    cert = codes.verify_magic(code2, Wm, 0, 2)
    ai = codes.assemble_ai(code2, code2, cert, cert)
    sample_seed = int(rng.integers(2**31))

    def sample():
        return codes.transport_measure(ai, mu, order=mu.order, samples=SAMPLES, seed=sample_seed)

    def sample_check(out, first):
        expect(out.method == "sampling", f"transport took the {out.method} route")
        same = (np.array_equal(out.measure.transitions, first.measure.transitions)
                and np.array_equal(out.measure.stationary, first.measure.stationary)
                and out.measure.blocks == first.measure.blocks
                and (out.entropy_out, out.tv_gap, out.confidence_width)
                == (first.entropy_out, first.tv_gap, first.confidence_width))
        expect(same, "seeded sampling did not reproduce under the same seed")

    ops.append(Op("transport-sampling", sample, sample, sample_check))

    # correspondence of f with itself read through one past coordinate, so
    # that the target side goes through bowen_reduce ------------------------
    g_table = {w: table[w[1:]] for w in ref.block_words(adj, span + 1)}
    g_t = potentials.FiniteRangePotential(g, 1, span, g_table)
    n_corr = 7

    def corr_check(out, r):
        expect(out.passed, f"correspondence failed: {out}")
        expect(out.witnesses_checked == r, f"{out.witnesses_checked} witnesses, expected {r}")

    ops.append(Op("correspondence", lambda: codes.verify_correspondence(ai, f, g_t, n_max=n_corr),
                  lambda: ref.magic_witnesses(adj, Wm, n_corr), corr_check,
                  lambda out: ["correspondence", out.passed, out.witnesses_checked]))
    return ops


def _legacy_first_returns_op() -> Op:
    """First returns to maxlen 11 on the seed-9 dense graph (earlier backend benchmark)."""
    big = legacy_dense_graph(7, 0.5, seed=9)
    adj = ref.adjacency(big.n_vertices, big.edges)
    indptr, indices = big.csr
    allowed = np.ones(big.n_vertices, dtype=bool)
    allowed[0] = False
    dist = np.full(big.n_vertices, np.inf)  # steps to vertex 0 through allowed vertices
    dist[0], frontier, d = 0.0, [0], 0
    while frontier:
        d += 1
        frontier = [u for v in frontier for u in np.nonzero(adj[:, v])[0]
                    if allowed[u] and not np.isfinite(dist[u])]
        frontier = sorted(set(frontier))
        dist[frontier] = d

    def check(out, r):
        flat, lengths, overflow = out
        expect(not overflow, "first-return kernel overflowed")
        got = np.bincount(lengths, minlength=12)[1:12].tolist()
        expect(got == r, f"first returns by length {got} != {r}")
        expect(len(flat) == int(np.sum(lengths)), "flat path data has the wrong length")

    return Op("kernel-first-returns", lambda: kernels.first_return_paths(indptr, indices, allowed, dist, 0, 0, 11, LEGACY_CAP),
              lambda: ref.first_return_counts(adj, (0,), 11), check, lambda out: out[1].tolist())


CHAIN_STEPS = 200_000


def _legacy_chain_op() -> Op:
    """Chain stepping on the earlier benchmark's 3-state chain and uniform stream,
    at a tenth of its 2e6 steps so that one operation stays well under a second."""
    P = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    cum = np.cumsum(P, axis=1)
    uniforms = np.random.default_rng(0).random(CHAIN_STEPS)

    def check(out, r):
        expect(np.array_equal(out, r), "chain trajectory differs from the reference")

    return Op("kernel-chain", lambda: kernels.step_chain(cum, 0, uniforms),
              lambda: ref.chain_trajectory(cum, 0, uniforms), check,
              lambda out: hashlib.sha256(np.asarray(out, dtype=np.int32).tobytes()).hexdigest())


def induce_transport(seed: int, tiny: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for _ in range(1 if tiny else 8):
        ops.extend(_induce_ops(rng))
    ops.append(_legacy_first_returns_op())
    ops.append(_legacy_chain_op())
    return ops


# --------------------------------------------------------------------------
# cli


def _cli_documents(rng, work: Path) -> dict:
    V, edges, adj, depth = _induce_graph(rng)
    names = [str(v) for v in range(V)]
    g = graphs.build_graph(names, edges).graph
    table = random_table(rng, adj, 1, rational=True)
    f = potentials.FiniteRangePotential(g, 0, 1, table)
    # reads one past coordinate, so the spectral route goes through bowen_reduce
    table2 = random_table(rng, adj, 2, rational=True)
    f2 = potentials.FiniteRangePotential(g, 1, 1, table2)
    W = random_word(rng, adj, 1)
    Wm = random_word(rng, adj, 2)
    H, lab = graphs.higher_block(g, 2)
    full2 = graphs.build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0), (1, 1)]).graph
    point = graphs.build_graph(["x"], [(0, 0)]).graph
    docs = {
        "graph": documents.emit_graph(g),
        "potential": documents.emit_potential(f),
        "potential2": documents.emit_potential(f2),
        "code": documents.emit_code(codes.labeling_code(H, lab, g)),
        "collapse": documents.emit_code(codes.OneBlockCode(source=full2, target=point, symbol_map=(0, 0))),
        "loops": documents.emit_loops(induction.induce(g, W, maxlen=10).loops),
    }
    paths = {}
    for key, doc in docs.items():
        paths[key] = str(work / f"{key}.json")
        Path(paths[key]).write_text(documents.dumps(doc))
    return dict(paths=paths, adj=adj, table=table, table2=table2, W=W, depth=depth,
                word=",".join(names[s] for s in W), magic=",".join(names[s] for s in Wm),
                sample_seed=int(rng.integers(2**31)))


def _fixture(name: str) -> str:
    return str(ROOT / "fixtures" / name)


GOLDEN_MEAN = np.array([[1, 1], [1, 0]])


def _cli_ops(d: dict, subprocesses: bool) -> list[Op]:
    """Seeded documents for the graph commands; the almost-isomorphism commands
    run on the fixtures, whose parse re-verifies magic words at depth 8."""
    p = d["paths"]
    adj, table, W = d["adj"], d["table"], d["W"]
    chain1 = ref.chain_for(adj, 1)
    log_rho_0 = ref.log_perron_root(chain1, [0.0] * adj.shape[0])
    log_rho_f = ref.log_perron_root(chain1, chain1.weights(table, 1))
    chain2 = ref.chain_for(adj, 2)
    log_rho_f2 = ref.log_perron_root(chain2, chain2.weights(d["table2"], 2))
    log_phi = math.log((1 + math.sqrt(5)) / 2)
    ai, parry = _fixture("gm-self-ai.json"), _fixture("gm-parry.json")

    def call(argv):
        if subprocesses:
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            res = subprocess.run([sys.executable, "-m", "shiftlab.cli", *argv], env=env, cwd=ROOT,
                                 capture_output=True, text=True, check=False)
            return res.returncode, res.stdout
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def op(argv, code, checker, reference=lambda: None, exact=False):
        kind = argv[0]

        def check(out, r):
            rc, stdout = out
            expect(rc == code, f"{kind} exited {rc}, expected {code}")
            checker(documents.loads(stdout), r, stdout)

        return Op(kind, lambda: call(argv), reference, check,
                  (lambda out: [kind, out[0], out[1]]) if exact else (lambda out: [kind, out[0]]))

    def within(value, err, want, what):
        expect(close(value, want, err + EIG_SLACK), f"{what} {value!r} +- {err!r} misses {want!r}")

    def entropy(rep, r, _):
        within(rep["entropy"]["value"], rep["entropy"]["error"], log_rho_0, "entropy")

    def pressure(log_rho):
        def checker(rep, r, _):
            within(rep["pressure"]["value"], rep["pressure"]["error"], log_rho, "pressure")
        return checker

    chainW = ref.chain_for(adj, 1, W)

    def zn_ref():
        return dict(counts=ref.periodic_counts(chainW, W, 10),
                    sums=ref.weighted_sums(chainW, chainW.weights(table, 1), W, 10))

    def zn(rep, r, _):
        expect(rep["exact"] and rep["truncated_at"] is None and len(rep["entries"]) == 10, "zn table incomplete")
        for row in rep["entries"]:
            want = r["sums"][row["n"] - 1]
            expect(close(row["Z_n"]["value"], want, REL_SLACK * want), f"zn Z_{row['n']}")

    def zn_loops(rep, r, _):
        got = [row["Z_n"]["value"] for row in rep["entries"]]
        expect(got == [float(c) for c in r["counts"]], f"loop zn {got} != {r['counts']}")

    def zeta(rep, r, _):
        expect(rep["exact"] and [Fraction(c) for c in rep["coefficients"]] == r, "zeta coefficients")

    def classify(rep, r, _):
        # w_n = 6/(pi^2 n^2): sum w_n = 1 and sum n w_n diverges
        expect(rep["verdict"] == "null_recurrent", f"renewal 6/pi^2 n^-2 classified {rep['verdict']}")

    def equilibrium(rep, r, _):
        expect(close(rep["measure_pressure"]["value"], log_rho_f, rep["spectral_pressure"]["error"] + EIG_SLACK),
               "equilibrium measure pressure misses log rho")

    def induce(rep, r, _):
        complete = all(t == "zero" for t in rep["tails"])
        counts = {int(k): v for k, v in rep["loop_counts"].items()}
        K = max(counts) if complete else 10
        expect(counts == {k: c for k, c in enumerate(r[:K], start=1) if c}, "induce loop counts")

    def magic(status):
        def checker(rep, r, _):
            expect(rep["status"] == status, f"verify-magic gave {rep['status']}, expected {status}")
        return checker

    def transport_closed(rep, r, _):
        # the self almost isomorphism moves the Parry measure onto itself
        expect(rep["method"] == "closed-form" and close(rep["entropy_out"]["value"], log_phi, REL_SLACK),
               "self-AI closed-form transport changed the entropy")

    sampling = ["transport", "--ai", ai, "--measure", parry, "--order", "2", "--samples", "100000",
                "--seed", str(d["sample_seed"])]

    def transport_sampling(rep, first, stdout):
        expect(rep["method"] == "sampling" and stdout == first[1], "seeded sampling did not reproduce byte for byte")

    def correspondence(rep, r, _):
        expect(rep["passed"] and rep["witnesses_checked"] == r, f"correspondence {rep['passed']} / {rep['witnesses_checked']} != {r}")

    def exhaustion(rep, r, _):
        within(rep["entropy"]["value"], rep["entropy"]["error"], log_phi, "golden-mean entropy")

    graph, pot = ["--shift", p["graph"]], ["--potential", p["potential"]]
    return [
        op(["entropy", *graph], 0, entropy),
        op(["pressure", *graph, "--potential", p["potential2"]], 0, pressure(log_rho_f2)),
        op(["zn", *graph, *pot, "--word", d["word"], "--nmax", "10"], 0, zn, zn_ref, exact=True),
        op(["transport", "--ai", ai, "--measure", parry, "--order", "2"], 0, transport_closed),
        op(["zeta", *graph, "--order", "8"], 0, zeta, lambda: ref.zeta_coefficients(adj, 8), exact=True),
        op(["classify", "--loops", _fixture("renewal-6pi2.json")], 0, classify),
        op(["pressure", *graph, *pot, "--method", "table", "--nmax", "12"], 0, pressure(log_rho_f)),
        op(["verify-magic", "--code", p["code"], "--word", d["magic"], "--depth", str(d["depth"])], 0,
           magic("certified"), exact=True),
        op(["zn", "--shift", p["loops"], "--nmax", "10"], 0, zn_loops, zn_ref, exact=True),
        op(sampling, 0, transport_sampling, lambda: call(sampling)),
        op(["equilibrium", *graph, *pot], 0, equilibrium),
        op(["induce", *graph, "--word", d["word"], "--maxlen", "10"], 0, induce,
           lambda: ref.first_return_counts(adj, W, 10 + 2 * adj.shape[0] + 2), exact=True),
        op(["verify-correspondence", "--ai", ai, "--potential", _fixture("gm-range1.json"),
            "--target-potential", _fixture("gm-range1-block2.json"), "--nmax", "8"], 0, correspondence,
           lambda: ref.magic_witnesses(GOLDEN_MEAN, (1, 0), 8)),
        op(["verify-magic", "--code", p["collapse"], "--word", "x", "--depth", "4"], 1, magic("refuted"), exact=True),
        op(["entropy", "--shift", _fixture("gm-exhaustion.json")], 0, exhaustion),
    ]


def cli_workload(seed: int, work: Path, subprocesses: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    return _cli_ops(_cli_documents(rng, work), subprocesses)


def build(name: str, seed: int, tiny: bool, work: Path, trace: bool) -> list[Op]:
    if name == "zn-tables":
        return zn_tables(seed, tiny)
    if name == "zn-estimates":
        return zn_tables(seed, tiny, estimate=True)
    if name == "spectral-measure":
        return spectral_measure(seed, tiny)
    if name == "induce-transport":
        return induce_transport(seed, tiny)
    # the traced run calls cli.main in-process so that its spans are visible;
    # one pass is already small, so --tiny leaves it whole
    return cli_workload(seed, work, subprocesses=not trace)
