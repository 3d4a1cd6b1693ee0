"""Partition functions, pressure, equilibrium measures, recurrence, zeta.

Conventions fixed here once and used everywhere:

* edge weights sit at the source: ``M[u, v] = A[u, v] * exp(f(u-block))``;
* potentials of span > 1 are recoded onto the higher-block graph first (after
  a Bowen reduction when they read past coordinates), which changes neither
  closed-orbit sums nor the spectral radius;
* with rational weights, partition-function entries are exact
  :class:`~shiftlab.expsum.ExpSum` values and floats appear only in reports.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

from .expsum import ExpSum
from .graphs import (
    BudgetExceededError,
    DEFAULT_ENUMERATION_BUDGET,
    FiniteGraph,
    FinitePresentation,
    ExhaustionPresentation,
    PeriodicPoint,
    Word,
    higher_block,
    irreducible_and_period,
)
from .potentials import _EPS, FiniteRangePotential, PotentialError, birkhoff_sum, bowen_reduce

if TYPE_CHECKING:  # pragma: no cover
    from .induction import LoopSystem


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested gap within its budget."""


FloatInterval = tuple[float, float]  # (value, error bound)
ZnValue = Union[ExpSum, FloatInterval]

# Power-iteration targets: relative Collatz-Wielandt gap and iteration cap.
_SPECTRAL_TOL, _SPECTRAL_MAX_ITER = 1e-13, 200_000
_MEASURE_TOL, _MEASURE_MAX_ITER = 1e-14, 500_000


# --------------------------------------------------------------------------
# partition functions


@dataclass(frozen=True)
class PartitionFunctionTable:
    """Z_n values for one base word, with provenance.

    ``entries[n]`` is an :class:`ExpSum` on the exact route or a
    ``(value, error)`` pair on the float route.  ``truncated_at`` marks the
    first n whose enumeration blew the budget; entries stop there.
    """

    base_word: Word
    exact: bool
    entries: Mapping[int, ZnValue]
    n_max: int
    truncated_at: int | None = None
    note: str | None = None

    def zn_float(self, n: int) -> float:
        z = self.entries[n]
        return z.float_value() if isinstance(z, ExpSum) else z[0]

    def zn_error(self, n: int) -> float:
        z = self.entries[n]
        return 0.0 if isinstance(z, ExpSum) else z[1]

    def zn_exact(self, n: int) -> ExpSum:
        z = self.entries[n]
        if not isinstance(z, ExpSum):
            raise ValueError("table was computed on the float route")
        return z

    def positive_ns(self) -> list[int]:
        return [n for n in sorted(self.entries) if self.zn_float(n) > 0]


def _zn_from_points(f, points, n) -> ZnValue:
    if f.rational:
        # An n-periodic point's n-step Birkhoff sum adds f once over each of
        # the n cyclic span-windows of its word: window k starts at letter
        # k - left mod n, and as k runs over 0..n-1 so does k - left.  So the
        # sum depends only on the multiset of those windows, for every left
        # range, and each group of points sharing one costs one Birkhoff sum.
        # Each window gets a dense id, built one letter at a time (ids stay
        # below k n for k points, so id * V never overflows); a sorted row of
        # ids is the multiset, and a lexicographic sort of the rows groups
        # equal ones (faster here than np.unique(..., axis=0)).
        sums: Counter = Counter()
        if points:
            words = np.array([x.word for x in points], dtype=np.int64)
            ids = words
            for i in range(1, f.span):
                _, ids = np.unique(ids * f.graph.n_vertices + np.roll(words, -i, axis=1), return_inverse=True)
                ids = ids.reshape(words.shape)
            rows = np.sort(ids, axis=1)
            order = np.lexsort(rows.T[::-1])
            rows = rows[order]
            starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
            sizes = np.diff(np.r_[starts, len(rows)])
            for i, m in zip(order[starts].tolist(), sizes.tolist()):
                sums[birkhoff_sum(f, points[i], n)] += m
        return ExpSum(sums)
    vals = [birkhoff_sum(f, x, n) for x in points]
    total = math.fsum(math.exp(v) for v in vals)
    # Each float Birkhoff sum adds n table values left to right, so it is off
    # by at most delta = gamma_n * n * max|f| (Higham, Accuracy and Stability
    # of Numerical Algorithms, secs. 3.1 and 4.2; gamma_n rather than
    # gamma_{n-1} also covers rational entries rounded to float), which exp
    # turns into a relative error of at most expm1(delta).  The second term
    # covers the rounding of exp itself and of the fsum, the third exp
    # results that underflow.
    u = _EPS / 2
    delta = n * u / (1 - n * u) * n * max(abs(float(v)) for v in f.table.values())
    if delta >= 709.0:
        return (total, math.inf)
    err = total * (math.expm1(delta) + _EPS * (8 + math.log2(len(vals) + 1)))
    return (total, err + 2 * len(vals) * math.ulp(0.0))


def _zn_single(graph: FiniteGraph, f: FiniteRangePotential, W: Word, n: int, budget: int) -> ZnValue:
    from . import graphs as _g

    if n < len(W):
        pts = _g.enumerate_periodic(graph, n, W, budget=budget)
        return _zn_from_points(f, pts, n)
    if f.rational and f.span == 1 and graph.n_vertices <= 15 and n <= 15:
        # aggregate by visit counts; the exponent only depends on them
        counts, mult = _g.periodic_count_exponents(graph, n, W, budget=budget)
        q, table = f._integer_table
        weights = [table[(v,)] for v in range(graph.n_vertices)]
        # exponent numerators over q; int64 holds them unless the table's
        # numerators are huge, and then numpy works on Python integers
        dtype = np.int64 if n * max(abs(w) for w in weights) < 2**63 else object
        numerators = counts.astype(dtype) @ np.array(weights, dtype=dtype)
        exps, inverse = np.unique(numerators, return_inverse=True)
        totals = np.zeros(len(exps), dtype=np.int64)
        np.add.at(totals, inverse, mult)
        # the exponents are distinct and the multiplicities positive, so the
        # terms go in as they are, without one add_term per term
        out = ExpSum()
        out.terms = {Fraction(e, q): m for e, m in zip(exps.tolist(), totals.tolist())}
        return out
    pts = _g.enumerate_periodic(graph, n, W, budget=budget)
    return _zn_from_points(f, pts, n)


def partition_function(
    shift,
    f: FiniteRangePotential,
    W=(),
    n_max: int = 10,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> PartitionFunctionTable:
    """Weighted counts of the n-periodic points starting with ``W``.

    ``Z_n = sum exp(f(x) + ... + f(S^{n-1} x))`` over the points enumerated
    by :func:`~shiftlab.graphs.enumerate_periodic`.  Exact when the weight
    table is rational.  Loop-system presentations are delegated to the
    renewal recurrence on their first-return weights.
    """
    from .induction import LoopSystem  # local import; induction builds on this module

    if isinstance(shift, LoopSystem):
        from .induction import loop_partition_function

        return loop_partition_function(shift, f, n_max)
    graph = shift.graph if isinstance(shift, FinitePresentation) else shift
    W = tuple(int(s) for s in W)
    if not graph.is_word(W):
        warnings.warn("base word is not admissible; table is identically zero", stacklevel=2)
        zero = ExpSum() if f.rational else (0.0, 0.0)
        return PartitionFunctionTable(W, f.rational, {n: zero for n in range(1, n_max + 1)},
                                      n_max, note="base word not admissible")
    entries: dict[int, ZnValue] = {}
    truncated_at = None
    for n in range(1, n_max + 1):
        try:
            entries[n] = _zn_single(graph, f, W, n, budget)
        except BudgetExceededError:
            truncated_at = n
            break
    if truncated_at is not None:
        warnings.warn(f"enumeration budget exceeded at n={truncated_at}; partial table", stacklevel=2)
    return PartitionFunctionTable(
        base_word=W,
        exact=f.rational,
        entries=entries,
        n_max=max(entries) if entries else 0,
        truncated_at=truncated_at,
    )


def export_zn_csv(table: PartitionFunctionTable, pressure: float) -> str:
    """CSV with columns n, Z_n, and the ratio Z_n * exp(-n * pressure)."""
    lines = ["n,Z_n,ratio"]
    for n in sorted(table.entries):
        z = table.zn_float(n)
        lines.append(f"{n},{z!r},{z * math.exp(-n * pressure)!r}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# pressure


@dataclass(frozen=True)
class PressureEstimate:
    value: float
    method: str  # spectral | Z-extrapolation | exhaustion-sup
    error: float
    iterations: int = 0
    levels: tuple[float, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.error):
            raise ValueError("error bound must be finite")


def _edge_weight_matrix(g: FiniteGraph, f: FiniteRangePotential) -> tuple[FiniteGraph, np.ndarray, tuple[Word, ...]]:
    """Recode g so f reads one block, then weight edges at the source."""
    if f.graph != g:
        raise PotentialError("potential is defined over a different graph")
    if f.left > 0:
        f = bowen_reduce(f)[0]
    span = f.span
    H, labeling = higher_block(g, span)
    weights = np.array([float(f.table[w]) for w in labeling.block_words])
    M = H.adjacency.astype(np.float64) * np.exp(weights)[:, None]
    return H, M, labeling.block_words


def _power_bounds(M: np.ndarray, tol: float, max_iter: int) -> tuple[float, float, int, np.ndarray]:
    """Two-sided Collatz-Wielandt bounds for the Perron root of M >= 0.

    Iterates on M + I (primitive for irreducible M) so periodic graphs
    converge too.  For any positive v, min_i (Bv/v)_i <= rho(B) <= max_i,
    so every iterate yields rigorous bounds; we keep the best.
    """
    n = M.shape[0]
    B = M + np.eye(n)
    v = np.ones(n)
    lo_best, hi_best = 0.0, math.inf
    it = 0
    for it in range(1, max_iter + 1):
        w = B @ v
        ratios = w / v
        lo_best = max(lo_best, float(ratios.min()))
        hi_best = min(hi_best, float(ratios.max()))
        v = w / w.sum()
        if hi_best - lo_best <= tol * max(1.0, lo_best):
            break
    return lo_best - 1.0, hi_best - 1.0, it, v


def pressure_spectral(g, f: FiniteRangePotential) -> PressureEstimate:
    """log of the Perron root of the edge-weighted presentation.

    The error bound is half the width of the Collatz-Wielandt bracket, which
    is rigorous up to float rounding at every iteration.
    """
    graph = g.graph if isinstance(g, FinitePresentation) else g
    flag, _ = irreducible_and_period(graph)
    if not flag:
        raise ValueError("pressure_spectral needs an irreducible graph")
    _, M, _ = _edge_weight_matrix(graph, f)
    lam_lo, lam_hi, it, _ = _power_bounds(M, _SPECTRAL_TOL, _SPECTRAL_MAX_ITER)
    if not (lam_lo > 0):
        raise ConvergenceError("power iteration did not separate the Perron root from 0")
    lo, hi = math.log(lam_lo), math.log(lam_hi)
    return PressureEstimate(
        value=0.5 * (lo + hi),
        method="spectral",
        error=0.5 * (hi - lo) + 4 * _EPS,
        iterations=it,
    )


def pressure_from_table(table: PartitionFunctionTable, period: int = 1) -> PressureEstimate:
    """Aitken-accelerated limit of (1/n) log Z_n along the admissible residues.

    Z_n vanishes off multiples of the period, so the sequence is read along
    that class.  The error is a heuristic estimate, not a bound: it is
    anchored by the increment estimator ``(log Z_{n+d} - log Z_n)/d`` and a
    geometric extrapolation of its own drift, and it misses the true
    pressure on about 1% of random tables (ROADMAP item 2).
    """
    ns = [n for n in table.positive_ns() if n % period == 0]
    if len(ns) < 6:
        raise ValueError("need at least 6 positive entries along the residue class")
    logz = [table.zn_float(n) for n in ns]
    logz = [math.log(z) for z in logz]
    s = [lz / n for n, lz in zip(ns, logz)]

    scale = max(abs(x) for x in s) or 1.0
    floor = 64 * _EPS * scale
    stages = [s]
    while True:
        cur = stages[-1]
        if len(cur) < 3:
            break
        nxt = []
        noisy = False
        for i in range(len(cur) - 2):
            d1 = cur[i + 1] - cur[i]
            d2 = cur[i + 2] - cur[i + 1]
            den = d2 - d1
            if abs(den) <= floor:
                noisy = True
                break
            nxt.append(cur[i + 2] - d2 * d2 / den)
        if noisy or not nxt:
            break
        stages.append(nxt)
    value = stages[-1][-1]
    within = abs(stages[-1][-1] - stages[-1][-2]) if len(stages[-1]) >= 2 else 0.0
    cross = abs(value - stages[-2][-1]) if len(stages) > 1 else 0.0

    q = [(logz[i + 1] - logz[i]) / (ns[i + 1] - ns[i]) for i in range(len(ns) - 1)]
    d1, d2 = abs(q[-1] - q[-2]), abs(q[-2] - q[-3])
    if d1 == 0.0:
        geo = 0.0
    elif d2 <= d1 or (d1 / d2) > 0.99:
        geo = 100.0 * d1
    else:
        r = d1 / d2
        geo = d1 * r / (1.0 - r)
    err = 3.0 * max(within, cross, abs(value - q[-1]), d1, geo) + 16 * _EPS * scale
    return PressureEstimate(value=value, method="Z-extrapolation", error=err,
                            iterations=len(stages) - 1)


def pressure_exhaustion(exh: ExhaustionPresentation, f: FiniteRangePotential) -> PressureEstimate:
    """Supremum of the level pressures; a lower estimate of the shift pressure.

    Level values are nondecreasing (submatrix monotonicity of Perron roots);
    the reported error is the spectral error of the last level, and the level
    trace documents that no upper bound over the exhaustion is claimed.
    """
    values: list[float] = []
    last: PressureEstimate | None = None
    for lv in exh.levels:
        sub_f = restrict_potential(f, exh.names, lv)
        last = pressure_spectral(lv.graph, sub_f)
        values.append(last.value)
    assert last is not None
    for a, b in zip(values, values[1:]):
        if b < a - 1e-9:
            raise ValueError("exhaustion pressures failed to be nondecreasing")
    return PressureEstimate(
        value=last.value,
        method="exhaustion-sup",
        error=last.error,
        iterations=last.iterations,
        levels=tuple(values),
    )


def restrict_potential(f: FiniteRangePotential, ambient_names, level) -> FiniteRangePotential:
    """Restrict an ambient word table to an exhaustion level's subgraph."""
    if f.graph.names != tuple(ambient_names):
        raise PotentialError("potential alphabet does not match the exhaustion")
    ids = level.vertex_ids
    table = {}
    for w in level.graph.words(f.span):
        amb = tuple(ids[s] for s in w)
        table[w] = f.table[amb]
    return FiniteRangePotential(level.graph, f.left, f.right, table)


# --------------------------------------------------------------------------
# Markov measures


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary k-block Markov measure on a presentation.

    ``blocks`` are the admissible k-words (vertices of the k-block graph),
    ``transitions`` a stochastic matrix supported on the block edges, and
    ``stationary`` its stationary row vector.
    """

    graph: FiniteGraph
    order: int
    blocks: tuple[Word, ...]
    transitions: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        P, pi = self.transitions, self.stationary
        if self.order < 1:
            raise ValueError(f"measure order must be at least 1, got {self.order}")
        if any(len(w) != self.order or not self.graph.is_word(w) for w in self.blocks):
            raise ValueError(f"every block must be an admissible word of length {self.order}")
        if P.shape != (len(self.blocks), len(self.blocks)):
            raise ValueError("transition matrix shape mismatch")
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(pi))):
            raise ValueError("transition and stationary entries must be finite")
        if np.any(P < 0) or np.any(pi < 0):
            raise ValueError("negative probabilities")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("rows must sum to 1 within 1e-12")
        if np.max(np.abs(pi @ P - pi)) > 1e-12:
            raise ValueError("stationary vector must satisfy pi P = pi within 1e-12")
        if np.any((P > 0) & ~self._block_edges):
            raise ValueError("transition supported outside the admissible block edges")

    @cached_property
    def block_index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.blocks)}

    @cached_property
    def _block_edges(self) -> np.ndarray:
        """Boolean mask of the block edges w -> w[1:] + (s,) among ``blocks``."""
        idx = self.block_index
        mask = np.zeros((len(self.blocks),) * 2, dtype=bool)
        for i, w in enumerate(self.blocks):
            for s in self.graph.successors(w[-1]):
                j = idx.get(w[1:] + (int(s),))
                if j is not None:
                    mask[i, j] = True
        return mask

    def entropy(self) -> float:
        P, pi = self.transitions, self.stationary
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
        return float(-(pi @ plogp.sum(axis=1)))

    def fully_supported(self) -> bool:
        return bool(np.all(self.stationary > 0) and np.all(self.transitions[self._block_edges] > 0))

    def word_distribution(self, length: int) -> dict[Word, float]:
        """Marginal of the measure on admissible words of the given length."""
        k = self.order
        idx = self.block_index
        if length <= k:
            out: dict[Word, float] = {}
            for i, w in enumerate(self.blocks):
                key = w[:length]
                out[key] = out.get(key, 0.0) + float(self.stationary[i])
            return out
        # extend with the chain, one letter at a time
        dist: dict[Word, float] = {w: float(self.stationary[i]) for i, w in enumerate(self.blocks)}
        while len(next(iter(dist))) < length:
            nxt: dict[Word, float] = {}
            for w, prob in dist.items():
                if prob == 0.0:
                    continue
                tail_block = w[-k:]
                i = idx[tail_block]
                for j in np.nonzero(self.transitions[i] > 0)[0]:
                    step = self.blocks[j]
                    nxt[w + (step[-1],)] = nxt.get(w + (step[-1],), 0.0) + prob * float(
                        self.transitions[i, j]
                    )
            dist = nxt
        return dist


def stationary_vector(P: np.ndarray) -> np.ndarray:
    """The stationary row vector of the stochastic matrix P, by one linear solve.

    Solves ``pi (P - I) = 0`` with its last equation replaced by
    ``sum(pi) = 1``, which has a unique solution iff P has one recurrent
    class.  Rounding negatives are clamped at 0 and the vector renormalised.
    Raises ValueError when the system is singular.
    """
    A = P.T - np.eye(P.shape[0])
    A[-1, :] = 1.0
    b = np.zeros(P.shape[0])
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        pi = np.zeros(0)
    pi = np.maximum(pi, 0.0)
    if not 0.0 < pi.sum() < math.inf:
        raise ValueError("stationary system is singular: no unique stationary vector")
    return pi / pi.sum()


def equilibrium_measure(g, f: FiniteRangePotential) -> MarkovMeasure:
    """The Markov measure maximizing entropy + integral of f.

    Built from the Perron data of the edge-weighted matrix:
    ``P[u,v] = M[u,v] r[v] / (lambda r[u])`` with ``r`` the right Perron
    vector, and ``pi`` the stationary vector of P; its pressure equals
    log(lambda).
    """
    graph = g.graph if isinstance(g, FinitePresentation) else g
    flag, _ = irreducible_and_period(graph)
    if not flag:
        raise ValueError("equilibrium_measure needs an irreducible graph")
    H, M, blocks = _edge_weight_matrix(graph, f)
    lam_lo, lam_hi, _, r = _power_bounds(M, _MEASURE_TOL, _MEASURE_MAX_ITER)
    if lam_hi - lam_lo > _MEASURE_TOL * max(1.0, lam_hi) * 10:
        raise ConvergenceError(
            f"power iteration gap {lam_hi - lam_lo:.3e} did not reach {_MEASURE_TOL:.1e}"
            f" within {_MEASURE_MAX_ITER} iterations"
        )
    lam = 0.5 * (lam_lo + lam_hi)
    P = M * r[None, :] / (lam * r[:, None])
    P[~H.adjacency] = 0.0
    rowsums = P.sum(axis=1)
    if np.max(np.abs(rowsums - 1.0)) > 1e-9:
        raise ConvergenceError("transition rows failed to normalize (non-converged Perron data)")
    P = P / rowsums[:, None]
    return MarkovMeasure(graph=graph, order=len(blocks[0]),
                         blocks=blocks, transitions=P, stationary=stationary_vector(P))


def measure_pressure(mu: MarkovMeasure, f: FiniteRangePotential) -> float:
    """h_mu + integral of f, via the k-block marginals of mu.

    Requires the span of f to fit in k+1 coordinates (support/range match).
    """
    if f.graph != mu.graph:
        raise PotentialError("measure and potential live on different presentations")
    if f.span > mu.order + 1:
        raise PotentialError(
            f"potential reads {f.span} coordinates; measure of order {mu.order} resolves at most {mu.order + 1}"
        )
    marg = mu.word_distribution(f.span)
    integral = math.fsum(prob * float(f.table[w]) for w, prob in marg.items())
    return mu.entropy() + integral


# --------------------------------------------------------------------------
# positive recurrence witness and recurrence classification


@dataclass(frozen=True)
class PositiveRecurrenceWitness:
    verdict: str  # stable | decaying | growing
    ratio_min: float
    ratio_max: float
    window: tuple[int, int]
    slope: float
    disclaimer: str = "finite-window witness over the computed table, not a proof"


def positive_recurrence_test(
    table: PartitionFunctionTable,
    pressure: float,
    slope_tol: float = 0.01,
) -> PositiveRecurrenceWitness:
    """Inspect Z_n e^{-nP} over the table window.

    Verdict is a heuristic reading of the log-ratio trend: ``stable`` when
    flat to ``slope_tol`` per step, otherwise decaying/growing.
    """
    ns = table.positive_ns()
    if not ns or ns[-1] - ns[0] < 8:
        raise ValueError("table too short: need n_max at least 8 beyond the first positive entry")
    ratios = [table.zn_float(n) * math.exp(-n * pressure) for n in ns]
    logr = [math.log(x) for x in ratios]
    slope = (logr[-1] - logr[0]) / (ns[-1] - ns[0])
    if abs(slope) <= slope_tol:
        verdict = "stable"
    elif slope < 0:
        verdict = "decaying"
    else:
        verdict = "growing"
    return PositiveRecurrenceWitness(
        verdict=verdict,
        ratio_min=min(ratios),
        ratio_max=max(ratios),
        window=(ns[0], ns[-1]),
        slope=slope,
    )


@dataclass(frozen=True)
class RecurrenceClass:
    """Classification of a loop system under a potential.

    ``verdict`` is one of transient / null_recurrent / positive_recurrent /
    SPR / indeterminate; SPR implies positive recurrence, recorded in
    ``positive_recurrent``.  Diagnostics carry lambda and the F, F' values at
    z = 1/lambda with their rigorous bounds.
    """

    verdict: str
    positive_recurrent: bool
    lam: float | None
    lam_bounds: tuple[float, float] | None
    F_at_z: tuple[float, float] | None
    Fprime_at_z: tuple[float, float] | None
    radius: float
    detail: str = ""


def recurrence_classify(loops: "LoopSystem", f=None, atol: float = 1e-9) -> RecurrenceClass:
    """Locate the root of the first-return series F(z) = sum w_n z^n.

    Root strictly inside the radius of convergence: SPR.  At the boundary,
    F(R) = 1 with F'(R) finite: positive recurrent; with F'(R) infinite:
    null recurrent.  F(R) < 1: transient.  If the tail bounds cannot
    separate the cases at ``atol`` the verdict is ``indeterminate``.
    """
    from .induction import return_series  # deferred; induction depends on this module

    series = return_series(loops, f)
    R = series.radius_lower
    z_hi = series.root_upper()  # root of the lower envelope
    z_lo = series.root_lower()  # root of the upper envelope

    def spr(detail: str) -> RecurrenceClass:
        lam_lo, lam_hi = 1.0 / (z_hi or R), 1.0 / max(z_lo or 0.0, 1e-300)
        lam = 0.5 * (lam_lo + lam_hi)
        return RecurrenceClass(
            verdict="SPR",
            positive_recurrent=True,
            lam=lam,
            lam_bounds=(lam_lo, lam_hi),
            F_at_z=series.F(1.0 / lam),
            Fprime_at_z=series.Fprime(1.0 / lam),
            radius=R,
            detail=detail,
        )

    if z_hi is not None and z_hi < R * (1 - 1e-12):
        return spr("first-return series reaches 1 strictly inside its disk of convergence")
    if not series.tail_exact:
        return RecurrenceClass(
            verdict="indeterminate",
            positive_recurrent=False,
            lam=None,
            lam_bounds=None,
            F_at_z=None,
            Fprime_at_z=None,
            radius=R,
            detail="tail bound too weak to evaluate F at its radius",
        )
    F_lo, F_hi = series.F(R)
    if F_hi < 1 - atol:
        return RecurrenceClass(
            verdict="transient",
            positive_recurrent=False,
            lam=1.0 / R,
            lam_bounds=(1.0 / R, 1.0 / R),
            F_at_z=(F_lo, F_hi),
            Fprime_at_z=series.Fprime(R),
            radius=R,
            detail=f"F(R) <= {F_hi:.12g} < 1",
        )
    if F_lo > 1 + atol:
        # the root lies strictly inside; the bisections above bracket it
        return spr("F exceeds 1 before its radius")
    fp, detail = None, f"F(R) in [{F_lo:.12g}, {F_hi:.12g}] cannot be separated from 1 at {atol:g}"
    if F_lo >= 1 - atol and F_hi <= 1 + atol:
        fp = series.Fprime(R)
        if fp is None or fp[1] < math.inf:
            return RecurrenceClass(
                verdict="null_recurrent" if fp is None else "positive_recurrent",
                positive_recurrent=fp is not None,
                lam=1.0 / R,
                lam_bounds=(1.0 / R, 1.0 / R),
                F_at_z=(F_lo, F_hi),
                Fprime_at_z=fp,
                radius=R,
                detail="F(R) = 1 within tolerance and F'(R) diverges" if fp is None
                else "F(R) = 1 within tolerance with finite F'(R)",
            )
        detail = f"F(R) = 1 within tolerance, but F'(R) in [{fp[0]:.12g}, inf] is shown neither finite nor divergent"
    return RecurrenceClass(
        verdict="indeterminate",
        positive_recurrent=False,
        lam=None,
        lam_bounds=None,
        F_at_z=(F_lo, F_hi),
        Fprime_at_z=fp,
        radius=R,
        detail=detail,
    )


# --------------------------------------------------------------------------
# zeta series


def zeta_series(table: PartitionFunctionTable, order: int):
    """Power-series coefficients of exp(sum_n Z_n t^n / n) up to ``order``.

    Exact Fractions when every Z_n is an exact integer (zero exponents),
    floats otherwise.  The table must cover n = 1..order and have empty base
    word, since the count of all n-periodic points is what feeds the series.
    """
    if table.base_word != ():
        raise ValueError("zeta series needs the empty base word")
    missing = [n for n in range(1, order + 1) if n not in table.entries]
    if missing:
        raise ValueError(f"table is missing entries for n = {missing}")
    exact = table.exact and all(
        table.zn_exact(n).is_integer() for n in range(1, order + 1)
    )
    if exact:
        zs = [Fraction(table.zn_exact(n).as_integer()) for n in range(1, order + 1)]
        coeffs = [Fraction(1)]
        for k in range(1, order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += zs[j - 1] * coeffs[k - j]
            coeffs.append(acc / k)
        return coeffs
    zs_f = [table.zn_float(n) for n in range(1, order + 1)]
    coeffs_f = [1.0]
    for k in range(1, order + 1):
        coeffs_f.append(math.fsum(zs_f[j - 1] * coeffs_f[k - j] for j in range(1, k + 1)) / k)
    return coeffs_f


# --------------------------------------------------------------------------
# distortion


@dataclass(frozen=True)
class DistortionReport:
    value: float
    theoretical_bound: float
    witness: tuple[Word, Word, int] | None
    pairs_checked: int


def distortion_constant(
    g,
    f: FiniteRangePotential,
    W,
    horizon: int,
) -> DistortionReport:
    """Largest Birkhoff-sum discrepancy over matching windows framed by W.

    For each n <= horizon, points agreeing on an n-window that starts and
    ends with W can differ in S_n f only through the coordinates a span-wide
    potential reads past the window; the sup and the a-priori bound
    ``(m + r - 1) * osc(f)`` are both reported.  Pairs are realized by
    enumerating admissible surroundings of each window.
    """
    graph = g.graph if isinstance(g, FinitePresentation) else g
    W = tuple(int(s) for s in W)
    if not graph.is_word(W):
        raise ValueError("W must be an admissible word")
    m, r = f.left, f.right
    best = 0.0
    witness = None
    pairs = 0
    n_windows = 0
    for n in range(max(len(W), 1), horizon + 1):
        ext_len = m + n + r - 1
        groups: dict[Word, list[tuple[float, Word]]] = {}
        for e in graph.words(ext_len):
            core = e[m:m + n]
            if core[: len(W)] != W or core[n - len(W):] != W:
                continue
            s = math.fsum(float(f.table[e[k:k + m + r]]) for k in range(n))
            groups.setdefault(core, []).append((s, e))
        n_windows += len(groups)
        for core, vals in groups.items():
            if len(vals) < 2:
                continue
            pairs += len(vals) * (len(vals) - 1) // 2
            smax = max(vals)
            smin = min(vals)
            if smax[0] - smin[0] > best:
                best = smax[0] - smin[0]
                witness = (smax[1], smin[1], n)
    if n_windows == 0:
        warnings.warn("no qualifying windows below the horizon", stacklevel=2)
    return DistortionReport(
        value=best,
        theoretical_bound=(m + r - 1) * f.oscillation,
        witness=witness,
        pairs_checked=pairs,
    )
