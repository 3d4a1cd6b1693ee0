"""Partition functions, pressure, equilibrium measures, recurrence, zeta.

Conventions fixed here once and used everywhere:

* edge weights sit at the source: ``M[u, v] = A[u, v] * exp(f(u-block))``;
* potentials of span > 1 are recoded onto the higher-block graph first (after
  a Bowen reduction when they read past coordinates), which changes neither
  closed-orbit sums nor the spectral radius;
* Z_n is summed exactly as an :class:`~shiftlab.expsum.ExpSum`, a float
  weight read as its dyadic rational; :func:`bracket` rounds it outward;
* pressure and the equilibrium measure read one power iteration's Perron
  data of the edge-weighted matrix (:func:`_perron`).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Mapping, NamedTuple, Union

import numpy as np

from . import intervals as iv
from . import kernels
from .expsum import ExpSum
from .graphs import (
    DEFAULT_ENUMERATION_BUDGET,
    FiniteGraph,
    FinitePresentation,
    ExhaustionPresentation,
    Word,
    higher_block,
    irreducible_and_period,
)
from .potentials import _EPS, FiniteRangePotential, PotentialError, birkhoff_sum, bowen_reduce

if TYPE_CHECKING:  # pragma: no cover
    from .induction import LoopSystem


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested gap within its budget, or its brackets contradict."""


FloatInterval = tuple[float, float]  # (value, error bound)
ZnValue = Union[ExpSum, FloatInterval]

# The power iteration's target: relative Collatz-Wielandt gap and iteration cap.
_PERRON_TOL, _PERRON_MAX_ITER = 1e-14, 500_000


# --------------------------------------------------------------------------
# partition functions


@dataclass(frozen=True)
class PartitionFunctionTable:
    """Z_n values for one base word, with provenance.

    ``entries[n]`` is an :class:`ExpSum` when ``exact`` (rational weights)
    and a ``(value, error)`` bracket otherwise.  ``truncated_at`` marks the
    first n whose enumeration blew the budget, or for a loop system the
    first length past its explicit loops; entries stop there.
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
            raise ValueError("table holds (value, error) brackets: its weights are not all rational")
        return z

    def positive_ns(self) -> list[int]:
        return [n for n in sorted(self.entries) if self.zn_float(n) > 0]


def bracket(z: ExpSum) -> FloatInterval:
    """``(value, error)`` holding the exact sum ``z``: each term m exp(k / q) bracketed outward, then summed."""
    q = z.q
    return iv.midrad(iv.fsum(iv.mul(iv.near(m), iv.exp(iv.near(Fraction(k, q)))) for k, m in z.coeffs.items()))


def _zn_from_points(f, points, lo, hi) -> dict[int, ExpSum]:
    """Z_n for every n in [lo, hi] from ``points``, the orbit words of those periods, grouped once.

    Each class of points with the same cyclic windows adds its exact
    Birkhoff sum's numerator over the table's denominator to an :class:`ExpSum`.
    """
    classes = []
    if points:
        # An n-periodic point's n-step Birkhoff sum adds f once over each of
        # the n cyclic span-windows of its word: window k starts at letter
        # k - left mod n, and as k runs over 0..n-1 so does k - left.  So the
        # sum depends only on the multiset of those windows, for every left
        # range, and each class of points sharing one costs one Birkhoff sum.
        # Row i holds point i's windows in columns k < n_i and a sentinel past
        # them, so rows of different periods never match.  A window's id is
        # its word read as a base-V number, built one letter at a time; only
        # when the next multiply by V could pass 2^62 are the ids first
        # compressed to dense ones (np.unique), which keeps them distinct.  A
        # sorted row of ids is the multiset, and a lexicographic sort of the
        # rows groups equal ones (faster here than np.unique(..., axis=0)).
        V = f.graph.n_vertices
        periods = np.fromiter(map(len, points), np.int64, len(points))
        letters = np.fromiter(chain.from_iterable(points), np.int64, int(periods.sum()))
        row_start = (np.cumsum(periods) - periods)[:, None]
        cols = np.arange(hi)
        ids, bound = letters[row_start + cols % periods[:, None]], V  # every id is below bound
        for i in range(1, f.span):
            if bound * V > 2**62:
                ids = np.unique(ids, return_inverse=True)[1].reshape(ids.shape)
                bound = ids.size
            ids = ids * V + letters[row_start + (cols + i) % periods[:, None]]
            bound *= V
        ids[cols >= periods[:, None]] = np.iinfo(np.int64).max
        rows = np.sort(ids, axis=1)
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        starts = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1))).nonzero()[0]
        reps = order[starts]
        classes = zip(reps.tolist(), periods[reps].tolist(), np.diff(np.append(starts, len(rows))).tolist())
    q = f._integer_table[0]
    coeffs: dict[int, dict[int, int]] = {n: {} for n in range(lo, hi + 1)}
    for i, n, m in classes:
        s = birkhoff_sum(f, points[i], n)
        k = s.numerator * (q // s.denominator)
        coeffs[n][k] = coeffs[n].get(k, 0) + m
    return {n: ExpSum.from_coeffs(q, c) if c else ExpSum() for n, c in coeffs.items()}


def _keyed_up_to(graph: FiniteGraph, f: FiniteRangePotential) -> int:
    """The longest period the count-key route covers, 0 when it covers none.

    The exponent of a span-1 potential depends only on visit counts, and
    the route runs as far as their keys fit.
    """
    return kernels.max_count_key_length(graph.n_vertices) if f.span == 1 else 0


def _zn_by_counts(graph: FiniteGraph, f: FiniteRangePotential, W: Word, lo: int, hi: int, budget: int,
                  reach) -> dict[int, ExpSum]:
    """Z_n for every n in [lo, hi] from one count-key walk, grouped once by (period, numerator).

    A row's period is the sum of its visit counts, and its exponent is the
    numerator (counts . q f) over the table's denominator q.
    """
    from . import graphs as _g

    counts, mult = _g.periodic_count_exponents(graph, hi, W, budget=budget, n_min=lo, reach=reach)
    q, table = f._integer_table
    weights = [table[(v,)] for v in range(graph.n_vertices)]
    periods = counts.sum(axis=1)
    if hi * max(abs(w) for w in weights) < 2**63:
        # the numerators fit in int64: sort the rows by (period, numerator),
        # add the multiplicities of each run, and zip each period's runs
        numerators = counts @ np.array(weights, dtype=np.int64)
        order = np.lexsort((numerators, periods))
        periods, numerators, mult = periods[order], numerators[order], mult[order]
        change = (periods[1:] != periods[:-1]) | (numerators[1:] != numerators[:-1])
        starts = np.concatenate(([len(mult) > 0], change)).nonzero()[0]
        bounds = np.searchsorted(periods[starts], np.arange(lo, hi + 2)).tolist()
        numerators, mult = numerators[starts].tolist(), np.add.reduceat(mult, starts).tolist()
        return {n: ExpSum.from_coeffs(q, dict(zip(numerators[a:b], mult[a:b])))
                for n, a, b in zip(range(lo, hi + 1), bounds, bounds[1:])}
    out: dict[int, dict[int, int]] = {n: {} for n in range(lo, hi + 1)}
    numerators = counts.astype(object) @ np.array(weights, dtype=object)
    for n, k, m in zip(periods.tolist(), numerators.tolist(), mult.tolist()):
        out[n][k] = out[n].get(k, 0) + m
    return {n: ExpSum.from_coeffs(q, coeffs) for n, coeffs in out.items()}


def _zn_single(graph: FiniteGraph, f: FiniteRangePotential, W: Word, n: int, budget: int, reach) -> ExpSum:
    from . import graphs as _g

    if n <= _keyed_up_to(graph, f):
        return _zn_by_counts(graph, f, W, n, n, budget, reach)[n]
    return _zn_from_points(f, _g.enumerate_periodic(graph, n, W, budget=budget, reach=reach), n, n)[n]


def _constant_numerator(f: FiniteRangePotential) -> int | None:
    """k when every window of the table reads k / q (q its denominator), else None."""
    numerators = set(f._integer_table[1].values())
    return numerators.pop() if len(numerators) == 1 else None


def _zn_window(graph: FiniteGraph, f: FiniteRangePotential, W: Word, lo: int, hi: int, budget: int,
               reach) -> dict[int, ExpSum]:
    """Z_n for every n in [lo, hi], with lo >= max(len(W), 1) and no period's points over ``budget``.

    A constant table weighs each of the N_n points by exp(n k / q),
    and the reach table counts them, so no path is walked.  Otherwise one
    count-key walk serves the periods its keys cover, and walks of the
    points serve the rest, one per run of consecutive periods whose points
    number at most ``budget`` together, so no walk holds more points than
    one period may have (a period alone always fits).
    """
    from . import graphs as _g

    k = _constant_numerator(f)
    if k is not None:
        q = f._integer_table[0]
        counts = kernels.closed_path_counts(reach, W, lo, hi).tolist()
        return {n: ExpSum.from_coeffs(q, {n * k: c} if c else {}) for n, c in zip(range(lo, hi + 1), counts)}
    keyed_hi = min(_keyed_up_to(graph, f), hi)
    out = _zn_by_counts(graph, f, W, lo, keyed_hi, budget, reach) if lo <= keyed_hi else {}
    if keyed_hi < hi:
        # runs of consecutive periods whose points, counted before any walk, stay within the budget together
        first = max(lo, keyed_hi + 1)
        runs, held = [first], 0
        for n, c in zip(range(first, hi + 1), kernels.closed_path_counts(reach, W, first, hi).tolist()):
            if held + c > budget and n > runs[-1]:
                runs.append(n)
                held = 0
            held += c
        for a, b in zip(runs, runs[1:] + [hi + 1]):
            out.update(_zn_from_points(f, _g.enumerate_periodic(graph, b - 1, W, budget, n_min=a, reach=reach), a, b - 1))
    return out


def partition_function(
    shift,
    f: FiniteRangePotential,
    W=(),
    n_max: int = 10,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> PartitionFunctionTable:
    """Weighted counts of the n-periodic points starting with ``W``.

    ``Z_n = sum exp(f(x) + ... + f(S^{n-1} x))`` over the n-periodic points
    x whose length-n word starts with ``W``.  Every table is summed exactly
    (floats are dyadic rationals); one not all rational then brackets each
    entry once with :func:`bracket`.  The table ends before the first n with
    more than ``budget`` such points, read off the path counts of
    :func:`~shiftlab.kernels.exact_reach` before anything is walked; it is
    marked ``truncated_at`` that n.  The reach table itself stops at that n
    (:func:`~shiftlab.kernels.reach_within_budget`), so a large ``n_max``
    costs nothing past it.  ValueError when n_max < 0 or ``shift`` is
    not a graph or a presentation.  For n >= max(len(W), 1):

    * a constant table, value c, has Z_n = N_n exp(n c), with N_n the path
      count, and walks nothing (Bowen--Lanford: for the zero potential
      Z_n(()) is the trace of A^n);
    * other span-1 tables group one walk of
      :func:`~shiftlab.kernels.closed_path_count_keys` by visit counts, as
      far as its keys fit; the walk merges paths with equal counts as it
      goes, so its work follows the distinct visit-count states, not the
      points;
    * the remaining periods, and every period of a wider span, take the
      orbit words of windowed :func:`~shiftlab.graphs.enumerate_periodic`
      calls, one per run of consecutive periods whose points number at most
      ``budget`` together (one run unless the table nears the budget), each
      grouped once into classes of points with the same cyclic windows, with
      one exact :func:`~shiftlab.potentials.birkhoff_sum` per class.

    The periods shorter than W have at most one point each, found from W.
    A loop system's table is :func:`~shiftlab.induction.loop_partition_function`,
    the renewal recurrence on its first-return weights.
    """
    if n_max < 0:
        raise ValueError(f"table length n_max = {n_max} must be at least 0")
    graph = shift.graph if isinstance(shift, FinitePresentation) else shift
    if not isinstance(graph, FiniteGraph):
        raise ValueError(f"need a FiniteGraph or FinitePresentation, not {type(shift).__name__};"
                         " a loop system's table is induction.loop_partition_function")
    W = tuple(int(s) for s in W)
    truncated_at = note = None
    if not graph.is_word(W):
        warnings.warn("base word is not admissible; table is identically zero", stacklevel=2)
        entries, note = {n: ExpSum() for n in range(1, n_max + 1)}, "base word not admissible"
    else:
        lo = max(1, len(W))
        # one table serves every n; it ends at n_max or at the first length over the budget
        reach = kernels.reach_within_budget(graph.adjacency, n_max, W, lo, budget)
        hi = len(reach) - 1
        entries = {n: _zn_single(graph, f, W, n, budget, reach) for n in range(1, min(lo, hi + 1))}
        if lo <= hi:
            over = kernels.overflowing_lengths(reach, W, lo, hi, budget)
            if over.any():
                truncated_at = lo + int(np.argmax(over))
            entries.update(_zn_window(graph, f, W, lo, hi if truncated_at is None else truncated_at - 1, budget, reach))
    if truncated_at is not None:
        warnings.warn(f"enumeration budget exceeded at n={truncated_at}; partial table", stacklevel=2)
    return PartitionFunctionTable(
        base_word=W,
        exact=f.rational,
        entries=entries if f.rational else {n: bracket(z) for n, z in entries.items()},
        n_max=max(entries) if entries else 0,
        truncated_at=truncated_at,
        note=note,
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
    levels: tuple[float, ...] = ()  # an exhaustion's level pressures
    level_errors: tuple[float, ...] = ()  # and their own errors

    def __post_init__(self):
        if not math.isfinite(self.error):
            raise ValueError("error bound must be finite")


def _edge_weight_matrix(g: FiniteGraph, f: FiniteRangePotential):
    """Recode g so f reads one block, then weight edges at the source.

    Returns the block graph, the weighted matrix, the block words and the
    value of the recoded potential on each block.
    """
    if f.graph != g:
        raise PotentialError("potential is defined over a different graph")
    if f.left > 0:
        f = bowen_reduce(f)[0]
    span = f.span
    H, labeling = higher_block(g, span)
    values = [f.table[w] for w in labeling.block_words]
    M = H.adjacency.astype(np.float64) * np.exp([float(x) for x in values])[:, None]
    return H, M, labeling.block_words, values


def _period_lower_bound(M: np.ndarray, period: int) -> float:
    """(least row sum of M^p)^(1/p) for p = ``period``, a lower bound of the Perron root.

    M^p >= 0 has Perron root rho^p, at least its least row sum.  The row
    sums M^p 1 are taken by p products with M, each rescaled by its largest
    entry so that none overflows; 0 when an entry underflows.
    """
    r, log_scale = np.ones(M.shape[0]), 0.0
    for _ in range(period):
        r = M @ r
        top = float(r.max())
        if not top > 0:
            return 0.0
        r /= top
        log_scale += math.log(top)
    least = float(r.min())
    return math.exp((log_scale + math.log(least)) / period) if least > 0 else 0.0


def _power_bounds(M: np.ndarray, tol: float, max_iter: int, period: int = 1) -> tuple[float, float, int, np.ndarray]:
    """Two-sided Collatz-Wielandt bounds for the Perron root rho of M >= 0.

    For any positive v, lo = min_i (Mv/v)_i <= rho <= max_i (Mv/v)_i = hi,
    so every iterate yields rigorous bounds; we keep the best.  The iterate
    steps by M + cI, which is primitive for irreducible M, so periodic graphs
    converge too.  c is half the geometric mean of the best bracket, a
    running estimate of rho, but never above a lower bound of rho: a shift
    of the size of rho moves the other eigenvalues of modulus rho (a periodic
    spectrum) well inside the circle of radius rho + c, a shift far above rho
    would slow every step, and half costs fewer steps than the whole on
    aperiodic spectra.  The first bracket is the least and largest row sum.
    That lower bound is lo, or on a graph of ``period`` p > 1 the larger of
    lo and :func:`_period_lower_bound`: there the least row sum of M can lie
    far below rho (a cycle with weights e^-40 and e^40 has rho = 1), and lo
    would climb to rho only about twofold per step.  The period bound only
    chooses c; the returned bracket is lo and hi.  Stops when the bracket of
    M + cI is within a relative ``tol``.
    """
    floor = _period_lower_bound(M, period) if period > 1 else 0.0
    v = np.ones(M.shape[0])
    lo_best, hi_best = 0.0, math.inf
    it = 0
    for it in range(1, max_iter + 1):
        w = M @ v
        ratios = w / v
        lo_best = max(lo_best, float(ratios.min()))
        hi_best = min(hi_best, float(ratios.max()))
        lo = max(lo_best, floor)
        # (a lower bound of 0, from a row sum that underflowed, shifts by 1)
        c = min(lo, math.sqrt(lo) * math.sqrt(hi_best) / 2) or 1.0
        w += c * v
        v = w / w.sum()
        if hi_best - lo_best <= tol * (lo_best + c):
            break
    return lo_best, hi_best, it, v


class _PerronData(NamedTuple):
    graph: FiniteGraph  # the presentation's graph; the rest is _edge_weight_matrix's, then _power_bounds'
    H: FiniteGraph
    M: np.ndarray
    blocks: tuple[Word, ...]
    values: list
    lo: float
    hi: float
    iterations: int
    v: np.ndarray  # the last iterate, the right Perron vector to the gap


def _perron(g, f: FiniteRangePotential) -> _PerronData:
    """The Perron data of f's edge-weighted presentation: the one power iteration.

    Resolves the graph, decides irreducibility and the period once, and
    runs :func:`_power_bounds` at the one tolerance pair ``_PERRON_TOL``.
    """
    graph = g.graph if isinstance(g, FinitePresentation) else g
    flag, period = irreducible_and_period(graph)
    if not flag:
        raise ValueError("pressure and equilibrium measure need an irreducible graph")
    H, M, blocks, values = _edge_weight_matrix(graph, f)
    return _PerronData(graph, H, M, blocks, values, *_power_bounds(M, _PERRON_TOL, _PERRON_MAX_ITER, period))


def pressure_spectral(g, f: FiniteRangePotential) -> PressureEstimate:
    """log of the Perron root of the edge-weighted presentation (:func:`_perron`).

    The error bound is half the width of the Collatz-Wielandt bracket at the
    power iteration's last vector v: the Perron root lies between the least
    and the largest (Mv)_u / v_u, and row u of M is exp(f(u)) on the
    successors of u.  The ratios and their logs are rounded outward by
    :mod:`shiftlab.intervals`.
    """
    p = _perron(g, f)
    v = p.v.tolist()
    ratios = [
        iv.mul(iv.exp(iv.near(p.values[u])), iv.div(iv.fsum((v[s], v[s]) for s in p.H.successors(u)), (v[u], v[u])))
        for u in range(p.H.n_vertices)
    ]
    lam_lo, lam_hi = min(r[0] for r in ratios), max(r[1] for r in ratios)
    if not (lam_lo > 0):
        raise ConvergenceError("power iteration did not separate the Perron root from 0")
    value, error = iv.midrad(iv.log((lam_lo, lam_hi)))
    return PressureEstimate(value=value, method="spectral", error=error, iterations=p.iterations)


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

    ``levels`` and ``level_errors`` are each level's :func:`pressure_spectral`;
    the estimate is the top level's, and no upper bound over the exhaustion
    is claimed.  Nested levels have nondecreasing Perron roots, so a level
    bracket wholly below the previous one raises :class:`ConvergenceError`.
    """
    ests = [pressure_spectral(lv.graph, restrict_potential(f, exh.names, lv)) for lv in exh.levels]
    for k, (a, b) in enumerate(zip(ests, ests[1:]), start=1):
        if b.value + b.error < a.value - a.error:
            raise ConvergenceError(f"exhaustion level {k}'s pressure bracket lies below level {k - 1}'s")
    return replace(ests[-1], method="exhaustion-sup", levels=tuple(e.value for e in ests),
                   level_errors=tuple(e.error for e in ests))


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
        """Every admissible k-word is a block, and every state and block edge has positive mass."""
        return (set(self.blocks) == set(self.graph.words(self.order))
                and bool(np.all(self.stationary > 0) and np.all(self.transitions[self._block_edges] > 0)))

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

    The Doob transform ``P[u,v] = M[u,v] r[v] / (M r)[u]`` of the Perron data
    (:func:`_perron`), whose rows sum to 1 by construction, and ``pi`` the
    stationary vector of P.  Once the Collatz-Wielandt gap is within
    ``_PERRON_TOL`` (else :class:`ConvergenceError`), ``(M r)[u]`` is
    ``lambda r[u]`` to that tolerance, and the pressure of P is log(lambda).
    """
    p = _perron(g, f)
    if p.hi - p.lo > _PERRON_TOL * max(1.0, p.hi) * 10:
        raise ConvergenceError(
            f"power iteration gap {p.hi - p.lo:.3e} did not reach {_PERRON_TOL:.1e}"
            f" within {_PERRON_MAX_ITER} iterations"
        )
    P = p.M * p.v / (p.M @ p.v)[:, None]
    return MarkovMeasure(graph=p.graph, order=len(p.blocks[0]),
                         blocks=p.blocks, transitions=P, stationary=stationary_vector(P))


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
# recurrence classification

# A bracket of F(R) that holds 1 and lies this close to 1 reads as F(R) = 1.
# Floats cannot do better for a series that sums to 1 (fixtures/renewal-6pi2.json
# has the float F(1) = 1 + 3.9e-17), so the reading is fixed, not a parameter.
_AT_ONE = 1e-9


@dataclass(frozen=True)
class RecurrenceClass:
    """Classification of a loop system under a potential.

    ``verdict`` is one of transient / null_recurrent / positive_recurrent /
    SPR / indeterminate; SPR implies positive recurrence, as
    :attr:`positive_recurrent` says.  Diagnostics carry the bracket of
    lambda, whose midpoint is :attr:`lam`, and the brackets of F and F' at
    z = 1/lambda: over the whole root bracket for SPR, at the radius
    otherwise.
    """

    verdict: str
    lam_bounds: tuple[float, float] | None
    F_at_z: tuple[float, float] | None
    Fprime_at_z: tuple[float, float] | None
    radius: float
    detail: str = ""

    @property
    def positive_recurrent(self) -> bool:
        return self.verdict in ("SPR", "positive_recurrent")

    @property
    def lam(self) -> float | None:
        return None if self.lam_bounds is None else iv.midrad(self.lam_bounds)[0]


def recurrence_classify(loops: "LoopSystem", f=None) -> RecurrenceClass:
    """Locate the root of the first-return series F(z) = sum w_n z^n.

    The verdict is read off outward-rounded brackets of F.  SPR iff the
    lower envelope of F reaches 1 at some z below the radius R (or F(R) > 1);
    lambda is then bracketed by the roots of the two envelopes, over which F
    and F' are reported (both increase).  Transient iff the upper end of
    F(R) is below 1.  A bracket of F(R) holding 1 reads as F(R) = 1 when it
    lies within 1e-9 of 1, and then F'(R) finite is positive recurrent and
    F'(R) divergent null recurrent.  Everything else is ``indeterminate``.
    """
    from .induction import return_series  # deferred; induction depends on this module

    series = return_series(loops, f)
    R = series.radius_lower

    def spr(z_hi: float, detail: str) -> RecurrenceClass:
        z_lo = series.root_lower() or 0.0  # None: the upper envelope stays below 1 where searched
        fp_lo, fp_hi = series.Fprime(z_lo), series.Fprime(z_hi)
        return RecurrenceClass(
            verdict="SPR",
            lam_bounds=iv.div(iv.ONE, (z_lo, z_hi)),
            F_at_z=(series.F(z_lo)[0], series.F(z_hi)[1]),
            Fprime_at_z=None if fp_lo is None else (fp_lo[0], math.inf if fp_hi is None else fp_hi[1]),
            radius=R,
            detail=detail,
        )

    def at_radius(verdict: str, detail: str, F=None, Fprime=None) -> RecurrenceClass:
        return RecurrenceClass(
            verdict=verdict,
            lam_bounds=None if verdict == "indeterminate" else (1.0 / R, 1.0 / R),
            F_at_z=F,
            Fprime_at_z=Fprime,
            radius=R,
            detail=detail,
        )

    z_hi = series.root_upper()  # root of the lower envelope
    if z_hi is not None:
        return spr(z_hi, "first-return series reaches 1 strictly inside its disk of convergence")
    if not series.tail_exact:
        return at_radius("indeterminate", "tail bound too weak to evaluate F at its radius")
    F_lo, F_hi = series.F(R)
    if F_hi < 1:
        return at_radius("transient", f"F(R) <= {F_hi:.12g} < 1", (F_lo, F_hi), series.Fprime(R))
    if F_lo > 1:
        return spr(R, "F exceeds 1 before its radius")
    if F_lo < 1 - _AT_ONE or F_hi > 1 + _AT_ONE:
        return at_radius("indeterminate", f"F(R) in [{F_lo:.12g}, {F_hi:.12g}] cannot be separated from 1"
                         f" within {_AT_ONE:g}", (F_lo, F_hi))
    fp = series.Fprime(R)
    if fp is None:
        return at_radius("null_recurrent", f"F(R) = 1 within {_AT_ONE:g} and F'(R) diverges", (F_lo, F_hi))
    if fp[1] < math.inf:
        return at_radius("positive_recurrent", f"F(R) = 1 within {_AT_ONE:g} with finite F'(R)", (F_lo, F_hi), fp)
    return at_radius("indeterminate", f"F(R) = 1 within {_AT_ONE:g}, but F'(R) in [{fp[0]:.12g}, inf]"
                     " is shown neither finite nor divergent", (F_lo, F_hi), fp)


# --------------------------------------------------------------------------
# zeta series


def zeta_series(table: PartitionFunctionTable, order: int):
    """Power-series coefficients of exp(sum_n Z_n t^n / n) up to ``order``.

    Exact Fractions when every Z_n is an exact integer (zero exponents).
    Otherwise ``(value, error)`` brackets from c_k = (1/k) sum_j Z_j c_{k-j}
    in :mod:`shiftlab.intervals`, run over each Z_n's bracket (from
    :func:`bracket` for an exact entry).  The table must cover n = 1..order
    and have empty base word, since the count of all n-periodic points is
    what feeds the series.
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
        # d_k = k! c_k = sum_j Z_j (k-1)!/(k-j)! d_{k-j}, all in integers
        zs = [table.zn_exact(n).as_integer() for n in range(1, order + 1)]
        d = [1]
        for k in range(1, order + 1):
            acc, falling = 0, 1  # falling = (k-1)!/(k-j)!
            for j in range(1, k + 1):
                acc += zs[j - 1] * falling * d[k - j]
                falling *= k - j
            d.append(acc)
        return [Fraction(d_k, math.factorial(k)) for k, d_k in enumerate(d)]
    zs = []
    for n in range(1, order + 1):
        value, error = bracket(table.entries[n]) if table.exact else table.entries[n]
        zs.append((max(0.0, iv.down(value - error)), iv.up(value + error)))  # Z_n >= 0
    c = [iv.ONE]
    for k in range(1, order + 1):
        c.append(iv.div(iv.fsum(iv.mul(zs[j - 1], c[k - j]) for j in range(1, k + 1)), (float(k), float(k))))
    return [iv.midrad(x) for x in c]
