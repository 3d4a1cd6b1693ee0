"""Finite-range potentials, Bowen's reduction, and declared tail laws.

A potential is a real weight on words: it reads coordinates ``-m .. r-1``
and is stored as a table over the admissible ``(m+r)``-words.  Its
variations are then read off the table and vanish past the span, so every
potential here has summable variations.  The tail laws and
:func:`tail_sum` serve the per-length weights of declared loop systems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from . import intervals as iv
from .graphs import FiniteGraph, Word

Number = Union[Fraction, float]

_EPS = 2.2e-16  # float epsilon, twice the unit roundoff u
_TINY = math.ulp(0.0)  # the smallest subnormal


class PotentialError(ValueError):
    pass


def _is_rational(x) -> bool:
    return isinstance(x, (Fraction, int))


@dataclass(frozen=True)
class FiniteRangePotential:
    """Weight table on the (left + right)-words of a graph.

    ``left`` is the number of past coordinates read (m >= 0), ``right`` the
    number of future ones (r >= 1).  The table must cover exactly the
    admissible windows; every value is finite.
    """

    graph: FiniteGraph
    left: int
    right: int
    table: Mapping[Word, Number]

    def __post_init__(self):
        if self.left < 0 or self.right < 1:
            raise PotentialError("need left range >= 0 and right range >= 1")
        if any(len(w) != self.span for w in self.table):
            raise PotentialError(f"weight table keys must be {self.span}-words")
        want = set(self.graph.words(self.span))
        got = set(self.table)
        if want != got:
            missing = sorted(want - got)[:3]
            extra = sorted(got - want)[:3]
            raise PotentialError(
                f"weight table must cover exactly the {self.span}-words"
                f" (missing {missing}, extra {extra})"
            )
        for w, x in self.table.items():
            if not math.isfinite(float(x)):
                raise PotentialError(f"non-finite weight at {w}")
        object.__setattr__(self, "table", dict(self.table))

    @property
    def span(self) -> int:
        """Window length m + r."""
        return self.left + self.right

    @cached_property
    def rational(self) -> bool:
        return all(_is_rational(x) for x in self.table.values())

    @cached_property
    def _integer_table(self) -> tuple[int, dict[Word, int]]:
        """``(q, {w: q * f(w)})`` with q the common denominator.

        Exact for float tables too: a float is a dyadic rational, so
        ``Fraction(x)`` is its exact value.
        """
        exact = {w: Fraction(x) for w, x in self.table.items()}
        q = math.lcm(*(x.denominator for x in exact.values()))
        return q, {w: x.numerator * (q // x.denominator) for w, x in exact.items()}

    def value(self, window) -> Number:
        try:
            return self.table[tuple(window)]
        except KeyError:
            raise PotentialError(f"window {tuple(window)} is not admissible") from None

    @classmethod
    def zero(cls, graph: FiniteGraph) -> "FiniteRangePotential":
        return cls(graph, 0, 1, {(v,): Fraction(0) for v in range(graph.n_vertices)})

    @classmethod
    def from_vertex_values(cls, graph: FiniteGraph, values) -> "FiniteRangePotential":
        vals = list(values)
        if len(vals) != graph.n_vertices:
            raise PotentialError("need one value per vertex")
        return cls(graph, 0, 1, {(v,): vals[v] for v in range(graph.n_vertices)})


def birkhoff_sum(f: FiniteRangePotential, word: Word, n: int) -> Fraction:
    """f(x) + f(Sx) + ... + f(S^{n-1} x) for the periodic point x that traverses ``word``.

    Exact for every table: the sum is taken over the integer numerators of
    the table's values (floats included, each read as the dyadic rational it
    is) and divided by their common denominator once.  Raises
    :class:`PotentialError` if the orbit word is empty or leaves the table
    domain.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not f.graph.is_closed_word(word):
        raise PotentialError(f"orbit word {word} is not admissible")
    # letters -left .. n + right - 2 of the orbit, so window k is ext[k:k + span]
    span, p = f.span, len(word)
    start = -f.left % p
    ext = (word * ((start + n + span - 1) // p + 1))[start:start + n + span - 1]
    return _window_sum(f, ext, n)


def _window_sum(f: FiniteRangePotential, ext: Word, n: int) -> Fraction:
    """Exact sum of f over the first n span-windows ``ext[k:k + span]`` of an open word."""
    q, table = f._integer_table
    # window k is the k-th tuple of the zip of the span shifted slices
    return Fraction(sum(map(table.__getitem__, zip(*(ext[i:i + n] for i in range(f.span))))), q)


# --------------------------------------------------------------------------
# declared tail laws


@dataclass(frozen=True)
class ZeroTail:
    kind = "zero"
    coef = Fraction(0)

    def omega(self, n: int) -> Fraction:
        return Fraction(0)


@dataclass(frozen=True)
class GeometricTail:
    """omega_n = coef * ratio**n."""

    coef: Number
    ratio: Number
    kind = "geometric"

    def omega(self, n: int) -> Number:
        return self.coef * self.ratio**n


@dataclass(frozen=True)
class PolynomialTail:
    """omega_n = coef * n**-power."""

    coef: Number
    power: Number
    kind = "polynomial"

    def omega(self, n: int) -> float:
        return float(self.coef) * float(n) ** -float(self.power)


Tail = Union[ZeroTail, GeometricTail, PolynomialTail]


def tail_sum(tail: Tail, start: int, z: Number, d: int):
    """Bracket ``(lo, hi)`` of sum_{n > start} n^d omega_n z^(n-d), d in {0, 1}.

    The tail of F(z) = sum omega_n z^n (of F' when d = 1) for a declared
    tail law.  None when it diverges; z < 0 is a ValueError.  Exact for a
    zero tail, at z = 0 (up to the rounding of omega_1), and for a rational
    geometric tail at rational z.  A float geometric closed form is widened
    by how the exact relative error ux of x = ratio * z and the other
    roundings propagate (Higham, ch. 3), and by the subnormals an underflow
    can lose.  A polynomial tail is a partial sum plus an integral (z = 1),
    or a partial sum plus a remainder between a lower sum over a geometric
    grid and the smaller of a geometric and an integral bound (z < 1).
    """
    if z < 0:
        raise ValueError(f"tail sums are evaluated at z >= 0, got {z}")
    if tail.coef == 0:  # a ZeroTail too
        return tail.coef * 0, tail.coef * 0
    N = start
    if z == 0:
        # only n = 1 survives, in F': omega_1 = coef * ratio or coef; a float
        # omega_1 is one rounding of that, so one ulp either side holds it
        v = tail.omega(1) if d and N == 0 else tail.coef * 0
        if isinstance(v, float) and v:
            return iv.near(v)
        return v, v
    if isinstance(tail, GeometricTail):
        exact = all(_is_rational(v) for v in (tail.coef, tail.ratio, z))
        one = Fraction(1) if exact else 1.0
        c, x = tail.coef * one, tail.ratio * one * z
        if x >= 1:
            return None
        # sum_{n > N} n^d x^n = x^(N+1) ((N+1) - N x)^d / (1-x)^(d+1)
        a, lin, den = c / z**d, ((N + 1) - N * x) ** d, (1 - x) ** (d + 1)
        val = a * x ** (N + 1) * lin / den
        if exact:
            return val, val
        # ux = |x - ratio z| / (ratio z), exactly, over the integer ratios
        (n1, d1), (n2, d2), (nx, dx) = (v.as_integer_ratio() for v in (tail.ratio, z, x))
        u, ux = _EPS / 2, abs(nx * d1 * d2 - n1 * n2 * dx) / (dx * n1 * n2) if n1 * n2 else 0.0
        # through x^(N+1), each 1/(1-x), (N+1) - N x, and a few u for the rest
        rel = (N + 1) * ux + (d + 1) * x * ux / (1 - x) + d * N * x * (u + ux) + 12 * u
        if rel >= 1:
            return 0.0, math.inf
        w = rel / (1 - rel)
        # a subnormal lost by a, x^(N+1) or a product, scaled by later factors
        under = _TINY * (2 * (a + 3) * lin / den + 2)
        return max(val * (1 - w) - under, 0.0), val * (1 + w) + under
    c, q = float(tail.coef), float(tail.power)
    if z > 1.0 or (z == 1.0 and q - d <= 1.0):
        return None
    if z == 1.0:
        M = max(N + 1, 1_000_000)
        ns = np.arange(N + 1, M + 1, dtype=np.float64)
        partial = float(np.sum(c * ns ** (d - q)))
        # the rest lies between the integrals of x^(d-q) from M+1 and from M
        lo = partial + c * (M + 1) ** (1 + d - q) / (q - (1 + d))
        hi = partial + c * M ** (1 + d - q) / (q - (1 + d))
        slop = 8 * _EPS * partial * math.log2(M)
        return lo - slop, hi + slop
    M = max(N + 1, 4096)
    ns = np.arange(N + 1, M + 1, dtype=np.float64)
    partial = float(np.sum(c * ns ** (d - q) * z ** (ns - d)))
    # the rest is at most (M+1)^-q times sum_{n > M} n^d z^(n-d)
    if d:
        rem_geom = ((M + 1) * z**M * (1 - z) + z ** (M + 1)) / (1 - z) ** 2
        rem_hi = c * (M + 1) ** -q * rem_geom
    else:
        rem_hi = c * (M + 1) ** -q * z ** (M + 1) / (1.0 - z)
    if q - d > 1:
        # and at most z^(M+1-d) times the integral of c x^(d-q) from M
        rem_hi = min(rem_hi, c * z ** (M + 1 - d) * M ** (1 + d - q) / (q - 1 - d))
    # and at least a lower sum over the blocks (K_{j-1}, K_j] of the grid
    # K_j = floor(M (33/32)^j): n^(d-q) >= min(K_{j-1}^(d-q), K_j^(d-q)) there,
    # times the block's geometric sum of z^(n-d).  The grid ends once
    # z^(K_j-M) < e^-36.  A block is summed from its log, which is off by at
    # most 4 eps (its parts' sizes + 2); one with a log below -700 counts as 0.
    J = math.ceil(math.log1p(36 / ((1 - z) * M)) / math.log1p(1 / 32))
    K = np.floor(M * (33 / 32) ** np.arange(J + 1))
    log_z = math.log(z)
    parts = np.array([
        np.full(J, math.log(c)),
        np.full(J, -math.log(1 - z)),
        (d - q) * np.log(K[1:] if d < q else K[:-1]),
        (K[:-1] + 1 - d) * log_z,
        np.log(-np.expm1(np.diff(K) * log_z)),
    ])
    logs, sizes = parts.sum(axis=0), np.abs(parts).sum(axis=0)
    keep = logs > -700
    rem_lo = float(np.sum(np.exp(logs[keep]) * (1 - 4 * _EPS * (sizes[keep] + 2)))) * (1 - J * _EPS)
    slop = 8 * _EPS * (partial + rem_hi + 1e-300)
    return partial + rem_lo - slop, partial + rem_hi + slop


def bowen_reduce(
    f: FiniteRangePotential,
) -> tuple[FiniteRangePotential, FiniteRangePotential]:
    """Rewrite f as a future-only potential modulo a coboundary.

    Returns ``(g, h)`` with ``g`` depending on coordinates ``0 .. m+r-1`` and
    ``g = f + h o S - h`` exactly as word functions; ``h`` is the finite sum
    ``f + f o S + ... + f o S^{m-1}``, so the identity telescopes and every
    closed-orbit sum of ``g`` equals that of ``f``.
    """
    m, r = f.left, f.right
    g = FiniteRangePotential(f.graph, 0, m + r, dict(f.table))
    if m == 0:
        return g, FiniteRangePotential.zero(f.graph)
    h_span = 2 * m + r - 1
    h_table = {}
    for w in f.graph.words(h_span):
        acc: Number = Fraction(0) if f.rational else 0.0
        for k in range(m):
            acc = acc + f.table[w[k:k + m + r]]
        h_table[w] = acc
    h = FiniteRangePotential(f.graph, m, m + r - 1, h_table)
    return g, h
