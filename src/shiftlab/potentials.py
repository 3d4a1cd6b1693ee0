"""Finite-range potentials, regularity certificates, and Bowen's reduction.

A potential is a real weight on words: it reads coordinates ``-m .. r-1``
and is stored as a table over the admissible ``(m+r)``-words.  Regularity
beyond finite range is carried by a separate oscillation certificate (an
omega sequence with an evaluable tail), never synthesized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Union

from .graphs import FiniteGraph, PeriodicPoint, Word

Number = Union[Fraction, float]


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
        """``(q, {w: q * f(w)})`` with q the common denominator (rational tables)."""
        q = math.lcm(*(x.denominator for x in self.table.values()))
        return q, {w: x.numerator * (q // x.denominator) for w, x in self.table.items()}

    @property
    def sup_value(self) -> float:
        return max(float(x) for x in self.table.values())

    @property
    def oscillation(self) -> float:
        vals = [float(x) for x in self.table.values()]
        return max(vals) - min(vals)

    @property
    def future_only(self) -> bool:
        return self.left == 0

    def value(self, window) -> Number:
        try:
            return self.table[tuple(window)]
        except KeyError:
            raise PotentialError(f"window {tuple(window)} is not admissible") from None

    def value_at(self, x: PeriodicPoint, k: int) -> Number:
        """f(S^k x): the window is read cyclically around the orbit word."""
        return self.value(tuple(x.letter(k - self.left + i) for i in range(self.span)))

    @classmethod
    def zero(cls, graph: FiniteGraph) -> "FiniteRangePotential":
        return cls(graph, 0, 1, {(v,): Fraction(0) for v in range(graph.n_vertices)})

    @classmethod
    def from_vertex_values(cls, graph: FiniteGraph, values) -> "FiniteRangePotential":
        vals = list(values)
        if len(vals) != graph.n_vertices:
            raise PotentialError("need one value per vertex")
        return cls(graph, 0, 1, {(v,): vals[v] for v in range(graph.n_vertices)})


def birkhoff_sum(f: FiniteRangePotential, x: PeriodicPoint, n: int) -> Number:
    """f(x) + f(Sx) + ... + f(S^{n-1} x) along the closed orbit word.

    Exact (Fraction) whenever the table is rational: the sum is taken over
    integer numerators and divided by the common denominator once.  Float
    tables are summed left to right.  Raises :class:`PotentialError` if the
    orbit word leaves the table domain.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    word, p = x.word, len(x.word)
    for i in range(p):
        if not f.graph.has_edge(word[i], word[(i + 1) % p]):
            raise PotentialError(f"orbit word {word} is not admissible")
    # letters -left .. n + right - 2 of the orbit, so window k is ext[k:k + span]
    span = f.span
    start = -f.left % p
    ext = (word * ((start + n + span - 1) // p + 1))[start:start + n + span - 1]
    if f.rational:
        q, table = f._integer_table
        return Fraction(sum(table[ext[k:k + span]] for k in range(n)), q)
    total = 0.0
    for k in range(n):
        total = total + f.table[ext[k:k + span]]
    return total


# --------------------------------------------------------------------------
# oscillation certificates


@dataclass(frozen=True)
class ZeroTail:
    kind = "zero"

    def omega(self, n: int) -> Fraction:
        return Fraction(0)


@dataclass(frozen=True)
class GeometricTail:
    """omega_n = coef * ratio**n for n past the explicit prefix."""

    coef: Number
    ratio: Number
    kind = "geometric"

    def omega(self, n: int) -> Number:
        return self.coef * self.ratio**n


@dataclass(frozen=True)
class PolynomialTail:
    """omega_n = coef * (n + shift)**-power."""

    coef: Number
    power: Number
    shift: int = 0
    kind = "polynomial"

    def omega(self, n: int) -> float:
        return float(self.coef) * float(n + self.shift) ** -float(self.power)


Tail = Union[ZeroTail, GeometricTail, PolynomialTail]


@dataclass(frozen=True)
class VariationCertificate:
    """A claimed oscillation bound: omega_1 >= omega_2 >= ... with a tail law.

    ``prefix`` lists omega_1 .. omega_{n0} explicitly; ``tail`` covers all
    n > n0.  ``words`` is the finite family the bound is relative to (None
    means: relative to the whole alphabet).
    """

    prefix: tuple[Number, ...]
    tail: Tail
    p: int
    words: tuple[Word, ...] | None = None

    def __post_init__(self):
        if self.p < 0:
            raise PotentialError("p must be >= 0")
        seq = [float(x) for x in self.prefix]
        if any(x < 0 for x in seq):
            raise PotentialError("omega values must be nonnegative")
        if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            raise PotentialError("omega must be nonincreasing")
        n0 = len(self.prefix)
        if isinstance(self.tail, GeometricTail):
            if float(self.tail.coef) < 0 or float(self.tail.ratio) < 0:
                raise PotentialError("geometric tail needs nonnegative coef and ratio")
        if isinstance(self.tail, PolynomialTail):
            if float(self.tail.coef) < 0 or float(self.tail.power) <= 0 or self.tail.shift < 0:
                raise PotentialError("polynomial tail needs coef >= 0, power > 0, shift >= 0")
        if seq and float(self.tail.omega(n0 + 1)) > seq[-1] + 1e-15:
            raise PotentialError("tail must continue nonincreasingly from the prefix")

    @property
    def n0(self) -> int:
        return len(self.prefix)

    def omega(self, n: int) -> Number:
        if n < 1:
            raise ValueError("omega is indexed from 1")
        if n <= self.n0:
            return self.prefix[n - 1]
        return self.tail.omega(n)


@dataclass(frozen=True)
class CertificateCheck:
    accept: bool
    value: float
    error: float
    exact: bool
    witness: str | None = None


def _geometric_weighted_tail(coef, ratio, p: int, n0: int):
    """sum_{n > n0} n^p coef ratio^n, exact for p in {0, 1}; None if divergent."""
    if float(coef) == 0:
        return Fraction(0) if _is_rational(coef) else 0.0
    if float(ratio) >= 1:
        return None
    one = Fraction(1) if (_is_rational(coef) and _is_rational(ratio)) else 1.0
    c, rho = coef * one, ratio * one
    N = n0 + 1
    if p == 0:
        return c * rho**N / (1 - rho)
    if p == 1:
        # sum_{n >= N} n rho^n = rho^N (N - (N-1) rho) / (1-rho)^2
        return c * rho**N * (N - (N - 1) * rho) / (1 - rho) ** 2
    # p >= 2: ratio test bound; terms decrease once n > p / log(1/rho)
    fr = float(rho)
    start = max(N, int(p / -math.log(fr)) + 1)
    head = sum(float(c) * n**p * fr**n for n in range(N, start))
    q = fr * ((start + 1) / start) ** p
    if q >= 1:
        return None
    return head + float(c) * start**p * fr**start / (1 - q)


def check_variation_certificate(cert: VariationCertificate) -> CertificateCheck:
    """Decide whether sum n^p omega_n provably converges, and bound its value.

    Exact (zero-width) when the data is rational and the tail sums in closed
    form; otherwise the value carries an interval from integral comparison.
    """
    p = cert.p
    rational = all(_is_rational(x) for x in cert.prefix)
    head: Number = Fraction(0) if rational else 0.0
    for n, w in enumerate(cert.prefix, start=1):
        head = head + (n**p) * w

    t = cert.tail
    if isinstance(t, ZeroTail):
        total = head
        exact = _is_rational(total)
        return CertificateCheck(True, float(total), 0.0, exact)
    if isinstance(t, GeometricTail):
        tail_sum = _geometric_weighted_tail(t.coef, t.ratio, p, cert.n0)
        if tail_sum is None:
            return CertificateCheck(
                False, math.inf, math.inf, False,
                witness=f"geometric tail with ratio {t.ratio} >= 1 diverges",
            )
        total = head + tail_sum
        exact = _is_rational(total)
        err = 0.0 if exact else 8 * abs(float(total)) * 2.2e-16
        return CertificateCheck(True, float(total), err, exact)
    # polynomial tail: sum_{n > n0} n^p c (n+shift)^-q
    q = float(t.power)
    if q - p <= 1:
        return CertificateCheck(
            False, math.inf, math.inf, False,
            witness=f"sum of n^{p} * n^-{q} diverges (needs power - p > 1)",
        )
    c = float(t.coef)
    start = cert.n0 + 1
    M = max(start, 100_000)
    mid = math.fsum(c * n**p * (n + t.shift) ** -q for n in range(start, M + 1))
    # integral comparison for the remainder sum_{n > M} n^p (n+shift)^-q:
    # above by sum n^{p-q}, below by (M/(M+shift))^p * sum (n+shift)^{p-q}
    expo = p - q
    tail_hi = c * M ** (expo + 1) / (-expo - 1)
    tail_lo = (
        c * (M / (M + t.shift)) ** p * (M + 1 + t.shift) ** (expo + 1) / (-expo - 1)
    )
    value = float(head) + mid + 0.5 * (tail_lo + tail_hi)
    err = 0.5 * (tail_hi - tail_lo) + 8 * abs(value) * 2.2e-16 * math.log2(M)
    return CertificateCheck(True, value, err, False)


def lift_variation(cert: VariationCertificate, L: int, M: int) -> VariationCertificate:
    """The induced bound max(omega_{n+L}, omega_{n+M}) = omega_{n + min(L, M)}.

    Valid because omega is nonincreasing; the summability claim survives the
    shift, so the output passes the checker whenever the input does.
    """
    if L < 0 or M < 0:
        raise ValueError("offsets must be >= 0")
    s = min(L, M)
    if s == 0:
        return cert
    prefix = cert.prefix[s:] if s < cert.n0 else ()
    return replace(cert, prefix=prefix, tail=_shift_tail(cert.tail, s))


def _shift_tail(tail: Tail, s: int) -> Tail:
    if isinstance(tail, ZeroTail):
        return tail
    if isinstance(tail, GeometricTail):
        return GeometricTail(coef=tail.coef * tail.ratio**s, ratio=tail.ratio)
    return PolynomialTail(coef=tail.coef, power=tail.power, shift=tail.shift + s)


class RegularityClass(Enum):
    """Which summability class a certified potential sits in."""

    E1 = "E1"
    E0_PLUS = "E0+"


def certify_class(
    f: FiniteRangePotential, cert: VariationCertificate, tag: RegularityClass
) -> CertificateCheck:
    """Verify the certificate matches the class tag for this potential.

    E0+ additionally requires the potential to read only future coordinates.
    """
    if tag is RegularityClass.E0_PLUS and not f.future_only:
        raise PotentialError("E0+ requires a future-only potential (left range 0)")
    want_p = 1 if tag is RegularityClass.E1 else 0
    if cert.p != want_p:
        raise PotentialError(f"{tag.value} needs p = {want_p}, certificate has p = {cert.p}")
    res = check_variation_certificate(cert)
    if not res.accept:
        raise PotentialError(f"certificate rejected: {res.witness}")
    return res


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
