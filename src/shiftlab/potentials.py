"""Finite-range potentials, their exact Birkhoff sums, and Bowen's reduction.

A potential is a real weight on words: it reads coordinates ``-m .. r-1``
and is stored as a table over the admissible ``(m+r)``-words.  Its
variations are then read off the table and vanish past the span, so every
potential here has summable variations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Union

from .graphs import FiniteGraph, Word

Number = Union[Fraction, float]

_EPS = 2.2e-16  # float epsilon, twice the unit roundoff u


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
    is) and divided by their common denominator once.  When the span is at
    least 2 and n is at least the length p of the word, the n windows start
    at every cyclic position of ``word``, so every cyclic edge lies inside a
    looked-up window; as the table holds exactly the admissible windows, the
    lookups are the admissibility check.  Otherwise the word is checked edge
    by edge first.  Raises :class:`PotentialError` if the orbit word is
    empty or leaves the table domain.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    span, p = f.span, len(word)
    if (span == 1 or n < p or not p) and not f.graph.is_closed_word(word):
        raise PotentialError(f"orbit word {word} is not admissible")
    # letters -left .. n + right - 2 of the orbit, so window k is ext[k:k + span]
    start = -f.left % p
    ext = (word * ((start + n + span - 1) // p + 1))[start:start + n + span - 1]
    try:
        return _window_sum(f, ext, n)
    except KeyError:
        raise PotentialError(f"orbit word {word} is not admissible") from None


def _window_sum(f: FiniteRangePotential, ext: Word, n: int) -> Fraction:
    """Exact sum of f over the first n span-windows ``ext[k:k + span]`` of an open word."""
    q, table = f._integer_table
    # window k is the k-th tuple of the zip of the span shifted slices
    return Fraction(sum(map(table.__getitem__, zip(*[ext[i:i + n] for i in range(f.span)]))), q)


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
