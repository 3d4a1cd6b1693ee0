"""Exact partition-function values as formal sums of exp terms.

With rational word weights, every weighted periodic-point sum is a finite
multiset of exponents: ``sum_i m_i * exp(e_i)`` with ``e_i`` rational and
``m_i`` positive integers.  Over a common denominator q of the exponents
that is an integer Laurent polynomial ``sum_k c_k t^k`` in t = exp(1/q),
and :class:`ExpSum` stores exactly that: q and the ``{k: c_k}`` dict, all in
Python integers.  Keeping it instead of a float makes trace identities and
coincidence checks exact; floats appear only at the reporting boundary, and
``Fraction`` exponents only when a caller reads them (``pairs``, ``terms``,
``repr``).
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction


def _scaled(coeffs: dict[int, int], s: int) -> dict[int, int]:
    return coeffs if s == 1 else {k * s: c for k, c in coeffs.items()}


class ExpSum:
    """A nonnegative integer combination of exp(k / q) terms: ``coeffs[k]`` is the multiplicity of exp(k / q).

    The same sum has many denominators; two sums are equal when they are
    equal over a common one.
    """

    __slots__ = ("q", "coeffs")

    def __init__(self, terms: Mapping | None = None):
        """The sum of ``m * exp(e)`` over the items ``(e, m)`` of ``terms``, exponents rational."""
        self.q = 1
        self.coeffs: dict[int, int] = {}
        if terms:
            for e, m in terms.items():
                self.add_term(e, m)

    @classmethod
    def from_coeffs(cls, q: int, coeffs: dict[int, int]) -> "ExpSum":
        """The sum of ``c * exp(k / q)`` over ``coeffs``; takes the dict as it is, whose values must be positive."""
        out = cls.__new__(cls)
        out.q = q
        out.coeffs = coeffs
        return out

    @classmethod
    def unit(cls) -> "ExpSum":
        """exp(0), the multiplicative identity."""
        return cls.from_coeffs(1, {0: 1})

    def add_term(self, exponent, multiplicity: int = 1) -> None:
        if multiplicity == 0:
            return
        e = Fraction(exponent)
        if self.q % e.denominator:
            q = math.lcm(self.q, e.denominator)
            self.coeffs = _scaled(self.coeffs, q // self.q)
            self.q = q
        k = e.numerator * (self.q // e.denominator)
        m = self.coeffs.get(k, 0) + multiplicity
        if m < 0:
            raise ValueError("negative multiplicity")
        if m == 0:
            del self.coeffs[k]
        else:
            self.coeffs[k] = m

    def _common(self, other: "ExpSum") -> tuple[int, dict[int, int], dict[int, int]]:
        """Both coefficient dicts over one denominator, the lcm of the two."""
        if self.q == other.q:
            return self.q, self.coeffs, other.coeffs
        q = math.lcm(self.q, other.q)
        return q, _scaled(self.coeffs, q // self.q), _scaled(other.coeffs, q // other.q)

    def __add__(self, other: "ExpSum") -> "ExpSum":
        q, a, b = self._common(other)
        out = dict(a)
        for k, m in b.items():
            out[k] = out.get(k, 0) + m
        return ExpSum.from_coeffs(q, out)

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        """Product of formal sums: exponents add, multiplicities multiply."""
        q, a, b = self._common(other)
        out: dict[int, int] = {}
        for k1, m1 in a.items():
            for k2, m2 in b.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + m1 * m2
        return ExpSum.from_coeffs(q, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpSum):
            return False
        _, a, b = self._common(other)
        return a == b

    def __hash__(self):
        # over the least denominator, which equal sums share
        g = math.gcd(self.q, *self.coeffs)
        return hash((self.q // g, frozenset((k // g, m) for k, m in self.coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def includes(self, other: "ExpSum") -> bool:
        """Multiset inclusion: every term of ``other`` is here at least as often."""
        _, a, b = self._common(other)
        return all(a.get(k, 0) >= m for k, m in b.items())

    @property
    def terms(self) -> dict[Fraction, int]:
        """``{exponent: multiplicity}`` with ``Fraction`` exponents, built on each reading."""
        q = self.q
        return {Fraction(k, q): m for k, m in self.coeffs.items()}

    @property
    def count(self) -> int:
        """Total multiplicity (the number of contributing periodic points)."""
        return sum(self.coeffs.values())

    def is_integer(self) -> bool:
        """True when the value is exactly an integer (all exponents zero)."""
        return all(k == 0 for k in self.coeffs)

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError("exp-sum has nonzero exponents")
        return self.count

    def float_value(self) -> float:
        # k / q of two ints is correctly rounded, as float(Fraction(k, q)) is
        q = self.q
        return math.fsum(m * math.exp(k / q) for k, m in self.coeffs.items())

    def pairs(self) -> list[tuple[Fraction, int]]:
        """``(exponent, multiplicity)`` pairs, exponents ascending."""
        q = self.q
        return [(Fraction(k, q), m) for k, m in sorted(self.coeffs.items())]

    def __repr__(self):
        inner = " + ".join(f"{m}*exp({e})" for e, m in self.pairs())
        return f"ExpSum({inner or '0'})"

