"""Exact partition-function values as formal sums of exp terms.

With rational word weights, every weighted periodic-point sum is a finite
multiset of exponents: ``sum_i m_i * exp(e_i)`` with ``e_i`` rational and
``m_i`` positive integers.  Keeping that multiset instead of a float makes
trace identities and coincidence checks exact; floats appear only at the
reporting boundary.
"""
from __future__ import annotations

import math
from fractions import Fraction


class ExpSum:
    """A nonnegative integer combination of exp(e) terms with rational e."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Fraction, int] | None = None):
        self.terms: dict[Fraction, int] = {}
        if terms:
            for e, m in terms.items():
                self.add_term(e, m)

    @classmethod
    def unit(cls) -> "ExpSum":
        """exp(0), the multiplicative identity."""
        return cls({Fraction(0): 1})

    def add_term(self, exponent, multiplicity: int = 1) -> None:
        if multiplicity == 0:
            return
        e = Fraction(exponent)
        m = self.terms.get(e, 0) + multiplicity
        if m < 0:
            raise ValueError("negative multiplicity")
        if m == 0:
            del self.terms[e]
        else:
            self.terms[e] = m

    def __add__(self, other: "ExpSum") -> "ExpSum":
        out = ExpSum()
        out.terms = dict(self.terms)
        for e, m in other.terms.items():
            out.add_term(e, m)
        return out

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        """Product of formal sums: exponents add, multiplicities multiply."""
        out = ExpSum()
        for e1, m1 in self.terms.items():
            for e2, m2 in other.terms.items():
                out.add_term(e1 + e2, m1 * m2)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def count(self) -> int:
        """Total multiplicity (the number of contributing periodic points)."""
        return sum(self.terms.values())

    def is_integer(self) -> bool:
        """True when the value is exactly an integer (all exponents zero)."""
        return all(e == 0 for e in self.terms)

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError("exp-sum has nonzero exponents")
        return self.count

    def float_value(self) -> float:
        return math.fsum(m * math.exp(float(e)) for e, m in self.terms.items())

    def pairs(self) -> list[tuple[Fraction, int]]:
        return sorted(self.terms.items())

    def __repr__(self):
        inner = " + ".join(f"{m}*exp({e})" for e, m in self.pairs())
        return f"ExpSum({inner or '0'})"
