"""Outward-rounded interval arithmetic on ``(lo, hi)`` float pairs.

The one place where shiftlab decides how floats round inside a reported
bracket.  Each operation rounds to nearest, then steps each end one float
outward with :func:`math.nextafter`: that covers the half-ulp error of an
IEEE 754 sum, product or quotient and of the correctly rounded
:func:`math.fsum`, subnormal results included (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 2; Rump, "Verification methods",
Acta Numerica 19, 2010).  ``exp`` and ``log`` step two floats outward, which
assumes that libm returns them within 1 ulp, as glibc documents.

An infinite end stays infinite: it stands for a divergent series or for no
bound (a sum or product that overflows reads the same; ``exp`` and ``fsum``
raise math's OverflowError instead).  A lower end of 0 stays 0: a sum that
rounds to 0 is exact, every other quantity bracketed here that can round
to 0 is nonnegative, and :func:`near` steps a negative value that rounds
to 0 below it.  ``mul`` and ``div`` take nonnegative intervals,
with 0 * inf = 0.
"""
from __future__ import annotations

import math

Interval = tuple[float, float]
ZERO: Interval = (0.0, 0.0)
ONE: Interval = (1.0, 1.0)


def down(x: float) -> float:
    return math.nextafter(x, -math.inf) if x and math.isfinite(x) else x


def up(x: float) -> float:
    return math.nextafter(x, math.inf) if math.isfinite(x) else x


def near(x) -> Interval:
    """A bracket of the real x (float, int or Fraction) around its nearest float.

    A negative x whose nearest float is 0 gets the lower end -5e-324, the
    smallest subnormal below it, where :func:`down` would keep 0.
    """
    v = float(x)
    if not v and x < 0:
        return -math.ulp(0.0), -0.0
    return down(v), up(v)


def add(a: Interval, b: Interval) -> Interval:
    if ZERO in (a, b):  # x + 0 is exact
        return b if a == ZERO else a
    return down(a[0] + b[0]), up(a[1] + b[1])


def sub(a: Interval, b: Interval) -> Interval:
    return down(a[0] - b[1]), up(a[1] - b[0])


def fsum(items) -> Interval:
    """The sum of the intervals in ``items``; exactly 0 when there are none."""
    items = list(items)
    if not items:
        return ZERO
    return down(math.fsum([a[0] for a in items])), up(math.fsum([a[1] for a in items]))


def mul(a: Interval, b: Interval) -> Interval:
    return _prod(a[0], b[0], down), _prod(a[1], b[1], up)


def _prod(x: float, y: float, step) -> float:
    return 0.0 if x == 0 or y == 0 else step(x * y)


def div(a: Interval, b: Interval) -> Interval:
    """a / b; an end whose divisor reaches 0 or below has passed a pole: inf."""
    return _quot(a[0], b[1], down), _quot(a[1], b[0], up)


def _quot(x: float, y: float, step) -> float:
    return 0.0 if x == 0 else step(x / y) if y > 0 else math.inf


def exp(a: Interval) -> Interval:
    return down(down(math.exp(a[0]))), up(up(math.exp(a[1])))


def log(a: Interval) -> Interval:
    """log of an interval with a positive upper end; a lower end of 0 gives -inf.

    An end at exactly 1.0 gives exactly 0: IEEE 754 fixes log 1 = +0, so
    there is no rounding to cover, and a bracket (1, 1) stays (0, 0).
    """
    return _log(a[0], down) if a[0] else -math.inf, _log(a[1], up)


def _log(x: float, step) -> float:
    return 0.0 if x == 1.0 else step(step(math.log(x)))


def midrad(a: Interval) -> tuple[float, float]:
    """``(m, r)`` with [lo, hi] inside [m - r, m + r]: a bracket as value and error."""
    m = 0.5 * a[0] + 0.5 * a[1]
    if not math.isfinite(m):
        return m, math.inf
    r = max(a[1] - m, m - a[0])  # 0 only when lo = m = hi: distinct floats differ
    return m, up(r) if r else 0.0
