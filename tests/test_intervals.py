"""Outward-rounded interval operations against 80-digit decimal values."""
import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest

from shiftlab import intervals as iv


def _operands(rng, count):
    """Nonnegative floats from subnormal to 1e150, so that no result overflows."""
    scales = (1e-320, 1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e150)
    return [float(rng.uniform(0, 1) * scales[int(rng.integers(len(scales)))]) for _ in range(count)]


def _inside(a, want):
    lo, hi = a
    assert Decimal(lo) <= want <= Decimal(hi), (lo, want, hi)


def test_arithmetic_brackets_the_exact_result():
    rng = np.random.default_rng(130)
    with localcontext() as ctx:
        ctx.prec = 80
        for _ in range(2000):
            x, y = _operands(rng, 2)
            X, Y = Decimal(x), Decimal(y)
            _inside(iv.add((x, x), (y, y)), X + Y)
            _inside(iv.sub((x, x), (y, y)), X - Y)
            _inside(iv.mul((x, x), (y, y)), X * Y)
            if y > 0 and X / Y < Decimal(1e300):
                _inside(iv.div((x, x), (y, y)), X / Y)
            xs = _operands(rng, int(rng.integers(1, 6)))
            _inside(iv.fsum((v, v) for v in xs), sum(map(Decimal, xs)))


def test_exp_log_and_near_bracket_the_exact_result():
    rng = np.random.default_rng(131)
    with localcontext() as ctx:
        ctx.prec = 80
        for _ in range(2000):
            x = float(rng.uniform(-745, 709))
            _inside(iv.exp((x, x)), Decimal(x).exp())
            y = _operands(rng, 1)[0]
            if y > 0:
                _inside(iv.log((y, y)), Decimal(y).ln())
            q = F(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**6)))
            _inside(iv.near(q), Decimal(q.numerator) / Decimal(q.denominator))


def test_conventions():
    assert iv.add((0.5, 0.75), iv.ZERO) == (0.5, 0.75)  # x + 0 is exact
    assert iv.fsum([]) == iv.ZERO
    assert iv.mul((0.0, 0.0), (2.0, math.inf)) == iv.ZERO  # 0 * inf = 0
    assert iv.mul((0.0, 1.0), (1.0, math.inf)) == (0.0, math.inf)
    assert iv.div((1.0, 2.0), (-0.5, 0.5)) == (iv.down(2.0), math.inf)  # past a pole
    assert iv.div((1.0, 2.0), (-1.0, -0.5)) == (math.inf, math.inf)
    assert iv.mul((1e-200, 1e-200), (1e-200, 1e-200)) == (0.0, 5e-324)  # an underflow keeps a bound
    m, r = iv.midrad((1.0, 1.5))
    assert m - r <= 1.0 and 1.5 <= m + r
    assert iv.midrad((1.0, math.inf))[1] == math.inf
    assert iv.log(iv.ONE) == iv.ZERO and iv.midrad(iv.log(iv.ONE)) == (0.0, 0.0)  # log 1 = +0 exactly
    assert iv.log((0.5, 1.0))[1] == 0.0 and iv.log((1.0, 2.0))[0] == 0.0
    assert iv.mul((1e300, 1e300), (1e10, 1e10)) == (math.inf, math.inf)  # overflow reads as inf
    with pytest.raises(OverflowError):
        iv.exp((800.0, 800.0))


def test_near_brackets_values_whose_nearest_float_is_zero():
    # a nonzero value below the float range gets the smallest subnormal on its
    # own side; at -1/10^400 the bracket was once (-0.0, 5e-324), which excludes it
    with localcontext() as ctx:
        ctx.prec = 80
        for x in (F(1, 10**400), F(-1, 10**400), F(0), 0.0, -5e-324):
            _inside(iv.near(x), Decimal(x.numerator) / Decimal(x.denominator) if isinstance(x, F) else Decimal(x))
    assert iv.near(F(-1, 10**400)) == (-5e-324, 0.0)
    assert iv.near(F(1, 10**400)) == (0.0, 5e-324)
    assert iv.near(-5e-324) == (-1e-323, 0.0)
