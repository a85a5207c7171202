"""The three special functions the likelihood needs, with scipy.special's bits.

xlogy(x, y) = x*log(y) and xlog1py(x, y) = x*log1p(y) are 0 where x == 0
(unless y is NaN), as in scipy. Logs are libm's, through math.log, which is
the function scipy calls; numpy's vectorized log differs from it in the last
bit on some inputs. log1p is the Cephes rational approximation scipy uses:
libm's log(1 + y) outside 1 + y in [sqrt(1/2), sqrt(2)], a degree-6 ratio of
Horner polynomials inside. gammaln is Cephes' lgam at positive integers, the
only arguments the model passes. Python floats round every product and sum
as the C code does, so the ports are exact, one scalar at a time.
"""
from __future__ import annotations

import math

# Cephes log1p: log(1+x) = x - x**2/2 + x**3 P(x)/Q(x) for 1+x in [sqrt(1/2), sqrt(2)],
# P of degree 6 and Q monic of degree 6.
_P0, _P1, _P2, _P3, _P4, _P5, _P6 = (
    4.5270000862445199635215e-5,
    4.9854102823193375972212e-1,
    6.5787325942061044846969e0,
    2.9911919328553073277375e1,
    6.0949667980987787057556e1,
    5.7112963590585538103336e1,
    2.0039553499201281259648e1,
)
_Q0, _Q1, _Q2, _Q3, _Q4, _Q5 = (
    1.5062909083469192043167e1,
    8.3047565967967209469434e1,
    2.2176239823732856465394e2,
    3.0909872225312059774938e2,
    2.1642788614495947685003e2,
    6.0118660497603843919306e1,
)
_SQRT_HALF, _SQRT_TWO = math.sqrt(0.5), math.sqrt(2.0)
# Cephes lgam: Stirling's series correction for 13 <= x < 1000, and log(sqrt(2 pi)).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178


def log(y: float) -> float:
    """libm's log, with its values where math.log raises: -inf at 0, NaN below."""
    if y > 0.0:
        return math.log(y)
    return -math.inf if y == 0.0 else math.nan


def log1p(y: float) -> float:
    """log(1 + y) as Cephes computes it."""
    z = 1.0 + y
    if z < _SQRT_HALF or z > _SQRT_TWO:
        return log(z)
    # Horner steps in Cephes' order (polevl, p1evl)
    p = (((((_P0 * y + _P1) * y + _P2) * y + _P3) * y + _P4) * y + _P5) * y + _P6
    q = (((((y + _Q0) * y + _Q1) * y + _Q2) * y + _Q3) * y + _Q4) * y + _Q5
    z = y * y
    return y + (-0.5 * z + y * (z * p / q))


def xlogy(x: float, y: float) -> float:
    """x*log(y), 0 where x == 0 and y is not NaN."""
    return x * log(y) if x != 0.0 or y != y else 0.0


def xlog1py(x: float, y: float) -> float:
    """x*log1p(y), 0 where x == 0 and y is not NaN."""
    return x * log1p(y) if x != 0.0 or y != y else 0.0


def gammaln(n: int) -> float:
    """log Gamma(n) at a positive integer n, as Cephes lgam computes it."""
    if n < 13:
        # lgam's recurrence forms (n-1)! exactly before its one log
        return math.log(math.factorial(n - 1))
    x = float(n)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        s = s * p + c
    return q + s / x
