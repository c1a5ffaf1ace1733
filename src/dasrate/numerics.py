"""Scaled exponential-integral kernel.

Every closed-form rate in this package is a weighted combination of
``exp(x) * E1(x)`` terms, where ``E1(x) = integral_x^inf exp(-t)/t dt``.
Only the scaled product is evaluated here: the unscaled ``E1`` underflows
for x above ~700 and ``exp(x)`` overflows around the same point, while
their product stays comfortably inside double range for any positive x.
"""

from __future__ import annotations

import math

from .errors import NumericalFailureError

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

LN2 = math.log(2.0)

# Branch split for exp_e1: power series below, continued fraction above.
SERIES_CF_SPLIT = 1.0

_SERIES_MAX_TERMS = 500
_CF_MAX_ITER = 20000
# A few ulps above 1: delta carries ~1 ulp of rounding noise per step, so a
# tighter threshold than this can never be met for very large arguments.
_CF_EPS = 5e-16
_TINY = 1e-300


def exp_e1(x: float) -> float:
    """Exponentially scaled exponential integral ``exp(x) * E1(x)``.

    Relative accuracy is better than 1e-12 over the full double range;
    the result is finite for any x in [1e-300, 1e300].

    Raises:
        ValueError: if x is not a finite positive number.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"exp_e1 requires finite x > 0, got {x!r}")
    if x <= SERIES_CF_SPLIT:
        return _exp_e1_series(x)
    return _exp_e1_continued_fraction(x)


def _exp_e1_series(x: float) -> float:
    """Power-series branch, accurate for 0 < x <= 1.

    E1(x) = -gamma - ln(x) + sum_{k>=1} (-1)^(k+1) x^k / (k * k!),
    multiplied by exp(x). No cancellation occurs on this range since
    -ln(x) >= 0 and the series total stays well away from zero.
    """
    total = -EULER_GAMMA - math.log(x)
    power = 1.0  # holds (-x)^k / k!
    for k in range(1, _SERIES_MAX_TERMS):
        power *= -x / k
        term = -power / k
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return math.exp(x) * total


def _exp_e1_continued_fraction(x: float) -> float:
    """Modified-Lentz continued fraction branch, accurate for x >= 1.

    exp(x) * E1(x) = 1 / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))),
    evaluated without any exp() factor so arguments up to 1e300 work.
    """
    b = x + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER):
        a = -float(i) * float(i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = _TINY
        d = 1.0 / d
        c = b + a / c
        if c == 0.0:
            c = _TINY
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise NumericalFailureError(f"continued fraction for exp_e1 stalled at x={x}")
