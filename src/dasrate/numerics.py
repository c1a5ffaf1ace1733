"""Scaled exponential-integral kernel.

Every closed-form rate in this package is a weighted combination of
``exp(x) * E1(x)`` terms, where ``E1(x) = integral_x^inf exp(-t)/t dt``.
Only the scaled product is evaluated here: the unscaled ``E1`` underflows
for x above ~700 and ``exp(x)`` overflows around the same point, while
their product stays comfortably inside double range for any positive x.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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


def _float_for_float(branch):
    """Let an array-in, array-out kernel give a Python float for a float."""
    @functools.wraps(branch)
    def kernel(x):
        values = np.asarray(x, dtype=float)
        out = branch(values.reshape(-1))
        return float(out[0]) if values.ndim == 0 else out.reshape(values.shape)
    return kernel


@_float_for_float
def exp_e1(x):
    """Exponentially scaled exponential integral ``exp(x) * E1(x)``.

    Takes a float or an array and gives the same. Every element runs the
    scalar recurrence of its branch, in the same order of operations, so a
    value does not depend on the other elements of the call. Relative
    accuracy is better than 1e-12 over the full double range; the result
    is finite for any x in [1e-300, 1e300]. Each iteration costs a dozen
    numpy operations whatever the call's size, so pass many values at once.

    Raises:
        ValueError: if an element is not a finite positive number.
    """
    ok = (x > 0.0) & (x < math.inf)
    if not ok.all():
        raise ValueError(f"exp_e1 requires finite x > 0, got {float(x[~ok][0])!r}")
    out = np.empty_like(x)
    low = x <= SERIES_CF_SPLIT
    out[low] = _exp_e1_series(x[low])
    out[~low] = _exp_e1_continued_fraction(x[~low])
    return out


@_float_for_float
def _exp_e1_series(x):
    """Power-series branch, accurate for 0 < x <= 1.

    E1(x) = -gamma - ln(x) + sum_{k>=1} (-1)^(k+1) x^k / (k * k!),
    multiplied by exp(x). No cancellation occurs on this range since
    -ln(x) >= 0 and the series total stays well away from zero. ``ln`` and
    ``exp`` are libm's, per element: numpy's vector versions can differ
    in the last ulp.
    """
    out = -EULER_GAMMA - np.array([math.log(v) for v in x.tolist()])
    # Elements still summing: their index into x, -x, the running total
    # and -(-x)^k / k! (negation is exact, so each product rounds as the
    # scalar recurrence's does).
    live, neg_x, total = np.arange(len(x)), -x, out.copy()
    neg_power = np.full(len(x), -1.0)
    for k in range(1, _SERIES_MAX_TERMS):
        if not len(live):
            break
        neg_power = neg_power * (neg_x / k)
        term = neg_power / k
        total = total + term
        going = abs(term) > 1e-17 * abs(total)
        if np.count_nonzero(going) < len(live):
            out[live] = total
            live, neg_x, total, neg_power = (
                live[going], neg_x[going], total[going], neg_power[going])
    out[live] = total
    return np.array([math.exp(v) for v in x.tolist()]) * out


@_float_for_float
def _exp_e1_continued_fraction(x):
    """Modified-Lentz continued fraction branch, accurate for x >= 1.

    exp(x) * E1(x) = 1 / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))),
    evaluated without any exp() factor so arguments up to 1e300 work.

    Raises:
        NumericalFailureError: naming the first x whose fraction stalls.
    """
    out = np.empty_like(x)
    # Elements still iterating: their index into x and their b, c, d, h.
    live, b = np.arange(len(x)), x + 1.0
    c = np.full(len(x), 1.0 / _TINY)
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER):
        if not len(live):
            break
        a = -float(i) * float(i)
        b = b + 2.0
        d = a * d + b
        if np.count_nonzero(d) < len(d):
            d[d == 0.0] = _TINY
        d = 1.0 / d
        c = b + a / c
        if np.count_nonzero(c) < len(c):
            c[c == 0.0] = _TINY
        delta = c * d
        h = h * delta
        going = abs(delta - 1.0) >= _CF_EPS
        if np.count_nonzero(going) < len(live):
            out[live] = h
            live, b, c, d, h = live[going], b[going], c[going], d[going], h[going]
    if len(live):
        raise NumericalFailureError(
            f"continued fraction for exp_e1 stalled at x={float(x[live[0]])}")
    return out
