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
    value does not depend on the other elements of the call or their
    order. Relative accuracy is better than 1e-12 over the full double
    range; the result is finite for any x in [1e-300, 1e300]. The call
    sorts its arguments once and hands each branch its part in about the
    order in which elements finish, so each iteration runs about a dozen
    in-place numpy operations over the suffix from the first element still
    iterating, with no gathers; pass many values at once.

    Raises:
        ValueError: if an element is not a finite positive number.
        NumericalFailureError: naming, in input order, the first x whose
            continued fraction stalls.
    """
    order = np.argsort(x)
    xs = x[order]
    # NaN sorts last, so the ends bound every element.
    if len(xs) and not (xs[0] > 0.0 and xs[-1] < math.inf):
        bad = x[~((x > 0.0) & (x < math.inf))][0]
        raise ValueError(f"exp_e1 requires finite x > 0, got {float(bad)!r}")
    split = int(np.searchsorted(xs, SERIES_CF_SPLIT, side="right"))
    # Ascending for the series and descending for the fraction: an
    # element finishes in fewer steps the farther it lies from the split.
    xs[:split] = _exp_e1_series(xs[:split])
    xs[split:] = _exp_e1_continued_fraction(xs[split:][::-1])[::-1]
    stalled = np.isnan(xs[split:])
    if stalled.any():
        first = order[split:][stalled].min()
        raise NumericalFailureError(
            f"continued fraction for exp_e1 stalled at x={float(x[first])}")
    out = np.empty_like(x)
    out[order] = xs
    return out


@_float_for_float
def _exp_e1_series(x):
    """Power-series branch, accurate for 0 < x <= 1.

    E1(x) = -gamma - ln(x) + sum_{k>=1} (-1)^(k+1) x^k / (k * k!),
    multiplied by exp(x). No cancellation occurs on this range since
    -ln(x) >= 0 and the series total stays well away from zero. ``ln`` and
    ``exp`` are libm's, per element: numpy's vector versions can differ
    in the last ulp. Any order works; ascending x is fastest.
    """
    out = -EULER_GAMMA - np.fromiter(map(math.log, x.tolist()), float, len(x))
    # The suffix of elements from the first one still summing: -x, the
    # running total (a view of out) and -(-x)^k / k! (negation is exact,
    # so each product rounds as the scalar recurrence's does).
    neg_x, total, neg_power = -x, out, np.full(len(x), -1.0)
    for k in range(1, _SERIES_MAX_TERMS):
        if not len(total):
            break
        neg_power *= neg_x / k
        term = neg_power / k
        total += term
        bound = abs(total)
        bound *= 1e-17
        # A stopped element's later terms are smaller still and under half
        # an ulp of its total, so its total and its test stay as they are.
        going = abs(term) > bound
        if not going[0]:
            first = int(going.argmax()) or len(going)
            neg_x, total, neg_power = neg_x[first:], total[first:], neg_power[first:]
    return np.fromiter(map(math.exp, x.tolist()), float, len(x)) * out


@_float_for_float
def _exp_e1_continued_fraction(x):
    """Modified-Lentz continued fraction branch, accurate for x >= 1.

    exp(x) * E1(x) = 1 / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))),
    evaluated without any exp() factor so arguments up to 1e300 work.
    Any order works; descending x is fastest. An element whose fraction
    stalls reads NaN.
    """
    # Rows of the suffix of elements from the first one still iterating:
    # (out, d) and (h, NaN), so one masked copy stores h and poisons d.
    dst, src = np.full((2, len(x)), math.nan), np.full((2, len(x)), math.nan)
    out, d, h = dst[0], dst[1], src[0]
    b = x + 1.0
    c = np.full(len(x), 1.0 / _TINY)
    np.divide(1.0, b, out=d)
    h[:] = d
    for i in range(1, _CF_MAX_ITER):
        if not len(b):
            break
        a = -float(i) * float(i)
        b += 2.0
        d *= a
        d += b
        if np.count_nonzero(d) < len(d):
            d[d == 0.0] = _TINY
        np.reciprocal(d, out=d)
        c = a / c
        c += b
        if np.count_nonzero(c) < len(c):
            c[c == 0.0] = _TINY
        delta = c * d
        h *= delta
        delta -= 1.0
        stop = abs(delta) < _CF_EPS
        # A stopped element keeps its h; its d is NaN from here on, so its
        # test never holds again.
        np.copyto(dst, src, where=stop)
        if stop[0]:
            first = int(np.isnan(d).argmin()) or len(d)
            b, c, dst, src = b[first:], c[first:], dst[:, first:], src[:, first:]
            d, h = dst[1], src[0]
    return out
