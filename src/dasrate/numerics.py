"""Scaled exponential-integral kernel.

Every closed-form rate in this package is a weighted combination of
``exp(x) * E1(x)`` terms, where ``E1(x) = integral_x^inf exp(-t)/t dt``,
and at near-tied gains of ``exp(x) * E_k(x)`` terms (``exp_en``). One
continued fraction serves both: order 1 for E1 above x = 1, and order
min(ceil(x), k) for the E_k recurrences above x = 4.
Only the scaled product is evaluated here: the unscaled ``E1`` underflows
for x above ~700 and ``exp(x)`` overflows around the same point, while
their product stays comfortably inside double range for any positive x.

Each argument takes a fixed sequence of IEEE-754 ``+ - * /``, ``frexp``
calls and comparisons, all exact or correctly rounded, and no libm
function: a value has the same bits in any call, in any order and on any
IEEE-754 machine. Its relative error against 30-digit mpmath stayed below
7.5e-16 on about 160 000 x in [1e-300, 1e300]; the tests hold it to
1e-15. Each series is cut, and each depth of the continued fraction
chosen, so that what is left out is under 2**-57 of the value.
"""

from __future__ import annotations

import math

import numpy as np

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

LN2 = math.log(2.0)

# Branch split for exp_e1: power series below, continued fraction above.
SERIES_CF_SPLIT = 1.0

# Coefficients as int/int ratios, each a correctly rounded double.
# exp(x) = sum_{k<=20} x^k / k!.
_EXP = tuple(1 / math.factorial(k) for k in range(21))
# E1(x) + ln x = -gamma + sum_{k>=1} (-1)^(k+1) x^k / (k k!), to k = 19.
_EIN = (-EULER_GAMMA,) + tuple((-1) ** (k + 1) / (k * math.factorial(k))
                               for k in range(1, 20))
# ln m = 2 atanh s = 2 s + s z sum_{k>=1} 2 z^(k-1) / (2k + 1), z = s^2, to k = 10.
_ATANH = tuple(2 / (2 * k + 1) for k in range(1, 11))
# ln 2 = _LN2_HI + _LN2_LO; the high part has 32 bits, so e * _LN2_HI is
# exact for every binary exponent e of a double.
_LN2_HI = 2977044471 / 2**32
_LN2_LO = 1.9082149292705877e-10
_SQRT_HALF = math.sqrt(0.5)

# (lowest x, depth) rows of the continued fraction, x ascending. A row's
# depth is one level more than the least depth whose fraction is within
# 2**-57 of 40-digit mpmath at the row's lowest x; the least depth falls
# as x grows (checked on 3 000 log-spaced x in [1, 1e11]).
_CF_ROWS = ((1.0, 116), (1.15625, 104), (1.28125, 93), (1.46875, 83),
            (1.65625, 74), (1.875, 66), (2.125, 59), (2.4375, 53), (2.8125, 47),
            (3.1875, 42), (3.75, 37), (4.375, 33), (5.125, 29), (5.875, 26),
            (6.875, 23), (8.5, 20), (10.0, 18), (12.0, 16), (15.0, 14),
            (20.0, 12), (28.5, 10), (37.0, 9), (50.0, 8), (76.0, 7), (132.0, 6),
            (312.0, 5), (1344.0, 4), (28160.0, 3), (385875968.0, 2))
_EN_EXTRA_LEVELS = 4  # past a row's depth, for exp_en's fractions at orders up to ceil(x)


def _horner(x, coefficients):
    """sum_k coefficients[k] x^k, highest power first."""
    total = np.full(len(x), coefficients[-1])
    for c in coefficients[-2::-1]:
        total *= x
        total += c
    return total


def exp_e1(x):
    """Exponentially scaled exponential integral ``exp(x) * E1(x)``.

    Takes a float or an array and gives the same. Every element runs the
    fixed operations of its branch, so a value does not depend on the
    other elements of the call or their order. Relative error is under
    1e-15 for x in [1e-300, 1e300], and the result is finite for any
    finite x > 0. numpy costs a fixed overhead per operation, so pass
    many values at once.

    Raises:
        ValueError: if an element is not a finite positive number.
    """
    values = np.asarray(x, dtype=float)
    x = values.reshape(-1)
    finite = (x > 0.0) & (x < math.inf)
    if not finite.all():
        raise ValueError(f"exp_e1 requires finite x > 0, got {float(x[~finite][0])!r}")
    low = x <= SERIES_CF_SPLIT
    out = np.empty_like(x)
    out[low] = _exp_e1_series(x[low])
    out[~low] = _exp_e1_continued_fraction(x[~low])
    return float(out[0]) if values.ndim == 0 else out.reshape(values.shape)


def _exp_e1_series(x):
    """Power-series branch of a 1-D array, accurate for 0 < x <= 1.

    exp(x) * (-gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k k!)), with
    ``exp`` and the sum as Horner polynomials. ``ln x`` is ``e ln 2 +
    ln m`` for ``x = m 2^e`` and m in [sqrt(1/2), sqrt(2)), with ``ln m``
    from the atanh series in ``s = (m - 1)/(m + 1)``.
    """
    m, e = np.frexp(x)
    fold = m < _SQRT_HALF
    m += m * fold
    e = e - fold
    s = (m - 1.0) / (m + 1.0)
    z = s * s
    ln = _horner(z, _ATANH)
    ln *= z
    ln *= s
    ln += s + s
    ln += e * _LN2_LO
    total = _horner(x, _EIN)
    total -= ln
    total -= e * _LN2_HI
    total *= _horner(x, _EXP)
    return total


def _exp_e1_continued_fraction(x, n=1, extra_levels=0):
    """Continued-fraction branch of a 1-D array, accurate for x >= 1:
    exp(x) * E_n(x) at order ``n``, 1 or an array like ``x``.

    exp(x) * E_n(x) = 1 / (x + n - 1 n/(x + n + 2 - 2 (n + 1)/(x + n + 4 - ...))),
    bottom-up, ``t <- -i(n - 1 + i)/t + (x + n - 1) + (2i - 1)`` from t = inf
    at i = its ``_CF_ROWS`` depth plus ``extra_levels`` down to 1. The call
    sorts x, so the elements still at a level are a prefix, done in place.
    """
    order = np.argsort(x)
    xs = x[order]
    m = n - 1 if np.ndim(n) == 0 else n[order] - 1
    xm = xs + m if np.any(m) else xs  # x + n - 1, formed once: x at order 1
    # Elements below each row's upper edge: those at its depth or deeper.
    ends = np.searchsorted(xs, [edge for edge, _ in _CF_ROWS[1:]]).tolist() + [len(xs)]
    depths = [depth + extra_levels for _, depth in _CF_ROWS] + [0]
    t = np.full(len(xs), math.inf)
    for end, depth, below in zip(ends, depths, depths[1:]):
        # A call of a few large x would otherwise spend its time on the
        # empty prefixes of the deep rows.
        if not end:
            continue
        head, x_head = t[:end], xm[:end]
        m_head = m if np.ndim(m) == 0 else m[:end]
        for i in range(depth, below, -1):
            np.divide(-i * (m_head + i), head, out=head)
            head += x_head
            head += 2 * i - 1
    out = np.empty_like(x)
    out[order] = 1.0 / t
    return out


def exp_en(x, first, count: int) -> np.ndarray:
    """exp(x) E_k(x), k = 1 .. ``count``, one row per k, of a 1-D array of
    x > 0 whose exp(x) E1(x) is ``first``. v_(k+1) = (1 - x v_k) / k damps
    round-off at k >= x, v_k = (1 - k v_(k+1)) / x at k < x: at x <= 4 (11
    times round-off at most) v_k recurs up from ``first``, else down and up
    from k0 = min(ceil(x), count), whose v is the continued fraction at n =
    k0, ``_EN_EXTRA_LEVELS`` past x's ``_CF_ROWS`` depth: a level in hand
    (checked on 270 x in (4, 1e30]).
    Relative error stayed under 1.3e-15 for x in [1e-30, 1e300], k <= 410."""
    v = np.zeros((count, len(x)))
    v[0] = first
    k0 = np.where(x > 4.0, np.minimum(np.ceil(x), count), 1.0)
    at = np.flatnonzero(k0 > 1.0)
    n = k0[at]
    v[n.astype(int) - 1, at] = _exp_e1_continued_fraction(x[at], n, _EN_EXTRA_LEVELS)
    for k in range(int(k0.max(initial=1.0)) - 1, 1, -1):
        v[k - 1] = np.where(k < k0, (1.0 - k * v[k]) / x, v[k - 1])
    for k in range(1, count):
        v[k] = np.where(k >= k0, (1.0 - x * v[k - 1]) / k, v[k])
    return v
