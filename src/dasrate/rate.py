"""Closed-form ergodic rates for fixed large-scale gains.

With Rayleigh fading, a user's aggregate signal power and its
interference power are each weighted sums of independent exponentials,
and the ergodic rate reduces to partial-fraction combinations of scaled
exponential-integral terms.

Rates depend on the transmit and noise powers only through their ratio,
the linear SNR P / sigma^2, so the rate engine takes that SNR alone and
no scenario holds either power.

Every closed-form rate goes through subset rates. With X a user's signal
power and Y its interference power,
E[ln(1 + X / (Y + sigma^2))] = E[ln(1 + (X + Y) / sigma^2)] - E[ln(1 + Y / sigma^2)],
so user k, served by ports S while ports A are active, has rate
R_k(A) - R_k(A minus S), where R_k(B) is its interference-free rate over
port set B and R_k(empty) = 0. ``subset_rates`` gives R_k(B) of every
user and subset of a block of drops at many SNRs from one kernel call,
and ``row_sum_rates`` rates any mode of those drops from that one table;
``select_rows`` picks the first best of a candidate set's rated rows.
The identity is algebraic in the kernel values, so it holds for the
approximated rates too.

The paper's R_k(B), a partial-fraction sum over distinct gains, is formed
by a recursion that divides by each subset's own gain span, or by an
Erlang mixture of positive terms, so it holds at any ties; ``dasrate
verify`` checks both routes against the oracle ``verification.mgf_rate``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import numerics

# Per subset size |B|: the widest span 1 - g_lo / g_hi at which R(B) takes
# the Erlang mixture, as the recursion's round-off grows as spans shrink,
# and the mixture's last term M, past which the terms hold under 2**-57 of
# R(B) at that span (as T_k / k falls with k).
_WIDEST = np.array([0, 0, .001, .01, .1, .3, .4, .5, .55, .6, .65, .7, .72, .75, .78, .8, .82])
_LAST = (0, 0, 5, 9, 20, 41, 57, 80, 97, 119, 147, 185, 208, 245, 294, 337, 390)


# --- ergodic rates ----------------------------------------------------------

def log1p_inv(x: np.ndarray) -> np.ndarray:
    """ln(1 + 1/x) per element: the high-accuracy stand-in used by the
    approximated rates. ``log1p`` is libm's, per element."""
    return np.array([math.log1p(v) for v in (1.0 / x).tolist()])


def _log1p_inv_increments(x: np.ndarray, first: np.ndarray, count: int) -> np.ndarray:
    """``log1p_inv``'s ``numerics.exp_en``: the steps of T_k = ln(1 + a) + sum_{i=2..k}
    (1 - r^(i-1)) / (i - 1), a = 1/x, r = 1/(1 + a), as (1 - r)(1 + ... + r^(i-2))."""
    ratio = np.full((count - 1, len(x)), x / (1.0 + x))
    ratio[0] = 1.0
    done = np.cumsum(np.cumprod(ratio, axis=0) / (1.0 + x), axis=0)
    return np.vstack([first, done / np.arange(1.0, count)[:, None]])


def _erlang_mixture(g, x, first, increments, last: int) -> np.ndarray:
    """R(B) ln 2 = sum_m p_m T_(|B|+m)(x_lo), m <= ``last``, of subsets of one size from
    their ascending gains ``g`` and g_lo's kernel arguments and values ``x`` and ``first``:
    sum g_j |h_j|^2 is g_lo times an Erlang variable of |B| + M stages, M a sum of
    geometric counts of odds g_lo / g_j with pmf p (Alouini and Goldsmith, 1999)."""
    p = np.zeros((last + 2, len(g)))  # P(M = m) in p[m + 1], after a 0
    p[1] = 1.0
    for g_j in g[:, 1:].T:
        stay, move = g[:, 0] / g_j, (g_j - g[:, 0]) / g_j
        for m in range(1, last + 2):
            p[m] = stay * p[m] + move * p[m - 1]
    # T_k as running sums, added to the mixture in a fixed order.
    running = np.cumsum(increments(x.ravel(), first.ravel(), g.shape[1] + last), axis=0)[-last - 1:]
    return sum(p_m[:, None] * t.reshape(x.shape) for p_m, t in zip(p[1:], running))


def subset_rates(gains: np.ndarray, snrs,
                 kernel: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """Interference-free rates R_k(B), in bits/s/Hz, of every user k over
    every port subset B, for a block of drops at every linear SNR.

    ``gains`` is (drops x users x ports); the result is (drops x points x
    users x 2^N), indexed by B's port bitmask (bit j for port j), and
    mask 0 reads 0. R_k(B) = E[log2(1 + snr sum_{j in B} g_kj |h_kj|^2)]
    depends on B's gains alone. In each user's gain order, B's extreme
    gains g_lo and g_hi are its lowest and highest bits, and R(B) =
    (g_hi R(B - lo) - g_lo R(B - hi)) / (g_hi - g_lo) from R({j}) =
    kernel(1 / (g_j snr)) / ln 2 (Newton's divided differences), or the
    exact Erlang mixture where B's span is narrow for its size
    (``_WIDEST``). One kernel call rates the block, and each value runs its
    size's fixed operations, whatever the rest of the block. Each user's
    slice is contiguous. ``kernel`` is None (exact) or ``log1p_inv``.
    """
    gains = np.asarray(gains, dtype=float)
    n_drops, n_users, n_ports = gains.shape
    # Looked up per call, so a patched or traced numerics.exp_e1 is the one used.
    kernel, increments = {None: (numerics.exp_e1, numerics.exp_en),
                          log1p_inv: (log1p_inv, _log1p_inv_increments)}[kernel]
    # Each (user, drop) row's gains ascending, one column per row.
    rows = gains.transpose(1, 0, 2).reshape(-1, n_ports)
    g = np.sort(rows, axis=1).T
    x = 1.0 / (g[..., None] * np.asarray(snrs, dtype=float))
    first = kernel(x.ravel()).reshape(x.shape)
    # R(B) ln 2 by sorted mask (bit i for a row's i-th smallest gain).
    table = np.zeros((1 << n_ports, *x.shape[1:]))
    table[1 << np.arange(n_ports)] = first
    # Each mask's size and lowest and highest bits, and its weights.
    members = (np.arange(1 << n_ports)[:, None] >> np.arange(n_ports)) & 1
    sizes = members.sum(axis=1)
    lo, hi = members.argmax(axis=1), n_ports - 1 - members[:, ::-1].argmax(axis=1)
    span = g[hi] - g[lo]
    tight = span <= _WIDEST[sizes, None] * g[hi]
    exact, near = tight & (span == 0.0), tight & (span > 0.0)
    w_hi, w_lo = (np.divide(g[end], span, out=np.zeros_like(span), where=~tight)[..., None]
                  for end in (hi, lo))
    drop_lo, drop_hi = (np.arange(1 << n_ports) - (1 << end) for end in (lo, hi))
    for size in range(2, n_ports + 1):
        masks = np.flatnonzero(sizes == size)
        table[masks] = (w_hi[masks] * table[drop_lo[masks]]
                        - w_lo[masks] * table[drop_hi[masks]])
        # Exact ties need one term; (terms x subsets x points) go in parts of 2^20.
        for last, group in ((0, exact), (_LAST[size], near)):
            mask, row = np.nonzero(group[masks])
            step = max(1, 2 ** 20 // ((size + last) * x.shape[2]))
            for i in range(0, len(row), step):
                part, r = masks[mask[i:i + step]], row[i:i + step]
                ports = np.nonzero(members[part])[1].reshape(len(part), size)
                table[part, r] = _erlang_mixture(g[ports, r[:, None]], x[lo[part], r],
                                                 first[lo[part], r], increments, last)
    # Each row's port masks as sorted masks, gathered to (rows x points x 2^N).
    rank = np.argsort(np.argsort(rows, axis=1, kind="stable"), axis=1)
    out = table[((1 << rank) @ members.T)[:, None], np.arange(len(rows))[:, None, None],
                np.arange(x.shape[2])[:, None]]
    out /= numerics.LN2
    return out.reshape(n_users, n_drops, *out.shape[1:]).transpose(1, 2, 0, 3)


def row_sum_rates(table: np.ndarray, rows) -> np.ndarray:
    """(drops x points x rows) sum rates of assignments from a
    ``subset_rates`` table: sum_k [R_k(A) - R_k(A minus S_k)], where A
    holds a row's active ports and S_k user k's serving ones. ``rows`` is
    a (rows x ports) set that every drop rates, or (drops x rows x ports),
    a set per drop. Only the table's users that some row serves are
    added, each once and in index order: a user no row serves would add
    exactly 0.0, so its table entries are not read, and a row's rate does
    not depend on the other rows, drops or points of the call. Entries
    past the table's users are ignored.
    """
    rows = np.asarray(rows)
    n_masks = table.shape[3]
    bit = 1 << np.arange(rows.shape[-1])
    active = ((rows != 0) * bit).sum(axis=-1)
    users = np.flatnonzero(np.bincount(rows.ravel())[1:table.shape[2] + 1]) + 1  # 0 is no user
    total = None
    for k in users.tolist():
        rest = active - ((rows == k) * bit).sum(axis=-1)
        user = table[:, :, k - 1]
        if rows.ndim == 2:
            # The rows of a large set repeat few (A, A minus S_k) pairs, at
            # most 3^N: each pair's difference is taken once.
            pairs, pair = np.unique(active * n_masks + rest, return_inverse=True)
            rate = (user[:, :, pairs // n_masks] - user[:, :, pairs % n_masks])[:, :, pair]
        else:
            rate = (np.take_along_axis(user, active[:, None], axis=2)
                    - np.take_along_axis(user, rest[:, None], axis=2))
        total = rate if total is None else total + rate
    return np.zeros((*table.shape[:2], rows.shape[-2])) if total is None else total


def select_rows(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best candidate at each point of a (... x points x candidates) rate
    array: its column and its rate, one per point. The first maximizer
    wins ties, as ``argmax`` returns it."""
    best = rates.argmax(axis=-1)
    return best, np.take_along_axis(rates, best[..., None], axis=-1)[..., 0]


# --- two-port, two-user analysis -------------------------------------------

def crossover_snr(gains) -> tuple[float, float]:
    """Closed-form high-SNR crossovers, as linear SNRs, of the (2, 2) gain
    array ``gains``: where mode [1 1] overtakes [1 2], then where it
    overtakes [2 1]. Both scale r^(1/(r-1)), with r = s21 / s22 = 1 + d,
    taken as exp(log1p(d) / d), whose limit e holds at d = 0.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (2, 2):
        raise ValueError(f"crossover analysis needs a 2x2 gain matrix, "
                         f"got shape {gains.shape}")
    s12, s21, s22 = float(gains[0, 1]), float(gains[1, 0]), float(gains[1, 1])
    d = (s21 - s22) / s22
    power = math.e if d == 0.0 else math.exp(math.log1p(d) / d)
    return power / s12, power / s22


# A crossing of two rate curves is sought from -20 to 80 dB in 0.25 dB
# steps, and the last sign change is bisected to within 1e-4 dB.
CROSSING_LO_DB, CROSSING_HI_DB, CROSSING_STEP_DB = -20.0, 80.0, 0.25
CROSSING_TOL_DB = 1e-4


def rate_curve_intersection_db(gap: Callable[[np.ndarray], np.ndarray]) -> float | None:
    """Highest-SNR crossing of two rate curves, located by bisection.

    ``gap`` maps an array of linear SNRs to curve A minus curve B, in
    bits/s/Hz. It is scanned on a dB grid in one call, and the last sign
    change is refined one call per step, starting from the scanned value
    at its low end; returns the crossing in dB, or None when the curves
    do not cross in range.
    """
    def diff(dbs: list[float]) -> list[float]:
        rhos = np.array([10.0 ** (db / 10.0) for db in dbs])
        return np.asarray(gap(rhos)).tolist()

    lo_db, hi_db = CROSSING_LO_DB, CROSSING_HI_DB
    n_steps = int(math.ceil((hi_db - lo_db) / CROSSING_STEP_DB))
    grid = [lo_db + i * (hi_db - lo_db) / n_steps for i in range(n_steps + 1)]
    values = diff(grid)

    last = None
    for i in range(len(grid) - 1):
        if values[i] == 0.0 or values[i] * values[i + 1] < 0.0:
            last = i
    if last is None:
        return None

    lo, f_lo = grid[last], values[last]
    hi = lo if f_lo == 0.0 else grid[last + 1]
    while hi - lo > CROSSING_TOL_DB:
        mid = 0.5 * (lo + hi)
        f_mid = diff([mid])[0]
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def crossover_curves_db(gains: np.ndarray) -> tuple[float | None, float | None]:
    """Highest-SNR crossings, in dB, of the [1 1] and [1 2] sum-rate curves
    of a 2x2 gain matrix: of the approximated curves, then of the exact
    ones, each None when the curves do not cross in range. Each
    evaluation of the gap rates both modes from one ``subset_rates``
    table."""
    gains = np.asarray(gains, dtype=float)[None]

    def gap(snr, kernel=None):
        rates = row_sum_rates(subset_rates(gains, snr, kernel), [(1, 1), (1, 2)])[0]
        return rates[:, 0] - rates[:, 1]

    return (rate_curve_intersection_db(lambda snr: gap(snr, log1p_inv)),
            rate_curve_intersection_db(gap))
