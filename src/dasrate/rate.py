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
``select_rows`` picks the best of a set's rated rows.
The identity is algebraic in the kernel values, so it holds for the
approximated rates too.

R_k(B) is a partial-fraction sum that assumes pairwise-distinct gains.
Near-ties (see ``GAIN_TIE_REL_TOL``) are separated by a deterministic
relative perturbation, in the subsets that hold them only. At a pair of
exact ties that leaves an error of about 1.5e-7 bits, but at three or
more the sum cancels badly: four tied unit gains at 30 dB read -5.7e5
bits, against 11.78. ``dasrate verify`` checks the subset rates against
``verification.mgf_rate``, an oracle that holds at any ties.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .errors import DegenerateGainsError

# Two gains closer than this (relative) are treated as tied and nudged apart.
GAIN_TIE_REL_TOL = 1e-9
# Relative perturbation unit applied to the later of a tied pair.
GAIN_PERTURB_REL = 1e-7
_GUARD_MAX_PASSES = 8


def _separate_gains(gains: Sequence[float]) -> list[float]:
    """Nudge near-tied gains apart deterministically.

    The k-th offender is scaled by (1 + GAIN_PERTURB_REL * k) so repeated
    values fan out; raises if ties survive the pass budget.
    """
    values = [float(g) for g in gains]
    for _ in range(_GUARD_MAX_PASSES):
        clash = None
        for b in range(1, len(values)):
            for a in range(b):
                if abs(values[a] - values[b]) <= GAIN_TIE_REL_TOL * max(values[a], values[b]):
                    clash = b
                    break
            if clash is not None:
                break
        if clash is None:
            return values
        values[clash] *= 1.0 + GAIN_PERTURB_REL * (clash + 1)
    raise DegenerateGainsError(f"gains remained tied after separation guard: {gains}")


def _pf_weights(gains: Sequence[float]) -> list[float]:
    """Partial-fraction weights w_k = prod_{l != k} g_k / (g_k - g_l).

    Each gain may also be an array, one entry per subset, to weigh many
    subsets of the same size at once."""
    weights = []
    for k, gk in enumerate(gains):
        prod = 1.0
        for l, gl in enumerate(gains):
            if l != k:
                prod *= gk / (gk - gl)
        weights.append(prod)
    return weights


# --- ergodic rates ----------------------------------------------------------

def log1p_inv(x: np.ndarray) -> np.ndarray:
    """ln(1 + 1/x) per element: the high-accuracy stand-in used by the
    approximated rates. ``log1p`` is libm's, per element."""
    return np.array([math.log1p(v) for v in (1.0 / x).tolist()])


def _near_ties(gains: np.ndarray) -> np.ndarray:
    """Rows of a (subsets x gains) array, each sorted ascending, that hold
    two gains ``_separate_gains`` treats as tied. Rounded subtraction is
    monotone, so in a sorted row any pair within tolerance makes some
    adjacent pair within it too: only neighbours are compared."""
    return (np.diff(gains, axis=1) <= GAIN_TIE_REL_TOL * gains[:, 1:]).any(axis=1)


def subset_rates(gains: np.ndarray, snrs,
                 kernel: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """Interference-free rates R_k(B), in bits/s/Hz, of every user k over
    every port subset B, for a block of drops at every linear SNR.

    ``gains`` is (drops x users x ports); the result is (drops x points x
    users x 2^N), indexed by B's port bitmask (bit j for port j), and
    mask 0 reads 0. R_k(B) = E[log2(1 + snr sum_{j in B} g_kj |h_kj|^2)]
    is the partial-fraction sum sum_j w_j exp_e1(1 / (g_j snr)) / ln 2
    over B's gains in ascending order, so it depends on B's gains alone,
    not on how the ports are numbered. The weights depend on the gains
    alone and are formed for all subsets of one size at once; only the
    near-tied subsets go through ``_separate_gains``, and every gain it
    moves gets a kernel value of its own. Every drop's gains, at every
    point, go to one kernel call. Each user's (drops x points x 2^N)
    slice is contiguous. ``kernel`` defaults to the exact
    ``numerics.exp_e1``; pass ``log1p_inv`` for the approximated rates.
    """
    gains = np.asarray(gains, dtype=float)
    n_drops, n_users, n_ports = gains.shape
    flat = gains.reshape(-1)
    members = (np.arange(1 << n_ports)[:, None] >> np.arange(n_ports)) & 1
    moved: list[float] = []
    groups = []
    for size in range(1, n_ports + 1):
        masks = np.flatnonzero(members.sum(axis=1) == size)
        ports = np.nonzero(members[masks])[1].reshape(len(masks), size)
        # Column in ``flat`` of each (drop, user, subset) gain, in ascending
        # gain order; a stable sort keeps tied gains in port order.
        cols = (np.arange(n_drops * n_users)[:, None, None] * n_ports + ports).reshape(-1, size)
        cols = np.take_along_axis(cols, np.argsort(flat[cols], axis=1, kind="stable"), axis=1)
        g = flat[cols]
        for r in np.flatnonzero(_near_ties(g)):
            try:
                values = _separate_gains(g[r].tolist())
            except DegenerateGainsError as exc:
                _, user, m = np.unravel_index(r, (n_drops, n_users, len(masks)))
                raise DegenerateGainsError(f"user {user + 1}, ports "
                                           f"{(ports[m] + 1).tolist()}: {exc}") from exc
            for j in np.flatnonzero(np.array(values) != g[r]):
                cols[r, j] = len(flat) + len(moved)
                moved.append(values[j])
            g[r] = values
        groups.append((masks, cols, _pf_weights(list(g.T))))
    snr = np.asarray(snrs, dtype=float)[:, None]
    x = 1.0 / (np.concatenate([flat, moved]) * snr)
    # Looked up per call, so a patched or traced numerics.exp_e1 is the one used.
    kernel = numerics.exp_e1 if kernel is None else kernel
    e = kernel(x.ravel()).reshape(x.shape)
    out = np.zeros((n_users, n_drops, len(snr), 1 << n_ports))
    for masks, cols, weights in groups:
        # Term by term in gain order, one (points x subsets) column at a time.
        total = weights[0] * e[:, cols[:, 0]]
        for w, col in zip(weights[1:], cols.T[1:]):
            total = total + w * e[:, col]
        total = (total / numerics.LN2).reshape(len(snr), n_drops, n_users, len(masks))
        out[..., masks] = total.transpose(2, 1, 0, 3)
    return out.transpose(1, 2, 0, 3)


def row_sum_rates(table: np.ndarray, rows) -> np.ndarray:
    """(drops x points x rows) sum rates of assignments from a
    ``subset_rates`` table: sum_k [R_k(A) - R_k(A minus S_k)], where A
    holds a row's active ports and S_k user k's serving ones. ``rows`` is
    a (rows x ports) set that every drop rates, or (drops x rows x ports),
    a set per drop. Users are added in index order and an idle user adds
    exactly 0.0, so a row's rate does not depend on the other rows, drops
    or points of the call.
    """
    rows = np.asarray(rows)
    n_masks = table.shape[3]
    bit = 1 << np.arange(rows.shape[-1])
    active = ((rows != 0) * bit).sum(axis=-1)
    total = None
    for k in range(table.shape[2]):
        rest = active - ((rows == k + 1) * bit).sum(axis=-1)
        user = table[:, :, k]
        if rows.ndim == 2:
            # The rows of a large set repeat few (A, A minus S_k) pairs, at
            # most 3^N: each pair's difference is taken once.
            pairs, pair = np.unique(active * n_masks + rest, return_inverse=True)
            rate = (user[:, :, pairs // n_masks] - user[:, :, pairs % n_masks])[:, :, pair]
        else:
            rate = (np.take_along_axis(user, active[:, None], axis=2)
                    - np.take_along_axis(user, rest[:, None], axis=2))
        total = rate if total is None else total + rate
    return total


def select_rows(rates: np.ndarray, starts=None) -> tuple[np.ndarray, np.ndarray]:
    """Best candidate at each point of a (... x points x candidates) rate
    array: its column and its rate, one per point. The first maximizer
    wins ties. With ``starts``, each run of candidates from one start to
    the next selects on its own, all at once, in (... x points x runs)."""
    if starts is None:
        return tuple(a[..., 0] for a in select_rows(rates, [0]))
    n = rates.shape[-1]
    top = np.repeat(np.maximum.reduceat(rates, starts, axis=-1), np.diff([*starts, n]), axis=-1)
    best = np.minimum.reduceat(np.where(rates == top, np.arange(n), n), starts, axis=-1)
    return best, np.take_along_axis(rates, best, axis=-1)


# --- two-port, two-user analysis -------------------------------------------

def crossover_snr(gains) -> tuple[float, float]:
    """Closed-form high-SNR crossovers, as linear SNRs, of the (2, 2) gain
    array ``gains``: where mode [1 1] overtakes [1 2], then where it
    overtakes [2 1]. When the second user's two gains coincide the ratio
    power r**(1/(r-1)) tends to e, and that limit is returned instead of
    failing.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (2, 2):
        raise ValueError(f"crossover analysis needs a 2x2 gain matrix, "
                         f"got shape {gains.shape}")
    s12 = float(gains[0, 1])
    s21, s22 = float(gains[1, 0]), float(gains[1, 1])
    if abs(s21 - s22) <= GAIN_TIE_REL_TOL * max(s21, s22):
        return math.e / s12, math.e / s21
    ratio = s21 / s22
    return ((1.0 / s12) * ratio ** (s22 / (s21 - s22)),
            (1.0 / s21) * ratio ** (s21 / (s21 - s22)))


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
