"""Closed-form SINR statistics and ergodic rates for fixed large-scale gains.

With Rayleigh fading, a user's aggregate signal power and its
interference-plus-noise power are each weighted sums of independent
exponentials, so both densities are hypoexponential mixtures obtained by
partial fractions. The ratio's density and the resulting ergodic rate
then reduce to combinations of scaled exponential-integral terms.
All formulas assume pairwise-distinct gains; near-ties are separated by a
deterministic relative perturbation (see ``GAIN_TIE_REL_TOL``), which the
continuity of the rate in the gains makes harmless.

Rates depend on the transmit and noise powers only through their ratio,
the linear SNR P / sigma^2, and the rate engine takes that alone. Every
closed-form rate goes through rate tables: ``rate_tables`` builds the
tables of a block of drops with array operations, where one ``np.unique``
over (user, serving-port bitmask, interfering-port bitmask) keys gives
the distinct partitions and the partial-fraction weights are computed
for all partitions of one size at once. Only the near-tied partitions
take the per-partition ``_separate_gains`` route. ``block_sum_rates``
then rates every table at many SNRs from one kernel call. The densities
of a ``UserLinkPartition`` are the physical model that ``verify`` checks
the tables against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .errors import DegenerateGainsError
from .geometry import PathlossMatrix, linear_to_db
from .modes import TransmissionMode, assignment_array

LN2 = math.log(2.0)

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


@dataclass(frozen=True)
class UserLinkPartition:
    """One user's link budget under a mode: desired vs. interfering gains.

    Construction separates near-tied gains across the union of both lists
    (the rate expression divides by every pairwise difference, including
    signal-vs-interference ones).
    """

    signal_gains: tuple[float, ...]
    interference_gains: tuple[float, ...]
    tx_power: float
    noise_power: float

    def __post_init__(self) -> None:
        if not self.signal_gains:
            raise ValueError("partition needs at least one signal gain")
        if any(g <= 0 for g in self.signal_gains + self.interference_gains):
            raise ValueError("all gains must be strictly positive")
        if self.tx_power <= 0 or self.noise_power <= 0:
            raise ValueError("tx_power and noise_power must be strictly positive")
        merged = _separate_gains(self.signal_gains + self.interference_gains)
        n_sig = len(self.signal_gains)
        object.__setattr__(self, "signal_gains", tuple(merged[:n_sig]))
        object.__setattr__(self, "interference_gains", tuple(merged[n_sig:]))


def _pf_weights(gains: Sequence[float]) -> list[float]:
    """Partial-fraction weights w_k = prod_{l != k} g_k / (g_k - g_l).

    Each gain may also be an array, one entry per partition, to weigh
    many partitions of the same size at once."""
    weights = []
    for k, gk in enumerate(gains):
        prod = 1.0
        for l, gl in enumerate(gains):
            if l != k:
                prod *= gk / (gk - gl)
        weights.append(prod)
    return weights


# --- densities and distribution functions ----------------------------------

def _hypoexponential(gains: Sequence[float], tx_power: float, shift: float,
                     cdf: bool) -> Callable:
    """Density, or with ``cdf`` the distribution function, of ``shift``
    plus independent exponentials with means g * P over ``gains``: the
    mixture sum_k w_k/(g_k P) * exp(-(rho - shift)/(g_k P)) on (shift, inf).
    """
    scales = [g * tx_power for g in gains]
    weights = _pf_weights(gains)

    def f(rho):
        excess = np.asarray(rho, dtype=float) - shift
        t = np.maximum(excess, 0.0)
        out = sum(w * -np.expm1(-t / s) if cdf else w / s * np.exp(-t / s)
                  for w, s in zip(weights, scales))
        return np.where(excess > 0.0, out, 0.0)

    return f


def pdf_signal(partition: UserLinkPartition) -> Callable:
    """Density of the aggregate received signal power on (0, inf)."""
    return _hypoexponential(partition.signal_gains, partition.tx_power, 0.0, cdf=False)


def cdf_signal(partition: UserLinkPartition) -> Callable:
    return _hypoexponential(partition.signal_gains, partition.tx_power, 0.0, cdf=True)


def _interferers(partition: UserLinkPartition) -> tuple:
    """Interference gains, transmit power and noise power of a partition
    that has interferers."""
    if not partition.interference_gains:
        raise ValueError("partition has no interference gains")
    return partition.interference_gains, partition.tx_power, partition.noise_power


def pdf_interference_plus_noise(partition: UserLinkPartition) -> Callable:
    """Density of noise power plus aggregate interference, on (noise, inf)."""
    return _hypoexponential(*_interferers(partition), cdf=False)


def cdf_interference_plus_noise(partition: UserLinkPartition) -> Callable:
    return _hypoexponential(*_interferers(partition), cdf=True)


def _sinr_terms(partition: UserLinkPartition) -> list[tuple[float, float, float, float]]:
    """(w_k, s_k, w_u, s_u) of every (signal, interferer) gain pair, in
    (k, u) order; the SINR ratio needs at least one interference gain.
    With none it reduces to signal/noise, and callers should use the
    no-interference rate path."""
    if not partition.interference_gains:
        raise ValueError("no interference gains: use the no-interference "
                         "rate path instead of the SINR ratio density")
    sig, intf = partition.signal_gains, partition.interference_gains
    return [(wk, sk, wu, su) for (wk, sk), (wu, su)
            in itertools.product(zip(_pf_weights(sig), sig), zip(_pf_weights(intf), intf))]


def pdf_sinr(partition: UserLinkPartition) -> Callable:
    """Density of the SINR ratio on (0, inf)."""
    terms = _sinr_terms(partition)
    p, noise = partition.tx_power, partition.noise_power

    def pdf(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        for wk, sk, wu, su in terms:
            denom = su * rho + sk
            out = out + (wk * wu * (noise * denom + sk * su * p) / denom ** 2
                         * np.exp(-noise * rho / (sk * p)))
        return np.where(rho > 0.0, out / p, 0.0)

    return pdf


def cdf_sinr(partition: UserLinkPartition) -> Callable:
    terms = _sinr_terms(partition)
    p, noise = partition.tx_power, partition.noise_power

    def cdf(rho):
        rho = np.asarray(rho, dtype=float)
        rpos = np.maximum(rho, 0.0)
        tail = np.zeros_like(rpos)
        for wk, sk, wu, su in terms:
            tail = tail + (wk * wu * sk / (sk + rpos * su) * np.exp(-noise * rpos / (sk * p)))
        return np.where(rho > 0.0, 1.0 - tail, 0.0)

    return cdf


# --- ergodic rates ----------------------------------------------------------

def log1p_inv(x: np.ndarray) -> np.ndarray:
    """ln(1 + 1/x) per element: the high-accuracy stand-in used by the
    approximated rates. ``log1p`` is libm's, per element, as in ``exp_e1``."""
    return np.array([math.log1p(v) for v in (1.0 / x).tolist()])


def _near_ties(gains: np.ndarray) -> np.ndarray:
    """Rows of a (partitions x gains) array that hold two gains
    ``_separate_gains`` treats as tied."""
    tied = np.zeros(len(gains), dtype=bool)
    for a, b in itertools.combinations(range(gains.shape[1]), 2):
        tied |= (np.abs(gains[:, a] - gains[:, b])
                 <= GAIN_TIE_REL_TOL * np.maximum(gains[:, a], gains[:, b]))
    return tied


class _Block:
    """Flat scaled-E1 term list of the partitions of one or more tables.

    Built from ``groups``, one per (signal count, interferer count): the
    slots of its partitions (numbered from 1; slot 0 is an idle user and
    reads 0), their (partitions x gains) columns into ``gains``, serving
    gains first, each part in ascending port order, and the signal count.
    Near-tied partitions go through ``_separate_gains``, and every gain it
    moves gets a kernel column of its own; ``where(slot)`` names a
    partition in its error. The weights are computed a whole group at a
    time, looping only over the gains of a partition in ``_pf_weights``
    order, so each term gets the floats of the per-partition formula.

    Term t adds ``coef[t] * (E[a[t]] - E[b[t]])`` to slot ``slot[t]``,
    where E holds the kernel at each of ``gains`` and column
    ``len(gains)`` reads 0 (the interferer of an interference-free term).
    A partition's terms are contiguous, in the formula's (k, u) order, so
    summing them one by one rounds as the per-partition formula does.
    ``index`` is the (rows x users) slot index of the tables that share
    the block.
    """

    def __init__(self, gains: np.ndarray, groups, index: np.ndarray,
                 where: Callable[[int], str]) -> None:
        self.index = index
        self.n_slots = 1 + sum(len(slots) for slots, _, _ in groups)
        moved: list[float] = []
        slot, coef, sig_col, intf_col = [], [], [], []
        for slots, cols, n_sig in groups:
            g = gains[cols]
            for r in np.nonzero(_near_ties(g))[0]:
                try:
                    values = _separate_gains(g[r].tolist())
                except DegenerateGainsError as exc:
                    raise DegenerateGainsError(f"{where(slots[r])}: {exc}") from exc
                for j in np.nonzero(np.array(values) != g[r])[0]:
                    cols[r, j] = len(gains) + len(moved)
                    moved.append(values[j])
                g[r] = values
            sig, intf = list(g[:, :n_sig].T), list(g[:, n_sig:].T)
            w_intf = _pf_weights(intf)
            # Coefficient of term (k, u): wk*wu*sk/(sk-su), or wk with no
            # interferer, where the single term is w_k * E(s_k).
            c = np.empty((len(slots), n_sig, max(len(intf), 1)))
            for k, (wk, sk) in enumerate(zip(_pf_weights(sig), sig)):
                if not intf:
                    c[:, k, 0] = wk
                for u, (wu, su) in enumerate(zip(w_intf, intf)):
                    c[:, k, u] = wk * wu * sk / (sk - su)
            slot.append(np.repeat(slots, c[0].size))
            coef.append(c.ravel())
            sig_col.append(np.broadcast_to(cols[:, :n_sig, None], c.shape).ravel())
            intf_col.append(np.broadcast_to(cols[:, None, n_sig:] if intf else -1,
                                            c.shape).ravel())
        self.slot, self.coef, sig_col, intf_col = (
            np.concatenate([np.zeros(0, dtype=dtype)] + parts)
            for parts, dtype in ((slot, np.intp), (coef, float),
                                 (sig_col, np.intp), (intf_col, np.intp)))
        # One kernel column per gain that some term reads; an absent
        # interferer maps to the column after the last.
        gains = np.concatenate([gains, moved])
        intf_col[intf_col < 0] = len(gains)
        used, col = np.unique(np.concatenate([sig_col, intf_col]), return_inverse=True)
        self.gains = gains[used[used < len(gains)]]
        self.a, self.b = np.split(col, [len(sig_col)])


def _slot_rates(blocks: Sequence[_Block], snrs,
                kernel: Callable[[np.ndarray], np.ndarray] | None = None
                ) -> list[np.ndarray]:
    """(points x slots) rates in bits/s/Hz of each block at every linear
    SNR, from one kernel call; slot 0 (no terms) reads 0."""
    snr = np.asarray(snrs, dtype=float)[:, None]
    args = [1.0 / (block.gains * snr) for block in blocks]
    # Looked up per call, so a patched or traced numerics.exp_e1 is the one used.
    kernel = numerics.exp_e1 if kernel is None else kernel
    values = kernel(np.concatenate([x.ravel() for x in args]))
    ends = np.cumsum([x.size for x in args])
    out = []
    for block, x, end in zip(blocks, args, ends):
        # Column len(gains) reads 0: the interferer of an interference-free term.
        e = np.zeros((len(snr), x.shape[1] + 1))
        e[:, :-1] = values[end - x.size:end].reshape(x.shape)
        flat = np.arange(0, len(snr) * block.n_slots, block.n_slots)[:, None] + block.slot
        rates = np.zeros(len(snr) * block.n_slots)
        # Sequential in (point, term) order: a matrix product over collapsed
        # gain columns rounds differently and moves near-tied rates by up to
        # ~1e-7 bits.
        np.add.at(rates, flat.ravel(), (block.coef * (e[:, block.a] - e[:, block.b])).ravel())
        out.append(rates.reshape(len(snr), block.n_slots) / LN2)
    return out


def block_sum_rates(tables: Sequence["RateTable"], snrs,
                    kernel: Callable[[np.ndarray], np.ndarray] | None = None
                    ) -> list[np.ndarray]:
    """(points x modes) sum rates of each table at every linear SNR.

    The kernel arguments of all tables and points go to one kernel call,
    since the array kernel pays off only on large batches. Users are added
    one by one in index order, so a rate does not depend on the other
    tables or points of the call. ``kernel`` defaults to the exact
    ``numerics.exp_e1``; pass ``log1p_inv`` for the approximated rates.
    """
    blocks = list(dict.fromkeys(table._block for table in tables))
    sums = {}
    for block, rates in zip(blocks, _slot_rates(blocks, snrs, kernel)):
        # The rows of every table of the block that was asked for.
        lo = min(t._rows.start for t in tables if t._block is block)
        hi = max(t._rows.stop for t in tables if t._block is block)
        index = block.index[lo:hi]
        # One user column at a time: no (points x modes x users) array.
        total = rates[:, index[:, 0]]
        for k in range(1, index.shape[1]):
            total = total + rates[:, index[:, k]]
        sums[block] = (lo, total)
    out = []
    for table in tables:
        lo, total = sums[table._block]
        out.append(total[:, table._rows.start - lo:table._rows.stop - lo])
    return out


def _layout(gains: np.ndarray, drop_modes) -> tuple[_Block, list[slice]]:
    """One block of partition terms for the tables of several drops.

    ``gains`` is (drops x users x ports) and ``drop_modes`` gives each
    drop's mode sequences, each an int assignment array or a sequence of
    TransmissionMode; one shared by several drops (the same object) is
    laid out once. Each active (mode, user) pair is keyed by (user,
    serving-port bitmask, interfering-port bitmask), and one ``np.unique``
    gives the distinct keys; a drop's partitions are the keys its rows
    use, so a mode repeated in a drop's sequences costs only index
    entries. Returns the block and each drop's row range in its index.
    """
    n_drops, n_users, n_ports = gains.shape
    sequences = list({id(modes): modes for seqs in drop_modes for modes in seqs}.values())
    first_of = {id(modes): i for i, modes in enumerate(sequences)}
    parts = [assignment_array(modes, n_ports) for modes in sequences]
    rows = np.concatenate([np.zeros((0, n_ports), dtype=np.int64)] + parts)
    starts = np.cumsum([0] + [len(part) for part in parts])
    # The distinct row and the drop of each table row.
    source = np.concatenate([np.zeros(0, dtype=np.intp)] + [
        np.arange(starts[first_of[id(modes)]], starts[first_of[id(modes)] + 1])
        for seqs in drop_modes for modes in seqs])
    bounds = np.cumsum([0] + [sum(len(modes) for modes in seqs) for seqs in drop_modes])
    drop_of = np.repeat(np.arange(n_drops), np.diff(bounds))[:, None]
    # Keys that would not fit in int64 stay Python ints.
    dtype = np.int64 if n_users << (2 * n_ports) < 2 ** 62 else object
    bit = np.array([1 << j for j in range(n_ports)], dtype=dtype)
    serving = ((rows[:, None, :] == np.arange(1, n_users + 1)[:, None]) * bit).sum(axis=2)
    interfering = ((rows != 0) * bit).sum(axis=1)[:, None] - serving
    user = np.arange(n_users).astype(dtype)
    key = (user * 2 ** n_ports + serving) * 2 ** n_ports + interfering
    active = serving != 0
    _, first, type_of = np.unique(key[active], return_index=True, return_inverse=True)
    n_types = len(first)
    # (row, user) of each key's first use; idle pairs get type n_types.
    rep_row, rep_user = (axis[first] for axis in np.nonzero(active))
    tid = np.full(key.shape, n_types, dtype=np.intp)
    tid[active] = type_of
    # Ports of each key: serving ones, then interfering ones, each ascending.
    role = np.where(rows[rep_row] == rep_user[:, None] + 1, 0, np.where(rows[rep_row] != 0, 1, 2))
    ports = np.argsort(role, axis=1, kind="stable")
    n_sig = (role == 0).sum(axis=1)
    n_int = (role == 1).sum(axis=1)

    # A drop's partitions are the types its table rows use, numbered from
    # 1 in (drop, type) order.
    tid = tid[source]
    need = np.zeros((n_drops, n_types + 1), dtype=bool)
    need[drop_of, tid] = True
    need[:, n_types] = False
    part_drop, part_type = np.nonzero(need)
    slot = np.zeros(need.shape, dtype=np.intp)
    slot[part_drop, part_type] = np.arange(1, len(part_drop) + 1)
    index = slot[drop_of, tid]

    # Column of each partition's gain row in the flattened gain array.
    row_col = (part_drop * n_users + rep_user[part_type]) * n_ports
    size = n_sig[part_type] * (n_ports + 1) + n_int[part_type]
    groups = []
    for s in np.flatnonzero(np.bincount(size)):
        members = np.nonzero(size == s)[0]
        t = part_type[members]
        width = n_sig[t[0]] + n_int[t[0]]
        groups.append((members + 1, row_col[members, None] + ports[t, :width], n_sig[t[0]]))

    def where(s: int) -> str:
        t = part_type[s - 1]
        return (f"user {rep_user[t] + 1}, mode "
                f"{TransmissionMode(tuple(rows[rep_row[t]].tolist())).label}")

    block = _Block(np.asarray(gains, dtype=float).reshape(-1), groups, index, where)
    return block, [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class RateTable:
    """Closed-form rates of every mode of one drop.

    A user's exact rate is a weighted sum of scaled-E1 terms at
    ``x = 1 / (g * snr)`` whose weights depend only on gain ratios, so
    the terms of each distinct (user, serving ports, interfering ports)
    partition are built once, with no SNR involved. ``rate_tables`` builds
    the tables of a block of drops in one array pass. A table's rows are
    its mode sequences, concatenated in order, repeats included. An
    evaluation needs the kernel once per gain and point, and rates every
    mode; ``block_sum_rates`` evaluates many tables and points at once.
    """

    def __init__(self, block: _Block, rows: slice, sequences: tuple) -> None:
        self._block = block
        self._rows = rows
        self._sequences = sequences

    def rows(self, modes) -> slice:
        """Rows of ``modes``, one of the mode sequences (the same object)
        the table was built from."""
        start = 0
        for sequence in self._sequences:
            if modes is sequence:
                return slice(start, start + len(sequence))
            start += len(sequence)
        raise ValueError("modes are not a sequence the rate table was built from")

    def user_rates(self, snr: float,
                   kernel: Callable[[np.ndarray], np.ndarray] | None = None
                   ) -> np.ndarray:
        """(modes x users) rates at linear SNR ``snr``; idle users get 0.
        ``kernel`` is as for ``block_sum_rates``."""
        rates = _slot_rates([self._block], [snr], kernel)
        return rates[0][0][self._block.index[self._rows]]


def rate_tables(gains: np.ndarray, drop_modes) -> list[RateTable]:
    """Rate tables of a block of drops.

    ``gains`` is the (drops x users x ports) gain array and ``drop_modes``
    lists, per drop, the mode sequences of its table, as for ``_layout``;
    ``rows`` finds each sequence's rows with no lookup. One block of
    partition terms serves every table, so ``block_sum_rates`` rates them
    together.
    """
    block, rows = _layout(gains, drop_modes)
    return [RateTable(block, r, tuple(sequences)) for r, sequences in zip(rows, drop_modes)]


# --- two-port, two-user analysis -------------------------------------------

@dataclass(frozen=True)
class CrossoverFormulas:
    """High-SNR crossover points (linear SNR) from the closed-form rule.

    ``single_vs_12``: where mode [1 1] overtakes [1 2];
    ``single_vs_21``: where mode [1 1] overtakes [2 1].
    """

    single_vs_12: float
    single_vs_21: float

    @property
    def single_vs_12_db(self) -> float:
        return linear_to_db(self.single_vs_12)

    @property
    def single_vs_21_db(self) -> float:
        return linear_to_db(self.single_vs_21)


def crossover_snr(pathloss: PathlossMatrix) -> CrossoverFormulas:
    """Closed-form high-SNR crossover of single-user vs. two-user modes.

    Valid for the 2x2 case. When the second user's two gains coincide the
    ratio power r**(1/(r-1)) tends to e, and that limit is returned
    instead of failing.
    """
    gains = pathloss.gains
    if gains.shape != (2, 2):
        raise ValueError(f"crossover analysis needs a 2x2 gain matrix, "
                         f"got shape {gains.shape}")
    s12 = float(gains[0, 1])
    s21, s22 = float(gains[1, 0]), float(gains[1, 1])
    if abs(s21 - s22) <= GAIN_TIE_REL_TOL * max(s21, s22):
        return CrossoverFormulas(single_vs_12=math.e / s12,
                                 single_vs_21=math.e / s21)
    ratio = s21 / s22
    vs_12 = (1.0 / s12) * ratio ** (s22 / (s21 - s22))
    vs_21 = (1.0 / s21) * ratio ** (s21 / (s21 - s22))
    return CrossoverFormulas(single_vs_12=vs_12, single_vs_21=vs_21)


def rate_curve_intersection_db(rate_a: Callable[[np.ndarray], np.ndarray],
                               rate_b: Callable[[np.ndarray], np.ndarray],
                               lo_db: float = -20.0, hi_db: float = 80.0,
                               tol_db: float = 1e-4,
                               scan_step_db: float = 0.25) -> float | None:
    """Highest-SNR crossing of two rate curves, located by bisection.

    ``rate_a``/``rate_b`` map an array of linear SNRs to bits/s/Hz. The
    difference is scanned on a dB grid, in one call per curve, and the
    last sign change is refined; returns the crossing in dB, or None when
    the curves do not cross in range.
    """
    def diff(dbs: list[float]) -> list[float]:
        rhos = np.array([10.0 ** (db / 10.0) for db in dbs])
        return (np.asarray(rate_a(rhos)) - np.asarray(rate_b(rhos))).tolist()

    n_steps = int(math.ceil((hi_db - lo_db) / scan_step_db))
    grid = [lo_db + i * (hi_db - lo_db) / n_steps for i in range(n_steps + 1)]
    values = diff(grid)

    bracket = None
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            bracket = (grid[i], grid[i])
        elif values[i] * values[i + 1] < 0.0:
            bracket = (grid[i], grid[i + 1])
    if bracket is None:
        return None

    lo, hi = bracket
    f_lo = diff([lo])[0]
    while hi - lo > tol_db:
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
    ones, each None when the curves do not cross in range."""
    (table,) = rate_tables(np.asarray(gains, dtype=float)[None],
                           [[(TransmissionMode((1, 1)), TransmissionMode((1, 2)))]])

    def curve(row, kernel):
        return lambda snr: block_sum_rates([table], snr, kernel)[0][:, row]

    approx_db, exact_db = (rate_curve_intersection_db(curve(0, kernel), curve(1, kernel))
                           for kernel in (log1p_inv, None))
    return approx_db, exact_db
