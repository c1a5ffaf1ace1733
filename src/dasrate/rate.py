"""Closed-form SINR statistics and ergodic rates for fixed large-scale gains.

With Rayleigh fading, a user's aggregate signal power and its
interference-plus-noise power are each weighted sums of independent
exponentials, so both densities are hypoexponential mixtures obtained by
partial fractions. The ratio's density and the resulting ergodic rate
then reduce to combinations of scaled exponential-integral terms.
All formulas assume pairwise-distinct gains; near-ties are separated by a
deterministic relative perturbation (see ``GAIN_TIE_REL_TOL``), which the
continuity of the rate in the gains makes harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .errors import DegenerateGainsError
from .geometry import PathlossMatrix, Scenario, linear_to_db
from .modes import TransmissionMode

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


def partition_for_user(pathloss: PathlossMatrix, mode: TransmissionMode,
                       user: int, tx_power: float,
                       noise_power: float) -> UserLinkPartition | None:
    """Partition for a (1-based) user, or None when the mode leaves it idle."""
    ports = mode.support_sets.get(user)
    if not ports:
        return None
    row = pathloss.gains[user - 1]
    signal = tuple(float(row[j]) for j in sorted(ports))
    interference = tuple(float(row[j]) for j in sorted(mode.complements[user]))
    return UserLinkPartition(signal_gains=signal, interference_gains=interference,
                             tx_power=tx_power, noise_power=noise_power)


def _pf_weights(gains: Sequence[float]) -> list[float]:
    """Partial-fraction weights w_k = prod_{l != k} g_k / (g_k - g_l)."""
    weights = []
    for k, gk in enumerate(gains):
        prod = 1.0
        for l, gl in enumerate(gains):
            if l != k:
                prod *= gk / (gk - gl)
        weights.append(prod)
    return weights


# --- densities and distribution functions ----------------------------------

def pdf_signal(partition: UserLinkPartition) -> Callable:
    """Density of the aggregate received signal power on (0, inf).

    Hypoexponential mixture: sum_k w_k/(S_k P) * exp(-rho/(S_k P)).
    """
    scales = [g * partition.tx_power for g in partition.signal_gains]
    weights = _pf_weights(partition.signal_gains)

    def pdf(rho):
        rho = np.asarray(rho, dtype=float)
        out = sum(w / s * np.exp(-rho / s) for w, s in zip(weights, scales))
        return np.where(rho > 0.0, out, 0.0)

    return pdf


def cdf_signal(partition: UserLinkPartition) -> Callable:
    scales = [g * partition.tx_power for g in partition.signal_gains]
    weights = _pf_weights(partition.signal_gains)

    def cdf(rho):
        rho = np.asarray(rho, dtype=float)
        out = sum(w * (-np.expm1(-np.maximum(rho, 0.0) / s))
                  for w, s in zip(weights, scales))
        return np.where(rho > 0.0, out, 0.0)

    return cdf


def pdf_interference_plus_noise(partition: UserLinkPartition) -> Callable:
    """Density of noise power plus aggregate interference, on (noise, inf)."""
    if not partition.interference_gains:
        raise ValueError("partition has no interference gains")
    noise = partition.noise_power
    scales = [g * partition.tx_power for g in partition.interference_gains]
    weights = _pf_weights(partition.interference_gains)

    def pdf(rho):
        rho = np.asarray(rho, dtype=float)
        shifted = rho - noise
        out = sum(w / s * np.exp(-np.maximum(shifted, 0.0) / s)
                  for w, s in zip(weights, scales))
        return np.where(shifted > 0.0, out, 0.0)

    return pdf


def cdf_interference_plus_noise(partition: UserLinkPartition) -> Callable:
    if not partition.interference_gains:
        raise ValueError("partition has no interference gains")
    noise = partition.noise_power
    scales = [g * partition.tx_power for g in partition.interference_gains]
    weights = _pf_weights(partition.interference_gains)

    def cdf(rho):
        rho = np.asarray(rho, dtype=float)
        shifted = np.maximum(rho - noise, 0.0)
        out = sum(w * (-np.expm1(-shifted / s)) for w, s in zip(weights, scales))
        return np.where(rho > noise, out, 0.0)

    return cdf


def pdf_sinr(partition: UserLinkPartition) -> Callable:
    """Density of the SINR ratio on (0, inf).

    Requires at least one interference gain; with none the ratio reduces
    to signal/noise and callers should use the no-interference rate path.
    """
    if not partition.interference_gains:
        raise ValueError("no interference gains: use the no-interference "
                         "rate path instead of the SINR ratio density")
    sig, intf = partition.signal_gains, partition.interference_gains
    p, noise = partition.tx_power, partition.noise_power
    w_sig, w_intf = _pf_weights(sig), _pf_weights(intf)

    def pdf(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        for wk, sk in zip(w_sig, sig):
            for wu, su in zip(w_intf, intf):
                denom = su * rho + sk
                out = out + (wk * wu * (noise * denom + sk * su * p) / denom ** 2
                             * np.exp(-noise * rho / (sk * p)))
        out = out / p
        return np.where(rho > 0.0, out, 0.0)

    return pdf


def cdf_sinr(partition: UserLinkPartition) -> Callable:
    if not partition.interference_gains:
        raise ValueError("no interference gains: use the no-interference path")
    sig, intf = partition.signal_gains, partition.interference_gains
    p, noise = partition.tx_power, partition.noise_power
    w_sig, w_intf = _pf_weights(sig), _pf_weights(intf)

    def cdf(rho):
        rho = np.asarray(rho, dtype=float)
        rpos = np.maximum(rho, 0.0)
        tail = np.zeros_like(rpos)
        for wk, sk in zip(w_sig, sig):
            for wu, su in zip(w_intf, intf):
                tail = tail + (wk * wu * sk / (sk + rpos * su)
                               * np.exp(-noise * rpos / (sk * p)))
        return np.where(rho > 0.0, 1.0 - tail, 0.0)

    return cdf


# --- ergodic rates ----------------------------------------------------------

def log1p_inv(x: np.ndarray) -> np.ndarray:
    """ln(1 + 1/x) per element: the high-accuracy stand-in used by the
    approximated rates. ``log1p`` is libm's, per element, as in ``exp_e1``."""
    return np.array([math.log1p(v) for v in (1.0 / x).tolist()])


def _partition_terms(partitions: Sequence[UserLinkPartition]):
    """Flat scaled-E1 term list of ``partitions``, numbered from slot 1.

    Returns ``(n_slots, slot, coef, a, b, gains)``. Term t adds
    ``coef[t] * (E[a[t]] - E[b[t]])`` to slot ``slot[t]``, where E holds the
    kernel at each of ``gains`` and index ``len(gains)`` reads 0 (the
    interferer of an interference-free term). Terms keep each partition's
    (signal, interferer) loop order, so summing them one by one rounds
    exactly as the per-partition formula does.
    """
    slot, coef, sig_g, intf_g = [], [], [], []
    for s, part in enumerate(partitions, start=1):
        sig, intf = part.signal_gains, part.interference_gains
        w_sig, w_intf = _pf_weights(sig), _pf_weights(intf)
        for wk, sk in zip(w_sig, sig):
            # With no interferer the single term is w_k * E(s_k).
            for wu, su in zip(w_intf, intf) if intf else [(None, None)]:
                slot.append(s)
                coef.append(wk if su is None else wk * wu * sk / (sk - su))
                sig_g.append(sk)
                intf_g.append(su)
    gains = sorted(set(sig_g).union(intf_g) - {None})
    where = {g: i for i, g in enumerate(gains)}
    where[None] = len(gains)
    return (len(partitions) + 1, np.array(slot, dtype=np.intp), np.array(coef),
            np.array([where[g] for g in sig_g], dtype=np.intp),
            np.array([where[g] for g in intf_g], dtype=np.intp), np.array(gains))


def _slot_rates(term_lists, noise_powers, tx_powers,
                kernel: Callable[[np.ndarray], np.ndarray] | None = None
                ) -> list[np.ndarray]:
    """(points x slots) rates in bits/s/Hz of each term list at every
    transmit power, from one kernel call; slot 0 (no terms) reads 0."""
    tx = np.asarray(tx_powers, dtype=float)[:, None]
    args = [noise / (terms[5] * tx) for terms, noise in zip(term_lists, noise_powers)]
    # Looked up per call, so a patched or traced numerics.exp_e1 is the one used.
    kernel = numerics.exp_e1 if kernel is None else kernel
    values = kernel(np.concatenate([x.ravel() for x in args]))
    ends = np.cumsum([x.size for x in args])
    out = []
    for (n_slots, slot, coef, a, b, _), x, end in zip(term_lists, args, ends):
        # Column len(gains) reads 0: the interferer of an interference-free term.
        e = np.zeros((len(tx), x.shape[1] + 1))
        e[:, :-1] = values[end - x.size:end].reshape(x.shape)
        flat = np.arange(0, len(tx) * n_slots, n_slots)[:, None] + slot
        rates = np.zeros(len(tx) * n_slots)
        # Sequential in (point, term) order: a matrix product over collapsed
        # gain columns rounds differently and moves near-tied rates by up to
        # ~1e-7 bits.
        np.add.at(rates, flat.ravel(), (coef * (e[:, a] - e[:, b])).ravel())
        out.append(rates.reshape(len(tx), n_slots) / LN2)
    return out


def block_sum_rates(tables: Sequence["RateTable"], tx_powers,
                    kernel: Callable[[np.ndarray], np.ndarray] | None = None
                    ) -> list[np.ndarray]:
    """(points x modes) sum rates of each table at every transmit power.

    The kernel arguments of all tables and points go to one kernel call,
    since the array kernel pays off only on large batches. Users are added
    one by one in index order, so a rate does not depend on the other
    tables or points of the call. ``kernel`` defaults to the exact
    ``numerics.exp_e1``; pass ``log1p_inv`` for the approximated rates.
    """
    slot_rates = _slot_rates([t._terms for t in tables],
                             [t.noise_power for t in tables], tx_powers, kernel)
    out = []
    for table, rates in zip(tables, slot_rates):
        # One user column at a time: no (points x modes x users) array.
        total = rates[:, table._index[:, 0]]
        for k in range(1, table._index.shape[1]):
            total = total + rates[:, table._index[:, k]]
        out.append(total)
    return out


class RateTable:
    """Closed-form rates of every mode of one drop, built once per drop.

    A user's exact rate is a weighted sum of scaled-E1 terms at
    ``x = noise / (g * P)`` whose weights depend only on gain ratios, so
    the terms of each distinct (user, serving ports, interfering ports)
    partition are built once, with no SNR involved. An evaluation then
    needs the kernel once per distinct gain and point, and rates every
    mode; ``block_sum_rates`` evaluates many tables and points at once.
    """

    def __init__(self, scenario: Scenario, pathloss: PathlossMatrix,
                 modes: Sequence[TransmissionMode]) -> None:
        self.modes = tuple(modes)
        self.noise_power = scenario.noise_power
        self._row = {mode.assignment: m for m, mode in enumerate(self.modes)}
        slots: dict = {}
        parts: list[UserLinkPartition] = []
        # (mode, user) -> partition slot; slot 0 is an idle user.
        self._index = np.zeros((len(self.modes), scenario.n_users), dtype=np.intp)
        for m, mode in enumerate(self.modes):
            for user, ports in mode.support_sets.items():
                key = (user, ports, mode.complements[user])
                if key not in slots:
                    try:
                        parts.append(partition_for_user(pathloss, mode, user,
                                                        scenario.tx_power,
                                                        scenario.noise_power))
                    except DegenerateGainsError as exc:
                        raise DegenerateGainsError(
                            f"user {user}, mode {mode.label}: {exc}") from exc
                    slots[key] = len(parts)
                self._index[m, user - 1] = slots[key]
        self._terms = _partition_terms(parts)

    def rows(self, modes: Sequence[TransmissionMode]) -> np.ndarray:
        """Row indices of ``modes``, each of which must be in the table."""
        try:
            return np.array([self._row[m.assignment] for m in modes], dtype=np.intp)
        except KeyError as exc:
            label = TransmissionMode(exc.args[0]).label
            raise ValueError(f"mode {label} is not in the rate table") from None

    def user_rates(self, tx_power: float,
                   kernel: Callable[[np.ndarray], np.ndarray] | None = None
                   ) -> np.ndarray:
        """(modes x users) rates at transmit power ``tx_power``; idle users
        get 0. ``kernel`` is as for ``block_sum_rates``."""
        rates = _slot_rates([self._terms], [self.noise_power], [tx_power], kernel)
        return rates[0][0][self._index]

    def sum_rates(self, tx_power: float,
                  kernel: Callable[[np.ndarray], np.ndarray] | None = None
                  ) -> np.ndarray:
        """Sum rate of every mode at transmit power ``tx_power``: the
        one-table, one-point case of ``block_sum_rates``."""
        return block_sum_rates([self], [tx_power], kernel)[0][0]


def ergodic_user_rate(partition: UserLinkPartition) -> float:
    """Exact ergodic rate of one user, in bits/s/Hz.

    Weighted differences of scaled-E1 terms; with no interferers the
    terms are the signal-only ones.
    """
    terms = _partition_terms([partition])
    rates = _slot_rates([terms], [partition.noise_power], [partition.tx_power])[0]
    return float(rates[0, 1])


@dataclass(frozen=True)
class AnalysisPoint:
    """Closed-form rates of one (scenario, mode) pair at one SNR."""

    snr: float
    per_user_rates: tuple[float, ...]
    sum_rate: float


def ergodic_sum_rate(scenario: Scenario, pathloss: PathlossMatrix,
                     mode: TransmissionMode) -> AnalysisPoint:
    """Exact ergodic sum rate: per-user rates summed over active users.

    Users not served by the mode contribute exactly zero.
    """
    table = RateTable(scenario, pathloss, (mode,))
    per_user = table.user_rates(scenario.tx_power)[0].tolist()
    return AnalysisPoint(snr=scenario.snr, per_user_rates=tuple(per_user),
                         sum_rate=float(sum(per_user)))


def approx_sum_rate(scenario: Scenario, pathloss: PathlossMatrix,
                    mode: TransmissionMode) -> float:
    """Approximated sum rate: every scaled-E1 term replaced by ln(1 + 1/x).

    The substitution upper-bounds each term individually, but differences
    of substituted terms carry no sign guarantee, so this is not a bound
    on the exact sum rate in general.
    """
    table = RateTable(scenario, pathloss, (mode,))
    return float(table.sum_rates(scenario.tx_power, log1p_inv)[0])


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


def single_user_rate_lower_bound(pathloss: PathlossMatrix, user_index: int,
                                 snr: float) -> float:
    """log2(max-gain * snr + 1): floor on the all-ports single-user rate."""
    gains = pathloss.gains
    if gains.shape[1] != 2:
        raise ValueError("single-user bound is stated for the two-port case")
    best = float(np.max(gains[user_index - 1]))
    return math.log2(best * snr + 1.0)


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
