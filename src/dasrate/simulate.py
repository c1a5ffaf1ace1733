"""Monte Carlo fading engine and cell-averaged experiments.

Fading power gains are drawn directly as unit-mean exponentials (the
squared magnitude of a unit-variance complex Gaussian). All randomness is
keyed by counter-based streams derived from (seed, drop, point, chunk).
Each chunk rates only the mode's active users, each from its own signal
and interference ports, added in the order of the dense
``np.einsum("tkn,kn->tk")`` form on the numpy 2.4.6 x86-64 baseline
build, so Monte Carlo bytes are tied to that build.
Each block of drops draws every chunk of every estimate into one fading
buffer, allocated once: a fresh chunk-sized array per draw is freed to
the OS at the heap top and page-faulted in again by the next chunk,
which cost up to a sixth of a Monte Carlo sweep's time.
A command runs its drops on at most one process pool, with no more
workers than blocks of drops, and imports the pool machinery only when
it starts one. Each drop combines its Monte Carlo chunks in chunk order,
and drop results are combined in drop order, so outputs are
bit-identical for a given seed regardless of worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy loads its random module lazily, on first use; load it at import
# so the first drop of a timed command does not pay for it.
import numpy.random  # noqa: F401

from .errors import ConfigError
from .geometry import PathlossMatrix, Scenario, db_to_linear, drop_users_uniform, pathloss_matrix
from .modes import (CandidateSet, Origin, TransmissionMode, enumerate_ideal,
                    nearest_user_sets)
from .rate import block_sum_rates, rate_tables
from .selection import select_mode

# Full-scale experiment defaults; CI-scale runs pass smaller counts.
DEFAULT_N_CHANNELS = 5000
DEFAULT_N_DROPS = 4000

# Most SNR points one grid spec or histogram range may hold.
MAX_GRID_POINTS = 10_000

# Most worker processes one command may ask for.
MAX_JOBS = 256

# Trials per RNG stream; fixed, so the draws depend only on the seed and
# the trial count.
MC_CHUNK = 8192


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_trials: int


@dataclass(frozen=True)
class RateSeries:
    label: str
    kind: str  # "analytic" or "mc"
    values: tuple[float, ...]
    std_errors: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RateCurve:
    snr_grid_db: tuple[float, ...]
    series: tuple[RateSeries, ...]

    def __post_init__(self) -> None:
        names = [(s.label, s.kind) for s in self.series]
        if len(set(names)) != len(names):
            raise ValueError("duplicate (label, kind) pairs in rate curve")
        for s in self.series:
            if len(s.values) != len(self.snr_grid_db):
                raise ValueError(f"series {s.label!r} length does not match grid")


def _stream(entropy, spawn_key) -> np.random.Generator:
    """Counter-based generator for one (seed, index...) key."""
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.Philox(seq))


def _add(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """a + b, where None stands for an array of exact zeros."""
    if a is None:
        return b
    return a if b is None else a + b


def _port_sum(h_user: np.ndarray, weights: np.ndarray, ports) -> np.ndarray | None:
    """Sum of ``h_user[:, j] * weights[j]`` over ``ports`` (None for no
    ports), where ``h_user`` is ``h[:, k]`` of a (T, K, N) draw: bit for
    bit column k of ``np.einsum("tkn,kn->tk", h, w)`` with ``w[k]``
    zero off ``ports``.

    A zero-weight port adds an exact +0, so only ``ports`` are added, in
    the order of einsum's kernel on the numpy 2.4.6 x86-64 baseline build
    (two float64 lanes, no fused multiply-add): lane 0 adds the even ports
    and lane 1 the odd ones; within each whole block of 8 ports a lane
    adds its four from the highest down; the ports after the last whole
    block follow in ascending order; the sum is lane 0 + lane 1.
    """
    whole = h_user.shape[1] // 8 * 8
    lanes: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])
    for j in sorted(ports, key=lambda j: (j // 8, -j if j < whole else j)):
        lanes[j % 2].append(h_user[:, j] * weights[j])
    return _add(*(functools.reduce(_add, lane, None) for lane in lanes))


def _user_sum(rates: list[np.ndarray | None]) -> np.ndarray | None:
    """Sum of the per-user ``rates`` (None for an idle user, whose rate is
    an exact +0), bit for bit numpy's pairwise ``sum(axis=1)`` over the
    (T, K) array of them: in order below 8 users, else 8 strided partial
    sums, and halves beyond 128 users."""
    n = len(rates)
    if n < 8:
        return functools.reduce(_add, rates, None)
    if n <= 128:
        whole = n // 8 * 8
        r = [functools.reduce(_add, rates[j:whole:8], None) for j in range(8)]
        head = _add(_add(_add(r[0], r[1]), _add(r[2], r[3])),
                    _add(_add(r[4], r[5]), _add(r[6], r[7])))
        return functools.reduce(_add, rates[whole:], head)
    half = n // 2 // 8 * 8
    return _add(_user_sum(rates[:half]), _user_sum(rates[half:]))


def _sum_rates(h: np.ndarray, weights: np.ndarray, mode: TransmissionMode,
               noise: float) -> np.ndarray:
    """Sum rate of ``mode`` for each (K, N) draw of a (T, K, N) block of
    fading power gains, given the per-(user, port) received-power weights
    S*P. Only the active users' own ports are read."""
    per_user: list[np.ndarray | None] = [None] * len(weights)
    for user, ports in mode.support_sets.items():
        k = user - 1
        signal = _port_sum(h[:, k], weights[k], ports)
        interference = _port_sum(h[:, k], weights[k], mode.complements[user])
        denom = noise if interference is None else noise + interference
        per_user[k] = np.log2(1.0 + signal / denom)
    rates = _user_sum(per_user)
    return np.zeros(len(h)) if rates is None else rates


def _chunk_sizes(n_trials: int, chunk: int = MC_CHUNK) -> list[int]:
    full, rest = divmod(n_trials, chunk)
    return [chunk] * full + ([rest] if rest else [])


def fading_buffer(n_channels: int, n_users: int, n_ports: int) -> np.ndarray:
    """Room for the largest chunk of an ``n_channels`` estimate over
    (n_users, n_ports) draws; estimates that share it draw into it."""
    if n_channels < 2:
        raise ValueError("n_channels must be >= 2")
    return np.empty((min(n_channels, MC_CHUNK), n_users, n_ports))


def mc_ergodic_sum_rate(scenario: Scenario, pathloss: PathlossMatrix,
                        mode: TransmissionMode, n_channels: int,
                        seed, *, fading: np.ndarray | None = None) -> McEstimate:
    """Monte Carlo estimate of the ergodic sum rate over fading.

    ``seed`` may be an int or a tuple of ints (callers namespace nested
    experiments by passing e.g. (seed, drop, point)). Every chunk is
    drawn into ``fading``, a ``fading_buffer`` that many estimates may
    share; without one the estimate allocates its own.
    """
    if n_channels < 2:
        raise ValueError("n_channels must be >= 2")
    weights = pathloss.gains * scenario.tx_power
    shape = (min(n_channels, MC_CHUNK), *weights.shape)
    if fading is None:
        fading = np.empty(shape)
    elif (fading.dtype != np.float64 or not fading.flags.c_contiguous
          or fading.shape[1:] != shape[1:] or fading.shape[0] < shape[0]):
        raise ValueError(f"fading buffer must be C-contiguous float64 with shape "
                         f"{shape} or more rows, got {fading.dtype} {fading.shape}")
    total = 0.0
    total_sq = 0.0
    # One stream per fixed-size chunk, summed in chunk order.
    for c, size in enumerate(_chunk_sizes(n_channels)):
        h = _stream(seed, (c,)).standard_exponential(out=fading[:size])
        rates = _sum_rates(h, weights, mode, scenario.noise_power)
        total += float(rates.sum())
        total_sq += float(np.square(rates).sum())
    mean = total / n_channels
    var = max(total_sq - n_channels * mean * mean, 0.0) / (n_channels - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n_channels),
                      n_trials=n_channels)


# --- cell-averaged experiments ----------------------------------------------

Scheme = str | TransmissionMode  # "ideal" | "min-distance" | fixed mode


def _scheme_label(scheme: Scheme) -> str:
    return scheme.label if isinstance(scheme, TransmissionMode) else scheme


def _block_worker(args) -> list[tuple[list[list[TransmissionMode]], np.ndarray]]:
    """Chosen modes and their rates for a block of consecutive drops, in
    drop order: per drop, one list of modes and one row of values per
    candidate set, one entry per grid point.

    A set of None stands for the drop's nearest-user set; the block's
    nearest-user sets come from one array pass. Each drop gets one rate
    table with a row for every mode of its sets, all built in one array
    pass, and the tables of the block are evaluated in one kernel call per
    slice of at most MAX_BLOCK_DROP_POINTS drop-points, usually the whole
    grid; every set selects from its drop's rate vector at each point.
    The recorded value is the closed-form rate, or the Monte Carlo mean
    when ``rating`` is "mc": one estimate per distinct chosen mode and
    (drop, point), since the stream key does not depend on the scheme,
    every one drawn into the block's one fading buffer.
    """
    (template, sets, grid_db, n_channels, seed, drops, rating) = args
    fading = (fading_buffer(n_channels, template.n_users, template.n_ports)
              if rating == "mc" else None)
    tx_powers = [db_to_linear(snr_db) * template.noise_power for snr_db in grid_db]
    scenarios = [drop_users_uniform(
        template, np.random.SeedSequence(entropy=seed, spawn_key=(drop,))) for drop in drops]
    pls = [pathloss_matrix(scenario) for scenario in scenarios]
    if any(candidates is None for candidates in sets):
        nearest = nearest_user_sets(np.stack([pl.distances for pl in pls]))
    else:
        nearest = [None] * len(pls)
    drop_sets = [[reduced if candidates is None else candidates for candidates in sets]
                 for reduced in nearest]
    tables = rate_tables(template, np.stack([pl.gains for pl in pls]),
                         [[candidates.modes for candidates in cands] for cands in drop_sets])

    results = [([[] for _ in sets], np.empty((len(sets), len(grid_db)))) for _ in drops]
    # A block of many drops holds few points; a long grid goes in slices.
    step = max(1, MAX_BLOCK_DROP_POINTS // len(drops))
    for lo in range(0, len(tx_powers), step):
        rates_per_drop = block_sum_rates(tables, tx_powers[lo:lo + step])
        for drop, scenario, pl, cands, table, rates, (chosen, values) in zip(
                drops, scenarios, pls, drop_sets, tables, rates_per_drop, results):
            for idx in range(lo, min(lo + step, len(tx_powers))):
                estimates: dict[TransmissionMode, float] = {}
                for s, candidates in enumerate(cands):
                    result = select_mode(table, candidates, rates[idx - lo])
                    mode = result.chosen_mode
                    chosen[s].append(mode)
                    values[s, idx] = result.chosen_rate
                    if rating == "mc":
                        if mode not in estimates:
                            estimates[mode] = mc_ergodic_sum_rate(
                                scenario.with_tx_power(tx_powers[idx]), pl, mode,
                                n_channels, seed=(seed, drop, idx), fading=fading).mean
                        values[s, idx] = estimates[mode]
    return results


# Most (drop, SNR point) pairs one kernel call rates: 64 drops of an
# 11-point grid. It bounds a worker's rate arrays and kernel batch
# whatever the grid length.
MAX_BLOCK_DROP_POINTS = 704


def _run_drops(template: Scenario, sets, grid_db, n_channels: int, seed: int,
               n_drops: int, rating: str, n_jobs: int) -> list:
    """Per-drop results in drop order, on one process pool of
    min(n_jobs, blocks) workers when both are above one.

    Drops go out in blocks of consecutive drops: about eight per worker,
    so the pool stays balanced, and no more than MAX_BLOCK_DROP_POINTS
    drop-points each. A kernel call pays off only on about 1000 values or
    more, so larger blocks run faster.
    """
    size = max(1, min(math.ceil(n_drops / (8 * n_jobs)),
                      MAX_BLOCK_DROP_POINTS // max(1, len(grid_db))))
    tasks = [(template, sets, grid_db, n_channels, seed,
              range(start, min(start + size, n_drops)), rating)
             for start in range(0, n_drops, size)]
    if n_jobs > 1 and len(tasks) > 1:
        # Imported here, so a command that starts no pool never loads
        # multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
            blocks = list(pool.map(_block_worker, tasks))
    else:
        blocks = [_block_worker(t) for t in tasks]
    return [result for block in blocks for result in block]


def cell_average(scenario_template: Scenario, schemes, snr_grid_db,
                 n_drops: int, n_channels: int, seed: int,
                 rating: str = "analytic", n_jobs: int = 1) -> RateCurve:
    """Rate curves of ``schemes`` averaged over the same uniform user drops.

    ``schemes`` lists "ideal", "min-distance" and fixed modes; the curve
    holds one series per entry, in order. Selection always uses
    closed-form rates, and a fixed mode is a candidate set of one. The
    recorded value per drop is closed-form when ``rating="analytic"`` or a
    fading-simulation estimate when ``rating="mc"``.
    """
    if n_drops < 1:
        raise ValueError("n_drops must be >= 1")
    if rating not in ("analytic", "mc"):
        raise ConfigError(f"rating must be 'analytic' or 'mc', got {rating!r}")
    if not schemes:
        raise ConfigError("no schemes requested")
    sets: list[CandidateSet | None] = []
    for scheme in schemes:
        if isinstance(scheme, TransmissionMode):
            sets.append(CandidateSet((scheme,), Origin.EXPLICIT))
        elif scheme == "ideal":
            sets.append(enumerate_ideal(scenario_template.n_ports,
                                        scenario_template.n_users))
        elif scheme == "min-distance":
            sets.append(None)  # drawn per drop
        else:
            raise ConfigError(f"unknown scheme {scheme!r}")
    grid = tuple(float(db) for db in snr_grid_db)
    results = _run_drops(scenario_template, sets, grid, n_channels, seed, n_drops,
                         rating, n_jobs)
    series = []
    for s, scheme in enumerate(schemes):
        per_drop = np.stack([values[s] for _, values in results])
        mean = per_drop.mean(axis=0)
        if n_drops > 1:
            stderr = per_drop.std(axis=0, ddof=1) / math.sqrt(n_drops)
        else:
            stderr = np.zeros_like(mean)
        series.append(RateSeries(label=_scheme_label(scheme), kind=rating,
                                 values=tuple(float(v) for v in mean),
                                 std_errors=tuple(float(e) for e in stderr)))
    return RateCurve(snr_grid_db=grid, series=tuple(series))


def mode_histogram(scenario_template: Scenario, snr_ranges_db, n_drops: int,
                   seed: int, grid_step_db: float = 5.0,
                   n_jobs: int = 1) -> dict[tuple[float, float], dict[str, float]]:
    """Relative selection frequency of (K_A, N_A) groups per SNR range.

    For every drop and every grid point inside a range, the nearest-user
    scheme's selected mode is tallied under the label ``KA{k}_NA{n}``;
    fractions sum to one within each range.
    """
    if n_drops < 1:
        raise ValueError("n_drops must be >= 1")
    ranges = [(float(lo), float(hi)) for lo, hi in snr_ranges_db]
    for lo, hi in ranges:
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ConfigError(f"invalid SNR range [{lo}, {hi}]")
        if (hi - lo) / grid_step_db + 1 > MAX_GRID_POINTS:
            raise ConfigError(f"SNR range [{lo}, {hi}] holds more than "
                              f"{MAX_GRID_POINTS} points at {grid_step_db} dB steps")
    points_per_range = []
    for lo, hi in ranges:
        points = [lo]
        while points[-1] + grid_step_db <= hi + 1e-9:
            points.append(points[-1] + grid_step_db)
        points_per_range.append(points)

    flat_points = tuple(sorted({db for pts in points_per_range for db in pts}))
    # One candidate set: None, the nearest-user set of each drop.
    per_drop = [dict(zip(flat_points, chosen))
                for (chosen,), _ in _run_drops(scenario_template, [None], flat_points,
                                               0, seed, n_drops, "analytic", n_jobs)]

    counts: dict[tuple[float, float], dict[str, int]] = {r: {} for r in ranges}
    for chosen_at in per_drop:
        for r, points in zip(ranges, points_per_range):
            for db in points:
                mode = chosen_at[db]
                label = f"KA{mode.n_active_users}_NA{mode.n_active_ports}"
                counts[r][label] = counts[r].get(label, 0) + 1

    fractions: dict[tuple[float, float], dict[str, float]] = {}
    for r in ranges:
        total = sum(counts[r].values())
        fractions[r] = {label: counts[r][label] / total
                        for label in sorted(counts[r])}
    return fractions
