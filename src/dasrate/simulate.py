"""Monte Carlo fading engine and cell-averaged experiments.

Fading power gains are unit-mean exponentials (the squared magnitude of
a unit-variance complex Gaussian), drawn in chunks of MC_CHUNK channels,
each from an SFC64 generator seeded by its own key, a ``SeedSequence``
on the seed with its indices in the spawn key, which is not zero-padded
as the entropy is, so keys of different lengths never coincide; no
stream is jumped or advanced. Drop d's users come from (seed; d), the
fading of its chunk c from (seed; d, c), and chunk c of a fixed
geometry from (seed; 0, 0, c).

A draw does not depend on the SNR, so each chunk is drawn
once per drop and read by every mode and point rated there (common
random numbers). A mode rates each draw and point as log2 of the
product of its users' factors 1 + S / (I + 1/snr), one log2 per run of
users, the runs split on the mode's draws alone so that no product
overflows. Each (mode, point) adds its chunks in chunk order and
drop results are combined in drop order, so outputs are bit-identical
for a given seed whatever the worker count. A command runs its drops on
at most one process pool, with no more workers than blocks of drops,
and imports the pool machinery only when it starts one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, ConfigError
from .geometry import MAX_ABS_SNR_DB, Scenario, db_to_linear, pathloss_matrix, uniform_positions
from .modes import (check_enumeration_budget, check_fit, ideal_count, ideal_modes, mode_label,
                    nearest_user_modes)
from .rate import row_sum_rates, subset_rates
from .selection import select_rows

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

# Most SNR points one Monte Carlo rating pass holds: its three
# (points, chunk) work arrays take at most 3 MiB whatever the grid
# length, and an 11-point grid is one pass.
MC_POINT_SLICE = 16


def snr_grid(lo: float, step: float, hi: float, what: str) -> tuple[float, ...]:
    """The SNR points lo + i * step dB up to ``hi`` (inclusive, to within
    1e-9 steps). Rejects a grid that is not finite or increasing, leaves
    +-MAX_ABS_SNR_DB or holds more than MAX_GRID_POINTS points; ``what``
    names it in the message."""
    if not all(map(math.isfinite, (lo, step, hi))) or step <= 0 or hi < lo:
        raise ConfigError(f"invalid {what}: it needs finite bounds, step > 0 and "
                          f"stop >= start")
    if not -MAX_ABS_SNR_DB <= lo <= hi <= MAX_ABS_SNR_DB:
        raise ConfigError(f"{what} spans {lo:g} to {hi:g} dB; SNR points must lie "
                          f"within +-{MAX_ABS_SNR_DB:g} dB")
    if (hi - lo) / step + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"{what} holds more than {MAX_GRID_POINTS} points")
    n_steps = int(math.floor((hi - lo) / step + 1e-9))
    return tuple(lo + i * step for i in range(n_steps + 1))


def _chunk_stream(key: np.random.SeedSequence, chunk: int) -> np.random.Generator:
    """SFC64 generator of Monte Carlo chunk ``chunk`` under ``key``,
    seeded by the key's child of that index, as ``key.spawn`` makes it."""
    seq = np.random.SeedSequence(key.entropy, spawn_key=(*key.spawn_key, chunk))
    return np.random.Generator(np.random.SFC64(seq))


def stream_key(seed: int, drop: int | None = None) -> np.random.SeedSequence:
    """Key of a drop, whose users are drawn from it, or of a fixed
    geometry when ``drop`` is None; its child c draws Monte Carlo chunk c."""
    return np.random.SeedSequence(seed, spawn_key=(0, 0) if drop is None else (drop,))


def _chunk_sizes(n_trials: int) -> list[int]:
    full, rest = divmod(n_trials, MC_CHUNK)
    return [MC_CHUNK] * full + ([rest] if rest else [])


def _user_powers(hg: np.ndarray, row) -> list[tuple]:
    """(signal, interference) received power of each active user of the
    assignment ``row`` in each draw of a (T, K, N) block of fading times
    gains, users in the order of their first serving port: its sums, in
    port order, over its serving ports and the row's other active ports
    (0 for none)."""
    row = [int(user) for user in row]
    active = [j for j, user in enumerate(row) if user]
    return [(sum(hg[:, user - 1, j] for j in active if row[j] == user),
             sum(hg[:, user - 1, j] for j in active if row[j] != user))
            for user in dict.fromkeys(row[j] for j in active)]


# Most bits the factors of one run of users may bound together: a factor
# 1 + S / (I + 1/snr) is at most 1 + S * snr, so a run whose bounds
# log2(1 + max S * _MAX_SNR) sum to at most this keeps its product below
# 2^1024, with 24 bits to spare for rounding.
RUN_BITS = 1000.0
_MAX_SNR = db_to_linear(MAX_ABS_SNR_DB)


def _runs(users: list[tuple]) -> list[list[tuple]]:
    """``users`` in consecutive runs, in order: a run closes before the
    sum of its users' bounds log2(1 + max S * _MAX_SNR) would pass
    RUN_BITS. The split reads the users' draws, never the SNRs rated."""
    runs, bits = [], math.inf
    for user in users:
        bound = math.log2(1.0 + float(user[0].max()) * _MAX_SNR)
        if bits + bound > RUN_BITS:
            runs.append([])
            bits = 0.0
        runs[-1].append(user)
        bits += bound
    return runs


def _sum_rates(users: list[tuple], inv_snr: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Sum rate of ``users`` for each draw (column) and each 1 / snr of
    the (points, 1) ``inv_snr`` (row), in ``work[0]``; ``work`` is a (3,
    points, draws) array. Each user has the factor 1 + S / (I + 1 / snr),
    and each of the ``_runs`` of users rates log2 of the product of its
    factors, multiplied in user order; the runs' rates add in order. The
    first run's product is formed in ``work[0]``, a later run's in
    ``work[1]``, and each further factor in ``work[2]``. A user with no
    interference divides by ``inv_snr``, which is 0 + 1 / snr exactly;
    no user rates 0."""
    rates, product, factor = work
    if not users:
        rates[:] = 0.0
    for r, run in enumerate(_runs(users)):
        out = product if r else rates
        for i, (signal, interference) in enumerate(run):
            term = factor if i else out
            noise = np.add(interference, inv_snr, out=term) if np.ndim(interference) else inv_snr
            np.divide(signal, noise, out=term)
            term += 1.0
            if i:
                out *= term
        np.log2(out, out=out)
        if r:
            rates += out
    return rates


def mc_sum_rates(gains: np.ndarray, rows, snrs, n_channels: int,
                 key: np.random.SeedSequence, *, at: np.ndarray | None = None,
                 fading: np.ndarray | None = None,
                 std_errors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Monte Carlo means and standard errors of the ergodic sum rates of
    the assignment ``rows``, each a sequence of N port entries, over the
    (K, N) pathloss ``gains`` at the linear ``snrs``, as two (rows x
    points) arrays, from one fading draw per chunk; with ``std_errors``
    False the errors are None, and no sum of squares is formed.

    Only the cells of the (rows x points) boolean mask ``at`` are rated,
    every cell when it is None; the others read NaN. Chunk c is drawn
    by SFC64 from ``key``'s child c into ``fading`` (at least
    (min(n_channels, MC_CHUNK), K, N); allocated if None) and scaled by
    ``gains`` in place. Each row's user powers are summed once per chunk
    and rated by ``_sum_rates`` at its points in slices of
    MC_POINT_SLICE, one log2 per run of users. Each cell adds its own
    total, and sum of squares, in chunk order, so its estimate does not
    depend on the other cells of the call. A fixed geometry passes
    ``stream_key(seed)``, or ``SeedSequence(seed)`` to draw chunk c
    from ``SeedSequence(seed, spawn_key=(c,))``.
    """
    if n_channels < 2:
        raise ValueError("n_channels must be >= 2")
    shape = (min(n_channels, MC_CHUNK), *gains.shape)
    if fading is None:
        fading = np.empty(shape)
    elif (fading.dtype != np.float64 or not fading.flags.c_contiguous
          or fading.shape[1:] != shape[1:] or fading.shape[0] < shape[0]):
        raise ValueError(f"fading buffer must be C-contiguous float64 with shape "
                         f"{shape} or more rows, got {fading.dtype} {fading.shape}")
    snrs = np.asarray(snrs, dtype=float)
    at = np.ones((len(rows), len(snrs)), dtype=bool) if at is None else np.asarray(at)
    if at.shape != (len(rows), len(snrs)):
        raise ValueError(f"at must have shape {(len(rows), len(snrs))}, got {at.shape}")
    points = [np.flatnonzero(cells) for cells in at]
    inv_snrs = [1.0 / snrs[cols, None] for cols in points]
    total = np.zeros(at.shape)
    total_sq = np.zeros(at.shape) if std_errors else None
    work = np.empty(3 * min(MC_POINT_SLICE, max(map(len, points), default=0)) * shape[0])
    for c, size in enumerate(_chunk_sizes(n_channels)):
        hg = _chunk_stream(key, c).standard_exponential(out=fading[:size])
        hg *= gains
        for r, (row, cols, inv_snr) in enumerate(zip(rows, points, inv_snrs)):
            users = _user_powers(hg, row)
            for lo in range(0, len(cols), MC_POINT_SLICE):
                part, idx = inv_snr[lo:lo + MC_POINT_SLICE], cols[lo:lo + MC_POINT_SLICE]
                rates = _sum_rates(users, part,
                                   work[:3 * len(part) * size].reshape(3, len(part), size))
                total[r, idx] += rates.sum(axis=1)
                if std_errors:
                    total_sq[r, idx] += np.square(rates, out=rates).sum(axis=1)
    mean = np.where(at, total, np.nan) / n_channels
    if not std_errors:
        return mean, None
    var = np.maximum(total_sq - n_channels * mean * mean, 0.0) / (n_channels - 1)
    return mean, np.sqrt(var / n_channels)


# --- cell-averaged experiments ----------------------------------------------

def _block_worker(args) -> tuple[np.ndarray, np.ndarray]:
    """The (drops x sets x points x ports) chosen assignments and (drops
    x sets x points) recorded values of a block of consecutive drops.

    A set is a (modes x ports) assignment array, or None for each drop's
    nearest-user set. Users, gains and nearest-user sets are built for the
    whole block in one array pass each. One ``subset_rates`` table holds
    every drop's subset rates at every point, or at each slice of points
    when the whole grid would hold more than MAX_BLOCK_VALUES, from one
    kernel call. Each set is rated on every drop of the block at once,
    and selects at every (drop, point) with one first-maximizer argmax.
    The value is the closed-form rate, or at ``n_channels`` >= 2 the
    Monte Carlo mean: one ``mc_sum_rates`` call per drop rates each distinct
    chosen mode at the points where any set chose it, from one draw per
    chunk under the drop's key, into the block's one buffer, and each
    (set, point) reads its mode's mean there.
    """
    (template, sets, grid_db, n_channels, seed, drops) = args
    snrs = [db_to_linear(snr_db) for snr_db in grid_db]
    keys = [stream_key(seed, drop) for drop in drops]
    pl = pathloss_matrix(template, uniform_positions(template, keys))
    nearest = nearest_user_modes(pl.distances)
    drop_sets = [nearest if modes is None else modes for modes in sets]

    shape = (len(drops), len(sets), len(grid_db))
    chosen = np.empty((*shape, template.n_ports), dtype=np.min_scalar_type(template.n_users))
    values = np.empty(shape)
    # A block of many drops holds few points; a long grid goes in slices.
    step = point_step(template.n_ports, template.n_users, sets, len(drops))
    for lo in range(0, len(snrs), step):
        table = subset_rates(pl.gains, snrs[lo:lo + step])
        for s, rows in enumerate(drop_sets):
            best, values[:, s, lo:lo + step] = select_rows(row_sum_rates(table, rows))
            chosen[:, s, lo:lo + step] = (rows[best] if rows.ndim == 2 else
                                          rows[np.arange(len(drops))[:, None], best])
    if n_channels:
        # Allocated once: a fresh array per chunk is freed to the OS at
        # the heap top and page-faulted in again by the next chunk.
        fading = np.empty((min(n_channels, MC_CHUNK), template.n_users, template.n_ports))
        points = np.arange(len(grid_db))
        for key, gains, drop_chosen, drop_values in zip(keys, pl.gains, chosen, values):
            # Each distinct chosen mode, the one each (set, point) chose,
            # and the points where any set chose it.
            distinct, which = np.unique(drop_chosen.reshape(-1, template.n_ports), axis=0,
                                        return_inverse=True)
            which = which.reshape(shape[1:])
            at = np.zeros((len(distinct), len(grid_db)), dtype=bool)
            at[which, points] = True
            mean, _ = mc_sum_rates(gains, distinct, snrs, n_channels, key, at=at,
                                   fading=fading, std_errors=False)
            drop_values[:] = mean[which, points]
    return chosen, values


# Most values one block holds, as counted by _drop_footprint. Measured
# under tracemalloc, a block's peak is 8-30 bytes per counted value (the
# most on long grids of one fixed mode, where the kernel's arguments and
# values outnumber the rows), so within 64 bytes a block peaks under
# 135 MB: the exhaustive N = K = 5 set takes 20 drops of an 11-point grid
# (39 MB), and a 500-drop nearest-user histogram at N = K = 4 is one
# block (7 MB).
MAX_BLOCK_VALUES = 2 ** 21


def _drop_footprint(n: int, k: int, sets) -> tuple[int, int]:
    """Values one drop of N = ``n`` ports and K = ``k`` users adds to a
    block, as (fixed, per SNR point): two port masks per row (its active
    ports, and those less a user's) and the gain columns and weights of
    its K (2^N - 1) subsets, K N 2^(N-1) of each; then per point its rate
    rows and its K 2^N subset rates. A nearest-user set has
    2^N - N rows."""
    rows = sum(2 ** n - n if modes is None else len(modes) for modes in sets)
    return 2 * rows + k * n * 2 ** n, rows + k * 2 ** n


def point_step(n: int, k: int, sets, n_drops: int = 1) -> int:
    """SNR points per ``subset_rates`` table of ``n_drops`` drops of ``sets``:
    as many as ``_drop_footprint`` fits in MAX_BLOCK_VALUES, at least one."""
    fixed, per_point = _drop_footprint(n, k, sets)
    return max(1, (MAX_BLOCK_VALUES // n_drops - fixed) // per_point)


def check_drop_size(n_ports: int, n_users: int) -> None:
    """Raise CapacityError when one drop's nearest-user footprint at one
    SNR point exceeds MAX_BLOCK_VALUES. Every block builds its drops'
    nearest-user sets, so past this size (N >= 14 at K = N, 16 at K = 2,
    17 at K = 1) no block fits, and the 2^N port masks alone would ask
    for an unbounded allocation."""
    values = sum(_drop_footprint(n_ports, n_users, [None]))
    if values > MAX_BLOCK_VALUES:
        raise CapacityError(f"one drop at N = {n_ports} ports and K = {n_users} takes "
                            f"{values} values at one SNR point, more than the "
                            f"{MAX_BLOCK_VALUES} a block may hold")


def _run_drops(template: Scenario, sets, grid_db, n_channels: int, seed: int,
               n_drops: int, n_jobs: int) -> tuple[np.ndarray, np.ndarray]:
    """The chosen assignments and values of ``_block_worker`` for every
    drop, in drop order, on one process pool of min(n_jobs, blocks)
    workers when both are above one.

    Drops go out in blocks of consecutive drops, as large as
    MAX_BLOCK_VALUES allows, so that a command makes as few kernel calls
    as its memory bound permits; a pool gets about eight blocks per
    worker instead, when smaller, so that it stays balanced. A scenario
    too large for one drop is refused by ``check_drop_size`` first.
    """
    check_drop_size(template.n_ports, template.n_users)
    fixed, per_point = _drop_footprint(template.n_ports, template.n_users, sets)
    size = max(1, MAX_BLOCK_VALUES // (fixed + per_point * len(grid_db)))
    if n_jobs > 1:
        size = min(size, math.ceil(n_drops / (8 * n_jobs)))
    tasks = [(template, sets, grid_db, n_channels, seed,
              range(start, min(start + size, n_drops)))
             for start in range(0, n_drops, size)]
    if n_jobs > 1 and len(tasks) > 1:
        # Imported here, so a command that starts no pool never loads
        # multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
            blocks = list(pool.map(_block_worker, tasks))
    else:
        blocks = [_block_worker(t) for t in tasks]
    chosen, values = zip(*blocks)
    return np.concatenate(chosen), np.concatenate(values)


# Most candidate-drop-points (candidates x drops x SNR points) an
# exhaustive sweep may rate unless forced: about 13 s of work at the
# 0.032 us per candidate-drop-point measured at N = K = 4 (2 048 drops),
# and 11 s at the 0.027 us measured at N = K = 5 (512 drops), 11 points
# each, one worker on a 2-core x86 machine.
SWEEP_IDEAL_LIMIT = 400_000_000


def cell_average(scenario_template: Scenario, schemes, snr_grid_db,
                 n_drops: int, n_channels: int, seed: int, n_jobs: int = 1,
                 force_ideal: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Means and drop-level standard errors (zero at one drop) of the sum
    rates of ``schemes`` over the same uniform user drops, as two
    (entries x points) arrays in ``schemes`` order, all from one pass
    over the drops.

    ``schemes`` lists "ideal", "min-distance" and fixed modes, each an
    assignment row of N port entries. A fixed mode may be any row that
    fits the scenario (``modes.check_fit``), in the exhaustive set or
    not, and is a candidate set of one. Selection always uses
    closed-form rates. The recorded value per drop is closed-form at
    ``n_channels=0`` or a fading-simulation estimate from ``n_channels``
    >= 2 draws.

    Before any drop is drawn, the counts are checked, and every entry:
    for repeats, each fixed row for fit, and an exhaustive set against
    ``modes.check_enumeration_budget`` (CapacityError, with or without
    ``force_ideal``), then for more than SWEEP_IDEAL_LIMIT
    candidate-drop-points unless ``force_ideal``.
    """
    if n_drops < 1:
        raise ValueError("n_drops must be >= 1")
    if n_channels == 1 or n_channels < 0:
        raise ValueError(f"n_channels must be 0 (closed form) or >= 2 (Monte Carlo), "
                         f"got {n_channels}")
    if not schemes:
        raise ConfigError("no schemes requested")
    labels = [s if isinstance(s, str) else mode_label(s) for s in schemes]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"scheme or fixed mode given more than once: "
                          f"{', '.join(repeated)}")
    n_ports, n_users = scenario_template.n_ports, scenario_template.n_users
    for scheme in schemes:
        if not isinstance(scheme, str):
            check_fit(scheme, n_ports, n_users)
        elif scheme not in ("ideal", "min-distance"):
            raise ConfigError(f"unknown scheme {scheme!r}")
        elif scheme == "ideal":
            # No flag runs a set past the enumeration budget, so it is checked first.
            check_enumeration_budget(n_ports, n_users)
            count = ideal_count(n_ports, n_users)
            work = count * n_drops * len(snr_grid_db)
            if work > SWEEP_IDEAL_LIMIT and not force_ideal:
                raise ConfigError(
                    f"exhaustive sweep would rate {work} candidate-drop-points "
                    f"({count} candidates x {n_drops} drops x {len(snr_grid_db)} "
                    f"SNR points), more than {SWEEP_IDEAL_LIMIT}; pass "
                    f"force_ideal/--force-ideal to run it anyway")
    # The nearest-user set (None) is drawn per drop.
    sets = [np.array([scheme]) if not isinstance(scheme, str) else
            ideal_modes(n_ports, n_users) if scheme == "ideal" else None
            for scheme in schemes]
    grid = tuple(float(db) for db in snr_grid_db)
    _, values = _run_drops(scenario_template, sets, grid, n_channels, seed, n_drops, n_jobs)
    # Each entry reduces its own (drops x points) values: numpy sums a
    # one-point grid's column pairwise but a (drops x entries) block row
    # by row, and the printed digits would move.
    per_entry = values.swapaxes(0, 1)
    means = np.array([v.mean(axis=0) for v in per_entry])
    if n_drops == 1:
        return means, np.zeros_like(means)
    return means, np.array([v.std(axis=0, ddof=1) for v in per_entry]) / math.sqrt(n_drops)


# Spacing, in dB, of the SNR points of a histogram range.
HIST_GRID_STEP_DB = 5.0


def mode_histogram(scenario_template: Scenario, snr_ranges_db, n_drops: int,
                   seed: int, n_jobs: int = 1) -> dict[tuple[float, float], dict[str, float]]:
    """Relative selection frequency of (K_A, N_A) groups per SNR range.

    For every drop and every grid point inside a range, every
    HIST_GRID_STEP_DB from its low end, the nearest-user
    scheme's selected mode is tallied under the label ``KA{k}_NA{n}``;
    fractions sum to one within each range. The choices of all drops come
    back as one assignment array and are grouped with array operations.
    """
    if n_drops < 1:
        raise ValueError("n_drops must be >= 1")
    ranges = [(float(lo), float(hi)) for lo, hi in snr_ranges_db]
    points_per_range = []
    for i, (lo, hi) in enumerate(ranges):
        what = f"SNR range/--snr-ranges {lo:g}:{hi:g}"
        points_per_range.append(snr_grid(lo, HIST_GRID_STEP_DB, hi, what))
        if (lo, hi) in ranges[:i]:
            raise ConfigError(f"{what} given more than once")

    flat_points = tuple(sorted({db for pts in points_per_range for db in pts}))
    # One candidate set: None, the nearest-user set of each drop.
    chosen, _ = _run_drops(scenario_template, [None], flat_points, 0, seed, n_drops, n_jobs)
    # Each choice's group as the code KA * (N + 1) + NA: its distinct
    # nonzero users, counted on the sorted assignment, and its active ports.
    users = np.sort(chosen[:, 0], axis=2)
    first = np.ones(users.shape, dtype=bool)
    first[..., 1:] = users[..., 1:] != users[..., :-1]
    n = scenario_template.n_ports + 1
    codes = (first & (users != 0)).sum(axis=2) * n + (users != 0).sum(axis=2)
    column = {db: i for i, db in enumerate(flat_points)}
    fractions: dict[tuple[float, float], dict[str, float]] = {}
    for r, points in zip(ranges, points_per_range):
        counts = np.bincount(codes[:, [column[db] for db in points]].ravel()).tolist()
        groups = sorted((f"KA{code // n}_NA{code % n}", c) for code, c in enumerate(counts) if c)
        fractions[r] = {label: c / sum(counts) for label, c in groups}
    return fractions
