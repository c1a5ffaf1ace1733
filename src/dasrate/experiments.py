"""Experiment drivers behind the CLI: fixed-geometry rate curves,
crossover reports, and the CSV forms of curves and histograms.

CSV output is RFC-4180 style with '.' decimals and a fixed column order.
On one machine, analytic-only outputs are byte-identical across runs and
``--jobs`` values, and the scaled-E1 kernel's bits are pinned on every
machine; the gains (``**``), trig and ``np.log2`` can still move by an
ulp under another numpy SIMD dispatch, and so can a printed digit.
"""

from __future__ import annotations

import math

import numpy as np

from . import simulate
from .errors import ConfigError
from .geometry import Scenario, db_to_linear, linear_to_db, pathloss_matrix
from .modes import admissible, check_fit, ideal_modes, mode_label
from .rate import crossover_curves_db, crossover_snr, row_sum_rates, subset_rates
from .simulate import mc_sum_rates


def _fmt(value: float) -> str:
    return format(value, ".12g")


def parse_snr_spec(spec: str) -> tuple[float, ...]:
    """SNR grid from a ``start:step:stop`` dB spec (stop inclusive), built
    and checked by ``simulate.snr_grid``."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"SNR spec must be start:step:stop in dB, got {spec!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"non-numeric SNR spec {spec!r}") from exc
    return simulate.snr_grid(start, step, stop, f"SNR spec/--snr {spec!r}")


def curve_to_csv(snr_grid_db, entries, *blocks: tuple[str, np.ndarray]) -> str:
    """Rate curves as CSV: one row per SNR point of the grid, then per
    entry, a scheme name or an assignment row (printed by ``mode_label``),
    one column ``{label}_{suffix}`` per (suffix, values) block, from the
    entry's row of the block's (entries x points) array."""
    labels = [e if isinstance(e, str) else mode_label(e) for e in entries]
    header = ["snr_db"] + [f"{label}_{suffix}" for label in labels for suffix, _ in blocks]
    columns = np.stack([values for _, values in blocks], axis=1).reshape(-1, len(snr_grid_db))
    lines = [",".join(header)]
    for db, row in zip(snr_grid_db, columns.T.tolist()):
        lines.append(",".join(map(_fmt, [db, *row])))
    return "\n".join(lines) + "\n"


def histogram_to_csv(fractions: dict[tuple[float, float], dict[str, float]]) -> str:
    lines = ["range_lo_db,range_hi_db,group_label,fraction"]
    for (lo, hi), groups in fractions.items():
        for label, fraction in groups.items():
            lines.append(",".join([_fmt(lo), _fmt(hi), label, _fmt(fraction)]))
    return "\n".join(lines) + "\n"


# --- fixed-geometry rate curves ---------------------------------------------

def resolve_mode_filter(rows, n_ports: int, n_users: int) -> np.ndarray:
    """(modes x ports) assignments for a rates run: the assignment
    ``rows``, each checked by ``modes.check_fit``, for repeats and, as
    members of the exhaustive set, by ``modes.admissible``; or the whole
    exhaustive set for no rows."""
    if not rows:
        return ideal_modes(n_ports, n_users)
    for i, row in enumerate(rows):
        check_fit(row, n_ports, n_users)
        if tuple(row) in map(tuple, rows[:i]):
            raise ConfigError(f"mode given more than once: {mode_label(row)}")
        if not admissible(np.array([row]))[0]:
            raise ConfigError(f"mode {mode_label(row)} serves one user with a port off; "
                              f"a one-user mode must use every port")
    return np.array(rows)


def mode_rate_curves(scenario: Scenario, modes: np.ndarray, snr_grid_db,
                     n_channels: int = simulate.DEFAULT_N_CHANNELS,
                     seed: int = 1) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Sum-rate curves over a fixed geometry of the rows of a (modes x
    ports) assignment array: the closed-form (modes x points) array, and
    the ``mc_sum_rates`` means and standard errors from ``n_channels``
    draws, in which every mode at every point reads the same fading draw
    per chunk, keyed by the seed and the chunk; or None at
    ``n_channels=0``."""
    if scenario.user_positions is None:
        raise ConfigError("rates experiment needs fixed user positions in the config")
    pl = pathloss_matrix(scenario)
    snrs = [db_to_linear(float(db)) for db in snr_grid_db]
    # The table holds the served users only, renumbered in order: an idle
    # user adds exactly 0.0 to every row, and its gains may tie.
    served = np.flatnonzero(np.bincount(modes.ravel(), minlength=scenario.n_users + 1)[1:])
    simulate.check_drop_size(scenario.n_ports, len(served))
    renumber = np.zeros(scenario.n_users + 1, dtype=int)
    renumber[served + 1] = np.arange(1, len(served) + 1)
    # A long grid goes in slices of points, as a block's does.
    analytic = np.empty((len(modes), len(snrs)))
    step = simulate.point_step(scenario.n_ports, len(served), [modes])
    for lo in range(0, len(snrs), step):
        table = subset_rates(pl.gains[None, served], snrs[lo:lo + step])
        analytic[:, lo:lo + step] = row_sum_rates(table, renumber[modes])[0].T
    if not n_channels:
        return analytic, None
    return analytic, mc_sum_rates(pl.gains, modes, snrs, n_channels, simulate.stream_key(seed))


# --- crossover report ---------------------------------------------------------

def crossover_lines(scenario: Scenario, reference_db: float | None = None) -> list[str]:
    """Self-auditing crossover report for a 2x2 fixed geometry, as lines.

    Reports the closed-form value under both user labelings plus the
    numerically bisected intersections of the approximated and exact
    [1 1]-vs-[1 2] rate curves, and the formula against ``reference_db``
    when given.
    """
    if reference_db is not None and not math.isfinite(reference_db):
        raise ConfigError(f"reference_db/--reference-db must be finite, "
                          f"got {reference_db!r}")
    if scenario.n_ports != 2 or scenario.n_users != 2:
        raise ConfigError("crossover analysis is defined for 2 ports and 2 users")
    if scenario.user_positions is None:
        raise ConfigError("crossover analysis needs fixed user positions")
    gains = pathloss_matrix(scenario).gains
    vs_12, vs_21 = map(linear_to_db, crossover_snr(gains))
    swapped_12, swapped_21 = map(linear_to_db, crossover_snr(gains[::-1]))
    approx_db, exact_db = crossover_curves_db(gains)
    rows = [("formula, users as given:",
             f"{vs_12:.3f} dB  (companion [1 1] vs [2 1]: {vs_21:.3f} dB)"),
            ("formula, users swapped:", f"{swapped_12:.3f} dB  (companion: {swapped_21:.3f} dB)")]
    for name, db in (("approximated curves:", approx_db), ("exact curves:", exact_db)):
        rows.append((name, "no crossover in range" if db is None
                     else f"{db:.3f} dB (bisection)"))
    if approx_db is not None and exact_db is not None:
        rows.append(("approx-vs-exact gap:", f"{abs(approx_db - exact_db):.3f} dB"))
    if reference_db is not None:
        rows.append(("reference comparison:", f"{reference_db:.3f} dB (formula deviates "
                                              f"by {vs_12 - reference_db:+.3f} dB)"))
    return (["crossover analysis for modes [1 1] vs [1 2] (2 ports, 2 users)"]
            + [f"  {name:<26}{value}" for name, value in rows])
