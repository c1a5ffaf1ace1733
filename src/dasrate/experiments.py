"""Experiment helpers behind the CLI: SNR grids, the modes of a rates
run, crossover reports, and the CSV forms of curves and histograms.

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
from .geometry import Scenario, linear_to_db, pathloss_matrix
from .modes import admissible, check_fit, ideal_modes, mode_label
from .rate import crossover_curves_db, crossover_snr


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
    line = ",".join(["%.12g"] * len(header))
    lines = [",".join(header)]
    for db, row in zip(snr_grid_db, columns.T.tolist()):
        lines.append(line % (db, *row))
    return "\n".join(lines) + "\n"


def histogram_to_csv(fractions: dict[tuple[float, float], dict[str, float]]) -> str:
    lines = ["range_lo_db,range_hi_db,group_label,fraction"]
    for (lo, hi), groups in fractions.items():
        for label, fraction in groups.items():
            lines.append("%.12g,%.12g,%s,%.12g" % (lo, hi, label, fraction))
    return "\n".join(lines) + "\n"


def resolve_mode_filter(rows, n_ports: int, n_users: int) -> np.ndarray:
    """(modes x ports) assignments for a rates run: the assignment
    ``rows``, checked by ``modes.check_fit`` and, as members of the
    exhaustive set, by ``modes.admissible``; or the whole exhaustive set
    for no rows. ``simulate.cell_average`` refuses a repeated row."""
    if not rows:
        return ideal_modes(n_ports, n_users)
    modes = check_fit(rows, n_ports, n_users)
    for row in modes[~admissible(modes)][:1]:
        raise ConfigError(f"mode {mode_label(row)} serves one user with a port off; "
                          f"a one-user mode must use every port")
    return modes


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
