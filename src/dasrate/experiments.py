"""Experiment drivers behind the CLI: rate curves, sweeps, crossover
reports, histograms, and their CSV forms.

CSV output is RFC-4180 style with '.' decimals and a fixed column order,
so analytic-only outputs are byte-identical across runs and machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import simulate
from .errors import ConfigError
from .geometry import PathlossMatrix, Scenario, db_to_linear, pathloss_matrix
from .modes import TransmissionMode, admissible, ideal_count, ideal_modes
from .rate import (CrossoverFormulas, crossover_curves_db, crossover_snr, row_sum_rates,
                   subset_rates)
from .simulate import RateCurve, RateSeries, cell_average, mc_sum_rates


def _fmt(value: float) -> str:
    return format(value, ".12g")


def parse_snr_spec(spec: str) -> tuple[float, ...]:
    """SNR grid from a ``start:step:stop`` dB spec (stop inclusive), checked
    by ``simulate.check_snr_grid``."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"SNR spec must be start:step:stop in dB, got {spec!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"non-numeric SNR spec {spec!r}") from exc
    simulate.check_snr_grid(start, step, stop, f"SNR spec/--snr {spec!r}")
    n_steps = int(math.floor((stop - start) / step + 1e-9))
    return tuple(start + i * step for i in range(n_steps + 1))


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a packaged example config (e.g. ``fig2.cfg``)."""
    ref = resources.files("dasrate").joinpath("configs", name)
    with resources.as_file(ref) as path:
        if not path.exists():
            raise ConfigError(f"no bundled config named {name!r}")
        return path


def curve_to_csv(curve: RateCurve) -> str:
    """Flatten a rate curve: one row per SNR point, one column block per series."""
    header = ["snr_db"]
    columns = []
    for s in curve.series:
        header.append(f"{s.label}_{s.kind}")
        columns.append(s.values)
        if s.kind == "mc" and s.std_errors is not None:
            header.append(f"{s.label}_mc_stderr")
            columns.append(s.std_errors)
    lines = [",".join(header)]
    for i, db in enumerate(curve.snr_grid_db):
        row = [_fmt(db)] + [_fmt(col[i]) for col in columns]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def histogram_to_csv(fractions: dict[tuple[float, float], dict[str, float]]) -> str:
    lines = ["range_lo_db,range_hi_db,group_label,fraction"]
    for (lo, hi), groups in fractions.items():
        for label, fraction in groups.items():
            lines.append(",".join([_fmt(lo), _fmt(hi), label, _fmt(fraction)]))
    return "\n".join(lines) + "\n"


# --- fixed-geometry rate curves ---------------------------------------------

def resolve_mode_filter(labels: list[str] | None, n_ports: int,
                        n_users: int) -> np.ndarray:
    """(modes x ports) assignments for a rates run: the labelled modes,
    each checked against the scenario, the exhaustive-set rule and for
    repeats, or the whole exhaustive set for an empty filter."""
    if not labels:
        return ideal_modes(n_ports, n_users)
    rows = []
    for text in labels:
        try:
            mode = TransmissionMode.from_label(text)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        _check_fixed_mode(mode, n_ports, n_users)
        if mode.assignment in rows:
            raise ConfigError(f"mode given more than once: {mode.label}")
        if not admissible(np.array([mode.assignment]))[0]:
            raise ConfigError(f"mode {mode.label} serves one user with a port off; "
                              f"a one-user mode must use every port")
        rows.append(mode.assignment)
    return np.array(rows)


def mode_rate_curves(scenario: Scenario, modes: np.ndarray, snr_grid_db,
                     n_channels: int = simulate.DEFAULT_N_CHANNELS,
                     seed: int = 1, include_mc: bool = True) -> RateCurve:
    """Per-mode analytic curves over a fixed geometry for the rows of a
    (modes x ports) assignment array, with optional Monte Carlo
    companions: every mode at every point reads the same fading draw per
    chunk, keyed by the seed and the chunk."""
    if scenario.user_positions is None:
        raise ConfigError("rates experiment needs fixed user positions in the config")
    pl = pathloss_matrix(scenario)
    grid = tuple(float(db) for db in snr_grid_db)
    snrs = [db_to_linear(db) for db in grid]
    # The table holds the served users only, renumbered in order: an idle
    # user adds exactly 0.0 to every row, and its gains may tie.
    served = np.flatnonzero(np.bincount(modes.ravel(), minlength=scenario.n_users + 1)[1:])
    renumber = np.zeros(scenario.n_users + 1, dtype=int)
    renumber[served + 1] = np.arange(1, len(served) + 1)
    analytic = row_sum_rates(subset_rates(pl.gains[None, served], snrs),
                             renumber[modes])[0].tolist()
    if include_mc:
        estimates = mc_sum_rates(pl.gains, [(row, snrs) for row in modes], n_channels,
                                 simulate.stream_key(seed))
    series: list[RateSeries] = []
    for m_idx, row in enumerate(modes.tolist()):
        label = TransmissionMode(tuple(row)).label
        series.append(RateSeries(label=label, kind="analytic",
                                 values=tuple(point[m_idx] for point in analytic)))
        if include_mc:
            mc = estimates[m_idx]
            series.append(RateSeries(label=label, kind="mc",
                                     values=tuple(e.mean for e in mc),
                                     std_errors=tuple(e.std_error for e in mc)))
    return RateCurve(snr_grid_db=grid, series=tuple(series))


# --- cell-averaged sweeps -----------------------------------------------------

# Most candidate-drop-points (candidates x drops x SNR points) an
# exhaustive sweep may rate unless forced: about 13 s of work at the
# 0.032 us per candidate-drop-point measured at N = K = 4 (2 048 drops),
# and 11 s at the 0.027 us measured at N = K = 5 (512 drops), 11 points
# each, one worker on a 2-core x86 machine. The old guard, 1000
# candidates per drop, allowed about 44 s at default size: 1000 x 4000 x
# 11 at about 1 us each.
SWEEP_IDEAL_LIMIT = 400_000_000


def _check_fixed_mode(mode: TransmissionMode, n_ports: int, n_users: int) -> None:
    """Reject a fixed mode that does not fit the scenario."""
    if len(mode.assignment) != n_ports:
        raise ConfigError(f"fixed mode {mode.label} has {len(mode.assignment)} "
                          f"entries; the scenario has {n_ports} ports")
    if max(mode.assignment) > n_users:
        raise ConfigError(f"fixed mode {mode.label} serves user "
                          f"{max(mode.assignment)}; the scenario has {n_users} users")
    if not any(mode.assignment):
        raise ConfigError(f"fixed mode {mode.label} has no active port")


def sweep_curves(template: Scenario, schemes, snr_grid_db, n_drops: int,
                 n_channels: int, seed: int, rating: str = "analytic",
                 n_jobs: int = 1, force_ideal: bool = False) -> RateCurve:
    """Cell-averaged curves for a list of schemes and/or fixed modes, all
    from one pass over the drops.

    Every scheme and fixed mode is checked against the scenario, and for
    repeats, before any drop is drawn.
    """
    labels = [simulate._scheme_label(s) for s in schemes]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"scheme or fixed mode given more than once: "
                          f"{', '.join(repeated)}")
    for scheme in schemes:
        if isinstance(scheme, TransmissionMode):
            _check_fixed_mode(scheme, template.n_ports, template.n_users)
        elif scheme == "ideal" and not force_ideal:
            count = ideal_count(template.n_ports, template.n_users)
            work = count * n_drops * len(snr_grid_db)
            if work > SWEEP_IDEAL_LIMIT:
                raise ConfigError(
                    f"exhaustive sweep would rate {work} candidate-drop-points "
                    f"({count} candidates x {n_drops} drops x {len(snr_grid_db)} "
                    f"SNR points), more than {SWEEP_IDEAL_LIMIT}; pass "
                    f"force_ideal/--force-ideal to run it anyway")
    return cell_average(template, schemes, snr_grid_db, n_drops, n_channels,
                        seed, rating=rating, n_jobs=n_jobs)


# --- crossover report ---------------------------------------------------------

@dataclass(frozen=True)
class CrossoverReport:
    formulas: CrossoverFormulas
    formulas_swapped_users: CrossoverFormulas
    approx_intersection_db: float | None
    exact_intersection_db: float | None
    reference_db: float | None = None

    def lines(self) -> list[str]:
        out = ["crossover analysis for modes [1 1] vs [1 2] (2 ports, 2 users)"]
        out.append(f"  formula, users as given:  "
                   f"{self.formulas.single_vs_12_db:.3f} dB  "
                   f"(companion [1 1] vs [2 1]: {self.formulas.single_vs_21_db:.3f} dB)")
        out.append(f"  formula, users swapped:   "
                   f"{self.formulas_swapped_users.single_vs_12_db:.3f} dB  "
                   f"(companion: {self.formulas_swapped_users.single_vs_21_db:.3f} dB)")
        if self.approx_intersection_db is None:
            out.append("  approximated curves:      no crossover in range")
        else:
            out.append(f"  approximated curves:      "
                       f"{self.approx_intersection_db:.3f} dB (bisection)")
        if self.exact_intersection_db is None:
            out.append("  exact curves:             no crossover in range")
        else:
            out.append(f"  exact curves:             "
                       f"{self.exact_intersection_db:.3f} dB (bisection)")
        if (self.approx_intersection_db is not None
                and self.exact_intersection_db is not None):
            gap = abs(self.approx_intersection_db - self.exact_intersection_db)
            out.append(f"  approx-vs-exact gap:      {gap:.3f} dB")
        if self.reference_db is not None:
            delta = self.formulas.single_vs_12_db - self.reference_db
            out.append(f"  reference comparison:     {self.reference_db:.3f} dB "
                       f"(formula deviates by {delta:+.3f} dB)")
        return out


def crossover_report(scenario: Scenario,
                     reference_db: float | None = None) -> CrossoverReport:
    """Self-auditing crossover comparison for a 2x2 fixed geometry.

    Reports the closed-form value under both user labelings plus the
    numerically bisected intersections of the approximated and exact
    [1 1]-vs-[1 2] rate curves.
    """
    if reference_db is not None and not math.isfinite(reference_db):
        raise ConfigError(f"reference_db/--reference-db must be finite, "
                          f"got {reference_db!r}")
    if scenario.n_ports != 2 or scenario.n_users != 2:
        raise ConfigError("crossover analysis is defined for 2 ports and 2 users")
    if scenario.user_positions is None:
        raise ConfigError("crossover analysis needs fixed user positions")
    pl = pathloss_matrix(scenario)
    swapped = PathlossMatrix(distances=pl.distances[::-1].copy(),
                             gains=pl.gains[::-1].copy())
    approx_db, exact_db = crossover_curves_db(pl.gains)
    return CrossoverReport(formulas=crossover_snr(pl),
                           formulas_swapped_users=crossover_snr(swapped),
                           approx_intersection_db=approx_db,
                           exact_intersection_db=exact_db,
                           reference_db=reference_db)
