"""Mode selection: argmax of closed-form sum rate over a candidate set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PathlossMatrix, Scenario
from .modes import CandidateSet, TransmissionMode, enumerate_ideal, enumerate_min_distance
from .rate import RateTable


@dataclass(frozen=True)
class SelectionResult:
    chosen_mode: TransmissionMode
    chosen_rate: float
    per_candidate_rates: tuple[float, ...]
    scheme: str


def select_mode(table: RateTable, candidates: CandidateSet,
                snr: float) -> SelectionResult:
    """Best candidate at linear SNR ``snr``; first maximizer wins ties.

    Every candidate must be a mode of ``table``. Rates depend on transmit
    power and noise only through their ratio, so the table is evaluated at
    tx_power = snr * noise_power.
    """
    if not candidates.modes:
        raise ValueError("empty candidate set")
    rates = table.sum_rates(snr * table.noise_power)[table.rows(candidates.modes)]
    best = int(np.argmax(rates))
    return SelectionResult(chosen_mode=candidates.modes[best],
                           chosen_rate=float(rates[best]),
                           per_candidate_rates=tuple(rates.tolist()),
                           scheme=candidates.origin.value)


def compare_schemes(scenario: Scenario, pathloss: PathlossMatrix,
                    snr: float) -> tuple[SelectionResult, SelectionResult]:
    """Run exhaustive and nearest-user selection on one table over both sets."""
    ideal = enumerate_ideal(scenario.n_ports, scenario.n_users)
    reduced = enumerate_min_distance(pathloss)
    table = RateTable(scenario, pathloss, dict.fromkeys(ideal.modes + reduced.modes))
    return select_mode(table, ideal, snr), select_mode(table, reduced, snr)
