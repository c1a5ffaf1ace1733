"""Mode selection: argmax of closed-form sum rate over a candidate set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PathlossMatrix, Scenario
from .modes import CandidateSet, TransmissionMode, enumerate_ideal, enumerate_min_distance
from .rate import RateTable, rate_tables


@dataclass(frozen=True)
class SelectionResult:
    chosen_mode: TransmissionMode
    chosen_rate: float
    scheme: str


def select_mode(table: RateTable, candidates: CandidateSet,
                rates: np.ndarray) -> SelectionResult:
    """Best candidate by ``rates``; first maximizer wins ties.

    ``rates`` is ``table.sum_rates`` at one transmit power, one entry per
    mode of ``table``, so every scheme of a drop selects from one
    evaluation. Every candidate must be a mode of ``table``.
    """
    if not candidates.modes:
        raise ValueError("empty candidate set")
    rates = rates[table.rows(candidates.modes)]
    best = int(np.argmax(rates))
    return SelectionResult(chosen_mode=candidates.modes[best],
                           chosen_rate=float(rates[best]),
                           scheme=candidates.origin.value)


def compare_schemes(scenario: Scenario, pathloss: PathlossMatrix,
                    snr: float) -> tuple[SelectionResult, SelectionResult]:
    """Run exhaustive and nearest-user selection at linear SNR ``snr`` on
    one table with the rows of both sets.

    Rates depend on transmit power and noise only through their ratio, so
    the table is evaluated at tx_power = snr * noise_power.
    """
    ideal = enumerate_ideal(scenario.n_ports, scenario.n_users)
    reduced = enumerate_min_distance(pathloss)
    (table,) = rate_tables(scenario, pathloss.gains[None], [[ideal.modes, reduced.modes]])
    rates = table.sum_rates(snr * scenario.noise_power)
    return select_mode(table, ideal, rates), select_mode(table, reduced, rates)
