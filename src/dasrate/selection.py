"""Mode selection: argmax of closed-form sum rate over a candidate set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PathlossMatrix, Scenario
from .modes import TransmissionMode, enumerate_ideal, enumerate_min_distance
from .rate import block_sum_rates, rate_tables


@dataclass(frozen=True)
class SelectionResult:
    chosen_mode: TransmissionMode
    chosen_rate: float
    scheme: str


def select_rows(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best candidate at each point of a (points x candidates) rate
    array: its column and its rate, one per point. The first maximizer
    wins ties."""
    best = rates.argmax(axis=1)
    return best, rates[np.arange(len(rates)), best]


def compare_schemes(scenario: Scenario, pathloss: PathlossMatrix, snrs
                    ) -> tuple[list[SelectionResult], list[SelectionResult]]:
    """Exhaustive and nearest-user selection at each linear SNR of the
    sequence ``snrs``: one result per SNR and scheme, from one table with
    the rows of both sets rated at every SNR in one call. Only the
    scenario's port and user counts are read: the rates depend on the
    SNR alone, not on its transmit or noise power.
    """
    sets = (enumerate_ideal(scenario.n_ports, scenario.n_users),
            enumerate_min_distance(pathloss))
    (table,) = rate_tables(pathloss.gains[None], [[c.modes for c in sets]])
    (rates,) = block_sum_rates([table], snrs)
    results = []
    for candidates in sets:
        best, chosen = select_rows(rates[:, table.rows(candidates.modes)])
        results.append([SelectionResult(candidates.modes[b], r, candidates.origin.value)
                        for b, r in zip(best.tolist(), chosen.tolist())])
    return results[0], results[1]
