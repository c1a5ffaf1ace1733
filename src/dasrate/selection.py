"""Mode selection: argmax of closed-form sum rate over a candidate set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PathlossMatrix, Scenario
from .modes import (TransmissionMode, assignment_array, enumerate_ideal,
                    enumerate_min_distance)
from .rate import row_sum_rates, subset_rates


@dataclass(frozen=True)
class SelectionResult:
    chosen_mode: TransmissionMode
    chosen_rate: float
    scheme: str


def select_rows(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best candidate at each point of a (... x points x candidates) rate
    array: its column and its rate, one per point. The first maximizer
    wins ties."""
    best = rates.argmax(axis=-1)
    return best, np.take_along_axis(rates, best[..., None], axis=-1)[..., 0]


def compare_schemes(scenario: Scenario, pathloss: PathlossMatrix, snrs
                    ) -> tuple[list[SelectionResult], list[SelectionResult]]:
    """Exhaustive and nearest-user selection at each linear SNR of the
    sequence ``snrs``: one result per SNR and scheme, both sets rated from
    one subset-rate table over every SNR. Only the scenario's port and
    user counts are read: the rates depend on the SNR alone, not on its
    transmit or noise power.
    """
    sets = (enumerate_ideal(scenario.n_ports, scenario.n_users),
            enumerate_min_distance(pathloss))
    table = subset_rates(pathloss.gains[None], snrs)
    results = []
    for candidates in sets:
        rows = assignment_array(candidates.modes, scenario.n_ports)
        best, chosen = select_rows(row_sum_rates(table, rows)[0])
        results.append([SelectionResult(candidates.modes[b], r, candidates.origin.value)
                        for b, r in zip(best.tolist(), chosen.tolist())])
    return results[0], results[1]
