"""Mode selection: argmax of closed-form sum rate over a candidate set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PathlossMatrix, Scenario
from .modes import CandidateSet, TransmissionMode, enumerate_ideal, enumerate_min_distance
from .rate import RateTable, block_sum_rates, rate_tables


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


def select_mode(table: RateTable, candidates: CandidateSet,
                rates: np.ndarray) -> SelectionResult:
    """Best candidate by ``rates``: the one-point case of ``select_rows``.

    ``rates`` is ``table.sum_rates`` at one transmit power, one entry per
    mode of ``table``, so every scheme of a drop selects from one
    evaluation. Every candidate must be a mode of ``table``.
    """
    if not candidates.modes:
        raise ValueError("empty candidate set")
    (best,), (rate,) = select_rows(rates[None, table.rows(candidates.modes)])
    return SelectionResult(chosen_mode=candidates.modes[best], chosen_rate=float(rate),
                           scheme=candidates.origin.value)


def compare_schemes(scenario: Scenario, pathloss: PathlossMatrix, snrs
                    ) -> tuple[list[SelectionResult], list[SelectionResult]]:
    """Exhaustive and nearest-user selection at each linear SNR of the
    sequence ``snrs``: one result per SNR and scheme, from one table with
    the rows of both sets rated at every SNR in one call.

    Rates depend on transmit power and noise only through their ratio, so
    the table is evaluated at tx_power = snr * noise_power.
    """
    sets = (enumerate_ideal(scenario.n_ports, scenario.n_users),
            enumerate_min_distance(pathloss))
    (table,) = rate_tables(scenario, pathloss.gains[None], [[c.modes for c in sets]])
    (rates,) = block_sum_rates([table], np.asarray(snrs, dtype=float) * scenario.noise_power)
    results = []
    for candidates in sets:
        best, chosen = select_rows(rates[:, table.rows(candidates.modes)])
        results.append([SelectionResult(candidates.modes[b], r, candidates.origin.value)
                        for b, r in zip(best.tolist(), chosen.tolist())])
    return results[0], results[1]
