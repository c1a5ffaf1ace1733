"""Mode selection: argmax of closed-form sum rate over a candidate set."""

from __future__ import annotations

import numpy as np


def select_rows(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best candidate at each point of a (... x points x candidates) rate
    array: its column and its rate, one per point. The first maximizer
    wins ties."""
    best = rates.argmax(axis=-1)
    return best, np.take_along_axis(rates, best[..., None], axis=-1)[..., 0]
