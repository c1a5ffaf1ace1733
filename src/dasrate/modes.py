"""Transmission-mode representation and candidate-set generation.

A mode assigns each antenna port a served user index (1-based) or 0 for
off. The CLI reads a mode's label with ``parse_label``; below it a set
of modes is a (modes x ports) int array with one assignment per row. Two
generation strategies are provided: exhaustive enumeration of every
admissible assignment, and the reduced nearest-user construction whose
candidate count depends only on the number of ports.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ConfigError

# Exhaustive enumeration refuses to materialize more than this many
# raw assignment vectors.
IDEAL_ENUMERATION_BUDGET = 10_000_000


def parse_label(text: str) -> tuple[int, ...]:
    """The assignment row of a label ``[u1 u2 ... uN]`` (brackets
    optional): entry j is the 1-based user served by port j, 0 for off.
    ``check_fit`` checks the row against a scenario."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        entries = tuple(int(tok) for tok in body.split())
    except ValueError as exc:
        raise ValueError(f"cannot parse mode label {text!r}") from exc
    if not entries:
        raise ValueError(f"cannot parse mode label {text!r}")
    return entries


def mode_label(row) -> str:
    """The label ``[u1 u2 ... uN]`` of an assignment row, the format used
    in CSV and logs."""
    return "[" + " ".join(str(u) for u in row) + "]"


def check_fit(rows, n_ports: int, n_users: int) -> np.ndarray:
    """The assignment ``rows``, each a sequence of N port entries, as one
    (rows x ports) int array; ConfigError names the first row that does
    not fit a scenario of ``n_ports`` ports and ``n_users`` users, and
    the first condition it fails. Any row that fits may be swept as a
    fixed mode, in the exhaustive set or not (``[1 0 0]`` serves one user
    on one of three ports); ``rates`` also asks for ``admissible`` rows."""
    for row in rows:
        if len(row) != n_ports:
            raise ConfigError(f"fixed mode {mode_label(row)} has {len(row)} entries; "
                              f"the scenario has {n_ports} ports")
    array = np.asarray(rows).reshape(len(rows), n_ports)
    top = array.max(axis=1)
    faults = {"needs integer entries >= 0": ((array != np.floor(array)) | (array < 0)).any(1),
              f"serves user {{}}; the scenario has {n_users} users": top > n_users,
              "has no active port": ~array.any(axis=1)}
    for row in np.flatnonzero(np.logical_or.reduce([*faults.values()]))[:1]:
        why = next(why for why, fault in faults.items() if fault[row])
        raise ConfigError(f"fixed mode {mode_label(rows[row])} " + why.format(top[row]))
    return array.astype(int)


def ideal_count(n_ports: int, n_users: int) -> int:
    """Closed-form size of the exhaustive candidate set.

    All (K+1)^N assignments, minus the all-off vector, minus single-user
    assignments that leave at least one port off (K*(2^N - 2) of them):
    serving one user with fewer than all N ports never beats using all N.
    """
    if n_ports < 1 or n_users < 1:
        raise ValueError("n_ports and n_users must be >= 1")
    return (n_users + 1) ** n_ports - n_users * (2 ** n_ports - 2) - 1


def min_distance_count(n_ports: int) -> int:
    """Closed-form size of the nearest-user candidate set: 2^N - N."""
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    return 2 ** n_ports - n_ports


def check_enumeration_budget(n_ports: int, n_users: int) -> None:
    """Raise CapacityError when the exhaustive set's (K+1)^N raw
    assignment vectors exceed IDEAL_ENUMERATION_BUDGET."""
    raw_size = (n_users + 1) ** n_ports
    if raw_size > IDEAL_ENUMERATION_BUDGET:
        raise CapacityError(
            f"(K+1)^N = {raw_size} assignment vectors exceeds the enumeration "
            f"budget of {IDEAL_ENUMERATION_BUDGET} for N={n_ports}, K={n_users}")


def ideal_modes(n_ports: int, n_users: int) -> np.ndarray:
    """Every admissible assignment, in lexicographic order, as the rows of
    a (modes x ports) int array. Excluded: the all-off vector, and
    single-active-user assignments with any port off. Raises
    CapacityError, before allocating, past ``check_enumeration_budget``."""
    check_enumeration_budget(n_ports, n_users)
    rows = np.indices((n_users + 1,) * n_ports).reshape(n_ports, -1).T
    return rows[admissible(rows)]


def admissible(rows: np.ndarray) -> np.ndarray:
    """Which rows of a (modes x ports) assignment array the exhaustive set
    holds: those with two distinct active users, or with every port on
    (and so one user)."""
    active = rows != 0
    return (active & (rows != rows.max(axis=1, keepdims=True))).any(axis=1) | active.all(axis=1)


def nearest_user_modes(distances: np.ndarray) -> np.ndarray:
    """Nearest-user candidate sets of a block of drops, in one array pass.

    ``distances`` is (drops x users x ports). Starting from the mode where
    each port serves its nearest user, every port on/off mask with more
    than one active port is kept; masks leaving a single port on are
    dropped, and one single-user mode serving the globally closest user
    with all ports is added instead. Returns the (drops x (2^N - N) x
    ports) assignments, each drop's in lexicographic order. When every
    port shares one nearest user the added mode is the all-ports mask, so
    the set holds 2^N - N - 1 distinct modes and that one twice, in
    adjacent rows; a first-maximizer argmax takes the first copy.
    """
    n_drops, n_users, n_ports = distances.shape
    # Per-port nearest user; distance ties go to the lowest index.
    base = distances.argmin(axis=1) + 1
    masks = (np.arange(1, 2 ** n_ports)[:, None] >> np.arange(n_ports)) & 1
    masks = masks[masks.sum(axis=1) > 1]
    # Globally closest (user, port) pair; row-major argmin breaks ties
    # toward the lowest user index.
    closest = distances.reshape(n_drops, -1).argmin(axis=1) // n_ports + 1
    rows = np.concatenate([base[:, None, :] * masks,
                           np.repeat(closest[:, None, None], n_ports, axis=2)], axis=1)
    flat = rows.reshape(-1, n_ports)
    drop = np.repeat(np.arange(n_drops), rows.shape[1])
    return flat[np.lexsort([*flat.T[::-1], drop])].reshape(rows.shape)
