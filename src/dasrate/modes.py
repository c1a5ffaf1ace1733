"""Transmission-mode representation and candidate-set generation.

A mode assigns each antenna port a served user index (1-based) or 0 for
off. Two generation strategies are provided: exhaustive enumeration of
every admissible assignment, and the reduced nearest-user construction
whose candidate count depends only on the number of ports.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError
from .geometry import PathlossMatrix

# Exhaustive enumeration refuses to materialize more than this many
# raw assignment vectors.
IDEAL_ENUMERATION_BUDGET = 10_000_000


class DegenerateGeometryWarning(UserWarning):
    """A geometry's nearest-user map sends every port to one user."""


@dataclass(frozen=True)
class TransmissionMode:
    """Port-to-user assignment vector with derived support sets.

    ``assignment[j]`` is the user served by port j (0 = port off). User
    indices are 1-based to match the rendered labels; port indices in the
    derived sets are 0-based column indices into the pathloss matrix.
    """

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.assignment:
            raise ValueError("assignment must be non-empty")
        entries = tuple(map(int, self.assignment))
        if entries != tuple(self.assignment) or min(entries) < 0:
            raise ValueError(f"assignment entries must be integers >= 0, "
                             f"got {self.assignment}")
        object.__setattr__(self, "assignment", entries)

    @cached_property
    def support_sets(self) -> dict[int, frozenset[int]]:
        """Ports serving each active user: {user: {port indices}}."""
        sets: dict[int, set[int]] = {}
        for port, user in enumerate(self.assignment):
            if user != 0:
                sets.setdefault(user, set()).add(port)
        return {user: frozenset(ports) for user, ports in sets.items()}

    @cached_property
    def active_ports(self) -> frozenset[int]:
        return frozenset(port for port, user in enumerate(self.assignment) if user != 0)

    @cached_property
    def complements(self) -> dict[int, frozenset[int]]:
        """Interfering ports per active user: active ports serving others."""
        return {user: self.active_ports - ports
                for user, ports in self.support_sets.items()}

    @property
    def n_active_users(self) -> int:
        return len(self.support_sets)

    @property
    def n_active_ports(self) -> int:
        return len(self.active_ports)

    @property
    def label(self) -> str:
        """Render as ``[u1 u2 ... uN]``, the format used in CSV and logs."""
        return "[" + " ".join(str(u) for u in self.assignment) + "]"

    @classmethod
    def from_label(cls, text: str) -> "TransmissionMode":
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        try:
            entries = tuple(int(tok) for tok in body.split())
        except ValueError as exc:
            raise ValueError(f"cannot parse mode label {text!r}") from exc
        if not entries:
            raise ValueError(f"cannot parse mode label {text!r}")
        return cls(entries)


def assignment_array(modes, n_ports: int) -> np.ndarray:
    """(modes x ports) assignments of a sequence of TransmissionMode; an
    int array of them is returned as it is."""
    if isinstance(modes, np.ndarray):
        return modes
    return np.array([m.assignment for m in modes], dtype=np.int64).reshape(-1, n_ports)


def _active_counts(assignment: tuple[int, ...]) -> tuple[int, int]:
    """(active users, active ports) of an assignment, with no support sets."""
    return len(set(assignment) - {0}), len(assignment) - assignment.count(0)


class Origin(enum.Enum):
    IDEAL = "ideal"
    MIN_DISTANCE = "min-distance"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class CandidateSet:
    modes: tuple[TransmissionMode, ...]
    origin: Origin

    def __post_init__(self) -> None:
        assignments = [m.assignment for m in self.modes]
        if len(set(assignments)) != len(assignments):
            raise ValueError("duplicate modes in candidate set")
        if self.origin is Origin.EXPLICIT:
            return
        # The exhaustive set never serves one user with fewer than all
        # ports; the reduced set may (shared nearest users), but keeps at
        # least two active ports.
        for m in self.modes:
            n_users, n_ports = _active_counts(m.assignment)
            if n_users == 0:
                raise ValueError("all-off mode not admissible")
            if n_users == 1 and n_ports < len(m.assignment) and self.origin is Origin.IDEAL:
                raise ValueError(f"partial-port single-user mode {m.label} not admissible")
            if n_users == 1 and n_ports == 1 and len(m.assignment) > 1:
                raise ValueError(f"single-port mode {m.label} not admissible")

    def __len__(self) -> int:
        return len(self.modes)

    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.modes)


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


def ideal_modes(n_ports: int, n_users: int,
                budget: int = IDEAL_ENUMERATION_BUDGET) -> np.ndarray:
    """Every admissible assignment, in lexicographic order, as the rows of
    a (modes x ports) int array. Excluded: the all-off vector, and
    single-active-user assignments with any port off. Raises
    CapacityError, before allocating, when (K+1)^N exceeds ``budget``."""
    raw_size = (n_users + 1) ** n_ports
    if raw_size > budget:
        raise CapacityError(
            f"(K+1)^N = {raw_size} assignment vectors exceeds the enumeration "
            f"budget of {budget} for N={n_ports}, K={n_users}")
    rows = np.indices((n_users + 1,) * n_ports).reshape(n_ports, -1).T
    active = rows != 0
    # Two distinct active users, or every port on (and so one user).
    keep = (active & (rows != rows.max(axis=1, keepdims=True))).any(axis=1) | active.all(axis=1)
    return rows[keep]


def enumerate_ideal(n_ports: int, n_users: int,
                    budget: int = IDEAL_ENUMERATION_BUDGET) -> CandidateSet:
    """The rows of ``ideal_modes`` as a CandidateSet of TransmissionModes."""
    rows = ideal_modes(n_ports, n_users, budget).tolist()
    return CandidateSet(tuple(map(TransmissionMode, map(tuple, rows))), Origin.IDEAL)


def nearest_user_modes(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-user candidate sets of a block of drops, in one array pass.

    ``distances`` is (drops x users x ports). Starting from the mode where
    each port serves its nearest user, every port on/off mask with more
    than one active port is kept; masks leaving a single port on are
    dropped, and one single-user mode serving the globally closest user
    with all ports is added instead. Size is 2^N - N, or one less when
    every port shares one nearest user: the added mode is then the
    all-ports mask. Returns the (modes x ports) assignments of every
    drop's set, drop after drop, each in lexicographic order with no
    repeats, and the (drops + 1) offsets of each drop's rows.
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
    rows = flat[np.lexsort([*flat.T[::-1], drop])].reshape(rows.shape)
    # Sorted, a repeated mode sits next to its first copy.
    keep = np.ones(rows.shape[:2], dtype=bool)
    keep[:, 1:] = (rows[:, 1:] != rows[:, :-1]).any(axis=2)
    return rows[keep], np.concatenate([[0], np.cumsum(keep.sum(axis=1))])


def enumerate_min_distance(pathloss: PathlossMatrix) -> CandidateSet:
    """Reduced candidate set built from the nearest-user base mode: the
    one-drop case of ``nearest_user_modes``. Warns when every port shares
    one nearest user, so the set is smaller than 2^N - N."""
    rows, _ = nearest_user_modes(pathloss.distances[None])
    candidates = CandidateSet(modes=tuple(map(TransmissionMode, map(tuple, rows.tolist()))),
                              origin=Origin.MIN_DISTANCE)
    if len(candidates) < min_distance_count(pathloss.distances.shape[1]):
        warnings.warn(
            "degenerate geometry: every port shares one nearest user, so the "
            "appended single-user mode duplicates a mask result and the "
            "candidate set is smaller than 2^N - N",
            DegenerateGeometryWarning, stacklevel=2)
    return candidates
