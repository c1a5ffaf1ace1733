"""Cell layout, antenna-port placement, user drops, and pathloss gains."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
# numpy loads its random module lazily, on first use; load it at import
# so the first drop of a timed command does not pay for it.
import numpy.random  # noqa: F401

from .errors import CapacityError, ConfigError

Coord = tuple[float, float]

# Ring radius of the circular port layout, as a fraction of cell radius.
RING_RADIUS_FACTOR = math.sqrt(3.0 / 7.0)

# SNR points lie within +-MAX_ABS_SNR_DB dB. Every closed-form and Monte
# Carlo rate of the bundled configs is finite there; the linear SNR itself
# overflows a float near 3083 dB.
MAX_ABS_SNR_DB = 300.0

# Most antenna ports a scenario may have. Every command builds a drop's
# nearest-user set and subset-rate table, over the 2^N port masks, and
# simulate.check_drop_size admits no drop past 16 ports at any K; a larger
# count is refused on construction, before the port layout is built.
MAX_PORTS = 16

# Pathloss d**-p diverges for a user on top of a port; distances are
# clamped below at this value (in the same units as cell_radius).
MIN_DISTANCE = 0.01


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class Scenario:
    """Static problem description: counts, pathloss, and coordinates.

    ``user_positions`` may be None for a template scenario whose users
    are drawn later by :func:`uniform_positions`; every other field is
    fixed at construction. Port positions default to the circular layout.
    """

    n_ports: int
    n_users: int
    cell_radius: float
    pathloss_exponent: float
    port_ring_radius: float | None = None
    port_positions: tuple[Coord, ...] | None = None
    user_positions: tuple[Coord, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_ports < 1 or self.n_users < 1:
            raise ConfigError("n_ports and n_users must be >= 1")
        if self.n_ports > MAX_PORTS:
            raise CapacityError(f"one drop at N = {self.n_ports} ports and K = {self.n_users} "
                                f"fits no block: at most {MAX_PORTS} ports are supported")
        for name in ("cell_radius", "pathloss_exponent"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and strictly positive")
        if self.port_ring_radius is None:
            object.__setattr__(self, "port_ring_radius",
                               RING_RADIUS_FACTOR * self.cell_radius)
        elif not math.isfinite(self.port_ring_radius):
            raise ConfigError("port_ring_radius must be finite")
        if self.port_positions is None:
            object.__setattr__(self, "port_positions",
                               default_port_layout(self.n_ports, self.cell_radius,
                                                   self.port_ring_radius))
        elif len(self.port_positions) != self.n_ports:
            raise ConfigError(f"expected {self.n_ports} port positions, "
                              f"got {len(self.port_positions)}")
        # Every kernel argument 1 / (d**-p * snr), over the distances a user
        # can have and the SNR points, must be a normal positive float.
        reach = max(math.hypot(x, y) for x, y in self.port_positions)
        far = max(MIN_DISTANCE, self.cell_radius + reach)
        log_args = [self.pathloss_exponent * math.log10(d) + sign * MAX_ABS_SNR_DB / 10.0
                    for d in (MIN_DISTANCE, far) for sign in (-1.0, 1.0)]
        if not (math.log10(sys.float_info.min) <= min(log_args)
                and max(log_args) <= math.log10(sys.float_info.max)):
            raise ConfigError(f"pathloss_exponent {self.pathloss_exponent:g} is too large: "
                              f"the gains at distances {MIN_DISTANCE:g} to {far:g} leave "
                              f"the float range at +-{MAX_ABS_SNR_DB:g} dB SNR")
        if self.user_positions is not None:
            if len(self.user_positions) != self.n_users:
                raise ConfigError(f"expected {self.n_users} user positions, "
                                  f"got {len(self.user_positions)}")
            for x, y in self.user_positions:
                if math.hypot(x, y) > self.cell_radius * (1.0 + 1e-12):
                    raise ConfigError(f"user position ({x}, {y}) lies outside "
                                      f"the cell of radius {self.cell_radius}")


@dataclass(frozen=True)
class PathlossMatrix:
    """Per-(user, port) Euclidean distances and large-scale gains d**-p."""

    distances: np.ndarray  # shape (K, N), or (drops, K, N) for a block
    gains: np.ndarray      # same shape, distance**-pathloss_exponent


def default_port_layout(n_ports: int, cell_radius: float,
                        ring_radius: float | None = None) -> tuple[Coord, ...]:
    """Ports evenly spaced on a ring, port j at angle 2*pi*(j-1)/N."""
    if n_ports < 1:
        raise ConfigError("n_ports must be >= 1")
    r = RING_RADIUS_FACTOR * cell_radius if ring_radius is None else ring_radius
    angles = 2.0 * math.pi * np.arange(n_ports) / n_ports
    return tuple((float(r * math.cos(a)), float(r * math.sin(a))) for a in angles)


def pathloss_matrix(scenario: Scenario, users: np.ndarray | None = None) -> PathlossMatrix:
    """Distances and gains for every (user, port) pair, (K x N) each; a
    block of drops passes its (drops x K x 2) ``users`` positions and gets
    (drops x K x N).

    Distances are clamped below at MIN_DISTANCE before exponentiation so
    gains stay finite even for a user coincident with a port.
    """
    if users is None:
        if scenario.user_positions is None:
            raise ConfigError("scenario has no user positions; drop users first")
        users = np.asarray(scenario.user_positions, dtype=float)
    diffs = users[..., :, None, :] - np.asarray(scenario.port_positions, dtype=float)
    distances = np.maximum(np.hypot(diffs[..., 0], diffs[..., 1]), MIN_DISTANCE)
    gains = distances ** (-scenario.pathloss_exponent)
    distances.setflags(write=False)
    gains.setflags(write=False)
    return PathlossMatrix(distances=distances, gains=gains)


def uniform_positions(template: Scenario, seeds) -> np.ndarray:
    """(drops x K x 2) user positions drawn i.i.d. uniform on the cell
    disc, drop i from ``seeds[i]``: its K radii, then its K angles.

    Radius is sampled as R*sqrt(u) with u uniform so the density is
    uniform in area; cos and sin are libm's, per element.
    """
    k = template.n_users
    u = np.array([np.random.default_rng(seed).random(2 * k) for seed in seeds]).reshape(-1, 2, k)
    radii = template.cell_radius * np.sqrt(u[:, 0])
    angles = (2.0 * math.pi * u[:, 1]).ravel().tolist()
    cos, sin = (np.array(list(map(f, angles))).reshape(radii.shape) for f in (math.cos, math.sin))
    return np.stack([radii * cos, radii * sin], axis=-1)


# --- scenario config files -------------------------------------------------
#
# Flat key = value text. Position lists are semicolon-separated x,y pairs:
#     user_positions = -3,-2.5; 3,3.5

_REQUIRED_KEYS = ("n_ports", "n_users", "cell_radius", "pathloss_exponent")
_OPTIONAL_KEYS = ("port_ring_radius", "user_positions", "port_positions")


def _parse_positions(value: str, key: str) -> tuple[Coord, ...]:
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{key}: expected 'x,y' pairs separated by ';', "
                              f"got {chunk!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"{key}: non-numeric coordinate in {chunk!r}") from exc
        if not all(map(math.isfinite, pairs[-1])):
            raise ConfigError(f"{key}: non-finite coordinate in {chunk!r}")
    if not pairs:
        raise ConfigError(f"{key}: no coordinate pairs found")
    return tuple(pairs)


def parse_scenario_config(text: str) -> Scenario:
    """Build a Scenario from flat key = value configuration text."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    try:
        n_ports = int(raw["n_ports"])
        n_users = int(raw["n_users"])
        cell_radius = float(raw["cell_radius"])
        pathloss_exponent = float(raw["pathloss_exponent"])
        ring = float(raw["port_ring_radius"]) if "port_ring_radius" in raw else None
    except ValueError as exc:
        raise ConfigError(f"non-numeric value in config: {exc}") from exc
    ports = (_parse_positions(raw["port_positions"], "port_positions")
             if "port_positions" in raw else None)
    users = (_parse_positions(raw["user_positions"], "user_positions")
             if "user_positions" in raw else None)
    return Scenario(n_ports=n_ports, n_users=n_users, cell_radius=cell_radius,
                    pathloss_exponent=pathloss_exponent, port_ring_radius=ring,
                    port_positions=ports, user_positions=users)


def load_scenario(name: str | Path) -> Scenario:
    """The Scenario of the config file ``name`` or, when no such file
    exists, of the bundled config of that name (e.g. ``fig2.cfg``)."""
    path = Path(name)
    if path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    else:
        try:
            text = resources.files("dasrate").joinpath("configs", str(name)).read_text()
        except OSError as exc:
            raise ConfigError(f"no bundled config named {str(name)!r}") from exc
    return parse_scenario_config(text)
