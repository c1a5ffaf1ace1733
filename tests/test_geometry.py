"""Geometry, user drops, pathloss, and config parsing tests."""

import math

import numpy as np
import pytest

from dasrate.errors import CapacityError, ConfigError
from dasrate.geometry import (MAX_PORTS, MIN_DISTANCE, Scenario, db_to_linear,
                              default_port_layout, linear_to_db,
                              parse_scenario_config, pathloss_matrix,
                              uniform_positions)
from dasrate.simulate import check_drop_size

CELL_RADIUS = math.sqrt(112.0 / 3.0)


def make_scenario(**overrides):
    base = dict(n_ports=2, n_users=2, cell_radius=CELL_RADIUS,
                pathloss_exponent=3.0,
                user_positions=((-3.0, -2.5), (3.0, 3.5)))
    base.update(overrides)
    return Scenario(**base)


def test_port_bound_is_the_largest_drop_check_drop_size_admits():
    """MAX_PORTS ports fit a block at K = 1, the smallest footprint, and
    one more port fits none at any K, so the bound refuses exactly the
    counts that no command could run."""
    check_drop_size(MAX_PORTS, 1)
    with pytest.raises(CapacityError):
        check_drop_size(MAX_PORTS + 1, 1)
    assert len(make_scenario(n_ports=MAX_PORTS, n_users=1, user_positions=None)
               .port_positions) == MAX_PORTS
    with pytest.raises(CapacityError, match=f"at most {MAX_PORTS} ports"):
        make_scenario(n_ports=MAX_PORTS + 1, n_users=1, user_positions=None)


def test_default_layout_two_ports():
    ports = default_port_layout(2, CELL_RADIUS)
    assert ports[0] == pytest.approx((4.0, 0.0), abs=1e-12)
    assert ports[1] == pytest.approx((-4.0, 0.0), abs=1e-12)


def test_default_layout_single_port():
    (port,) = default_port_layout(1, 10.0)
    assert port == pytest.approx((math.sqrt(3.0 / 7.0) * 10.0, 0.0), abs=1e-12)


def test_default_layout_four_ports():
    ports = default_port_layout(4, CELL_RADIUS)
    expected = [(4.0, 0.0), (0.0, 4.0), (-4.0, 0.0), (0.0, -4.0)]
    for got, want in zip(ports, expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_ring_radius_default():
    scn = make_scenario()
    assert scn.port_ring_radius == pytest.approx(4.0)


def test_pathloss_direct_arithmetic():
    # user at (-3,-2.5), port at (-4,0), p=3: d^2 = 7.25
    scn = make_scenario(port_positions=((-4.0, 0.0), (4.0, 0.0)))
    pl = pathloss_matrix(scn)
    assert pl.distances[0, 0] == pytest.approx(math.sqrt(7.25), rel=1e-14)
    assert pl.gains[0, 0] == pytest.approx(7.25 ** -1.5, rel=1e-14)
    assert pl.gains[0, 0] == pytest.approx(0.051226300186772926, rel=1e-12)


def test_pathloss_unit_distance():
    scn = Scenario(n_ports=1, n_users=1, cell_radius=5.0, pathloss_exponent=7.0,
                   port_positions=((1.0, 0.0),), user_positions=((0.0, 0.0),))
    assert pathloss_matrix(scn).gains[0, 0] == pytest.approx(1.0)


def test_pathloss_clamped_for_coincident_user():
    scn = Scenario(n_ports=1, n_users=1, cell_radius=5.0, pathloss_exponent=3.0,
                   port_positions=((1.0, 1.0),), user_positions=((1.0, 1.0),))
    pl = pathloss_matrix(scn)
    assert pl.distances[0, 0] == MIN_DISTANCE
    assert pl.gains[0, 0] == pytest.approx(1e6)


def test_pathloss_scale_consistency():
    """Scaling all coordinates by c scales every gain by c**-p."""
    scn = make_scenario()
    scaled = Scenario(n_ports=2, n_users=2, cell_radius=2.0 * CELL_RADIUS,
                      pathloss_exponent=3.0,
                      port_positions=tuple((2 * x, 2 * y)
                                           for x, y in scn.port_positions),
                      user_positions=tuple((2 * x, 2 * y)
                                           for x, y in scn.user_positions))
    ratio = pathloss_matrix(scaled).gains / pathloss_matrix(scn).gains
    assert np.allclose(ratio, 2.0 ** -3.0, rtol=1e-13)


def test_rotational_symmetry():
    """Rotating users by 2*pi/N matches a cyclic shift of the port columns."""
    n = 5
    rng = np.random.default_rng(3)
    users = tuple((float(x), float(y))
                  for x, y in rng.uniform(-3, 3, size=(4, 2)))
    scn = Scenario(n_ports=n, n_users=4, cell_radius=CELL_RADIUS,
                   pathloss_exponent=3.0, user_positions=users)
    theta = 2.0 * math.pi / n
    rotated_users = tuple((x * math.cos(theta) - y * math.sin(theta),
                           x * math.sin(theta) + y * math.cos(theta))
                          for x, y in users)
    rotated = Scenario(n_ports=n, n_users=4, cell_radius=CELL_RADIUS,
                       pathloss_exponent=3.0,
                       user_positions=rotated_users)
    original = pathloss_matrix(scn).gains
    shifted = pathloss_matrix(rotated).gains
    assert np.allclose(np.roll(original, 1, axis=1), shifted, rtol=1e-9)


def test_drop_users_radial_mean():
    """Mean radial distance of a uniform disc drop is (2/3) R."""
    n = 100_000
    # positions are i.i.d., so one big drop stands in for n single drops
    big = Scenario(n_ports=2, n_users=n, cell_radius=CELL_RADIUS,
                   pathloss_exponent=3.0)
    (positions,) = uniform_positions(big, [99])
    radii = np.hypot(*positions.T)
    mean = radii.mean()
    stderr = radii.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 2.0 / 3.0 * CELL_RADIUS) < 3.0 * stderr
    inside = (radii < CELL_RADIUS / 2.0).mean()
    assert abs(inside - 0.25) < 3.0 * math.sqrt(0.25 * 0.75 / n)
    assert radii.max() <= CELL_RADIUS


def test_drop_users_deterministic():
    template = Scenario(n_ports=2, n_users=3, cell_radius=CELL_RADIUS,
                        pathloss_exponent=3.0)
    assert np.array_equal(uniform_positions(template, [7]), uniform_positions(template, [7]))
    assert not np.array_equal(uniform_positions(template, [7]),
                              uniform_positions(template, [8]))


def test_db_conversions():
    assert db_to_linear(20.0) == pytest.approx(100.0)
    assert linear_to_db(100.0) == pytest.approx(20.0)


def test_scenario_validation():
    with pytest.raises(ConfigError, match="cell_radius must be finite and strictly positive"):
        make_scenario(cell_radius=-1.0)
    with pytest.raises(ConfigError):
        make_scenario(user_positions=((100.0, 100.0), (0.0, 0.0)))
    with pytest.raises(ConfigError):
        make_scenario(user_positions=((0.0, 0.0),))  # wrong count


CONFIG_TEXT = """
# fixed two-user geometry
n_ports = 2
n_users = 2
cell_radius = 6.110100926607787
pathloss_exponent = 3
port_positions = -4,0; 4,0
user_positions = -3,-2.5; 3,3.5
"""


def test_parse_config_round_trip():
    scn = parse_scenario_config(CONFIG_TEXT)
    assert scn.n_ports == 2 and scn.n_users == 2
    assert (scn.cell_radius, scn.pathloss_exponent) == (6.110100926607787, 3.0)
    assert scn.user_positions == ((-3.0, -2.5), (3.0, 3.5))
    assert scn.port_positions == ((-4.0, 0.0), (4.0, 0.0))


def test_parse_config_defaults_optional_keys():
    text = "\n".join(line for line in CONFIG_TEXT.splitlines()
                     if not line.startswith(("port_positions", "user_positions")))
    scn = parse_scenario_config(text)
    assert scn.user_positions is None
    assert scn.port_positions[0] == pytest.approx((4.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("old, new, message", [
    ("pathloss_exponent = 3", "badline", "key = value"),
    ("pathloss_exponent = 3", "pathloss_exponent = 3\nmystery = 3", "unknown key"),
    ("n_ports = 2", "n_ports = two", "non-numeric"),
    ("n_ports = 2", "n_ports = 2\nn_ports = 2", "duplicate key"),
    ("user_positions = -3,-2.5; 3,3.5", "user_positions = 1;2", "pairs"),
])
def test_parse_config_errors(old, new, message):
    with pytest.raises(ConfigError, match=message):
        parse_scenario_config(CONFIG_TEXT.replace(old, new))


def test_parse_config_missing_required():
    text = "\n".join(line for line in CONFIG_TEXT.splitlines()
                     if not line.startswith("pathloss_exponent"))
    with pytest.raises(ConfigError, match="missing required keys: pathloss_exponent$"):
        parse_scenario_config(text)
