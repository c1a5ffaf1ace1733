"""Experiment drivers, CSV schemas, and the crossover report."""

import math
from importlib import resources

import pytest

from dasrate.errors import ConfigError
from dasrate.experiments import (crossover_lines, curve_to_csv, histogram_to_csv,
                                 parse_snr_spec, resolve_mode_filter)
from dasrate.geometry import _REQUIRED_KEYS, linear_to_db, load_scenario, pathloss_matrix
from dasrate.rate import crossover_curves_db, crossover_snr
from dasrate.simulate import cell_average

FIG2 = load_scenario("fig2.cfg")


def test_parse_snr_spec():
    assert parse_snr_spec("0:5:50") == tuple(float(x) for x in range(0, 51, 5))
    assert parse_snr_spec("-10:2.5:-5") == (-10.0, -7.5, -5.0)
    for bad in ("0:5", "0:0:50", "50:5:0", "a:b:c"):
        with pytest.raises(ConfigError):
            parse_snr_spec(bad)


def test_bundled_configs_all_load():
    """Each bundled config loads by name and sets the required keys and,
    of the optional ones, only those listed here."""
    fixed = ("port_positions", "user_positions")
    for name, (n, k, optional) in {"fig2.cfg": (2, 2, fixed), "fig3.cfg": (2, 2, ()),
                                   "fig4.cfg": (3, 3, ()), "fig5.cfg": (4, 4, ()),
                                   "fig6.cfg": (5, 5, ()), "fig7.cfg": (3, 3, ()),
                                   "fig8.cfg": (4, 4, ())}.items():
        scn = load_scenario(name)
        assert (scn.n_ports, scn.n_users) == (n, k)
        assert scn.cell_radius == pytest.approx(math.sqrt(112.0 / 3.0))
        text = resources.files("dasrate").joinpath("configs", name).read_text()
        lines = [line.split("#", 1)[0] for line in text.splitlines()]
        keys = [line.split("=", 1)[0].strip() for line in lines if line.strip()]
        assert sorted(keys) == sorted(_REQUIRED_KEYS + optional)
    with pytest.raises(ConfigError, match="^no bundled config named 'fig99.cfg'$"):
        load_scenario("fig99.cfg")


def test_fig2_config_geometry():
    assert FIG2.port_positions == ((-4.0, 0.0), (4.0, 0.0))
    assert FIG2.user_positions == ((-3.0, -2.5), (3.0, 3.5))


def test_resolve_mode_filter_defaults_to_ideal_set():
    modes = resolve_mode_filter(None, 2, 2)
    assert modes.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]


def test_resolve_mode_filter_unknown_label_lists_valid():
    """A row is checked against the scenario and the exhaustive-set rule,
    and the error names the condition it fails."""
    with pytest.raises(ConfigError, match="2 users"):
        resolve_mode_filter([(3, 1)], 2, 2)
    with pytest.raises(ConfigError, match="port off"):
        resolve_mode_filter([(1, 0)], 2, 2)  # inadmissible single-port mode
    assert resolve_mode_filter([(2, 1), (1, 1)], 2, 2).tolist() == [[2, 1], [1, 1]]


def rates_csv(modes, grid, n_channels, seed=1):
    """The CSV of fig2's ``modes`` that ``rates`` prints: one drop's
    closed-form values and, at ``n_channels``, its Monte Carlo means and
    channel-level standard errors."""
    modes = list(modes)
    analytic, zeros = cell_average(FIG2, modes, grid, 1, 0, seed)
    assert not zeros.any()
    mc_blocks = [] if not n_channels else zip(
        ("mc", "mc_stderr"), cell_average(FIG2, modes, grid, 1, n_channels, seed))
    return curve_to_csv(grid, modes, ("analytic", analytic), *mc_blocks)


def test_curve_csv_schema_and_stability():
    modes = resolve_mode_filter([(1, 2)], 2, 2)
    text = rates_csv(modes, (0.0, 10.0), n_channels=500, seed=2)
    lines = text.strip().split("\n")
    assert lines[0] == "snr_db,[1 2]_analytic,[1 2]_mc,[1 2]_mc_stderr"
    assert len(lines) == 3
    assert all(float(line.split(",")[3]) > 0 for line in lines[1:])
    again = rates_csv(modes, (0.0, 10.0), n_channels=500, seed=2)
    assert text == again  # byte-stable at fixed seed


def test_analytic_only_curve_has_no_mc_columns():
    modes = resolve_mode_filter([(1, 1)], 2, 2)
    assert rates_csv(modes, (0.0,), n_channels=0).startswith("snr_db,[1 1]_analytic\n")


def test_sweep_guards_large_exhaustive_runs():
    template = load_scenario("fig6.cfg")
    # 7625 candidates x 60 000 drops x 2 points is past the work limit...
    with pytest.raises(ConfigError, match="force"):
        cell_average(template, ["ideal"], (0.0, 10.0), n_drops=60_000,
                     n_channels=0, seed=1)
    # ...and one drop is not.
    means, _ = cell_average(template, ["ideal"], (0.0, 10.0), n_drops=1,
                            n_channels=0, seed=1)
    assert means.shape == (1, 2)
    # min-distance at the same size is fine
    means, _ = cell_average(template, ["min-distance"], (0.0,), n_drops=2,
                            n_channels=0, seed=1)
    assert means.shape == (1, 1)


def test_selection_gain_shrinks_at_high_snr():
    """The margin of the selection scheme over the best fixed mode peaks in
    the mid-SNR region and decreases as SNR grows large."""
    import numpy as np
    from dasrate.modes import ideal_modes

    template = load_scenario("fig3.cfg")
    grid = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    means, _ = cell_average(template, ["ideal", *ideal_modes(2, 2)], grid, 300, 0, seed=20)
    gain = means[0] - means[1:].max(axis=0)
    assert np.all(gain >= -1e-12)
    assert gain[5] < gain[4] < gain[3]  # 30 -> 40 -> 50 dB
    assert gain[5] < gain.max()


def test_sweep_merges_schemes_and_fixed_modes():
    template = load_scenario("fig3.cfg")
    schemes = ["min-distance", (1, 2)]
    means, _ = cell_average(template, schemes, (0.0, 20.0), n_drops=25, n_channels=0, seed=3)
    assert means.shape == (2, 2)
    text = curve_to_csv((0.0, 20.0), schemes, ("analytic", means))
    assert text.splitlines()[0] == "snr_db,min-distance_analytic,[1 2]_analytic"


def test_histogram_csv_schema():
    text = histogram_to_csv({(0.0, 10.0): {"KA1_NA3": 0.25, "KA3_NA3": 0.75}})
    lines = text.strip().split("\n")
    assert lines[0] == "range_lo_db,range_hi_db,group_label,fraction"
    assert lines[1] == "0,10,KA1_NA3,0.25"


def test_crossover_report_frozen_fig2_values():
    gains = pathloss_matrix(FIG2).gains
    vs_12, vs_21 = map(linear_to_db, crossover_snr(gains))
    assert vs_12 == pytest.approx(37.224, abs=1e-3)
    assert vs_21 == pytest.approx(27.922, abs=1e-3)
    # swapping user labels moves the formula answer substantially
    assert linear_to_db(crossover_snr(gains[::-1])[0]) == pytest.approx(17.494, abs=1e-3)
    approx_db, exact_db = crossover_curves_db(gains)
    assert exact_db == pytest.approx(37.78, abs=0.05)
    assert approx_db == pytest.approx(36.38, abs=0.05)
    text = "\n".join(crossover_lines(FIG2, reference_db=37.2))
    assert "users swapped" in text and "reference" in text


def test_crossover_report_requires_two_by_two():
    template = load_scenario("fig4.cfg")
    with pytest.raises(ConfigError):
        crossover_lines(template)
