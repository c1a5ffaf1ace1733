"""Monte Carlo engine and cell-averaged experiment tests."""

import math

import numpy as np
import pytest

from dasrate import numerics, simulate
from dasrate.geometry import (PathlossMatrix, Scenario, drop_users_uniform,
                              pathloss_matrix)
from dasrate.modes import TransmissionMode, enumerate_ideal
from dasrate.rate import ergodic_sum_rate
from dasrate.simulate import (_batch_sum_rates, _mode_weight_matrices, _stream,
                              cell_average, mc_ergodic_sum_rate, mode_histogram)

CELL_RADIUS = math.sqrt(112.0 / 3.0)


def template(n, k=None):
    return Scenario(n_ports=n, n_users=k if k is not None else n,
                    cell_radius=CELL_RADIUS, pathloss_exponent=3.0, tx_power=1.0)


def unit_scenario():
    return Scenario(n_ports=1, n_users=1, cell_radius=5.0, pathloss_exponent=3.0,
                    tx_power=1.0, port_positions=((1.0, 0.0),),
                    user_positions=((0.0, 0.0),))


def instantaneous_sum_rates(scn, mode, power_gains):
    """The Monte Carlo engine's sum rate for each (K, N) fading draw."""
    sig_w, intf_w = _mode_weight_matrices(pathloss_matrix(scn), mode, scn.tx_power)
    return _batch_sum_rates(sig_w, intf_w, scn.noise_power, np.asarray(power_gains))


def test_instantaneous_rate_unit_case():
    rates = instantaneous_sum_rates(unit_scenario(), TransmissionMode((1,)),
                                    np.ones((1, 1, 1)))
    assert rates[0] == pytest.approx(1.0)


def test_instantaneous_rate_zero_fading():
    rates = instantaneous_sum_rates(unit_scenario(), TransmissionMode((1,)),
                                    np.zeros((1, 1, 1)))
    assert rates[0] == 0.0


def test_instantaneous_rates_hand_built_two_by_two():
    """User 1 is served by port 1 and hears port 2; user 2 the reverse."""
    gains = np.array([[0.1, 0.2], [0.3, 0.4]])
    sig_w, intf_w = _mode_weight_matrices(
        PathlossMatrix(distances=gains ** (-1.0 / 3.0), gains=gains),
        TransmissionMode((1, 2)), tx_power=10.0)
    assert np.array_equal(sig_w, [[1.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(intf_w, [[0.0, 2.0], [3.0, 0.0]])
    h = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    rates = _batch_sum_rates(sig_w, intf_w, 1.0, h)
    assert rates[0] == pytest.approx(math.log2(1.0 + 1.0 / 5.0)
                                     + math.log2(1.0 + 16.0 / 10.0))
    # each user alone: its own signal over noise plus its interferer
    for user, expected in ((0, 1.0 / 5.0), (1, 16.0 / 10.0)):
        keep = np.zeros((2, 1))
        keep[user] = 1.0
        alone = _batch_sum_rates(sig_w * keep, intf_w * keep, 1.0, h)
        assert alone[0] == pytest.approx(math.log2(1.0 + expected))


def test_fading_draws_unit_mean():
    """The engine's per-chunk streams draw unit-mean power gains."""
    small = _stream(31, (0,)).exponential(size=(2, 4, 3))
    assert small.shape == (2, 4, 3)
    big = _stream(31, (0,)).exponential(size=(1000, 1000))
    assert big.mean() == pytest.approx(1.0, abs=0.01)


def test_mc_deterministic_per_seed():
    scn = drop_users_uniform(template(2), 32).with_tx_power(100.0)
    pl = pathloss_matrix(scn)
    mode = TransmissionMode((1, 2))
    first = mc_ergodic_sum_rate(scn, pl, mode, 20_000, seed=5)
    second = mc_ergodic_sum_rate(scn, pl, mode, 20_000, seed=5)
    assert first == second
    third = mc_ergodic_sum_rate(scn, pl, mode, 20_000, seed=6)
    assert third.mean != first.mean


def test_mc_bit_identical_across_worker_counts():
    """Monte Carlo cell averages of a scheme and a fixed mode, with more
    channels than one chunk, match bit for bit on one and two workers."""
    schemes = ["min-distance", TransmissionMode((1, 1))]
    serial, parallel = (cell_average(template(2), schemes, (10.0, 30.0), n_drops=3,
                                     n_channels=10_000, seed=7, rating="mc",
                                     n_jobs=n_jobs)
                        for n_jobs in (1, 2))
    assert serial == parallel


def test_mc_matches_closed_form_three_sigma():
    rng = np.random.default_rng(34)
    for case in range(20):
        n = int(rng.integers(2, 4))
        scn = drop_users_uniform(template(n), seed=(35, case))
        scn = scn.with_tx_power(float(10.0 ** rng.uniform(0, 3)))
        pl = pathloss_matrix(scn)
        candidates = enumerate_ideal(n, n).modes
        mode = candidates[int(rng.integers(0, len(candidates)))]
        est = mc_ergodic_sum_rate(scn, pl, mode, 100_000, seed=(36, case))
        closed = ergodic_sum_rate(scn, pl, mode).sum_rate
        assert abs(closed - est.mean) < 3.0 * est.std_error, (
            f"case {case}: mode {mode.label} closed {closed} vs "
            f"mc {est.mean} +- {est.std_error}")


def test_mc_single_link_unit_snr():
    scn = unit_scenario()
    pl = pathloss_matrix(scn)
    est = mc_ergodic_sum_rate(scn, pl, TransmissionMode((1,)), 1_000_000, seed=8)
    assert abs(est.mean - 0.8603473822708859) < 3.0 * est.std_error


def test_mc_std_error_contract():
    scn = unit_scenario()
    pl = pathloss_matrix(scn)
    est = mc_ergodic_sum_rate(scn, pl, TransmissionMode((1,)), 10_000, seed=9)
    assert est.n_trials == 10_000
    assert 0.0 < est.std_error < est.mean


def test_cell_average_fixed_mode_symmetry():
    """Uniform drops make the two paired modes statistically identical;
    the same seed even yields mirrored drops, so check equality loosely."""
    grid = (0.0, 20.0, 40.0)
    curve = cell_average(template(2), [TransmissionMode((1, 2)), TransmissionMode((2, 1))],
                         grid, n_drops=400, n_channels=0, seed=40)
    a, b = (np.array(series.values) for series in curve.series)
    for series in curve.series:
        errs = np.array(series.std_errors)
        assert np.all(errs > 0)
    assert np.all(np.abs(a - b) < 6.0 * errs)


def test_cell_average_scheme_dominates_fixed_modes():
    grid = (0.0, 10.0, 20.0, 30.0)
    curve = cell_average(template(2), ["min-distance", *enumerate_ideal(2, 2).modes],
                         grid, n_drops=150, n_channels=0, seed=41)
    scheme_values = np.array(curve.series[0].values)
    for fixed in curve.series[1:]:
        assert np.all(scheme_values >= np.array(fixed.values) - 1e-12)


def test_cell_average_deterministic_and_worker_invariant():
    grid = (0.0, 30.0)
    a = cell_average(template(2), ["min-distance"], grid, n_drops=60,
                     n_channels=0, seed=42, n_jobs=1)
    b = cell_average(template(2), ["min-distance"], grid, n_drops=60,
                     n_channels=0, seed=42, n_jobs=2)
    assert a == b


def recorded_kernel_sizes(monkeypatch):
    """Sizes of the argument arrays of every later kernel call."""
    sizes = []
    kernel = numerics.exp_e1

    def recording(x):
        sizes.append(np.size(x))
        return kernel(x)

    monkeypatch.setattr(numerics, "exp_e1", recording)
    return sizes


@pytest.mark.parametrize("rating, n_channels", [("analytic", 0), ("mc", 50)])
def test_point_slices_leave_values_unchanged(monkeypatch, rating, n_channels):
    """A block rates at most MAX_BLOCK_DROP_POINTS drop-points per kernel
    call; a grid longer than that goes in slices with the same values."""
    grid = tuple(float(db) for db in range(0, 50, 5))
    args = (template(3), ["ideal", "min-distance"], grid)
    kwargs = dict(n_drops=5, n_channels=n_channels, seed=46, rating=rating)
    whole = cell_average(*args, **kwargs)
    sizes = recorded_kernel_sizes(monkeypatch)
    monkeypatch.setattr(simulate, "MAX_BLOCK_DROP_POINTS", 4)
    assert cell_average(*args, **kwargs) == whole
    # One drop per block, slices of 4, 4 and 2 points, 9 gains per drop.
    assert len(sizes) == 5 * 3 and max(sizes) <= 4 * 9


def test_long_grid_kernel_batches_stay_bounded(monkeypatch):
    sizes = recorded_kernel_sizes(monkeypatch)
    grid = tuple(0.1 * i for i in range(2000))
    cell_average(template(3), ["min-distance"], grid, n_drops=3, n_channels=0, seed=47)
    assert max(sizes) <= simulate.MAX_BLOCK_DROP_POINTS * 9


def test_cell_average_mc_rating_close_to_analytic():
    grid = (10.0, 30.0)
    analytic = cell_average(template(2), [TransmissionMode((1, 2))], grid,
                            n_drops=120, n_channels=0, seed=43)
    mc = cell_average(template(2), [TransmissionMode((1, 2))], grid,
                      n_drops=120, n_channels=400, seed=43, rating="mc")
    assert mc.series[0].kind == "mc"
    for a, m, err in zip(analytic.series[0].values, mc.series[0].values,
                         mc.series[0].std_errors):
        # same drops underneath, so only fading noise separates the two
        assert abs(a - m) < 6.0 * max(err, 1e-3)


def test_mode_histogram_fractions_sum_to_one():
    ranges = [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0)]
    hist = mode_histogram(template(3), ranges, n_drops=60, seed=44)
    assert set(hist) == set(ranges)
    for groups in hist.values():
        assert sum(groups.values()) == pytest.approx(1.0, abs=1e-12)
        for label, fraction in groups.items():
            assert label.startswith("KA") and 0.0 <= fraction <= 1.0


def test_mode_histogram_single_user_fraction_grows():
    ranges = [(0.0, 10.0), (20.0, 30.0), (40.0, 50.0)]
    hist = mode_histogram(template(3), ranges, n_drops=120, seed=45)

    def single_user_fraction(groups):
        return sum(f for label, f in groups.items() if label.startswith("KA1"))

    fractions = [single_user_fraction(hist[r]) for r in ranges]
    assert fractions[0] <= fractions[1] <= fractions[2]
    assert fractions[2] > 0.5


def test_mc_estimates_each_distinct_chosen_mode_once(monkeypatch):
    """Schemes that choose the same mode at a (drop, point) share one Monte
    Carlo estimate: its stream key (seed, drop, point) has no scheme in it."""
    grid = (0.0, 20.0, 40.0)
    sets = [enumerate_ideal(3, 3), None]
    analytic = simulate._run_drops(template(3), sets, grid, 0, 48, 6, "analytic", 1)
    want = sorted({((48, drop, idx), mode.assignment)
                   for drop, (chosen, _) in enumerate(analytic)
                   for per_set in chosen for idx, mode in enumerate(per_set)})
    calls = []
    estimate = simulate.mc_ergodic_sum_rate

    def counting(scenario, pathloss, mode, n_channels, seed):
        calls.append((seed, mode.assignment))
        return estimate(scenario, pathloss, mode, n_channels, seed)

    monkeypatch.setattr(simulate, "mc_ergodic_sum_rate", counting)
    mc = simulate._run_drops(template(3), sets, grid, 50, 48, 6, "mc", 1)
    assert sorted(calls) == want
    # Both schemes chose one mode somewhere, so estimates were shared.
    assert len(calls) < 2 * 6 * len(grid)
    for (chosen, values), (mc_chosen, mc_values) in zip(analytic, mc):
        assert mc_chosen == chosen
        for idx in range(len(grid)):
            if chosen[0][idx] == chosen[1][idx]:
                assert mc_values[0, idx] == mc_values[1, idx]
