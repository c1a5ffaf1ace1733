"""Monte Carlo engine and cell-averaged experiment tests."""

import math

import numpy as np
import pytest

from dasrate import numerics, simulate
from dasrate.geometry import Scenario, drop_users_uniform, pathloss_matrix
from dasrate.modes import TransmissionMode, enumerate_ideal
from dasrate.rate import ergodic_sum_rate
from dasrate.simulate import (McEstimate, _chunk_sizes, _port_sum, _stream, _sum_rates,
                              _user_sum, cell_average, mc_ergodic_sum_rate,
                              mode_histogram)

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
    weights = pathloss_matrix(scn).gains * scn.tx_power
    return _sum_rates(np.asarray(power_gains), weights, mode, scn.noise_power)


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
    weights = gains * 10.0
    mode = TransmissionMode((1, 2))
    # unit fading reads off each user's signal and interference weights
    ones = np.ones((1, 2, 2))
    for user, signal, interference in ((1, 1.0, 2.0), (2, 4.0, 3.0)):
        k = user - 1
        assert _port_sum(ones[:, k], weights[k], mode.support_sets[user])[0] == signal
        assert _port_sum(ones[:, k], weights[k], mode.complements[user])[0] == interference
    h = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    rates = _sum_rates(h, weights, mode, 1.0)
    assert rates[0] == pytest.approx(math.log2(1.0 + 1.0 / 5.0)
                                     + math.log2(1.0 + 16.0 / 10.0))
    # each user alone: its own signal over noise plus its interferer
    for user, expected in ((0, 1.0 / 5.0), (1, 16.0 / 10.0)):
        keep = np.zeros((2, 1))
        keep[user] = 1.0
        alone = _sum_rates(h, weights * keep, mode, 1.0)
        assert alone[0] == pytest.approx(math.log2(1.0 + expected))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_port_sum_matches_einsum_bit_for_bit():
    """Only the nonzero-weight ports are added, in einsum's order."""
    rng = np.random.default_rng(60)
    for n_ports in range(1, 41):
        for n_draws in (1, 2, 7, 300):
            h = rng.exponential(size=(n_draws, 3, n_ports)) * 10.0 ** rng.uniform(
                -6, 6, size=(n_draws, 3, n_ports))
            w = 10.0 ** rng.uniform(-6, 6, size=(3, n_ports))
            w *= rng.random((3, n_ports)) < rng.random()
            dense = np.einsum("tkn,kn->tk", h, w)
            for k in range(3):
                got = _port_sum(h[:, k], w[k], np.flatnonzero(w[k]))
                if got is None:
                    assert not dense[:, k].any()
                else:
                    assert np.array_equal(bits(got), bits(dense[:, k])), (n_ports, n_draws, k)


def test_user_sum_matches_numpy_row_sum_bit_for_bit():
    """Idle users are left out, and the rest are added in the pairwise
    order of numpy's row sum, also past 8 and 128 users."""
    rng = np.random.default_rng(61)
    for n_users in [*range(1, 40), 127, 128, 129, 300]:
        rates = rng.exponential(size=(5, n_users)) * 10.0 ** rng.uniform(-8, 8, size=(5, n_users))
        rates *= rng.random(n_users) < rng.random()
        got = _user_sum([rates[:, k].copy() if rates[:, k].any() else None
                         for k in range(n_users)])
        got = np.zeros(5) if got is None else got
        assert np.array_equal(bits(got), bits(rates.sum(axis=1))), n_users


def dense_weights(pathloss, mode, tx_power):
    """Per-(user, port) weights S*P, split into signal and interference
    parts and zero off the mode."""
    n_users, n_ports = pathloss.gains.shape
    sig_w = np.zeros((n_users, n_ports))
    intf_w = np.zeros((n_users, n_ports))
    for user, ports in mode.support_sets.items():
        for j in ports:
            sig_w[user - 1, j] = pathloss.gains[user - 1, j] * tx_power
        for j in mode.complements[user]:
            intf_w[user - 1, j] = pathloss.gains[user - 1, j] * tx_power
    return sig_w, intf_w


def dense_sum_rates(sig_w, intf_w, noise, h):
    """The engine's per-draw sum rates in their dense einsum form."""
    signal = np.einsum("tkn,kn->tk", h, sig_w)
    denom = noise + np.einsum("tkn,kn->tk", h, intf_w)
    return np.log2(1.0 + signal / denom).sum(axis=1)


def dense_mc_ergodic_sum_rate(scenario, pathloss, mode, n_channels, seed):
    """The engine in its dense form, over chunks drawn by ``exponential``."""
    sig_w, intf_w = dense_weights(pathloss, mode, scenario.tx_power)
    total = 0.0
    total_sq = 0.0
    for c, size in enumerate(_chunk_sizes(n_channels)):
        h = _stream(seed, (c,)).exponential(size=(size, *sig_w.shape))
        rates = dense_sum_rates(sig_w, intf_w, scenario.noise_power, h)
        total += float(rates.sum())
        total_sq += float(np.square(rates).sum())
    mean = total / n_channels
    var = max(total_sq - n_channels * mean * mean, 0.0) / (n_channels - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n_channels),
                      n_trials=n_channels)


def oracle_cases():
    """Every ideal mode at N = K = 3 and samples at N = K = 5 and 9 (from
    8 users on, numpy's row sum is pairwise), each on its own drop."""
    rng = np.random.default_rng(62)
    cases = [(3, mode) for mode in enumerate_ideal(3, 3).modes]
    modes5 = enumerate_ideal(5, 5).modes
    cases += [(5, modes5[i]) for i in rng.choice(len(modes5), size=24, replace=False)]
    cases += [(9, TransmissionMode(tuple(int(u) for u in rng.permutation(10)[:9])))
              for _ in range(4)]
    for case, (n, mode) in enumerate(cases):
        scn = drop_users_uniform(template(n), seed=(63, case))
        yield case, scn.with_tx_power(float(10.0 ** rng.uniform(-1, 5))), mode


def test_sum_rates_match_dense_form_bit_for_bit():
    for case, scn, mode in oracle_cases():
        pl = pathloss_matrix(scn)
        h = _stream(67, (case,)).standard_exponential(size=(300, *pl.gains.shape))
        want = dense_sum_rates(*dense_weights(pl, mode, scn.tx_power), scn.noise_power, h)
        got = _sum_rates(h, pl.gains * scn.tx_power, mode, scn.noise_power)
        assert np.array_equal(bits(got), bits(want)), mode.label


@pytest.mark.parametrize("n_channels", [200, 9000])
def test_mc_matches_dense_oracle_bit_for_bit(n_channels):
    """9000 channels are two chunks, the second a tail."""
    for case, scn, mode in oracle_cases():
        pl = pathloss_matrix(scn)
        assert (mc_ergodic_sum_rate(scn, pl, mode, n_channels, seed=(64, case))
                == dense_mc_ergodic_sum_rate(scn, pl, mode, n_channels, (64, case))), mode.label


def test_mc_mode_with_no_active_port_is_zero():
    scn = drop_users_uniform(template(3), seed=65)
    est = mc_ergodic_sum_rate(scn, pathloss_matrix(scn), TransmissionMode((0, 0, 0)),
                              9000, seed=66)
    assert est == McEstimate(mean=0.0, std_error=0.0, n_trials=9000)


def test_fading_draws_unit_mean():
    """The engine's per-chunk streams draw unit-mean power gains with
    ``standard_exponential``, bit for bit the draws of ``exponential``,
    and drawn ``out=`` the head of a buffer that holds an earlier chunk,
    bit for bit the draws of ``size=``."""
    small = _stream(31, (0,)).standard_exponential(size=(2, 4, 3))
    assert small.shape == (2, 4, 3)
    big = _stream(31, (0,)).standard_exponential(size=(1000, 1000))
    assert big.mean() == pytest.approx(1.0, abs=0.01)
    buffer = _stream((31, 4), (0,)).standard_exponential(size=(simulate.MC_CHUNK, 3, 3))
    for size in (simulate.MC_CHUNK, 808, 2):
        for chunk in range(2):
            shape = (size, 3, 3)
            drawn = _stream((31, 5), (chunk,)).standard_exponential(size=shape)
            assert np.array_equal(
                bits(drawn), bits(_stream((31, 5), (chunk,)).exponential(size=shape)))
            into = _stream((31, 5), (chunk,)).standard_exponential(out=buffer[:size])
            assert np.shares_memory(into, buffer)
            assert np.array_equal(bits(into), bits(drawn))


@pytest.mark.parametrize("n_channels", [2, 200, simulate.MC_CHUNK, 9000])
def test_mc_fading_buffer_does_not_change_estimate(n_channels):
    """A buffer passed in, stale or longer than needed, gives the estimate
    of a call that allocates its own; 9000 channels are a chunk and a tail."""
    scn = drop_users_uniform(template(3), seed=70).with_tx_power(300.0)
    pl = pathloss_matrix(scn)
    mode = TransmissionMode((1, 2, 3))
    want = mc_ergodic_sum_rate(scn, pl, mode, n_channels, seed=(71, 2))
    for rows in (min(n_channels, simulate.MC_CHUNK), simulate.MC_CHUNK + 5):
        fading = np.full((rows, 3, 3), np.nan)
        for _ in range(2):
            assert mc_ergodic_sum_rate(scn, pl, mode, n_channels, seed=(71, 2),
                                       fading=fading) == want


@pytest.mark.parametrize("fading", [
    np.empty((199, 3, 3)),
    np.empty((200, 3, 2)),
    np.empty((200, 2, 3)),
    np.empty((200, 9)),
    np.empty((200, 3, 3, 1)),
    np.empty((200, 3, 3), dtype=np.float32),
    np.empty((400, 3, 3))[::2],
    np.empty((200, 3, 3), order="F"),
], ids=["too-few-rows", "wrong-ports", "wrong-users", "flat", "4d", "float32",
        "strided", "fortran"])
def test_mc_rejects_unfit_fading_buffer(fading):
    scn = drop_users_uniform(template(3), seed=72)
    with pytest.raises(ValueError, match="fading buffer"):
        mc_ergodic_sum_rate(scn, pathloss_matrix(scn), TransmissionMode((1, 2, 3)),
                            200, seed=73, fading=fading)


def test_block_worker_draws_every_estimate_into_one_buffer(monkeypatch):
    # The buffers are kept alive, so two of them cannot share an address.
    buffers = []
    estimate = simulate.mc_ergodic_sum_rate

    def recording(*args, fading, **kwargs):
        buffers.append(fading)
        return estimate(*args, fading=fading, **kwargs)

    monkeypatch.setattr(simulate, "mc_ergodic_sum_rate", recording)
    sets = [enumerate_ideal(3, 3), None]
    simulate._block_worker((template(3), sets, (0.0, 20.0, 40.0), 9000, 74,
                            range(3), "mc"))
    assert len(buffers) >= 3 * 3
    assert {(b.ctypes.data, b.shape) for b in buffers} == {
        (buffers[0].ctypes.data, (simulate.MC_CHUNK, 3, 3))}


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

    def counting(scenario, pathloss, mode, n_channels, seed, **kwargs):
        calls.append((seed, mode.assignment))
        return estimate(scenario, pathloss, mode, n_channels, seed, **kwargs)

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
