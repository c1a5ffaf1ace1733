"""Monte Carlo engine and cell-averaged experiment tests."""

import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from conftest import assert_no_child_left, mode_rates
from dasrate import numerics, simulate, verification
from dasrate.errors import DegenerateGainsError
from dasrate.geometry import (MAX_ABS_SNR_DB, Scenario, db_to_linear, pathloss_matrix,
                              uniform_positions)
from dasrate.modes import ideal_modes, min_distance_count, nearest_user_modes
from dasrate.selection import select_rows
from dasrate.simulate import (_chunk_sizes, _chunk_stream, _sum_rates, _user_powers,
                              cell_average, mc_sum_rates, mode_histogram, stream_key)

CELL_RADIUS = math.sqrt(112.0 / 3.0)


def template(n, k=None):
    return Scenario(n_ports=n, n_users=k if k is not None else n,
                    cell_radius=CELL_RADIUS, pathloss_exponent=3.0, tx_power=1.0)


def drop(n, seed):
    """Pathloss of one uniform drop at N = K = ``n`` from ``seed``."""
    return pathloss_matrix(template(n), uniform_positions(template(n), [seed])[0])


def unit_scenario():
    return Scenario(n_ports=1, n_users=1, cell_radius=5.0, pathloss_exponent=3.0,
                    tx_power=1.0, port_positions=((1.0, 0.0),),
                    user_positions=((0.0, 0.0),))


def instantaneous_sum_rates(pl, mode, power_gains, snr=1.0):
    """The Monte Carlo engine's sum rate of the assignment ``mode`` for
    each (K, N) fading draw."""
    h = np.asarray(power_gains, dtype=float)
    users = _user_powers(h * pl.gains, mode)
    inv_snr = np.array([[1.0 / snr]])
    return _sum_rates(users, inv_snr, np.empty((3, 1, len(h))))[0]


def one_estimate(pl, mode, snr, n_channels, seed, fading=None):
    """``mc_sum_rates`` of one assignment at one SNR, keyed by
    ``SeedSequence(seed)``, as (mean, standard error)."""
    ((mean,),), ((std_error,),) = mc_sum_rates(pl.gains, [mode], [snr], n_channels,
                                               np.random.SeedSequence(seed), fading=fading)
    return float(mean), float(std_error)


def test_instantaneous_rate_unit_case():
    rates = instantaneous_sum_rates(pathloss_matrix(unit_scenario()), (1,), np.ones((1, 1, 1)))
    assert rates[0] == pytest.approx(1.0)


def test_instantaneous_rate_zero_fading():
    rates = instantaneous_sum_rates(pathloss_matrix(unit_scenario()), (1,), np.zeros((1, 1, 1)))
    assert rates[0] == 0.0


def test_instantaneous_rates_hand_built_two_by_two():
    """User 1 is served by port 1 and hears port 2; user 2 the reverse."""
    weights = np.array([[1.0, 2.0], [3.0, 4.0]])
    mode = (1, 2)
    inv_snr = np.ones((1, 1))  # SNR 1
    # unit fading reads off each user's signal and interference weights
    (s1, i1), (s2, i2) = _user_powers(np.ones((1, 2, 2)) * weights, mode)
    assert (s1[0], i1[0], s2[0], i2[0]) == (1.0, 2.0, 4.0, 3.0)
    h = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    rates = _sum_rates(_user_powers(h * weights, mode), inv_snr, np.empty((3, 1, 1)))
    assert rates[0, 0] == pytest.approx(math.log2(1.0 + 1.0 / 5.0)
                                        + math.log2(1.0 + 16.0 / 10.0))
    # each user alone: its own signal over noise plus its interferer
    for user, expected in ((0, 1.0 / 5.0), (1, 16.0 / 10.0)):
        keep = np.zeros((2, 1))
        keep[user] = 1.0
        alone = _sum_rates(_user_powers(h * weights * keep, mode), inv_snr,
                           np.empty((3, 1, 1)))
        assert alone[0, 0] == pytest.approx(math.log2(1.0 + expected))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def masks(mode, users):
    """(users x ports) signal and interference masks of the assignment
    ``mode``, one row per 1-based user of ``users``: its serving ports, and
    the other active ports when it is active."""
    mode = np.asarray(mode)
    serves = mode == np.asarray(users)[:, None]
    return serves, (mode != 0) & ~serves & serves.any(axis=1, keepdims=True)


def dense_weights(pathloss, mode, snr):
    """Per-(user, port) weights S*snr, split into signal and interference
    parts and zero off the mode."""
    weights = pathloss.gains * snr
    return tuple(np.where(mask, weights, 0.0)
                 for mask in masks(mode, range(1, len(weights) + 1)))


def dense_sum_rates(sig_w, intf_w, h):
    """The engine's per-draw sum rates in their dense einsum form."""
    signal = np.einsum("tkn,kn->tk", h, sig_w)
    denom = 1.0 + np.einsum("tkn,kn->tk", h, intf_w)
    return np.log2(1.0 + signal / denom).sum(axis=1)


def ordered_sum_rates(pathloss, mode, inv_snr, h):
    """The engine's per-draw sum rates in a dense form that adds and
    multiplies in the engine's order: ports in index order, users in the
    order they first appear in the mode's assignment, each run of users
    one log2 of the product of its factors 1 + S / (I + 1/snr), the runs'
    logs added in order. A run closes before the sum of its users' bounds
    log2(1 + max S * snr_max) would pass RUN_BITS. Masked ports add an
    exact 0 and idle users multiply by an exact 1."""
    users, first = np.unique(mode, return_index=True)
    by_first = users[np.argsort(first)]
    active = by_first[by_first != 0].tolist()
    order = active + [u for u in range(1, len(pathloss.gains) + 1) if u not in active]
    sig_mask, intf_mask = (mask.astype(float) for mask in masks(mode, order))
    hg = (h * pathloss.gains)[:, [u - 1 for u in order]]
    signal = np.cumsum(hg * sig_mask, axis=2)[..., -1]
    interference = np.cumsum(hg * intf_mask, axis=2)[..., -1]
    factors = 1.0 + signal / (interference + inv_snr)
    runs, run_bits = [], math.inf
    for u, peak in enumerate(signal.max(axis=0).tolist()):
        bound = math.log2(1.0 + peak * 10.0 ** (MAX_ABS_SNR_DB / 10.0))
        if run_bits + bound > simulate.RUN_BITS:
            runs.append([])
            run_bits = 0.0
        runs[-1].append(u)
        run_bits += bound
    logs = [np.log2(np.cumprod(factors[:, run], axis=1)[:, -1]) for run in runs]
    return np.cumsum(np.stack(logs, axis=1), axis=1)[:, -1]


def dense_mc_estimate(n_channels, seed, shape, sum_rates):
    """The engine in a dense form: the (mean, standard error) of
    ``sum_rates`` of each chunk of (T, ``shape``) fading drawn by
    ``exponential``."""
    total = 0.0
    total_sq = 0.0
    for c, size in enumerate(_chunk_sizes(n_channels)):
        h = _chunk_stream(np.random.SeedSequence(seed), c).exponential(size=(size, *shape))
        rates = sum_rates(h)
        total += float(rates.sum())
        total_sq += float(np.square(rates).sum())
    mean = total / n_channels
    var = max(total_sq - n_channels * mean * mean, 0.0) / (n_channels - 1)
    return mean, math.sqrt(var / n_channels)


def oracle_cases():
    """Every ideal mode at N = K = 3 and samples at N = K = 5 and 9, each
    on its own drop."""
    rng = np.random.default_rng(62)
    cases = [(3, mode) for mode in ideal_modes(3, 3)]
    modes5 = ideal_modes(5, 5)
    cases += [(5, modes5[i]) for i in rng.choice(len(modes5), size=24, replace=False)]
    cases += [(9, rng.permutation(10)[:9]) for _ in range(4)]
    for case, (n, mode) in enumerate(cases):
        yield case, drop(n, (63, case)), float(10.0 ** rng.uniform(-1, 5)), mode


# The engine and the dense form differ only in the order and grouping of
# a few adds and in scaling by the SNR before or after the sums: a few ulps per
# draw, far inside this relative bound. A per-draw rate near 0 also
# carries the rounding of 1 + x before its log, an absolute error of a
# few eps per user.
DENSE_REL_TOL = 1e-12
ONE_PLUS_X_ATOL = 4 * np.finfo(float).eps


@pytest.mark.parametrize("n_channels", [200, 9000])
def test_mc_matches_dense_form_on_same_draw(n_channels):
    """On the same draws, the engine's per-draw sum rates and its
    estimates agree with the dense einsum form within DENSE_REL_TOL (and
    ONE_PLUS_X_ATOL per user for a draw); 9000 channels are two chunks,
    the second a tail."""
    for case, pl, snr, mode in oracle_cases():
        h = _chunk_stream(np.random.SeedSequence((64, case)), 0).standard_exponential(
            size=(min(n_channels, simulate.MC_CHUNK), *pl.gains.shape))
        want = dense_sum_rates(*dense_weights(pl, mode, snr), h)
        np.testing.assert_allclose(instantaneous_sum_rates(pl, mode, h, snr), want,
                                   rtol=DENSE_REL_TOL,
                                   atol=ONE_PLUS_X_ATOL * np.count_nonzero(np.unique(mode)),
                                   err_msg=str(mode))
        got = one_estimate(pl, mode, snr, n_channels, (64, case))
        weights = dense_weights(pl, mode, snr)
        dense = dense_mc_estimate(
            n_channels, (64, case), pl.gains.shape,
            lambda h: dense_sum_rates(*weights, h))
        assert got == pytest.approx(dense, rel=DENSE_REL_TOL), str(mode)


def test_sum_rates_match_dense_form_bit_for_bit():
    for case, pl, snr, mode in oracle_cases():
        h = _chunk_stream(np.random.SeedSequence(67), case).standard_exponential(
            size=(300, *pl.gains.shape))
        want = ordered_sum_rates(pl, mode, 1.0 / snr, h)
        got = instantaneous_sum_rates(pl, mode, h, snr)
        assert np.array_equal(bits(got), bits(want)), str(mode)


def test_sum_rates_without_interferer_match_dense_form_bit_for_bit():
    """A one-user mode on every port has no interferer: its one term is
    the whole rate, written over stale work at every point of a slice,
    with the signal divided by the noise column itself. It matches the
    dense form, whose 0 + 1 / snr is exactly 1 / snr, bit for bit; no
    user at all rates 0."""
    inv_snrs = 1.0 / np.array([0.1, 1.0, 1e3, 1e5])[:, None]
    for n in (3, 5, 9):
        pl = drop(n, (68, n))
        h = _chunk_stream(np.random.SeedSequence(69), n).standard_exponential(size=(300, n, n))
        for user in (1, n):
            mode = (user,) * n
            work = np.full((3, len(inv_snrs), len(h)), np.nan)
            got = _sum_rates(_user_powers(h * pl.gains, mode), inv_snrs, work)
            for p, inv_snr in enumerate(inv_snrs[:, 0]):
                want = ordered_sum_rates(pl, mode, inv_snr, h)
                assert np.array_equal(bits(got[p]), bits(want)), (mode, inv_snr)
    idle = _sum_rates([], inv_snrs, np.full((3, len(inv_snrs), 5), np.nan))
    assert np.array_equal(bits(idle), bits(np.zeros((len(inv_snrs), 5))))


@pytest.mark.parametrize("n_channels", [200, 9000])
def test_mc_matches_dense_oracle_bit_for_bit(n_channels):
    """9000 channels are two chunks, the second a tail."""
    for case, pl, snr, mode in oracle_cases():
        inv_snr = 1.0 / snr
        assert (one_estimate(pl, mode, snr, n_channels, (64, case))
                == dense_mc_estimate(
                    n_channels, (64, case), pl.gains.shape,
                    lambda h: ordered_sum_rates(pl, mode, inv_snr, h))), str(mode)


def extreme_pathloss():
    """A 2 x 2 fixed geometry whose mode [1 2] has factors 1 + S / (I +
    1/snr) of about 1e270 and 1e66 at 280 to 300 dB: their product
    overflows, so its users rate in two runs."""
    return pathloss_matrix(Scenario(
        n_ports=2, n_users=2, cell_radius=6.11, pathloss_exponent=120.0, tx_power=1.0,
        port_positions=((1.0, 0.0), (-1.0, 0.0)), user_positions=((1.0, 0.0), (-1.0, 0.5))))


def test_mc_sum_rates_pair_does_not_depend_on_its_call():
    """Each (mode, SNR) cell of a call that rates one mode at every SNR
    and the others at every other SNR is finite, within DENSE_REL_TOL of
    the dense form (per-user logs) and equal, bit for bit, to the
    estimate of a call that rates that cell alone; the cells left out of
    ``at`` read NaN, and a mask of another shape is refused. At N = K = 3
    the SNRs fill more than one slice; on the extreme 2 x 2 geometry the
    mode [1 2] rates in two runs."""
    cases = ((drop(3, 75), ideal_modes(3, 3)[::9], range(-10, 60, 3)),
             (extreme_pathloss(), ideal_modes(2, 2), range(280, 301, 10)))
    assert len(cases[0][2]) > simulate.MC_POINT_SLICE
    assert len(simulate._runs(_user_powers(cases[1][0].gains[None], [1, 2]))) == 2
    for pl, modes, grid_db in cases:
        snrs = [db_to_linear(db) for db in grid_db]
        assert len(modes) >= 3
        at = (np.arange(len(modes))[:, None] + np.arange(len(snrs))) % 2 == 0
        at[0] = True
        means, errors = mc_sum_rates(pl.gains, modes, snrs, 9000,
                                     np.random.SeedSequence((76, 1)), at=at)
        assert means.shape == errors.shape == at.shape
        assert np.isnan(means[~at]).all() and np.isnan(errors[~at]).all()
        assert np.isfinite(means[at]).all() and np.isfinite(errors[at]).all()
        for m, p in zip(*np.nonzero(at)):
            alone = one_estimate(pl, modes[m], snrs[p], 9000, (76, 1))
            assert bits(alone).tolist() == bits([means[m, p], errors[m, p]]).tolist(), (m, p)
            weights = dense_weights(pl, modes[m], snrs[p])
            dense, _ = dense_mc_estimate(9000, (76, 1), pl.gains.shape,
                                         lambda h: dense_sum_rates(*weights, h))
            assert means[m, p] == pytest.approx(dense, rel=DENSE_REL_TOL), (m, p)
        with pytest.raises(ValueError, match="at must have shape"):
            mc_sum_rates(pl.gains, modes, snrs, 9000, np.random.SeedSequence(76),
                         at=at[:, 1:])


def test_stream_keys_never_coincide():
    """No Monte Carlo chunk of a drop or of a fixed geometry shares its
    stream with another chunk or with any drop's users."""
    grid = [(seed, index) for seed in (0, 1, 5, 2**31) for index in range(5)]
    geometry = [stream_key(seed, drop) for seed, drop in grid]
    sweep = [_chunk_stream(stream_key(seed, drop), c).bit_generator.seed_seq
             for seed, drop in grid for c in range(5)]
    fixed = [_chunk_stream(stream_key(seed), c).bit_generator.seed_seq
             for seed, c in grid]
    states = {tuple(key.generate_state(4)) for key in geometry + sweep + fixed}
    assert len(states) == len(geometry) + len(sweep) + len(fixed)
    # The entropy is zero-padded to four words, so indices kept there alias.
    assert (np.random.SeedSequence((3, 2, 0)).generate_state(4).tolist()
            == np.random.SeedSequence((3, 2)).generate_state(4).tolist())


def test_mc_mode_with_no_active_port_is_zero():
    pl = drop(3, 65)
    assert one_estimate(pl, (0, 0, 0), 1.0, 9000, 66) == (0.0, 0.0)


def test_fading_draws_unit_mean():
    """The engine's per-chunk streams draw unit-mean power gains with
    ``standard_exponential``, bit for bit the draws of ``exponential``,
    and drawn ``out=`` the head of a buffer that holds an earlier chunk,
    bit for bit the draws of ``size=``."""
    def stream(seed, chunk):
        return _chunk_stream(np.random.SeedSequence(seed), chunk)

    small = stream(31, 0).standard_exponential(size=(2, 4, 3))
    assert small.shape == (2, 4, 3)
    big = stream(31, 0).standard_exponential(size=(1000, 1000))
    assert big.mean() == pytest.approx(1.0, abs=0.01)
    buffer = stream((31, 4), 0).standard_exponential(size=(simulate.MC_CHUNK, 3, 3))
    for size in (simulate.MC_CHUNK, 808, 2):
        for chunk in range(2):
            shape = (size, 3, 3)
            drawn = stream((31, 5), chunk).standard_exponential(size=shape)
            assert np.array_equal(
                bits(drawn), bits(stream((31, 5), chunk).exponential(size=shape)))
            into = stream((31, 5), chunk).standard_exponential(out=buffer[:size])
            assert np.shares_memory(into, buffer)
            assert np.array_equal(bits(into), bits(drawn))


def chunk_draws(seed, drop, chunk):
    """The fading of one full N = K = 3 chunk of a drop, as the engine
    draws it: MC_CHUNK x 9 = 73 728 values."""
    return _chunk_stream(stream_key(seed, drop), chunk).standard_exponential(
        size=(simulate.MC_CHUNK, 3, 3)).ravel()


# By the DKW inequality, P(KS distance > eps) <= 2 exp(-2 n eps^2): about
# 1e-9 for n = 73 728 draws at eps = 0.012.
KS_BOUND = 0.012
# Independent draws give Pearson r with standard deviation 1 / sqrt(n),
# 0.0037 for n = 73 728, so this bound sits about 6.8 sigma out.
CORRELATION_BOUND = 0.025


@pytest.mark.parametrize("drop_index, chunk", [(0, 0), (0, 1), (1, 0), (99, 2)])
def test_chunk_stream_draws_unit_exponentials(drop_index, chunk):
    """The KS distance of a chunk stream's draws from 1 - exp(-x)."""
    x = np.sort(chunk_draws(1, drop_index, chunk))
    cdf = -np.expm1(-x)
    n = len(x)
    distance = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert distance <= KS_BOUND


@pytest.mark.parametrize("seed", [1, 7])
def test_neighbouring_chunk_streams_are_uncorrelated(seed):
    """Pearson |r| between consecutive chunks of one drop and between
    neighbouring drops at one chunk."""
    for (d1, c1), (d2, c2) in (((0, 0), (0, 1)), ((3, 1), (3, 2)),
                               ((0, 0), (1, 0)), ((4, 2), (5, 2))):
        r = np.corrcoef(chunk_draws(seed, d1, c1), chunk_draws(seed, d2, c2))[0, 1]
        assert abs(r) < CORRELATION_BOUND, ((d1, c1), (d2, c2), r)


@pytest.mark.parametrize("n_channels", [2, 200, simulate.MC_CHUNK, 9000])
def test_mc_fading_buffer_does_not_change_estimate(n_channels):
    """A buffer passed in, stale or longer than needed, gives the estimate
    of a call that allocates its own; 9000 channels are a chunk and a tail."""
    pl = drop(3, 70)
    mode = (1, 2, 3)
    want = one_estimate(pl, mode, 300.0, n_channels, (71, 2))
    for rows in (min(n_channels, simulate.MC_CHUNK), simulate.MC_CHUNK + 5):
        fading = np.full((rows, 3, 3), np.nan)
        for _ in range(2):
            assert one_estimate(pl, mode, 300.0, n_channels, (71, 2), fading) == want


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
    pl = drop(3, 72)
    with pytest.raises(ValueError, match="fading buffer"):
        one_estimate(pl, (1, 2, 3), 1.0, 200, 73, fading)


def test_mc_deterministic_per_seed():
    result = verification.check_mc_determinism(n_trials=20_000, seed=5, drop_seed=32)
    assert result.passed, result.line()


def test_mc_matches_closed_form_three_sigma():
    result = verification.check_mc_vs_analytic(n_cases=20, n_trials=100_000, seed=34)
    assert result.passed, result.line()


def test_mc_single_link_unit_snr():
    pl = pathloss_matrix(unit_scenario())
    mean, std_error = one_estimate(pl, (1,), 1.0, 1_000_000, 8)
    assert abs(mean - 0.8603473822708859) < 3.0 * std_error


def test_mc_std_error_contract():
    """Standard errors are positive and below the mean; without them the
    means are bit for bit those of the default call, one chunk or two."""
    pl = pathloss_matrix(unit_scenario())
    mean, std_error = one_estimate(pl, (1,), 1.0, 10_000, 9)
    assert 0.0 < std_error < mean
    pl = drop(3, 77)
    modes, snrs = ideal_modes(3, 3)[::5], [0.1, 1.0, 300.0]
    for n_channels in (200, 9000):
        key = np.random.SeedSequence((78, n_channels))
        means, errors = mc_sum_rates(pl.gains, modes, snrs, n_channels, key)
        assert errors.shape == means.shape
        bare, none = mc_sum_rates(pl.gains, modes, snrs, n_channels, key, std_errors=False)
        assert none is None
        assert np.array_equal(bits(bare), bits(means))


def test_cell_average_fixed_mode_symmetry():
    """Uniform drops make the two paired modes statistically identical;
    the same seed even yields mirrored drops, so check equality loosely."""
    grid = (0.0, 20.0, 40.0)
    (a, b), errors = cell_average(template(2), [(1, 2), (2, 1)],
                                  grid, n_drops=400, n_channels=0, seed=40)
    assert np.all(errors > 0)
    assert np.all(np.abs(a - b) < 6.0 * errors[1])


def test_cell_average_scheme_dominates_fixed_modes():
    grid = (0.0, 10.0, 20.0, 30.0)
    (scheme_values, *fixed_values), _ = cell_average(
        template(2), ["min-distance", *ideal_modes(2, 2)], grid, n_drops=150, n_channels=0,
        seed=41)
    for fixed in fixed_values:
        assert np.all(scheme_values >= fixed - 1e-12)


def test_cell_average_deterministic_and_worker_invariant():
    result = verification.check_worker_invariance(n_drops=60, n_channels=0, seed=42,
                                                  schemes=("min-distance",),
                                                  grid_db=(0.0, 30.0))
    assert result.passed, result.line()


def recorded_kernel_sizes(monkeypatch):
    """Sizes of the argument arrays of every later kernel call."""
    sizes = []
    kernel = numerics.exp_e1

    def recording(x):
        sizes.append(np.size(x))
        return kernel(x)

    monkeypatch.setattr(numerics, "exp_e1", recording)
    return sizes


def nearest_footprint(n):
    """(fixed, per point) values of one drop of an N = K = n nearest-user
    block: two masks per row and K N 2^(N-1) subset gain columns and
    weights, then per point its 2^N - N rows and K 2^N subset rates."""
    rows = 2 ** n - n
    return 2 * rows + n * n * 2 ** n, rows + n * 2 ** n


def same_curves(a, b):
    """Whether two (means, std_errors) pairs are bit-identical."""
    return all(map(np.array_equal, a, b))


@pytest.mark.parametrize("n_channels", [0, 50], ids=["analytic-0", "mc-50"])
def test_point_slices_leave_values_unchanged(monkeypatch, n_channels):
    """A block holds at most MAX_BLOCK_VALUES; a grid too long for that
    goes in slices of points with the same values."""
    grid = tuple(float(db) for db in range(0, 50, 5))
    args = (template(3), ["ideal", "min-distance"], grid)
    kwargs = dict(n_drops=5, n_channels=n_channels, seed=46)
    whole = cell_average(*args, **kwargs)
    sizes = recorded_kernel_sizes(monkeypatch)
    # 45 exhaustive and 5 nearest-user rows: 50 x 2 masks and 3 x 3 x 4
    # subset gain columns and as many weights, then 50 rows and 3 x 8
    # subset rates per point.
    fixed, per_point = 50 * 2 + 3 * 3 * 8, 50 + 3 * 8
    assert simulate._drop_footprint(3, 3, [np.zeros((45, 3)), None]) == (
        fixed, per_point)
    monkeypatch.setattr(simulate, "MAX_BLOCK_VALUES", fixed + 4 * per_point)
    assert same_curves(cell_average(*args, **kwargs), whole)
    # One drop per block, slices of 4, 4 and 2 points, 9 gains per drop.
    assert len(sizes) == 5 * 3 and max(sizes) <= 4 * 9


def test_long_grid_kernel_batches_stay_bounded(monkeypatch):
    """A long grid on a small bound goes in point slices, whose kernel
    values stay within the bound."""
    sizes = recorded_kernel_sizes(monkeypatch)
    fixed, per_point = nearest_footprint(3)
    monkeypatch.setattr(simulate, "MAX_BLOCK_VALUES", fixed + 709 * per_point)
    grid = tuple(0.1 * i for i in range(2000))
    cell_average(template(3), ["min-distance"], grid, n_drops=3, n_channels=0, seed=47)
    # One drop per block, in slices of 709, 709 and 582 points.
    step = (simulate.MAX_BLOCK_VALUES - fixed) // per_point
    assert step == 709 and len(sizes) == 3 * 3
    assert max(sizes) <= step * 9 <= simulate.MAX_BLOCK_VALUES


def test_long_rates_grid_goes_in_point_slices(monkeypatch):
    """A rates grid too long for MAX_BLOCK_VALUES is rated in point
    slices, as a block's is, whose kernel values stay within the bound,
    with the CSV of one table."""
    from dasrate.experiments import bundled_config_path, curve_to_csv, mode_rate_curves
    from dasrate.geometry import load_scenario

    scn = load_scenario(bundled_config_path("fig2.cfg"))
    modes = ideal_modes(2, 2)
    grid = tuple(0.1 * i for i in range(50))

    def csv():
        analytic, _ = mode_rate_curves(scn, modes, grid, n_channels=0)
        return curve_to_csv(grid, modes, ("analytic", analytic))

    whole = csv()
    sizes = recorded_kernel_sizes(monkeypatch)
    # 4 rows: 4 x 2 masks and 2 x 2 x 2 subset gain columns and as many
    # weights, then 4 rows and 2 x 4 subset rates per point.
    fixed, per_point = 4 * 2 + 2 * 2 * 4, 4 + 2 * 4
    assert simulate._drop_footprint(2, 2, [modes]) == (fixed, per_point)
    monkeypatch.setattr(simulate, "MAX_BLOCK_VALUES", fixed + 7 * per_point)
    assert csv() == whole
    # Slices of 7 points, the last of 1, 4 gains each.
    assert len(sizes) == 8 and max(sizes) <= 7 * 4 <= simulate.MAX_BLOCK_VALUES


@pytest.fixture
def shares_run(monkeypatch, tmp_path):
    """A function that gives the drops of every block run since its last
    call, one list per process in share order: this process, then each
    child it forked, in fork order. Each process appends its blocks to
    one log file."""
    log = tmp_path / "blocks.log"
    log.touch()
    children = []
    worker, fork = simulate._block_worker, os.fork

    def recording(args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {args[5].start} {args[5].stop}\n")
        return worker(args)

    def counting_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    def shares_run():
        blocks = {}
        for line in log.read_text().splitlines():
            pid, lo, hi = map(int, line.split())
            blocks.setdefault(pid, []).append(range(lo, hi))
        shares = [blocks.pop(pid, []) for pid in (os.getpid(), *children)]
        assert not blocks
        log.write_text("")
        children.clear()
        return shares

    monkeypatch.setattr(simulate, "_block_worker", recording)
    monkeypatch.setattr(os, "fork", counting_fork)
    return shares_run


@pytest.mark.parametrize("n_drops, n_points", [(10, 11), (64, 11), (65, 11), (150, 11),
                                               (90, 16), (5, 704)])
def test_poolless_blocks_fill_the_drop_point_bound(monkeypatch, shares_run, n_drops, n_points):
    """At --jobs 1, drops go out in as few blocks as MAX_BLOCK_VALUES
    allows, all in this process; here it holds 64 drops of an 11-point
    grid."""
    fixed, per_point = nearest_footprint(2)
    assert (fixed, per_point) == (20, 10)
    bound = 64 * (fixed + 11 * per_point)
    monkeypatch.setattr(simulate, "MAX_BLOCK_VALUES", bound)
    grid = tuple(0.1 * i for i in range(n_points))
    cell_average(template(2), ["min-distance"], grid, n_drops=n_drops, n_channels=0, seed=48)
    [blocks] = shares_run()
    size = max(1, bound // (fixed + n_points * per_point))
    assert len(blocks) == math.ceil(n_drops / size)
    assert all(len(drops) == 1 or len(drops) * (fixed + n_points * per_point) <= bound
               for drops in blocks)
    assert [d for drops in blocks for d in drops] == list(range(n_drops))


def test_jobs_split_drops_into_equal_shares(monkeypatch, shares_run):
    """--jobs 2 splits 70 drops into two equal contiguous shares, the
    first worked in this process and the second in one forked child,
    with the values of the serial run; at --jobs 3, 20 drops go 7, 7 and
    6, each share in blocks of at most the 3 drops MAX_BLOCK_VALUES
    holds here."""
    grid = tuple(float(db) for db in range(0, 51, 5))
    args = (template(2), ["ideal", "min-distance"], grid)
    kwargs = dict(n_drops=70, n_channels=0, seed=49)
    forked = cell_average(*args, n_jobs=2, **kwargs)
    assert shares_run() == [[range(0, 35)], [range(35, 70)]]
    assert same_curves(cell_average(*args, **kwargs), forked)
    assert shares_run() == [[range(0, 70)]]

    fixed, per_point = nearest_footprint(2)
    monkeypatch.setattr(simulate, "MAX_BLOCK_VALUES", 3 * (fixed + 11 * per_point))
    args = (template(2), ["min-distance"], grid)
    kwargs = dict(n_drops=20, n_channels=0, seed=49)
    forked = cell_average(*args, n_jobs=3, **kwargs)
    assert shares_run() == [[range(0, 3), range(3, 6), range(6, 7)],
                            [range(7, 10), range(10, 13), range(13, 14)],
                            [range(14, 17), range(17, 20)]]
    assert same_curves(cell_average(*args, **kwargs), forked)


def test_drop_shares_differ_by_at_most_one_drop(monkeypatch):
    """Any drop and job count splits into min(jobs, drops) contiguous
    shares in drop order, the longer ones first and at most one drop
    longer than the others; with no ``os.fork``, into one share. Counted
    without forking."""
    for n_drops in range(1, 41):
        for n_jobs in range(1, simulate.MAX_JOBS + 1):
            shares = simulate._drop_shares(n_drops, n_jobs)
            assert len(shares) == min(n_jobs, n_drops)
            assert [d for share in shares for d in share] == list(range(n_drops))
            sizes = [len(share) for share in shares]
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
    monkeypatch.delattr(os, "fork")
    assert simulate._drop_shares(70, 2) == [range(0, 70)]


@pytest.fixture
def deadline():
    """Fails a fork-runner test that has not finished in 60 s, by a
    SIGALRM in this process, instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("the fork runner took more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_child_that_sends_nothing_raises(monkeypatch, deadline):
    """A child that leaves through os._exit(1) before it sends its share
    makes the cell average raise, naming that child's drops, and the
    other children are reaped."""
    parent, worker = os.getpid(), simulate._block_worker

    def dying(args):
        if 2 in args[5] and os.getpid() != parent:
            os._exit(1)
        return worker(args)

    monkeypatch.setattr(simulate, "_block_worker", dying)
    with pytest.raises(RuntimeError, match="drops 2 to 3 ended without a result"):
        cell_average(template(2), ["min-distance"], (0.0, 10.0), n_drops=6, n_channels=0,
                     seed=52, n_jobs=3)
    assert_no_child_left()


def test_error_in_own_share_kills_and_reaps_children(monkeypatch, deadline):
    """An error in the share this process works is raised at once: the
    children, which would sleep 30 s, are killed and reaped."""
    parent = os.getpid()

    def failing(args):
        if os.getpid() == parent:
            raise DegenerateGainsError("forced in this process")
        time.sleep(30)

    monkeypatch.setattr(simulate, "_block_worker", failing)
    started = time.monotonic()
    with pytest.raises(DegenerateGainsError, match="forced in this process"):
        cell_average(template(2), ["min-distance"], (0.0,), n_drops=3, n_channels=0,
                     seed=53, n_jobs=3)
    assert time.monotonic() - started < 10
    assert_no_child_left()


def test_nearest_user_hist_makes_one_kernel_call(monkeypatch):
    """A 500-drop nearest-user histogram at N = K = 4 is one block: one
    kernel call rates all 500 x 9 drop-points."""
    sizes = recorded_kernel_sizes(monkeypatch)
    ranges = [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0)]
    mode_histogram(template(4), ranges, n_drops=500, seed=50)
    assert len(sizes) == 1 and sizes[0] <= 500 * 9 * 16


@pytest.mark.parametrize("n, schemes, n_drops, top_db", [
    (4, ["min-distance"], 500, 40), (5, ["ideal", "min-distance"], 40, 50),
], ids=["hist-nearest", "fig6-exhaustive"])
def test_block_peaks_stay_under_the_bound(monkeypatch, n, schemes, n_drops, top_db):
    """The traced peak of the largest block of a 500-drop nearest-user
    histogram at N = K = 4 and of an exhaustive N = K = 5 sweep stays
    within 64 bytes per counted value, and so under 64 x MAX_BLOCK_VALUES
    bytes."""
    peaks = []
    worker = simulate._block_worker

    def traced(args):
        tracemalloc.start()
        try:
            out = worker(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fixed, per_point = simulate._drop_footprint(args[0].n_ports, args[0].n_users, args[1])
        peaks.append((peak, len(args[5]) * (fixed + per_point * len(args[2]))))
        return out

    monkeypatch.setattr(simulate, "_block_worker", traced)
    grid = tuple(float(db) for db in range(0, top_db + 1, 5))
    cell_average(template(n), schemes, grid, n_drops=n_drops, n_channels=0, seed=51)
    peak, values = max(peaks)
    assert values <= simulate.MAX_BLOCK_VALUES
    assert peak <= 64 * values <= 64 * simulate.MAX_BLOCK_VALUES


@pytest.mark.parametrize("n_channels", [1, -1])
def test_cell_average_refuses_other_channel_counts(shares_run, n_channels):
    """0 channels rate in closed form and 2 or more by Monte Carlo; any
    other count is refused before any drop is drawn."""
    with pytest.raises(ValueError, match="n_channels"):
        cell_average(template(2), ["min-distance"], (0.0,), n_drops=2, n_channels=n_channels,
                     seed=1)
    assert shares_run() == [[]]


def test_cell_average_mc_rating_close_to_analytic():
    grid = (10.0, 30.0)
    (analytic,), _ = cell_average(template(2), [(1, 2)], grid,
                                  n_drops=120, n_channels=0, seed=43)
    (mc,), (errors,) = cell_average(template(2), [(1, 2)], grid,
                                    n_drops=120, n_channels=400, seed=43)
    for a, m, err in zip(analytic, mc, errors):
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


def test_select_rows_takes_the_first_maximizer_at_each_point():
    rates = np.array([[1.0, 3.0, 3.0, 2.0],
                      [5.0, 5.0, 5.0, 5.0],
                      [0.0, -1.0, 0.0, 0.5],
                      [-0.0, 0.0, -1.0, 0.0]])
    best, chosen = select_rows(rates)
    assert best.tolist() == [1, 0, 3, 0]
    assert chosen.tolist() == [3.0, 5.0, 0.5, 0.0]


# Special drops of a two-port and a four-port ring layout. "tie": every
# user at the same distance from every port (two ports), or the users on
# the axes (four ports), so modes of the exhaustive set tie exactly at
# the maximum. "shared": every port has the same nearest user, so the
# drop's nearest-user set has 2^N - N - 1 modes.
TWO_PORTS = Scenario(n_ports=2, n_users=2, cell_radius=10.0, pathloss_exponent=3.0,
                     tx_power=1.0, port_positions=((2.0, 0.0), (-2.0, 0.0)))
RING = Scenario(n_ports=4, n_users=4, cell_radius=6.5, pathloss_exponent=3.0,
                tx_power=1.0, port_ring_radius=4.0)
SPECIAL_DROPS = {
    2: (TWO_PORTS, {"tie": ((0.0, 1.0), (0.0, -1.0)),
                    "shared": ((0.5, 0.5), (0.0, -8.0))}),
    4: (RING, {"tie": ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
               "shared": ((0.05, 0.05),) + tuple(
                   (6.0 * math.cos(a), 6.0 * math.sin(a))
                   for a in (0.25 * math.pi, 0.75 * math.pi, 1.25 * math.pi))}),
}


@pytest.mark.parametrize("points_per_slice", [None, 2], ids=["one-slice", "sliced"])
@pytest.mark.parametrize("n", [2, 4])
def test_block_selection_matches_brute_force_argmax(monkeypatch, n, points_per_slice):
    """Every (drop, set, point) of a block chooses the first maximizer of
    its set's rates, and records that rate, as a per-point scan of the
    drop's own tables does: for the exhaustive, nearest-user and fixed
    sets of one drop, at exact ties, for a shared-nearest-user drop among
    full-size ones, and with the grid split into slices."""
    template, special = SPECIAL_DROPS[n]
    drawn = simulate.uniform_positions(template, [stream_key(81, d) for d in range(6)])
    positions = np.concatenate([drawn[:3], np.array(list(special.values())), drawn[3:]])
    monkeypatch.setattr(simulate, "uniform_positions", lambda _, keys: positions)
    ideal = ideal_modes(n, n)
    fixed = ideal[-1:]
    grid = tuple(float(db) for db in range(-10, 71, 5))
    sets = [ideal, None, fixed]
    if points_per_slice:
        base, per_point = simulate._drop_footprint(n, n, sets)
        monkeypatch.setattr(simulate, "MAX_BLOCK_VALUES",
                            len(positions) * (base + points_per_slice * per_point))
    chosen, values = simulate._block_worker((template, sets, grid, 0, 81,
                                             range(len(positions))))
    assert chosen.shape == (len(positions), 3, len(grid), n)
    ties = full_size = 0
    for d, users in enumerate(positions):
        pl = pathloss_matrix(template, users)
        nearest = nearest_user_modes(pl.distances[None])[0]
        distinct = len(np.unique(nearest, axis=0))
        full_size += distinct == min_distance_count(n)
        if d == 4:
            assert distinct == min_distance_count(n) - 1
        for s, candidates in enumerate((ideal, nearest, fixed)):
            for p, db in enumerate(grid):
                rates = mode_rates(pl, candidates, [db_to_linear(db)])[0].tolist()
                best = rates.index(max(rates))
                ties += rates.count(rates[best]) > 1
                assert chosen[d, s, p].tolist() == candidates[best].tolist()
                assert values[d, s, p] == rates[best]
    assert ties > 0 and full_size > 0


@pytest.fixture
def streams_opened(monkeypatch):
    """(entropy, spawn key, buffer address, buffer shape) of every Monte
    Carlo chunk drawn later; the buffers are kept alive, so two of them
    cannot share an address."""
    opened = []
    chunk_stream = simulate._chunk_stream

    class Recording:
        def __init__(self, key, chunk):
            self.rng = chunk_stream(key, chunk)
            self.seq = self.rng.bit_generator.seed_seq

        def standard_exponential(self, *, out):
            opened.append((self.seq.entropy, self.seq.spawn_key, out.ctypes.data,
                           out.base.shape, out))
            return self.rng.standard_exponential(out=out)

    monkeypatch.setattr(simulate, "_chunk_stream", Recording)
    return opened


@pytest.mark.parametrize("sets, grid", [
    ([None], (20.0,)),
    ([ideal_modes(3, 3), None, np.array([[1, 2, 3]])],
     (0.0, 20.0, 40.0, 60.0)),
], ids=["one-set-one-point", "three-sets-four-points"])
def test_mc_sweep_opens_one_stream_per_drop_and_chunk(streams_opened, sets, grid):
    """A block of 3 drops at 9000 channels (a chunk and a tail) opens 3 x 2
    streams, keyed (seed; drop, chunk), whatever its points and sets, and
    draws all of them into one buffer; sets that chose one mode at a point
    record one value there."""
    analytic = simulate._block_worker((template(3), sets, grid, 0, 74, range(5, 8)))
    mc = simulate._block_worker((template(3), sets, grid, 9000, 74, range(5, 8)))
    assert [(entropy, key) for entropy, key, *_ in streams_opened] == [
        (74, (drop, c)) for drop in range(5, 8) for c in range(2)]
    assert {(address, shape) for _, _, address, shape, _ in streams_opened} == {
        (streams_opened[0][2], (simulate.MC_CHUNK, 3, 3))}
    (chosen, _), (mc_chosen, values) = analytic, mc
    assert mc_chosen.tolist() == chosen.tolist()
    for drop_chosen, drop_values in zip(chosen.tolist(), values):
        for idx in range(len(grid)):
            for s in range(len(sets)):
                same = [t for t in range(len(sets))
                        if drop_chosen[t][idx] == drop_chosen[s][idx]]
                assert {drop_values[t, idx] for t in same} == {drop_values[s, idx]}


def test_rates_open_one_stream_per_chunk(streams_opened):
    """Every mode at every point of a fixed geometry reads one draw per
    chunk, keyed (seed; 0, 0, chunk)."""
    from dasrate.experiments import bundled_config_path, mode_rate_curves
    from dasrate.geometry import load_scenario

    scn = load_scenario(bundled_config_path("fig2.cfg"))
    mode_rate_curves(scn, ideal_modes(2, 2), (0.0, 10.0, 20.0, 30.0),
                     n_channels=9000, seed=3)
    assert [(entropy, key) for entropy, key, *_ in streams_opened] == [
        (3, (0, 0, 0)), (3, (0, 0, 1))]
