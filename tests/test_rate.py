"""Closed-form density and ergodic-rate tests against independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import mode_rates, user_rates
from dasrate import rate, verification
from dasrate.geometry import PathlossMatrix, Scenario, db_to_linear, linear_to_db, pathloss_matrix
from dasrate.modes import ideal_modes
from dasrate.numerics import LN2, exp_e1
from dasrate.rate import crossover_snr, log1p_inv, rate_curve_intersection_db
from dasrate.simulate import mc_sum_rates
from dasrate.verification import (KS_PARTITION, Link, interference_density, partition_rate,
                                  random_partition, signal_density, sinr_density)

CELL_RADIUS = math.sqrt(112.0 / 3.0)

# Fixed two-user geometry used throughout: port 1 at (-4, 0), port 2 at
# (4, 0), user 1 at (-3, -2.5), user 2 at (3, 3.5), pathloss exponent 3.
FIG2 = Scenario(n_ports=2, n_users=2, cell_radius=CELL_RADIUS,
                pathloss_exponent=3.0, tx_power=1.0,
                port_positions=((-4.0, 0.0), (4.0, 0.0)),
                user_positions=((-3.0, -2.5), (3.0, 3.5)))
FIG2_PL = pathloss_matrix(FIG2)

# Direct arithmetic: d^2 values are 7.25, 55.25, 61.25, 13.25.
S11 = 7.25 ** -1.5
S12 = 55.25 ** -1.5
S21 = 61.25 ** -1.5
S22 = 13.25 ** -1.5


def test_fig2_gains_match_direct_arithmetic():
    assert FIG2_PL.gains[0, 0] == pytest.approx(S11, rel=1e-14)
    assert FIG2_PL.gains[0, 1] == pytest.approx(S12, rel=1e-14)
    assert FIG2_PL.gains[1, 0] == pytest.approx(S21, rel=1e-14)
    assert FIG2_PL.gains[1, 1] == pytest.approx(S22, rel=1e-14)


# --- densities ---------------------------------------------------------------

def test_pdf_signal_single_gain_is_exponential():
    pdf = signal_density(Link((0.2,), (), 5.0))
    for rho in (0.1, 1.0, 4.0):
        assert pdf(rho) == pytest.approx(math.exp(-rho) / 1.0, rel=1e-12)


def test_pdf_signal_two_gains_closed_form():
    # gains (1, 2) at snr 1: scales 1 and 2, hypoexponential difference form
    pdf = signal_density(Link((1.0, 2.0), (), 1.0))
    for rho in (0.2, 1.0, 3.0):
        assert pdf(rho) == pytest.approx(math.exp(-rho / 2.0) - math.exp(-rho),
                                         rel=1e-12)
    total, _ = integrate.quad(pdf, 0.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_pdf_signal_ks_against_sampled_sum():
    result = verification.check_ks_distributions(seed=21, link=Link((0.03, 0.011), (), 20.0))
    assert result.passed, result.line()


def test_pdf_interference_shifted_exponential():
    # P = 10 over noise 2 is snr 5: unit noise plus one exponential of mean 0.1 * 5
    pdf = interference_density(Link((0.5,), (0.1,), 5.0))
    scale = 0.1 * 5.0
    assert pdf(0.95) == 0.0
    for rho in (1.05, 1.5, 4.0):
        assert pdf(rho) == pytest.approx(math.exp(-(rho - 1.0) / scale) / scale,
                                         rel=1e-12)


def test_pdf_interference_mean():
    link = Link((0.5,), (0.02, 0.007, 0.0013), 30.0)
    pdf = interference_density(link)
    mean, _ = integrate.quad(lambda rho: rho * pdf(rho), 1.0, np.inf, limit=300)
    expected = 1.0 + sum(g * link.snr for g in link.interference)
    assert mean == pytest.approx(expected, abs=1e-6)


def test_pdf_sinr_normalization_random_partitions():
    result = verification.check_pdf_normalization(n_partitions=20, seed=22)
    assert result.passed, result.line()


def test_pdf_sinr_ks_against_sampled_ratio():
    link = Link((0.05, 0.012), (0.02, 0.004), 50.0)
    result = verification.check_ks_distributions(seed=23, link=link)
    assert result.passed, result.line()


def test_pdf_sinr_noise_free_limit():
    """snr -> inf with one gain each side: ratio-of-exponentials density."""
    s_sig, s_intf = 0.04, 0.009
    pdf = sinr_density(Link((s_sig,), (s_intf,), 1e9))
    for rho in (0.5, 2.0, 10.0):
        expected = s_sig * s_intf / (s_intf * rho + s_sig) ** 2
        assert pdf(rho) == pytest.approx(expected, rel=1e-6)


def test_pdf_sinr_requires_interference():
    with pytest.raises(ValueError, match="no-interference"):
        sinr_density(Link((0.1,), (), 1.0))


@pytest.mark.parametrize("link", [KS_PARTITION, Link((0.5,), (0.1,), 5.0),
                                  Link((0.03, 0.011), (0.02, 0.007, 0.0013), 300.0)],
                         ids=["ks", "one-each", "two-three"])
def test_each_cdf_is_the_integral_of_its_density(link):
    """quad(density, lo, x) = cdf(x) for the signal, the interference plus
    noise and the SINR, at x a few multiples of a typical value past lo."""
    signal, interference = sum(link.signal) * link.snr, sum(link.interference) * link.snr
    for density, lo, typical in ((signal_density, 0.0, signal),
                                 (interference_density, 1.0, interference),
                                 (sinr_density, 0.0, signal / (1.0 + interference))):
        pdf, cdf = density(link), density(link, cdf=True)
        for c in (0.3, 1.0, 3.0):
            x = lo + c * typical
            area, _ = integrate.quad(pdf, lo, x, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert area == pytest.approx(float(cdf(x)), abs=1e-9)


# --- ergodic user rates --------------------------------------------------------

def test_rate_unit_snr_single_gain():
    """S * snr = 1 gives the classic exp(1)*E1(1)/ln2 value."""
    rate = partition_rate(Link((0.01,), (), 100.0))
    assert rate == pytest.approx(0.86034738227088595, rel=1e-12)
    # Monte Carlo oracle
    rng = np.random.default_rng(24)
    draws = np.log2(1.0 + rng.exponential(size=2_000_000))
    assert abs(rate - draws.mean()) < 3.0 * draws.std() / math.sqrt(draws.size)


def test_rate_vanishing_interference_limit():
    base = partition_rate(Link((0.05,), (), 100.0))
    assert partition_rate(Link((0.05,), (1e-12,), 100.0)) == pytest.approx(base, abs=1e-9)


def test_rate_near_equal_gains_vs_erlang_quadrature():
    """Two nearly equal gains behave like the two-stage equal-scale chain."""
    s, snr = 0.02, 80.0
    rate = partition_rate(Link((s, s * (1.0 + 1e-6)), (), snr))
    scale = s * snr

    def erlang2(x):
        return x * np.exp(-x / scale) / scale ** 2

    oracle, err = integrate.quad(lambda x: np.log2(1.0 + x) * erlang2(x),
                                 0.0, np.inf, limit=300)
    assert err < 1e-9
    assert rate == pytest.approx(oracle, abs=1e-4)


def test_rate_monotone_in_power():
    # raising the SNR lifts the signal fully but the denominator only
    # partially (noise is fixed), so the SINR, and hence the rate, strictly grows
    rng = np.random.default_rng(26)
    for _ in range(10):
        link = random_partition(rng, allow_empty_interference=True)
        assert partition_rate(link._replace(snr=link.snr * 2.0)) > partition_rate(link)


def test_rate_interference_hurts():
    rng = np.random.default_rng(27)
    for _ in range(10):
        link = random_partition(rng, max_interference=2)
        without = link._replace(interference=link.interference[:-1])
        assert partition_rate(link) < partition_rate(without)


def test_rate_degenerate_gain_continuity():
    """The tie-separation nudge moves the rate by far less than 1e-4 bits."""
    tied = Link((0.02, 0.02), (0.005,), 100.0)
    jittered = Link((0.02, 0.02 * (1.0 + 1e-6)), (0.005,), 100.0)
    assert partition_rate(tied) == pytest.approx(partition_rate(jittered), abs=1e-4)


def test_guard_separates_cross_list_ties():
    assert math.isfinite(partition_rate(Link((0.01,), (0.01,), 10.0)))


# --- sum rate over modes --------------------------------------------------------

def test_sum_rate_matches_displayed_two_term_expression():
    """Mode [2 1]: user 1 served by port 2, user 2 by port 1."""
    snr = 100.0
    result, mirrored = mode_rates(FIG2_PL, [[2, 1], [1, 2]], [snr])[0]

    def brace(s_sig, s_intf):
        return (s_sig / (s_sig - s_intf)
                * (exp_e1(1.0 / (s_sig * snr)) - exp_e1(1.0 / (s_intf * snr))))

    expected = (brace(S12, S11) + brace(S21, S22)) / LN2
    assert result == pytest.approx(expected, rel=1e-12)
    # the mirrored mode evaluates the other pairing, not the same value
    assert mirrored != pytest.approx(result, rel=1e-3)


def test_sum_rate_inactive_users_contribute_zero():
    per_user = user_rates(FIG2_PL, [[2, 2]], 10.0)[0].tolist()
    sum_rate = mode_rates(FIG2_PL, [[2, 2]], [10.0])[0, 0]
    assert per_user[0] == 0.0
    assert sum_rate == per_user[1]
    single = partition_rate(Link((S21, S22), (), 10.0))
    assert sum_rate == pytest.approx(single, rel=1e-12)


def test_sum_rate_permutation_equivariance():
    """Relabeling users permutes per-user rates; relabeling ports (with the
    matching mode permutation) changes nothing."""
    snr = 50.0
    base = user_rates(FIG2_PL, [[1, 2]], snr)[0]
    swapped_users = PathlossMatrix(distances=FIG2_PL.distances[::-1].copy(),
                                   gains=FIG2_PL.gains[::-1].copy())
    swapped = user_rates(swapped_users, [[2, 1]], snr)[0]
    assert swapped.tolist() == base[::-1].tolist()
    swapped_ports = PathlossMatrix(distances=FIG2_PL.distances[:, ::-1].copy(),
                                   gains=FIG2_PL.gains[:, ::-1].copy())
    reordered = mode_rates(swapped_ports, [[2, 1]], [snr])[0, 0]
    assert reordered == pytest.approx(sum(base), rel=1e-12)


def test_sum_rate_mc_agreement_all_fig2_modes():
    modes = ideal_modes(2, 2)
    for snr_db in (0.0, 15.0, 30.0, 45.0):
        snr = db_to_linear(snr_db)
        means, errors = mc_sum_rates(FIG2_PL.gains, modes, [snr], 100_000,
                                     np.random.SeedSequence((28, int(snr_db))))
        closed = mode_rates(FIG2_PL, modes, [snr])[0]
        for rate, mean, std_error in zip(closed.tolist(), means[:, 0], errors[:, 0]):
            assert abs(rate - mean) < 3.0 * std_error


# --- approximated rates -----------------------------------------------------

def test_approx_rate_hand_evaluated_two_user_expression():
    """Mode [1 2] at 20 dB against the two-logarithm form written out."""
    rho = 100.0
    got = mode_rates(FIG2_PL, [[1, 2]], [rho], log1p_inv)[0, 0]
    expected = (S11 / (S12 - S11) * math.log((S12 * rho + 1) / (S11 * rho + 1))
                + S22 / (S21 - S22) * math.log((S21 * rho + 1) / (S22 * rho + 1))
                ) / LN2
    assert got == pytest.approx(expected, rel=1e-12)


def test_approx_rate_single_user_two_log_identity():
    rho = 100.0
    got = mode_rates(FIG2_PL, [[1, 1]], [rho], log1p_inv)[0, 0]
    expected = (S11 / (S11 - S12) * math.log(S11 * rho + 1)
                + S12 / (S12 - S11) * math.log(S12 * rho + 1)) / LN2
    assert got == pytest.approx(expected, rel=1e-12)


def test_approx_termwise_bound():
    for x in np.logspace(-6, 3, 100):
        assert exp_e1(float(x)) <= math.log1p(1.0 / x)


def test_approx_exceeds_exact_for_single_gain_no_interference():
    part_gains = (0.05,)
    for snr in (1.0, 100.0, 1e4):
        exact = partition_rate(Link(part_gains, (), snr))
        approx = math.log1p(part_gains[0] * snr) / LN2
        assert approx >= exact


def test_approx_gap_shrinks_for_single_user_modes():
    single = [[1, 1]]
    exact = mode_rates(FIG2_PL, single, [1e6, 1e8])[:, 0]
    approx = mode_rates(FIG2_PL, single, [1e6, 1e8], log1p_inv)[:, 0]
    gaps = np.abs(approx - exact) / exact
    assert gaps[1] < gaps[0]


# --- crossover and lower bound ------------------------------------------------

def test_crossover_formula_frozen_values():
    vs_12, vs_21 = crossover_snr(FIG2_PL.gains)
    assert vs_12 == pytest.approx(5277.242985622688, rel=1e-12)
    assert linear_to_db(vs_12) == pytest.approx(37.22407091312925, abs=1e-9)
    assert linear_to_db(vs_21) == pytest.approx(27.922324851864428, abs=1e-9)


def test_crossover_equal_gain_limit():
    d = np.array([[2.0, 3.0], [4.0, 4.0]])
    vs_12, vs_21 = crossover_snr(d ** -3.0)
    assert vs_12 == pytest.approx(math.e / (3.0 ** -3.0), rel=1e-9)
    assert vs_21 == pytest.approx(math.e / (4.0 ** -3.0), rel=1e-9)


def test_crossover_matches_selection_flip_on_fixed_geometry():
    """The exact curves change order right around the formula's value."""
    (single_36, paired_36), (single_39, paired_39) = mode_rates(
        FIG2_PL, [[1, 1], [1, 2]],
        [db_to_linear(36.0), db_to_linear(39.0)])
    assert paired_36 > single_36
    assert single_39 > paired_39


def curve_gap(mode_a, mode_b):
    """Sum rate of mode A minus that of mode B on the fig2 geometry, per
    linear SNR."""
    def gap(snr):
        a, b = mode_rates(FIG2_PL, [mode_a, mode_b], snr).T
        return a - b
    return gap


def test_intersection_bisection_on_fig2():
    crossing = rate_curve_intersection_db(curve_gap([1, 1], [1, 2]))
    assert crossing == pytest.approx(37.78, abs=0.05)


def test_intersection_none_when_curves_do_not_cross():
    # [1 1] serves the strongest user with both ports and dominates the
    # badly-paired [2 1] at every SNR on this geometry
    assert rate_curve_intersection_db(curve_gap([1, 1], [2, 1])) is None


def test_crossover_curves_rate_one_table_per_gap_evaluation(monkeypatch):
    """Each scan and bisection step rates both modes from one subset-rate
    table, and nothing else evaluates the gap: per crossing, one scan and
    the halvings of a grid step down to CROSSING_TOL_DB (12 at 0.25 dB),
    the bisection starting from the scanned value at its low end."""
    calls = {"gap": 0, "table": 0}
    subset_rates, intersection = rate.subset_rates, rate.rate_curve_intersection_db

    def counted_table(*args):
        calls["table"] += 1
        return subset_rates(*args)

    def counted_intersection(gap):
        def counted_gap(snr):
            calls["gap"] += 1
            return gap(snr)
        return intersection(counted_gap)

    monkeypatch.setattr(rate, "subset_rates", counted_table)
    monkeypatch.setattr(rate, "rate_curve_intersection_db", counted_intersection)
    assert None not in rate.crossover_curves_db(FIG2_PL.gains)
    steps = math.ceil(math.log2(rate.CROSSING_STEP_DB / rate.CROSSING_TOL_DB))
    assert steps == 12
    assert calls == {"gap": 2 * (1 + steps), "table": 2 * (1 + steps)}


def single_user_rate_lower_bound(pathloss, user_index, snr):
    """log2(max-gain * snr + 1): floor on the all-ports single-user rate
    of the two-port case."""
    return math.log2(float(np.max(pathloss.gains[user_index - 1])) * snr + 1.0)


def test_single_user_lower_bound():
    for snr_db in (0.0, 15.0, 30.0, 45.0):
        rho = 10.0 ** (snr_db / 10.0)
        for user, mode in ((1, [1, 1]), (2, [2, 2])):
            bound = single_user_rate_lower_bound(FIG2_PL, user, rho)
            assert mode_rates(FIG2_PL, [mode], [rho], log1p_inv)[0, 0] >= bound
    # equal gains: the bound is exact
    d = np.array([[2.0, 2.0], [3.0, 5.0]])
    pl = PathlossMatrix(distances=d, gains=d ** -3.0)
    assert single_user_rate_lower_bound(pl, 1, 100.0) == pytest.approx(
        math.log2(2.0 ** -3.0 * 100.0 + 1.0))


def test_bound_monotone():
    values = [single_user_rate_lower_bound(FIG2_PL, 1, rho)
              for rho in (1.0, 10.0, 100.0, 1000.0)]
    assert values == sorted(values)
