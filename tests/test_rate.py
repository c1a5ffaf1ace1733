"""Closed-form ergodic-rate tests against independent oracles."""

import math

import mpmath
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
from dasrate.verification import Link, mgf_rate, partition_rate, random_partition

CELL_RADIUS = math.sqrt(112.0 / 3.0)

# Fixed two-user geometry used throughout: port 1 at (-4, 0), port 2 at
# (4, 0), user 1 at (-3, -2.5), user 2 at (3, 3.5), pathloss exponent 3.
FIG2 = Scenario(n_ports=2, n_users=2, cell_radius=CELL_RADIUS,
                pathloss_exponent=3.0,
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
    """Two tied serving gains rate within 1e-4 bits of gains 1e-6 apart."""
    tied = Link((0.02, 0.02), (0.005,), 100.0)
    jittered = Link((0.02, 0.02 * (1.0 + 1e-6)), (0.005,), 100.0)
    assert partition_rate(tied) == pytest.approx(partition_rate(jittered), abs=1e-4)


def test_guard_separates_cross_list_ties():
    """A gain that serves and interferes at once rates finite."""
    assert math.isfinite(partition_rate(Link((0.01,), (0.01,), 10.0)))


@pytest.mark.parametrize("plant", ["bias", "recursion", "dropped-term"])
def test_rate_check_fails_on_a_planted_closed_form_error(monkeypatch, plant):
    """The closed-form-vs-oracle check fails when each table's R(S + I),
    its all-ports entry, is 1e-7 bits high (a bias on every entry would
    cancel in R(S + I) - R(I)), when each recursion step's weights are
    1e-6 high, relative, or when the Erlang mixture drops its E1 term."""
    assert verification.check_rate_vs_quadrature().passed
    if plant == "bias":
        subset_rates = rate.subset_rates

        def planted(gains, snrs):
            table = subset_rates(gains, snrs)
            table[..., -1] += 1e-7
            return table

        monkeypatch.setattr(rate, "subset_rates", planted)
    elif plant == "recursion":
        class PlantedNumpy:
            """numpy, whose divide (the recursion's weights) reads high."""
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def divide(*args, **kwargs):
                return np.divide(*args, **kwargs) * (1.0 + 1e-6)

        monkeypatch.setattr(rate, "np", PlantedNumpy())
    else:
        mixture = rate._erlang_mixture
        monkeypatch.setattr(rate, "_erlang_mixture",
                            lambda g, x, first, *rest: mixture(g, x, 0.0 * first, *rest))
    result = verification.check_rate_vs_quadrature()
    assert not result.passed and result.measured > 1e-8, result.line()


def test_rate_at_four_tied_gains_matches_the_oracle():
    link = Link((1.0,) * 4, (), 1000.0)
    assert abs(partition_rate(link) - mgf_rate(link)) <= 1e-9


def _oracle_gains() -> dict[str, tuple[float, ...]]:
    """Gain sets on both routes of ``subset_rates``: exact ties, five
    gains with gaps of 1e-3 to 1e-12, uniform clusters of spans 0.5 to
    1e-9, geometric chains and random sets. Sixteen gains take about a
    second each, so fewer sets hold them."""
    rng = np.random.default_rng(33)
    cases = {f"tie-{n}": (1.0,) * n for n in range(2, 17)}
    cases.update({f"gap-{gap:g}": (0.5, 1.0, 1.0 + gap, 1.0 + 2.0 * gap, 3.0)
                  for gap in 10.0 ** -np.arange(3.0, 13.0)})
    cases.update({f"cluster-{n}-{span:g}": tuple(np.linspace(1.0, 1.0 + span, n).tolist())
                  for n in (3, 5, 8, 12) for span in (0.5, 1e-2, 1e-5, 1e-9)})
    cases["cluster-16-0.01"] = tuple(np.linspace(1.0, 1.01, 16).tolist())
    cases.update({f"chain-{n}-{ratio:g}": tuple((ratio ** np.arange(n)).tolist())
                  for n in (4, 8, 12) for ratio in (1.02, 1.2)})
    cases.update({f"random-{n}": tuple(10.0 ** rng.uniform(-3.0, 0.0, n)) for n in (12, 16)})
    return cases


ORACLE_GAINS = _oracle_gains()
ORACLE_SNRS = (1e-3, 1.0, 1e3, 1e8, 1e30)


@pytest.mark.parametrize("name", ORACLE_GAINS)
def test_rates_match_the_mgf_oracle_at_any_gains(name):
    """Each set's full rate, and its rate with every other gain an
    interferer, is finite and within 1e-9 bits of ``mgf_rate`` at linear
    SNRs from 1e-3 to 1e30, all from one table."""
    gains = ORACLE_GAINS[name]
    table = rate.subset_rates(np.array([[gains]]), ORACLE_SNRS)[0, :, 0]
    odd = sum(1 << j for j in range(1, len(gains), 2))
    for snr, full, split in zip(ORACLE_SNRS, table[:, -1], table[:, -1] - table[:, odd]):
        for value, link in ((full, Link(gains, (), snr)),
                            (split, Link(gains[::2], gains[1::2], snr))):
            assert math.isfinite(value) and abs(value - mgf_rate(link)) <= 1e-9, (link, value)


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


@pytest.mark.parametrize("gains", [(1.0,) * 4, (0.5, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 3.0),
                                   tuple(np.linspace(1.0, 1.07, 8).tolist())],
                         ids=["tie-4", "gap-1e-9", "cluster-8"])
def test_approx_rates_hold_at_near_ties(gains):
    """The approximated rate over all the gains, sum_j w_j ln(1 + g_j snr)
    / ln 2, is within 1e-12 bits of its value at 60 digits, taken at ties
    as the limit of gains moved apart by 1e-40, relative, at 200 digits."""
    snrs = (1e-3, 1.0, 1e3, 1e8)
    table = rate.subset_rates(np.array([[gains]]), snrs, log1p_inv)[0, :, 0, -1]
    with mpmath.workdps(200):
        g = [mpmath.mpf(v) * (1 + k * mpmath.mpf(10) ** -40) for k, v in enumerate(gains)]
        for snr, value in zip(snrs, table.tolist()):
            want = mpmath.fsum(mpmath.fprod(a / (a - b) for b in g if b is not a)
                               * mpmath.log1p(a * snr) for a in g) / mpmath.log(2)
            assert abs(value - float(want)) <= 1e-12


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


def test_tied_two_by_two_gains_give_finite_crossover_curves():
    """User 2 is as far from both ports: the exact and approximated curves
    of both modes are finite over the whole scan, and each pair crosses,
    the exact pair above the approximated one."""
    d = np.array([[1.0, 5.0], [3.0, 3.0]])
    pl = PathlossMatrix(distances=d, gains=d ** -3.0)
    assert pl.gains[1, 0] == pl.gains[1, 1]
    snrs = 10.0 ** (np.arange(-20.0, 80.25, 0.25) / 10.0)
    for kernel in (None, log1p_inv):
        assert np.isfinite(mode_rates(pl, [[1, 1], [1, 2]], snrs, kernel)).all()
    approx_db, exact_db = rate.crossover_curves_db(pl.gains)
    assert approx_db is not None and exact_db is not None
    assert 0.0 < exact_db - approx_db <= verification.EXACT_CROSSOVER_SHIFT_DB


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
