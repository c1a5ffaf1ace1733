"""Mode-selection tests on fixed and random geometries."""

import dataclasses
import math

import pytest

from conftest import mode_rates
from dasrate.geometry import Scenario, drop_users_uniform, pathloss_matrix
from dasrate.modes import (CandidateSet, Origin, TransmissionMode,
                           enumerate_ideal, enumerate_min_distance)
from dasrate.selection import SelectionResult, compare_schemes, select_rows

CELL_RADIUS = math.sqrt(112.0 / 3.0)

FIG2 = Scenario(n_ports=2, n_users=2, cell_radius=CELL_RADIUS,
                pathloss_exponent=3.0, tx_power=1.0,
                port_positions=((-4.0, 0.0), (4.0, 0.0)),
                user_positions=((-3.0, -2.5), (3.0, 3.5)))
FIG2_PL = pathloss_matrix(FIG2)


def candidate_rates(pathloss, candidates, snr):
    """Selection over exactly ``candidates``, and the candidates' rates in
    candidate order."""
    rates = mode_rates(pathloss, candidates.modes, [snr])
    (best,), (rate,) = select_rows(rates)
    result = SelectionResult(candidates.modes[best], float(rate), candidates.origin.value)
    return result, rates[0]


def select(pathloss, candidates, snr):
    return candidate_rates(pathloss, candidates, snr)[0]


def test_fixed_geometry_low_snr_picks_paired_mode():
    result, rates = candidate_rates(FIG2_PL, enumerate_ideal(2, 2), snr=10.0)
    assert result.chosen_mode.label == "[1 2]"
    assert result.chosen_rate == max(rates)


def test_fixed_geometry_high_snr_picks_single_user_mode():
    result = select(FIG2_PL, enumerate_ideal(2, 2), snr=10.0 ** 4.5)
    assert result.chosen_mode.label == "[1 1]"


def test_single_candidate_trivial():
    only = CandidateSet(modes=(TransmissionMode((2, 2)),), origin=Origin.EXPLICIT)
    result, rates = candidate_rates(FIG2_PL, only, snr=100.0)
    assert result.chosen_mode.label == "[2 2]"
    assert len(rates) == 1


def test_selection_deterministic():
    a = select(FIG2_PL, enumerate_ideal(2, 2), snr=100.0)
    b = select(FIG2_PL, enumerate_ideal(2, 2), snr=100.0)
    assert a == b


def test_tie_break_first_in_order():
    """Two copies of one geometry row force exact rate ties; the first
    candidate in canonical order must win."""
    scn = Scenario(n_ports=2, n_users=2, cell_radius=10.0, pathloss_exponent=3.0,
                   tx_power=1.0, port_positions=((2.0, 0.0), (-2.0, 0.0)),
                   user_positions=((0.0, 1.0), (0.0, -1.0)))
    pl = pathloss_matrix(scn)
    result, rates = candidate_rates(pl, enumerate_ideal(2, 2), snr=100.0)
    ties = [i for i, r in enumerate(rates) if r == result.chosen_rate]
    assert result.chosen_mode == enumerate_ideal(2, 2).modes[ties[0]]


def test_reduced_never_beats_exhaustive():
    template = dataclasses.replace(FIG2, user_positions=None)
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in (0.0, 20.0, 40.0)]
    for drop in range(15):
        scn = drop_users_uniform(template, seed=(50, drop))
        ideal, reduced = compare_schemes(scn, pathloss_matrix(scn), snrs)
        for best, fewer in zip(ideal, reduced):
            assert fewer.chosen_rate <= best.chosen_rate + 1e-12


def test_argmax_invariance_under_joint_scaling():
    """Rates depend on each gain times the SNR alone: gains times 13 and
    SNRs over 13 choose the same modes at the same rates."""
    snrs = [1.0, 100.0, 10000.0]
    scaled_pl = dataclasses.replace(FIG2_PL, gains=FIG2_PL.gains * 13.0)
    for base, scaled in zip(compare_schemes(FIG2, FIG2_PL, snrs),
                            compare_schemes(FIG2, scaled_pl, [snr / 13.0 for snr in snrs])):
        assert [r.chosen_mode for r in scaled] == [r.chosen_mode for r in base]
        assert ([r.chosen_rate for r in scaled]
                == pytest.approx([r.chosen_rate for r in base], rel=1e-12))


def test_two_user_schemes_agree_per_drop():
    """Reduced and exhaustive selection pick equal-rate modes in nearly
    every (drop, SNR) cell, and the average rates are near-identical.

    Measured at 1000 drops x 0:10:50 dB the per-cell equality rate is
    97.9% (the reduced set's single-user mode serves the minimum-distance
    user, which at finite SNR is occasionally not the best single-user
    choice); the averaged rate gap is below 0.1%.
    """
    template = dataclasses.replace(FIG2, user_positions=None,
                                   port_positions=None)
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in range(0, 51, 10)]
    cells = equal = 0
    total_ideal = total_reduced = 0.0
    for drop in range(200):
        scn = drop_users_uniform(template, seed=(51, drop))
        for ideal, reduced in zip(*compare_schemes(scn, pathloss_matrix(scn), snrs)):
            cells += 1
            total_ideal += ideal.chosen_rate
            total_reduced += reduced.chosen_rate
            if math.isclose(ideal.chosen_rate, reduced.chosen_rate,
                            rel_tol=1e-12):
                equal += 1
    assert equal / cells >= 0.97
    assert (total_ideal - total_reduced) / total_ideal <= 0.01


def test_scheme_field_reflects_origin():
    ideal, reduced = compare_schemes(FIG2, FIG2_PL, [100.0])
    assert [r.scheme for r in ideal] == ["ideal"]
    assert [r.scheme for r in reduced] == ["min-distance"]


def test_compare_schemes_at_many_snrs_equals_one_snr_at_a_time():
    """One call over a grid selects, at each SNR, the mode and the
    bit-identical rate that a one-point selection on each set's own table
    gives."""
    template = dataclasses.replace(FIG2, user_positions=None, port_positions=None)
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in range(-10, 71, 5)]
    for drop in range(5):
        scn = drop_users_uniform(template, seed=(52, drop))
        pl = pathloss_matrix(scn)
        schemes = compare_schemes(scn, pl, snrs)
        for candidates, results in zip((enumerate_ideal(2, 2), enumerate_min_distance(pl)),
                                       schemes):
            assert len(results) == len(snrs)
            for snr, result in zip(snrs, results):
                assert result == select(pl, candidates, snr)
