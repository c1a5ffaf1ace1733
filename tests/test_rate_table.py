"""Per-drop subset-rate table: pinned floats, internal consistency, and a
50-digit oracle of the same closed form."""

import functools
import itertools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import mode_rates, user_rates
from dasrate.experiments import bundled_config_path
from dasrate.geometry import (Scenario, db_to_linear, drop_users_uniform, load_scenario,
                              pathloss_matrix)
from dasrate.modes import (DegenerateGeometryWarning, TransmissionMode, assignment_array,
                           enumerate_ideal, enumerate_min_distance, min_distance_count,
                           nearest_user_modes)
from dasrate.rate import UserLinkPartition, log1p_inv, row_sum_rates, subset_rates
from dasrate.selection import select_rows
from dasrate.simulate import stream_key
from dasrate.verification import partition_rate

# Rates recorded, as repr strings, from the subset-rate table; every value
# must come out bit for bit the same.
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_rates.json").read_text())

FIG2 = load_scenario(bundled_config_path("fig2.cfg"))

# User 1 sits on the perpendicular bisector of the two ports, so its two
# gains are exactly equal and the tie-separation guard must act.
TIE = Scenario(n_ports=2, n_users=2, cell_radius=6.0, pathloss_exponent=3.0,
               tx_power=1.0, noise_power=1.0,
               port_positions=((-4.0, 0.0), (4.0, 0.0)),
               user_positions=((0.0, 1.5), (3.0, -2.0)))


@pytest.mark.parametrize("name, scenario", [("fig2", FIG2), ("tie", TIE)])
def test_golden_sum_rates_are_bit_identical(name, scenario):
    pl = pathloss_matrix(scenario)
    if name == "tie":
        assert pl.gains[0, 0] == pl.gains[0, 1]
    modes = enumerate_ideal(2, 2).modes
    dbs = (0.0, 25.0, 50.0)
    snrs = [db_to_linear(db) for db in dbs]
    exact, approx = (mode_rates(pl, modes, snrs, kernel) for kernel in (None, log1p_inv))
    for m, mode in enumerate(modes):
        for p, db in enumerate(dbs):
            want = GOLDEN[name][f"{mode.label}@{db:g}"]
            assert exact[p, m] == want["exact"]
            assert approx[p, m] == want["approx"]


def test_golden_candidate_rates_of_one_drop_are_bit_identical():
    want = GOLDEN["n4_drop"]
    template = load_scenario(bundled_config_path("fig5.cfg"))
    seed, drop = want["seed"]
    scenario = drop_users_uniform(
        template, np.random.SeedSequence(entropy=seed, spawn_key=(drop,)))
    pl = pathloss_matrix(scenario)
    candidates = enumerate_ideal(4, 4)
    rates = mode_rates(pl, candidates.modes, [10.0 ** (want["snr_db"] / 10.0)])
    (best,), _ = select_rows(rates)
    assert list(candidates.labels()) == want["labels"]
    assert rates[0].tolist() == want["rates"]
    assert candidates.modes[best].label == want["chosen"]


def _drops(n, count, seed=91):
    template = Scenario(n_ports=n, n_users=n, cell_radius=math.sqrt(112.0 / 3.0),
                        pathloss_exponent=3.0, tx_power=1.0, noise_power=1.0)
    for d in range(count):
        yield pathloss_matrix(drop_users_uniform(template, seed=(seed, n, d)))


def _modes(n, pl):
    """Min-distance modes plus the ideal set (every 25th mode at N = 5)."""
    reduced = enumerate_min_distance(pl).modes
    ideal = enumerate_ideal(n, n).modes[::25 if n == 5 else 1]
    return tuple(dict.fromkeys(ideal + reduced))


def _partition(pl, mode, user, snr):
    """The partition of a (1-based) user under ``mode``, or None when the
    mode leaves it idle."""
    ports = mode.support_sets.get(user)
    if not ports:
        return None
    row = pl.gains[user - 1].tolist()
    return UserLinkPartition(tuple(row[j] for j in sorted(ports)),
                             tuple(row[j] for j in sorted(mode.complements[user])), snr, 1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rows_are_sums_of_one_partition_rates(n):
    for pl in _drops(n, 2):
        modes = _modes(n, pl)
        for snr in (1.0, 10.0 ** 2.5, 1e5):
            (rows,) = mode_rates(pl, modes, [snr])
            per_user = user_rates(pl, modes, snr)
            # Modes share partitions; each distinct one is rated once.
            one_partition = functools.cache(partition_rate)
            for m, mode in enumerate(modes):
                users = [_partition(pl, mode, u, snr) for u in range(1, n + 1)]
                rates = [0.0 if p is None else one_partition(p) for p in users]
                assert per_user[m].tolist() == rates
                assert rows[m] == sum(rates)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_min_distance_rows_of_union_table_match_own_table(n):
    """The min-distance rows rate the same rated among many modes as rated
    alone."""
    for pl in _drops(n, 3):
        modes = _modes(n, pl)
        reduced = enumerate_min_distance(pl).modes
        snrs = [1.0, 1e3, 1e5]
        union_rates = mode_rates(pl, modes + reduced, snrs)[:, len(modes):]
        alone_rates = mode_rates(pl, reduced, snrs)
        assert union_rates.tolist() == alone_rates.tolist()
        assert ([a.tolist() for a in select_rows(union_rates)]
                == [a.tolist() for a in select_rows(alone_rates)])


@pytest.mark.parametrize("kernel", [None, log1p_inv], ids=["exp_e1", "log1p_inv"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_of_tables_and_points_equals_per_point_sum_rates(n, kernel):
    """One table over several drops and every point gives each drop, at
    each point, the floats of its own one-point table, for a set that
    every drop rates and for a set per drop."""
    pls = list(_drops(n, 3))
    modes = [assignment_array(_modes(n, pl), n) for pl in pls]
    # A set per drop: the last rows of each drop's modes, its min-distance ones.
    size = min(map(len, modes))
    own_rows = np.stack([rows[-size:] for rows in modes])
    snrs = [10.0 ** (db / 10.0) for db in range(-10, 81, 15)]
    table = subset_rates(np.stack([pl.gains for pl in pls]), snrs, kernel)
    assert table.shape == (len(pls), len(snrs), n, 2 ** n)
    own = row_sum_rates(table, own_rows)
    for d, (pl, rows) in enumerate(zip(pls, modes)):
        rates = row_sum_rates(table, rows)[d]
        assert rates.shape == (len(snrs), len(rows))
        assert own[d].tolist() == row_sum_rates(table, own_rows[d])[d].tolist()
        for p, snr in enumerate(snrs):
            assert rates[p].tolist() == mode_rates(pl, rows, [snr], kernel)[0].tolist()
            assert own[d, p].tolist() == mode_rates(pl, own_rows[d], [snr], kernel)[0].tolist()
    # A drop's rates do not depend on which other drops share the table.
    alone = mode_rates(pls[1], modes[1], snrs[::-1], kernel)
    assert alone[::-1].tolist() == row_sum_rates(table, modes[1])[1].tolist()


# Ring of four ports at radius 4; a user at the centre has four exactly
# tied gains. In the second drop one user sits near the centre and the
# others beyond it, at radius 6 between two ports, so every port has the
# same nearest user.
RING = Scenario(n_ports=4, n_users=4, cell_radius=6.5, pathloss_exponent=3.0,
                tx_power=1.0, noise_power=1.0, port_ring_radius=4.0)
EDGE = tuple((6.0 * math.cos(a), 6.0 * math.sin(a))
             for a in (0.25 * math.pi, 0.75 * math.pi, 1.25 * math.pi))
SPECIAL_DROPS = {
    "tie2": (TIE, [TIE.user_positions, ((1.0, 0.5), (-1.0, -5.5))]),
    "ring4": (RING, [((0.0, 0.0), (3.5, 0.5), (0.5, 3.5), (-3.5, -0.5)),
                     ((0.05, 0.05),) + EDGE]),
}


@pytest.mark.parametrize("name", sorted(SPECIAL_DROPS))
def test_drop_rates_do_not_depend_on_its_block(name):
    """A drop's rates and chosen modes are the same rated alone or in a
    block of 63 drops, for an exact-tie drop and for a drop whose ports
    all share one nearest user."""
    template, special = SPECIAL_DROPS[name]
    n = template.n_ports
    scenarios = [drop_users_uniform(template, seed=(93, d)) for d in range(61)]
    scenarios[20:20] = [template.with_users(users) for users in special]
    pls = [pathloss_matrix(s) for s in scenarios]
    tied, degenerate = pls[20], pls[21]
    assert len(set(tied.gains[0].tolist())) == 1
    assert len(set(np.argmin(degenerate.distances, axis=0).tolist())) == 1

    ideal = enumerate_ideal(n, n)
    rows, offsets = nearest_user_modes(np.stack([pl.distances for pl in pls]))
    nearest = [rows[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    with pytest.warns(DegenerateGeometryWarning):
        alone_set = enumerate_min_distance(degenerate)
    assert nearest[21].tolist() == [list(m.assignment) for m in alone_set.modes]
    assert len(nearest[21]) == min_distance_count(n) - 1
    snrs = [10.0 ** (db / 10.0) for db in (0, 20, 40, 60)]
    table = subset_rates(np.stack([pl.gains for pl in pls]), snrs)
    ideal_rates = row_sum_rates(table, assignment_array(ideal.modes, n))

    def selected(rates):
        return [a.tolist() for a in select_rows(rates)]

    for d, (pl, reduced) in enumerate(zip(pls, nearest)):
        candidates = tuple(TransmissionMode(tuple(a)) for a in reduced.tolist())
        alone_rates = mode_rates(pl, ideal.modes, snrs)
        own_rates = mode_rates(pl, candidates, snrs)
        rates = row_sum_rates(table, reduced)[d]
        assert ideal_rates[d].tolist() == alone_rates.tolist()
        assert selected(ideal_rates[d]) == selected(alone_rates)
        assert selected(rates) == selected(own_rates)
        assert rates.tolist() == own_rates.tolist()


def _mp_user_rate(signal, interference, snr):
    """The closed form at 50 digits: partial fractions over exp(x)E1(x)."""
    def weights(gains):
        return [mpmath.fprod(g / (g - h) for l, h in enumerate(gains) if l != k)
                for k, g in enumerate(gains)]

    def kernel(g):
        x = 1 / (g * snr)
        return mpmath.exp(x) * mpmath.e1(x)

    if not interference:
        total = mpmath.fsum(w * kernel(g) for w, g in zip(weights(signal), signal))
    else:
        total = mpmath.fsum(wk * wu * sk / (sk - su) * (kernel(sk) - kernel(su))
                            for wk, sk in zip(weights(signal), signal)
                            for wu, su in zip(weights(interference), interference))
    return total / mpmath.log(2)


def _well_separated(pl, min_gap=1e-2):
    for row in pl.gains:
        for a, b in itertools.combinations(row.tolist(), 2):
            if abs(a - b) < min_gap * max(a, b):
                return False
    return True


def _assert_fifty_digit_rates(pl, modes, snrs):
    """Every active user's rate under ``modes`` is within 1e-9 bits of
    the 50-digit closed form at each SNR."""
    with mpmath.workdps(50):
        for snr in snrs:
            per_user = user_rates(pl, modes, snr)
            for m, mode in enumerate(modes):
                for user, ports in mode.support_sets.items():
                    row = [mpmath.mpf(g) for g in pl.gains[user - 1].tolist()]
                    signal = [row[j] for j in sorted(ports)]
                    interference = [row[j] for j in sorted(mode.complements[user])]
                    want = _mp_user_rate(signal, interference, mpmath.mpf(snr))
                    assert abs(per_user[m, user - 1] - float(want)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rates_match_fifty_digit_closed_form(n):
    checked = 0
    for pl in _drops(n, 12, seed=92):
        if not _well_separated(pl):
            continue
        _assert_fifty_digit_rates(pl, enumerate_min_distance(pl).modes, (1.0, 1e3, 1e5))
        checked += 1
        if checked == 3:
            break
    assert checked == 3


def test_near_tied_rate_matches_fifty_digit_closed_form():
    """Drop 9 of fig5 at seed 1: user 4's interfering gains differ by 3e-5
    and its serving gains by 1.2e-4, relative, and under [3 3 4 4] at
    50 dB its rate is within 1e-9 bits of the 50-digit closed form."""
    template = load_scenario(bundled_config_path("fig5.cfg"))
    pl = pathloss_matrix(drop_users_uniform(template, stream_key(1, 9)))
    assert pl.gains[3].tolist() == pytest.approx([4.67054e-3, 4.67067e-3,
                                                  4.29945e-2, 4.29892e-2], rel=1e-5)
    _assert_fifty_digit_rates(pl, (TransmissionMode((3, 3, 4, 4)),), (db_to_linear(50.0),))
