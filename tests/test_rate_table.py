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
from dasrate.geometry import (Scenario, db_to_linear, load_scenario, pathloss_matrix,
                              uniform_positions)
from dasrate.modes import ideal_modes, min_distance_count, mode_label, nearest_user_modes
from dasrate import rate
from dasrate.rate import log1p_inv, row_sum_rates, select_rows, subset_rates
from dasrate.simulate import stream_key
from dasrate.verification import Link, partition_rate

# Rates recorded, as repr strings, from the subset-rate table; every value
# must come out bit for bit the same.
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_rates.json").read_text())

FIG2 = load_scenario("fig2.cfg")

# User 1 sits on the perpendicular bisector of the two ports, so its two
# gains are exactly equal and its pair takes the Erlang mixture.
TIE = Scenario(n_ports=2, n_users=2, cell_radius=6.0, pathloss_exponent=3.0,
               port_positions=((-4.0, 0.0), (4.0, 0.0)),
               user_positions=((0.0, 1.5), (3.0, -2.0)))


def nearest_rows(pl):
    """The nearest-user set of one (K x N) pathloss."""
    return nearest_user_modes(pl.distances[None])[0]


@pytest.mark.parametrize("name, scenario", [("fig2", FIG2), ("tie", TIE)])
def test_golden_sum_rates_are_bit_identical(name, scenario):
    pl = pathloss_matrix(scenario)
    if name == "tie":
        assert pl.gains[0, 0] == pl.gains[0, 1]
    modes = ideal_modes(2, 2)
    dbs = (0.0, 25.0, 50.0)
    snrs = [db_to_linear(db) for db in dbs]
    exact, approx = (mode_rates(pl, modes, snrs, kernel) for kernel in (None, log1p_inv))
    for m, mode in enumerate(modes):
        for p, db in enumerate(dbs):
            want = GOLDEN[name][f"{mode_label(mode)}@{db:g}"]
            assert exact[p, m] == want["exact"]
            assert approx[p, m] == want["approx"]


def test_golden_candidate_rates_of_one_drop_are_bit_identical():
    want = GOLDEN["n4_drop"]
    template = load_scenario("fig5.cfg")
    seed, drop = want["seed"]
    (users,) = uniform_positions(
        template, [np.random.SeedSequence(entropy=seed, spawn_key=(drop,))])
    pl = pathloss_matrix(template, users)
    candidates = ideal_modes(4, 4)
    rates = mode_rates(pl, candidates, [10.0 ** (want["snr_db"] / 10.0)])
    (best,), _ = select_rows(rates)
    assert list(map(mode_label, candidates)) == want["labels"]
    assert rates[0].tolist() == want["rates"]
    assert mode_label(candidates[best]) == want["chosen"]


def _drops(n, count, seed=91):
    template = Scenario(n_ports=n, n_users=n, cell_radius=math.sqrt(112.0 / 3.0),
                        pathloss_exponent=3.0)
    positions = uniform_positions(template, [(seed, n, d) for d in range(count)])
    return [pathloss_matrix(template, users) for users in positions]


def _modes(n, pl):
    """The ideal set (every 25th mode at N = 5), then the min-distance
    modes it lacks."""
    rows = np.concatenate([ideal_modes(n, n)[::25 if n == 5 else 1], nearest_rows(pl)])
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


def _ports(mode, user):
    """A (1-based) user's serving ports under the assignment ``mode``, and
    the mode's other active ports, in port order."""
    return ([j for j, u in enumerate(mode) if u == user],
            [j for j, u in enumerate(mode) if u not in (0, user)])


def _partition(pl, mode, user, snr):
    """The link of a (1-based) user under ``mode``, or None when the mode
    leaves it idle."""
    signal, interference = _ports(mode, user)
    if not signal:
        return None
    row = pl.gains[user - 1].tolist()
    return Link(tuple(row[j] for j in signal), tuple(row[j] for j in interference), snr)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rows_are_sums_of_one_partition_rates(n):
    for pl in _drops(n, 2):
        modes = _modes(n, pl)
        for snr in (1.0, 10.0 ** 2.5, 1e5):
            (rows,) = mode_rates(pl, modes, [snr])
            per_user = user_rates(pl, modes, snr)
            # Modes share partitions; each distinct one is rated once.
            one_partition = functools.cache(partition_rate)
            for m, mode in enumerate(modes.tolist()):
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
        reduced = nearest_rows(pl)
        snrs = [1.0, 1e3, 1e5]
        union_rates = mode_rates(pl, np.concatenate([modes, reduced]), snrs)[:, len(modes):]
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
    pls = _drops(n, 3)
    modes = [_modes(n, pl) for pl in pls]
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


def test_users_no_row_serves_are_never_read():
    """A table whose users that no row serves read NaN rates the rows, a
    set that every drop rates and a set per drop, to the finite floats of
    the clean table."""
    pls = _drops(4, 3)
    table = subset_rates(np.stack([pl.gains for pl in pls]), [1.0, 1e3, 1e5])
    rows = np.array([[1, 3, 0, 3], [3, 3, 3, 0], [0, 0, 1, 0]])
    idle = table.copy()
    idle[:, :, [1, 3]] = np.nan
    for set_rows in (rows, np.stack([rows, rows[::-1], rows[[1, 0, 2]]])):
        rates = row_sum_rates(idle, set_rows)
        assert np.isfinite(rates).all()
        assert rates.tolist() == row_sum_rates(table, set_rows).tolist()


# Ring of four ports at radius 4; a user at the centre has four exactly
# tied gains. In the second drop one user sits near the centre and the
# others beyond it, at radius 6 between two ports, so every port has the
# same nearest user.
RING = Scenario(n_ports=4, n_users=4, cell_radius=6.5, pathloss_exponent=3.0,
                port_ring_radius=4.0)
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
    positions = list(uniform_positions(template, [(93, d) for d in range(61)]))
    positions[20:20] = map(np.array, special)
    pls = [pathloss_matrix(template, users) for users in positions]
    tied, degenerate = pls[20], pls[21]
    assert len(set(tied.gains[0].tolist())) == 1
    assert len(set(np.argmin(degenerate.distances, axis=0).tolist())) == 1

    ideal = ideal_modes(n, n)
    nearest = nearest_user_modes(np.stack([pl.distances for pl in pls]))
    assert nearest[21].tolist() == nearest_rows(degenerate).tolist()
    assert len(np.unique(nearest[21], axis=0)) == min_distance_count(n) - 1
    snrs = [10.0 ** (db / 10.0) for db in (0, 20, 40, 60)]
    table = subset_rates(np.stack([pl.gains for pl in pls]), snrs)
    ideal_rates = row_sum_rates(table, ideal)

    def selected(rates):
        return [a.tolist() for a in select_rows(rates)]

    for d, (pl, reduced) in enumerate(zip(pls, nearest)):
        alone_rates = mode_rates(pl, ideal, snrs)
        own_rates = mode_rates(pl, reduced, snrs)
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
            for m, mode in enumerate(np.asarray(modes).tolist()):
                for user in set(mode) - {0}:
                    row = [mpmath.mpf(g) for g in pl.gains[user - 1].tolist()]
                    ports, others = _ports(mode, user)
                    signal = [row[j] for j in ports]
                    interference = [row[j] for j in others]
                    want = _mp_user_rate(signal, interference, mpmath.mpf(snr))
                    assert abs(per_user[m, user - 1] - float(want)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rates_match_fifty_digit_closed_form(n):
    checked = 0
    for pl in _drops(n, 12, seed=92):
        if not _well_separated(pl):
            continue
        _assert_fifty_digit_rates(pl, nearest_rows(pl), (1.0, 1e3, 1e5))
        checked += 1
        if checked == 3:
            break
    assert checked == 3


def test_near_tied_rate_matches_fifty_digit_closed_form():
    """Drop 9 of fig5 at seed 1: user 4's interfering gains differ by 3e-5
    and its serving gains by 1.2e-4, relative, and under [3 3 4 4] at
    50 dB its rate is within 1e-9 bits of the 50-digit closed form."""
    template = load_scenario("fig5.cfg")
    pl = pathloss_matrix(template, uniform_positions(template, [stream_key(1, 9)])[0])
    assert pl.gains[3].tolist() == pytest.approx([4.67054e-3, 4.67067e-3,
                                                  4.29945e-2, 4.29892e-2], rel=1e-5)
    _assert_fifty_digit_rates(pl, [[3, 3, 4, 4]], (db_to_linear(50.0),))


def test_mixture_terms_are_the_fewest_that_hold_the_tail():
    """At each size's widest span, M is the geometric counts' sum of
    (size - 1) counts of failure odds ``_WIDEST``, the widest any subset
    can have: past ``_LAST``, E[(|B| + M) 1{M > last}] / |B|, which bounds
    the left-out terms' share of R(B) since T_k / k falls with k, is
    under 2**-57, and one term fewer is not."""
    with mpmath.workdps(40):
        for size in range(2, 17):
            fail = mpmath.mpf(float(rate._WIDEST[size]))
            r = size - 1
            pmf = [(1 - fail) ** r]
            for m in range(1, rate._LAST[size] + 1):
                pmf.append(pmf[-1] * (m + r - 1) / m * fail)
            mean = size + r * fail / (1 - fail)
            tails = [(mean - mpmath.fsum((size + m) * p for m, p in enumerate(pmf[:last + 1])))
                     / size for last in (rate._LAST[size] - 1, rate._LAST[size])]
            assert tails[1] < mpmath.mpf(2) ** -57 <= tails[0], size


def test_tight_subsets_rate_the_same_alone_as_in_a_block():
    """Tied and near-tied subsets, which take the Erlang mixture, get the
    same bits in a block of drops as in a table of their drop alone, at
    either kernel and in either point order."""
    template, (tied, near) = SPECIAL_DROPS["ring4"]
    positions = list(uniform_positions(template, [(96, d) for d in range(9)]))
    positions[3:3] = map(np.array, (tied, near))
    gains = np.stack([pathloss_matrix(template, users).gains for users in positions])
    ordered = np.sort(gains, axis=2)
    spans = 1.0 - ordered[..., :1] / ordered[..., 1:]
    # Ties, and near ties beyond the pair, are in the block.
    assert (spans[3] == 0.0).any() and (spans[4, :, -1] <= rate._WIDEST[4]).any()
    snrs = [10.0 ** (db / 10.0) for db in (-20, 0, 30, 60, 90)]
    for kernel in (None, log1p_inv):
        table = subset_rates(gains, snrs, kernel)
        for d in range(len(gains)):
            alone = subset_rates(gains[d:d + 1], snrs[::-1], kernel)[0, ::-1]
            assert table[d].tobytes() == alone.tobytes(), (kernel, d)
