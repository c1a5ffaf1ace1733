"""Transmission-mode and candidate-generation tests."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dasrate.errors import CapacityError
from dasrate.geometry import Scenario, pathloss_matrix, uniform_positions
from dasrate.modes import (admissible, ideal_count, ideal_modes, min_distance_count, mode_label,
                           nearest_user_modes, parse_label)
from dasrate.simulate import _user_powers, mode_histogram


def nearest_set(distances):
    """The nearest-user set of one (K x N) distance matrix, as a list of
    assignment tuples."""
    (rows,) = nearest_user_modes(np.asarray(distances, dtype=float)[None])
    return list(map(tuple, rows.tolist()))


def test_mode_derived_sets():
    """A row's users come in the order of their first serving port, each
    with its serving ports as signal and the row's other active ports as
    interference."""
    # Port j of user k carries 2^(4k + j): each sum names its ports.
    hg = 2.0 ** np.arange(12.0).reshape(1, 3, 4)
    (s2, i2), (s1, i1) = _user_powers(hg, (2, 1, 0, 2))
    assert (s2[0], i2[0]) == (2.0 ** 4 + 2.0 ** 7, 2.0 ** 5)
    assert (s1[0], i1[0]) == (2.0 ** 1, 2.0 ** 0 + 2.0 ** 3)
    assert _user_powers(hg, np.array([0, 0, 0, 0])) == []


def test_mode_invariant_ka_le_na():
    """Every selected mode's group has 1 <= K_A <= N_A <= N."""
    template = Scenario(n_ports=4, n_users=4, cell_radius=math.sqrt(112.0 / 3.0),
                        pathloss_exponent=3.0)
    (groups,) = mode_histogram(template, [(0.0, 50.0)], n_drops=40, seed=1).values()
    for label in groups:
        k, n = (int(part[2:]) for part in label.split("_"))
        assert 1 <= k <= n <= 4, label


def test_mode_label_round_trip():
    assert mode_label((1, 0, 3)) == "[1 0 3]"
    assert parse_label("[1 0 3]") == (1, 0, 3)
    assert parse_label("2 2") == (2, 2)
    for bad in ("[]", "[1 x]"):
        with pytest.raises(ValueError, match="cannot parse mode label"):
            parse_label(bad)


def test_ideal_counts_match_fixed_values():
    assert ideal_count(2, 2) == 4
    assert ideal_count(4, 4) == 568
    assert ideal_count(5, 5) == 7625
    assert ideal_count(1, 1) == 1
    assert min_distance_count(2) == 2
    assert min_distance_count(4) == 12
    assert min_distance_count(5) == 27
    # reduction advertised for N=K=5
    assert min_distance_count(5) / ideal_count(5, 5) == pytest.approx(0.0035, abs=2e-4)


def test_enumerate_ideal_two_by_two():
    assert ideal_modes(2, 2).tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]


def test_enumerate_ideal_matches_count_and_brute_force():
    for n, k in itertools.product(range(1, 6), range(1, 6)):
        rows = ideal_modes(n, k)
        assert rows.shape == (ideal_count(n, k), n)
        # independent filter over the raw assignment space, in its order
        brute = []
        for vec in itertools.product(range(k + 1), repeat=n):
            active = {u for u in vec if u}
            if not active:
                continue
            if len(active) == 1 and sum(1 for u in vec if u) < n:
                continue
            brute.append(vec)
        assert list(map(tuple, rows.tolist())) == brute
        raw = np.array(list(itertools.product(range(k + 1), repeat=n)))
        assert raw[admissible(raw)].tolist() == rows.tolist()


def test_enumerate_ideal_budget():
    with pytest.raises(CapacityError):
        ideal_modes(10, 9)
    # 10^9 raw vectors: refused before any of them is built.
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            ideal_modes(9, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_min_distance_table_construction():
    """Three ports with distinct nearest users (1, 2, 3), global min at (1, 1)."""
    distances = [[1.0, 5.0, 6.0],
                 [4.0, 2.0, 7.0],
                 [5.0, 6.0, 3.0]]
    cands = nearest_set(distances)
    expected = {(1, 2, 3), (1, 2, 0), (1, 0, 3), (0, 2, 3), (1, 1, 1)}
    assert set(cands) == expected
    assert len(cands) == min_distance_count(3) == 5


def test_min_distance_keeps_shared_nearest_user_masks():
    # ports 1 and 2 share nearest user 1: masks may leave K_A=1 with N_A=2
    distances = [[1.0, 2.0, 6.0],
                 [4.0, 5.0, 7.0],
                 [5.0, 6.0, 3.0]]
    cands = nearest_set(distances)
    assert (1, 1, 0) in cands
    assert len(cands) == min_distance_count(3)


def test_min_distance_degenerate_dedup():
    """When every port shares one nearest user, the added single-user mode
    repeats the all-ports mask, in the next row, silently."""
    distances = [[1.0, 2.0], [3.0, 4.0]]  # user 1 nearest to both ports
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nearest_set(distances) == [(1, 1), (1, 1)]


def test_min_distance_random_geometries():
    """Size, ordering, nearest-user agreement, and the subset property, on
    every drop: only a drop whose ports all share one nearest user has a
    set with a repeated row."""
    checked_subset = 0
    for n in range(2, 7):
        template = Scenario(n_ports=n, n_users=n,
                            cell_radius=math.sqrt(112.0 / 3.0),
                            pathloss_exponent=3.0)
        seeds = [(12, n, trial) for trial in range(6)]
        pl = pathloss_matrix(template, uniform_positions(template, seeds))
        for distances, rows in zip(pl.distances, nearest_user_modes(pl.distances)):
            cands = list(map(tuple, rows.tolist()))
            # Per-port nearest user, 1-based; ties go to the lowest index.
            base = [int(np.argmin(distances[:, j])) + 1 for j in range(n)]
            assert len(cands) == min_distance_count(n)
            assert len(set(cands)) == min_distance_count(n) - (len(set(base)) == 1)
            assert cands == sorted(cands)
            # Every member follows the nearest-user map, but for the
            # all-ports mode of the globally closest user.
            closest = int(np.argmin(distances.min(axis=1))) + 1
            assert (closest,) * n in cands
            assert all(user in (0, base[port]) for mode in cands if mode != (closest,) * n
                       for port, user in enumerate(mode))
            # A shared nearest user gives masks that serve it alone on
            # some ports, which the exhaustive set leaves out.
            if n <= 4 and len(set(base)) == n:
                assert set(cands) <= set(map(tuple, ideal_modes(n, n).tolist()))
                checked_subset += 1
    assert checked_subset >= 5


def test_min_distance_scale_invariance():
    rng = np.random.default_rng(13)
    d = rng.uniform(1.0, 9.0, size=(4, 4))
    assert nearest_set(d) == nearest_set(3.7 * d)


def test_candidate_set_rejects_inadmissible_ideal_members():
    """The exhaustive-set rule refuses the all-off row and a one-user row
    with a port off, and keeps a one-user row on every port."""
    rows = np.array([[1, 0], [0, 0], [0, 2], [2, 2], [1, 2]])
    assert admissible(rows).tolist() == [False, False, False, True, True]
