"""Transmission-mode and candidate-generation tests."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dasrate.errors import CapacityError
from dasrate.geometry import PathlossMatrix, Scenario, drop_users_uniform, pathloss_matrix
from dasrate.modes import (CandidateSet, DegenerateGeometryWarning, Origin,
                           TransmissionMode, enumerate_ideal,
                           enumerate_min_distance, ideal_count, ideal_modes,
                           min_distance_count)


def pathloss_from_distances(distances):
    d = np.asarray(distances, dtype=float)
    return PathlossMatrix(distances=d, gains=d ** -3.0)


def test_mode_derived_sets():
    mode = TransmissionMode((2, 1, 0, 2))
    assert mode.support_sets == {2: frozenset({0, 3}), 1: frozenset({1})}
    assert mode.active_ports == frozenset({0, 1, 3})
    assert mode.complements == {2: frozenset({1}), 1: frozenset({0, 3})}
    assert mode.n_active_users == 2
    assert mode.n_active_ports == 3


def test_mode_invariant_ka_le_na():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        mode = TransmissionMode(tuple(int(u) for u in rng.integers(0, 5, n)))
        assert mode.n_active_users <= mode.n_active_ports <= n


def test_mode_label_round_trip():
    mode = TransmissionMode((1, 0, 3))
    assert mode.label == "[1 0 3]"
    assert TransmissionMode.from_label("[1 0 3]") == mode
    assert TransmissionMode.from_label("2 2") == TransmissionMode((2, 2))
    with pytest.raises(ValueError):
        TransmissionMode.from_label("[]")


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
    modes = enumerate_ideal(2, 2).labels()
    assert modes == ("[1 1]", "[1 2]", "[2 1]", "[2 2]")


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
        assert [m.assignment for m in enumerate_ideal(n, k).modes] == brute


def test_enumerate_ideal_budget():
    with pytest.raises(CapacityError):
        enumerate_ideal(10, 9, budget=10 ** 6)
    # 10^9 raw vectors: refused before any of them is built.
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            enumerate_ideal(9, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_min_distance_table_construction():
    """Three ports with distinct nearest users (1, 2, 3), global min at (1, 1)."""
    distances = [[1.0, 5.0, 6.0],
                 [4.0, 2.0, 7.0],
                 [5.0, 6.0, 3.0]]
    cands = enumerate_min_distance(pathloss_from_distances(distances))
    assert cands.origin is Origin.MIN_DISTANCE
    expected = {(1, 2, 3), (1, 2, 0), (1, 0, 3), (0, 2, 3), (1, 1, 1)}
    assert {m.assignment for m in cands.modes} == expected
    assert len(cands) == min_distance_count(3) == 5


def test_min_distance_keeps_shared_nearest_user_masks():
    # ports 1 and 2 share nearest user 1: masks may leave K_A=1 with N_A=2
    distances = [[1.0, 2.0, 6.0],
                 [4.0, 5.0, 7.0],
                 [5.0, 6.0, 3.0]]
    cands = enumerate_min_distance(pathloss_from_distances(distances))
    assert TransmissionMode((1, 1, 0)) in cands.modes
    assert len(cands) == min_distance_count(3)


def test_min_distance_degenerate_dedup_warns():
    distances = [[1.0, 2.0], [3.0, 4.0]]  # user 1 nearest to both ports
    with pytest.warns(DegenerateGeometryWarning):
        cands = enumerate_min_distance(pathloss_from_distances(distances))
    assert cands.labels() == ("[1 1]",)


def test_min_distance_random_geometries():
    """Size, ordering, nearest-user agreement, and the subset property."""
    checked_subset = 0
    for n in range(2, 7):
        template = Scenario(n_ports=n, n_users=n,
                            cell_radius=math.sqrt(112.0 / 3.0),
                            pathloss_exponent=3.0, tx_power=1.0)
        for trial in range(6):
            scn = drop_users_uniform(template, seed=(12, n, trial))
            pl = pathloss_matrix(scn)
            # Per-port nearest user, 1-based; ties go to the lowest index.
            base = [int(np.argmin(pl.distances[:, j])) + 1 for j in range(n)]
            if len(set(base)) < n:
                continue  # degeneracy handled by the dedicated tests above
            cands = enumerate_min_distance(pl)
            assert len(cands) == min_distance_count(n)
            labels = [m.assignment for m in cands.modes]
            assert labels == sorted(labels)
            # every multi-user member follows the nearest-user map
            for mode in cands.modes:
                if mode.n_active_users == 1:
                    continue
                for port, user in enumerate(mode.assignment):
                    assert user in (0, base[port])
            if n <= 4:
                ideal = {m.assignment for m in enumerate_ideal(n, n).modes}
                assert {m.assignment for m in cands.modes} <= ideal
                checked_subset += 1
    assert checked_subset >= 5


def test_min_distance_scale_invariance():
    rng = np.random.default_rng(13)
    d = rng.uniform(1.0, 9.0, size=(4, 4))
    a = enumerate_min_distance(pathloss_from_distances(d))
    b = enumerate_min_distance(pathloss_from_distances(3.7 * d))
    assert a.labels() == b.labels()


def test_candidate_set_rejects_duplicates():
    with pytest.raises(ValueError):
        CandidateSet(modes=(TransmissionMode((1, 2)), TransmissionMode((1, 2))),
                     origin=Origin.EXPLICIT)


def test_candidate_set_rejects_inadmissible_ideal_members():
    with pytest.raises(ValueError):
        CandidateSet(modes=(TransmissionMode((1, 0)),), origin=Origin.IDEAL)
