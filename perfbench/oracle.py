"""Reference values for the benchmark's output checks.

An independent, vectorised re-derivation of what each workload must print,
written from the model's definitions rather than from dasrate's code, so a
change to the library cannot change the reference. Per drop it builds the
scaled-E1 values of every (user, port) link once, forms every (user,
serving ports, interfering ports) rate as a weighted sum of them, and picks
each candidate set's first maximiser. It does not import dasrate.

`check` compares one invocation's CSV against this oracle and, for the
seeds in `references/`, against the CLI's own output recorded at the
commit that defined the benchmark.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
from scipy import special

from workloads import (CELL_RADIUS, HIST_RANGES, NOISE_POWER, PATHLOSS_EXPONENT,
                       Workload)

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
ANALYTIC_TOL_BITS = 1e-9
MC_TOL_STDERR = 4.0
MIN_DISTANCE = 0.01
RING_RADIUS_FACTOR = math.sqrt(3.0 / 7.0)
_ASYMPTOTIC_FROM = 50.0
_ASYMPTOTIC_TERMS = 30


# --- geometry ------------------------------------------------------------------

def _ports(n_ports: int) -> np.ndarray:
    ring = RING_RADIUS_FACTOR * CELL_RADIUS
    angles = 2.0 * math.pi * np.arange(n_ports) / n_ports
    return np.array([(float(ring * math.cos(a)), float(ring * math.sin(a)))
                     for a in angles])


def _users(w: Workload, seed: int, drop: int) -> np.ndarray:
    """Uniform-in-area user positions of one drop, keyed by (seed, drop)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(drop,)))
    radii = CELL_RADIUS * np.sqrt(rng.random(w.n_users))
    angles = 2.0 * math.pi * rng.random(w.n_users)
    return np.array([(float(r * math.cos(a)), float(r * math.sin(a)))
                     for r, a in zip(radii, angles)])


def drop_geometry(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and pathloss gains, each shaped (drops, users, ports)."""
    ports = _ports(w.n_ports)
    users = np.stack([_users(w, seed, d) for d in range(w.drops)])
    diffs = users[:, :, None, :] - ports[None, None, :, :]
    distances = np.maximum(np.hypot(diffs[..., 0], diffs[..., 1]), MIN_DISTANCE)
    return distances, distances ** (-PATHLOSS_EXPONENT)


# --- rates ---------------------------------------------------------------------

def scaled_e1(x: np.ndarray) -> np.ndarray:
    """exp(x) * E1(x); the asymptotic series takes over before exp overflows."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _ASYMPTOTIC_FROM
    out[small] = np.exp(x[small]) * special.exp1(x[small])
    big = x[~small]
    term = np.ones_like(big)
    total = np.ones_like(big)
    for k in range(1, _ASYMPTOTIC_TERMS):
        term = -term * k / big
        total += term
    out[~small] = total / big
    return out


def _pf_weights(g: np.ndarray) -> list[np.ndarray]:
    """Partial-fraction weights prod_{l != k} g_k / (g_k - g_l), per column."""
    n = g.shape[-1]
    weights = []
    for k in range(n):
        w = np.ones(g.shape[:-1])
        for l in range(n):
            if l != k:
                w = w * (g[..., k] / (g[..., k] - g[..., l]))
        weights.append(w)
    return weights


def _user_rate(gains: np.ndarray, kernel: np.ndarray, serving: tuple[int, ...],
               interfering: tuple[int, ...]) -> np.ndarray:
    """Ergodic rate (bits) of one user, shaped (drops, points).

    gains: (drops, ports); kernel: (drops, ports, points).
    """
    sig = gains[:, serving]
    w_sig = _pf_weights(sig)
    if not interfering:
        total = sum(w_sig[k][:, None] * kernel[:, j, :]
                    for k, j in enumerate(serving))
        return total / math.log(2.0)
    intf = gains[:, interfering]
    w_intf = _pf_weights(intf)
    total = 0.0
    for k, jk in enumerate(serving):
        for u, ju in enumerate(interfering):
            coef = w_sig[k] * w_intf[u] * sig[:, k] / (sig[:, k] - intf[:, u])
            total = total + coef[:, None] * (kernel[:, jk, :] - kernel[:, ju, :])
    return total / math.log(2.0)


# --- candidate sets --------------------------------------------------------------

def ideal_modes(n_ports: int, n_users: int) -> list[tuple[int, ...]]:
    """Every assignment except all-off and single-user with a port off."""
    out = []
    for a in itertools.product(range(n_users + 1), repeat=n_ports):
        users = {u for u in a if u}
        if users and not (len(users) == 1 and 0 in a):
            out.append(a)
    return out


def min_distance_modes(distances: np.ndarray) -> list[tuple[int, ...]]:
    """Nearest-user masks with two or more ports on, plus the closest user
    served by every port; sorted. distances: (users, ports)."""
    n_users, n_ports = distances.shape
    base = [int(np.argmin(distances[:, j])) + 1 for j in range(n_ports)]
    modes = set()
    for mask in range(1, 2 ** n_ports):
        a = tuple(base[j] if (mask >> j) & 1 else 0 for j in range(n_ports))
        if sum(1 for u in a if u) > 1:
            modes.add(a)
    closest = int(np.argmin(distances)) // n_ports + 1
    modes.add((closest,) * n_ports)
    return sorted(modes)


def group_label(a: tuple[int, ...]) -> str:
    return f"KA{len({u for u in a if u})}_NA{sum(1 for u in a if u)}"


def select(w: Workload, seed: int, scheme: str):
    """First-maximiser selection per drop and point.

    Returns three (drops, points) arrays: the chosen mode's sum rate, its
    (K_A, N_A) group label, and its margin in bits over the best candidate
    of another group (a margin within the tolerance marks a near-tie).
    """
    distances, gains = drop_geometry(w, seed)
    snr = np.array([10.0 ** (db / 10.0) for db in w.grid_db()])
    x = NOISE_POWER / (gains[..., None] * (snr * NOISE_POWER))
    kernel = scaled_e1(x)                                  # (D, K, N, M)
    n_drops, n_points = w.drops, len(snr)

    if scheme == "ideal":
        per_drop = [ideal_modes(w.n_ports, w.n_users)] * n_drops
    else:
        per_drop = [min_distance_modes(distances[d]) for d in range(n_drops)]
    width = max(len(c) for c in per_drop)
    # Pad short sets with copies of their first mode: neither the maximum
    # nor the first maximiser changes.
    per_drop = [c + [c[0]] * (width - len(c)) for c in per_drop]

    table = [np.zeros((n_drops, n_points))]                # slot 0: idle user
    slots: dict[tuple, int] = {}
    index = np.zeros((n_drops, width, w.n_users), dtype=int)
    for d, cands in enumerate(per_drop):
        for c, a in enumerate(cands):
            active = tuple(j for j, u in enumerate(a) if u)
            for user in range(1, w.n_users + 1):
                serving = tuple(j for j in active if a[j] == user)
                if not serving:
                    continue
                key = (user, serving, tuple(j for j in active if a[j] != user))
                if key not in slots:
                    slots[key] = len(table)
                    table.append(_user_rate(gains[:, user - 1], kernel[:, user - 1],
                                            key[1], key[2]))
                index[d, c, user - 1] = slots[key]
    table = np.stack(table)                                # (S, D, M)
    drop_ix = np.arange(n_drops)[:, None]
    rates = table[index[:, :, 0], drop_ix]                 # (D, C, M)
    for u in range(1, w.n_users):
        rates = rates + table[index[:, :, u], drop_ix]
    best = np.argmax(rates, axis=1)                        # (D, M)
    chosen = np.take_along_axis(rates, best[:, None, :], axis=1)[:, 0, :]

    labels = np.array([[group_label(a) for a in c] for c in per_drop])
    chosen_labels = np.take_along_axis(labels, best, axis=1)
    other = np.where(labels[:, :, None] != chosen_labels[:, None, :],
                     rates, -np.inf)
    margin = chosen - other.max(axis=1)
    return chosen, chosen_labels, margin


# --- expected outputs --------------------------------------------------------------

def _range_columns(w: Workload, lo: float, hi: float) -> list[int]:
    """Grid points a `hist` range tallies."""
    return [i for i, db in enumerate(w.grid_db()) if lo - 1e-9 <= db <= hi + 1e-9]


def oracle_expected(w: Workload, seed: int) -> dict:
    """What the workload's analytic content must be, from the oracle.

    Sweeps: {"curves": {scheme: values per point}}. Hist: {"counts":
    {range: {label: count}}, "slack": {range: near-tied selections},
    "totals": {range: selections}}.
    """
    if w.command == "sweep":
        return {"curves": {s: select(w, seed, s)[0].mean(axis=0)
                           for s in w.schemes}}
    _, labels, margin = select(w, seed, "min-distance")
    counts, slack, totals = {}, {}, {}
    for lo, hi in HIST_RANGES:
        cols = _range_columns(w, lo, hi)
        picked = labels[:, cols].ravel()
        names, n = np.unique(picked, return_counts=True)
        counts[(lo, hi)] = dict(zip(names.tolist(), n.tolist()))
        slack[(lo, hi)] = int((margin[:, cols] <= ANALYTIC_TOL_BITS).sum())
        totals[(lo, hi)] = picked.size
    return {"counts": counts, "slack": slack, "totals": totals}


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _parse_sweep(text: str) -> dict[str, np.ndarray]:
    header, rows = _parse_csv(text)
    return {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header)}


def _parse_hist(text: str) -> dict[tuple[float, float], dict[str, float]]:
    header, rows = _parse_csv(text)
    if header != ["range_lo_db", "range_hi_db", "group_label", "fraction"]:
        raise ValueError(f"unexpected hist header {header}")
    out: dict = {}
    for lo, hi, label, frac in rows:
        out.setdefault((float(lo), float(hi)), {})[label] = float(frac)
    return out


def recorded_expected(w: Workload, seed: int) -> dict | None:
    """The CLI's analytic output recorded for this seed, if any."""
    path = REFERENCE_DIR / f"{w.name}-seed{seed}.csv"
    if not path.exists():
        return None
    text = path.read_text()
    if w.command == "sweep":
        cols = _parse_sweep(text)
        return {"curves": {s: cols[f"{s}_analytic"] for s in w.schemes}}
    totals = {r: w.drops * len(_range_columns(w, *r)) for r in HIST_RANGES}
    counts = {r: {label: round(f * totals[r]) for label, f in groups.items()}
              for r, groups in _parse_hist(text).items()}
    return {"counts": counts, "slack": {r: 0 for r in HIST_RANGES},
            "totals": totals}


def _compare(w: Workload, text: str, expected: dict) -> str | None:
    if w.command == "hist":
        got = _parse_hist(text)
        if set(got) != set(HIST_RANGES):
            return f"ranges {sorted(got)} != {list(HIST_RANGES)}"
        for r in HIST_RANGES:
            total = expected["totals"][r]
            have = {label: round(f * total) for label, f in got[r].items()}
            want = expected["counts"][r]
            diff = sum(abs(have.get(k, 0) - want.get(k, 0))
                       for k in set(have) | set(want))
            if diff > 2 * expected["slack"][r]:
                return f"range {r}: counts {have} != {want}"
        return None
    cols = _parse_sweep(text)
    grid = np.array(w.grid_db())
    if cols.get("snr_db") is None or not np.array_equal(cols["snr_db"], grid):
        return "SNR column does not match the grid"
    for scheme, want in expected["curves"].items():
        if w.rating == "mc":
            mean = cols.get(f"{scheme}_mc")
            err = cols.get(f"{scheme}_mc_stderr")
            if mean is None or err is None:
                return f"missing MC columns for {scheme}"
            if not (np.all(np.isfinite(err)) and np.all(err > 0)):
                return f"{scheme}: non-positive MC standard errors"
            worst = np.max(np.abs(mean - want) / err)
            if not worst <= MC_TOL_STDERR:
                return f"{scheme}: MC {worst:.2f} standard errors from analytic"
        else:
            got = cols.get(f"{scheme}_analytic")
            if got is None:
                return f"missing column {scheme}_analytic"
            worst = np.max(np.abs(got - want))
            if not worst <= ANALYTIC_TOL_BITS:
                return f"{scheme}: off by {worst:.3e} bits"
    return None


def check(w: Workload, seed: int, text: str,
          expected: dict | None = None) -> str | None:
    """None when `text` is a correct output for (w, seed), else the reason.

    `expected` is oracle_expected(w, seed), when the caller already has it.
    """
    if expected is None:
        expected = oracle_expected(w, seed)
    sources = [("oracle", expected)]
    recorded = recorded_expected(w, seed)
    if recorded is not None:
        sources.append(("recorded", recorded))
    for source, reference in sources:
        try:
            problem = _compare(w, text, reference)
        except (ValueError, KeyError, IndexError) as exc:
            problem = f"unparseable output: {exc!r}"
        if problem:
            return f"{source} reference: {problem}"
    return None
