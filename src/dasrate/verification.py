"""Self-check suites behind ``dasrate verify``, and the tier-1 tests.

Each check compares an implementation path against an independent route
(classical bounds, adaptive quadrature, brute-force enumeration, or
Monte Carlo) and reports the measured error against its tolerance. Each
is a function of its scale and seed: ``run_checks`` calls it with its
defaults, and the tier-1 tests call the same function at their own
scale, seed and bound and assert ``passed`` (the README's "Install and
test" table lists both scales of every check).

This is the only module of the package that imports scipy, and the CLI
imports it only to run ``dasrate verify``: every other command needs
numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import integrate, special

from . import numerics, rate, simulate
from .errors import NumericalFailureError
from .geometry import (PathlossMatrix, Scenario, linear_to_db, load_scenario, pathloss_matrix,
                       uniform_positions)
from .modes import ideal_count, ideal_modes, min_distance_count, nearest_user_modes


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    # The figures behind ``measured``, by name, for callers that report them.
    figures: dict[str, float] = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (f"[{status}] {self.name}: measured {self.measured:.3e}, "
                f"tolerated {self.tolerance:.3e}")
        return text + (f" ({self.detail})" if self.detail else "")


class Link(NamedTuple):
    """One user's link at unit noise power: the gains of its serving ports,
    those of the mode's other active ports, and the linear SNR P / sigma^2."""

    signal: tuple[float, ...]
    interference: tuple[float, ...]
    snr: float


def partition_rate(link: Link) -> float:
    """Closed-form rate of a link, in bits/s/Hz, as R(S + I) - R(I): the
    interference-free rates over all its gains and over the interferers'."""
    gains = link.signal + link.interference
    table = rate.subset_rates(np.array([[gains]]), [link.snr])[0, 0, 0]
    # Ports hold the signal gains, then the interference gains.
    every = (1 << len(gains)) - 1
    interfering = every - ((1 << len(link.signal)) - 1)
    return float(table[every] - table[interfering])


def mgf_rate(link: Link) -> float:
    """Independent rate oracle, in bits/s/Hz, from the moment generating
    functions M_Z(s) = prod_j 1 / (1 + s g_j snr) of the signal S and the
    interference I: the rate is (1/ln 2) int_0^inf e^-s [M_I(s) -
    M_{S+I}(s)] / s ds (K. A. Hamdi, "A useful lemma for capacity analysis
    of fading interference channels", IEEE Trans. Commun. 58, 2010). It
    needs no partial fractions, so it holds at any gain ties. Adaptive
    quadrature runs over t = ln s, with M_I - M_{S+I} = M_I (1 - M_S)
    formed through expm1 so that small s keeps its digits.

    Raises:
        NumericalFailureError: if the error estimate exceeds 1e-8 bits.
    """
    def neg_log_mgf(s: float, gains: tuple[float, ...]) -> float:
        return sum(math.log1p(s * g * link.snr) for g in gains)

    def integrand(t: float) -> float:
        s = math.exp(t)
        return (-math.expm1(-neg_log_mgf(s, link.signal))
                * math.exp(-s - neg_log_mgf(s, link.interference)))

    # Below t = lo the integrand is under s * sum(S) * snr, so the left
    # tail is under 1e-15 nats; past t = 6 it is under exp(-e**6).
    lo = min(-60.0, math.log(1e-15 / (sum(link.signal) * link.snr)))
    value, err = integrate.quad(integrand, lo, 6.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    if not err / numerics.LN2 <= 1e-8:
        raise NumericalFailureError(
            f"quadrature error estimate {err / numerics.LN2:.3e} bits exceeds budget 1e-8")
    return value / numerics.LN2


def random_partition(rng: np.random.Generator, max_signal: int = 3,
                     max_interference: int = 3,
                     allow_empty_interference: bool = False) -> Link:
    n_sig = int(rng.integers(1, max_signal + 1))
    lo = 0 if allow_empty_interference else 1
    n_intf = int(rng.integers(lo, max_interference + 1))
    gains = 10.0 ** rng.uniform(-3.0, -0.5, size=n_sig + n_intf)
    return Link(signal=tuple(gains[:n_sig].tolist()),
                interference=tuple(gains[n_sig:].tolist()),
                snr=float(10.0 ** rng.uniform(0.0, 4.0)))


def _template(n: int, k: int) -> Scenario:
    return Scenario(n_ports=n, n_users=k, cell_radius=math.sqrt(112.0 / 3.0),
                    pathloss_exponent=3.0)


def _drop(n: int, seed) -> PathlossMatrix:
    """Pathloss of one uniform drop of n users around n ports, from ``seed``."""
    template = _template(n, n)
    return pathloss_matrix(template, uniform_positions(template, [seed])[0])


# --- individual checks -------------------------------------------------------

def check_exp_e1_bounds(n_points: int = 240) -> CheckResult:
    """Classical bracket 0.5*ln(1+2/x) <= exp(x)E1(x) <= ln(1+1/x), strictly,
    plus the Jensen lower bound ln(1 + e**-gamma/x) behind the crossover
    check, and strict decrease, at ``n_points`` log-spaced x in [1e-6, 1e3]."""
    xs = np.logspace(-6, 3, n_points)
    worst = math.inf
    monotone = True
    prev = math.inf
    for x, v in zip(xs, numerics.exp_e1(xs).tolist()):
        lo = 0.5 * math.log1p(2.0 / x)
        jensen = math.log1p(math.exp(-numerics.EULER_GAMMA) / x)
        hi = math.log1p(1.0 / x)
        worst = min(worst, v - lo, v - jensen, hi - v)
        if v >= prev:
            monotone = False
        prev = v
    return CheckResult("exp_e1 two-sided bound and monotonicity",
                       worst > 0.0 and monotone, measured=worst, tolerance=0.0,
                       detail="margin must stay strictly positive")


def check_exp_e1_branch_consistency() -> CheckResult:
    """Series and continued-fraction branches agree at the switchover."""
    x = np.array([numerics.SERIES_CF_SPLIT])
    (a,) = numerics._exp_e1_series(x).tolist()
    (b,) = numerics._exp_e1_continued_fraction(x).tolist()
    err = abs(a - b) / abs(a)
    return CheckResult("exp_e1 branch consistency at switchover", err <= 1e-12,
                       measured=err, tolerance=1e-12)


def check_exp_e1_reference(n_points: int = 120) -> CheckResult:
    """Agreement with scipy's unscaled E1 where that stays representable,
    at ``n_points`` log-spaced x in [1e-4, 10**2.5]."""
    xs = np.logspace(-4, 2.5, n_points)
    worst = 0.0
    for x, v in zip(xs, numerics.exp_e1(xs).tolist()):
        ref = math.exp(x) * float(special.exp1(x))
        worst = max(worst, abs(v - ref) / ref)
    return CheckResult("exp_e1 vs scipy reference", worst <= 1e-12,
                       measured=worst, tolerance=1e-12)


def check_exp_e1_asymptote(exponent: int = 6, tolerance: float = 1e-5) -> CheckResult:
    """x * exp(x)E1(x) -> 1 for large arguments, at x = 10**exponent."""
    x = 10.0 ** exponent
    err = abs(x * numerics.exp_e1(x) - 1.0)
    return CheckResult(f"exp_e1 leading asymptote at x=1e{exponent}", err <= tolerance,
                       measured=err, tolerance=tolerance)


# Links on both routes of ``rate.subset_rates``: 4 tied gains, 5 with 1e-9 gaps, 8 within 7%.
TIED_LINKS = (Link((1.0,) * 4, (), 1000.0), Link((0.5, 1.0, 1 + 1e-9), (1 + 2e-9, 3.0), 100.0),
              Link((1.0, 1.01, 1.02, 1.03), (1.04, 1.05, 1.06, 1.07), 10.0))


def check_rate_vs_quadrature(n_partitions: int = 10, seed: int = 202) -> CheckResult:
    """Closed form vs ``mgf_rate`` on ``n_partitions`` random links of
    ``seed``, some of them with no interferers, and on ``TIED_LINKS``."""
    rng = np.random.default_rng(seed)
    links = [random_partition(rng, allow_empty_interference=True) for _ in range(n_partitions)]
    worst = max(abs(partition_rate(link) - mgf_rate(link)) for link in [*links, *TIED_LINKS])
    return CheckResult("closed-form rate vs MGF quadrature oracle",
                       worst <= 1e-8, measured=worst, tolerance=1e-8)


def _brute_force_ideal_size(n: int, k: int) -> int:
    count = 0
    for assignment in itertools.product(range(k + 1), repeat=n):
        users = {u for u in assignment if u != 0}
        ports_on = sum(1 for u in assignment if u != 0)
        if not users:
            continue
        if len(users) == 1 and ports_on < n:
            continue
        count += 1
    return count


def check_candidate_counts(n_drops: int = 3, seed: int = 303,
                           ports=range(2, 7)) -> CheckResult:
    """Count formulas vs. actual enumerations vs. brute-force filtering,
    and the distinct rows of the nearest-user sets of ``n_drops`` drops
    (seed; N, drop) at each N = K of ``ports``, at least one of them with
    no repeat."""
    worst = 0
    for n, k in itertools.product(range(1, 5), range(1, 5)):
        expected = ideal_count(n, k)
        worst = max(worst, abs(len(ideal_modes(n, k)) - expected),
                    abs(_brute_force_ideal_size(n, k) - expected))
    for n in ports:
        template = _template(n, n)
        keys = [(seed, n, drop) for drop in range(n_drops)]
        distances = pathloss_matrix(template, uniform_positions(template, keys)).distances
        rows = nearest_user_modes(distances)
        # Rows are sorted within a drop, so a repeat sits next to its first copy.
        distinct = 1 + (rows[:, 1:] != rows[:, :-1]).any(axis=2).sum(axis=1)
        # A set repeats a row only when every port shares one nearest user.
        nearest = distances.argmin(axis=1)
        shared = (nearest == nearest[:, :1]).all(axis=1)
        worst = max(worst, int(np.abs(distinct + shared - min_distance_count(n)).max()),
                    int(shared.all()))
    fixed = (ideal_count(2, 2), ideal_count(4, 4), ideal_count(5, 5),
             min_distance_count(2), min_distance_count(4), min_distance_count(5))
    if fixed != (4, 568, 7625, 2, 12, 27):
        worst = max(worst, 1)
    return CheckResult("candidate counts vs enumeration and brute force",
                       worst == 0, measured=float(worst), tolerance=0.0)


def check_selection_properties(n_drops: int = 5, seed: int = 404,
                               template: Scenario | None = None) -> CheckResult:
    """Reduced-set rate never exceeds exhaustive; scaling the gains by c
    and the SNR by 1/c changes no choice and no rate beyond 1e-12. On
    ``n_drops`` drops (seed, drop) of ``template`` (N = K = 3 by default)
    at 0, 20 and 40 dB; each scaling rates the block of drops from one
    table."""
    template = template or _template(3, 3)
    n, k = template.n_ports, template.n_users
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in (0.0, 20.0, 40.0)]
    pl = pathloss_matrix(template, uniform_positions(template,
                                                     [(seed, drop) for drop in range(n_drops)]))
    nearest = nearest_user_modes(pl.distances)
    ideal = np.tile(ideal_modes(n, k), (n_drops, 1, 1))
    # Per (scaling, set): each drop's chosen rows and their rates.
    chosen = np.empty((2, 2, n_drops, len(snrs), n), dtype=ideal.dtype)
    values = np.empty((2, 2, n_drops, len(snrs)))
    for s, scale in enumerate((1.0, 7.3)):
        table = rate.subset_rates(pl.gains * scale, [snr / scale for snr in snrs])
        for c, rows in enumerate((ideal, nearest)):
            best, values[s, c] = rate.select_rows(rate.row_sum_rates(table, rows))
            chosen[s, c] = np.take_along_axis(rows, best[..., None], axis=1)
    worst = max(0.0, float((values[0, 1] - values[0, 0]).max()))
    gap = np.abs(values[0] - values[1])
    ok = bool((chosen[0] == chosen[1]).all()
              and (gap <= 1e-12 * np.maximum(np.abs(values[0]), np.abs(values[1]))).all())
    return CheckResult("selection dominance and argmax invariance",
                       ok and worst <= 1e-12, measured=worst, tolerance=1e-12,
                       detail="reduced-minus-exhaustive chosen rate")


def check_mc_determinism(n_trials: int = 5000, seed: int = 7,
                         drop_seed: int = 505) -> CheckResult:
    """Mode [1 2] on the N = K = 2 drop ``drop_seed`` at 20 dB: the key
    ``seed`` gives the same estimate twice, and ``seed + 1`` another mean."""
    gains = _drop(2, drop_seed).gains
    a, b, other = (simulate.mc_sum_rates(gains, ideal_modes(2, 2)[1:2], [100.0], n_trials,
                                         np.random.SeedSequence(key))
                   for key in (seed, seed, seed + 1))
    ok = all(map(np.array_equal, a, b)) and other[0][0, 0] != a[0][0, 0]
    return CheckResult("Monte Carlo determinism at fixed seed", ok,
                       measured=0.0 if ok else 1.0, tolerance=0.0)


def check_mc_vs_analytic(n_cases: int = 6, n_trials: int = 20000,
                         seed: int = 606) -> CheckResult:
    """Each case draws N, the SNR and a mode from ``seed``, its drop from
    (seed + 1, case) and its fading from (seed + 2, case)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(n_cases):
        n = int(rng.integers(2, 4))
        pl = _drop(n, (seed + 1, case))
        snr = 10.0 ** rng.uniform(0.0, 3.0)
        candidates = ideal_modes(n, n)
        row = candidates[int(rng.integers(0, len(candidates)))]
        ((mean,),), ((std_error,),) = simulate.mc_sum_rates(
            pl.gains, row[None], [snr], n_trials, np.random.SeedSequence((seed + 2, case)))
        table = rate.subset_rates(pl.gains[None], [snr])
        closed = float(rate.row_sum_rates(table, row[None])[0, 0, 0])
        worst = max(worst, abs(closed - mean) / std_error)
    return CheckResult("analytic rate within 3 sigma of Monte Carlo",
                       worst <= 3.0, measured=worst, tolerance=3.0,
                       detail=f"{n_cases} cases at {n_trials} trials")


def check_worker_invariance(n_drops: int = 6, n_channels: int = 3000, seed: int = 9,
                            schemes=("ideal", "min-distance", (1, 1)),
                            grid_db=(0.0, 20.0, 40.0)) -> CheckResult:
    """An N = K = 2 cell average of ``schemes``, Monte Carlo rated (or
    analytic at ``n_channels=0``), is bit-identical on one worker and on
    two."""
    one, two = (simulate.cell_average(_template(2, 2), list(schemes), grid_db, n_drops,
                                      n_channels, seed, n_jobs=n_jobs) for n_jobs in (1, 2))
    identical = all(map(np.array_equal, one, two))
    kind = "Monte Carlo" if n_channels else "analytic"
    return CheckResult(f"bit-identical {kind} across worker counts",
                       identical, measured=0.0 if identical else 1.0,
                       tolerance=0.0)


def _canonical_gains(gains: np.ndarray) -> np.ndarray:
    """Relabel users and ports so the globally strongest link is (1, 1).

    The closed-form crossover rule is stated for the labeling where user 1
    is the minimum-distance user served by port 1; arbitrary drops must be
    relabeled before the rule applies.
    """
    i, j = np.unravel_index(np.argmax(gains), gains.shape)
    return gains[::-1 if i else 1, ::-1 if j else 1]


# Where the two-user mode has saturated, the exact single-user curve sits
# gamma/ln2 bits below its ln(1 + 1/x) approximation, which moves the exact
# crossover up by 10*log10(e**gamma) dB.
EXACT_CROSSOVER_SHIFT_DB = 10.0 * math.log10(math.exp(numerics.EULER_GAMMA))


def _sample_crossover_geometries(n_geometries: int, seed: int = 79,
                                 min_link_snr: float = 10.0):
    """Random 2x2 geometries whose single- vs two-user crossover is genuinely
    high-SNR: the curves cross (S22 > S12 after canonical relabeling), the
    formula lands above 20 dB, and every link exceeds ``min_link_snr``
    linear SNR at the predicted crossing.

    Yields (gains, formula_db, approx_db, exact_db) tuples.
    """
    found = 0
    for attempt in range(4000):
        if found >= n_geometries:
            return
        gains = _canonical_gains(_drop(2, (seed, attempt)).gains)
        if gains[1, 1] <= gains[0, 1]:
            continue
        vs_12, _ = rate.crossover_snr(gains)
        formula_db = linear_to_db(vs_12)
        if formula_db <= 20.0:
            continue
        if float(gains.min()) * vs_12 < min_link_snr:
            continue

        approx_db, exact_db = rate.crossover_curves_db(gains)
        if approx_db is None or exact_db is None:
            continue
        found += 1
        yield gains, formula_db, approx_db, exact_db


def check_crossover_consistency(n_geometries: int = 20) -> CheckResult:
    """Crossover formula vs bisected approximated- and exact-curve crossings.

    Passes when, on fig2, the formula gives 37.224 dB (to 1e-3), both
    curve pairs cross, and formula and exact-curve crossing agree within
    1 dB and, on ``n_geometries`` random high-SNR geometries, formula and
    approximated-curve crossing agree within 1 dB while the exact crossing
    sits above the approximated one by at most ``EXACT_CROSSOVER_SHIFT_DB``
    (plus two bisection tolerances). The exact kernel keeps the
    Euler-Mascheroni offset that ln(1 + 1/x) drops from single-user curves,
    so the exact crossing shifts up by 1.25-2.499 dB on random geometries;
    Jensen's bracket ln(1 + e**-gamma/x) <= exp(x)E1(x) <= ln(1 + 1/x)
    bounds that shift. ``figures`` holds the fig2 formula, the measured
    gaps and the shift range.
    """
    fig2 = pathloss_matrix(load_scenario("fig2.cfg")).gains
    fig2_formula_db = linear_to_db(rate.crossover_snr(fig2)[0])
    fig2_approx_db, fig2_exact_db = rate.crossover_curves_db(fig2)
    fig2_fe = (math.inf if fig2_exact_db is None or fig2_approx_db is None else
               abs(fig2_formula_db - fig2_exact_db))
    worst_fa = 0.0
    shifts = []
    for _, formula_db, approx_db, exact_db in _sample_crossover_geometries(n_geometries):
        worst_fa = max(worst_fa, abs(formula_db - approx_db))
        shifts.append(exact_db - approx_db)
    name = "crossover formula, approximated and exact curves"
    bound = EXACT_CROSSOVER_SHIFT_DB + 2e-4
    if not shifts:
        return CheckResult(name, False, measured=math.nan, tolerance=bound,
                           detail="no geometries found")
    passed = (abs(fig2_formula_db - 37.224) <= 1e-3 and fig2_fe <= 1.0
              and len(shifts) >= n_geometries and worst_fa <= 1.0
              and all(0.0 < shift <= bound for shift in shifts))
    detail = (f"exact-minus-approx shift {min(shifts):.3f}-{max(shifts):.3f} "
              f"dB must stay > 0; formula-vs-approx {worst_fa:.2f} dB over "
              f"{len(shifts)} high-SNR geometries and fig2 formula-vs-exact "
              f"{fig2_fe:.2f} dB, each tolerated 1 dB")
    figures = dict(fig2_formula_db=fig2_formula_db, fig2_formula_vs_exact_db=fig2_fe,
                   geometries=len(shifts), formula_vs_approx_db=worst_fa,
                   min_shift_db=min(shifts), max_shift_db=max(shifts))
    return CheckResult(name, passed, measured=max(shifts), tolerance=bound,
                       detail=detail, figures=figures)


def run_checks(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    results = [
        check_exp_e1_bounds(),
        check_exp_e1_branch_consistency(),
        check_exp_e1_reference(),
        check_exp_e1_asymptote(),
        check_rate_vs_quadrature(),
        check_candidate_counts(),
        check_selection_properties(),
        check_mc_determinism(),
        check_mc_vs_analytic(),
    ]
    if level == "full":
        results += [
            check_mc_vs_analytic(n_cases=20, n_trials=100_000),
            check_worker_invariance(),
            check_crossover_consistency(),
        ]
    return results
