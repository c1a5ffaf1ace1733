"""Scaled exponential-integral kernel and MGF quadrature oracle tests."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dasrate import numerics, verification
from dasrate.errors import NumericalFailureError
from dasrate.numerics import (LN2, SERIES_CF_SPLIT, _exp_e1_continued_fraction,
                              _exp_e1_series, exp_e1, exp_en)
from dasrate.verification import Link, mgf_rate

# Frozen reference values computed with 30-digit mpmath before the build:
# e**x * E1(x), E1(x) = integral_x^inf exp(-t)/t dt.
EXP_E1_REFERENCE = {
    1.0: 0.59634736232319407434,
    0.01: 4.0785114434564258466,
    1e-6: 13.238309131365003456,
    0.5: 0.92291063248373046883,
    2.0: 0.3613286168882225847,
    10.0: 0.091563333939788081876,
}


def test_reference_values():
    for x, expected in EXP_E1_REFERENCE.items():
        assert exp_e1(x) == pytest.approx(expected, rel=1e-12)


def test_quadrature_oracle_at_one():
    """Independent oracle: integral_1^inf exp(1-t)/t dt computed here."""
    from scipy import integrate
    oracle, err = integrate.quad(lambda t: math.exp(1.0 - t) / t, 1.0, np.inf,
                                 epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    assert exp_e1(1.0) == pytest.approx(oracle, rel=1e-12)


def test_leading_asymptote():
    for exponent, tolerance in ((6, 1e-5), (12, 1e-11)):
        result = verification.check_exp_e1_asymptote(exponent, tolerance)
        assert result.passed, result.line()


def test_small_argument_bracket():
    value = exp_e1(0.01)
    assert 0.5 * math.log(201.0) < value < math.log(101.0)


def test_extreme_arguments_finite():
    assert exp_e1(1e-300) == pytest.approx(
        -math.log(1e-300) - 0.57721566490153286061, rel=1e-12)
    assert exp_e1(1e300) == pytest.approx(1e-300, rel=1e-10)


def test_agrees_with_scipy_where_unscaled_form_is_representable():
    result = verification.check_exp_e1_reference(n_points=60)
    assert result.passed, result.line()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_domain_errors(bad):
    with pytest.raises(ValueError):
        exp_e1(bad)


# --- MGF quadrature oracle ------------------------------------------------------

def test_quadrature_unit_mean_exponential_vs_mc():
    """Monte Carlo oracle: mean of log2(1+X), X ~ Exp(1), 1e7 samples."""
    result = mgf_rate(Link((1.0,), (), 1.0))
    rng = np.random.default_rng(42)
    total = 0.0
    total_sq = 0.0
    n = 10_000_000
    for _ in range(10):
        batch = np.log2(1.0 + rng.exponential(size=n // 10))
        total += batch.sum()
        total_sq += np.square(batch).sum()
    mean = total / n
    stderr = math.sqrt((total_sq / n - mean * mean) / n)
    assert abs(result - mean) < 3.0 * stderr
    # and against the closed form it is supposed to reproduce
    assert result == pytest.approx(exp_e1(1.0) / LN2, abs=1e-12)


@pytest.mark.parametrize("mean", [0.1, 1.0, 10.0])
def test_quadrature_matches_scaled_exponential_closed_form(mean):
    result = mgf_rate(Link((mean,), (), 1.0))
    assert result == pytest.approx(exp_e1(1.0 / mean) / LN2, abs=1e-12)


def test_quadrature_error_budget_enforced(monkeypatch):
    """An error estimate over 1e-8 bits raises, as does a NaN one."""
    quad = verification.integrate.quad
    for err in (1e-8, math.nan):
        monkeypatch.setattr(verification.integrate, "quad",
                            lambda *args, **kwargs: (quad(*args, **kwargs)[0], err))
        with pytest.raises(NumericalFailureError):
            mgf_rate(Link((0.1,), (0.01,), 100.0))


def _mpmath_rate(link: Link) -> mpmath.mpf:
    """The lemma's integral at 30 digits, in bits."""
    with mpmath.workdps(30):
        snr = mpmath.mpf(link.snr)

        def mgf(s, gains):
            return mpmath.fprod(1 / (1 + s * mpmath.mpf(g) * snr) for g in gains)

        def integrand(s):
            return (mpmath.exp(-s) * (mgf(s, link.interference)
                                      - mgf(s, link.signal + link.interference)) / s)

        return mpmath.quad(integrand, [0, 1 / snr, 1, mpmath.inf]) / mpmath.log(2)


@pytest.mark.parametrize("link", [Link((1.0,) * 2, (), 1000.0), Link((1.0,) * 4, (), 1000.0),
                                  Link((1.0,) * 6, (), 1000.0),
                                  Link((0.3, 0.3), (0.02, 0.02, 0.02), 1000.0)],
                         ids=["2-tied", "4-tied", "6-tied", "both-lists-tied"])
def test_quadrature_holds_at_gain_ties(link):
    """Tied unit gains at 30 dB, where the closed form fails, and a link
    whose signal gains tie and whose interference gains tie: the oracle
    is within 1e-12 bits of the lemma evaluated by 30-digit mpmath."""
    assert abs(mgf_rate(link) - float(_mpmath_rate(link))) <= 1e-12


# --- array kernel ---------------------------------------------------------------

BITS_FILE = Path(__file__).parent / "data" / "exp_e1_bits.txt"


def _horner(x: float, coefficients) -> float:
    total = coefficients[-1]
    for c in coefficients[-2::-1]:
        total = total * x + c
    return total


def _loop_exp_e1(x: float) -> float:
    """The kernel's recurrences on Python floats, one value at a time: the
    reference the array kernel must match bit for bit."""
    if x <= SERIES_CF_SPLIT:
        m, e = math.frexp(x)
        if m < math.sqrt(0.5):
            m, e = m + m, e - 1
        s = (m - 1.0) / (m + 1.0)
        z = s * s
        ln = _horner(z, numerics._ATANH) * z * s + (s + s) + e * numerics._LN2_LO
        total = _horner(x, numerics._EIN) - ln - e * numerics._LN2_HI
        return total * _horner(x, numerics._EXP)
    depth = min(depth for edge, depth in numerics._CF_ROWS if edge <= x)
    t = math.inf
    for i in range(depth, 0, -1):
        t = -i * i / t + x + (2 * i - 1)
    return 1.0 / t


def _pinned() -> tuple[np.ndarray, list[str]]:
    """The arguments of ``BITS_FILE``, read with ``float.fromhex``, and
    their recorded values in ``float.hex``."""
    lines = [line.split() for line in BITS_FILE.read_text().splitlines()
             if not line.startswith("#")]
    return np.array([float.fromhex(x) for x, _ in lines]), [v for _, v in lines]


def _accuracy_arguments() -> np.ndarray:
    """4 001 log-spaced x in [1e-300, 1e300], 1 and its neighbours, each
    depth-table edge and its lower neighbour, and dense grids where the
    series cancels most and where the fraction is deepest."""
    edges = np.array([edge for edge, _ in numerics._CF_ROWS])
    return np.unique(np.concatenate([np.logspace(-300, 300, 4001),
                                     [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)],
                                     edges, np.nextafter(edges, 0.0),
                                     np.linspace(0.5, 1.0, 1001), np.linspace(1.0, 3.0, 1001)]))


def test_kernel_is_within_1e_15_of_mpmath():
    xs = _accuracy_arguments()
    assert len(xs) >= 4001
    with mpmath.workdps(30):
        for x, value in zip(xs.tolist(), exp_e1(xs).tolist()):
            want = mpmath.exp(x) * mpmath.e1(x)
            assert abs(value / want - 1) <= 1e-15, x


def test_fraction_depths_keep_a_level_in_hand():
    """At each row's lowest x, one level less than the row's depth already
    brings the fraction within 2**-57 of mpmath; depths fall as x grows."""
    edges = [edge for edge, _ in numerics._CF_ROWS]
    depths = [depth for _, depth in numerics._CF_ROWS]
    assert edges == sorted(edges) and depths == sorted(depths, reverse=True)
    with mpmath.workdps(40):
        for edge, depth in numerics._CF_ROWS:
            t = mpmath.inf
            for i in range(depth - 1, 0, -1):
                t = edge + 2 * i - 1 - mpmath.mpf(i * i) / t
            want = mpmath.exp(edge) * mpmath.e1(edge)
            assert abs(1 / (t * want) - 1) <= mpmath.mpf(2) ** -57, edge


def test_kernel_bits_match_the_pinned_file():
    """The same bits on every machine: each pinned argument's value, in
    ``float.hex``, as recorded, in ascending and descending order."""
    xs, values = _pinned()
    assert [v.hex() for v in exp_e1(xs).tolist()] == values
    assert [v.hex() for v in exp_e1(xs[::-1]).tolist()] == values[::-1]


def test_pinned_arguments_are_the_documented_set():
    """``BITS_FILE`` holds 2 031 ascending arguments: 2 001 log-spaced x
    in [1e-300, 1e300], each within 4 ulps of ``np.logspace``'s, whose
    last bits depend on numpy's SIMD dispatch; and both neighbours of 1
    and every depth-table edge, exactly (1 is also a log-spaced point)."""
    xs, _ = _pinned()
    assert len(xs) == 2031 and (np.diff(xs) > 0).all()
    exact = np.array([np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                      *(edge for edge, _ in numerics._CF_ROWS)])
    at_exact = np.searchsorted(xs, exact)
    assert xs[at_exact].tolist() == exact.tolist()
    grid = np.logspace(-300, 300, 2001)
    above = np.searchsorted(xs, grid).clip(1, len(xs) - 1)
    nearest = above - (grid - xs[above - 1] < xs[above] - grid)
    assert (np.abs(xs[nearest] - grid) <= 4 * np.spacing(grid)).all()
    assert len(set(nearest.tolist()) | set(at_exact.tolist())) == len(xs)


def test_array_kernel_is_bit_identical_to_the_loop_and_to_one_element_calls():
    """An element's value does not depend on the rest of the call: the
    array result equals the float-by-float loop and the one-element calls
    bit for bit, on both branches, at the switchover and at the ends of
    the double range."""
    xs = np.concatenate([np.logspace(-300, 300, 4001),
                         [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]])
    together = exp_e1(xs)
    assert together.tobytes() == np.array([_loop_exp_e1(x) for x in xs.tolist()]).tobytes()
    assert together.tobytes() == np.array([exp_e1(x) for x in xs.tolist()]).tobytes()
    shuffled = np.random.default_rng(3).permutation(len(xs))
    assert exp_e1(xs[shuffled]).tobytes() == together[shuffled].tobytes()


# Dense grids on both branches (on [1, 1e3] across 27 rows of the
# fraction's depth table), and many equal values on both.
ORDER_INPUTS = {
    "fraction-logspace": np.logspace(0, 3, 3001),
    "series-logspace": np.logspace(-8, 0, 3001),
    "repeats": np.repeat([1e-3, 0.4, 1.0, 1.3, 7.0, 1e5], 60),
}


@pytest.mark.parametrize("name", ORDER_INPUTS)
def test_array_kernel_matches_the_loop_in_any_order(name):
    """Ascending, descending, shuffled and reversed-shuffled inputs give the
    float-by-float loop's values bit for bit, through exp_e1 and through
    each branch."""
    xs = ORDER_INPUTS[name]
    expected = np.array([_loop_exp_e1(x) for x in xs.tolist()])
    shuffled = np.random.default_rng(4).permutation(len(xs))
    low = xs <= SERIES_CF_SPLIT
    for order in (np.arange(len(xs)), np.arange(len(xs))[::-1], shuffled, shuffled[::-1]):
        assert exp_e1(xs[order]).tobytes() == expected[order].tobytes()
        for branch, part in ((_exp_e1_series, low[order]),
                             (_exp_e1_continued_fraction, ~low[order])):
            assert branch(xs[order][part]).tobytes() == expected[order][part].tobytes()


def test_float_in_float_out_and_shape_kept():
    assert type(exp_e1(1.0)) is float
    assert type(exp_e1(np.float64(2.0))) is float
    grid = np.array([[0.5, 2.0], [1e-3, 1e3]])
    assert exp_e1(grid).shape == (2, 2)
    assert exp_e1(grid)[1, 1] == exp_e1(1e3)


def test_empty_array_gives_empty_array():
    out = exp_e1(np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
def test_one_bad_element_fails_the_whole_array(bad):
    xs = np.array([0.5, 2.0, bad, 7.0])
    with pytest.raises(ValueError, match="finite x > 0"):
        exp_e1(xs)


# --- exp(x) E_k(x) ------------------------------------------------------------------

def _reference_exp_en(x: float, count: int) -> list:
    """exp(x) E_k(x), k = 1 .. count, to about 35 digits: below x = 1
    recurring up from mpmath's E1, else from a continued fraction deep
    enough to settle at 40 digits, at an order where each recurrence
    damps round-off (down below it, up above it)."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if x < 1:
            v = [mpmath.exp(x) * mpmath.e1(x)]
        else:
            order = min(count, int(mpmath.ceil(x)))

            def fraction(depth):
                t = mpmath.inf
                for i in range(depth, 0, -1):
                    t = x + order + 2 * i - 2 - mpmath.mpf(i) * (order - 1 + i) / t
                return 1 / t

            depth = 50
            while abs(fraction(depth) / fraction(2 * depth) - 1) > mpmath.mpf(10) ** -38:
                depth *= 2
            v = [fraction(2 * depth)]
            for k in range(order - 1, 0, -1):
                v.insert(0, (1 - k * v[0]) / x)
        while len(v) < count:
            v.append((1 - x * v[-1]) / len(v))
        return v


# Arguments across the double range, dense where the continued fraction
# takes over at x = 4, with the orders a subset size needs.
EN_ARGUMENTS = np.concatenate([np.logspace(-30, 300, 67), np.linspace(3.5, 12.0, 18),
                               [4.0, np.nextafter(4.0, 5.0), 100.5, 389.7]])


def test_exp_en_is_within_2e_15_of_a_40_digit_reference():
    xs = EN_ARGUMENTS
    for count in (7, 60):
        values = exp_en(xs, exp_e1(xs), count)
        for x, column in zip(xs.tolist(), values.T.tolist()):
            want = _reference_exp_en(x, count)
            assert max(abs(v / w - 1) for v, w in zip(column, want)) <= 2e-15, (x, count)
    # The deepest orders, at x below, near and above the count.
    xs = np.array([0.5, 7.5, 50.5, 200.0, 316.2, 405.5, 1e4])
    for x, column in zip(xs.tolist(), exp_en(xs, exp_e1(xs), 406).T.tolist()):
        want = _reference_exp_en(x, 406)
        assert max(abs(v / w - 1) for v, w in zip(column, want)) <= 2e-15, x


def test_exp_en_fraction_keeps_a_level_in_hand():
    """At the order n = min(ceil(x), 406) of ``exp_en``'s fraction, one
    level less than its depth (x's row of ``_CF_ROWS`` plus
    ``_EN_EXTRA_LEVELS``) is
    already within 2**-57 of 40 digits, at each row's lowest x above 4,
    just above 4, and just above the integer below each row's lowest x,
    where n - x is largest."""
    edges = [edge for edge, _ in numerics._CF_ROWS if edge > 4.0]
    xs = sorted({*edges, 4.0 + 1e-9, *(math.ceil(e) - 1 + 1e-9 for e in edges)})
    with mpmath.workdps(40):
        for x in xs:
            depth = min(d for e, d in numerics._CF_ROWS if e <= x) + numerics._EN_EXTRA_LEVELS
            n = min(math.ceil(x), 406)
            t = mpmath.inf
            for i in range(depth - 1, 0, -1):
                t = mpmath.mpf(x) + n + 2 * i - 2 - mpmath.mpf(i) * (n - 1 + i) / t
            want = _reference_exp_en(x, n)[-1]
            assert abs(1 / (t * want) - 1) <= mpmath.mpf(2) ** -57, x


def test_exp_en_values_do_not_depend_on_the_rest_of_the_call():
    xs = EN_ARGUMENTS
    together = exp_en(xs, exp_e1(xs), 24)
    alone = np.stack([exp_en(xs[i:i + 1], exp_e1(xs[i:i + 1]), 24)[:, 0] for i in range(len(xs))])
    assert together.T.tobytes() == alone.tobytes()
    shuffled = np.random.default_rng(5).permutation(len(xs))
    again = exp_en(xs[shuffled], exp_e1(xs[shuffled]), 24)
    assert again.tobytes() == together[:, shuffled].tobytes()


if __name__ == "__main__":
    # Re-record BITS_FILE's values for its arguments from the current kernel.
    xs, _ = _pinned()
    BITS_FILE.write_text(
        "# x and exp(x) E1(x) in float.hex; PYTHONPATH=src python tests/test_numerics.py\n"
        "# rewrites this file from the current kernel.\n"
        + "".join(f"{x.hex()} {v.hex()}\n" for x, v in zip(xs.tolist(), exp_e1(xs).tolist())))
