"""End-to-end CLI behavior: schemas, determinism, exit codes."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child_left
from dasrate import cli, experiments, numerics, simulate
from dasrate.errors import DegenerateGainsError, NumericalFailureError

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rates_csv(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code, _, _ = run_cli(capsys, "rates", "--config", "fig2.cfg",
                         "--snr", "0:10:20", "--channels", "200",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split(",")[0] == "snr_db"
    assert len(lines) == 4
    assert "[1 1]_analytic" in lines[0] and "[2 2]_mc_stderr" in lines[0]


def test_rates_mode_filter_and_no_mc_byte_stable(capsys):
    argv = ("rates", "--config", "fig2.cfg", "--snr", "0:5:20",
            "--modes", "[1 2],[2 1]", "--no-mc")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first.splitlines()[0] == "snr_db,[1 2]_analytic,[2 1]_analytic"
    code, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_rates_unknown_mode_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "rates", "--config", "fig2.cfg",
                           "--modes", "[9 9]")
    assert code == cli.EXIT_USAGE
    assert "2 users" in err  # usage error names the failed condition


def test_rates_explicit_mode_at_eight_ports(tmp_path, capsys):
    """At N = K = 8, past the enumeration budget, an explicit mode is
    checked alone and rated as ``row_sum_rates`` rates its row; a one-user
    row with a port off is a usage error."""
    import numpy as np

    from dasrate.geometry import load_scenario, pathloss_matrix
    from dasrate.rate import row_sum_rates, subset_rates

    users = "; ".join(f"{2.5 * np.cos(0.8 * j + 0.3):.4f},{2.5 * np.sin(0.8 * j + 0.3):.4f}"
                      for j in range(8))
    cfg = tmp_path / "n8.cfg"
    cfg.write_text("n_ports = 8\nn_users = 8\ncell_radius = 6.11\npathloss_exponent = 3\n"
                   f"tx_power_dB = 0\nnoise_power = 1\nuser_positions = {users}\n")
    row = [1, 2, 3, 4, 5, 6, 7, 8]
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg), "--no-mc",
                           "--snr", "0:10:20", "--modes", str(row).replace(",", ""))
    assert code == cli.EXIT_OK
    gains = pathloss_matrix(load_scenario(cfg)).gains
    want = row_sum_rates(subset_rates(gains[None], [1.0, 10.0, 100.0]), [row])[0, :, 0]
    assert out.splitlines() == ["snr_db,[1 2 3 4 5 6 7 8]_analytic"] + [
        f"{db},{value:.12g}" for db, value in zip((0, 10, 20), want.tolist())]
    code, _, err = run_cli(capsys, "rates", "--config", str(cfg), "--no-mc",
                           "--modes", "[1 0 0 0 0 0 0 0]")
    assert code == cli.EXIT_USAGE
    assert "port off" in err


def test_rates_idle_user_gain_tie_is_not_rated(tmp_path, capsys):
    """An idle user at the centre of a ring of ten ports has ten nearly
    equal gains; a mode that serves only the other user rates as that
    user alone does, byte for byte, and the idle user's tie is never met."""
    ports = "; ".join(f"{4 * math.cos(2 * math.pi * j / 10):.12f},"
                      f"{4 * math.sin(2 * math.pi * j / 10):.12f}" for j in range(10))
    head = ("n_ports = 10\ncell_radius = 6.11\npathloss_exponent = 3\ntx_power_dB = 0\n"
            f"noise_power = 1\nport_positions = {ports}\n")
    columns = []
    for users, label in (("0,0; 2,1", "2"), ("2,1", "1")):
        cfg = tmp_path / f"users{label}.cfg"
        cfg.write_text(head + f"n_users = {users.count(';') + 1}\nuser_positions = {users}\n")
        code, out, err = run_cli(capsys, "rates", "--config", str(cfg), "--no-mc",
                                 "--snr", "0:10:20", "--modes", f"[{' '.join([label] * 10)}]")
        assert code == cli.EXIT_OK, err
        columns.append([line.split(",")[1] for line in out.splitlines()[1:]])
    assert columns[0] == columns[1] == ["0.426644638526", "2.07713038112", "5.01231877375"]


def test_missing_config_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "rates", "--config", "nonexistent.cfg")
    assert code == cli.EXIT_USAGE
    assert "nonexistent" in err


def test_capacity_error_exit_code(tmp_path, capsys):
    """Exhaustive enumeration past the vector budget maps to its own code."""
    big = tmp_path / "big.cfg"
    big.write_text("n_ports = 12\nn_users = 9\ncell_radius = 6.11\n"
                   "pathloss_exponent = 3\ntx_power_dB = 0\nnoise_power = 1\n")
    # fixed user positions so the rates command reaches enumeration
    big.write_text(big.read_text()
                   + "user_positions = " + "; ".join(["0,0"] * 9) + "\n")
    code, _, err = run_cli(capsys, "rates", "--config", str(big),
                           "--no-mc", "--snr", "0:10:10")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("n_ports, argv", [
    pytest.param(n_ports, argv, id=name if n_ports == 40 else f"{name}-{n_ports}")
    for n_ports in (40, 20_000, 10 ** 9)
    for name, argv in [
        ("hist", ("hist", "--drops", "2")),
        ("sweep-min-distance", ("sweep", "--scheme", "min-distance", "--drops", "2")),
        ("rates-one-user", ("rates", "--modes", "[" + " ".join(["1"] * 40) + "]", "--no-mc")),
    ]])
def test_large_port_count_is_capacity_error_before_any_allocation(tmp_path, capsys, n_ports,
                                                                  argv):
    """From 17 ports one drop's nearest-user set and subset-rate table
    (2^N port masks) fit no block: each command exits 3 with one line
    before it allocates them, or the port layout."""
    big = tmp_path / "big.cfg"
    big.write_text(f"n_ports = {n_ports}\nn_users = 2\ncell_radius = 6.11\n"
                   "pathloss_exponent = 3\ntx_power_dB = 0\nnoise_power = 1\n"
                   "user_positions = 1,0; -1,2\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv[0], "--config", str(big), *argv[1:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err.startswith(f"error: one drop at N = {n_ports} ports and K = ")
    assert err.count("\n") == 1
    assert peak < 2 ** 20


@pytest.mark.parametrize("error, exit_code", [(DegenerateGainsError, 4),
                                              (NumericalFailureError, 5)])
def test_engine_errors_exit_with_their_codes(capsys, monkeypatch, error, exit_code):
    """An error raised under a command exits with its class's code and
    one line on stderr."""
    def failing(x):
        raise error("forced in the kernel")

    monkeypatch.setattr(numerics, "exp_e1", failing)
    code, out, err = run_cli(capsys, "rates", "--config", "fig2.cfg", "--no-mc")
    assert (code, out, err) == (exit_code, "", "error: forced in the kernel\n")


def test_sweep_csv_and_capacity_guard(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--config", "fig3.cfg",
                         "--drops", "20", "--snr", "0:25:50",
                         "--seed", "4", "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "snr_db,ideal_analytic,min-distance_analytic"

    # 7625 candidates x 20 000 drops x 11 points is past the work limit.
    code, _, err = run_cli(capsys, "sweep", "--config", "fig6.cfg",
                           "--drops", "20000", "--snr", "0:5:50")
    assert code == cli.EXIT_USAGE
    assert "force" in err


def test_sweep_work_guard_and_force_ideal(monkeypatch, capsys):
    """An exhaustive sweep past SWEEP_IDEAL_LIMIT candidate-drop-points is
    a usage error that advises --force-ideal; at a limit that admits it,
    forcing returns the unforced arrays."""
    monkeypatch.setattr(simulate, "SWEEP_IDEAL_LIMIT", 35)
    code, out, err = run_cli(capsys, "sweep", "--config", "fig3.cfg", "--scheme", "ideal",
                             "--drops", "3", "--snr", "0:10:20")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == ("error: exhaustive sweep would rate 36 candidate-drop-points (4 "
                   "candidates x 3 drops x 3 SNR points), more than 35; pass "
                   "force_ideal/--force-ideal to run it anyway\n")
    monkeypatch.setattr(simulate, "SWEEP_IDEAL_LIMIT", 36)
    args = (cli._resolve_config("fig3.cfg"), ["ideal"], (0.0, 10.0, 20.0), 3, 0, 1)
    unforced = simulate.cell_average(*args)
    forced = simulate.cell_average(*args, force_ideal=True)
    assert all(map(np.array_equal, forced, unforced))


@pytest.mark.parametrize("force", [(), ("--force-ideal",)], ids=["unforced", "forced"])
def test_sweep_past_enumeration_budget_is_capacity_error(tmp_path, capsys, force):
    """At N = K = 8 the exhaustive set's 9^8 vectors pass the enumeration
    budget, which no flag lifts: it is checked before the work guard."""
    cfg = tmp_path / "n8.cfg"
    cfg.write_text("n_ports = 8\nn_users = 8\ncell_radius = 6.11\npathloss_exponent = 3\n"
                   "tx_power_dB = 0\nnoise_power = 1\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--drops", "1", *force)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "enumeration budget" in err


def test_sweep_fixed_modes(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--config", "fig3.cfg",
                           "--drops", "10", "--snr", "0:50:50",
                           "--fixed-mode", "[1 1]", "--fixed-mode", "[1 2]")
    assert code == 0
    assert out.splitlines()[0] == "snr_db,[1 1]_analytic,[1 2]_analytic"


def test_crossover_report_output(capsys):
    """The fig2 crossover report prints the recorded bytes."""
    code, out, _ = run_cli(capsys, "crossover", "--config", "fig2.cfg",
                           "--reference-db", "37.2")
    assert code == 0
    assert out == (DATA / "crossover_fig2.txt").read_text()


def test_crossover_wrong_size_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "crossover", "--config", "fig4.cfg")
    assert code == cli.EXIT_USAGE


def test_hist_csv(capsys):
    code, out, _ = run_cli(capsys, "hist", "--config", "fig7.cfg",
                           "--drops", "15", "--seed", "2",
                           "--snr-ranges", "0:10,30:40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "range_lo_db,range_hi_db,group_label,fraction"
    fractions = {}
    for line in lines[1:]:
        lo, hi, label, fraction = line.split(",")
        fractions.setdefault((lo, hi), 0.0)
        fractions[(lo, hi)] += float(fraction)
    for total in fractions.values():
        assert total == pytest.approx(1.0, abs=1e-9)


def test_hist_overlapping_ranges_each_get_a_block(capsys):
    code, out, _ = run_cli(capsys, "hist", "--config", "fig8.cfg", "--drops", "3",
                           "--snr-ranges", "0:10,5:7")
    assert code == 0
    ranges = {tuple(line.split(",")[:2]) for line in out.splitlines()[1:]}
    assert ranges == {("0", "10"), ("5", "7")}


def test_hist_bad_ranges(capsys):
    code, _, _ = run_cli(capsys, "hist", "--config", "fig7.cfg",
                         "--drops", "2", "--snr-ranges", "10-20")
    assert code == cli.EXIT_USAGE


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_detects_tampered_kernel(capsys, monkeypatch):
    """A 1e-6 relative error injected into the scaled-E1 kernel must trip
    the closed-form-vs-quadrature check."""
    true_exp_e1 = numerics.exp_e1
    monkeypatch.setattr(numerics, "exp_e1",
                        lambda x: true_exp_e1(x) * (1.0 + 1e-6))
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == cli.EXIT_CHECK_FAILED
    assert "[FAIL]" in out


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--config", "fig3.cfg", "--snr", "0:5:inf"), "finite bounds"),
    (("sweep", "--config", "fig3.cfg", "--snr", "0:5:nan"), "finite bounds"),
    (("rates", "--config", "fig2.cfg", "--no-mc", "--snr", "0:1e-12:1"),
     "more than 10000 points"),
    (("hist", "--config", "fig7.cfg", "--snr-ranges", "0:inf"), "invalid SNR range"),
    (("hist", "--config", "fig7.cfg", "--drops", "0"), "--drops must be >= 1"),
    (("sweep", "--config", "fig3.cfg", "--jobs", "0"), "--jobs must be >= 1"),
    (("hist", "--config", "fig7.cfg", "--jobs", "-3"), "--jobs must be >= 1"),
    (("hist", "--config", "fig7.cfg", "--jobs", "257"), "--jobs must be <= 256"),
    (("sweep", "--config", "fig3.cfg", "--rating", "mc", "--channels", "1"),
     "--channels must be >= 2"),
    (("sweep", "--config", "fig4.cfg", "--seed", "-1", "--jobs", "2"),
     "--seed must be >= 0"),
    (("hist", "--config", "fig7.cfg", "--seed", "-1"), "--seed must be >= 0"),
    (("rates", "--config", "fig2.cfg", "--no-mc", "--seed", "-1"), "--seed must be >= 0"),
    (("sweep", "--config", "fig5.cfg", "--fixed-mode", "[9 9]"), "4 ports"),
    (("sweep", "--config", "fig5.cfg", "--fixed-mode", "[5 5 5 5]"), "4 users"),
    (("sweep", "--config", "fig5.cfg", "--fixed-mode", "[1 1 1 1 1]"), "4 ports"),
    (("sweep", "--config", "fig5.cfg", "--fixed-mode", "[1 2]"), "4 ports"),
    (("sweep", "--config", "fig5.cfg", "--fixed-mode", "[0 0 0 0]"), "no active port"),
    (("sweep", "--config", "fig5.cfg", "--fixed-mode", "[1 -1 2 3]"),
     "integer entries >= 0"),
    (("rates", "--config", "fig2.cfg", "--no-mc", "--modes", "[1 2],[-1 2]"),
     "integer entries >= 0"),
    (("sweep", "--config", "fig5.cfg", "--scheme", "ideal", "--fixed-mode", "[9 9]"),
     "4 ports"),
    (("crossover", "--config", "fig2.cfg", "--reference-db", "nan"), "must be finite"),
    (("sweep", "--config", "fig4.cfg", "--scheme", "ideal", "--scheme", "ideal"),
     "given more than once: ideal"),
    (("sweep", "--config", "fig4.cfg", "--fixed-mode", "[1 2 3]",
      "--fixed-mode", "[1  2 3]"), "given more than once: [1 2 3]"),
    (("rates", "--config", "fig2.cfg", "--no-mc", "--modes", "[1 2],[2 1],[1  2]"),
     "given more than once: [1 2]"),
    (("hist", "--config", "fig7.cfg", "--drops", "3", "--snr-ranges", "0:10,5:7,0.0:10"),
     "--snr-ranges 0:10 given more than once"),
    (("hist", "--config", "fig7.cfg", "--drops", "2",
      "--out", str(DATA / "no-such-dir" / "x.csv")), "does not exist"),
    (("crossover", "--config", "fig2.cfg", "--out", str(DATA)), "cannot write --out"),
    (("sweep", "--config", "fig4.cfg", "--drops", "1", "--snr", "0:1000:4000"),
     "--snr '0:1000:4000' spans 0 to 4000 dB"),
    (("sweep", "--config", "fig4.cfg", "--drops", "1", "--snr=-4000:1000:0"),
     "--snr '-4000:1000:0' spans -4000 to 0 dB"),
    (("rates", "--config", "fig2.cfg", "--snr", "300:1:300.5"), "within +-300 dB"),
    (("hist", "--config", "fig7.cfg", "--drops", "1", "--snr-ranges", "3080:3090"),
     "--snr-ranges 3080:3090 spans 3080 to 3090 dB"),
    (("hist", "--config", "fig7.cfg", "--snr-ranges", "0:10,-310:-300"),
     "--snr-ranges -310:-300 spans"),
], ids=["snr-inf", "snr-nan", "snr-too-many-points", "range-inf", "drops-0",
        "jobs-0", "jobs-negative", "jobs-too-many", "channels-1-with-mc",
        "sweep-seed-negative", "hist-seed-negative", "rates-seed-negative",
        "fixed-mode-too-short",
        "fixed-mode-user-out-of-range", "fixed-mode-too-long",
        "fixed-mode-2-ports-on-4", "fixed-mode-all-off", "fixed-mode-negative",
        "rates-mode-negative",
        "fixed-mode-bad-after-ideal", "reference-db-nan", "scheme-repeated",
        "fixed-mode-repeated", "rates-mode-repeated", "range-repeated",
        "out-dir-missing", "out-is-a-directory",
        "snr-too-high", "snr-too-low", "rates-snr-past-bound", "range-too-high",
        "range-too-low"])
def test_bad_input_is_usage_error_before_any_work(capsys, monkeypatch, argv, message):
    """Each bad value exits 2 with one line on stderr, before a drop is
    drawn or a child process is forked."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(simulate, "uniform_positions", no_work)
    monkeypatch.setattr(os, "fork", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("line, message", [
    ("tx_power_dB = 4000", "tx_power_dB must be finite and within +-300 dB, got 4000"),
    ("tx_power_dB = -301", "tx_power_dB must be finite and within +-300 dB, got -301"),
    ("tx_power_dB = inf", "tx_power_dB must be finite and within +-300 dB, got inf"),
    ("tx_power_dB = nan", "tx_power_dB must be finite"),
    ("noise_power = 1e400", "noise_power must be finite"),
    ("noise_power = nan", "noise_power must be finite"),
    ("cell_radius = inf", "cell_radius must be finite"),
    ("pathloss_exponent = inf", "pathloss_exponent must be finite"),
    ("port_ring_radius = nan", "port_ring_radius must be finite"),
    ("user_positions = -3,-2.5; nan,3.5", "user_positions: non-finite coordinate"),
    ("pathloss_exponent = 400", "pathloss_exponent 400 is too large"),
    ("pathloss_exponent = 200\nuser_positions = -4,0; 3,3.5",
     "pathloss_exponent 200 is too large"),
], ids=["tx-power-4000", "tx-power-past-minus-300", "tx-power-inf", "tx-power-nan",
        "noise-power-overflow", "noise-power-nan", "cell-radius-inf",
        "pathloss-exponent-inf", "ring-radius-nan", "user-position-nan",
        "pathloss-exponent-underflow", "pathloss-exponent-overflow"])
@pytest.mark.parametrize("command", ["crossover", "rates", "hist"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, monkeypatch, command, line,
                                         message):
    """A config value that is not finite, a transmit power past
    +-MAX_ABS_SNR_DB dB, or a pathloss exponent whose gains leave the float
    range exits 2 with one line naming its key, before any work starts."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(simulate, "uniform_positions", no_work)
    keys = tuple(new.split(" = ")[0] + " " for new in line.splitlines())
    text = experiments.bundled_config_path("fig2.cfg").read_text()
    kept = [old for old in text.splitlines() if not old.startswith(keys)]
    config = tmp_path / "bad.cfg"
    config.write_text("\n".join(kept + [line]) + "\n")
    code, out, err = run_cli(capsys, command, "--config", str(config))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and message in err


NOISE_COMMANDS = {
    "sweep": ("fig4.cfg", "sweep", "--drops", "6", "--snr=-300:50:300"),
    "sweep-mc": ("fig4.cfg", "sweep", "--drops", "3", "--snr=-300:50:300",
                 "--rating", "mc", "--channels", "300"),
    "hist": ("fig8.cfg", "hist", "--drops", "6", "--snr-ranges=-300:-250,-10:10,250:300"),
    "rates": ("fig2.cfg", "rates", "--no-mc", "--snr=-300:50:300"),
    "crossover": ("fig2.cfg", "crossover"),
}


@pytest.mark.parametrize("noise_power", ["7.3", "1e-320", "1e300"])
@pytest.mark.parametrize("name", sorted(NOISE_COMMANDS))
def test_output_does_not_depend_on_noise_power(tmp_path, capsys, name, noise_power):
    """Rates depend on the transmit and noise powers only through the SNR,
    so every output byte at any noise_power, subnormal and huge included,
    is the one at noise_power = 1, over SNR points out to +-300 dB."""
    config, command, *flags = NOISE_COMMANDS[name]
    text = experiments.bundled_config_path(config).read_text()
    assert "\nnoise_power = 1\n" in text
    scaled = tmp_path / config
    scaled.write_text(text.replace("\nnoise_power = 1\n", f"\nnoise_power = {noise_power}\n"))
    code, want, _ = run_cli(capsys, command, "--config", config, *flags)
    assert code == 0
    code, got, err = run_cli(capsys, command, "--config", str(scaled), *flags)
    assert (code, err) == (0, "")
    assert got == want


@pytest.mark.parametrize("argv", [
    ("crossover", "--config", "fig2.cfg", "--seed", "5"),
    ("crossover", "--config", "fig2.cfg", "--snr", "garbage"),
    ("crossover", "--config", "fig2.cfg", "--jobs", "7"),
    ("hist", "--config", "fig7.cfg", "--drops", "2", "--snr", "0:5:nan"),
    ("rates", "--config", "fig2.cfg", "--no-mc", "--jobs", "64"),
], ids=["crossover-seed", "crossover-snr", "crossover-jobs", "hist-snr", "rates-jobs"])
def test_flag_a_command_does_not_read_is_usage_error(capsys, argv):
    """Each command accepts only the flags it reads; argparse exits 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


MULTI_SCHEME_SWEEP = ("sweep", "--config", "fig4.cfg", "--scheme", "ideal",
                      "--scheme", "min-distance", "--fixed-mode", "[1 2 3]",
                      "--fixed-mode", "[1 0 0]", "--seed", "7", "--snr", "0:10:50")


@pytest.mark.parametrize("extra, recorded", [
    (("--drops", "20"), "sweep_fig4_multi_analytic.csv"),
    (("--drops", "4", "--rating", "mc", "--channels", "200", "--jobs", "1"),
     "sweep_fig4_multi_mc.csv"),
    (("--drops", "4", "--rating", "mc", "--channels", "200", "--jobs", "2"),
     "sweep_fig4_multi_mc.csv"),
], ids=["analytic", "mc-jobs1", "mc-jobs2"])
def test_multi_scheme_sweep_matches_recorded_output(capsys, extra, recorded):
    """Schemes and fixed modes swept together print the bytes recorded
    when each ran in its own pass over the drops."""
    code, out, _ = run_cli(capsys, *MULTI_SCHEME_SWEEP, *extra)
    assert code == 0
    assert out == (DATA / recorded).read_text()


@pytest.mark.parametrize("config", ["fig7.cfg", "fig8.cfg"])
def test_hist_matches_recorded_output(capsys, config):
    """The nearest-user histogram of 200 drops prints the recorded bytes."""
    code, out, _ = run_cli(capsys, "hist", "--config", config, "--seed", "1",
                           "--drops", "200")
    assert code == 0
    assert out == (DATA / f"hist_{config.removesuffix('.cfg')}.csv").read_text()


def test_rates_monte_carlo_matches_recorded_output(capsys):
    """The Monte Carlo columns of ``rates``: 9000 channels are one full
    chunk and a tail, drawn for every mode and point into one buffer."""
    code, out, _ = run_cli(capsys, "rates", "--config", "fig2.cfg", "--snr", "0:10:30",
                           "--channels", "9000")
    assert code == 0
    assert out == (DATA / "rates_fig2_mc.csv").read_text()


def test_long_grid_mc_sweep_memory_stays_bounded(capsys):
    """A 2001-point Monte Carlo sweep rates each chosen mode in slices of
    MC_POINT_SLICE points, so its temporaries stay at about 2.7 MB (two
    slice work arrays and the fading buffer); rating every point at once
    peaked at 330 MB."""
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "sweep", "--config", "fig4.cfg",
                               "--scheme", "min-distance", "--rating", "mc",
                               "--channels", "9000", "--snr", "0:0.025:50", "--drops", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(out.splitlines()) == 2002
    assert peak < 6e6


@pytest.mark.parametrize("drops", [1, 9, 65])
@pytest.mark.parametrize("argv", [
    ("hist", "--config", "fig7.cfg", "--seed", "3"),
    ("sweep", "--config", "fig4.cfg", "--seed", "3", "--snr", "0:10:50"),
], ids=["hist", "sweep"])
def test_drop_blocks_do_not_change_output(capsys, argv, drops):
    """--jobs splits the drops into shares, unequal ones at --jobs 3 on 65
    drops, and each share into blocks; the bytes are those of --jobs 1."""
    outputs = []
    for jobs in ("1", "2", "3"):
        code, out, _ = run_cli(capsys, *argv, "--drops", str(drops), "--jobs", jobs)
        assert code == 0
        outputs.append(out)
    assert outputs[1:] == outputs[:1] * 2


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child that a later command forks, in fork order."""
    children = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return children


def test_sweep_forks_once_at_two_jobs(capsys, forks):
    """A --jobs 2 sweep of two schemes and a fixed mode works its drops in
    this process and one forked child, and reaps the child."""
    code, _, _ = run_cli(capsys, "sweep", "--config", "fig3.cfg", "--drops", "4",
                         "--snr", "0:25:50", "--scheme", "ideal",
                         "--scheme", "min-distance", "--fixed-mode", "[1 2]",
                         "--jobs", "2")
    assert code == 0
    assert len(forks) == 1
    assert_no_child_left()


def test_no_more_processes_than_drops(capsys, forks):
    """Two drops go out as two shares, so --jobs 6 forks one child."""
    code, _, _ = run_cli(capsys, "hist", "--config", "fig7.cfg", "--drops", "2",
                         "--jobs", "6")
    assert code == 0
    assert len(forks) == 1
    assert_no_child_left()


def test_error_in_a_child_share_exits_as_at_one_job(capsys, monkeypatch, forks):
    """A DegenerateGainsError raised only by the child that works the
    second share exits 4 with the one stderr line of --jobs 1, and no
    child is left."""
    worker = simulate._block_worker

    def failing(args):
        if 2 in args[5]:
            raise DegenerateGainsError("forced at drop 2")
        return worker(args)

    monkeypatch.setattr(simulate, "_block_worker", failing)
    argv = ("sweep", "--config", "fig3.cfg", "--drops", "4", "--snr", "0:25:50")
    for jobs in ("1", "2"):
        assert run_cli(capsys, *argv, "--jobs", jobs) == (4, "", "error: forced at drop 2\n")
    assert len(forks) == 1
    assert_no_child_left()


# Runs in a fresh interpreter, where nothing has imported scipy yet.
NUMPY_ONLY_SCRIPT = """
import sys
from dasrate import cli

def numpy_only(when):
    assert "scipy" not in sys.modules, "scipy loaded " + when
    assert "numpy.random" in sys.modules, "numpy.random missing " + when
    assert "numpy.ma" not in sys.modules, "numpy.ma loaded " + when
    for name in ("concurrent.futures.process", "multiprocessing"):
        assert name not in sys.modules, name + " loaded " + when

numpy_only("by import dasrate.cli")
out = sys.argv[1] + "/out.csv"
for argv in (
    ["rates", "--config", "fig2.cfg", "--snr", "0:10:20", "--no-mc"],
    ["rates", "--config", "fig2.cfg", "--snr", "0:10:20", "--channels", "200"],
    ["sweep", "--config", "fig3.cfg", "--drops", "2", "--snr", "0:25:50"],
    ["crossover", "--config", "fig2.cfg"],
    ["hist", "--config", "fig7.cfg", "--drops", "2", "--jobs", "2"],
    ["sweep", "--config", "fig3.cfg", "--drops", "2", "--snr", "0:25:50",
     "--rating", "mc", "--channels", "50", "--jobs", "2"],
):
    assert cli.main(argv + ["--out", out]) == 0, argv
    numpy_only("by " + " ".join(argv))
"""


def test_commands_other_than_verify_never_import_scipy(tmp_path):
    """scipy is needed only by ``dasrate verify``; every other command,
    and the import of the CLI itself, runs on numpy alone, without
    ``numpy.ma``, and never loads ``multiprocessing`` or the process-pool
    modules, not even at --jobs 2."""
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", NUMPY_ONLY_SCRIPT, str(tmp_path)],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
