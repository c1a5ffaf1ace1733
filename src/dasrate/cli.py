"""Command-line interface: rates, sweep, crossover, hist, verify.

Exit codes: 0 success, 1 a ``verify`` check failed, 2 usage/config,
3 capacity (an enumeration past its budget, or a port or user count
whose one drop outgrows a block, which counts every user's position,
distances and gains: N >= 14 at K = N, N > 16 at any K, which the config
load refuses, and K > 116 508 at N = 2), 5 numerical failure (only
``verify``, when a quadrature exceeds its error budget); 4 is retired.

Only ``verify`` imports scipy (through ``verification``); every other
command runs on numpy alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path

from . import experiments, simulate
from .errors import ConfigError, DasRateError
from .geometry import load_scenario
from .modes import parse_label

# Objects made at import live until exit. Frozen, they are skipped by
# every collection a run makes and by the interpreter's final collection
# and teardown, which otherwise walk all of them at exit. At module
# level, not in main(), so in-process callers such as the tests freeze
# once rather than on every call.
gc.freeze()

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = ConfigError.exit_code


# Flags shared by several commands; each command adds only those it reads.
_SHARED_FLAGS = {
    "--seed": dict(type=int, default=1, help="master RNG seed"),
    "--snr": dict(default="0:5:50", help="SNR grid in dB as start:step:stop"),
    "--jobs": dict(type=int, default=1,
                   help="worker processes that run the drops"),
    "--drops": dict(type=int, help=f"number of user drops (default {simulate.DEFAULT_N_DROPS}, "
                                   f"or 1 for a config that sets user_positions)"),
    "--channels": dict(type=int, default=simulate.DEFAULT_N_CHANNELS,
                       help="fading realizations per Monte Carlo estimate"),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add --config, --out and the named shared flags to a command."""
    parser.add_argument("--config", required=True,
                        help="scenario config file (bundled names like "
                             "fig2.cfg are resolved automatically)")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasrate",
        description="Ergodic sum-rate analysis and simulation for "
                    "distributed antenna downlinks")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags are spelled in full, so a flag a command does not read is never
    # taken as the prefix of one it does (hist's --snr for --snr-ranges).
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("rates", help="per-mode rate curves on a fixed geometry")
    _add_flags(p, "--seed", "--snr", "--channels")
    p.add_argument("--modes", default="",
                   help="comma-separated mode labels like '[1 2],[2 1]' "
                        "(default: every admissible mode)")
    p.add_argument("--no-mc", action="store_true",
                   help="emit analytic columns only (byte-stable output)")

    p = command("sweep", help="cell-averaged curves over uniform drops")
    _add_flags(p, "--seed", "--snr", "--jobs", "--drops", "--channels")
    p.add_argument("--scheme", action="append", default=None,
                   choices=["ideal", "min-distance"],
                   help="selection scheme to sweep (repeatable)")
    p.add_argument("--fixed-mode", action="append", default=None,
                   help="fixed mode label like '[1 2]' to sweep (repeatable)")
    p.add_argument("--rating", choices=["analytic", "mc"], default="analytic",
                   help="record closed-form rates (fast) or Monte Carlo "
                        "estimates (validation)")
    p.add_argument("--force-ideal", action="store_true",
                   help="allow exhaustive sweeps past the total-work guard")

    p = command("crossover",
                help="single-user vs two-user crossover report (2x2)")
    _add_flags(p)
    p.add_argument("--reference-db", type=float, default=None,
                   help="external reference value to compare against, in dB")

    p = command("hist", help="selected-mode histogram by (K_A, N_A) group")
    _add_flags(p, "--seed", "--jobs", "--drops")
    p.add_argument("--snr-ranges", default="0:10,10:20,20:30,30:40",
                   help="comma-separated lo:hi dB ranges")

    p = command("verify", help="run the self-check suites")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    return parser


def _check_args(args) -> None:
    """Reject counts and an output path that would run nothing or lose
    the result, before any work starts."""
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if getattr(args, "jobs", 1) > simulate.MAX_JOBS:
        raise ConfigError(f"--jobs must be <= {simulate.MAX_JOBS}, got {args.jobs}")
    if getattr(args, "drops", None) is not None and args.drops < 1:
        raise ConfigError(f"--drops must be >= 1, got {args.drops}")
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    runs_mc = ((args.command == "rates" and not args.no_mc)
               or getattr(args, "rating", None) == "mc")
    if runs_mc and args.channels < 2:
        raise ConfigError(f"--channels must be >= 2 when Monte Carlo runs, "
                          f"got {args.channels}")
    out = getattr(args, "out", None)
    if out and not Path(out).parent.is_dir():
        raise ConfigError(f"--out directory '{Path(out).parent}' does not exist")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out_path!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _n_drops(args, scenario) -> int:
    """--drops, by default 1 for a config that sets user_positions (one drop)."""
    return args.drops or (1 if scenario.user_positions else simulate.DEFAULT_N_DROPS)


def _cmd_rates(args) -> int:
    scenario = load_scenario(args.config)
    if scenario.user_positions is None:
        raise ConfigError("rates needs fixed user positions in the config")
    grid = experiments.parse_snr_spec(args.snr)
    rows = [parse_label(tok) for tok in args.modes.split(",") if tok.strip()]
    modes = experiments.resolve_mode_filter(rows, scenario.n_ports, scenario.n_users).tolist()
    blocks = [("analytic", simulate.cell_average(scenario, modes, grid, 1, 0, args.seed)[0])]
    if not args.no_mc:
        blocks += zip(("mc", "mc_stderr"),
                      simulate.cell_average(scenario, modes, grid, 1, args.channels, args.seed))
    _emit(experiments.curve_to_csv(grid, modes, *blocks), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    grid = experiments.parse_snr_spec(args.snr)
    schemes = [*(args.scheme or []), *map(parse_label, args.fixed_mode or [])] or [
        "ideal", "min-distance"]
    n_channels = args.channels if args.rating == "mc" else 0
    means, errors = simulate.cell_average(scenario, schemes, grid, _n_drops(args, scenario),
                                          n_channels, args.seed, n_jobs=args.jobs,
                                          force_ideal=args.force_ideal)
    blocks = [("mc", means), ("mc_stderr", errors)] if n_channels else [("analytic", means)]
    _emit(experiments.curve_to_csv(grid, schemes, *blocks), args.out)
    return EXIT_OK


def _cmd_crossover(args) -> int:
    scenario = load_scenario(args.config)
    lines = experiments.crossover_lines(scenario, reference_db=args.reference_db)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _parse_ranges(spec: str) -> list[tuple[float, float]]:
    ranges = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"SNR range must be lo:hi, got {chunk!r}")
        try:
            ranges.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"non-numeric SNR range {chunk!r}") from exc
    if not ranges:
        raise ConfigError("no SNR ranges given")
    return ranges


def _cmd_hist(args) -> int:
    scenario = load_scenario(args.config)
    fractions = simulate.mode_histogram(scenario, _parse_ranges(args.snr_ranges),
                                        n_drops=_n_drops(args, scenario), seed=args.seed,
                                        n_jobs=args.jobs)
    _emit(experiments.histogram_to_csv(fractions), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verification

    results = verification.run_checks(args.level)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"rates": _cmd_rates, "sweep": _cmd_sweep,
                "crossover": _cmd_crossover, "hist": _cmd_hist,
                "verify": _cmd_verify}
    try:
        _check_args(args)
        return handlers[args.command](args)
    except (DasRateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
