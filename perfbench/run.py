"""dasrate benchmark: time fresh CLI invocations of one workload.

    python3 perfbench/run.py --workload sweep-ideal --seed 1 --seconds 40 --trace 0

--trace 0 runs the workload's command as a new process, again and again,
until --seconds are used up, checks each output against the reference
oracle, and reports the end-to-end metrics of BENCHMARK.json as medians
over the invocations. --trace 1 repeats rounds of one untraced and one
traced run at --jobs 1 (plus one untraced run at the workload's own --jobs
when that is larger) and reports the per-layer metrics as medians over
the rounds. Human-readable detail goes to
stderr and, with the run record, to .perfbench-out/; the last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS/OpenMP thread per process, so a --jobs 2 pool never runs more
# threads than cores. Set before numpy is imported here and passed on.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# An invocation still running after this long is killed, and the run then
# starts no further invocation.
INVOCATION_TIMEOUT_S = 150


class Invocation:
    """One child process: exit code, wall time, set-up time, peak RSS."""

    def __init__(self, cmd: list[str], log: Path, stamp: Path | None = None):
        with open(log, "w") as log_file:
            spawned = time.monotonic_ns()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log_file,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                # wait4 reports the largest resident set of the child and of
                # every descendant it reaped, which covers pool workers.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = proc.returncode
        self.wall_s = (ended - spawned) / 1e9
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.setup_s = None
        if stamp is not None and stamp.exists():
            self.setup_s = (int(stamp.read_text()) - spawned) / 1e9
        self.problem = None if self.exit_code == 0 else f"exit code {self.exit_code}"

    def check(self, w: Workload, seed: int, out: Path, expected: dict) -> None:
        if self.problem is None:
            self.problem = oracle.check(w, seed, out.read_text(), expected)

    def record(self) -> dict:
        return {"exit_code": self.exit_code, "wall_s": self.wall_s,
                "setup_s": self.setup_s, "cpu_s": self.cpu_s,
                "peak_rss_mb": self.peak_rss_mb,
                "problem": self.problem}


def run_cli(w: Workload, seed: int, work: Path, tag: str, expected: dict,
            jobs: int | None = None) -> Invocation:
    out, stamp = work / f"{tag}.csv", work / f"{tag}.stamp"
    cmd = [sys.executable, str(BENCH_DIR / "invoke.py"), str(ROOT), str(stamp)]
    inv = Invocation(cmd + w.cli_args(seed, str(out), jobs), work / f"{tag}.log", stamp)
    inv.check(w, seed, out, expected)
    return inv


def timed_run(w: Workload, seed: int, seconds: float, work: Path,
              expected: dict) -> tuple[list[Invocation], dict]:
    """Invoke until the next invocation would overrun --seconds."""
    runs: list[Invocation] = []
    started = time.monotonic()
    while True:
        runs.append(run_cli(w, seed, work, f"run{len(runs)}", expected))
        longest = max(r.wall_s for r in runs)
        if time.monotonic() - started + longest > seconds:
            break
    ok = [r for r in runs if r.problem is None] or runs
    setups = [r.setup_s if r.setup_s is not None else r.wall_s for r in ok]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in ok),
        "setup_s": statistics.median(setups),
        "drop_points_per_s": statistics.median(
            w.drop_points() / (r.wall_s - s) for r, s in zip(ok, setups)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
        "ok_frac": sum(r.problem is None for r in runs) / len(runs),
    }
    return runs, metrics


def traced_run(w: Workload, seed: int, seconds: float, work: Path,
               expected: dict) -> tuple[list[Invocation], dict, list[str]]:
    """Per-layer metrics: medians over rounds of untraced and traced runs,
    repeated until the next round would overrun `seconds` (at least one)."""
    runs: list[Invocation] = []
    rounds: list[dict] = []
    started, longest = time.monotonic(), 0.0
    while True:
        began = time.monotonic()
        round_runs, metrics = traced_round(w, seed, work, f"r{len(rounds)}", expected)
        runs += round_runs
        if metrics is None:
            break
        rounds.append(metrics)
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() - started + longest > seconds:
            break
    counts = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in rounds]
    if any(c != counts[0] for c in counts) and runs[-1].problem is None:
        runs[-1].problem = "call counts differ between traced runs"
    medians = {}
    for name in rounds[0] if rounds else ():
        values = [m[name] for m in rounds if m[name] is not None]
        # The low median is one round's value, so counts stay integers.
        medians[name] = statistics.median_low(values) if values else None
    absent = sorted(name for name, value in medians.items() if value is None)
    return runs, medians, absent


def traced_round(w: Workload, seed: int, work: Path, tag: str,
                 expected: dict) -> tuple[list[Invocation], dict | None]:
    """Run the command untraced at --jobs 1 (and at the workload's --jobs
    when larger), then traced at --jobs 1; derive the per-layer metrics."""
    serial = run_cli(w, seed, work, f"{tag}-untraced-jobs1", expected, jobs=1)
    runs = [serial]
    parallel = None
    if w.jobs > 1:
        parallel = run_cli(w, seed, work, f"{tag}-untraced-jobs{w.jobs}", expected)
        runs.append(parallel)
    if any(r.problem is not None for r in runs):
        # Stop at the first failure, so even a hung program ends the run in time.
        return runs, None

    out, summary_path = work / f"{tag}-traced.csv", work / f"{tag}-traced-summary.json"
    cmd = [sys.executable, str(BENCH_DIR / "traced.py"), str(ROOT),
           str(work / f"{tag}-traced-spans.json"), str(summary_path)]
    traced = Invocation(cmd + w.cli_args(seed, str(out), jobs=1),
                        work / f"{tag}-traced.log")
    runs.append(traced)
    if traced.exit_code != 0:
        return runs, None
    if out.read_bytes() != (work / f"{tag}-untraced-jobs1.csv").read_bytes():
        traced.problem = "traced CSV differs from the untraced one"

    summary = json.loads(summary_path.read_text())
    fn, counters = summary["functions"], summary["counters"]
    calls = {name: f["calls"] for name, f in fn.items()}
    self_s = {name: f["self_s"] for name, f in fn.items()}
    incl_s = {name: f["incl_s"] for name, f in fn.items()}

    def ratio(num, den, scale=1.0):
        return None if num is None or not den else num * scale / den

    def total(table, *names):
        values = [table[n] for n in names if n in table]
        return sum(values) if values else None

    traced_wall = traced.wall_s - summary["report_s"]
    metrics = {
        "numerics.exp_e1.calls": calls.get("numerics.exp_e1"),
        "numerics.exp_e1.self_s": self_s.get("numerics.exp_e1"),
        "numerics.exp_e1.ns_per_call": ratio(self_s.get("numerics.exp_e1"),
                                             calls.get("numerics.exp_e1"), 1e9),
        "geometry.drop_users_uniform.calls": calls.get("geometry.drop_users_uniform"),
        "geometry.self_s": total(self_s, "geometry.drop_users_uniform",
                                 "geometry.pathloss_matrix"),
        "modes.self_s": total(self_s, "modes.enumerate_ideal",
                              "modes.enumerate_min_distance"),
        "modes.enumerate_min_distance.calls": calls.get("modes.enumerate_min_distance"),
        "modes.enumerate_min_distance.self_s": self_s.get("modes.enumerate_min_distance"),
        "rate.distinct_partition_frac": ratio(counters["rate.distinct_partitions"],
                                              calls.get("rate.partition_for_user")),
        "rate.kernel_evals_per_user_rate": ratio(calls.get("numerics.exp_e1"),
                                                 calls.get("rate.ergodic_user_rate")),
        "selection.candidates_scored": (counters["selection.candidates_scored"]
                                        if "selection.select_mode" in calls else None),
        "selection.us_per_candidate": ratio(incl_s.get("selection.select_mode"),
                                            counters["selection.candidates_scored"], 1e6),
        "simulate.mc_ergodic_sum_rate.calls": calls.get("simulate.mc_ergodic_sum_rate"),
        "simulate.self_s": total(self_s, "simulate.cell_average", "simulate.mode_histogram",
                                 "simulate.mc_ergodic_sum_rate"),
        "simulate.mc_channels_per_s": ratio(counters["simulate.mc_channels"],
                                            incl_s.get("simulate.mc_ergodic_sum_rate")),
        "simulate.parallel_efficiency": None if parallel is None else ratio(
            summary["main_s"],
            w.jobs * (parallel.wall_s - (parallel.setup_s or 0.0))),
        "experiments.self_s": total(self_s, "experiments.sweep_curves",
                                    "experiments.curve_to_csv",
                                    "experiments.histogram_to_csv"),
        "experiments.csv_s": total(incl_s, "experiments.curve_to_csv",
                                   "experiments.histogram_to_csv"),
        "cli.import_s": summary["import_s"],
        "trace.overhead_frac": traced_wall / serial.wall_s - 1.0,
    }
    for name in ("rate.ergodic_sum_rate", "rate.partition_for_user",
                 "rate.ergodic_user_rate", "selection.select_mode"):
        metrics[f"{name}.calls"] = calls.get(name)
        metrics[f"{name}.self_s"] = self_s.get(name)
    return runs, metrics


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dasrate" / "cli.py").is_file():
        print(f"error: no dasrate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)  # no stale output can pass a check
    work.mkdir(parents=True)
    # Byte-compile up front, as an installed package would be, so the first
    # invocation does not pay for it.
    compileall.compile_dir(str(ROOT / "src" / "dasrate"), quiet=1)
    expected = oracle.oracle_expected(w, args.seed)

    if args.trace:
        runs, values, absent = traced_run(w, args.seed, args.seconds, work, expected)
        declared = spec["per_layer"]
    else:
        runs, values = timed_run(w, args.seed, args.seconds, work, expected)
        absent = []
        declared = spec["end_to_end"]
    absent += [m["name"] for m in declared if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0, "unit": m["unit"]}
               for m in declared}
    failed = sum(r.problem is not None for r in runs)

    record = {"workload": w.name, "why": w.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "params": w.params(), "nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0)),
              "python": sys.version.split()[0], "numpy": np.__version__,
              "scipy": scipy.__version__, "commit": git_commit(),
              "thread_env": THREAD_ENV, "invocations": [r.record() for r in runs],
              "metrics": values, "absent": absent}
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{w.name} seed={args.seed} trace={args.trace} commit={record['commit']} "
          f"nproc={record['nproc']} python={record['python']} "
          f"numpy={record['numpy']} scipy={record['scipy']}", file=sys.stderr)
    print(f"  params: {json.dumps(record['params'])}", file=sys.stderr)
    for i, r in enumerate(runs):
        print(f"  invocation {i}: {json.dumps(r.record())}", file=sys.stderr)
    for name, m in metrics.items():
        shown = "absent" if name in absent else f"{m['value']:.6g} {m['unit']}"
        print(f"  {name} = {shown}", file=sys.stderr)
    if not args.trace:
        print(f"  medians over {len(runs)} invocations", file=sys.stderr)
    print(f"  record: {work / 'record.json'}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
