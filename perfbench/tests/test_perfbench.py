"""Self-tests of the benchmark, at reduced drop counts.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_DROPS = {"sweep-ideal": 2, "hist-nearest": 20, "sweep-mc": 4}
SEED = 5


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_twice(request, tmp_path_factory):
    w = WORKLOADS[request.param].resized(SMALL_DROPS[request.param])
    expected = oracle.oracle_expected(w, SEED)
    results = []
    for attempt in range(2):
        work = tmp_path_factory.mktemp(f"{w.name}-{attempt}")
        runs, metrics, absent = run.traced_run(w, SEED, 0, work, expected)
        summary = json.loads((work / "r0-traced-summary.json").read_text())
        results.append((work, runs, metrics, absent, summary))
    return w, results


def test_traced_csv_is_byte_identical_to_untraced(traced_twice):
    _, results = traced_twice
    for work, runs, _, _, _ in results:
        assert [r.problem for r in runs] == [None] * len(runs)
        assert (work / "r0-traced.csv").read_bytes() == (
            work / "r0-untraced-jobs1.csv").read_bytes()


def test_call_counts_repeat_across_traced_runs(traced_twice):
    _, results = traced_twice
    (_, _, _, _, first), (_, _, _, _, second) = results
    calls = [{n: f["calls"] for n, f in s["functions"].items()} for s in (first, second)]
    assert calls[0] == calls[1]
    assert first["counters"] == second["counters"]


def test_call_counts_match_workload_size(traced_twice):
    w, results = traced_twice
    metrics = results[0][2]
    assert metrics["selection.select_mode.calls"] == w.drop_points()
    assert metrics["simulate.mc_ergodic_sum_rate.calls"] == (
        w.drops * len(w.grid_db()) if w.name == "sweep-mc" else 0)


def test_every_per_layer_metric_is_reported(traced_twice):
    w, results = traced_twice
    _, _, metrics, absent, _ = results[0]
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    undefined = {"simulate.mc_channels_per_s", "simulate.parallel_efficiency"}
    if w.name == "sweep-mc":
        undefined = set()
    assert set(absent) == undefined
    assert {m["name"] for m in declared} == set(metrics)
    assert all(metrics[m["name"]] > 0 for m in declared if m["unit"] == "s")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_matches_recorded_cli_output(name):
    w = WORKLOADS[name]
    seeds = sorted(int(p.stem.split("seed")[1])
                   for p in oracle.REFERENCE_DIR.glob(f"{name}-seed*.csv"))
    assert len(seeds) >= 2
    for seed in seeds:
        got, want = oracle.oracle_expected(w, seed), oracle.recorded_expected(w, seed)
        if w.command == "hist":
            assert got["counts"] == want["counts"]
        else:
            for scheme in w.schemes:
                np.testing.assert_allclose(got["curves"][scheme], want["curves"][scheme],
                                           rtol=0, atol=oracle.ANALYTIC_TOL_BITS)


def test_checks_reject_perturbed_outputs():
    w = WORKLOADS["sweep-ideal"]
    text = (oracle.REFERENCE_DIR / "sweep-ideal-seed1.csv").read_text()
    assert oracle.check(w, 1, text) is None
    lines = text.split("\n")
    cells = lines[3].split(",")
    cells[1] = format(float(cells[1]) + 1e-8, ".12g")
    lines[3] = ",".join(cells)
    assert oracle.check(w, 1, "\n".join(lines)) is not None

    w = WORKLOADS["hist-nearest"]
    text = (oracle.REFERENCE_DIR / "hist-nearest-seed1.csv").read_text()
    assert oracle.check(w, 1, text) is None
    lines = text.split("\n")
    head, tail = lines[1].rsplit(",", 1), lines[2].rsplit(",", 1)
    step = 1.0 / (w.drops * 3)
    lines[1] = f"{head[0]},{float(head[1]) + step:.12g}"
    lines[2] = f"{tail[0]},{float(tail[1]) - step:.12g}"
    assert oracle.check(w, 1, "\n".join(lines)) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "hist-nearest", "--seed", "1", "--seconds", "5",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
