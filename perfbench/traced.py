"""Run one `dasrate` CLI command with every layer's public functions traced.

    python3 traced.py ROOT SPANS_JSON SUMMARY_JSON [dasrate arguments...]

Each function in TARGETS is wrapped at every public name a dasrate module
holds it under (`selection.ergodic_sum_rate`, `simulate.select_mode`, ...),
since modules import one another's functions by name. A call records a span
(name, start, end, parent) in memory; at exit the spans go to SPANS_JSON and
per-function calls, self time (duration minus the time child spans cover),
inclusive time and counters go to SUMMARY_JSON. A target that no longer
exists is listed as absent. Only in-process calls are seen, so run the
command with --jobs 1.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

TARGETS = (
    "numerics.exp_e1",
    "geometry.drop_users_uniform",
    "geometry.pathloss_matrix",
    "modes.enumerate_ideal",
    "modes.enumerate_min_distance",
    "rate.ergodic_sum_rate",
    "rate.partition_for_user",
    "rate.ergodic_user_rate",
    "selection.select_mode",
    "simulate.mc_ergodic_sum_rate",
    "simulate.cell_average",
    "simulate.mode_histogram",
    "experiments.sweep_curves",
    "experiments.curve_to_csv",
    "experiments.histogram_to_csv",
)


class Tracer:
    """Spans in flat arrays, one entry per call, in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            end_a.append(0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - covered
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_ns, minlength=n) / 1e9
        incl_s = np.bincount(name, weights=dur, minlength=n) / 1e9
        return {nm: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                     "incl_s": float(incl_s[i])}
                for i, nm in enumerate(self.names)}

    def spans_json(self) -> dict:
        t0 = self.start[0] if self.start else 0
        return {"clock": "time.perf_counter_ns, relative to the first span",
                "names": self.names,
                "name": self.name.tolist(),
                "start_ns": [t - t0 for t in self.start],
                "end_ns": [t - t0 for t in self.end],
                "parent": self.parent.tolist()}


class Counters:
    """Work counts observed at the traced boundaries."""

    def __init__(self) -> None:
        self.values = {"selection.candidates_scored": 0,
                       "simulate.mc_channels": 0}
        self.partitions: set = set()

    def observers(self, originals: dict) -> dict:
        """Callbacks (args, kwargs, result) for the targets that exist."""
        def arg(target, name):
            signature = inspect.signature(originals[target])
            return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]

        out = {}
        if "selection.select_mode" in originals:
            cands = arg("selection.select_mode", "candidates")

            def scored(args, kwargs, result):
                self.values["selection.candidates_scored"] += len(cands(args, kwargs))
            out["selection.select_mode"] = scored
        if "simulate.mc_ergodic_sum_rate" in originals:
            n_channels = arg("simulate.mc_ergodic_sum_rate", "n_channels")

            def channels(args, kwargs, result):
                self.values["simulate.mc_channels"] += n_channels(args, kwargs)
            out["simulate.mc_ergodic_sum_rate"] = channels

        def partition(args, kwargs, result):
            # Gains pin down the drop and user, tx_power the SNR point.
            if result is not None:
                self.partitions.add((result.signal_gains, result.interference_gains,
                                     result.tx_power))
        out["rate.partition_for_user"] = partition
        return out

    def summary(self) -> dict:
        return {**self.values, "rate.distinct_partitions": len(self.partitions)}


def install(tracer: Tracer, counters: Counters) -> list[str]:
    """Wrap every target at each public name that refers to it; return the
    targets that do not exist."""
    originals, absent = {}, []
    for target in TARGETS:
        module_name, attr = target.split(".")
        try:
            module = importlib.import_module(f"dasrate.{module_name}")
        except ImportError:
            absent.append(target)
            continue
        fn = getattr(module, attr, None)
        if callable(fn):
            originals[target] = fn
        else:
            absent.append(target)
    observers = counters.observers(originals)
    modules = [m for n, m in sys.modules.items()
               if n == "dasrate" or n.startswith("dasrate.")]
    for target, fn in originals.items():
        wrapper = tracer.wrap(target, fn, observers.get(target))
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn and not name.startswith("_"):
                    setattr(module, name, wrapper)
    return absent


def main() -> int:
    root = Path(sys.argv[1]).resolve()
    spans_path, summary_path, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import dasrate.cli
    import_s = time.perf_counter() - t0

    tracer, counters = Tracer(), Counters()
    absent = install(tracer, counters)
    t1 = time.perf_counter()
    exit_code = dasrate.cli.main(argv)
    main_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    with open(spans_path, "w") as f:
        json.dump(tracer.spans_json(), f)
    summary = {"exit_code": exit_code, "import_s": import_s, "main_s": main_s,
               "absent": absent, "functions": tracer.summary(),
               "counters": counters.summary()}
    summary["report_s"] = time.perf_counter() - t2
    with open(summary_path, "w") as f:
        json.dump(summary, f, indent=1)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
