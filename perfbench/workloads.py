"""The benchmark's workloads: each is one `dasrate` CLI command line.

The geometry fields restate the bundled config the command names, so the
reference oracle can rebuild the same drops without importing dasrate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# fig4.cfg, fig5.cfg and fig8.cfg share every field except the counts; the
# transmit power is set per SNR point.
CELL_RADIUS = 6.110100926607787
PATHLOSS_EXPONENT = 3.0
NOISE_POWER = 1.0

# `hist` tallies each range at lo, lo + 5, ... <= hi (the CLI's default step).
HIST_RANGES = ((0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0))
HIST_STEP_DB = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str               # "sweep" or "hist"
    config: str                # bundled config name
    n_ports: int
    n_users: int
    drops: int
    jobs: int
    schemes: tuple[str, ...]
    rating: str = "analytic"
    channels: int | None = None
    snr: str = "0:5:50"

    def cli_args(self, seed: int, out: str, jobs: int | None = None) -> list[str]:
        """Argument list for `dasrate` (after the program name)."""
        args = [self.command, "--config", self.config, "--seed", str(seed),
                "--drops", str(self.drops),
                "--jobs", str(self.jobs if jobs is None else jobs), "--out", out]
        if self.command == "sweep":
            for scheme in self.schemes:
                args += ["--scheme", scheme]
            args += ["--rating", self.rating, "--snr", self.snr]
            if self.channels is not None:
                args += ["--channels", str(self.channels)]
        return args

    def grid_db(self) -> tuple[float, ...]:
        """Distinct SNR points (dB) at which every drop runs a selection."""
        if self.command == "hist":
            points = set()
            for lo, hi in HIST_RANGES:
                db = lo
                while db <= hi + 1e-9:
                    points.add(db)
                    db += HIST_STEP_DB
            return tuple(sorted(points))
        start, step, stop = (float(p) for p in self.snr.split(":"))
        n = int((stop - start) / step + 1e-9) + 1
        return tuple(start + i * step for i in range(n))

    def drop_points(self) -> int:
        """Selections per invocation: schemes x drops x SNR points."""
        return len(self.schemes) * self.drops * len(self.grid_db())

    def resized(self, drops: int) -> "Workload":
        return replace(self, drops=drops)

    def params(self) -> dict:
        return {"command": self.command, "config": self.config,
                "n_ports": self.n_ports, "n_users": self.n_users,
                "drops": self.drops, "jobs": self.jobs,
                "schemes": list(self.schemes), "rating": self.rating,
                "channels": self.channels,
                "snr_db": list(self.grid_db()),
                "drop_points": self.drop_points()}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-ideal",
        why="exhaustive plus nearest-user analytic sweep at N=K=4: 580 "
            "candidates per point, where per-candidate rate object work dominates",
        command="sweep", config="fig5.cfg", n_ports=4, n_users=4,
        drops=10, jobs=1, schemes=("ideal", "min-distance")),
    Workload(
        name="hist-nearest",
        why="nearest-user histogram at N=K=4: 12-mode sets rebuilt per drop "
            "and many cold E1 kernel evaluations",
        command="hist", config="fig8.cfg", n_ports=4, n_users=4,
        drops=500, jobs=1, schemes=("min-distance",)),
    Workload(
        name="sweep-mc",
        why="Monte Carlo rated nearest-user sweep at N=K=3 on a 2-worker "
            "pool, where fading simulation dominates",
        command="sweep", config="fig4.cfg", n_ports=3, n_users=3,
        drops=100, jobs=2, schemes=("min-distance",), rating="mc",
        channels=20000),
)}
