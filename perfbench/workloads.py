"""The four benchmark workloads as ``tumorsde`` CLI calls.

Standard library only: the worker imports this module before it starts
timing the import of ``tumorsde`` (numpy and scipy included).

An *operation* is one ``tumorsde.cli.main`` call; a *cycle* is the run
of consecutive operations that covers a workload's inputs once.  Runs
measure whole cycles.  Operations are kept short (0.1 to 1.5 s) so
that each run has many of them, because interference from other tenants
of the host comes in phases of several seconds (see calibrate.py):

* ``sweep-fd`` -- the 401-point alpha grid of the Bell model at P1 as 16
  ``tumorsde sweep`` calls of 25 or 26 points (work: alpha points);
* ``sweep-closed`` -- the same grid as one ``tumorsde sweep`` call;
* ``lyapunov-mc`` -- criterion 3's four hardest cases, one
  ``tumorsde lyapunov --method mc`` call each (work: paths x steps);
* ``simulate-csv`` -- two ``tumorsde simulate`` calls with the same
  seed, so the runner can check that the CSV is byte-identical (work:
  completed steps).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

BETA = -2.0
ALPHA_STEP = 0.02
# (lo, hi) of the sweep-fd calls: together the grid -4, -3.98, ..., 4
FD_CHUNKS = tuple((lo / 2, lo / 2 + 0.48) for lo in range(-8, 7)) + ((3.5, 4),)
FULL_GRID = ((-4, 4),)
FD_GRID_N = 10000  # the CLI's default --grid-n
REFINE_TOL = 1e-3  # stability_sweep's bisection width

# (label, model, equilibrium, dt, alpha); KT-P2 needs the finer step
# because |a21| ~ 25 there (criterion 3)
MC_CASES = (
    ("KT-P2", "kt", "P2", 2e-4, -3.0),
    ("KT-P2", "kt", "P2", 2e-4, 1.5),
    ("Bell-P1", "bell", "P1", 5e-4, -3.0),
    ("Bell-P1", "bell", "P1", 5e-4, 1.5),
)
MC_PATHS = 320
MC_HORIZON = 5.0

SIM_STEPS = 20_000
SIM_DT = 1e-3
SIM_NOISE = (1.0, -0.2, 0.2, 1.0)
SIM_X0, SIM_Y0 = 1.6, 25.0


@dataclass(frozen=True)
class Call:
    """One in-process ``tumorsde.cli.main`` call."""

    argv: tuple
    work: int  # alpha points, path-steps or steps
    out: str = ""  # CSV the call writes, if any
    meta: dict = field(default_factory=dict, compare=False)


def alpha_grid(lo: float, hi: float) -> list:
    """The alphas ``--alpha=lo:hi:0.02`` sweeps, computed as the CLI does."""
    count = int((hi - lo) / ALPHA_STEP + 0.5) + 1
    return [lo + ALPHA_STEP * k for k in range(count)]


def _sweep(method, chunks):
    def build(seed, k, prefix):
        lo, hi = chunks[k % len(chunks)]
        out = prefix + "-sweep.csv"
        argv = ("sweep", "--model", "bell", "--equilibrium", "P1",
                "--beta", "-2", f"--alpha={lo}:{hi}:{ALPHA_STEP}",
                "--method", method, "--out", out)
        return Call(argv, len(alpha_grid(lo, hi)), out,
                    {"method": method, "lo": lo, "hi": hi})
    return build


def mc_seed(seed: int, k: int) -> int:
    """CLI seed of mc operation k: distinct for every (seed, k)."""
    return (seed << 24) + k


def _mc(seed, k, prefix):
    j = k % len(MC_CASES)
    label, model, eq, dt, alpha = MC_CASES[j]
    argv = ("lyapunov", "--model", model, "--equilibrium", eq,
            f"--alpha={alpha!r}", "--beta", "-2", "--method", "mc",
            "--paths", str(MC_PATHS), "--dt", repr(dt),
            "--horizon", repr(MC_HORIZON), "--seed", str(mc_seed(seed, k)))
    steps = int(round(MC_HORIZON / dt))
    return Call(argv, MC_PATHS * steps, "", {"case": j, "label": label, "alpha": alpha})


def sim_seed(seed: int, k: int) -> int:
    """CLI seed of simulate operation k: operations 2i and 2i+1 share it."""
    return (seed << 24) + k // 2


def _simulate(seed, k, prefix):
    out = prefix + "-traj.csv"
    argv = ("simulate", "--model", "kt", "--equilibrium", "P2",
            "--scheme", "euler2", "--dt", repr(SIM_DT),
            "--noise", ",".join(repr(v) for v in SIM_NOISE),
            "--x0", repr(SIM_X0), "--y0", repr(SIM_Y0),
            "--steps", str(SIM_STEPS), "--seed", str(sim_seed(seed, k)),
            "--out", out)
    return Call(argv, SIM_STEPS, out, {"seed": sim_seed(seed, k)})


@dataclass(frozen=True)
class Workload:
    name: str
    work_name: str  # what `throughput` counts, by its name in the report
    cycle: int  # operations per cycle
    build: object = field(repr=False, compare=False)

    def call(self, seed: int, k: int, workdir: str, tag: str = "") -> Call:
        """Operation k for workload seed `seed`; its output file is named
        after `tag` (default: k)."""
        return self.build(seed, k, os.path.join(workdir, tag or str(k)))


WORKLOADS = {
    "sweep-fd": Workload("sweep-fd", "points_per_s", len(FD_CHUNKS),
                         _sweep("fd", FD_CHUNKS)),
    "sweep-closed": Workload("sweep-closed", "points_per_s", 1,
                             _sweep("closed", FULL_GRID)),
    "lyapunov-mc": Workload("lyapunov-mc", "path_steps_per_s", len(MC_CASES), _mc),
    "simulate-csv": Workload("simulate-csv", "steps_per_s", 2, _simulate),
}
