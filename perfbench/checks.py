"""Output checks: every CLI result is scored against ``oracle``.

Each check returns a ``Tally`` of operations attempted and failed (one
alpha point, one expected zero crossing, one mc estimate or one
simulate run), the accuracy figures the runner reports, and notes that
say what failed.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

import oracle
import workloads as wl

MC_SIGMAS = 5.0
# criterion 3's Euler-bias floor (5e-3) plus the start-up transient of a
# uniform initial angle over a horizon of 5
MC_BIAS_ALLOWANCE = 0.02
SIM_CHECK_ROWS = 200
SIM_RTOL = 1e-9


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes[:max(0, 20 - len(self.notes))]


@dataclass
class SweepReference:
    """Exact exponents and crossings on the benchmark's alpha grid."""

    alphas: np.ndarray
    lambdas: np.ndarray
    crossings: list  # (alpha*, direction)
    fd_tol: float

    @classmethod
    def bell_p1(cls, lo: float, hi: float) -> "SweepReference":
        """The reference for ``sweep --alpha=lo:hi:0.02`` on Bell P1."""
        a = oracle.linearisation("Bell-P1")
        alphas = np.array(wl.alpha_grid(lo, hi))
        return cls(alphas, oracle.top_lyapunov(a, alphas, wl.BETA),
                   oracle.crossings(a, wl.BETA, alphas),
                   oracle.fd_grid_tolerance(a, wl.FD_GRID_N))


@dataclass
class SweepCheck:
    tally: Tally
    max_abs_err: float = math.nan
    crossing_err: float = math.nan


def parse_sweep_csv(text: str):
    """(rows, sign_changes): rows of (alpha, lambda, method), brackets
    (lo, hi) from the ``# sign_change`` footer.  Raises ValueError on a
    malformed file."""
    lines = text.splitlines()
    if not lines or lines[0] != "alpha,lambda,method,stderr":
        raise ValueError("missing sweep header")
    rows, brackets = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            m = re.fullmatch(r"# sign_change lo=(\S+) hi=(\S+)", line)
            if m:
                brackets.append((float(m.group(1)), float(m.group(2))))
            continue
        alpha, lam, method, _stderr = line.split(",")
        rows.append((float(alpha), float(lam), method))
    return rows, brackets


def check_sweep(text: str, method: str, ref: SweepReference) -> SweepCheck:
    """Score one sweep CSV.

    Every row must be finite and carry the method; fd rows must also be
    within the grid tolerance of the exact exponent (closed is checked
    for finiteness only: its error is reported, not gated).  The
    reported crossings must match the exact ones in number and direction,
    and for fd the refined bracket, widened by the refinement tolerance,
    must contain the exact crossing.
    """
    tally = Tally()
    try:
        rows, brackets = parse_sweep_csv(text)
    except ValueError as exc:
        tally.attempted += ref.alphas.size + len(ref.crossings)
        tally.failed += ref.alphas.size + len(ref.crossings)
        tally.notes.append(f"unparseable sweep CSV: {exc}")
        return SweepCheck(tally)
    if len(rows) != ref.alphas.size:
        tally.notes.append(f"{len(rows)} rows, expected {ref.alphas.size}")
    errs = []
    lams = np.full(ref.alphas.size, np.nan)
    for k, exact in enumerate(ref.lambdas):
        if k >= len(rows):
            tally.add(False)
            continue
        alpha, lam, meth = rows[k]
        ok = (abs(alpha - ref.alphas[k]) <= 1e-9 and meth == method
              and math.isfinite(lam))
        if ok:
            lams[k] = lam
            errs.append(abs(lam - exact))
            if method == "fd":
                ok = errs[-1] <= ref.fd_tol
        tally.add(ok, f"alpha={ref.alphas[k]:+.2f}: lambda={lam!r} "
                      f"exact={exact:.6g} method={meth}")
    tally.attempted += max(0, len(rows) - ref.alphas.size)
    tally.failed += max(0, len(rows) - ref.alphas.size)

    reported = []
    for lo, hi in brackets:
        k = int(np.searchsorted(ref.alphas, hi))
        if not 0 < k < ref.alphas.size or math.isnan(lams[k - 1]) or math.isnan(lams[k]):
            reported.append((0.5 * (lo + hi), 0, hi - lo))
            continue
        direction = 1 if lams[k - 1] <= 0.0 else -1
        reported.append((0.5 * (lo + hi), direction, hi - lo))
    cross_errs = []
    for i, (exact, direction) in enumerate(ref.crossings):
        if i >= len(reported):
            tally.add(False, f"crossing near {exact:+.4f} not reported")
            continue
        mid, got_dir, width = reported[i]
        cross_errs.append(abs(mid - exact))
        ok = got_dir == direction
        if method == "fd":
            ok = ok and cross_errs[-1] <= 0.5 * width + wl.REFINE_TOL
        tally.add(ok, f"crossing {mid:+.6f} (dir {got_dir:+d}) vs exact "
                      f"{exact:+.6f} (dir {direction:+d})")
    extra = max(0, len(reported) - len(ref.crossings))
    tally.attempted += extra
    tally.failed += extra
    if extra:
        tally.notes.append(f"{extra} spurious crossing(s) reported")
    return SweepCheck(tally, max(errs) if errs else math.nan,
                      max(cross_errs) if cross_errs else math.nan)


_MC_LINE = re.compile(r"lambda=(\S+) method=mc stderr=(\S+)")


def mc_references() -> list:
    """Exact exponent of each workload mc case, in case order."""
    return [float(oracle.top_lyapunov(oracle.linearisation(label), alpha, wl.BETA))
            for label, _m, _e, _dt, alpha in wl.MC_CASES]


def check_mc(rc: int, stdout: str, exact: float):
    """(ok, value, stderr, note) for one ``lyapunov --method mc`` call:
    the estimate must lie within MC_SIGMAS standard errors plus the bias
    allowance of the exact exponent."""
    m = _MC_LINE.search(stdout)
    if rc != 0 or m is None:
        return False, math.nan, math.nan, f"exit {rc}, output {stdout.strip()[:120]!r}"
    value, stderr = float(m.group(1)), float(m.group(2))
    ok = (math.isfinite(value) and math.isfinite(stderr) and stderr >= 0.0
          and abs(value - exact) <= MC_SIGMAS * stderr + MC_BIAS_ALLOWANCE)
    return ok, value, stderr, f"mc {value:.6g} +- {stderr:.3g} vs exact {exact:.6g}"


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_trajectory(path: str, steps: int, dw: np.ndarray):
    """(ok, completed steps, note) for one trajectory CSV of the
    simulate workload, driven by the increments dw.

    Needs the header and steps + 1 rows, or, after a ``# blowup at n=k``
    footer, k rows whose next step the bench-side recurrence also takes
    to a non-finite state.  The first rows must equal the bench-side
    recomputation within SIM_RTOL.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return False, 0, f"unreadable trajectory: {exc}"
    if not lines or lines[0] != "n,t,x,y":
        return False, 0, "missing trajectory header"
    body = lines[1:]
    blowup = None
    if body and body[-1].startswith("# blowup at n="):
        blowup = int(body.pop()[len("# blowup at n="):])
    expected = steps + 1 if blowup is None else blowup
    if len(body) != expected or not 1 <= expected <= steps + 1:
        return False, 0, f"{len(body)} rows, expected {expected} (blow-up {blowup})"
    head = np.array([[float(v) for v in line.split(",")[1:]]
                     for line in body[:SIM_CHECK_ROWS]])
    ref = oracle.kt_euler2_reference(dw, len(head), wl.SIM_DT, wl.SIM_X0,
                                     wl.SIM_Y0, wl.SIM_NOISE)
    if not np.allclose(head, ref, rtol=SIM_RTOL, atol=0.0):
        worst = int(np.argmax(np.abs(head - ref).max(axis=1)))
        return False, 0, f"row {worst} {head[worst]} != reference {ref[worst]}"
    if blowup is not None:
        _t, x, y = (float(v) for v in body[-1].split(",")[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = oracle.kt_euler2_step(x, y, dw[blowup - 1], wl.SIM_DT, wl.SIM_NOISE)
        if all(math.isfinite(v) for v in nxt):
            return False, 0, f"blow-up reported at n={blowup} but the step is finite"
    return True, len(body) - 1, ""
