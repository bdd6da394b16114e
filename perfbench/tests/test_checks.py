import io
import contextlib

import numpy as np
import pytest

import checks
import oracle
import workloads as wl
from tumorsde.cli import main as cli_main


@pytest.fixture(scope="module")
def ref():
    return checks.SweepReference.bell_p1(-4, 4)


def sweep_text(ref, lams=None, brackets=None, method="fd"):
    lams = ref.lambdas if lams is None else lams
    if brackets is None:
        brackets = [(x - 3e-4, x + 3e-4) for x, _ in ref.crossings]
    lines = ["alpha,lambda,method,stderr"]
    lines += [f"{float(a)!r},{float(lam)!r},{method},0" for a, lam in zip(ref.alphas, lams)]
    lines += [f"# sign_change lo={float(lo)!r} hi={float(hi)!r}" for lo, hi in brackets]
    return "\n".join(lines) + "\n"


def test_exact_sweep_passes(ref):
    res = checks.check_sweep(sweep_text(ref), "fd", ref)
    assert (res.tally.attempted, res.tally.failed) == (403, 0)
    assert res.max_abs_err == 0.0
    assert res.crossing_err < 1e-12


def test_perturbed_fd_point_fails_but_closed_only_reports(ref):
    lams = ref.lambdas.copy()
    lams[123] += 10 * ref.fd_tol
    assert checks.check_sweep(sweep_text(ref, lams), "fd", ref).tally.failed == 1
    closed = checks.check_sweep(sweep_text(ref, lams, method="closed"), "closed", ref)
    assert closed.tally.failed == 0
    assert closed.max_abs_err == pytest.approx(10 * ref.fd_tol)


def test_non_finite_and_wrong_method_fail(ref):
    lams = ref.lambdas.copy()
    lams[7] = np.nan
    assert checks.check_sweep(sweep_text(ref, lams), "fd", ref).tally.failed == 1
    assert checks.check_sweep(sweep_text(ref, method="mc"), "fd", ref).tally.failed == 403


@pytest.mark.parametrize("method", ["fd", "closed"])
def test_wrong_missing_or_spurious_crossings_fail(ref, method):
    (x0, _), (x1, _) = ref.crossings
    shifted = [(x0 + 0.05, x0 + 0.0506), (x1 - 3e-4, x1 + 3e-4)]
    assert checks.check_sweep(sweep_text(ref, brackets=shifted, method=method),
                              method, ref).tally.failed == 1
    missing = [(x1 - 3e-4, x1 + 3e-4)]
    assert checks.check_sweep(sweep_text(ref, brackets=missing, method=method),
                              method, ref).tally.failed >= 1
    extra = [(x0 - 3e-4, x0 + 3e-4), (x1 - 3e-4, x1 + 3e-4), (3.5, 3.5006)]
    res = checks.check_sweep(sweep_text(ref, brackets=extra, method=method), method, ref)
    assert (res.tally.attempted, res.tally.failed) == (404, 1)


def test_fd_crossing_outside_its_bracket_fails(ref):
    (x0, _), (x1, _) = ref.crossings
    # right grid cell and direction, but 3e-3 away from the exact zero
    off = [(x0 + 3e-3, x0 + 3.5e-3), (x1 - 3e-4, x1 + 3e-4)]
    assert checks.check_sweep(sweep_text(ref, brackets=off), "fd", ref).tally.failed == 1
    assert checks.check_sweep(sweep_text(ref, brackets=off, method="closed"),
                              "closed", ref).tally.failed == 0


def test_unparseable_sweep_fails_everything(ref):
    res = checks.check_sweep("not a csv\n", "fd", ref)
    assert res.tally.attempted == res.tally.failed == 403


def test_real_closed_sweep_reports_its_error(ref, tmp_path):
    call = wl.WORKLOADS["sweep-closed"].call(1, 0, str(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(list(call.argv)) == 0
    with open(call.out, encoding="utf-8") as fh:
        res = checks.check_sweep(fh.read(), "closed", ref)
    assert res.tally.failed == 0
    assert res.max_abs_err == pytest.approx(0.705, abs=1e-3)
    assert res.crossing_err == pytest.approx(0.169, abs=1e-3)


def test_mc_check():
    line = "lambda={} method=mc stderr={} n=320 horizon=5 dt=0.0002\n"
    assert checks.check_mc(0, line.format(1.05, 0.01), 1.0)[0]
    assert not checks.check_mc(0, line.format(1.2, 0.01), 1.0)[0]
    assert not checks.check_mc(0, line.format("nan", 0.01), 1.0)[0]
    assert not checks.check_mc(3, "", 1.0)[0]


def simulate(tmp_path, seed, steps):
    out = str(tmp_path / f"traj-{seed}-{steps}.csv")
    argv = ["simulate", "--model", "kt", "--equilibrium", "P2", "--scheme", "euler2",
            "--dt", repr(wl.SIM_DT), "--noise", ",".join(map(repr, wl.SIM_NOISE)),
            "--x0", repr(wl.SIM_X0), "--y0", repr(wl.SIM_Y0), "--steps", str(steps),
            "--seed", str(seed), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    return out, oracle.kt_wiener_increments(seed, steps, wl.SIM_DT)


def test_trajectory_check(tmp_path):
    path, dw = simulate(tmp_path, 5, 300)
    assert checks.check_trajectory(path, 300, dw) == (True, 300, "")
    lines = open(path, encoding="utf-8").read().splitlines()

    def rewrite(new_lines):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(new_lines) + "\n")
        return checks.check_trajectory(path, 300, dw)[0]

    n, t, x, y = lines[6].split(",")
    assert not rewrite(lines[:6] + [f"{n},{t},{float(x) * (1 + 1e-6)!r},{y}"] + lines[7:])
    assert not rewrite(lines[:-1])
    # a blow-up marker where the next step is finite is rejected
    assert not rewrite(lines[:101] + ["# blowup at n=100"])


def test_trajectory_check_accepts_a_real_blow_up(tmp_path):
    seed = (3 << 24) + 3  # this path blows up at step 8176
    path, dw = simulate(tmp_path, seed, 9000)
    ok, done, note = checks.check_trajectory(path, 9000, dw)
    assert ok, note
    assert done == 8175
