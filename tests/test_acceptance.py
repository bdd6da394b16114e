"""End-to-end acceptance criteria.

Each test prints one `CRITERION <id> ... PASS/FAIL` line (visible with
pytest -s, and in the captured output otherwise) and enforces its
runtime budget.

Criterion 4 checks the fd stability sweep of each equilibrium under the
alpha-family noise B = alpha I + beta J (beta = -2) against the exact
exponent of that family (``alpha_exact``: Khasminskii's stationary
angle density, solved spectrally).  The sweep must find as many zero
crossings as the exact exponent has in the swept range.  Each bracket's
midpoint must lie within refine_tol / 2 of the exact root, plus fd's
error bound 1e-12 (1 + |lambda|) carried through the exact slope, and
the bracket, widened by that carried bound, must hold the root.  For
KT P1 every grid value must also lie in the analytic bracket
eig(sym A) + (beta^2 - alpha^2) / 2, which holds for any angle density,
and within that bound of the exact value, and the stable set must end
at the exact crossings.  The published readings do not follow from the
Ito model dX = A X dt + B X dW for Bell P2, KT P2 and KT P1 (see the
README); they are kept as data and printed with the exact exponent at
each reading.  The criterion is no longer red by design.
"""

import math
import time
from dataclasses import astuple

import numpy as np
import pytest

import alpha_exact
from density_nodes import density_at_nodes, density_modes
from euler_ref import euler1_step, euler2_step
from tumorsde.cli import main
from tumorsde.integrate import rng_stream, wiener_increments
from tumorsde import lyapunov
from tumorsde.lyapunov import (
    TWO_PI,
    DegeneratePhaseDiffusionError,
    closed_form_lyapunov,
    lyapunov_fd,
    lyapunov_mc,
    stability_sweep,
)
from tumorsde.models import (
    Equilibrium,
    Mat2,
    State,
    bell_model,
    find_equilibria_numeric,
    jacobian,
    kt_model,
    model_equilibria,
)
from tumorsde.sde import LinearSDE, alpha_family, diffusion_at_equilibrium, linearize
from tumorsde.integrate import SimConfig, simulate


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {cid}: {'PASS' if ok else 'FAIL'} -- {detail}")


def _elapsed_ok(cid, t0, budget):
    dt = time.time() - t0
    print(f"CRITERION {cid}: runtime {dt:.1f}s (budget {budget}s)")
    assert dt < budget


# ------------------------------------------------------------------ criterion 1

def test_c1_equilibrium_reproduction():
    t0 = time.time()
    # oracle values from evaluating the closed-form expressions with the
    # default coefficients (residuals < 1e-15 by direct substitution);
    # the independent Newton search must agree
    kt_expect = {"P1": (0.3151854817187083, 0.0),
                 "P2": (1.5534604346698473, 25.2260285238853)}
    eqs = {e.label: e.point for e in model_equilibria(kt_model())[0]}
    ok = True
    for label, (ex, ey) in kt_expect.items():
        ok &= abs(eqs[label].x - ex) < 1e-4 and abs(eqs[label].y - ey) < 1e-4
    found = find_equilibria_numeric(kt_model(), ((0.0, 50.0), (0.0, 50.0)), grid=8)
    ok &= len(found) == 2
    for f, (ex, ey) in zip(found, sorted(kt_expect.values())):
        ok &= math.hypot(f.point.x - ex, f.point.y - ey) < 1e-6
    bell_p2 = model_equilibria(bell_model())[0][1].point
    ok &= abs(bell_p2.x - 0.17857142857142858) < 1e-6
    ok &= abs(bell_p2.y - 2.5) < 1e-6
    bell_found = find_equilibria_numeric(bell_model(), ((0.0, 10.0), (0.0, 10.0)))
    ok &= any(math.hypot(f.point.x - bell_p2.x, f.point.y - bell_p2.y) < 1e-6
              for f in bell_found)
    _report("1", ok, f"KT {eqs['P1']}, {eqs['P2']}; Bell P2 {bell_p2}")
    assert ok
    _elapsed_ok("1", t0, 1.0)


# ------------------------------------------------------------------ criterion 2

def test_c2_analytic_lyapunov_oracles():
    t0 = time.time()
    # (i) isotropic noise B = sigma I: growth a - sigma^2/2; the grid
    # method is inapplicable there (q4 = 0)
    a, sigma = 1.0, 0.5
    s_iso = LinearSDE(Mat2(a, 0, 0, a), Mat2(sigma, 0, 0, sigma))
    with pytest.raises(DegeneratePhaseDiffusionError):
        lyapunov_fd(s_iso)
    mc_iso = lyapunov_mc(s_iso, horizon=200.0, dt=1e-3, paths=64, seed=2)
    exact_iso = a - sigma ** 2 / 2
    ok_i = abs(mc_iso.value - exact_iso) <= 3 * mc_iso.stderr
    # (ii) rotation noise B = [[0,-b],[b,0]]: growth a + b^2/2
    a2, beta = 0.1, 1.0
    exact_rot = a2 + beta ** 2 / 2
    s_rot = LinearSDE(Mat2(a2, 0, 0, a2), alpha_family(0.0, beta))
    fd = lyapunov_fd(s_rot)
    cl = closed_form_lyapunov(Mat2(a2, 0, 0, a2), 0.0, beta)
    mc = lyapunov_mc(s_rot, horizon=200.0, dt=1e-3, paths=64, seed=2)
    ok_fd = abs(fd.value - exact_rot) <= 1e-6
    ok_cl = abs(cl.value - exact_rot) <= 1e-6
    # q2 = 0 makes every path's log-growth deterministic: stderr is 0
    # exactly, so allow only float accumulation (1e-9)
    ok_mc = abs(mc.value - exact_rot) <= max(3 * mc.stderr, 1e-9)
    ok = ok_i and ok_fd and ok_cl and ok_mc
    _report("2", ok,
            f"iso mc={mc_iso.value:.4f}+-{mc_iso.stderr:.4f} vs {exact_iso}; "
            f"rot fd={fd.value:.8f} closed={cl.value:.8f} "
            f"mc={mc.value:.10f} vs {exact_rot}")
    assert ok
    _elapsed_ok("2", t0, 120.0)


# ------------------------------------------------------------------ criterion 3

def test_c3_cross_method_consistency():
    t0 = time.time()
    m_kt, m_bell = kt_model(), bell_model()
    a_ktp2 = linearize(m_kt, alpha_family(0.0, -2.0),
                       model_equilibria(kt_model())[0][1]).A
    a_bp1 = linearize(m_bell, alpha_family(0.0, -2.0),
                      model_equilibria(bell_model())[0][0]).A
    alphas = (-3.0, -1.0, 0.0, 1.5, 3.0)
    # dt per system: the KT-P2 matrix has |a21| ~ 25, so the Euler bias
    # needs the finer step; Bell-P1 coefficients are order 1
    cases = (("KT-P2", a_ktp2, 2e-4), ("Bell-P1", a_bp1, 5e-4))
    ok = True
    rows = []
    for name, a_mat, dt in cases:
        for k, alpha in enumerate(alphas):
            s = LinearSDE(a_mat, alpha_family(alpha, -2.0))
            fd = lyapunov_fd(s).value
            mc = lyapunov_mc(s, horizon=150.0, dt=dt, paths=320,
                             seed=1000, stream_base=k << 32)
            tol = max(3 * mc.stderr, 5e-3)
            diff = abs(fd - mc.value)
            ok &= diff <= tol
            rows.append(f"{name} a={alpha:+.1f}: |fd-mc|={diff:.4f} tol={tol:.4f}")
    _report("3", ok, "; ".join(rows))
    assert ok
    _elapsed_ok("3", t0, 600.0)


# ------------------------------------------------------------------ criterion 4

BETA = -2.0
REFINE_TOL = 1e-3  # stability_sweep's default bracket width
SWEEP_KW = dict(method="fd", refine_tol=REFINE_TOL)

# Published stability readings for the alpha-family noise with beta = -2
# (crossing alphas; KT-P1 was read as stable for every alpha).  Only
# Bell-P1 agrees with the Ito model dX = A X dt + B X dW; the others are
# kept as data and printed beside the exact exponent at each reading.
PUBLISHED = {"Bell-P1": (-1.78, 2.02), "Bell-P2": (-1.62, 1.88),
             "KT-P2": (-1.8, 1.8), "KT-P1": ()}


def _drift_matrix(model, eq):
    return linearize(model, alpha_family(0.0, BETA), eq).A


def _fd_tol(lam):
    """fd's error bound at the exponent lam, spectral in the mode count."""
    return 1e-12 * (1.0 + np.abs(lam))


def _root_slack(a_mat, root):
    """fd's error bound at lambda = 0 carried through the exact slope at
    the root: how far fd may place the crossing from the exact one."""
    return _fd_tol(0.0) / abs(alpha_exact.slope(a_mat, root, BETA))


def _crossing_tol(a_mat, root):
    """Half the refined bracket plus ``_root_slack``."""
    return REFINE_TOL / 2 + _root_slack(a_mat, root)


def _published_detail(name, a_mat):
    readings = PUBLISHED[name]
    lams = ", ".join(
        f"lambda({al:+.2f})={float(alpha_exact.top_lyapunov(a_mat, al, BETA)):+.4f}"
        for al in readings or (0.0,))
    return f"published {readings or 'stable for every alpha'}, exact {lams}"


def _check_crossings(name, model, eq, lo=-4.0, hi=4.0, step=0.02):
    t0 = time.time()
    cid = f"4/{name}"
    a_mat = _drift_matrix(model, eq)
    r = stability_sweep(model, eq, BETA, np.arange(lo, hi + step / 2, step),
                        **SWEEP_KW)
    mids = [0.5 * (a + b) for a, b in r.sign_changes]
    roots = alpha_exact.crossings(a_mat, BETA, lo, hi)
    tols = [_crossing_tol(a_mat, x) for x in roots]
    ok = len(mids) == len(roots) and all(
        abs(m - x) <= t for m, x, t in zip(mids, roots, tols))
    # each bracket, widened by the slack, holds the exact root
    ok = ok and all(a - _root_slack(a_mat, x) <= x <= b + _root_slack(a_mat, x)
                    for (a, b), x in zip(r.sign_changes, roots))
    detail = (f"crossings={[f'{m:+.4f}' for m in mids]} "
              f"exact={[f'{x:+.4f}' for x in roots]} "
              f"tol={[f'{t:.1e}' for t in tols]}; "
              + _published_detail(name, a_mat))
    _report(cid, ok, detail)
    assert ok, detail
    _elapsed_ok(cid, t0, 900.0)


def test_c4_intervals_bell_p1():
    _check_crossings("Bell-P1", bell_model(), model_equilibria(bell_model())[0][0])


def test_c4_intervals_bell_p2():
    _check_crossings("Bell-P2", bell_model(), model_equilibria(bell_model())[0][1])


def test_c4_intervals_kt_p2():
    _check_crossings("KT-P2", kt_model(), model_equilibria(kt_model())[0][1])


def test_c4_kt_p1_stable_for_all_alpha():
    t0 = time.time()
    m, eq = kt_model(), model_equilibria(kt_model())[0][0]
    a_mat = _drift_matrix(m, eq)
    grid = np.arange(-5.0, 5.01, 0.25)
    r = stability_sweep(m, eq, BETA, grid, **SWEEP_KW)
    exact = alpha_exact.top_lyapunov(a_mat, grid, BETA)
    low, high = alpha_exact.radial_bracket(a_mat, grid, BETA)
    ok = bool(np.all((low <= r.lambdas) & (r.lambdas <= high)))
    err = np.abs(r.lambdas - exact)
    ok &= bool(np.all(err <= _fd_tol(exact)))
    # the exact stable set runs from the grid edges to the exact crossings
    roots = alpha_exact.crossings(a_mat, BETA, grid[0], grid[-1])
    edges = ([grid[0]] if exact[0] <= 0 else []) + roots + \
        ([grid[-1]] if exact[-1] <= 0 else [])
    ends = [e for iv in r.stable_set for e in iv]
    tols = [_crossing_tol(a_mat, e) if e in roots else 0.0 for e in edges]
    ok &= len(ends) == len(edges) and all(
        abs(e - x) <= t for e, x, t in zip(ends, edges, tols))
    worst = int(np.nanargmax(err))
    detail = (f"stable set {[(f'{a:+.4f}', f'{b:+.4f}') for a, b in r.stable_set]} "
              f"exact crossings {[f'{x:+.4f}' for x in roots]}; "
              f"max |fd - exact| = {err[worst]:.2e} at alpha = {grid[worst]:+.2f} "
              f"(tol {_fd_tol(exact[worst]):.2e}); " + _published_detail("KT-P1", a_mat)
              + ", bracket at alpha 0 [{:.4f}, {:.4f}]".format(
                  *alpha_exact.radial_bracket(a_mat, 0.0, BETA)))
    _report("4/KT-P1", ok, detail)
    assert ok, detail
    _elapsed_ok("4/KT-P1", t0, 900.0)


# ------------------------------------------------------------------ criterion 5

def test_c5_weak_order():
    t0 = time.time()
    a, sigma, horizon, paths = 0.05, 0.2, 1.0, 100_000
    drift = lambda s: (a * s[0], a * s[1])
    diff = lambda s: (sigma * s[0], sigma * s[1])
    dpart = lambda s: ((a, 0.0), (a, 0.0))
    gpart = lambda s: ((sigma, 0.0), (sigma, 0.0))
    dts = (0.02, 0.01, 0.005)

    def weak_error(scheme, dt, sid):
        """Mean of scheme(T) - E[x(T)] via two zero-mean controls: the
        exact sampler driven by the same increments and the accumulated
        Milstein term along the exact path."""
        steps = int(round(horizon / dt))
        st = rng_stream(777, sid)
        x = np.ones(paths)
        y = np.ones(paths)
        ex = np.ones(paths)
        ctrl = np.zeros(paths)
        for n in range(steps):
            dw = wiener_increments(st, paths, dt)
            grow = math.exp(a * (horizon - (n + 1) * dt))
            ctrl += 0.5 * sigma * sigma * ex * (dw * dw - dt) * grow
            if scheme == "euler1":
                x, y = euler1_step(drift, diff, (x, y), dt, dw, dw)
            else:
                x, y = euler2_step(drift, diff, dpart, gpart, (x, y), dt, dw, dw)
            ex *= np.exp((a - 0.5 * sigma * sigma) * dt + sigma * dw)
        d = (x - ex) + ctrl
        return d.mean(), d.std(ddof=1) / math.sqrt(paths)

    design = np.vstack([np.log(dts), np.ones(3)]).T
    ok = True
    details = []
    for si, (scheme, threshold) in enumerate((("euler1", 0.8), ("euler2", 1.7))):
        errs, ses = [], []
        for di, dt in enumerate(dts):
            err, se = weak_error(scheme, dt, 10 * di + 5 * si)
            # the schemes' exact mean recursions on this system
            per = 1 + a * dt + (a * dt) ** 2 / 2 * (scheme == "euler2")
            predicted = per ** int(round(horizon / dt)) - math.exp(a * horizon)
            ok &= abs(err - predicted) <= 4 * se
            errs.append(err)
            ses.append(se)
        ae = np.maximum(np.abs(errs), ses)  # floor at noise level
        w = np.diag((ae / np.asarray(ses)) ** 2)
        cov = np.linalg.inv(design.T @ w @ design)
        slope = float((cov @ design.T @ w @ np.log(ae))[0])
        se_slope = math.sqrt(cov[0, 0])
        ok &= slope + 3 * se_slope >= threshold
        details.append(f"{scheme}: order {slope:.2f}+-{se_slope:.2f} "
                       f"(needs +3se >= {threshold})")
    _report("5", ok, "; ".join(details))
    assert ok
    _elapsed_ok("5", t0, 300.0)


# ------------------------------------------------------------------ criterion 6

def _q(sys, theta):
    """q1..q5 at theta: m + c cos 2theta + s sin 2theta for each row
    (m, c, s) of the angle table."""
    c2t, s2t = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return [m + c * c2t + s * s2t for m, c, s in lyapunov._angle_table(sys)]


def _trapezoid(y, x):
    """The trapezoid rule in the order of operations of np.trapezoid,
    which numpy added in 2.0; np.trapz, its 1.x name, is gone from 2.4."""
    return (np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum()


def _random_nondegenerate_systems(seed):
    """N(0,1) matrix pairs restricted to systems the grid method can
    resolve: q4 bounded away from zero, bounded homogeneous dynamic
    range, and a grid size below 3e5 nodes."""
    rng = np.random.default_rng(seed)
    th = np.linspace(0.0, TWO_PI, 2001)
    c, s = np.cos(th), np.sin(th)
    while True:
        a = Mat2(*rng.normal(size=4))
        b = Mat2(*rng.normal(size=4))
        q2 = b.a11 * c * c + (b.a12 + b.a21) * c * s + b.a22 * s * s
        q3 = a.a21 * c * c + (a.a22 - a.a11) * c * s - a.a12 * s * s
        q4 = b.a21 * c * c + (b.a22 - b.a11) * c * s - b.a12 * s * s
        q5 = -(b.a12 + b.a21) * np.sin(2 * th) - (b.a22 - b.a11) * np.cos(2 * th)
        q4sq = q4 * q4
        if q4sq.min() < 1e-3:
            continue
        ratio = np.abs(-q3 + q2 * q4 + q4 * q5) / q4sq
        if 2.0 * _trapezoid(ratio, th) > 100.0:
            continue
        need = 40.0 * TWO_PI * ratio.max()
        if need > 3e5:
            continue
        yield a, b, max(2000, int(need))


def test_c6_property_suites(tmp_path):
    t0 = time.time()
    ok = True
    # density normalization and positivity on 100 random systems
    worst_mass, min_value = 0.0, math.inf
    solved, attempts = 0, 0
    for a, b, n in _random_nondegenerate_systems(seed=99):
        attempts += 1
        assert attempts < 500
        try:
            modes = density_modes(LinearSDE(a, b))
        except DegeneratePhaseDiffusionError:
            continue  # solver declined this system: draw another
        values = density_at_nodes(modes, n).real
        worst_mass = max(worst_mass, abs(float(np.sum(values[1:]) * math.pi / n) - 1.0))
        min_value = min(min_value, float(values.min()))
        solved += 1
        if solved == 100:
            break
    ok &= worst_mass <= 1e-8 and min_value >= 0.0
    # trace identities on 1000 random inputs
    rng = np.random.default_rng(5)
    worst_trace = 0.0
    for _ in range(1000):
        a, b = rng.normal(size=4), rng.normal(size=4)
        s = LinearSDE(Mat2(*a), Mat2(*b))
        th = rng.uniform(0, TWO_PI)
        q, qq = _q(s, th), _q(s, th + math.pi / 2)
        worst_trace = max(worst_trace, abs(q[0] + qq[0] - (a[0] + a[3])),
                          abs(q[1] + qq[1] - (b[0] + b[3])))
    ok &= worst_trace <= 1e-12
    # diffusion vanishes at its anchor, 100 random cases
    worst_anchor = 0.0
    for _ in range(100):
        b = Mat2(*rng.normal(size=4))
        pt = State(*rng.uniform(-30, 30, 2))
        d = diffusion_at_equilibrium(b, Equilibrium(pt, "numeric", 0.0))
        g1 = b.a11 * pt.x + b.a12 * pt.y + d.c1
        g2 = b.a21 * pt.x + b.a22 * pt.y + d.c2
        scale = max(1.0, abs(pt.x), abs(pt.y))
        worst_anchor = max(worst_anchor, abs(g1) / scale, abs(g2) / scale)
    ok &= worst_anchor <= 1e-13
    # bit-identical CSV reruns
    args = ["simulate", "--model", "kt", "--equilibrium", "P2",
            "--dt", "0.001", "--steps", "300", "--seed", "7",
            "--noise", "1,-0.2,0.2,1", "--x0", "1.6", "--y0", "25.0"]
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    ok &= f1.read_bytes() == f2.read_bytes()
    _report("6", ok, f"mass defect {worst_mass:.2e}, min density {min_value:.2e}, "
                     f"trace {worst_trace:.2e}, anchor {worst_anchor:.2e}")
    assert ok
    _elapsed_ok("6", t0, 60.0)


# ------------------------------------------------------------------ criterion 7

def test_c7_deterministic_dynamics_sanity():
    t0 = time.time()
    m = kt_model()
    eqs = model_equilibria(kt_model())[0]
    p1, p2 = eqs[0].point, eqs[1].point
    # saddle spectrum at P1
    eig = sorted(np.linalg.eigvals(np.reshape(astuple(jacobian(m, p1)), (2, 2))).real)
    ok = abs(eig[0] - (-0.3747)) < 1e-3 and abs(eig[1] - 1.3208) < 1e-3
    # contraction toward P2 from a nearby start
    traj = simulate(m, None, SimConfig(dt=0.01, steps=50_000,
                                       initial=State(1.6, 25.0)))
    target = np.array([p2.x, p2.y])
    dist = np.linalg.norm(traj.states - target, axis=1)
    windows = [dist[i:i + 10_000].max() for i in range(0, 50_000, 10_000)]
    ok &= all(a > b for a, b in zip(windows, windows[1:]))
    ok &= dist[-1] < 1e-2
    # initial growth of the unstable component at P1
    esc = simulate(m, None, SimConfig(dt=0.01, steps=1_000,
                                      initial=State(p1.x, 1e-4)))
    ok &= esc.states[-1, 1] > esc.states[100, 1] > esc.states[0, 1]
    _report("7", ok, f"P1 eigenvalues {eig[0]:.4f}, {eig[1]:.4f}; "
                     f"windows {['%.3f' % w for w in windows]}; "
                     f"saddle y grows to {esc.states[-1, 1]:.2e}")
    assert ok
    _elapsed_ok("7", t0, 30.0)
