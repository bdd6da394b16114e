"""Phase coefficients, stationary density, three exponent estimators, sweeps."""

import math

import numpy as np
import pytest

import alpha_exact
from tumorsde import lyapunov
from tumorsde.integrate import RngStream, gaussian_pairs
from tumorsde.lyapunov import (
    TWO_PI,
    DegeneratePhaseDiffusionError,
    closed_form_lyapunov,
    lyapunov_fd,
    lyapunov_mc,
    phase_coefficients,
    stability_sweep,
    stationary_density_fd,
)
from tumorsde.models import BELL_PARAMS, KT_PARAMS, Mat2, bell_equilibria, \
    bell_model, kt_equilibria, kt_model
from tumorsde.sde import LinearSDE, alpha_family, linearize


def _sys(a_entries, b_entries):
    return LinearSDE(Mat2(*a_entries), Mat2(*b_entries))


def _kt_p2_sys(alpha, beta=-2.0):
    m = kt_model()
    e = kt_equilibria(KT_PARAMS)[1]
    return linearize(m, alpha_family(alpha, beta), e)


def _bell_p1_sys(alpha, beta=-2.0):
    m = bell_model()
    e = bell_equilibria(BELL_PARAMS)[0]
    return linearize(m, alpha_family(alpha, beta), e)


# ---------------------------------------------------------------- coefficients

def test_phase_coefficients_at_zero():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=4), rng.normal(size=4)
    q = phase_coefficients(_sys(a, b), 0.0)
    tol = 1e-14
    assert abs(q.q1 - a[0]) < tol and abs(q.q2 - b[0]) < tol
    assert abs(q.q3 - a[2]) < tol and abs(q.q4 - b[2]) < tol
    assert abs(q.q5 - (b[3] - b[0])) < tol


def test_phase_coefficients_at_half_pi():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=4), rng.normal(size=4)
    q = phase_coefficients(_sys(a, b), math.pi / 2)
    tol = 1e-14
    assert abs(q.q1 - a[3]) < tol and abs(q.q2 - b[3]) < tol
    assert abs(q.q3 + a[1]) < tol and abs(q.q4 + b[1]) < tol
    assert abs(q.q5 + (b[3] - b[0])) < tol


def test_trace_identities_random():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a, b = rng.normal(size=4), rng.normal(size=4)
        th = rng.uniform(0, TWO_PI)
        s = _sys(a, b)
        q, qq = phase_coefficients(s, th), phase_coefficients(s, th + math.pi / 2)
        assert abs(q.q1 + qq.q1 - (a[0] + a[3])) < 1e-12
        assert abs(q.q2 + qq.q2 - (b[0] + b[3])) < 1e-12
        # q5 is dq4/dtheta
        h = 1e-5
        dq4 = (phase_coefficients(s, th + h).q4 - phase_coefficients(s, th - h).q4) / (2 * h)
        assert abs(q.q5 - dq4) < 1e-6


def test_phase_coefficients_on_arrays_match_scalars():
    s = _sys((0.3, -1.0, 0.7, -0.5), (1.5, -0.4, 1.1, 0.2))
    th = np.linspace(0.0, TWO_PI, 7)
    grid = phase_coefficients(s, th)
    for k, t in enumerate(th):
        one = phase_coefficients(s, float(t))
        for name in ("q1", "q2", "q3", "q4", "q5"):
            assert getattr(grid, name)[k] == getattr(one, name)


# --------------------------------------------------------------------- density

@pytest.mark.parametrize("a", [0.3, -1.2])
@pytest.mark.parametrize("span", [TWO_PI, math.pi])
def test_uniform_density_for_rotation_noise(a, span):
    # the density is solved over one period [0, pi]; its pi-periodic
    # extension to [0, span], renormalised, is uniform at 1/span
    s = _sys((a, 0, 0, a), (0, -1.0, 1.0, 0))
    dens = stationary_density_fd(s, n=500)
    assert np.abs(dens.values - 1.0 / math.pi).max() < 1e-12
    periods = round(span / math.pi)
    extended = np.concatenate([dens.values[1:]] * periods) / periods
    assert len(extended) == 500 * periods
    assert np.abs(extended - 1.0 / span).max() < 1e-12
    assert dens.periodicity_defect < 1e-12


def test_density_degenerate_q4_raises():
    # b12 = b21 = 0.5 makes q4 = 0.5 cos(2 theta), zero at theta = pi/4
    s = _sys((0.1, 0, 0, 0.1), (0, 0.5, 0.5, 0))
    with pytest.raises(DegeneratePhaseDiffusionError, match="mc"):
        stationary_density_fd(s, n=1000)


def test_density_normalization_kt_p2():
    dens = stationary_density_fd(_kt_p2_sys(0.0), n=10000)
    assert abs(np.sum(dens.values[1:]) * dens.step - 1.0) < 1e-8
    assert dens.values.min() >= 0.0
    assert len(dens.values) == 10001
    assert dens.periodicity_defect < 1e-10


def test_density_grid_validation():
    s = _sys((0.1, 0, 0, 0.1), (0, -1.0, 1.0, 0))
    with pytest.raises(ValueError):
        stationary_density_fd(s, n=1)


# ------------------------------------------------------------------ fd exponent

def test_fd_constant_integrand_reductions():
    # q2, q4 constant makes the integrand density-independent:
    # lambda = a + (beta^2 - alpha^2)/2 exactly
    cases = [
        ((0.1, 0.0, 1.0), 0.6),    # B = [[0,-1],[1,0]]
        ((0.1, 0.5, 1.0), 0.475),
        ((1.0, 1.0, 2.0), 2.5),
    ]
    for (a, alpha, beta), expect in cases:
        s = LinearSDE(Mat2(a, 0, 0, a), alpha_family(alpha, beta))
        est = lyapunov_fd(s, n=2000)
        assert est.method == "fd" and est.stderr == 0.0
        assert abs(est.value - expect) < 1e-6


def test_fd_diagnostics_fields():
    est = lyapunov_fd(_kt_p2_sys(1.0), n=4000)
    assert est.n == 4000
    assert "periodicity_defect" in est.diagnostics
    assert "min_q4_sq" in est.diagnostics
    assert abs(est.diagnostics["min_q4_sq"] - 4.0) < 1e-12


def test_fd_solves_one_period():
    # q1..q5 are functions of 2 theta: the density is solved on n steps
    # over [0, pi], so the first-order error bound has step pi / n
    a_mat = _drift_matrix("KT-P2")
    n = 10000
    tol = math.pi / n * alpha_exact.osc_q1(a_mat)
    for alpha in (-1.0, 1.5):
        s = LinearSDE(a_mat, alpha_family(alpha, -2.0))
        dens = stationary_density_fd(s, n=n)
        assert dens.step == math.pi / n and len(dens.values) == n + 1
        exact = float(alpha_exact.top_lyapunov(a_mat, alpha, -2.0, m=512))
        assert abs(lyapunov_fd(s, n=n).value - exact) <= tol, alpha


@pytest.mark.parametrize("make_sys", [_kt_p2_sys, _bell_p1_sys])
def test_fd_grid_convergence_first_order(make_sys):
    s = make_sys(1.5)
    lam = {n: lyapunov_fd(s, n=n).value for n in (2500, 5000, 10000)}
    assert abs(lam[2500] - lam[5000]) <= 4 * abs(lam[5000] - lam[10000]) + 1e-9


@pytest.mark.parametrize("alpha", [5.0, -5.0])
def test_fd_error_does_not_grow_with_n(alpha):
    # KT P1, beta = -2: k0 = (a21 - a12 - 2 alpha beta) / beta^2 is about
    # alpha, so a forward recurrence would grow by e^{2 pi k0} at alpha = +5
    # and lose the periodic density to cancellation as n grows
    a_mat = linearize(kt_model(), alpha_family(0.0, -2.0),
                      kt_equilibria(KT_PARAMS)[0]).A
    exact = float(alpha_exact.top_lyapunov(a_mat, alpha, -2.0))
    s = LinearSDE(a_mat, alpha_family(alpha, -2.0))
    err = {n: abs(lyapunov_fd(s, n=n).value - exact) for n in (10000, 40000)}
    for n, e in err.items():
        assert e <= math.pi / n * alpha_exact.osc_q1(a_mat)
    assert err[40000] <= err[10000]


# -------------------------------------------------------- recurrence scan

def _loop_scan(r, f, max_log_r):
    """The node-by-node loop that _affine_scan replaced, in its r = num /
    den, f = flux / den form: a reference for the blocked scan."""
    ph, pp = [1.0], [0.0]
    for ri, fi in zip(r.tolist(), f.tolist()):
        ph.append(ri * ph[-1])
        pp.append(fi + ri * pp[-1])
    return np.array(ph), np.array(pp)


def _density_or_error(s, n):
    try:
        return stationary_density_fd(s, n=n).values
    except DegeneratePhaseDiffusionError as exc:
        return str(exc)


def _scan_and_loop(monkeypatch, s, n):
    """stationary_density_fd's values (or rejection message) by the scan
    and by the reference loop."""
    scan = _density_or_error(s, n)
    with monkeypatch.context() as m:
        m.setattr(lyapunov, "_affine_scan", _loop_scan)
        loop = _density_or_error(s, n)
    return scan, loop


def _assert_same_density(scan, loop):
    assert not isinstance(loop, str), loop
    assert not isinstance(scan, str), scan
    assert np.abs(scan - loop).max() <= 1e-12 * np.abs(loop).max()


# A = (0.3, -1, 0.7, -0.5), B = (1.5, -0.4, 1.1, 0.2): q4 nearly vanishes,
# so coarse grids carry non-positive recurrence denominators
_ROUGH = ((0.3, -1.0, 0.7, -0.5), (1.5, -0.4, 1.1, 0.2))


def _nonpositive_denominators(s, n):
    """Grid nodes i = 1..n whose recurrence denominator is <= 0."""
    h = math.pi / n
    q = phase_coefficients(s, h * np.arange(1, n + 1))
    denom = 2 * h * (-q.q3 + q.q2 * q.q4 + q.q4 * q.q5) + q.q4 ** 2
    return np.count_nonzero(denom <= 0)


def test_scan_matches_loop_on_random_general_noise(monkeypatch):
    rng = np.random.default_rng(11)
    resolved = 0
    for _ in range(200):
        s = _sys(rng.normal(size=4), rng.normal(size=4))
        scan, loop = _scan_and_loop(monkeypatch, s, 10000)
        if isinstance(loop, str):
            # q4 has roots here and the solve amplifies rounding: both
            # reject, but rounding decides whether the mass or the
            # positivity check fires first
            assert isinstance(scan, str)
            continue
        if _nonpositive_denominators(s, 10000):
            # negative ratios amplify rounding: against an extended-
            # precision run the loop itself is off by about 1e-5 here
            assert not isinstance(scan, str), scan
            assert np.abs(scan - loop).max() <= 1e-5 * np.abs(loop).max()
            continue
        _assert_same_density(scan, loop)
        resolved += 1
    assert resolved >= 80


def test_fd_reports_nonpositive_denominators():
    # none on the alpha family at beta = -2; on the seed-11 random
    # systems the density solve accepts some grids that have them
    for label in ("Bell-P1", "Bell-P2", "KT-P1", "KT-P2"):
        for alpha in (-4.0, -1.5, 0.0, 2.5):
            s = LinearSDE(_drift_matrix(label), alpha_family(alpha, -2.0))
            assert stationary_density_fd(s, n=10000).nonpositive_denominators == 0
            assert lyapunov_fd(s, n=10000).diagnostics["nonpositive_denominators"] == 0
    rng = np.random.default_rng(11)
    flagged = 0
    for _ in range(200):
        s = _sys(rng.normal(size=4), rng.normal(size=4))
        try:
            est = lyapunov_fd(s, n=10000)
        except DegeneratePhaseDiffusionError:
            continue
        count = est.diagnostics["nonpositive_denominators"]
        assert count == _nonpositive_denominators(s, 10000)
        flagged += count > 0
    assert flagged == 2


def _scan_io(monkeypatch, s, n):
    """(r, f, max_log_r, ph): what stationary_density_fd passes to
    _affine_scan and the homogeneous solution it gets back."""
    seen = []
    real = lyapunov._affine_scan

    def spy(r, f, max_log_r):
        ph, pp = real(r, f, max_log_r)
        seen.append((r, f, max_log_r, ph))
        return ph, pp

    with monkeypatch.context() as m:
        m.setattr(lyapunov, "_affine_scan", spy)
        stationary_density_fd(s, n=n)
    return seen[0]


@pytest.mark.parametrize("alpha, beta", [(-1.0, -0.1), (0.0, -0.1),
                                         (1.0, -0.1), (0.0, -0.08)])
def test_scan_matches_loop_at_small_beta(monkeypatch, alpha, beta):
    # Bell P1 at small |beta|: the homogeneous solution decays by e^-500
    # to e^-630 (beta = -0.1) and below the smallest double (beta = -0.08)
    # across the period; at -0.08 a one-pass ph cumsum(f / ph) overflows
    s = _bell_p1_sys(alpha, beta=beta)
    _, f, _, ph = _scan_io(monkeypatch, s, 10000)
    with np.errstate(divide="ignore", over="ignore"):
        naive_finite = np.isfinite(np.cumsum(f / ph[1:])).all()
    assert naive_finite == (beta == -0.1)
    _assert_same_density(*_scan_and_loop(monkeypatch, s, 10000))


@pytest.mark.parametrize("beta, n", [(-0.01, 1000), (-0.005, 10000)])
def test_scan_shortens_blocks_for_steep_ratios(monkeypatch, beta, n):
    # KT P2 at tiny |beta|: single steps change the solution by e^7 and
    # more, so a full block's products would leave floating-point range
    s = _kt_p2_sys(0.0, beta=beta)
    _, _, max_log_r, _ = _scan_io(monkeypatch, s, n)
    assert max_log_r * lyapunov._SCAN_BLOCK > 709
    _assert_same_density(*_scan_and_loop(monkeypatch, s, n))


def test_scan_keeps_rejection_of_unresolved_grid(monkeypatch):
    # at n = 10^4 the grid has non-positive denominators and the density
    # loses positivity; scan and loop reject it with the same message
    s = _sys(*_ROUGH)
    assert _nonpositive_denominators(s, 10000) == 437
    scan, loop = _scan_and_loop(monkeypatch, s, 10000)
    assert scan == loop and "lost positivity" in scan


def test_fd_resolves_rough_system_on_finer_grid(monkeypatch):
    # the n = 4e4 grid resolves it; the value agrees with mc's -0.120 +- 0.004
    s = _sys(*_ROUGH)
    assert _nonpositive_denominators(s, 40000) == 0
    _assert_same_density(*_scan_and_loop(monkeypatch, s, 40000))
    value = lyapunov_fd(s, n=40000).value
    with monkeypatch.context() as m:
        m.setattr(lyapunov, "_affine_scan", _loop_scan)
        assert abs(value - lyapunov_fd(s, n=40000).value) <= 1e-9
    assert abs(value - (-0.121373)) < 1e-6


def test_double_angle_grid_is_cached_and_read_only():
    basis = lyapunov._double_angle_grid(64)
    assert lyapunov._double_angle_grid(64) is basis
    theta = math.pi / 64 * np.arange(65)
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    assert basis.shape == (5, 65)
    for row, want in zip(basis, (np.ones(65), c, s, c * c, c * s)):
        assert np.array_equal(row, want)
    with pytest.raises(ValueError):
        basis[1, 0] = 0.0


def test_polar_rows_match_phase_coefficients():
    # rows @ (1, c, s, c^2, c s) against the same drifts evaluated from
    # q1..q5 at the angles themselves
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.normal(size=4), rng.normal(size=4)
        theta = rng.uniform(-4.0, 4.0, size=16)
        c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
        values = lyapunov._polar_rows(_sys(a, b)) @ np.stack(
            (np.ones_like(c), c, s, c * c, c * s))
        q = phase_coefficients(_sys(a, b), theta)
        want = (q.q1 + 0.5 * (q.q4 * q.q4 - q.q2 * q.q2),
                q.q3 - q.q2 * q.q4, q.q2, q.q4,
                -q.q3 + q.q2 * q.q4 + q.q4 * q.q5)
        scale = 1.0 + np.abs(a).max() + np.abs(b).max() ** 2
        assert np.abs(values - np.array(want)).max() <= 1e-13 * scale


# ------------------------------------------------------------------ closed form

def test_closed_density_beta_zero_rejected():
    with pytest.raises(ValueError):
        closed_form_lyapunov(Mat2(0.5, 0, 0, 0.5), alpha=0.0, beta=0.0)


def test_closed_lyapunov_symmetric_family():
    est = closed_form_lyapunov(Mat2(1.0, 0, 0, 1.0), alpha=1.0, beta=2.0)
    assert abs(est.value - 2.5) < 1e-9
    assert est.method == "closed"


def test_closed_matches_fd_on_constant_integrand():
    for a, alpha, beta in [(0.1, 0.0, 1.0), (1.0, 1.0, 2.0), (0.3, 0.8, 1.3)]:
        s = LinearSDE(Mat2(a, 0, 0, a), alpha_family(alpha, beta))
        fd = lyapunov_fd(s, n=4000).value
        cl = closed_form_lyapunov(Mat2(a, 0, 0, a), alpha, beta).value
        assert abs(fd - cl) < 1e-6


_ALPHA_FAMILY_SYSTEMS = {
    "Bell-P1": (bell_model, bell_equilibria, BELL_PARAMS, 0),
    "Bell-P2": (bell_model, bell_equilibria, BELL_PARAMS, 1),
    "KT-P1": (kt_model, kt_equilibria, KT_PARAMS, 0),
    "KT-P2": (kt_model, kt_equilibria, KT_PARAMS, 1),
}


def _drift_matrix(label, beta=-2.0):
    model, equilibria, params, k = _ALPHA_FAMILY_SYSTEMS[label]
    return linearize(model(), alpha_family(0.0, beta), equilibria(params)[k]).A


@pytest.mark.parametrize("label", sorted(_ALPHA_FAMILY_SYSTEMS))
def test_closed_matches_exact_alpha_family(label):
    a_mat = _drift_matrix(label)
    alphas = np.linspace(-5.0, 5.0, 81)
    exact = alpha_exact.top_lyapunov(a_mat, alphas, -2.0, m=512)
    closed = np.array([closed_form_lyapunov(a_mat, al, -2.0).value for al in alphas])
    assert np.abs(closed - exact).max() <= 1e-12


def test_closed_reference_values():
    bell = closed_form_lyapunov(_drift_matrix("Bell-P1"), 1.5, -2.0)
    kt = closed_form_lyapunov(_drift_matrix("KT-P2"), 0.0, -2.0)
    assert abs(bell.value - 0.674072950792) < 1e-12
    assert abs(kt.value - 5.066377875413) < 1e-12
    assert bell.diagnostics["roundoff"] < 1e-14


def test_closed_within_fd_error_on_bell_p1_grid():
    # fd is an independent, first-order algorithm: its error at grid n is
    # bounded by (pi / n) osc(q1)
    a_mat = _drift_matrix("Bell-P1")
    n = 10000
    tol = math.pi / n * alpha_exact.osc_q1(a_mat)
    for alpha in np.arange(-4.0, 4.01, 0.25):
        fd = lyapunov_fd(LinearSDE(a_mat, alpha_family(alpha, -2.0)), n=n).value
        cl = closed_form_lyapunov(a_mat, alpha, -2.0).value
        assert abs(fd - cl) <= tol, alpha


def test_closed_rejects_unresolvable_density():
    # |P| reaches amp = 20 with a large drift k0 = 40: the FFT round-off of
    # e^{-P} is amplified by about e^{2 amp}, so no exponent is returned
    beta, alpha, amp, k0 = -1.0, 0.3, 20.0, 40.0
    d = k0 * beta ** 2 + 2 * alpha * beta
    a_mat = Mat2(amp * beta ** 2, -d / 2, d / 2, -amp * beta ** 2)
    with pytest.raises(DegeneratePhaseDiffusionError, match="round-off"):
        closed_form_lyapunov(a_mat, alpha, beta)
    with pytest.raises(DegeneratePhaseDiffusionError, match="range"):
        closed_form_lyapunov(Mat2(800.0, 0.0, 0.0, -800.0), alpha, beta)
    # the same amplitude without drift has zero flux and p = e^P exactly
    ok = closed_form_lyapunov(Mat2(amp, 0.3, -0.3, -amp), 0.3, beta)
    assert ok.diagnostics["roundoff"] < 1e-12
    assert ok.n == 128  # nodes over [0, pi): the next power of two >= 4 amp + 32


def test_closed_large_alpha_is_negative():
    m = kt_model()
    a_p1 = linearize(m, alpha_family(10.0, -2.0), kt_equilibria(KT_PARAMS)[0]).A
    est = closed_form_lyapunov(a_p1, alpha=10.0, beta=-2.0)
    assert est.value < 0.0


# ------------------------------------------------------------------ monte carlo

def _reference_mc(s, horizon, dt, paths, seed, stream_base=0):
    """The per-step loop that lyapunov_mc's fused kernel replaced: theta
    itself is advanced and q1..q4 are evaluated from the angle table at
    every step.  A reference for the kernel; returns (value, stderr)."""
    (q1m, q1c, q1s), (q2m, q2c, q2s), (q3m, q3c, q3s), (q4m, q4c, q4s), _ = \
        lyapunov._angle_table(s)
    nsteps = lyapunov.mc_step_count(horizon, dt)
    streams = [RngStream(seed, stream_base + p) for p in range(paths)]
    theta = np.array([TWO_PI * st.uniforms(1)[0] for st in streams])
    logr = np.zeros(paths)
    done = 0
    while done < nsteps:
        blen = min(lyapunov._MC_BLOCK, nsteps - done)
        dw = np.empty((paths, blen))
        for p, st in enumerate(streams):
            dw[p] = gaussian_pairs(st, blen)
        dw *= math.sqrt(dt)
        for k in range(blen):
            c2t = np.cos(2.0 * theta)
            s2t = np.sin(2.0 * theta)
            q1 = q1m + q1c * c2t + q1s * s2t
            q2 = q2m + q2c * c2t + q2s * s2t
            q3 = q3m + q3c * c2t + q3s * s2t
            q4 = q4m + q4c * c2t + q4s * s2t
            w = dw[:, k]
            logr += (q1 + 0.5 * (q4 * q4 - q2 * q2)) * dt + q2 * w
            theta += (q3 - q2 * q4) * dt + q4 * w
        done += blen
    per_path = logr / (nsteps * dt)
    stderr = float(per_path.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return float(per_path.mean()), stderr


_MC_KERNEL_CASES = {
    "Bell-P1": (lambda: _bell_p1_sys(1.5), dict(horizon=2.0, paths=32, seed=3)),
    "KT-P2": (lambda: _kt_p2_sys(-3.0), dict(horizon=2.0, paths=32, seed=7)),
    "general-noise": (lambda: _sys((-0.2, 0.5, -0.8, 0.1), (0.5, -1.2, 1.0, 1.4)),
                      dict(horizon=5.0, paths=16, seed=31)),
    "sigma-I": (lambda: _sys((1.0, 0, 0, 1.0), (0.5, 0, 0, 0.5)),
                dict(horizon=5.0, paths=16, seed=2)),
    "zero-noise": (lambda: _sys((0.2, 0, 0, -0.5), (0, 0, 0, 0)),
                   dict(horizon=20.0, dt=2e-3, paths=4, seed=4)),
    "one-path": (lambda: _kt_p2_sys(0.5), dict(horizon=2.0, paths=1, seed=6)),
    "two-blocks": (lambda: _kt_p2_sys(0.5),
                   dict(horizon=1e-3 * (lyapunov._MC_BLOCK + 500), paths=3, seed=9)),
    # 96 paths: blocks of 2730 steps (the normals bound), odd last block
    "normals-bound": (lambda: _bell_p1_sys(-3.0),
                      dict(horizon=1e-3 * (lyapunov._MC_BLOCK_NORMALS // 96 + 501),
                           paths=96, seed=5)),
}


@pytest.mark.parametrize("label", list(_MC_KERNEL_CASES))
def test_mc_kernel_matches_reference_loop(label):
    make, kw = _MC_KERNEL_CASES[label]
    kw = {"dt": 1e-3, **kw}
    s = make()
    est = lyapunov_mc(s, **kw)
    value, stderr = _reference_mc(s, **kw)
    assert abs(est.value - value) <= 1e-12 * abs(value)
    assert abs(est.stderr - stderr) <= 1e-12 * stderr


def test_mc_scalar_noise_oracle():
    # B = sigma I gives q4 = 0: log-growth a - sigma^2/2; fd is inapplicable
    a, sigma = 1.0, 0.5
    s = _sys((a, 0, 0, a), (sigma, 0, 0, sigma))
    with pytest.raises(DegeneratePhaseDiffusionError):
        lyapunov_fd(s, n=500)
    est = lyapunov_mc(s, horizon=50.0, dt=1e-3, paths=48, seed=2)
    assert est.method == "mc" and est.n == 48 and est.stderr > 0
    assert abs(est.value - (a - sigma ** 2 / 2)) < 3 * est.stderr


def test_mc_rotation_noise_exact():
    # q2 = 0 makes the log-growth increment deterministic
    a, beta = 0.1, 1.0
    s = LinearSDE(Mat2(a, 0, 0, a), alpha_family(0.0, beta))
    est = lyapunov_mc(s, horizon=20.0, dt=1e-3, paths=8, seed=3)
    assert est.stderr < 1e-12
    assert abs(est.value - (a + beta ** 2 / 2)) < 1e-9


def test_mc_zero_noise_top_eigenvalue():
    s = _sys((0.2, 0, 0, -0.5), (0, 0, 0, 0))
    est = lyapunov_mc(s, horizon=500.0, dt=2e-3, paths=4, seed=4)
    assert abs(est.value - 0.2) < 1e-2


def test_mc_determinism_and_config_checks():
    s = _kt_p2_sys(0.5)
    e1 = lyapunov_mc(s, horizon=2.0, dt=1e-3, paths=4, seed=6)
    e2 = lyapunov_mc(s, horizon=2.0, dt=1e-3, paths=4, seed=6)
    assert e1.value == e2.value
    with pytest.raises(ValueError):
        lyapunov_mc(s, horizon=0.0, dt=1e-3, paths=4)
    with pytest.raises(ValueError):
        lyapunov_mc(s, horizon=1.0, dt=1e-3, paths=0)
    for horizon, dt in ((1e300, 1e-300), (1e9, 1e-9), (4e-4, 1e-3)):
        with pytest.raises(ValueError, match="Euler step count"):
            lyapunov_mc(s, horizon=horizon, dt=dt, paths=1)


def test_density_independent_methods_agree():
    # q2, q4 constant: fd and closed exact, mc within noise
    a, alpha, beta = 0.3, 0.8, 1.3
    expect = a + (beta ** 2 - alpha ** 2) / 2
    s = LinearSDE(Mat2(a, 0, 0, a), alpha_family(alpha, beta))
    fd = lyapunov_fd(s, n=2000).value
    cl = closed_form_lyapunov(Mat2(a, 0, 0, a), alpha, beta).value
    mc = lyapunov_mc(s, horizon=50.0, dt=1e-3, paths=64, seed=8)
    assert abs(fd - cl) < 1e-6
    assert abs(fd - expect) < 1e-6
    assert abs(mc.value - expect) < 3 * mc.stderr


def test_fd_matches_mc_for_general_noise():
    # b11 != b22, so q5 = dq4/dtheta enters the fd recurrence; the alpha
    # family (b11 = b22, q5 = 0) cannot see an error in it
    s = _sys((-0.2, 0.5, -0.8, 0.1), (0.5, -1.2, 1.0, 1.4))
    fd = lyapunov_fd(s, n=10000).value
    mc = lyapunov_mc(s, horizon=100.0, dt=1e-3, paths=64, seed=31)
    assert abs(fd - mc.value) <= 4 * mc.stderr + 0.01


# ----------------------------------------------------------------------- sweep

def test_sweep_brackets_nest_under_grid_refinement():
    m, e = bell_model(), bell_equilibria(BELL_PARAMS)[0]
    coarse = stability_sweep(m, e, -2.0, np.arange(-4, 4.01, 0.5),
                             method="fd", grid_n=2000)
    fine = stability_sweep(m, e, -2.0, np.arange(-4, 4.01, 0.25),
                           method="fd", grid_n=2000)
    assert len(coarse.sign_changes) == len(fine.sign_changes) == 2
    for (clo, chi), (flo, fhi) in zip(coarse.sign_changes, fine.sign_changes):
        assert chi - clo <= 1e-3 and fhi - flo <= 1e-3
        assert abs(0.5 * (clo + chi) - 0.5 * (flo + fhi)) < 1.5e-3


def test_sweep_stable_set_matches_signs():
    m, e = bell_model(), bell_equilibria(BELL_PARAMS)[0]
    r = stability_sweep(m, e, -2.0, np.arange(-4, 4.01, 0.5),
                        method="fd", grid_n=2000)
    # outer stability: negative at the edges, positive in the middle
    assert r.lambdas[0] < 0 and r.lambdas[-1] < 0
    assert max(r.lambdas) > 0
    assert len(r.stable_set) == 2
    assert r.stable_set[0][0] == -4.0 and r.stable_set[1][1] == 4.0
    for lo, hi in r.sign_changes:
        assert hi - lo <= 1e-3
    # stable-set endpoints sit at the refined crossings
    assert abs(r.stable_set[0][1] - 0.5 * sum(r.sign_changes[0])) < 1e-12
    assert abs(r.stable_set[1][0] - 0.5 * sum(r.sign_changes[1])) < 1e-12


def test_sweep_empty_grid():
    m, e = bell_model(), bell_equilibria(BELL_PARAMS)[0]
    r = stability_sweep(m, e, -2.0, [], method="fd")
    assert r.alphas.size == 0 and r.sign_changes == [] and r.stable_set == []


def test_sweep_records_per_point_failures():
    m, e = bell_model(), bell_equilibria(BELL_PARAMS)[0]
    r = stability_sweep(m, e, 0.0, [0.0, 1.0], method="fd", grid_n=500)
    assert len(r.failures) == 2
    assert np.isnan(r.lambdas).all()
    assert r.sign_changes == [] and r.stable_set == []


def test_sweep_grid_must_increase():
    m, e = bell_model(), bell_equilibria(BELL_PARAMS)[0]
    with pytest.raises(ValueError):
        stability_sweep(m, e, -2.0, [1.0, 0.5], method="fd")


def test_sweep_mc_reproducible():
    m, e = bell_model(), bell_equilibria(BELL_PARAMS)[0]
    kw = dict(method="mc", horizon=2.0, dt=1e-2, paths=8, seed=11)
    r1 = stability_sweep(m, e, -2.0, [0.0, 1.0], **kw)
    r2 = stability_sweep(m, e, -2.0, [0.0, 1.0], **kw)
    assert np.array_equal(r1.lambdas, r2.lambdas)
    assert (r1.stderrs > 0).all()
