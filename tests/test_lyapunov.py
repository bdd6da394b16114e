"""Phase coefficients, stationary density, three exponent estimators, sweeps."""

import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import alpha_exact
from density_nodes import density_at_nodes, density_modes
from tumorsde import lyapunov
from tumorsde.integrate import rng_stream
from tumorsde.lyapunov import (
    TWO_PI,
    DegeneratePhaseDiffusionError,
    closed_form_lyapunov,
    lyapunov_fd,
    lyapunov_mc,
    stability_sweep,
)
from tumorsde.models import Mat2, bell_model, kt_model, model_equilibria
from tumorsde.sde import LinearSDE, alpha_family, linearize


def _sys(a_entries, b_entries):
    return LinearSDE(Mat2(*a_entries), Mat2(*b_entries))


def _q(sys, theta):
    """q1..q5 at theta: m + c cos 2theta + s sin 2theta for each row
    (m, c, s) of the angle table."""
    c2t, s2t = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return [m + c * c2t + s * s2t for m, c, s in lyapunov._angle_table(sys)]


def _kt_p2_sys(alpha, beta=-2.0):
    m = kt_model()
    e = model_equilibria(kt_model())[0][1]
    return linearize(m, alpha_family(alpha, beta), e)


def _bell_p1_sys(alpha, beta=-2.0):
    m = bell_model()
    e = model_equilibria(bell_model())[0][0]
    return linearize(m, alpha_family(alpha, beta), e)


# ---------------------------------------------------------------- coefficients

def test_phase_coefficients_at_zero():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=4), rng.normal(size=4)
    q1, q2, q3, q4, q5 = _q(_sys(a, b), 0.0)
    tol = 1e-14
    assert abs(q1 - a[0]) < tol and abs(q2 - b[0]) < tol
    assert abs(q3 - a[2]) < tol and abs(q4 - b[2]) < tol
    assert abs(q5 - (b[3] - b[0])) < tol


def test_phase_coefficients_at_half_pi():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=4), rng.normal(size=4)
    q1, q2, q3, q4, q5 = _q(_sys(a, b), math.pi / 2)
    tol = 1e-14
    assert abs(q1 - a[3]) < tol and abs(q2 - b[3]) < tol
    assert abs(q3 + a[1]) < tol and abs(q4 + b[1]) < tol
    assert abs(q5 + (b[3] - b[0])) < tol


def test_trace_identities_random():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a, b = rng.normal(size=4), rng.normal(size=4)
        th = rng.uniform(0, TWO_PI)
        s = _sys(a, b)
        q, qq = _q(s, th), _q(s, th + math.pi / 2)
        assert abs(q[0] + qq[0] - (a[0] + a[3])) < 1e-12
        assert abs(q[1] + qq[1] - (b[0] + b[3])) < 1e-12
        # q5 is dq4/dtheta
        h = 1e-5
        dq4 = (_q(s, th + h)[3] - _q(s, th - h)[3]) / (2 * h)
        assert abs(q[4] - dq4) < 1e-6


# --------------------------------------------------------------------- density

# A = (0.3, -1, 0.7, -0.5), B = (1.5, -0.4, 1.1, 0.2): min q4^2 = 1.4e-4,
# so the density needs 128 modes
_ROUGH = ((0.3, -1.0, 0.7, -0.5), (1.5, -0.4, 1.1, 0.2))


@pytest.mark.parametrize("a", [0.3, -1.2])
@pytest.mark.parametrize("span", [TWO_PI, math.pi])
def test_uniform_density_for_rotation_noise(a, span):
    # the density is solved over one period [0, pi]; its pi-periodic
    # extension to [0, span], renormalised, is uniform at 1/span
    s = _sys((a, 0, 0, a), (0, -1.0, 1.0, 0))
    values = density_at_nodes(density_modes(s), 500).real
    assert np.abs(values - 1.0 / math.pi).max() < 1e-12
    periods = round(span / math.pi)
    extended = np.concatenate([values[1:]] * periods) / periods
    assert len(extended) == 500 * periods
    assert np.abs(extended - 1.0 / span).max() < 1e-12


def test_density_degenerate_q4_raises():
    # b12 = b21 = 0.5 makes q4 = 0.5 cos(2 theta), zero at theta = pi/4
    s = _sys((0.1, 0, 0, 0.1), (0, 0.5, 0.5, 0))
    with pytest.raises(DegeneratePhaseDiffusionError, match="mc"):
        density_modes(s)


def test_density_normalization_kt_p2():
    values = density_at_nodes(density_modes(_kt_p2_sys(0.0)), 10000).real
    assert abs(np.sum(values[1:]) * math.pi / 10000 - 1.0) < 1e-8
    assert values.min() >= 0.0
    assert abs(values[10000] - values[0]) <= 1e-12 * values.max()


@pytest.mark.parametrize("n", [256, 1000, 1001, 2, 7, 64, 255, 10000])
def test_density_values_are_the_modes_at_the_nodes(n):
    # the mode sum at n nodes is real, since p_{-k} = conj(p_k); over the
    # nodes e^{2 i k theta} sums to n where n divides k and to 0 elsewhere,
    # so the nodes' mass is pi times the sum of those p_k: the density has
    # 128 modes, so from n = 129 on only p_0 is left and the mass is 1
    modes = density_modes(_sys(*_ROUGH))
    half = modes.size // 2
    assert half == 128
    values = density_at_nodes(modes, n)
    assert np.abs(values.imag).max() <= 1e-14 * np.abs(values.real).max()
    mass = np.sum(values[1:].real) * math.pi / n
    aliased = math.pi * modes[np.arange(-half, half + 1) % n == 0].sum().real
    assert abs(mass - aliased) <= 1e-14
    if n > half:
        assert abs(mass - 1.0) <= 1e-14


def test_fd_rejects_q4_with_real_zeros():
    # q4 has real zeros exactly when (b22 - b11)^2 + 4 b12 b21 >= 0: 135
    # of the seed-11 systems; every other one has a value
    rng = np.random.default_rng(11)
    rejected = 0
    for _ in range(200):
        s = _sys(rng.normal(size=4), rng.normal(size=4))
        b = s.B
        real_zeros = (b.a22 - b.a11) ** 2 + 4 * b.a12 * b.a21 >= 0
        if real_zeros:
            with pytest.raises(DegeneratePhaseDiffusionError,
                               match="q4 has real zeros.*use the mc method"):
                lyapunov_fd(s)
        else:
            assert math.isfinite(lyapunov_fd(s).value)
        rejected += real_zeros
    assert rejected == 135


def test_fd_rejects_density_beyond_the_mode_cap(monkeypatch):
    # the density needs 128 modes: a cap of 32 rejects it
    s = _sys(*_ROUGH)
    assert lyapunov_fd(s).diagnostics["modes"] == 128
    monkeypatch.setattr(lyapunov, "_MAX_MODES", 32)
    with pytest.raises(DegeneratePhaseDiffusionError,
                       match="not resolved by 32 modes.*use the mc method"):
        lyapunov_fd(s)


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
        est = lyapunov_fd(s)
        assert est.method == "fd" and est.stderr == 0.0
        assert abs(est.value - expect) < 1e-6


def test_fd_diagnostics_fields():
    est = lyapunov_fd(_kt_p2_sys(1.0))
    assert est.n == est.diagnostics["modes"]
    assert set(est.diagnostics) == {"min_q4_sq", "modes", "tail"}
    assert abs(est.diagnostics["min_q4_sq"] - 4.0) < 1e-12
    assert est.diagnostics["modes"] in (16, 32, 64)
    assert est.diagnostics["tail"] <= lyapunov._MODE_TAIL


def test_fd_solves_one_period():
    # q1..q5 are functions of 2 theta: the density is solved over [0, pi]
    a_mat = _drift_matrix("KT-P2")
    n = 10000
    for alpha in (-1.0, 1.5):
        s = LinearSDE(a_mat, alpha_family(alpha, -2.0))
        values = density_at_nodes(density_modes(s), n).real
        assert abs(np.sum(values[1:]) * math.pi / n - 1.0) <= 1e-12
        exact = float(alpha_exact.top_lyapunov(a_mat, alpha, -2.0, m=512))
        assert abs(lyapunov_fd(s).value - exact) <= 1e-12 * (1 + abs(exact)), alpha


@pytest.mark.parametrize("alpha", [5.0, -5.0])
def test_fd_error_does_not_grow_with_n(alpha):
    # KT P1, beta = -2: the drift constant k0 = (a21 - a12 - 2 alpha beta) /
    # beta^2 is about alpha, so the density carries a large flux; the
    # spectral solve is exact to rounding there too
    a_mat = linearize(kt_model(), alpha_family(0.0, -2.0),
                      model_equilibria(kt_model())[0][0]).A
    exact = float(alpha_exact.top_lyapunov(a_mat, alpha, -2.0))
    s = LinearSDE(a_mat, alpha_family(alpha, -2.0))
    assert abs(lyapunov_fd(s).value - exact) <= 1e-12 * (1 + abs(exact))


def test_fd_resolves_rough_system_on_finer_grid():
    # the value agrees with mc's -0.120 +- 0.004 and fd's former
    # Richardson value -0.121361373380 (n = 4e4 and 1.6e5)
    s = _sys(*_ROUGH)
    assert abs(lyapunov_fd(s).value - (-0.1213613733799)) <= 1e-12


# (alpha, beta) -> fd's former Richardson value from n = 10^4 and 4e4
_BELL_P1_SMALL_BETA = {(-1.0, -0.1): 0.000252760134, (0.0, -0.1): 0.386207411294,
                       (1.0, -0.1): -0.275801538695, (0.0, -0.08): 0.389399038262,
                       (1.0, -0.08): -0.231127627995}


@pytest.mark.parametrize("alpha, beta", list(_BELL_P1_SMALL_BETA))
def test_fd_accepts_bell_p1_at_small_beta(alpha, beta):
    # the homogeneous solution of the angle equation decays by e^-500 to
    # below the smallest double across the period: a smooth density all
    # the same
    est = lyapunov_fd(_bell_p1_sys(alpha, beta=beta))
    assert abs(est.value - _BELL_P1_SMALL_BETA[alpha, beta]) <= 1e-6


# (beta, node count n) -> mode count and fd's former Richardson value from
# n = 10^4 and 4e4
_KT_P2_TINY_BETA = {(-0.01, 1000): (512, -0.062265106179),
                    (-0.005, 10000): (1024, -0.074991890891)}


@pytest.mark.parametrize("beta, n", list(_KT_P2_TINY_BETA))
def test_fd_accepts_steep_kt_p2(beta, n):
    # KT P2 at tiny |beta|: q4^2 / 2 = beta^2 / 2 against an angle drift of
    # order 25, so the density needs 512 modes, or the whole cap of 1024;
    # sampled at n > N nodes it keeps mass 1
    s = _kt_p2_sys(0.0, beta=beta)
    modes, value = _KT_P2_TINY_BETA[beta, n]
    est = lyapunov_fd(s)
    assert est.diagnostics["modes"] == est.n == modes
    assert abs(est.value - value) <= 1e-6
    values = density_at_nodes(density_modes(s), n).real
    assert abs(np.sum(values[1:]) * math.pi / n - 1.0) <= 1e-12


def test_fd_allocation_peak():
    # a later kernel must not quietly raise lyapunov_fd's working memory
    for alpha in (-1.0, 1.0):
        s = _bell_p1_sys(alpha)
        lyapunov_fd(s)
        tracemalloc.start()
        try:
            lyapunov_fd(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.9e6, (alpha, peak)


def _fd_allocation_peak(s) -> int:
    tracemalloc.start()
    try:
        lyapunov_fd(s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fd_allocation_peak_at_512_modes():
    # KT P2 at beta = -0.01 needs 512 modes: the block continued fraction
    # keeps O(N) memory per system, where a dense solve of the 1024 real
    # unknowns takes 8.4 MB
    s = _kt_p2_sys(0.0, beta=-0.01)
    assert lyapunov_fd(s).diagnostics["modes"] == 512
    peak = _fd_allocation_peak(s)
    assert peak <= 1e6, peak


def test_fd_allocation_peak_at_1024_modes():
    # KT P2 at beta = -0.005 needs the whole cap of 1024 modes, where a
    # dense solve takes 34 MB
    s = _kt_p2_sys(0.0, beta=-0.005)
    assert lyapunov_fd(s).diagnostics["modes"] == 1024
    peak = _fd_allocation_peak(s)
    assert peak <= 1e6, peak


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_fd_matches_zero_flux_density(seed):
    # A symmetric and alpha = 0: the angle drift q3 = a12 cos 2th + (a22 -
    # a11) sin 2th / 2 has a periodic antiderivative, so the flux p0 is 0
    # and p = exp(2 int q3 / beta^2) = exp((a12 sin 2th - (a22 - a11) cos
    # 2th / 2) / beta^2) up to a factor; lambda is Q's average under it,
    # by the periodic trapezoid rule
    rng = np.random.default_rng(seed)
    a11, a12, a22 = rng.normal(size=3)
    beta = rng.uniform(0.7, 2.0) * rng.choice([-1.0, 1.0])
    s = _sys((a11, a12, a12, a22), (0.0, -beta, beta, 0.0))
    theta = np.arange(4096) * (math.pi / 4096)
    log_p = (a12 * np.sin(2 * theta) - 0.5 * (a22 - a11) * np.cos(2 * theta)) / beta ** 2
    p = np.exp(log_p - log_p.max())
    q1, q2, _, q4, _ = _q(s, theta)
    exact = float(np.sum((q1 + 0.5 * (q4 ** 2 - q2 ** 2)) * p) / np.sum(p))
    est = lyapunov_fd(s)
    assert abs(est.value - exact) <= 1e-13 * (1 + abs(exact)), (est.value, exact)


def _bordered_fd(sys):
    """fd's former solve, as (lambda, N): all modes p_k, |k| <= N, of
    q4^2/2 p' + g p = p0 as one dense complex system, with the flux p0
    as one more unknown and pi p_0 = 1 as one more row."""
    rows = lyapunov._polar_rows(sys)
    diffusion, drift, q = rows[[5, 4, 0]] @ lyapunov._FOURIER
    if not abs(rows[3, 0]) - math.hypot(rows[3, 1], rows[3, 2]) > 0:
        raise DegeneratePhaseDiffusionError(lyapunov._Q4_ROOTS)
    modes = lyapunov._START_MODES
    while True:
        size = 2 * modes + 1
        a = np.zeros((size + 1, size + 1), dtype=complex)
        for k in range(-modes, modes + 1):
            for j in range(max(-2, k - modes), min(2, k + modes) + 1):
                a[k + modes, k - j + modes] = 2j * (k - j) * diffusion[j + 2] + drift[j + 2]
        a[modes, size], a[size, modes] = -1.0, math.pi
        p = np.linalg.solve(a, np.eye(size + 1)[size])[:size]
        tail = np.abs(p[[0, 1, -2, -1]]).max() / abs(p[modes])
        if tail <= lyapunov._MODE_TAIL or modes == lyapunov._MAX_MODES:
            break
        modes *= 2
    if not tail <= lyapunov._MODE_TAIL:
        raise DegeneratePhaseDiffusionError(lyapunov._rejection(modes, tail))
    return math.pi * (p[modes - 2:modes + 3].conj() @ q).real, modes


def _seed_11_systems():
    rng = np.random.default_rng(11)
    return [_sys(rng.normal(size=4), rng.normal(size=4)) for _ in range(200)]


@pytest.mark.parametrize("case", ["Bell-P1", "KT-P1", "KT-P2", "seed-11", "capped"])
def test_fd_matches_bordered_complex_solve(case, monkeypatch):
    # the real solve of p_1..p_N against the bordered complex solve of
    # every mode: the same mode counts and messages, values to rounding;
    # at beta = -0.1 the alpha family needs 64 to 256 modes, and the
    # 128-mode _ROUGH density is rejected under lower caps
    cap = lyapunov._MAX_MODES
    if case == "seed-11":
        systems = [(s, cap) for s in _seed_11_systems()]
    elif case == "capped":
        systems = [(_sys(*_ROUGH), c) for c in (16, 32, 64, cap)]
    else:
        systems = [(LinearSDE(_drift_matrix(case, beta), alpha_family(alpha, beta)), cap)
                   for beta in (-2.0, -0.1) for alpha in np.linspace(-5.0, 5.0, 11)]
    modes = set()
    for s, c in systems:
        monkeypatch.setattr(lyapunov, "_MAX_MODES", c)
        try:
            want, want_modes = _bordered_fd(s)
        except DegeneratePhaseDiffusionError as exc:
            with pytest.raises(DegeneratePhaseDiffusionError) as got:
                lyapunov_fd(s)
            assert str(got.value) == str(exc)
            continue
        est = lyapunov_fd(s)
        assert est.diagnostics["modes"] == want_modes
        assert abs(est.value - want) <= 1e-13 * (1 + abs(want)), (est.value, want)
        modes.add(want_modes)
    if case in _ALPHA_FAMILY_SYSTEMS:
        assert max(modes) >= 128, modes


def test_polar_rows_match_phase_coefficients():
    # rows @ (1, c, s, c^2, c s) against the same drifts evaluated from
    # q1..q5 at the angles themselves; and fd's mode 1 has no p_{-1} term:
    # g_2 - 2 i d_2 = 0 for the modes of its drift g and diffusion d
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.normal(size=4), rng.normal(size=4)
        theta = rng.uniform(-4.0, 4.0, size=16)
        c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
        values = lyapunov._polar_rows(_sys(a, b)) @ np.stack(
            (np.ones_like(c), c, s, c * c, c * s))
        q1, q2, q3, q4, q5 = _q(_sys(a, b), theta)
        want = (q1 + 0.5 * (q4 * q4 - q2 * q2), q3 - q2 * q4, q2, q4,
                -q3 + q2 * q4 + q4 * q5, 0.5 * q4 * q4)
        scale = 1.0 + np.abs(a).max() + np.abs(b).max() ** 2
        assert np.abs(values - np.array(want)).max() <= 1e-13 * scale
        g, d = lyapunov._polar_rows(_sys(a, b))[4:] @ lyapunov._FOURIER
        assert abs(g[4] - 2j * d[4]) <= 1e-15 * scale


# ------------------------------------------------------------------ closed form

def test_closed_density_beta_zero_rejected():
    # q4 = beta: at beta = 0 it is identically zero, so closed rejects it
    # as fd does
    with pytest.raises(DegeneratePhaseDiffusionError, match="q4 has real zeros"):
        closed_form_lyapunov(Mat2(0.5, 0, 0, 0.5), alpha=0.0, beta=0.0)


def test_closed_lyapunov_symmetric_family():
    est = closed_form_lyapunov(Mat2(1.0, 0, 0, 1.0), alpha=1.0, beta=2.0)
    assert abs(est.value - 2.5) < 1e-9
    assert est.method == "closed"


def test_closed_matches_fd_on_constant_integrand():
    for a, alpha, beta in [(0.1, 0.0, 1.0), (1.0, 1.0, 2.0), (0.3, 0.8, 1.3)]:
        s = LinearSDE(Mat2(a, 0, 0, a), alpha_family(alpha, beta))
        fd = lyapunov_fd(s).value
        cl = closed_form_lyapunov(Mat2(a, 0, 0, a), alpha, beta).value
        assert abs(fd - cl) < 1e-6


_ALPHA_FAMILY_SYSTEMS = {
    "Bell-P1": (bell_model, 0),
    "Bell-P2": (bell_model, 1),
    "KT-P1": (kt_model, 0),
    "KT-P2": (kt_model, 1),
}


def _drift_matrix(label, beta=-2.0):
    model, k = _ALPHA_FAMILY_SYSTEMS[label]
    return linearize(model(), alpha_family(0.0, beta), model_equilibria(model())[0][k]).A


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
    assert bell.diagnostics["tail"] <= 1e-14


def test_closed_within_fd_error_on_bell_p1_grid():
    # fd is an independent, spectral algorithm on the same density
    a_mat = _drift_matrix("Bell-P1")
    for alpha in np.arange(-4.0, 4.01, 0.25):
        fd = lyapunov_fd(LinearSDE(a_mat, alpha_family(alpha, -2.0))).value
        cl = closed_form_lyapunov(a_mat, alpha, -2.0).value
        assert abs(fd - cl) <= 1e-12 * (1 + abs(cl)), alpha


def test_closed_resolves_large_amplitude_density():
    # large angle-drift amplitudes, with and without a mean drift, that
    # need 64 and 256 modes: closed agrees with fd's independent solve
    beta, alpha, amp, k0 = -1.0, 0.3, 20.0, 40.0
    d = k0 * beta ** 2 + 2 * alpha * beta
    for a_mat in (Mat2(amp * beta ** 2, -d / 2, d / 2, -amp * beta ** 2),
                  Mat2(800.0, 0.0, 0.0, -800.0), Mat2(amp, 0.3, -0.3, -amp)):
        cl = closed_form_lyapunov(a_mat, alpha, beta)
        fd = lyapunov_fd(LinearSDE(a_mat, alpha_family(alpha, beta)))
        assert abs(cl.value - fd.value) <= 1e-12 * (1 + abs(fd.value))
        assert cl.n == cl.diagnostics["modes"] == fd.diagnostics["modes"]
        assert cl.diagnostics["tail"] <= 1e-14


def test_closed_rejects_density_unresolved_at_the_cap():
    # beta = 0.001: the density is too sharp for 1024 modes, as in fd
    a_mat = _drift_matrix("Bell-P1", 0.001)
    with pytest.raises(DegeneratePhaseDiffusionError,
                       match="not resolved by 1024 modes .* use the mc method"):
        closed_form_lyapunov(a_mat, 1.5, 0.001)
    with pytest.raises(DegeneratePhaseDiffusionError, match="not resolved by 1024"):
        lyapunov_fd(LinearSDE(a_mat, alpha_family(1.5, 0.001)))


def test_closed_nan_tail_fails_only_its_own_point():
    # alpha^2 overflows from |alpha| ~ 1.34e154, so lambda at 2e154 is not
    # finite: that point fails alone, without driving the shared mode
    # count to the cap, and 1e150 keeps fd's exponent
    a_mat = _drift_matrix("Bell-P1", -2.0)
    values, tails, modes, errors = lyapunov._closed_exponents(
        a_mat, -2.0, np.array([0.0, 1.0, 2e154, 1e150]))
    zero, one = (closed_form_lyapunov(a_mat, a, -2.0) for a in (0.0, 1.0))
    assert modes == max(zero.n, one.n) < lyapunov._MAX_MODES
    assert list(errors) == [2] and math.isnan(values[2])
    assert values[:2].tolist() == [zero.value, one.value]
    assert values[3] == lyapunov_fd(LinearSDE(a_mat, alpha_family(1e150, -2.0))).value


def test_closed_large_alpha_is_negative():
    m = kt_model()
    a_p1 = linearize(m, alpha_family(10.0, -2.0), model_equilibria(kt_model())[0][0]).A
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
    gens = [rng_stream(seed, stream_base + p) for p in range(paths)]
    theta = np.array([TWO_PI * (1.0 - gen.random()) for gen in gens])
    dw = np.stack([gen.standard_normal(nsteps) for gen in gens]) * math.sqrt(dt)
    logr = np.zeros(paths)
    for k in range(nsteps):
        c2t = np.cos(2.0 * theta)
        s2t = np.sin(2.0 * theta)
        q1 = q1m + q1c * c2t + q1s * s2t
        q2 = q2m + q2c * c2t + q2s * s2t
        q3 = q3m + q3c * c2t + q3s * s2t
        q4 = q4m + q4c * c2t + q4s * s2t
        w = dw[:, k]
        logr += (q1 + 0.5 * (q4 * q4 - q2 * q2)) * dt + q2 * w
        theta += (q3 - q2 * q4) * dt + q4 * w
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
    # A = a I: the angle drift has no harmonic, R = 0 and phi* = atan2(0, 0)
    "aI-rotation": (lambda: LinearSDE(Mat2(0.1, 0, 0, 0.1), alpha_family(0.5, 1.0)),
                    dict(horizon=5.0, paths=16, seed=3)),
    "one-path": (lambda: _kt_p2_sys(0.5), dict(horizon=2.0, paths=1, seed=6)),
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


def _mc_rows(s, dt):
    """lyapunov_mc's kernel rows (dt Q, 2 dt D, q2, 2 q4)."""
    return lyapunov._polar_rows(s)[:4] * [[dt], [2.0 * dt], [1.0], [2.0]]


@pytest.mark.parametrize("label", list(_MC_KERNEL_CASES))
def test_mc_kernel_choice(label):
    # every alpha-family case takes the alpha kernel: sigma I (beta = 0),
    # B = 0 and A = a I (R = 0) too; a general noise matrix does not
    make, kw = _MC_KERNEL_CASES[label]
    kernel = lyapunov._mc_kernel(_mc_rows(make(), kw.get("dt", 1e-3)))
    general = label == "general-noise"
    assert kernel is (lyapunov._mc_general if general else lyapunov._mc_alpha)


@pytest.mark.parametrize("label", [k for k in _MC_KERNEL_CASES if k != "general-noise"])
def test_mc_alpha_kernel_matches_general_kernel(label):
    # the same Euler scheme on the same streams: log r(T) differs by rounding
    make, kw = _MC_KERNEL_CASES[label]
    dt = kw.get("dt", 1e-3)
    m, nsteps = _mc_rows(make(), dt), lyapunov.mc_step_count(kw["horizon"], dt)
    args = (m, nsteps, dt, kw["seed"], 0, max(kw["paths"], 2))
    fast, general = lyapunov._mc_alpha(*args), lyapunov._mc_general(*args)
    assert np.abs(fast - general).max() <= 1e-10


@pytest.mark.parametrize("noise", [alpha_family(1e200, -2.0), Mat2(1e200, 0.3, -0.2, 1e200)])
def test_mc_overflow_raises_without_warnings(noise):
    # q2^2 overflows, so log r is -inf after one step: the estimate is
    # refused, and neither kernel warns on the way
    s = LinearSDE(_bell_p1_sys(0.0).A, noise)
    m = _mc_rows(s, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(lyapunov._mc_kernel(m)(m, 10, 1e-3, 1, 0, 4)).any()
        with pytest.raises(FloatingPointError, match="lambda=-inf, stderr=nan"):
            lyapunov_mc(s, horizon=0.01, dt=1e-3, paths=4)


def test_mc_alpha_kernel_at_an_infinite_angle_step():
    # alpha beta overflows the angle drift d0: psi is inf after one step and
    # cos(inf) NaN, which ends as a non-finite log r, not a ValueError
    s = LinearSDE(Mat2(-0.2, 0.5, -0.8, 0.1), alpha_family(1e300, 1e10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = _mc_rows(s, 1e-3)
        assert lyapunov._mc_kernel(m) is lyapunov._mc_alpha and np.isinf(m[1, 0])
        assert not np.isfinite(lyapunov._mc_alpha(m, 10, 1e-3, 1, 0, 4)).any()


def test_mc_estimate_does_not_depend_on_sub_block_length(monkeypatch):
    # the alpha kernel adds log r's increments in step order: 201 steps as
    # one sub-block or as 28 of 7 and one of 5 give the same sums
    s = _kt_p2_sys(-3.0)
    kw = dict(horizon=0.201, dt=1e-3, paths=3, seed=9)
    est = lyapunov_mc(s, **kw)
    monkeypatch.setattr(lyapunov, "_MC_SUB", 7)
    small = lyapunov_mc(s, **kw)
    assert (small.value, small.stderr) == (est.value, est.stderr)


@pytest.mark.parametrize("normals", [7, 33, 100])
def test_mc_estimate_does_not_depend_on_block_length(monkeypatch, normals):
    # 201 steps of 3 paths: one block, or blocks of normals // 3 = 2, 11
    # or 33 steps with a last one of 1, 3 or 3; every blocking gives the
    # same estimate, bit for bit
    s = _kt_p2_sys(-3.0)
    kw = dict(horizon=0.201, dt=1e-3, paths=3, seed=9)
    est = lyapunov_mc(s, **kw)
    monkeypatch.setattr(lyapunov, "_MC_BLOCK_NORMALS", normals)
    small = lyapunov_mc(s, **kw)
    assert (small.value, small.stderr) == (est.value, est.stderr)


def test_mc_scalar_noise_oracle():
    # B = sigma I gives q4 = 0: log-growth a - sigma^2/2; fd is inapplicable
    a, sigma = 1.0, 0.5
    s = _sys((a, 0, 0, a), (sigma, 0, 0, sigma))
    with pytest.raises(DegeneratePhaseDiffusionError):
        lyapunov_fd(s)
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


@pytest.mark.parametrize("paths", [2, 3, 5])
def test_mc_paths_do_not_change_each_other(paths):
    # path p draws from stream (seed, p) and rounds as it would alone: the
    # estimate is the mean of the one-path runs, bit for bit
    s = _sys(*_ROUGH)
    kw = dict(horizon=20.0, dt=1e-3, seed=5)
    one = [lyapunov_mc(s, paths=1, stream_base=b, **kw).value for b in range(paths)]
    assert lyapunov_mc(s, paths=paths, **kw).value == np.mean(one)


_KERNEL = lyapunov._mc_paths
_PARENT_SLICES = []  # the slices a patched kernel ran in this process


def _recording_kernel(m, nsteps, dt, seed, first, stop):
    _PARENT_SLICES.append((first, stop))
    return _KERNEL(m, nsteps, dt, seed, first, stop)


def _kernel_failing_after_slice_0(m, nsteps, dt, seed, first, stop):
    if first > 0:
        raise RuntimeError(f"no slice from stream {first}")
    return _KERNEL(m, nsteps, dt, seed, first, stop)


def _force_slices(monkeypatch, cpus):
    """Every mc call that may fork splits into min(cpus, width // 2)
    slices, cpus being its affinity mask's count, however few its
    path-steps; the kernel records the slices run in-process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(lyapunov, "_MC_SLICE_PATH_STEPS", 1)
    monkeypatch.setattr(lyapunov, "_mc_paths", _recording_kernel)
    _PARENT_SLICES.clear()


# lyapunov_mc forks its slices only on Linux
_forks = pytest.mark.skipif(sys.platform != "linux", reason="Linux only")


def _assert_nothing_left():
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


_SLICE_CASES = {
    **_MC_KERNEL_CASES,
    "odd-split": (lambda: _sys(*_ROUGH), dict(horizon=2.0, paths=5, seed=5)),
    "stream-base": (lambda: _kt_p2_sys(-3.0),
                    dict(horizon=2.0, paths=7, seed=7, stream_base=3 << 32)),
}


@_forks
@pytest.mark.parametrize("label", list(_SLICE_CASES))
def test_mc_slice_count_does_not_change_the_estimate(monkeypatch, label):
    # 5 paths split as 2 + 3; one path runs with its spare as one slice
    make, kw = _SLICE_CASES[label]
    kw = {"dt": 1e-3, **kw}
    s = make()
    base, width = kw.get("stream_base", 0), max(kw["paths"], 2)
    estimates = set()
    for cpus in (1, 2, 3):
        _force_slices(monkeypatch, cpus)
        est = lyapunov_mc(s, **kw)
        _assert_nothing_left()
        slices = max(1, min(cpus, width // 2))
        assert _PARENT_SLICES == [(base, base + width // slices)]
        estimates.add((est.value, est.stderr))
    assert len(estimates) == 1


def test_mc_runs_in_process_while_another_thread_lives(monkeypatch):
    s = _kt_p2_sys(-3.0)
    kw = dict(horizon=2.0, dt=1e-3, paths=32, seed=7)
    alone = lyapunov_mc(s, **kw)
    _force_slices(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        est = lyapunov_mc(s, **kw)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert _PARENT_SLICES == [(0, 32)]
    assert (est.value, est.stderr) == (alone.value, alone.stderr)
    _assert_nothing_left()


@_forks
def test_mc_runs_in_process_in_a_daemonic_worker(monkeypatch):
    # a daemonic process (a multiprocessing.Pool worker) may not fork
    s = _kt_p2_sys(-3.0)
    kw = dict(horizon=2.0, dt=1e-3, paths=32, seed=7)
    alone = lyapunov_mc(s, **kw)
    _force_slices(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        est = pool.apply(lyapunov_mc, (s,), kw)
        pool.close()
        pool.join()
    assert (est.value, est.stderr) == (alone.value, alone.stderr)
    _assert_nothing_left()


@_forks
def test_mc_worker_exception_reaches_the_caller(monkeypatch):
    _force_slices(monkeypatch, 2)
    monkeypatch.setattr(lyapunov, "_mc_paths", _kernel_failing_after_slice_0)
    with pytest.raises(RuntimeError, match="no slice from stream 16"):
        lyapunov_mc(_kt_p2_sys(-3.0), horizon=2.0, dt=1e-3, paths=32, seed=7)
    _assert_nothing_left()


def test_density_independent_methods_agree():
    # q2, q4 constant: fd and closed exact, mc within noise
    a, alpha, beta = 0.3, 0.8, 1.3
    expect = a + (beta ** 2 - alpha ** 2) / 2
    s = LinearSDE(Mat2(a, 0, 0, a), alpha_family(alpha, beta))
    fd = lyapunov_fd(s).value
    cl = closed_form_lyapunov(Mat2(a, 0, 0, a), alpha, beta).value
    mc = lyapunov_mc(s, horizon=50.0, dt=1e-3, paths=64, seed=8)
    assert abs(fd - cl) < 1e-6
    assert abs(fd - expect) < 1e-6
    assert abs(mc.value - expect) < 3 * mc.stderr


def test_fd_matches_mc_for_general_noise():
    # b11 != b22, so q5 = dq4/dtheta enters the fd angle drift; the alpha
    # family (b11 = b22, q5 = 0) cannot see an error in it
    s = _sys((-0.2, 0.5, -0.8, 0.1), (0.5, -1.2, 1.0, 1.4))
    fd = lyapunov_fd(s).value
    mc = lyapunov_mc(s, horizon=100.0, dt=1e-3, paths=64, seed=31)
    assert abs(fd - mc.value) <= 4 * mc.stderr + 0.01
    assert abs(fd - 0.030289348533440) <= 1e-12


# ----------------------------------------------------------------------- sweep

def test_sweep_brackets_nest_under_grid_refinement():
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    coarse = stability_sweep(m, e, -2.0, np.arange(-4, 4.01, 0.5),
                             method="fd")
    fine = stability_sweep(m, e, -2.0, np.arange(-4, 4.01, 0.25),
                           method="fd")
    assert len(coarse.sign_changes) == len(fine.sign_changes) == 2
    for (clo, chi), (flo, fhi) in zip(coarse.sign_changes, fine.sign_changes):
        assert chi - clo <= 1e-3 and fhi - flo <= 1e-3
        assert abs(0.5 * (clo + chi) - 0.5 * (flo + fhi)) < 1.5e-3


def test_sweep_stable_set_matches_signs():
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    r = stability_sweep(m, e, -2.0, np.arange(-4, 4.01, 0.5),
                        method="fd")
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


def _level_points(lo, hi, lam, refine_tol=1e-3):
    """The points of a bracket's first fd or closed level, from the grid
    values lam[lo], lam[hi]: the regula falsi point x -+ refine_tol / 4
    and the midpoint, ascending."""
    x = lo + (hi - lo) * (lam[lo] / (lam[lo] - lam[hi]))
    return sorted((x - 0.25 * refine_tol, x + 0.25 * refine_tol, 0.5 * (lo + hi)))


def test_sweep_bracket_stays_wide_when_a_midpoint_fails(monkeypatch):
    # an estimator that rejects every off-grid alpha: each refinement
    # stops at its first level, so the grid brackets keep their width 0.5
    # and the three points of each level are listed as failures
    grid = np.arange(-4, 4.01, 0.5)
    on_grid = set(grid.tolist())
    real = lyapunov._fd_exponents

    def grid_only(a_mat, beta, alphas):
        values, modes, errors = real(a_mat, beta, alphas)
        off = [k for k, alpha in enumerate(alphas.tolist()) if alpha not in on_grid]
        values[off] = math.nan
        errors.update(dict.fromkeys(off, "off-grid alpha refused"))
        return values, modes, errors

    monkeypatch.setattr(lyapunov, "_fd_exponents", grid_only)
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    r = stability_sweep(m, e, -2.0, grid, method="fd",
                        refine_tol=1e-3)
    assert r.sign_changes == [(-2.0, -1.5), (1.5, 2.0)]
    assert all(hi - lo == 0.5 for lo, hi in r.sign_changes)
    lam = dict(zip(r.alphas.tolist(), r.lambdas.tolist()))
    assert r.failures == [(a, "off-grid alpha refused")
                          for lo, hi in r.sign_changes for a in _level_points(lo, hi, lam)]
    assert -1.75 in [a for a, _ in r.failures] and 1.75 in [a for a, _ in r.failures]
    for lo, hi in r.sign_changes:
        assert (lam[lo] <= 0) != (lam[hi] <= 0)


def test_sweep_empty_grid():
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    r = stability_sweep(m, e, -2.0, [], method="fd")
    assert r.alphas.size == 0 and r.sign_changes == [] and r.stable_set == []


@pytest.mark.parametrize("method", ["fd", "closed"])
def test_sweep_records_per_point_failures(method):
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    r = stability_sweep(m, e, 0.0, [0.0, 1.0], method=method)
    assert len(r.failures) == 2
    assert np.isnan(r.lambdas).all()
    assert r.sign_changes == [] and r.stable_set == []


def test_sweep_grid_must_increase():
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    with pytest.raises(ValueError):
        stability_sweep(m, e, -2.0, [1.0, 0.5], method="fd")


@pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [0.0, math.inf],
                                  [-math.inf, 0.0], [math.nan]])
@pytest.mark.parametrize("method", ["fd", "closed"])
def test_sweep_grid_must_be_finite(grid, method):
    # comparisons with NaN are false, so such grids pass the increase check
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    with pytest.raises(ValueError, match="finite"):
        stability_sweep(m, e, -2.0, grid, method=method)


@pytest.mark.parametrize("label, beta", [("Bell-P1", -2.0), ("KT-P2", -2.0),
                                         ("Bell-P1", -0.3), ("Bell-P1", -0.1),
                                         ("KT-P1", -0.05), ("KT-P2", -1.0),
                                         ("KT-P2", -0.5), ("KT-P2", -0.2),
                                         ("KT-P2", -0.1)])
def test_closed_sweep_matches_per_point_solve(label, beta):
    # the batched sweep against one closed and one fd solve per alpha; at
    # the small betas the density needs 64 to 256 modes, and no point fails
    model, k = _ALPHA_FAMILY_SYSTEMS[label]
    a_mat = _drift_matrix(label, beta)
    alphas = np.linspace(-5.0, 5.0, 61)
    r = stability_sweep(model(), model_equilibria(model())[0][k], beta, alphas, method="closed")
    want = np.array([closed_form_lyapunov(a_mat, float(al), beta).value for al in alphas])
    fd = np.array([lyapunov_fd(LinearSDE(a_mat, alpha_family(al, beta))).value
                   for al in alphas])
    assert r.failures == []
    assert np.all(np.abs(r.lambdas - want) <= 1e-13 + 1e-12 * np.abs(want))
    assert np.all(np.abs(r.lambdas - fd) <= 1e-12 * (1 + np.abs(fd)))


def test_closed_sweep_records_a_cap_rejection_per_point():
    # KT P2 at beta = 0.004: the density at alpha = -5 is not resolved
    # by 1024 modes, while alpha = 0 is: one failure, and the other point
    # keeps its per-point value
    model, k = _ALPHA_FAMILY_SYSTEMS["KT-P2"]
    r = stability_sweep(model(), model_equilibria(model())[0][k], 0.004, [-5.0, 0.0],
                        method="closed")
    assert [a for a, _ in r.failures] == [-5.0]
    assert "not resolved by 1024 modes" in r.failures[0][1]
    assert np.isnan(r.lambdas[0])
    want = closed_form_lyapunov(_drift_matrix("KT-P2", 0.004), 0.0, 0.004).value
    assert abs(r.lambdas[1] - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("label, beta, alphas", [
    ("Bell-P1", -2.0, np.linspace(-5.0, 5.0, 41)),
    ("Bell-P1", -0.1, np.linspace(-5.0, 5.0, 11)),
    ("KT-P2", -2.0, np.linspace(-5.0, 5.0, 41)),
    ("KT-P2", 0.004, np.array([-5.0, 0.0]))],
    ids=["Bell-P1--2", "Bell-P1--0.1", "KT-P2--2", "KT-P2-0.004"])
def test_fd_sweep_matches_per_point_solve(label, beta, alphas):
    # the stacked solve against one lyapunov_fd call per alpha: the same
    # value, mode count and failure message; at beta = -0.1 the points
    # need 64 or 128 modes, and KT P2 at beta = 0.004 rejects alpha = -5
    # at the cap while alpha = 0 resolves there
    model, k = _ALPHA_FAMILY_SYSTEMS[label]
    a_mat = _drift_matrix(label, beta)
    values, modes, errors = lyapunov._fd_exponents(a_mat, beta, alphas)
    r = stability_sweep(model(), model_equilibria(model())[0][k], beta, alphas, method="fd")
    np.testing.assert_array_equal(r.lambdas, values)
    want_failures = []
    for i, alpha in enumerate(alphas.tolist()):
        try:
            est = lyapunov_fd(LinearSDE(a_mat, alpha_family(alpha, beta)))
        except DegeneratePhaseDiffusionError as exc:
            assert errors[i] == str(exc) and math.isnan(values[i])
            want_failures.append((alpha, str(exc)))
            continue
        assert i not in errors and modes[i] == est.diagnostics["modes"]
        assert abs(values[i] - est.value) <= 1e-12 * (1.0 + abs(est.value))
    assert r.failures[:len(want_failures)] == want_failures
    if label == "KT-P2" and beta > 0:
        assert list(errors) == [0] and "not resolved by 1024 modes" in errors[0]
        assert modes.tolist() == [1024, 1024]
    if beta == -0.1:
        assert set(modes.tolist()) == {64, 128}


@pytest.mark.parametrize("beta", [1e8, 1e9])
def test_fd_sweep_keeps_the_alpha_squared_term_at_large_beta(beta):
    # the rows' alpha^2 term is Q's -1/2, a constant: where beta^2 - 1
    # rounds to beta^2, rows derived by differences at alpha = -1, 0, 1
    # lost it, and at alpha = -1e4 the sweep was 5e7 above lyapunov_fd
    model, k = _ALPHA_FAMILY_SYSTEMS["Bell-P1"]
    alphas = np.array([-1e4, -4.0, 4.0, 1e4])
    r = stability_sweep(model(), model_equilibria(model())[0][k], beta, alphas, method="fd")
    a_mat = _drift_matrix("Bell-P1", beta)
    for alpha, value in zip(alphas.tolist(), r.lambdas.tolist()):
        want = lyapunov_fd(LinearSDE(a_mat, alpha_family(alpha, beta))).value
        assert abs(value - want) <= 1e-14 * (1.0 + abs(want)), alpha


def test_fd_stack_split_leaves_values_unchanged(monkeypatch):
    # blocks of 5 alphas give the values of one unsplit stack, bit for bit
    a_mat = _drift_matrix("Bell-P1", -0.3)
    alphas = np.linspace(-5.0, 5.0, 23)
    whole = lyapunov._fd_exponents(a_mat, -0.3, alphas)
    monkeypatch.setattr(lyapunov, "_STACK", 5)
    split = lyapunov._fd_exponents(a_mat, -0.3, alphas)
    np.testing.assert_array_equal(split[0], whole[0])
    np.testing.assert_array_equal(split[1], whole[1])
    assert split[2] == whole[2] == {}
    assert len(set(whole[1].tolist())) > 1  # the levels split the stack too


def test_fd_one_system_equals_its_stack(monkeypatch):
    # the seed-11 systems whose q4 has no real zeros, capped at 32 modes
    # (two blocks): each solved alone gives its row of the stacked solve,
    # values, mode counts, tails and, solved again at its mode count as
    # the tests' density_modes does, every mode bit for bit
    monkeypatch.setattr(lyapunov, "_MAX_MODES", 32)
    rows = np.array([lyapunov._polar_rows(s) for s in _seed_11_systems()])
    values, counts, tails, gap, errors = lyapunov._fd_solve(rows)
    solved = (counts > 0).nonzero()[0]
    assert solved.size == 65 and 32 in counts.tolist()
    for i in range(len(rows)):
        one = lyapunov._fd_solve(rows[i:i + 1])
        np.testing.assert_array_equal(one[0], values[i:i + 1])
        np.testing.assert_array_equal(one[1], counts[i:i + 1])
        np.testing.assert_array_equal(one[2], tails[i:i + 1])
        assert one[4] == ({0: errors[i]} if i in errors else {})
    coef = rows[:, 4:].reshape(len(rows), 10)
    for n in (16, 32):
        stack = lyapunov._galerkin(coef[solved], n)
        for k, i in enumerate(solved.tolist()):
            if counts[i] == n:
                np.testing.assert_array_equal(
                    lyapunov._galerkin(coef[i:i + 1], n), stack[k:k + 1])


def test_fd_sweep_allocation_is_bounded():
    # 4001 points at 16 modes, taken in stacks of _STACK alphas whose
    # block rows take 5 KB each, stay within 4 MiB
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    grid = np.linspace(-5.0, 5.0, 4001)
    stability_sweep(m, e, -2.0, grid[:5], method="fd")
    tracemalloc.start()
    try:
        r = stability_sweep(m, e, -2.0, grid, method="fd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.failures == [] and len(r.sign_changes) == 2
    assert peak <= 2 * 8 * 2 ** 18, peak


def _bisect_one_bracket_at_a_time(alphas, lambdas, evaluate, refine_tol=1e-3):
    """Brackets and midpoint failures of mc's bisection, one bracket
    refined to the end before the next, one alpha per call."""
    brackets, failures = [], []
    for k in range(1, alphas.size):
        llo, lhi = lambdas[k - 1], lambdas[k]
        if math.isnan(llo) or math.isnan(lhi) or (llo <= 0) == (lhi <= 0):
            continue
        lo, hi = float(alphas[k - 1]), float(alphas[k])
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            try:
                lmid = evaluate(mid)
            except (ValueError, ArithmeticError) as exc:
                failures.append((mid, str(exc)))
                break
            if (lmid <= 0) == (llo <= 0):
                lo = mid
            else:
                hi = mid
        brackets.append((lo, hi))
    return brackets, failures


def _secant_one_bracket_at_a_time(alphas, lambdas, evaluate, refine_tol=1e-3):
    """Brackets and failures of fd's and closed's refinement, one bracket
    refined to the end before the next, one alpha per call.  A level tries
    the regula falsi point x of the end values (the midpoint where x is
    not strictly inside), x -+ refine_tol / 4 and the midpoint, those
    strictly inside once each, and keeps the first pair of neighbours,
    from lo, of opposite stability; a failed point ends the bracket."""
    brackets, failures = [], []
    for k in range(1, alphas.size):
        flo, fhi = float(lambdas[k - 1]), float(lambdas[k])
        if math.isnan(flo) or math.isnan(fhi) or (flo <= 0) == (fhi <= 0):
            continue
        lo, hi = float(alphas[k - 1]), float(alphas[k])
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            x = lo + (hi - lo) * (flo / (flo - fhi))
            if not lo < x < hi:
                x = mid
            guard = 0.25 * refine_tol
            points = sorted({p for p in (x - guard, x + guard, mid) if lo < p < hi})
            if not points:
                break
            seq, failed = [(lo, flo)], []
            for p in points:
                try:
                    seq.append((p, evaluate(p)))
                except (ValueError, ArithmeticError) as exc:
                    failed.append((p, str(exc)))
            if failed:
                failures += failed
                break
            seq.append((hi, fhi))
            (lo, flo), (hi, fhi) = next((u, v) for u, v in zip(seq, seq[1:])
                                        if (u[1] <= 0) != (v[1] <= 0))
        brackets.append((lo, hi))
    return brackets, failures


def _one_alpha(method, a_mat, beta=-2.0):
    """The sweep's batched evaluator called with one alpha; raises the
    rejection of a failed point."""
    def evaluate(alpha):
        if method == "fd":
            values, _, errors = lyapunov._fd_exponents(a_mat, beta, np.array([alpha]))
        else:
            values, _, _, errors = lyapunov._closed_exponents(a_mat, beta, np.array([alpha]))
        if errors:
            raise DegeneratePhaseDiffusionError(errors[0])
        return float(values[0])
    return evaluate


@pytest.mark.parametrize("method", ["fd", "closed", "mc"])
def test_sweep_bisects_all_brackets_level_by_level(method):
    # the batched levels give the brackets of one bracket refined at a
    # time, bit for bit: secant guard points for fd and closed, bisection
    # for mc, whose midpoints keep their alpha-derived streams
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    a_mat = _drift_matrix("Bell-P1")
    kw = dict(horizon=2.0, dt=1e-2, paths=8, seed=11)
    for grid in (np.arange(-4.0, 4.01, 0.5), np.arange(-4.0, 4.01, 0.1)):
        r = stability_sweep(m, e, -2.0, grid, method=method, **kw)
        if method == "mc":
            def evaluate(alpha):
                sys = LinearSDE(a_mat, alpha_family(alpha, -2.0))
                return lyapunov_mc(sys, stream_base=lyapunov._refine_stream_base(alpha),
                                   **kw).value
            brackets, failures = _bisect_one_bracket_at_a_time(r.alphas, r.lambdas,
                                                               evaluate)
        else:
            brackets, failures = _secant_one_bracket_at_a_time(
                r.alphas, r.lambdas, _one_alpha(method, a_mat))
        assert r.sign_changes == brackets and len(brackets) >= 2
        assert r.failures == failures == []


def _counting(monkeypatch, method, wrap=None):
    """Patch the sweep's evaluator for method (optionally replaced by
    wrap(real)) to record the alphas of each call."""
    name = "_fd_exponents" if method == "fd" else "_closed_exponents"
    real = getattr(lyapunov, name)
    inner = wrap(real) if wrap else real
    calls = []

    def counted(a_mat, beta, alphas):
        calls.append(alphas.copy())
        return inner(a_mat, beta, alphas)

    monkeypatch.setattr(lyapunov, name, counted)
    return calls


_C4_SYSTEMS = {"Bell-P1": (bell_model, 0), "Bell-P2": (bell_model, 1),
               "KT-P2": (kt_model, 1), "KT-P1": (kt_model, 0)}


@pytest.mark.parametrize("label", list(_C4_SYSTEMS))
@pytest.mark.parametrize("method", ["fd", "closed"])
def test_sweep_closes_c4_crossings_in_one_level(monkeypatch, method, label):
    # on the 0.02 grid the regula falsi point lands within refine_tol / 4
    # of every crossing: the grid call and one level, and each bracket of
    # width <= refine_tol / 2 holds the exact root (widened by fd's error
    # bound at lambda = 0 over the exact slope)
    model, k = _C4_SYSTEMS[label]
    eq = model_equilibria(model())[0][k]
    a_mat = linearize(model(), alpha_family(0.0, -2.0), eq).A
    calls = _counting(monkeypatch, method)
    r = stability_sweep(model(), eq, -2.0, np.arange(-4.0, 4.01, 0.02), method=method)
    assert len(calls) == 2 and r.failures == []
    roots = alpha_exact.crossings(a_mat, -2.0, -4.0, 4.0)
    assert len(r.sign_changes) == len(roots) >= 1
    for (lo, hi), root in zip(r.sign_changes, roots):
        slack = 1e-12 / abs(alpha_exact.slope(a_mat, root, -2.0))
        assert hi - lo <= 0.5e-3 + 1e-12  # two guards apart, to rounding
        assert lo - slack <= root <= hi + slack


@pytest.mark.parametrize("shape", ["flat", "steep"])
@pytest.mark.parametrize("root", [-1.2345678, 0.0371, 2.9])
@pytest.mark.parametrize("method", ["fd", "closed"])
def test_sweep_secant_never_takes_more_levels_than_bisection(monkeypatch, method,
                                                             root, shape):
    # a fifth-order zero (regula falsi crawls from one end) and a step of
    # width 1e-4 (its secant point falls far off): the midpoint still halves
    # each bracket, so the levels are at most bisection's 9 from width 0.5
    def lam(alphas):
        return (alphas - root) ** 5 if shape == "flat" else np.tanh(1e4 * (alphas - root))

    def fake(real):
        def exponents(a_mat, beta, alphas):
            size = alphas.size
            return ((lam(alphas), np.full(size, 16), {}) if method == "fd"
                    else (lam(alphas), np.zeros(size), 16, {}))
        return exponents

    calls = _counting(monkeypatch, method, fake)
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    r = stability_sweep(m, e, -2.0, np.arange(-4.0, 4.01, 0.5), method=method)
    (lo, hi), = r.sign_changes
    assert 1 < len(calls) <= 1 + math.ceil(math.log2(0.5 / 1e-3))
    assert hi - lo <= 1e-3 and lo <= root <= hi
    want, _ = _secant_one_bracket_at_a_time(r.alphas, r.lambdas,
                                            lambda a: float(lam(np.float64(a))))
    assert r.sign_changes == want


def test_sweep_failed_midpoint_ends_only_its_bracket(monkeypatch):
    # off-grid alphas below zero are refused: the left bracket keeps its
    # grid width and lists its three refused points, the right one is
    # refined as usual
    grid = np.arange(-4, 4.01, 0.5)
    on_grid = set(grid.tolist())
    real = lyapunov._fd_exponents

    def refuse_negative_midpoints(a_mat, beta, alphas):
        values, modes, errors = real(a_mat, beta, alphas)
        off = [k for k, alpha in enumerate(alphas.tolist())
               if alpha < 0 and alpha not in on_grid]
        values[off] = math.nan
        errors.update(dict.fromkeys(off, "refused"))
        return values, modes, errors

    monkeypatch.setattr(lyapunov, "_fd_exponents", refuse_negative_midpoints)
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    r = stability_sweep(m, e, -2.0, grid, method="fd")
    (llo, lhi), (rlo, rhi) = r.sign_changes
    assert (llo, lhi) == (-2.0, -1.5)
    assert rhi - rlo <= 1e-3 and 1.5 <= rlo < rhi <= 2.0
    lam = dict(zip(r.alphas.tolist(), r.lambdas.tolist()))
    assert r.failures == [(a, "refused") for a in _level_points(-2.0, -1.5, lam)]


def test_sweep_bisection_stops_at_adjacent_floats():
    # with refine_tol = 0 a midpoint eventually rounds onto a bracket end;
    # the bracket is closed there instead of being bisected forever
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    r = stability_sweep(m, e, -2.0, np.arange(-4, 4.01, 0.5), method="closed",
                        refine_tol=0.0)
    assert len(r.sign_changes) == 2 and r.failures == []
    for lo, hi in r.sign_changes:
        assert hi == np.nextafter(lo, np.inf)


def _stable_intervals_loop(alphas, lambdas, sign_changes):
    """The per-point loop that ``_stable_intervals`` replaced."""
    finite = [(float(a), float(l)) for a, l in zip(alphas, lambdas)
              if not math.isnan(l)]
    if not finite:
        return []
    crossings = [0.5 * (lo + hi) for lo, hi in sign_changes]
    out = []
    start = finite[0][0] if finite[0][1] <= 0 else None
    ci = 0
    for (a_prev, l_prev), (a_cur, l_cur) in zip(finite, finite[1:]):
        if (l_prev <= 0) == (l_cur <= 0):
            continue
        if ci < len(crossings) and a_prev <= crossings[ci] <= a_cur:
            cross = crossings[ci]
            ci += 1
        else:
            cross = 0.5 * (a_prev + a_cur)
        if l_prev <= 0:
            out.append((start, cross))
            start = None
        else:
            start = cross
    if start is not None:
        out.append((start, finite[-1][0]))
    return out


def test_stable_intervals_match_the_loop():
    # random grids of failed points (NaN), exact zeros and signs, with a
    # bracket inside each pair of neighbouring grid points of opposite
    # stability, as the sweep refines them; pairs across failed points
    # have none
    rng = np.random.default_rng(13)
    cases = [([0.0, 1.0, 2.0, 3.0], [-1.0, math.nan, 1.0, 0.0]),
             ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
             ([0.0, 1.0], [math.nan, math.nan]), ([], [])]
    for _ in range(400):
        size = int(rng.integers(1, 30))
        cases.append((np.cumsum(rng.uniform(0.1, 1.0, size)) - 5.0,
                      rng.choice([-1.5, -0.2, 0.0, 0.3, 2.0, math.nan], size)))
    for alphas, lambdas in cases:
        alphas, lambdas = np.array(alphas, dtype=float), np.array(lambdas)
        brackets = []
        for k in range(1, alphas.size):
            l0, l1 = lambdas[k - 1], lambdas[k]
            if not (math.isnan(l0) or math.isnan(l1)) and (l0 <= 0) != (l1 <= 0):
                lo, hi = np.sort(rng.uniform(alphas[k - 1], alphas[k], 2))
                brackets.append((float(lo), float(hi)))
        want = _stable_intervals_loop(alphas, lambdas, brackets)
        got = lyapunov._stable_intervals(alphas, lambdas, brackets)
        assert got == want and all(type(v) is float for iv in got for v in iv)


def test_sweep_mc_reproducible():
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    kw = dict(method="mc", horizon=2.0, dt=1e-2, paths=8, seed=11)
    r1 = stability_sweep(m, e, -2.0, [0.0, 1.0], **kw)
    r2 = stability_sweep(m, e, -2.0, [0.0, 1.0], **kw)
    assert np.array_equal(r1.lambdas, r2.lambdas)
    assert (r1.stderrs > 0).all()


def test_sweep_mc_overflow_fails_its_own_point():
    # at alpha 1e200 and 2e200 q2^2 overflows and mc's estimate is -inf:
    # those points fail alone, and alpha 0 keeps its exponent
    m, e = bell_model(), model_equilibria(bell_model())[0][0]
    kw = dict(method="mc", horizon=0.01, dt=1e-3, paths=4, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = stability_sweep(m, e, -2.0, [0.0, 1e200, 2e200], **kw)
    alone = stability_sweep(m, e, -2.0, [0.0], **kw)
    assert r.lambdas[0] == alone.lambdas[0] and np.isnan(r.lambdas[1:]).all()
    assert [a for a, _ in r.failures] == [1e200, 2e200]
    assert all("overflow" in msg for _, msg in r.failures)
    assert r.sign_changes == [] and r.stable_set == alone.stable_set
