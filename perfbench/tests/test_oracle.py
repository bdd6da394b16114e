import math

import numpy as np
import pytest

import oracle
from tumorsde.lyapunov import lyapunov_fd
from tumorsde.models import Mat2
from tumorsde.sde import LinearSDE, alpha_family


def test_reference_values():
    # the flux-corrected readings: 0.6741 (Bell P1, alpha 1.5), 5.0664 (KT P2, alpha 0)
    bell = float(oracle.top_lyapunov(oracle.linearisation("Bell-P1"), 1.5, -2.0))
    kt = float(oracle.top_lyapunov(oracle.linearisation("KT-P2"), 0.0, -2.0))
    assert bell == pytest.approx(0.674072950792, abs=1e-11)
    assert kt == pytest.approx(5.066377875413, abs=1e-11)


@pytest.mark.parametrize("a, alpha, beta", [(0.1, 0.0, 1.0), (-0.3, 0.7, -2.0),
                                            (1.2, -1.5, 0.5)])
def test_rotation_case(a, alpha, beta):
    # A = aI: the radial drift is constant, lambda = a + (beta^2 - alpha^2) / 2
    lam = float(oracle.top_lyapunov((a, 0.0, 0.0, a), alpha, beta))
    assert lam == pytest.approx(a + 0.5 * (beta ** 2 - alpha ** 2), abs=1e-12)


def test_spectral_convergence_and_batching():
    a = oracle.linearisation("KT-P2")
    alphas = np.linspace(-4.0, 4.0, 9)
    fine = oracle.top_lyapunov(a, alphas, -2.0, m=512)
    assert np.allclose(oracle.top_lyapunov(a, alphas, -2.0, m=64), fine,
                       rtol=0, atol=1e-10)
    one_by_one = [float(oracle.top_lyapunov(a, al, -2.0)) for al in alphas]
    assert np.allclose(one_by_one, oracle.top_lyapunov(a, alphas, -2.0),
                       rtol=0, atol=1e-13)


def test_zero_flux_limit_is_continuous():
    # k0 = (a21 - a12 - 2 alpha beta) / beta^2 vanishes at alpha0
    a, beta = (0.4, 0.3, 1.1, -0.6), 1.3
    alpha0 = (a[2] - a[1]) / (2.0 * beta)
    at = float(oracle.top_lyapunov(a, alpha0, beta))
    near = oracle.top_lyapunov(a, np.array([alpha0 - 1e-7, alpha0 + 1e-7]), beta)
    assert math.isfinite(at)
    assert np.allclose(near, at, rtol=0, atol=1e-6)


@pytest.mark.parametrize("label, alpha", [("KT-P2", 0.0), ("Bell-P1", 1.5)])
def test_fd_error_is_first_order(label, alpha):
    a = oracle.linearisation(label)
    exact = float(oracle.top_lyapunov(a, alpha, -2.0))
    sys_ = LinearSDE(Mat2(*a), alpha_family(alpha, -2.0))
    err = [abs(lyapunov_fd(sys_, n=n).value - exact) for n in (10000, 40000)]
    assert 3.6 < err[0] / err[1] < 4.4
    assert err[0] <= oracle.fd_grid_tolerance(a, 10000)


def test_crossings_of_the_benchmark_sweep():
    a = oracle.linearisation("Bell-P1")
    alphas = -4.0 + 0.02 * np.arange(401)
    found = oracle.crossings(a, -2.0, alphas)
    assert [d for _, d in found] == [1, -1]  # unstable between the crossings
    assert found[0][0] == pytest.approx(-1.906635, abs=1e-6)
    assert found[1][0] == pytest.approx(1.889779, abs=1e-6)
    for root, _ in found:
        assert abs(float(oracle.top_lyapunov(a, root, -2.0))) < 1e-10
