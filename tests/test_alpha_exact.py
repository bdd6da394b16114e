"""Self-checks of the exact alpha-family exponent used as a test oracle."""

import numpy as np
import pytest

import alpha_exact
from tumorsde.models import Mat2, bell_model, model_equilibria
from tumorsde.sde import alpha_family, linearize


@pytest.mark.parametrize("a, alpha, beta", [(0.1, 0.0, 1.0), (-0.3, 0.7, -2.0),
                                            (1.2, -1.5, 0.5)])
def test_rotation_case(a, alpha, beta):
    # A = aI: the radial drift is constant, lambda = a + (beta^2 - alpha^2) / 2
    # ((0.1, 0, 1) is criterion 2's rotation case, 0.6)
    lam = float(alpha_exact.top_lyapunov(Mat2(a, 0.0, 0.0, a), alpha, beta))
    assert lam == pytest.approx(a + 0.5 * (beta ** 2 - alpha ** 2), abs=1e-12)


def test_bell_p1_reference_value():
    a_mat = linearize(bell_model(), alpha_family(0.0, -2.0),
                      model_equilibria(bell_model())[0][0]).A
    lam = float(alpha_exact.top_lyapunov(a_mat, 1.5, -2.0))
    assert lam == pytest.approx(0.674072950792, abs=1e-11)


def test_bracket_crossings_and_slope_are_consistent():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a_mat = Mat2(*rng.normal(size=4))
        beta = rng.choice([-2.0, 1.3])
        alphas = np.linspace(-4.0, 4.0, 41)
        lam = alpha_exact.top_lyapunov(a_mat, alphas, beta)
        low, high = alpha_exact.radial_bracket(a_mat, alphas, beta)
        assert np.all((low <= lam) & (lam <= high))
        for root in alpha_exact.crossings(a_mat, beta, -4.0, 4.0):
            assert abs(float(alpha_exact.top_lyapunov(a_mat, root, beta))) < 1e-10
            h = 1e-3
            chord = float(alpha_exact.top_lyapunov(a_mat, root + h, beta)
                          - alpha_exact.top_lyapunov(a_mat, root - h, beta)) / (2 * h)
            assert alpha_exact.slope(a_mat, root, beta) == pytest.approx(chord, rel=1e-4)
