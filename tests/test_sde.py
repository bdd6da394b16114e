"""Equilibrium-anchored diffusion and linearization."""

from dataclasses import astuple

import numpy as np
import pytest

from tumorsde.models import Equilibrium, Mat2, State, bell_model, jacobian, kt_model, \
    model_equilibria
from tumorsde.sde import (
    KT_NOISE,
    NotAnEquilibriumError,
    alpha_family,
    diffusion_at_equilibrium,
    linearize,
)


def _affine(d):
    """The noise of an AffineDiffusion d, s -> b s + c."""
    b = d.b
    return lambda s: (b.a11 * s[0] + b.a12 * s[1] + d.c1, b.a21 * s[0] + b.a22 * s[1] + d.c2)


def test_offsets_at_kt_p1():
    e = model_equilibria(kt_model())[0][0]
    d = diffusion_at_equilibrium(KT_NOISE, e)
    # c1 = -10 * a1/a2, c2 = -2 * a1/a2 with y1 = 0
    assert abs(d.c1 - (-3.151854817187083)) < 1e-12
    assert abs(d.c2 - (-0.6303709634374166)) < 1e-12


def test_diffusion_vanishes_at_anchor_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        b = Mat2(*rng.normal(size=4))
        pt = State(*rng.uniform(-20, 20, 2))
        e = Equilibrium(pt, "numeric", 0.0)
        d = diffusion_at_equilibrium(b, e)
        g1, g2 = _affine(d)((pt.x, pt.y))
        assert g1 == 0.0 or abs(g1) < 1e-13 * max(1.0, abs(pt.x), abs(pt.y))
        assert g2 == 0.0 or abs(g2) < 1e-13 * max(1.0, abs(pt.x), abs(pt.y))


def test_zero_matrix_recovers_deterministic_model():
    e = model_equilibria(kt_model())[0][1]
    g = _affine(diffusion_at_equilibrium(Mat2(0, 0, 0, 0), e))
    for x, y in [(0.0, 0.0), (3.0, -2.0), (12.5, 40.0)]:
        assert g((x, y)) == (0.0, 0.0)


def test_linearize_kt_p1():
    m = kt_model()
    e = model_equilibria(kt_model())[0][0]
    sys_lin = linearize(m, KT_NOISE, e)
    expect = jacobian(m, e.point)
    assert sys_lin.A == expect
    assert sys_lin.B == KT_NOISE


def test_linearize_bell_p2_alpha_family():
    m = bell_model()
    e = model_equilibria(bell_model())[0][1]
    sys_lin = linearize(m, alpha_family(1.0, -2.0), e)
    assert sys_lin.B == Mat2(1.0, 2.0, -2.0, 1.0)


def test_linearize_rejects_non_equilibrium():
    m = kt_model()
    fake = Equilibrium(State(1.0, 1.0), "P1", 0.0)
    with pytest.raises(NotAnEquilibriumError):
        linearize(m, KT_NOISE, fake)


@pytest.mark.parametrize("model,eq_list", [
    (kt_model(), model_equilibria(kt_model())[0]),
    (bell_model(), model_equilibria(bell_model())[0]),
])
def test_first_order_agreement(model, eq_list):
    # drift: |f(e+d) - A d| = O(|d|^2) <= 1e-8 at |d| = 1e-5
    # diffusion: exactly linear, so B d is reproduced to rounding
    rng = np.random.default_rng(31)
    for e in eq_list:
        sys_lin = linearize(model, KT_NOISE, e)
        a = np.reshape(astuple(sys_lin.A), (2, 2))
        g = _affine(diffusion_at_equilibrium(KT_NOISE, e))
        for _ in range(10):
            d = rng.normal(size=2)
            d *= 1e-5 / np.linalg.norm(d)
            s = State(e.point.x + d[0], e.point.y + d[1])
            f = np.array(model.field((s.x, s.y)))
            assert np.abs(f - a @ d).max() < 1e-8
            bd = np.reshape(astuple(KT_NOISE), (2, 2)) @ d
            assert np.abs(np.array(g((s.x, s.y))) - bd).max() < 1e-12


def test_alpha_family_layout():
    b = alpha_family(0.7, -2.0)
    assert b == Mat2(0.7, 2.0, -2.0, 0.7)
    assert alpha_family(0.0, 1.0) == Mat2(0.0, -1.0, 1.0, 0.0)
