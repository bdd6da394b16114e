"""Noise construction anchored at an equilibrium, and the linearized system.

The diffusion coefficients are affine in the state and vanish exactly at
the chosen equilibrium:

    g_i(x, y) = b_i1 * x + b_i2 * y + c_i,   c_i = -b_i1 * x_e - b_i2 * y_e

Linearizing drift and diffusion there yields dX = A X dt + B X dW with a
single scalar Wiener driver, the object the stability analysis works on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import (
    Equilibrium,
    Mat2,
    ModelSpec,
    _residual,
    jacobian,
    residual_scale,
)

__all__ = [
    "AffineDiffusion",
    "LinearSDE",
    "NotAnEquilibriumError",
    "diffusion_at_equilibrium",
    "linearize",
    "alpha_family",
    "KT_NOISE",
]

# default noise coefficients for the Kuznetsov-Taylor runs
KT_NOISE = Mat2(10.0, -2.0, 2.0, 10.0)


class NotAnEquilibriumError(ValueError):
    """The anchor point is not a zero of the drift."""


@dataclass(frozen=True)
class AffineDiffusion:
    """Pair of affine noise coefficients g(s) = b s + c, vanishing at the
    anchor point; with c1 = c2 = 0 also the noise B s of a LinearSDE."""

    b: Mat2
    c1: float
    c2: float


@dataclass(frozen=True)
class LinearSDE:
    """Linearization dX = A X dt + B X dW at an equilibrium."""

    A: Mat2
    B: Mat2


def diffusion_at_equilibrium(b: Mat2, e: Equilibrium) -> AffineDiffusion:
    """Affine diffusion with offsets chosen so g(e) = 0 exactly."""
    x, y = e.point.x, e.point.y
    return AffineDiffusion(b=b, c1=-b.a11 * x - b.a12 * y, c2=-b.a21 * x - b.a22 * y)


def linearize(model: ModelSpec, b: Mat2, e: Equilibrium) -> LinearSDE:
    """Drift Jacobian at the equilibrium paired with the noise matrix.

    The affine diffusion is its own linearization, so B equals b.
    Rejects anchor points whose drift residual exceeds 1e-8 in model
    units.
    """
    resid = _residual(model, e.point.x, e.point.y)
    if resid > 1e-8 * residual_scale(model):
        raise NotAnEquilibriumError(
            f"not an equilibrium: residual {resid:.3e} at "
            f"({e.point.x!r}, {e.point.y!r})")
    return LinearSDE(A=jacobian(model, e.point), B=b)


def alpha_family(alpha: float, beta: float = -2.0) -> Mat2:
    """Noise matrix [[alpha, -beta], [beta, alpha]] used in sweeps."""
    return Mat2(alpha, -beta, beta, alpha)
