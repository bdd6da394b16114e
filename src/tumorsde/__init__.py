"""Stochastic tumor-immune dynamics toolkit.

Deterministic model presets with equilibria and Jacobians, affine noise
anchored at an equilibrium, top Lyapunov exponents of the linearized
system by three estimators, weak Euler trajectory schemes, and a CLI
with CSV output.
"""

from .models import (
    DomainError,
    Equilibrium,
    HFun,
    Mat2,
    ModelSpec,
    State,
    bell_model,
    custom_model,
    exponential_model,
    find_equilibria_numeric,
    jacobian,
    kt_model,
    logistic_model,
    make_model,
    model_equilibria,
    stepanova_model,
    vladar_model,
    volterra_model,
)
from .sde import (
    KT_NOISE,
    AffineDiffusion,
    LinearSDE,
    NotAnEquilibriumError,
    alpha_family,
    diffusion_at_equilibrium,
    linearize,
)
from .lyapunov import (
    DegeneratePhaseDiffusionError,
    LyapunovEstimate,
    SweepResult,
    closed_form_lyapunov,
    lyapunov_fd,
    lyapunov_mc,
    stability_sweep,
)
from .integrate import (
    BlowUpError,
    SimConfig,
    Trajectory,
    rng_stream,
    simulate,
    wiener_increments,
)

__version__ = "0.1.0"
