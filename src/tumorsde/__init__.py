"""Stochastic tumor-immune dynamics toolkit.

Deterministic model presets with equilibria and Jacobians, affine noise
anchored at an equilibrium, top Lyapunov exponents of the linearized
system by three estimators, weak Euler trajectory schemes, and a CLI
with CSV output.
"""

from .models import (
    BELL_PARAMS,
    BellParams,
    DegenerateEquilibriumError,
    DomainError,
    Equilibrium,
    HFun,
    KT_PARAMS,
    KTParams,
    Mat2,
    ModelSpec,
    State,
    bell_equilibria,
    bell_model,
    custom_model,
    diag_partials,
    eval_vector_field,
    exponential_model,
    find_equilibria_numeric,
    jacobian,
    kt_equilibria,
    kt_model,
    logistic_model,
    make_model,
    stepanova_model,
    vector_field_fns,
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
    PhaseCoefficients,
    PhaseDensity,
    SweepResult,
    closed_form_lyapunov,
    lyapunov_fd,
    lyapunov_mc,
    phase_coefficients,
    stability_sweep,
    stationary_density_fd,
)
from .integrate import (
    BlowUpError,
    Ensemble,
    GaussianBlocks,
    RngStream,
    SimConfig,
    Trajectory,
    box_muller,
    ensemble_stats,
    euler1_step,
    euler2_step,
    gaussian_pairs,
    simulate,
    wiener_increments,
)

__version__ = "0.1.0"
