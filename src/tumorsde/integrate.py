"""Seeded Gaussian streams and weak Euler schemes.

Variates come from counter-based Philox streams: numpy Generators
keyed by (master seed, stream id) (rng_stream).  A trajectory's normals
are Box-Muller pairs of uniforms mapped into (0,1], so log u stays
finite (wiener_increments); lyapunov_mc's are numpy's ziggurat on the
same streams, an exact sampler that skips Box-Muller's log, cos and
sin.  Identical (seed, id) pairs reproduce identical sequences; distinct
ids behave as independent streams, which is what lets many paths run in
any order or process layout without changing the result.

Stream ids: a trajectory draws both components from stream 0 of its
seed (shared noise) or component i from stream i, i = 1, 2
(independent noise).

Two explicit schemes are provided.  The first-order step is

    x_i(n+1) = x_i(n) + f_i h + g_i G_i

and the second-order step adds the Milstein correction, the h^2/2 drift
Taylor term and the h G_i / 2 cross term, each built from own-component
partial derivatives only.  With uncoupled (diagonal) systems that makes
the second scheme a complete weak order-2 scheme; for coupled systems
the cross-component corrections are deliberately absent.

simulate builds one step function per run (_stepper), which does the
selected scheme's arithmetic and finiteness check with the affine
noise's coefficients bound as locals; the noise is the given diffusion,
a LinearSDE's own B s or the zero noise of a model run without one.
The drift and its partials come from one closure call per step:
a model's own field or jet (ModelSpec), or the step's own closures over
a LinearSDE's A s.  tests/euler_ref.py holds the same schemes over any
callables, on scalars or arrays: the step is pinned to it bit for bit,
and criterion 5 certifies its weak order.  A run that blows up stops
with fewer than steps + 1 states: its blow-up index is its state count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import DomainError, Mat2, ModelSpec, State
from .sde import AffineDiffusion, LinearSDE

__all__ = [
    "rng_stream",
    "BlowUpError",
    "SimConfig",
    "Trajectory",
    "wiener_increments",
    "simulate",
]

_MASK64 = (1 << 64) - 1


class BlowUpError(ArithmeticError):
    """A scheme step produced a non-finite component."""

    def __init__(self, component: int):
        super().__init__(f"non-finite value in component {component}")
        self.component = component


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox generator of stream id stream of a master seed, keyed
    by (seed mod 2^64, stream mod 2^64)."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def wiener_increments(gen: np.random.Generator, steps: int, dt: float) -> np.ndarray:
    """steps increments W((n+1)h) - W(nh): sqrt(dt) times Box-Muller
    pairs, cosine first, of gen's uniforms 1 - U in (0, 1], whose log is
    finite.  ValueError unless steps is an integer >= 0 and dt > 0."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and > 0")
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError("steps must be an integer >= 0")
    u = 1.0 - gen.random(2 * ((steps + 1) // 2))
    z = np.empty_like(u)
    u1, u2, z1, z2 = u[0::2], u[1::2], z[0::2], z[1::2]
    r = np.sqrt(np.multiply(-2.0, np.log(u1, out=u1), out=u1), out=u1)
    angle = np.multiply(2.0 * np.pi, u2, out=u2)
    np.multiply(r, np.cos(angle, out=z1), out=z1)
    np.multiply(r, np.sin(angle, out=z2), out=z2)
    return math.sqrt(dt) * z[:steps]


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one trajectory run."""

    dt: float
    steps: int
    initial: State
    scheme: str = "euler1"  # euler1 | euler2
    noise_streams: str = "shared"  # shared | independent
    seed: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and > 0")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 1:
            raise ValueError("steps must be an integer >= 1")
        if self.scheme not in ("euler1", "euler2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.noise_streams not in ("shared", "independent"):
            raise ValueError(f"unknown noise_streams {self.noise_streams!r}")


@dataclass
class Trajectory:
    """Discrete sample path; truncated at the first non-finite state."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), 2)
    blowup_index: Optional[int] = None  # step whose result was non-finite

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times/states length mismatch")


_isfinite = math.isfinite


# the noise of a model run without a diffusion
_NO_NOISE = AffineDiffusion(Mat2(0.0, 0.0, 0.0, 0.0), 0.0, 0.0)


def _stepper(system, diffusion, cfg: SimConfig):
    """step(s, w1, w2) -> the next state pair of cfg's scheme from the
    state pair s of floats, with increments w1, w2: the first- or
    second-order step of the module docstring, built once per run.

    The drift is the field (euler1) or the field with its partials
    (euler2, the jet) that a model carries, or a LinearSDE's A s with
    its partials (a11, 0), (a22, 0).  The noise is affine, the given
    diffusion, a LinearSDE's own B s or none for a model, so g = b s + c
    and its partials (b11, 0), (b22, 0) are bound as locals.  A
    non-finite component raises BlowUpError naming the first one.
    """
    if isinstance(system, LinearSDE):
        a11, a12, a21, a22 = system.A.a11, system.A.a12, system.A.a21, system.A.a22

        # A s + 0, the affine form with zero offsets: a -0.0 sum becomes 0.0
        def field(s):
            x, y = s
            return a11 * x + a12 * y + 0.0, a21 * x + a22 * y + 0.0

        def jet(s):
            x, y = s
            return a11 * x + a12 * y + 0.0, a21 * x + a22 * y + 0.0, a11, 0.0, a22, 0.0

        own = AffineDiffusion(system.B, 0.0, 0.0)
    elif isinstance(system, ModelSpec):
        field, jet = system.field, system.jet
        own = _NO_NOISE
    else:
        raise TypeError(f"cannot simulate {type(system).__name__}")
    noise = own if diffusion is None else diffusion
    b11, b12, b21, b22 = noise.b.a11, noise.b.a12, noise.b.a21, noise.b.a22
    c1, c2, d2g, dt = noise.c1, noise.c2, 0.0, cfg.dt

    if cfg.scheme == "euler1":
        def step(s, w1, w2):
            x, y = s
            f1, f2 = field(s)
            xn = x + f1 * dt + (b11 * x + b12 * y + c1) * w1
            yn = y + f2 * dt + (b21 * x + b22 * y + c2) * w2
            if _isfinite(xn) and _isfinite(yn):
                return xn, yn
            raise BlowUpError(2 if _isfinite(xn) else 1)

        return step

    def step(s, w1, w2):
        x, y = s
        f1, f2, df1, d2f1, df2, d2f2 = jet(s)
        g1 = b11 * x + b12 * y + c1
        g2 = b21 * x + b22 * y + c2
        xn = (x + f1 * dt + g1 * w1
              + g1 * b11 * (w1 * w1 - dt) / 2.0
              + (f1 * df1 + 0.5 * g1 * g1 * d2f1) * dt * dt / 2.0
              + (g1 * df1 + f1 * b11 + 0.5 * g1 * g1 * d2g) * dt * w1 / 2.0)
        yn = (y + f2 * dt + g2 * w2
              + g2 * b22 * (w2 * w2 - dt) / 2.0
              + (f2 * df2 + 0.5 * g2 * g2 * d2f2) * dt * dt / 2.0
              + (g2 * df2 + f2 * b22 + 0.5 * g2 * g2 * d2g) * dt * w2 / 2.0)
        if _isfinite(xn) and _isfinite(yn):
            return xn, yn
        raise BlowUpError(2 if _isfinite(xn) else 1)

    return step


# steps per chunk of a trajectory; even, so that drawing each chunk's
# increments as it starts keeps the Box-Muller pairs of one draw.  The
# CLI's writer formats a chunk once it is stepped, so a small chunk
# leaves little formatting after the last step: a 20k-step KT euler2
# CLI run took 43 ms with 4096 and 37 ms with 1024 (min of 30, 2-vCPU VM)
_SIM_CHUNK = 1024


def _state_chunks(system, diffusion, cfg: SimConfig):
    """simulate's trajectory in chunks of _SIM_CHUNK steps.

    Yields one (k, 2) array of states per chunk, the first one starting
    with cfg.initial.  A run without a blow-up yields cfg.steps + 1
    states; one that blows up ends with the chunk of the failed step and
    yields fewer, as many as its blow-up index (a blow-up on a chunk's
    first step ends with an empty chunk).  Each chunk's increments are
    drawn from the streams as the chunk starts, which gives the
    increments of one draw of cfg.steps, so memory stays O(_SIM_CHUNK)
    however many steps are taken.
    """
    step = _stepper(system, diffusion, cfg)
    if cfg.noise_streams == "shared":
        st1 = st2 = rng_stream(cfg.seed)
    else:
        st1, st2 = rng_stream(cfg.seed, 1), rng_stream(cfg.seed, 2)
    # the state is carried as a tuple of Python floats
    s = (float(cfg.initial.x), float(cfg.initial.y))
    rows = [s]
    for start in range(0, cfg.steps, _SIM_CHUNK):
        count = min(_SIM_CHUNK, cfg.steps - start)
        w1 = wiener_increments(st1, count, cfg.dt).tolist()
        w2 = w1 if st2 is st1 else wiener_increments(st2, count, cfg.dt).tolist()
        try:
            for w1n, w2n in zip(w1, w2):
                s = step(s, w1n, w2n)
                rows.append(s)
        except (BlowUpError, DomainError, OverflowError, ZeroDivisionError):
            yield np.array(rows, dtype=float).reshape(-1, 2)
            return
        yield np.array(rows, dtype=float)
        rows = []


def simulate(system, diffusion, cfg: SimConfig) -> Trajectory:
    """Iterate the selected scheme from cfg.initial.

    system is a ModelSpec or LinearSDE; diffusion an AffineDiffusion or
    None (a LinearSDE with diffusion=None uses its own B-matrix noise).
    The run is fully determined by (cfg, seed).  A step that is
    non-finite, leaves a model's domain, overflows or divides by zero
    truncates the trajectory, whose blow-up index, the offending step's
    index, is then its state count.  The step function is built once per
    run (_stepper) over Python floats, so a step is two Python calls: the
    step and the model's field, with its partials for euler2.  The
    states are the chunks of _state_chunks, joined.
    """
    states = np.concatenate(list(_state_chunks(system, diffusion, cfg)))
    n = len(states)
    return Trajectory(times=cfg.dt * np.arange(n), states=states,
                      blowup_index=n if n <= cfg.steps else None)
