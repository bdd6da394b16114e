"""Seeded Gaussian streams and weak Euler schemes.

Uniform variates come from counter-based Philox streams keyed by
(master seed, stream id), mapped into (0,1] so log u stays finite, and
turned into standard normals with the Box-Muller transform.  Identical
(seed, id) pairs reproduce identical sequences; distinct ids behave as
independent streams, which is what lets ensembles run paths in any
order or thread layout without changing the result.

Two explicit schemes are provided.  The first-order step is

    x_i(n+1) = x_i(n) + f_i h + g_i G_i

and the second-order step adds the Milstein correction, the h^2/2 drift
Taylor term and the h G_i / 2 cross term, each built from own-component
partial derivatives only.  With uncoupled (diagonal) systems that makes
the second scheme a complete weak order-2 scheme; for coupled systems
the cross-component corrections are deliberately absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import DomainError, ModelSpec, State, diag_partials, eval_vector_field
from .sde import LinearSDE

__all__ = [
    "RngStream",
    "BlowUpError",
    "SimConfig",
    "Trajectory",
    "Ensemble",
    "box_muller",
    "gaussian_pairs",
    "wiener_increments",
    "euler1_step",
    "euler2_step",
    "simulate",
    "ensemble_stats",
]

_MASK64 = (1 << 64) - 1


class BlowUpError(ArithmeticError):
    """A scheme step produced a non-finite component."""

    def __init__(self, component: int):
        super().__init__(f"non-finite value in component {component}")
        self.component = component


@dataclass
class RngStream:
    """Counter-based uniform/Gaussian source for one logical stream."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, count: int) -> np.ndarray:
        """count uniforms in (0,1]."""
        return 1.0 - self._gen.random(count)

    def substream(self, i: int) -> "RngStream":
        return RngStream(self.seed, (self.stream + 1 + i) & _MASK64)


def box_muller(u1, u2):
    """Map two (0,1] uniforms to two independent standard normals."""
    r = np.sqrt(-2.0 * np.log(u1))
    return r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)


def gaussian_pairs(stream: RngStream, count: int) -> np.ndarray:
    """count standard normals from consecutive Box-Muller pairs."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.empty(0)
    npairs = (count + 1) // 2
    u = stream.uniforms(2 * npairs)
    z1, z2 = box_muller(u[0::2], u[1::2])
    out = np.empty(2 * npairs)
    out[0::2] = z1
    out[1::2] = z2
    return out[:count]


def wiener_increments(stream: RngStream, steps: int, dt: float) -> np.ndarray:
    """Increments W((n+1)h) - W(nh): sqrt(dt) times standard normals."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    return math.sqrt(dt) * gaussian_pairs(stream, steps)


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one trajectory run."""

    dt: float
    steps: int
    initial: State
    scheme: str = "euler1"  # euler1 | euler2
    noise_streams: str = "shared"  # shared | independent
    seed: int = 1
    stream: int = 0  # base stream id, offset per path in ensembles

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
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


@dataclass
class Ensemble:
    """Trajectories from independent streams plus per-time moments."""

    trajectories: list
    times: np.ndarray
    mean: np.ndarray      # shape (len(times), 2)
    variance: np.ndarray  # shape (len(times), 2), ddof=1


def _finite(v) -> bool:
    return math.isfinite(v) if isinstance(v, float) else bool(np.isfinite(v).all())


def _check_finite(x, y):
    """BlowUpError naming the first non-finite component; x and y are
    floats or arrays."""
    if not _finite(x):
        raise BlowUpError(1)
    if not _finite(y):
        raise BlowUpError(2)


def euler1_step(drift, diffusion, s, dt, g1_inc, g2_inc):
    """One explicit first-order step; works on scalars or arrays."""
    f1, f2 = drift(s)
    g1, g2 = diffusion(s)
    x = s[0] + f1 * dt + g1 * g1_inc
    y = s[1] + f2 * dt + g2 * g2_inc
    _check_finite(x, y)
    return x, y


def euler2_step(drift, diffusion, drift_partials, diffusion_partials,
                s, dt, g1_inc, g2_inc):
    """One second-order step with own-component partials.

    drift_partials / diffusion_partials map a state to
    ((d/dx of component 1, d2/dx2 of component 1),
     (d/dy of component 2, d2/dy2 of component 2)).
    """
    f1, f2 = drift(s)
    g1, g2 = diffusion(s)
    (df1, d2f1), (df2, d2f2) = drift_partials(s)
    (dg1, d2g1), (dg2, d2g2) = diffusion_partials(s)
    x = (s[0] + f1 * dt + g1 * g1_inc
         + g1 * dg1 * (g1_inc * g1_inc - dt) / 2.0
         + (f1 * df1 + 0.5 * g1 * g1 * d2f1) * dt * dt / 2.0
         + (g1 * df1 + f1 * dg1 + 0.5 * g1 * g1 * d2g1) * dt * g1_inc / 2.0)
    y = (s[1] + f2 * dt + g2 * g2_inc
         + g2 * dg2 * (g2_inc * g2_inc - dt) / 2.0
         + (f2 * df2 + 0.5 * g2 * g2 * d2f2) * dt * dt / 2.0
         + (g2 * df2 + f2 * dg2 + 0.5 * g2 * g2 * d2g2) * dt * g2_inc / 2.0)
    _check_finite(x, y)
    return x, y


def _drift_fns(system):
    """(drift, drift_partials) callables for a model or linear system."""
    if isinstance(system, LinearSDE):
        a = system.A

        def drift(s):
            return a.a11 * s[0] + a.a12 * s[1], a.a21 * s[0] + a.a22 * s[1]

        def partials(s):
            return (a.a11, 0.0), (a.a22, 0.0)

        return drift, partials
    if isinstance(system, ModelSpec):
        def drift(s):
            return eval_vector_field(system, State(s[0], s[1]))

        def partials(s):
            return diag_partials(system, State(s[0], s[1]))

        return drift, partials
    raise TypeError(f"cannot simulate {type(system).__name__}")


def _diffusion_fns(system, diffusion):
    """(diffusion, diffusion_partials) callables; None means no noise."""
    if diffusion is None:
        if isinstance(system, LinearSDE):
            b = system.B

            def g(s):
                return b.a11 * s[0] + b.a12 * s[1], b.a21 * s[0] + b.a22 * s[1]

            def partials(s):
                return (b.a11, 0.0), (b.a22, 0.0)

            return g, partials

        def zero(s):
            return 0.0, 0.0

        def zpart(s):
            return (0.0, 0.0), (0.0, 0.0)

        return zero, zpart
    b = diffusion.b

    def g(s):
        return diffusion.g(s[0], s[1])

    def partials(s):
        return (b.a11, 0.0), (b.a22, 0.0)

    return g, partials


_SIM_CHUNK = 4096


def simulate(system, diffusion, cfg: SimConfig) -> Trajectory:
    """Iterate the selected scheme from cfg.initial.

    system is a ModelSpec or LinearSDE; diffusion an AffineDiffusion or
    None (a LinearSDE with diffusion=None uses its own B-matrix noise).
    The run is fully determined by (cfg, seed).  A step that is
    non-finite, leaves a model's domain, overflows or divides by zero
    truncates the trajectory and records the offending step index.
    """
    drift, dpart = _drift_fns(system)
    g, gpart = _diffusion_fns(system, diffusion)
    stream = RngStream(cfg.seed, cfg.stream)
    if cfg.noise_streams == "shared":
        inc1 = wiener_increments(stream, cfg.steps, cfg.dt)
        inc2 = inc1
    else:
        inc1 = wiener_increments(stream.substream(0), cfg.steps, cfg.dt)
        inc2 = wiener_increments(stream.substream(1), cfg.steps, cfg.dt)
    states = np.empty((cfg.steps + 1, 2))
    states[0] = (cfg.initial.x, cfg.initial.y)
    # the state is carried as a tuple of Python floats; increments are
    # read and states stored in chunks of _SIM_CHUNK steps
    s = tuple(states[0].tolist())
    dt, euler1 = cfg.dt, cfg.scheme == "euler1"
    blowup = None
    n_done = cfg.steps
    for start in range(0, cfg.steps, _SIM_CHUNK):
        stop = min(start + _SIM_CHUNK, cfg.steps)
        w1 = inc1[start:stop].tolist()
        w2 = w1 if inc2 is inc1 else inc2[start:stop].tolist()
        rows = []
        for w1n, w2n in zip(w1, w2):
            try:
                if euler1:
                    s = euler1_step(drift, g, s, dt, w1n, w2n)
                else:
                    s = euler2_step(drift, g, dpart, gpart, s, dt, w1n, w2n)
            except (BlowUpError, DomainError, OverflowError, ZeroDivisionError):
                n_done = start + len(rows)
                blowup = n_done + 1
                break
            rows.append(s)
        if rows:
            states[start + 1:start + 1 + len(rows)] = rows
        if blowup is not None:
            break
    times = cfg.dt * np.arange(n_done + 1)
    return Trajectory(times=times, states=states[:n_done + 1], blowup_index=blowup)


def ensemble_stats(system, diffusion, cfg: SimConfig, paths: int) -> Ensemble:
    """Independent trajectories (stream id = cfg.stream + 1 + path index)
    with per-time component means and variances.

    Statistics cover the steps every path completed; paths that blew up
    early only shorten that common range.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    trajs = []
    for p in range(paths):
        cfg_p = SimConfig(dt=cfg.dt, steps=cfg.steps, initial=cfg.initial,
                          scheme=cfg.scheme, noise_streams=cfg.noise_streams,
                          seed=cfg.seed, stream=cfg.stream + 1 + p)
        trajs.append(simulate(system, diffusion, cfg_p))
    nkeep = min(len(t.states) for t in trajs)
    block = np.stack([t.states[:nkeep] for t in trajs])  # (paths, nkeep, 2)
    mean = block.mean(axis=0)
    var = block.var(axis=0, ddof=1) if paths > 1 else np.zeros_like(mean)
    return Ensemble(trajectories=trajs, times=trajs[0].times[:nkeep],
                    mean=mean, variance=var)
