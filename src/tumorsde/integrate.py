"""Seeded Gaussian streams and weak Euler schemes.

Uniform variates come from counter-based Philox streams keyed by
(master seed, stream id), mapped into (0,1] so log u stays finite, and
turned into standard normals with the Box-Muller transform.  Identical
(seed, id) pairs reproduce identical sequences; distinct ids behave as
independent streams, which is what lets ensembles run paths in any
order or thread layout without changing the result.

Stream ids: a trajectory with base id b draws both components from
stream b (shared noise) or component i from stream b + i, i = 1, 2
(independent noise).  Ensemble path p has base id b + 1 + p (shared)
or b + 1 + 2p (independent), so every (path, component) pair of an
ensemble has its own stream.

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

from .models import DomainError, Mat2, ModelSpec, State, vector_field_fns
# no longer called here; the names stay importable because
# perfbench/tracing.py traces them at this call site
from .models import diag_partials, eval_vector_field  # noqa: F401
from .sde import LinearSDE

__all__ = [
    "RngStream",
    "BlowUpError",
    "SimConfig",
    "Trajectory",
    "Ensemble",
    "box_muller",
    "gaussian_pairs",
    "GaussianBlocks",
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


def box_muller(u1, u2, out=None):
    """Map two (0,1] uniforms to two independent standard normals.

    With out=(z1, z2) the arrays u1 and u2 are overwritten as scratch and
    the normals are written to z1 and z2, so nothing is allocated.
    """
    if out is None:
        u1, u2 = np.array(u1, dtype=float), np.array(u2, dtype=float)
        out = np.empty_like(u1), np.empty_like(u2)
    z1, z2 = out
    r = np.sqrt(np.multiply(-2.0, np.log(u1, out=u1), out=u1), out=u1)
    angle = np.multiply(2.0 * np.pi, u2, out=u2)
    np.multiply(r, np.cos(angle, out=z1), out=z1)
    np.multiply(r, np.sin(angle, out=z2), out=z2)
    return z1[()], z2[()]  # numpy scalars for scalar input


def gaussian_pairs(stream: RngStream, count: int) -> np.ndarray:
    """count standard normals from consecutive Box-Muller pairs."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.empty(0)
    npairs = (count + 1) // 2
    u = stream.uniforms(2 * npairs)
    out = np.empty(2 * npairs)
    box_muller(u[0::2], u[1::2], out=(out[0::2], out[1::2]))
    return out[:count]


class GaussianBlocks:
    """Successive blocks of standard normals from many streams at once.

    Column p of a block holds the next normals of streams[p], exactly as
    gaussian_pairs(streams[p], count) would return them, so even block
    lengths leave every stream where gaussian_pairs would.  Each stream
    fills one row of uniforms, the rows are deinterleaved once into
    contiguous (pairs, streams) arrays and one Box-Muller pass covers
    all streams.  The work arrays, for blocks of up to size rows, are
    allocated once.
    """

    def __init__(self, streams, size: int):
        npairs = (size + 1) // 2
        self._streams = list(streams)
        self._u = np.empty((len(self._streams), 2 * npairs))
        self._pairs = np.empty((2, npairs, len(self._streams)))
        self._out = np.empty((2 * npairs, len(self._streams)))

    def draw(self, count: int) -> np.ndarray:
        """The next count normals of every stream, as a (count, streams)
        view that the next draw overwrites."""
        npairs = (count + 1) // 2
        u = self._u[:, :2 * npairs]
        for row, st in zip(u, self._streams):
            st._gen.random(out=row)
        np.subtract(1.0, u, out=u)  # (0, 1], as RngStream.uniforms
        pairs = self._pairs[:, :npairs]
        pairs[...] = u.reshape(len(self._streams), npairs, 2).transpose(2, 1, 0)
        out = self._out
        box_muller(pairs[0], pairs[1], out=(out[0:2 * npairs:2], out[1:2 * npairs:2]))
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


_isfinite = math.isfinite


def _check_finite(x, y):
    """BlowUpError naming the first non-finite component; x and y are
    floats or arrays."""
    if isinstance(x, float) and isinstance(y, float):
        if _isfinite(x) and _isfinite(y):
            return
        ok1 = _isfinite(x)
    else:
        ok1 = bool(np.isfinite(x).all())
        if ok1 and np.isfinite(y).all():
            return
    raise BlowUpError(1 if not ok1 else 2)


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


def _matrix_fns(m: Mat2) -> tuple:
    """s -> m s over a state pair, and its constant own-component partials."""
    m11, m12, m21, m22 = m.a11, m.a12, m.a21, m.a22
    part = ((m11, 0.0), (m22, 0.0))

    def f(s):
        x, y = s
        return m11 * x + m12 * y, m21 * x + m22 * y

    return f, lambda s: part


def _zero(s):
    return 0.0, 0.0


def _zero_partials(s):
    return (0.0, 0.0), (0.0, 0.0)


def _step_fns(system, diffusion) -> tuple:
    """(drift, g, drift_partials, g_partials) of one run, each built once
    over a state pair of floats; diffusion None means a LinearSDE's own
    B-matrix noise, or no noise for a model."""
    if isinstance(system, LinearSDE):
        drift, dpart = _matrix_fns(system.A)
    elif isinstance(system, ModelSpec):
        drift, dpart = vector_field_fns(system)
    else:
        raise TypeError(f"cannot simulate {type(system).__name__}")
    if diffusion is not None:
        g, gpart = diffusion.fns()
    elif isinstance(system, LinearSDE):
        g, gpart = _matrix_fns(system.B)
    else:
        g, gpart = _zero, _zero_partials
    return drift, g, dpart, gpart


_SIM_CHUNK = 4096


def simulate(system, diffusion, cfg: SimConfig) -> Trajectory:
    """Iterate the selected scheme from cfg.initial.

    system is a ModelSpec or LinearSDE; diffusion an AffineDiffusion or
    None (a LinearSDE with diffusion=None uses its own B-matrix noise).
    The run is fully determined by (cfg, seed).  A step that is
    non-finite, leaves a model's domain, overflows or divides by zero
    truncates the trajectory and records the offending step index.
    Drift, diffusion and their partials are built once per run as
    closures over Python floats (vector_field_fns, AffineDiffusion.fns),
    so a step does only the scheme's arithmetic.
    """
    drift, g, dpart, gpart = _step_fns(system, diffusion)
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
    """Independent trajectories with per-time component means and
    variances.

    Path p runs simulate with base stream id b_p = cfg.stream + 1 + p
    for shared noise, drawing from stream b_p, and b_p = cfg.stream + 1
    + 2p for independent noise, drawing from streams b_p + 1 and b_p + 2.
    No two (path, component) pairs share a stream id.  Statistics cover
    the steps every path completed; paths that blew up early only
    shorten that common range.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    stride = 1 if cfg.noise_streams == "shared" else 2
    trajs = []
    for p in range(paths):
        cfg_p = SimConfig(dt=cfg.dt, steps=cfg.steps, initial=cfg.initial,
                          scheme=cfg.scheme, noise_streams=cfg.noise_streams,
                          seed=cfg.seed, stream=cfg.stream + 1 + stride * p)
        trajs.append(simulate(system, diffusion, cfg_p))
    nkeep = min(len(t.states) for t in trajs)
    block = np.stack([t.states[:nkeep] for t in trajs])  # (paths, nkeep, 2)
    mean = block.mean(axis=0)
    var = block.var(axis=0, ddof=1) if paths > 1 else np.zeros_like(mean)
    return Ensemble(trajectories=trajs, times=trajs[0].times[:nkeep],
                    mean=mean, variance=var)
