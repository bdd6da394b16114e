"""Top Lyapunov exponents of dX = A X dt + B X dW.

Writing the solution in polar form (log r, theta) gives the pair of
scalar equations

    d log r = [q1(th) + (q4(th)^2 - q2(th)^2) / 2] dt + q2(th) dW
    d theta = [q3(th) - q2(th) q4(th)] dt + q4(th) dW

with the trigonometric coefficients

    q1 = a11 cos^2 + (a12 + a21) cos sin + a22 sin^2
    q2 = b11 cos^2 + (b12 + b21) cos sin + b22 sin^2
    q3 = a21 cos^2 + (a22 - a11) cos sin - a12 sin^2
    q4 = b21 cos^2 + (b22 - b11) cos sin - b12 sin^2
    q5 = dq4/dth = (b22 - b11) cos 2th - (b12 + b21) sin 2th

All five are held once, as (mean, cos 2th, sin 2th) coefficients, in
``_angle_table``; q5's row is derived from q4's, and their products come
from one rule, ``_times``, as rows over the basis of ``_double_angle_grid``.
Being functions of 2th, they have period pi: the angle matters only
through the line it spans (Khasminskii 1967).  The exponent is the
stationary average of the log r drift against the angle density
p(theta).  Three estimators are provided:

* ``lyapunov_fd``   -- backward-difference solve of the stationary
  angle equation on a uniform grid over one period [0, pi],
* ``closed_form_lyapunov`` -- the exact periodic density (probability
  flux included) when B = [[alpha, -beta], [beta, alpha]], whose angle
  diffusion beta^2 is constant,
* ``lyapunov_mc``   -- first-order Euler simulation of the polar pair.

``stability_sweep`` maps alpha to the exponent for the alpha-family
noise, brackets the zero crossings and reports the stable alpha-set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .integrate import GaussianBlocks, RngStream
# no longer called here; the name stays importable because
# perfbench/tracing.py traces it at this call site
from .integrate import gaussian_pairs  # noqa: F401
from .models import Equilibrium, Mat2, ModelSpec
from .sde import LinearSDE, alpha_family, linearize

__all__ = [
    "DegeneratePhaseDiffusionError",
    "PhaseCoefficients",
    "PhaseDensity",
    "LyapunovEstimate",
    "SweepResult",
    "phase_coefficients",
    "stationary_density_fd",
    "lyapunov_fd",
    "closed_form_lyapunov",
    "lyapunov_mc",
    "mc_step_count",
    "stability_sweep",
]

TWO_PI = 2.0 * math.pi


class DegeneratePhaseDiffusionError(ArithmeticError):
    """The stationary angle equation cannot be solved reliably: q4
    vanishes somewhere on the grid, or the density's dynamic range
    exceeds floating point.  Use the mc method for such systems."""


@dataclass(frozen=True)
class PhaseCoefficients:
    """The five angle coefficients at one angle (floats) or on an
    angle array (arrays of its shape)."""

    q1: float
    q2: float
    q3: float
    q4: float
    q5: float


def _angle_table(sys: LinearSDE) -> tuple:
    """(mean, cos 2th, sin 2th) coefficients of q1..q5: q = m + c cos 2th
    + s sin 2th.  q5 = dq4/dth, so its row is (0, 2 s4, -2 c4)."""
    a, b = sys.A, sys.B
    q4 = (0.5 * (b.a21 - b.a12), 0.5 * (b.a12 + b.a21), -0.5 * (b.a11 - b.a22))
    return (
        (0.5 * (a.a11 + a.a22), 0.5 * (a.a11 - a.a22), 0.5 * (a.a12 + a.a21)),
        (0.5 * (b.a11 + b.a22), 0.5 * (b.a11 - b.a22), 0.5 * (b.a12 + b.a21)),
        (0.5 * (a.a21 - a.a12), 0.5 * (a.a12 + a.a21), -0.5 * (a.a11 - a.a22)),
        q4,
        (0.0, 2.0 * q4[2], -2.0 * q4[1]),
    )


def _times(a, b) -> np.ndarray:
    """The product of two (mean, cos 2th, sin 2th) rows as a row over
    the basis (1, c, s, c^2, c s), c = cos 2th and s = sin 2th, with s^2
    folded into 1 - c^2."""
    (ma, ca, sa), (mb, cb, sb) = a, b
    return np.array((ma * mb + sa * sb, ma * cb + ca * mb, ma * sb + sa * mb,
                     ca * cb - sa * sb, ca * sb + sa * cb))


def _polar_rows(sys: LinearSDE) -> np.ndarray:
    """Rows over the basis of ``_times``, stacked: the log r drift Q =
    q1 + (q4^2 - q2^2) / 2, the theta drift D = q3 - q2 q4, q2, q4, and
    fd's angle drift -D + q4 q5."""
    r1, r2, r3, r4, r5 = _angle_table(sys)
    q1, q2, q3, q4 = (np.array(r + (0.0, 0.0)) for r in (r1, r2, r3, r4))
    d = q3 - _times(r2, r4)
    return np.array((q1 + 0.5 * (_times(r4, r4) - _times(r2, r2)), d, q2, q4,
                     _times(r4, r5) - d))


def phase_coefficients(sys: LinearSDE, theta) -> PhaseCoefficients:
    """q1..q5 at theta, a float or an array of angles."""
    c2t, s2t = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return PhaseCoefficients(*(m + c * c2t + s * s2t
                               for m, c, s in _angle_table(sys)))


# five rows of 10^6 + 1 doubles each: the two grids at --grid-n 10^6 hold 80 MB
@functools.lru_cache(maxsize=2)
def _double_angle_grid(n: int) -> np.ndarray:
    """Read-only basis rows (1, c, s, c^2, c s), c = cos 2th and s =
    sin 2th, at th = i pi / n, i = 0..n."""
    theta = math.pi / n * np.arange(n + 1)
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    out = np.stack((np.ones(n + 1), c, s, c * c, c * s))
    out.flags.writeable = False
    return out


@dataclass
class PhaseDensity:
    """Discrete stationary angle density on a uniform grid.

    values holds p(0..n) at theta = i * step, step = pi / n; the
    quadrature convention is sum(values[1:]) * step = 1 over [0, pi].
    """

    n: int
    step: float
    values: np.ndarray
    periodicity_defect: float
    min_q4_sq: float
    nonpositive_denominators: int  # nodes 1..n whose denominator is <= 0


@dataclass
class LyapunovEstimate:
    value: float
    method: str  # fd | closed | mc
    stderr: float = 0.0
    n: int = 0  # grid size or path count
    diagnostics: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    """Exponent along an alpha grid with refined zero crossings.

    sign_changes are bisection-refined brackets (lo, hi) of width at
    most the refinement tolerance with opposite-sign endpoints;
    stable_set lists the maximal alpha intervals with a non-positive
    exponent (an exact zero counts as stable).
    """

    alphas: np.ndarray
    lambdas: np.ndarray
    stderrs: np.ndarray
    method: str
    sign_changes: list
    stable_set: list
    failures: list


# q4^2 below this somewhere on the grid counts as a vanishing angle diffusion
_MIN_Q4_SQ = 1e-12
# steps per block of the recurrence scan, and the largest |log| of a
# product of its ratios that a block may hold
_SCAN_BLOCK = 128
_SCAN_RANGE = 600.0


def _affine_scan(r: np.ndarray, f: np.ndarray, max_log_r: float) -> tuple:
    """Solutions x(0..m) of x(i+1) = r(i) x(i) + f(i), i < m: ph with
    x(0) = 1 and f = 0, pp with x(0) = 0.

    The m steps are cut into blocks.  Inside a block the running
    products P of r and the block's own solution from 0, Q = P cumsum(f
    / P), come from cumprod and cumsum; a short loop then carries both
    states across the block ends.  A block holds at most _SCAN_RANGE /
    max|log r| steps, so P stays within e^(+-_SCAN_RANGE) and f / P does
    not overflow where the solutions themselves do not.  Signs of r
    pass through cumprod unchanged.
    """
    m = r.size
    step = (_SCAN_BLOCK if max_log_r * _SCAN_BLOCK <= _SCAN_RANGE
            else max(1, int(_SCAN_RANGE / max_log_r)))
    blocks = -(-m // step)
    pad = blocks * step - m
    r = np.concatenate((r, np.ones(pad))).reshape(blocks, step)
    f = np.concatenate((f, np.zeros(pad))).reshape(blocks, step)
    P = np.cumprod(r, axis=1)
    Q = np.cumsum(f / P, axis=1)
    Q *= P
    hs, ps = [], []  # ph and pp at the block starts
    h, p = 1.0, 0.0
    for pe, qe in zip(P[:, -1].tolist(), Q[:, -1].tolist()):
        hs.append(h)
        ps.append(p)
        h, p = pe * h, pe * p + qe
    ph = np.concatenate(([1.0], (P * np.array(hs)[:, None]).ravel()[:m]))
    pp = np.concatenate(([0.0], (P * np.array(ps)[:, None] + Q).ravel()[:m]))
    return ph, pp


def stationary_density_fd(sys: LinearSDE, n: int = 10000) -> PhaseDensity:
    """Stationary angle density by a backward-difference recurrence on
    n steps of h = pi / n over one period [0, pi].

    Discretizing  q4^2/2 p' + (-q3 + q2 q4 + q4 q5) p = p0  with the
    backward difference gives

        p(i) = (2 h p0 + q4(i)^2 p(i-1)) / (2 h (-q3 + q2 q4 + q4 q5)(i) + q4(i)^2)

    The constant p0 is the stationary probability flux through the
    period.  Seeding p(0) = 1 and solving the linear two-parameter
    family for the p0 that closes the period (p(n) = p(0)) selects the
    periodic solution; the result is then rescaled to unit mass.  A
    constant-coefficient system (q2, q4 constant, q3 = q5 = 0) has zero
    flux and the recurrence reproduces the uniform density 1/pi exactly.

    The homogeneous part changes by the factor exp(G) across the period,
    G = sum_i log(q4(i)^2 / |denom(i)|).  Run forward with G > 0 it
    grows, and the periodic combination cancels catastrophically (for
    the alpha family G ~ pi k0 with k0 = (a21 - a12 - 2 alpha beta) /
    beta^2).  So when G > 0 the same recurrence is solved backwards,

        p(i-1) = (denom(i) p(i) - 2 h p0) / q4(i)^2,

    seeded at p(n) = 1.  Either way it is the first-order affine scan
    x(i+1) = r(i) x(i) + f(i) of ``_affine_scan``, and both directions
    give the same discrete solution up to rounding.
    """
    if n < 2:
        raise ValueError("grid size n must be >= 2")
    h = math.pi / n
    q4, drift = _polar_rows(sys)[3:] @ _double_angle_grid(n)
    q4sq = q4 * q4
    min_q4_sq = float(q4sq.min())
    if min_q4_sq < _MIN_Q4_SQ:
        raise DegeneratePhaseDiffusionError(
            f"min q4^2 = {min_q4_sq:.3e} < {_MIN_Q4_SQ:.1e} on the grid; "
            "the angle diffusion degenerates there -- use the mc method")
    denom = 2.0 * h * drift + q4sq
    if np.any(denom == 0):
        raise DegeneratePhaseDiffusionError("singular recurrence denominator")
    # homogeneous (flux 0) and unit-flux particular solutions, run in
    # the direction in which the homogeneous part decays
    log_ratio = np.log(q4sq[1:] / np.abs(denom[1:]))
    forward = float(np.sum(log_ratio)) <= 0.0
    if forward:
        num, den, flux = q4sq[1:], denom[1:], 2.0 * h
    else:
        num, den, flux = denom[:0:-1], q4sq[:0:-1], -2.0 * h
    with np.errstate(over="ignore", invalid="ignore"):
        ph, pp = _affine_scan(num / den, flux / den,
                              float(np.abs(log_ratio).max()))
    if not (np.isfinite(ph).all() and np.isfinite(pp).all()):
        raise DegeneratePhaseDiffusionError(
            "recurrence dynamic range overflows for this system; "
            "use the mc method")
    p0 = (ph[0] - ph[n]) / pp[n] if pp[n] != 0.0 else 0.0
    p = ph + p0 * pp
    if not forward:
        p = np.ascontiguousarray(p[::-1])
    mass = float(np.sum(p[1:]) * h)
    if not math.isfinite(mass) or mass <= 0:
        raise DegeneratePhaseDiffusionError(
            f"density mass {mass!r} not normalizable")
    p /= mass
    if p.min() < -1e-12 * p.max():
        raise DegeneratePhaseDiffusionError(
            "recurrence lost positivity; increase the grid size or use "
            "the mc method")
    return PhaseDensity(n=n, step=h, values=p,
                        periodicity_defect=float(abs(p[n] - p[0])),
                        min_q4_sq=min_q4_sq,
                        nonpositive_denominators=int(
                            np.count_nonzero(denom[1:] <= 0)))


def lyapunov_fd(sys: LinearSDE, n: int = 10000) -> LyapunovEstimate:
    """Grid quadrature of the log r drift Q (``_polar_rows``) against
    the angle density on n steps over [0, pi]:

        lambda = sum_i Q(i) p(i) h

    Diagnostic ``nonpositive_denominators`` counts the grid nodes at
    which the recurrence divides by a non-positive number; a density
    solved through such nodes carries amplified rounding.
    """
    dens = stationary_density_fd(sys, n=n)
    moments = _double_angle_grid(n)[:, 1:] @ dens.values[1:]
    value = float(_polar_rows(sys)[0] @ moments) * dens.step
    return LyapunovEstimate(
        value=value, method="fd", stderr=0.0, n=n,
        diagnostics={"periodicity_defect": dens.periodicity_defect,
                     "min_q4_sq": dens.min_q4_sq,
                     "nonpositive_denominators": dens.nonpositive_denominators})


# beyond this amplitude e^{+-P} leaves floating-point range
_MAX_AMPLITUDE = 700.0
# largest accepted round-off bound on a closed-form exponent
_CLOSED_ROUNDOFF = 1e-9


def closed_form_lyapunov(A: Mat2, alpha: float, beta: float) -> LyapunovEstimate:
    """Exact exponent for the noise B = alpha I + beta J (Khasminskii 1967).

    The angle obeys d theta = (q3 - alpha beta) dt + beta dW, so the
    periodic stationary density solves beta^2/2 p' - (q3 - alpha beta) p
    = -flux.  Write E' = 2 (q3 - alpha beta) / beta^2 = k0 + P' with P
    periodic; from q3's row (m3, c3, s3)

        k0 = 2 (m3 - alpha beta) / beta^2,
        P  = (c3 sin 2theta - s3 cos 2theta) / beta^2.

    Then p = e^P u with u' - k0 u proportional to e^{-P}.  Everything has
    period pi, so in the Fourier modes e^{2 i n theta} of one period u_n
    ~ c_n k0 / (k0 - 2 i n), c_n those of e^{-P}, and the n = 0 weight is
    1 (also at k0 = 0, where the flux vanishes).  P has amplitude amp =
    hypot(c3, s3) / beta^2 and the modes of e^{-P} fall like I_n(amp),
    so n, the next power of two >= 4 amp + 32, nodes over [0, pi) of the
    cached ``_double_angle_grid`` resolve it spectrally.  With q1's row
    (m1, c1, s1),

        lambda = m1 + c1 <cos 2theta> + s1 <sin 2theta> + (beta^2 - alpha^2) / 2.

    The inverse FFT is accurate to about eps max(e^{-P}) per node, so
    the exponent's round-off is bounded by hypot(c1, s1) eps
    max(e^{-P}) sum(e^P) / sum(p) (diagnostic ``roundoff``).  That grows
    like e^{2 amp} when |k0| >> amp; above 1e-9, or for amp > 700, the
    system is rejected with DegeneratePhaseDiffusionError.
    """
    if beta == 0:
        raise ValueError("beta = 0: the angle diffusion vanishes")
    (m1, c1, s1), _, (m3, c3, s3), _, _ = _angle_table(
        LinearSDE(A, alpha_family(alpha, beta)))
    amp = math.hypot(c3, s3) / beta ** 2
    if amp > _MAX_AMPLITUDE:
        raise DegeneratePhaseDiffusionError(
            f"angle density amplitude {amp:.3g} leaves floating-point range; "
            "use the mc method")
    m = 1 << math.ceil(math.log2(4.0 * amp + 32.0))
    _, c2t, s2t, _, _ = _double_angle_grid(m)[:, :m]
    per = (c3 * s2t - s3 * c2t) / beta ** 2
    k0 = 2.0 * (m3 - alpha * beta) / beta ** 2
    n = np.fft.fftfreq(m, 1.0 / m)
    weights = np.ones(m, dtype=complex)
    weights[1:] = k0 / (k0 - 2j * n[1:])
    # e^{-P} and e^{P}, each scaled by e^{-amp} so that neither overflows
    down, up = np.exp(-per - amp), np.exp(per - amp)
    dens = up * np.fft.ifft(np.fft.fft(down) * weights).real
    mass = float(dens.sum())
    roundoff = (math.hypot(c1, s1) * math.ulp(1.0)
                * float(down.max() * up.sum()) / mass) if mass > 0 else math.inf
    if not roundoff <= _CLOSED_ROUNDOFF:
        raise DegeneratePhaseDiffusionError(
            f"closed-form round-off bound {roundoff:.3g} exceeds "
            f"{_CLOSED_ROUNDOFF:g}; use the fd or mc method")
    c2, s2 = float(dens @ c2t) / mass, float(dens @ s2t) / mass
    value = m1 + c1 * c2 + s1 * s2 + 0.5 * (beta ** 2 - alpha ** 2)
    return LyapunovEstimate(value=value, method="closed", stderr=0.0, n=m,
                            diagnostics={"c2": c2, "s2": s2, "roundoff": roundoff})


# increments of an mc estimate are drawn in blocks of at most _MC_BLOCK
# steps and _MC_BLOCK_NORMALS normals over all paths
_MC_BLOCK = 8192
_MC_BLOCK_NORMALS = 2 ** 18
# an mc estimate of more Euler steps than this is refused
_MAX_MC_STEPS = 10 ** 7


def mc_step_count(horizon: float, dt: float) -> int:
    """Euler steps of an mc estimate, round(horizon / dt); ValueError
    when that is not finite or not in 1.._MAX_MC_STEPS."""
    ratio = horizon / dt
    if not (math.isfinite(ratio) and 1 <= round(ratio) <= _MAX_MC_STEPS):
        raise ValueError(f"horizon / dt = {ratio:.6g}: the Euler step "
                         f"count must be 1 to {_MAX_MC_STEPS}")
    return round(ratio)


def lyapunov_mc(sys: LinearSDE, horizon: float = 200.0, dt: float = 1e-3,
                paths: int = 64, seed: int = 1,
                stream_base: int = 0) -> LyapunovEstimate:
    """Monte Carlo estimate from the polar pair.

    Each path integrates (log r, phi = 2 theta) with the first-order
    Euler scheme and one shared Wiener increment per step, starting from
    a uniform angle; the estimate is the path mean of log(r(T)/r(0)) / T
    with its standard error.  Path p draws from stream (seed,
    stream_base + p), so results do not depend on scheduling.  The
    stderr is statistical only: it does not cover the O(dt) bias of the
    Euler scheme.

    All paths advance together: a step evaluates V = (1, c, s, c^2, c s)
    at c = cos phi, s = sin phi, and one product of V with the rows
    (dt Q, 2 dt D, q2, 2 q4) of ``_polar_rows`` gives the drift and
    noise increments of (log r, phi).
    """
    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be > 0")
    if paths < 1:
        raise ValueError("paths must be >= 1")
    # rows dt Q, 2 dt D, q2, 2 q4 over V
    m = _polar_rows(sys)[:4] * [[dt], [2.0 * dt], [1.0], [2.0]]
    nsteps = mc_step_count(horizon, dt)
    streams = [RngStream(seed, stream_base + p) for p in range(paths)]
    x = np.zeros((2, paths))  # log r, phi; theta starts uniform on [0, 2 pi)
    x[1] = [2.0 * TWO_PI * st.uniforms(1)[0] for st in streams]
    v = np.ones((5, paths))
    inc = np.empty((4, paths))
    phi, c, s, cc, cs = x[1], v[1], v[2], v[3], v[4]
    drift, noise = inc[:2], inc[2:]
    cos, sin, mul, matmul = np.cos, np.sin, np.multiply, np.matmul
    sdt = math.sqrt(dt)
    # even block lengths keep every stream's Box-Muller pairing
    block = min(_MC_BLOCK, max(2, _MC_BLOCK_NORMALS // paths // 2 * 2))
    normals = GaussianBlocks(streams, block)
    done = 0
    while done < nsteps:
        blen = min(block, nsteps - done)
        dw = normals.draw(blen)
        dw *= sdt
        for w in dw:
            cos(phi, out=c)
            sin(phi, out=s)
            mul(c, c, out=cc)
            mul(c, s, out=cs)
            matmul(m, v, out=inc)
            x += drift
            noise *= w
            x += noise
        done += blen
    per_path = x[0] / (nsteps * dt)
    value = float(per_path.mean())
    stderr = float(per_path.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return LyapunovEstimate(value=value, method="mc", stderr=stderr, n=paths,
                            diagnostics={"horizon": horizon, "dt": dt})


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (1 << 64) - 1
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (1 << 64) - 1
    return z ^ (z >> 31)


def _refine_stream_base(alpha: float) -> int:
    """Stream id for off-grid evaluations, derived from the alpha bits."""
    bits = int(np.float64(alpha).view(np.uint64))
    return (1 << 63) | (_splitmix64(bits) >> 1)


def stability_sweep(model: ModelSpec, equilibrium: Equilibrium, beta: float,
                    alpha_grid, method: str = "fd", *,
                    grid_n: int = 10000,
                    horizon: float = 200.0, dt: float = 1e-3,
                    paths: int = 64, seed: int = 1,
                    refine_tol: float = 1e-3) -> SweepResult:
    """Exponent along an alpha grid for B = [[alpha, -beta], [beta, alpha]].

    Zero crossings found on the grid are refined by bisection to
    brackets of width refine_tol; a per-point failure (degenerate angle
    diffusion, non-normalizable density) is recorded and the sweep
    continues.  For the mc method, grid point k draws from stream block
    (seed, k * 2^32) and refinement points derive their stream from the
    alpha bit pattern, so results are schedule-independent.
    """
    alphas = np.asarray(list(alpha_grid), dtype=float)
    if alphas.size and np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha_grid must be strictly increasing")
    if method not in ("fd", "closed", "mc"):
        raise ValueError(f"unknown method {method!r}")
    a_mat = linearize(model, alpha_family(0.0, beta), equilibrium).A

    def evaluate(alpha: float, stream_base: int) -> LyapunovEstimate:
        if method == "fd":
            return lyapunov_fd(LinearSDE(a_mat, alpha_family(alpha, beta)), n=grid_n)
        if method == "closed":
            return closed_form_lyapunov(a_mat, alpha, beta)
        return lyapunov_mc(LinearSDE(a_mat, alpha_family(alpha, beta)),
                           horizon=horizon, dt=dt, paths=paths, seed=seed,
                           stream_base=stream_base)

    lambdas = np.full(alphas.size, np.nan)
    stderrs = np.zeros(alphas.size)
    failures = []
    for k, alpha in enumerate(alphas):
        try:
            est = evaluate(float(alpha), k << 32)
        except (ValueError, ArithmeticError) as exc:
            failures.append((float(alpha), str(exc)))
            continue
        lambdas[k] = est.value
        stderrs[k] = est.stderr

    def stable(lam: float) -> bool:
        return lam <= 0.0  # exact zero counts as stable

    sign_changes = []
    for k in range(1, alphas.size):
        lo, hi = float(alphas[k - 1]), float(alphas[k])
        llo, lhi = lambdas[k - 1], lambdas[k]
        if math.isnan(llo) or math.isnan(lhi) or stable(llo) == stable(lhi):
            continue
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            try:
                lmid = evaluate(mid, _refine_stream_base(mid)).value
            except (ValueError, ArithmeticError) as exc:
                failures.append((mid, str(exc)))
                break
            if stable(lmid) == stable(llo):
                lo, llo = mid, lmid
            else:
                hi, lhi = mid, lmid
        sign_changes.append((lo, hi))

    stable_set = _stable_intervals(alphas, lambdas, sign_changes)
    return SweepResult(alphas=alphas, lambdas=lambdas, stderrs=stderrs,
                       method=method, sign_changes=sign_changes,
                       stable_set=stable_set, failures=failures)


def _stable_intervals(alphas, lambdas, sign_changes) -> list:
    """Maximal alpha intervals with lambda <= 0, endpoints at refined
    crossings (bracket midpoints) or the grid edges."""
    finite = [(float(a), float(l)) for a, l in zip(alphas, lambdas)
              if not math.isnan(l)]
    if not finite:
        return []
    crossings = [0.5 * (lo + hi) for lo, hi in sign_changes]
    out = []
    start: Optional[float] = finite[0][0] if finite[0][1] <= 0 else None
    ci = 0
    for (a_prev, l_prev), (a_cur, l_cur) in zip(finite, finite[1:]):
        if (l_prev <= 0) == (l_cur <= 0):
            continue
        cross = None
        if ci < len(crossings) and a_prev <= crossings[ci] <= a_cur:
            cross = crossings[ci]
            ci += 1
        else:  # a sign change across failed grid points, which
            # sign_changes never lists: fall back to the midpoint
            cross = 0.5 * (a_prev + a_cur)
        if l_prev <= 0:  # leaving the stable set
            out.append((start, cross))
            start = None
        else:            # entering the stable set
            start = cross
    if start is not None:
        out.append((start, finite[-1][0]))
    return out
