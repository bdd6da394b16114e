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
from one rule, ``_times``, as rows over the basis (1, c, s, c^2, c s),
c = cos 2th and s = sin 2th.
Being functions of 2th, they have period pi: the angle matters only
through the line it spans (Khasminskii 1967).  The exponent is the
stationary average of the log r drift against the angle density
p(theta).  Three estimators are provided:

* ``lyapunov_fd``   -- Fourier-Galerkin solve of the stationary angle
  equation over one period [0, pi], for systems whose q4 has no real
  zeros,
* ``closed_form_lyapunov`` -- the same density when B = [[alpha, -beta],
  [beta, alpha]], whose angle diffusion beta^2 is constant: its modes
  follow from one continued fraction, evaluated over a whole alpha
  array at once,
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
    """The stationary angle density cannot be solved reliably: q4 has
    real zeros (fd), or the density's modes do not fall below the tail
    tolerance within the mode cap (fd and closed).  Use the mc method
    for such systems."""


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


# lyapunov_fd reads a system's rows twice, in the density and in the
# quadrature; closed_form_lyapunov reads the same (A, beta) rows at every alpha
@functools.lru_cache(maxsize=4)
def _polar_rows(sys: LinearSDE) -> np.ndarray:
    """Read-only rows over the basis of ``_times``, stacked: the log r
    drift Q = q1 + (q4^2 - q2^2) / 2, the theta drift D = q3 - q2 q4,
    q2, q4, and fd's angle drift -D + q4 q5."""
    r1, r2, r3, r4, r5 = _angle_table(sys)
    q1, q2, q3, q4 = (np.array(r + (0.0, 0.0)) for r in (r1, r2, r3, r4))
    d = q3 - _times(r2, r4)
    out = np.array((q1 + 0.5 * (_times(r4, r4) - _times(r2, r2)), d, q2, q4,
                    _times(r4, r5) - d))
    out.flags.writeable = False
    return out


def phase_coefficients(sys: LinearSDE, theta) -> PhaseCoefficients:
    """q1..q5 at theta, a float or an array of angles."""
    c2t, s2t = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return PhaseCoefficients(*(m + c * c2t + s * s2t
                               for m, c, s in _angle_table(sys)))


@dataclass
class PhaseDensity:
    """Stationary angle density over one period [0, pi] as its Fourier
    modes: p(theta) = sum_k modes[N + k] e^{2 i k theta}, |k| <= N, with
    pi p_0 = 1.  tail is max(|p_{+-N}|, |p_{+-(N-1)}|) / |p_0|.

    values holds p at the n + 1 nodes theta = i * step, step = pi / n,
    from one inverse real FFT when first read; sum(values[1:]) * step = 1
    and values[n] = values[0].
    """

    n: int
    step: float
    modes: np.ndarray
    min_q4_sq: float
    tail: float

    @functools.cached_property
    def values(self) -> np.ndarray:
        half = self.modes.size // 2
        spec = np.zeros(self.n // 2 + 1, dtype=complex)
        spec[:half + 1] = self.n * self.modes[half:]
        if self.n % 2 == 0:
            spec[-1] *= 2.0  # mode n / 2 enters irfft once, not as a pair
        nodes = np.fft.irfft(spec, self.n)
        return np.append(nodes, nodes[0])


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

    sign_changes are bisection-refined brackets (lo, hi) with
    opposite-sign endpoints, of width at most the refinement tolerance
    unless a bisection midpoint failed: that bracket keeps the width it
    had, and the midpoint is listed in failures.  stable_set lists the
    maximal alpha intervals with a non-positive exponent (an exact zero
    counts as stable).
    """

    alphas: np.ndarray
    lambdas: np.ndarray
    stderrs: np.ndarray
    method: str
    sign_changes: list
    stable_set: list
    failures: list


# the mode count N of fd's Galerkin solve and of closed's continued fraction
# doubles from 16 until max(|p_{+-N}|, |p_{+-(N-1)}|) <= _MODE_TAIL |p_0|, up
# to _MAX_MODES
_MODE_TAIL = 1e-14
_MAX_MODES = 1024
# a row over the basis (1, c, s, c^2, c s) of ``_times``, times this, gives
# its Fourier modes at e^{2 i j theta}, j = -2..2
_FOURIER = np.array([[0, 0, 1, 0, 0],
                     [0, 0.5, 0, 0.5, 0],
                     [0, 0.5j, 0, -0.5j, 0],
                     [0.25, 0, 0.5, 0, 0.25],
                     [0.25j, 0, 0, 0, -0.25j]])


def _unresolved(modes: int, tail: float) -> DegeneratePhaseDiffusionError:
    return DegeneratePhaseDiffusionError(
        f"angle density not resolved by {modes} modes (tail {tail:.1e} "
        f"of p_0 > {_MODE_TAIL:g}); use the mc method")


def _galerkin(diffusion: np.ndarray, drift: np.ndarray, modes: int) -> np.ndarray:
    """The modes p_k, k = -modes..modes, of the solution of diffusion p'
    + drift p = p0 with pi p_0 = 1, truncated to |k| <= modes; diffusion
    and drift are given by their modes j = -2..2.

    Mode k of the equation reads sum_j (2 i (k - j) diffusion_j + drift_j)
    p_{k-j} = p0 [k = 0]: five diagonals, one more column for the unknown
    flux p0 and one more row for the normalisation, solved densely.
    """
    size = 2 * modes + 1
    k = np.arange(-modes, modes + 1)
    band = np.multiply.outer(2j * diffusion, k) + drift[:, None]
    a = np.zeros((size + 1, size + 1), dtype=complex)
    for j in range(-2, 3):
        col = np.arange(max(0, -j), size - max(0, j))
        a[col + j, col] = band[j + 2, col]
    a[modes, size] = -1.0
    a[size, modes] = math.pi
    rhs = np.zeros(size + 1)
    rhs[size] = 1.0
    return np.linalg.solve(a, rhs)[:size]


def stationary_density_fd(sys: LinearSDE, n: int = 10000) -> PhaseDensity:
    """Stationary angle density over one period [0, pi] by a
    Fourier-Galerkin solve; n, the node count of its ``values``, also
    bounds the mode count.

    The density solves  q4^2/2 p' + g p = p0,  g = -q3 + q2 q4 + q4 q5
    (``_polar_rows``), where the constant p0 is the stationary probability
    flux through the period.  q4^2/2 and g are rows over the basis of
    ``_times``, so each has five Fourier modes in e^{2 i j theta}, |j| <=
    2, and in the modes p_k the equation is pentadiagonal
    (``_galerkin``).  The mode count N starts at 16 and doubles while the
    tail max(|p_{+-N}|, |p_{+-(N-1)}|) exceeds _MODE_TAIL |p_0|; it is
    capped at min(n // 2, _MAX_MODES).  Where q4 has no real zeros the
    density is analytic and the modes fall geometrically (Boyd 2001,
    ch. 2), so the tail also bounds the error of the node values.

    q4's row (m, c, s) gives min q4^2 = max(0, |m| - hypot(c, s))^2.  q4
    has real zeros, where the angle diffusion vanishes, exactly when
    (b22 - b11)^2 + 4 b12 b21 >= 0; such a system, and one whose tail
    is still above _MODE_TAIL |p_0| at the cap, is rejected with
    DegeneratePhaseDiffusionError.
    """
    if n < 2:
        raise ValueError("grid size n must be >= 2")
    r4 = _angle_table(sys)[3]
    gap = abs(r4[0]) - math.hypot(r4[1], r4[2])
    if gap <= 0.0:
        raise DegeneratePhaseDiffusionError(
            "q4 has real zeros, where the angle diffusion vanishes; "
            "use the mc method")
    diffusion, drift = np.array((0.5 * _times(r4, r4), _polar_rows(sys)[4])) @ _FOURIER
    cap = min(n // 2, _MAX_MODES)
    modes = min(16, cap)
    while True:
        p = _galerkin(diffusion, drift, modes)
        # with modes = 1 the tail holds p_0 itself, so it is never accepted
        tail = float(np.abs(p[[0, 1, -2, -1]]).max() / abs(p[modes]))
        if tail <= _MODE_TAIL:
            break
        if modes == cap:
            raise _unresolved(modes, tail)
        modes = min(2 * modes, cap)
    return PhaseDensity(n=n, step=math.pi / n, modes=p, min_q4_sq=gap * gap, tail=tail)


def lyapunov_fd(sys: LinearSDE, n: int = 10000) -> LyapunovEstimate:
    """The average of the log r drift Q (``_polar_rows``) against the
    density of ``stationary_density_fd``, from Q's five modes Q_j:

        lambda = int_0^pi Q p dtheta = pi sum_{|j| <= 2} Q_j p_{-j}

    Diagnostics: ``min_q4_sq``, the mode count ``modes`` and its ``tail``
    relative to p_0.
    """
    dens = stationary_density_fd(sys, n=n)
    modes = dens.modes.size // 2
    q = _polar_rows(sys)[0] @ _FOURIER
    # p_{-j} = conj(p_j), as p is real
    value = math.pi * float(np.vdot(dens.modes[modes - 2:modes + 3], q).real)
    return LyapunovEstimate(
        value=value, method="fd", stderr=0.0, n=n,
        diagnostics={"min_q4_sq": dens.min_q4_sq, "modes": modes, "tail": dens.tail})


def _closed_exponents(A: Mat2, beta: float, alphas: np.ndarray) -> tuple:
    """(lambda, tail, modes) of ``closed_form_lyapunov`` at every alpha:
    the exponents and tails as arrays, and the one mode count N that
    serves them all.

    For B = alpha I + beta J, q4 = beta and q5 = 0, so fd's density
    equation has the constant diffusion beta^2 / 2 and an angle drift g
    with modes j = -1..1; alpha only shifts g_0 by alpha beta and Q_0 by
    -alpha^2 / 2.  Mode k >= 1 of the equation reads

        g_{+1} p_{k-1} + (i k beta^2 + g_0) p_k + g_{-1} p_{k+1} = 0,

    so the ratios r_k = p_k / p_{k-1} of the solution truncated to |k| <=
    N are the continued fraction r_k = -g_{+1} / (i k beta^2 + g_0 +
    g_{-1} r_{k+1}), r_{N+1} = 0, evaluated backward (Gautschi 1967;
    Risken 1989, ch. 9), one step over the whole alpha array at a time.
    With pi p_0 = 1 and Q real, lambda = Q_0 + 2 Re(conj(Q_1) r_1).  The
    tail max(|p_N|, |p_{N-1}|) / |p_0| is a product of |r_k|; N follows
    fd's rule, from 16 doubling up to _MAX_MODES while any tail exceeds
    _MODE_TAIL.  The caller rejects an alpha whose tail is above
    _MODE_TAIL or not finite.
    """
    if beta == 0:
        raise ValueError("beta = 0: the angle diffusion vanishes")
    g, q = _polar_rows(LinearSDE(A, alpha_family(0.0, beta)))[[4, 0]] @ _FOURIER
    # the fraction runs on its denominators over s = -g_{+1}, so r_k = 1 /
    # tau_k and tau_k = c / tau_{k+1} + (g_0 + i k beta^2) / s, c = -g_{-1}
    # g_{+1} / s^2: four array operations a step.  Where g_{+1} = 0 every
    # r_k is 0: s = 1 and one = 0.  The constants are 1-element arrays,
    # which numpy broadcasts faster than scalars.
    s, one = (-g[3], np.ones(1)) if g[3] != 0 else (1.0, np.zeros(1))
    c = -g[1] * g[3] / s ** 2 * one
    h0 = (g[2] + beta * alphas) / s
    modes = 16
    with np.errstate(all="ignore"):
        while True:
            shifts = (1j * beta ** 2 / s) * np.arange(modes + 1)[:, None]
            tau = h0 + shifts[modes]
            last = np.abs(one / tau)  # |p_N / p_{N-1}|
            den = 1.0  # becomes p_0 / p_{N-1}, where one = 1
            for k in range(modes - 1, 0, -1):
                tau = c / tau + h0 + shifts[k]
                den = den * tau
            tail = one * np.maximum(last, 1.0) / np.abs(den)
            if modes == _MAX_MODES or (tail <= _MODE_TAIL).all():
                break
            modes *= 2
    r = one / tau
    value = q[2].real - 0.5 * alphas ** 2 + 2.0 * (q[3].real * r.real + q[3].imag * r.imag)
    return value, tail, modes


def closed_form_lyapunov(A: Mat2, alpha: float, beta: float) -> LyapunovEstimate:
    """Exact exponent for the noise B = alpha I + beta J (Khasminskii 1967).

    The angle obeys d theta = (q3 - alpha beta) dt + beta dW, whose
    diffusion beta^2 is constant, so in the modes e^{2 i k theta} the
    stationary density equation is tridiagonal and its mode ratios form
    a continued fraction (``_closed_exponents``, the one-alpha case).
    The mode count follows fd's tail rule and cap; an alpha whose tail
    stays above _MODE_TAIL, or is not finite, is rejected with
    DegeneratePhaseDiffusionError.  Diagnostics: the mode count
    ``modes`` (also ``n``) and its ``tail`` relative to p_0.
    """
    alpha_family(alpha, beta)  # a non-finite alpha: ValueError, as for any Mat2
    (value,), (tail,), modes = _closed_exponents(A, beta, np.array([alpha]))
    if not tail <= _MODE_TAIL:
        raise _unresolved(modes, tail)
    return LyapunovEstimate(value=float(value), method="closed", stderr=0.0, n=modes,
                            diagnostics={"modes": modes, "tail": float(tail)})


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
    brackets of width refine_tol; a per-point failure (q4 with real
    zeros, a density unresolved within the mode cap) is recorded and the
    sweep continues; a failed bisection midpoint ends the refinement of
    its bracket, which then stays wider than refine_tol.  The closed
    method solves the whole grid by one ``_closed_exponents`` call, and
    each bisection midpoint by one more; a setup failure (beta = 0) is
    recorded at every grid point.  For the mc method, grid point k draws
    from stream block (seed, k * 2^32) and refinement points derive their
    stream from the alpha bit pattern, so results are schedule-independent.
    """
    alphas = np.asarray(list(alpha_grid), dtype=float)
    if not np.isfinite(alphas).all():
        raise ValueError("alpha_grid must be finite")
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
    if method == "closed":
        try:
            values, tails, modes = _closed_exponents(a_mat, beta, alphas)
        except (ValueError, ArithmeticError) as exc:
            # no grid point has an exponent, so nothing is bisected
            failures = [(float(alpha), str(exc)) for alpha in alphas]
        else:
            ok = tails <= _MODE_TAIL
            lambdas[ok] = values[ok]
            failures = [(float(alpha), str(_unresolved(modes, tail)))
                        for alpha, tail in zip(alphas[~ok], tails[~ok])]
    else:
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

    # grid neighbours, both with exponents, of opposite stability
    known, st = ~np.isnan(lambdas), stable(lambdas)
    flips = np.flatnonzero(known[:-1] & known[1:] & (st[:-1] != st[1:])) + 1
    sign_changes = []
    for k in flips.tolist():
        lo, hi = float(alphas[k - 1]), float(alphas[k])
        llo = float(lambdas[k - 1])
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
                hi = mid
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
