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
  zeros: a block continued fraction over blocks of 16 modes,
* ``closed_form_lyapunov`` -- the same density when B = [[alpha, -beta],
  [beta, alpha]], whose angle diffusion beta^2 is constant: its modes
  follow from one continued fraction, evaluated over a whole alpha
  array at once,
* ``lyapunov_mc``   -- first-order Euler simulation of the polar pair,
  driven by the ziggurat normals of one ``rng_stream`` generator per
  path (trajectories use ``wiener_increments``' Box-Muller pairs).

``stability_sweep`` maps alpha to the exponent for the alpha-family
noise, brackets the zero crossings and reports the stable alpha-set.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .integrate import rng_stream
from .models import Equilibrium, Mat2, ModelSpec
from .sde import LinearSDE, alpha_family, linearize

__all__ = [
    "DegeneratePhaseDiffusionError",
    "LyapunovEstimate",
    "SweepResult",
    "lyapunov_fd",
    "closed_form_lyapunov",
    "lyapunov_mc",
    "mc_step_count",
    "stability_sweep",
]

TWO_PI = 2.0 * math.pi


class DegeneratePhaseDiffusionError(ArithmeticError):
    """The stationary angle density cannot be solved reliably: q4 has
    real zeros (fd, and closed at beta = 0), or the density's modes do
    not fall below the tail tolerance within the mode cap (fd and
    closed).  Use the mc method for such systems."""


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


# a sweep reads the same row set (``_fd_exponents`` and closed) at every
# refinement level
@functools.lru_cache(maxsize=8)
def _polar_rows(sys: LinearSDE) -> np.ndarray:
    """Read-only rows over the basis of ``_times``, stacked: the log r
    drift Q = q1 + (q4^2 - q2^2) / 2, the theta drift D = q3 - q2 q4,
    q2, q4, and fd's angle drift -D + q4 q5 and diffusion q4^2 / 2."""
    r1, r2, r3, r4, r5 = _angle_table(sys)
    q1, q2, q3, q4 = (np.array((*r, 0.0, 0.0)) for r in (r1, r2, r3, r4))
    with np.errstate(all="ignore"):  # each method rejects a row that is not finite
        d, q44 = q3 - _times(r2, r4), _times(r4, r4)
        out = np.array((q1 + 0.5 * (q44 - _times(r2, r2)), d, q2, q4,
                        _times(r4, r5) - d, 0.5 * q44))
    out.flags.writeable = False
    return out


@dataclass
class LyapunovEstimate:
    value: float
    method: str  # fd | closed | mc
    stderr: float = 0.0
    n: int = 0  # mode count (fd, closed) or path count (mc)
    diagnostics: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    """Exponent along an alpha grid with refined zero crossings.

    sign_changes are refined brackets (lo, hi) with endpoints of
    opposite stability, of width at most the refinement tolerance unless
    a refinement point failed: that bracket keeps the width it had
    before that level, and the failed points are listed in failures.
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


# the mode count N of fd's Galerkin solve and of closed's continued fraction
# doubles from _START_MODES until max(|p_N|, |p_{N-1}|) <= _MODE_TAIL |p_0|,
# up to _MAX_MODES
_MODE_TAIL = 1e-14
_START_MODES = 16
_MAX_MODES = 1024
# fd takes the alphas of a sweep in blocks of _STACK; a block row of
# ``_galerkin`` takes 5 KB per system
_STACK = 256
# a row over the basis (1, c, s, c^2, c s) of ``_times``, times this, gives
# its Fourier modes at e^{2 i j theta}, j = -2..2
_FOURIER = np.array([[0, 0, 1, 0, 0],
                     [0, 0.5, 0, 0.5, 0],
                     [0, 0.5j, 0, -0.5j, 0],
                     [0.25, 0, 0.5, 0, 0.25],
                     [0.25j, 0, 0, 0, -0.25j]])
# lambda = pi sum_{|j| <= 2} Q_j p_{-j}, with p real, is Q's row over the
# basis (1, c, s, c^2, c s) times this times pi (p_0, Re p_1, Im p_1, Re p_2,
# Im p_2): the averages of the basis against the density
_QUAD = np.array([[1.0, 0, 0, 0, 0],
                  [0, 1.0, 0, 0, 0],
                  [0, 0, -1.0, 0, 0],
                  [0.5, 0, 0, 0.5, 0],
                  [0, 0, 0, 0, -0.5]])
_Q4_ROOTS = "q4 has real zeros, where the angle diffusion vanishes; use the mc method"


def _rejection(modes: int, tail: float) -> str:
    """Why a point solved with modes modes, to this tail, has no exponent:
    a finite tail above _MODE_TAIL, else a lambda or tail that is not
    finite."""
    if math.isfinite(tail) and tail > _MODE_TAIL:
        return (f"angle density not resolved by {modes} modes (tail {tail:.1e} "
                f"of p_0 > {_MODE_TAIL:g}); use the mc method")
    return "lambda or the tail is not finite: the solve overflows"


@functools.cache
def _blocks() -> np.ndarray:
    """The real (15, 2 B (B + 4)) map, B = _START_MODES, from a system's
    angle drift and diffusion rows (10 entries) and m times the diffusion
    row to block row m of its mode equation, a complex (B, B + 4) array.

    Mode k >= 1 reads sum_j c_kj p_{k-j} = 0, with c_kj = g_j + 2 i (k -
    j) d_j from the modes j = -2..2 of the drift g and the diffusion d
    (``_FOURIER``).  Row r of block row m = 1, 2, .. is mode k = B (m - 1)
    + 1 + r, and column c the term in p_l, l = k - j = B m + c - 1 - B, so
    columns 0, 1 (negated) hold L_m, 2..B + 1 D_m and B + 2, B + 3 U_m.
    """
    size = _START_MODES
    col = np.arange(size + 4)
    j = np.arange(size)[:, None] + 2 - col
    band = np.where(np.abs(j) <= 2, _FOURIER[:, np.clip(j + 2, 0, 4)], 0.0)
    band[:, :, :2] *= -1.0
    out = np.concatenate((band, 2j * (col - 1 - size) * band, 2j * size * band))
    out = np.ascontiguousarray(out.reshape(15, -1)).view(float)
    out.flags.writeable = False
    return out


def _galerkin(coef: np.ndarray, modes: int) -> np.ndarray:
    """For each system of a stack, pi p_1..pi p_N, N = modes, of the
    solution of diffusion p' + drift p = p0 with pi p_0 = 1, truncated to
    |k| <= N; coef (M, 10) holds each system's angle drift and diffusion
    rows (``_polar_rows`` 4 and 5).  Returns (M, N) complex.

    Modes k = 1..N of the equation do not involve the flux p0.  In blocks
    P_m of B modes they read L_m P_{m-1}[-2:] + D_m P_m + U_m P_{m+1}[:2] =
    0 (``_blocks``), so the backward sweep S_m = -(D_m + U_m S_{m+1}[:2])^-1
    L_m, S_{N/B+1} = 0, a block continued fraction (Risken 1989, ch. 9),
    gives P_m = S_m P_{m-1}[-2:], and a forward sweep every mode from
    P_0[-2:] = (p_{-1}, p_0).  p_{-1} drops out: its coefficient in mode
    1, g_2 - 2 i d_2 = q4_1 (q2_1 + i q4_1) with q4_1, q2_1 the modes j =
    1 of q4 and q2, is 0, as q4_1 = i q2_1.
    """
    size = _START_MODES
    # a spare zero row keeps a stack of one a matrix-matrix product, whose
    # sums round as in any larger stack (a vector product rounds otherwise)
    terms = np.zeros((len(coef) + 1, 15))
    terms[:-1, :10] = coef
    fractions = []
    for m in range(modes // size, 0, -1):
        np.multiply(coef[:, 5:], m, out=terms[:-1, 10:])
        a = (terms @ _blocks())[:-1].view(complex).reshape(len(coef), size, size + 4)
        if fractions:
            a[:, -2:, -4:-2] += a[:, -2:, -2:] @ fractions[-1][:, :2]
        fractions.append(np.linalg.solve(a[:, :, 2:-2], a[:, :, :2]))
    x, p = np.array([[0j], [1.0]]), []  # (p_{-1}, pi p_0)
    for s in reversed(fractions):
        x = s @ x[..., -2:, :]
        p.append(x[:, :, 0])
    return np.concatenate(p, axis=1)


def _fd_solve(rows: np.ndarray) -> tuple:
    """fd for a stack of systems given by their ``_polar_rows`` (M, 6, 5):
    arrays of lambda (NaN where rejected), mode count N, tail and q4's gap
    |m| - hypot(c, s), and {index: message} of the rejections.  Only the
    systems still unresolved go on to the next N, so each gets its own
    solve's N, p and tail.

    The tail is pi max(|p_N|, |p_{N-1}|), and lambda = int_0^pi Q p dtheta
    is Q's row times _QUAD times pi (p_0, Re p_1, Im p_1, Re p_2, Im p_2).
    """
    q4 = rows[:, 3]
    gap = np.abs(q4[:, 0]) - np.hypot(q4[:, 1], q4[:, 2])
    coef = rows[:, 4:].reshape(len(rows), 10)
    tails, counts = np.empty(len(rows)), np.zeros(len(rows), int)
    tails.fill(np.inf)
    low_modes = np.ones((len(rows), 5))
    modes, todo = _START_MODES, (gap > 0.0).nonzero()[0]
    # coefficients that overflow give a NaN or infinite tail or lambda,
    # which is rejected
    with np.errstate(all="ignore"):
        while todo.size:
            p = _galerkin(coef[todo], modes)
            tails[todo] = np.maximum.reduce(np.abs(p[:, -2:]), axis=1)
            counts[todo] = modes
            low_modes[todo, 1:] = p[:, :2].view(float)
            if modes == _MAX_MODES:
                break
            todo = todo[tails[todo] > _MODE_TAIL]  # a NaN tail ends too
            modes *= 2
        values = (rows[:, :1] @ _QUAD @ low_modes[:, :, None])[:, 0, 0]
    bad = (~(tails <= _MODE_TAIL) | ~np.isfinite(values)).nonzero()[0]
    values[bad] = np.nan
    errors = {i: _rejection(counts[i], tails[i]) if counts[i] else _Q4_ROOTS
              for i in bad.tolist()}
    return values, counts, tails, gap, errors


def lyapunov_fd(sys: LinearSDE) -> LyapunovEstimate:
    """The average of the log r drift Q (``_polar_rows``) against the
    stationary angle density p over one period [0, pi], from Q's five
    modes Q_j:

        lambda = int_0^pi Q p dtheta = pi sum_{|j| <= 2} Q_j p_{-j}
               = Q_0 + 2 pi Re(Q_1 conj(p_1) + Q_2 conj(p_2))

    p's modes p_1..p_N, pi p_0 = 1, are ``_fd_solve``'s on a stack of one,
    to a tail max(|p_N|, |p_{N-1}|) of at most _MODE_TAIL |p_0|.  Where q4
    has no real zeros the modes fall geometrically (Boyd 2001, ch. 2), so
    the tail also bounds the error of the density's values.  A q4 with
    real zeros, (b22 - b11)^2 + 4 b12 b21 >= 0, or a tail still above that
    bound at _MAX_MODES raises DegeneratePhaseDiffusionError.

    Diagnostics: ``min_q4_sq``, the mode count ``modes`` (also ``n``)
    and its ``tail`` relative to p_0.
    """
    values, modes, tails, gap, errors = _fd_solve(_polar_rows(sys)[None])
    if errors:
        raise DegeneratePhaseDiffusionError(errors[0])
    return LyapunovEstimate(
        value=float(values[0]), method="fd", stderr=0.0, n=int(modes[0]), diagnostics={
            "min_q4_sq": float(gap[0]) ** 2, "modes": int(modes[0]), "tail": float(tails[0])})


def _fd_exponents(A: Mat2, beta: float, alphas: np.ndarray) -> tuple:
    """``lyapunov_fd`` at B = alpha I + beta J for every alpha: the
    exponents (NaN where rejected), mode counts and {index: message}.

    ``_polar_rows`` is the sum of a part linear in A and a part quadratic
    in B, and B = alpha I + beta J is affine in alpha, so the rows at alpha
    are R0 + alpha R1 + alpha^2 R2, R0 the rows at alpha = 0.  As q2 =
    alpha, q4 = beta and q5 = 0, R1 is -beta in D's mean, 1 in q2's and
    beta in the fd drift's, and R2 is -1/2 in Q's: constants, exact for
    any beta.  Each block of _STACK alphas is one ``_fd_solve``."""
    r0 = _polar_rows(LinearSDE(A, alpha_family(0.0, beta)))
    r1, r2 = np.zeros(r0.shape), np.zeros(r0.shape)
    r1[[1, 2, 4], 0] = -beta, 1.0, beta
    r2[0, 0] = -0.5
    values, counts, errors = np.empty(alphas.size), np.empty(alphas.size, int), {}
    for lo in range(0, alphas.size, _STACK):
        al = alphas[lo:lo + _STACK, None, None]
        with np.errstate(over="ignore"):  # alpha^2 overflows from |alpha| ~ 1.34e154
            rows = r0 + al * (r1 + al * r2)
        values[lo:lo + al.size], counts[lo:lo + al.size], _, _, errs = _fd_solve(rows)
        errors.update((lo + k, msg) for k, msg in errs.items())
    return values, counts, errors


def _closed_exponents(A: Mat2, beta: float, alphas: np.ndarray) -> tuple:
    """``closed_form_lyapunov`` at every alpha: the exponents (NaN where
    rejected) and tails, the one mode count N that serves them all, and
    {index: message}.

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
    _MODE_TAIL; an alpha whose tail is above _MODE_TAIL, or not finite,
    is rejected.  beta = 0, where q4 = beta vanishes everywhere, raises
    DegeneratePhaseDiffusionError with fd's message.
    """
    if beta == 0:
        raise DegeneratePhaseDiffusionError(_Q4_ROOTS)
    rows = _polar_rows(LinearSDE(A, alpha_family(0.0, beta)))[[4, 0]]
    modes = _START_MODES
    with np.errstate(all="ignore"):  # an overflow is a non-finite tail
        g, q = rows @ _FOURIER
        # the fraction runs on its denominators over s = -g_{+1}, so r_k =
        # 1 / tau_k and tau_k = c / tau_{k+1} + (g_0 + i k beta^2) / s, c =
        # -g_{-1} g_{+1} / s^2: four array operations a step.  Where g_{+1}
        # = 0 every r_k is 0: s = 1 and one = 0.  The constants are
        # 1-element arrays, which numpy broadcasts faster than scalars.
        s, one = (-g[3], np.ones(1)) if g[3] != 0 else (1.0, np.zeros(1))
        c = -g[1] * g[3] / s ** 2 * one
        h0 = (g[2] + beta * alphas) / s
        while True:
            shifts = (1j * np.float64(beta) ** 2 / s) * np.arange(modes + 1)[:, None]
            tau = h0 + shifts[modes]
            last = np.abs(one / tau)  # |p_N / p_{N-1}|
            # becomes p_{N-1} / p_0, where one = 1: |p_k| <= |p_0|, so the
            # product can only underflow
            ratio = 1.0
            for k in range(modes - 1, 0, -1):
                tau = c / tau + h0 + shifts[k]
                ratio = ratio / tau
            tail = one * np.maximum(last, 1.0) * np.abs(ratio)
            # a NaN tail is its own point's failure: more modes cannot
            # resolve it
            if modes == _MAX_MODES or not (tail > _MODE_TAIL).any():
                break
            modes *= 2
        r = one / tau
        value = q[2].real - 0.5 * alphas ** 2 + 2.0 * (q[3].real * r.real
                                                       + q[3].imag * r.imag)
    bad = (~(tail <= _MODE_TAIL) | ~np.isfinite(value)).nonzero()[0]
    value[bad] = np.nan
    return value, tail, modes, {k: _rejection(modes, tail[k]) for k in bad.tolist()}


def closed_form_lyapunov(A: Mat2, alpha: float, beta: float) -> LyapunovEstimate:
    """Exact exponent for the noise B = alpha I + beta J (Khasminskii 1967).

    The angle obeys d theta = (q3 - alpha beta) dt + beta dW, whose
    diffusion beta^2 is constant, so in the modes e^{2 i k theta} the
    stationary density equation is tridiagonal and its mode ratios form
    a continued fraction (``_closed_exponents``, the one-alpha case).
    The mode count follows fd's tail rule and cap; beta = 0, and an
    alpha whose tail stays above _MODE_TAIL or is not finite, is
    rejected with DegeneratePhaseDiffusionError.  Diagnostics: the mode
    count ``modes`` (also ``n``) and its ``tail`` relative to p_0.
    """
    alpha_family(alpha, beta)  # a non-finite alpha: ValueError, as for any Mat2
    (value,), (tail,), modes, errors = _closed_exponents(A, beta, np.array([alpha]))
    if errors:
        raise DegeneratePhaseDiffusionError(errors[0])
    return LyapunovEstimate(value=float(value), method="closed", stderr=0.0, n=modes,
                            diagnostics={"modes": modes, "tail": float(tail)})


# increments of an mc estimate are drawn in blocks of at most this many
# normals over all paths (or one step): 4 MB of work arrays at 2 paths
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


# every slice of lyapunov_mc's paths has at least this many path-steps,
# about 0.1 s of work: on a 2-vCPU x86-64 VM the process pool's start-up
# and shutdown took 6.7 ms, and two slices first beat one between 2^18
# and 2^19 path-steps in all
_MC_SLICE_PATH_STEPS = 2 ** 20


def _fork_cpus() -> int:
    """CPUs this process may fork children onto: its affinity mask, so
    that taskset and cpusets are respected, or 1 where it may not fork:
    off Linux, while another thread is alive (forking it can deadlock
    the child), or in a daemonic process, which may have no children.
    A daemonic process was started by multiprocessing, so it has
    imported it; the check imports nothing."""
    if sys.platform != "linux" or threading.active_count() != 1:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _mc_slices(width: int, nsteps: int) -> int:
    """How many slices lyapunov_mc splits its width paths into: one per
    CPU it may fork onto (_fork_cpus), with at least 2 paths and
    _MC_SLICE_PATH_STEPS path-steps each."""
    return max(1, min(_fork_cpus(), width // 2, width * nsteps // _MC_SLICE_PATH_STEPS))


def _mc_draws(nsteps: int, dt: float, seed: int, first: int, stop: int) -> tuple:
    """The start angles phi = 2 theta, theta uniform on [0, 2 pi), of the
    paths on streams (seed, first) .. (seed, stop - 1), and an iterator
    over their Wiener increments: (steps, paths) blocks of at most
    _MC_BLOCK_NORMALS normals, nsteps steps in all, each a view that the
    next block overwrites.  Column p is sqrt(dt) times the next normals
    of path p's stream by numpy's ziggurat (Marsaglia & Tsang 2000),
    whose draws are sequential: blocks of any lengths, odd ones too,
    concatenate to one standard_normal draw."""
    gens = [rng_stream(seed, p) for p in range(first, stop)]
    phi = np.array([2.0 * TWO_PI * (1.0 - gen.random()) for gen in gens])
    block, sdt = max(1, _MC_BLOCK_NORMALS // len(gens)), math.sqrt(dt)
    rows, out = np.empty((len(gens), block)), np.empty((block, len(gens)))

    def blocks():
        for done in range(0, nsteps, block):
            n = min(block, nsteps - done)
            for row, gen in zip(rows[:, :n], gens):
                gen.standard_normal(out=row)
            yield np.multiply(rows[:, :n].T, sdt, out=out[:n])
    return phi, blocks()


def _mc_general(m: np.ndarray, nsteps: int, dt: float, seed: int,
                first: int, stop: int) -> np.ndarray:
    """``_mc_paths`` for any noise: a step evaluates V = (1, c, s, c^2,
    c s) at c = cos phi, s = sin phi, and one product of the rows with V
    gives the increments of (log r, phi)."""
    phi, blocks = _mc_draws(nsteps, dt, seed, first, stop)
    x = np.zeros((2, phi.size))  # log r, phi
    x[1] = phi
    v = np.ones((5, phi.size))
    inc = np.empty((4, phi.size))
    phi, c, s = x[1], v[1], v[2]
    cs, products = v[1:3], v[3:]  # (c^2, c s) is the one product c (c, s)
    drift, noise = inc[:2], inc[2:]
    cos, sin, mul, matmul = np.cos, np.sin, np.multiply, np.matmul
    with np.errstate(all="ignore"):  # an overflow ends as a non-finite log r
        for dw in blocks:
            for w in dw:
                cos(phi, out=c)
                sin(phi, out=s)
                mul(c, cs, out=products)
                matmul(m, v, out=inc)
                x += drift
                noise *= w
                x += noise
    return x[0]


# the alpha-family kernel keeps its angles and increments for at most this
# many steps of a block: 0.5 MB at 160 paths, and no slower than 256 steps
_MC_SUB = 128


def _mc_alpha(m: np.ndarray, nsteps: int, dt: float, seed: int,
              first: int, stop: int) -> np.ndarray:
    """``_mc_paths`` for B = alpha I + beta J, where q2 = alpha and 2 q4 =
    2 beta are constant.  With 2 dt D = d0 + R cos(phi - phi*), the
    angle psi = phi - phi* steps as psi + R cos psi + (d0 + 2 beta dW):
    four numpy calls on one row.  The log r increments dt Q + alpha dW =
    q0 + qa cos psi + qb sin psi + alpha dW, (qa, qb) Q's (qc, qs) rotated
    by phi*, follow in bulk from the kept cosines, and are added to log r
    in step order, so any blocking gives the same sums."""
    (q0, qc, qs), (d0, dc, ds) = m[0, :3].tolist(), m[1, :3].tolist()
    alpha, beta2 = m[2, 0], m[3, 0]
    amp, star = math.hypot(dc, ds), math.atan2(ds, dc)
    qa = qc * math.cos(star) + qs * math.sin(star)
    qb = qs * math.cos(star) - qc * math.sin(star)
    phi, blocks = _mc_draws(nsteps, dt, seed, first, stop)
    size = min(_MC_SUB, nsteps)
    # inc holds log r, then a sub-block's cosines, turned into increments
    psi, inc = np.empty((size + 1, phi.size)), np.zeros((size + 1, phi.size))
    shifts, t = np.empty((size, phi.size)), np.empty(phi.size)
    psi[0] = phi - star
    steps = list(zip(psi, psi[1:], inc[1:], shifts))
    cos, mul, add = np.cos, np.multiply, np.add
    with np.errstate(all="ignore"):  # an overflow ends as a non-finite log r
        for dw in blocks:
            for lo in range(0, len(dw), size):
                w = dw[lo:lo + size]
                n = len(w)
                mul(w, beta2, out=shifts[:n])
                shifts[:n] += d0
                for p, after, c, b in steps[:n]:
                    cos(p, out=c)
                    mul(c, amp, out=t)
                    add(p, t, out=after)
                    after += b
                body, s = inc[1:n + 1], np.sin(psi[:n], out=shifts[:n])
                body *= qa
                s *= qb
                body += s
                body += q0
                body += mul(w, alpha, out=s)
                inc[0] = np.add.reduce(inc[:n + 1], axis=0)
                psi[0] = psi[n]
    return inc[0]


def _mc_paths(m: np.ndarray, nsteps: int, dt: float, seed: int,
              first: int, stop: int) -> np.ndarray:
    """log(r(T)/r(0)) of the paths on streams (seed, first) .. (seed,
    stop - 1), stop - first >= 2, after nsteps Euler steps of size dt
    with the rows m = (dt Q, 2 dt D, q2, 2 q4): lyapunov_mc's kernel for
    one slice of its paths.  Where q2 and q4 are constant (B = alpha I +
    beta J), and so no row has a c^2 or c s term, ``_mc_alpha`` runs,
    else ``_mc_general``."""
    return _mc_kernel(m)(m, nsteps, dt, seed, first, stop)


def _mc_kernel(m: np.ndarray):
    """The kernel that ``_mc_paths`` runs on the rows m."""
    return _mc_general if m[2:, 1:].any() or m[:, 3:].any() else _mc_alpha


def lyapunov_mc(sys: LinearSDE, horizon: float = 200.0, dt: float = 1e-3,
                paths: int = 64, seed: int = 1,
                stream_base: int = 0) -> LyapunovEstimate:
    """Monte Carlo estimate from the polar pair.

    Each path integrates (log r, phi = 2 theta) with the first-order
    Euler scheme and one shared Wiener increment per step, starting from
    a uniform angle; the estimate is the path mean of log(r(T)/r(0)) / T
    with its standard error.  Path p draws from the generator
    ``rng_stream(seed, stream_base + p)``, its start angle from one
    uniform and its increments from the generator's ziggurat normals
    (``_mc_draws``; simulate's trajectories use Box-Muller pairs),
    and rounds as it would alone, so results do not depend on
    scheduling; a single path runs with a spare one, on stream
    stream_base + 1, that is dropped.
    The stderr is statistical only: it does not cover the O(dt) bias of
    the Euler scheme.  A value or stderr that is not finite raises
    FloatingPointError.

    All paths of a slice advance together, by one of two kernels on the
    rows (dt Q, 2 dt D, q2, 2 q4) of ``_polar_rows``.  For B = alpha I +
    beta J (``_mc_alpha``) a step advances only the shifted angle phi -
    phi*, by 4 numpy calls on one row, and log r follows in bulk; its
    sums differ from the general kernel's only in rounding.  For any
    other noise (``_mc_general``) a step evaluates V = (1, c, s, c^2, c
    s) at c = cos phi, s = sin phi, the last two as one product c (c,
    s), and one product of V with the rows gives the drift and noise
    increments of (log r, phi): 7 calls on 2-5 rows.  On Linux the
    paths are split into contiguous slices of stream ids, one per usable
    CPU (the affinity mask), each of at least 2 paths and 2^20
    path-steps, with sizes that differ by at most 1.  The calling
    process runs the first slice and one forked worker each other one; the workers are joined
    before the call returns, and a worker's exception is raised here.
    The slices' log r(T) are joined in stream order, so the value and
    stderr are the same, bit for bit, for any number of slices.  Off
    Linux, while other threads are alive, and in a daemonic process,
    all paths run in the calling process.
    """
    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be > 0")
    if paths < 1:
        raise ValueError("paths must be >= 1")
    # rows dt Q, 2 dt D, q2, 2 q4 over V
    m = _polar_rows(sys)[:4] * [[dt], [2.0 * dt], [1.0], [2.0]]
    nsteps = mc_step_count(horizon, dt)
    # at least two columns keep a step's product a matrix-matrix product,
    # whose sums round as for any number of paths (numpy computes a
    # 1-column product as a vector product, which rounds otherwise)
    width = max(paths, 2)
    k = _mc_slices(width, nsteps)
    bounds = [stream_base + width * i // k for i in range(k + 1)]
    if k == 1:
        logr = _mc_paths(m, nsteps, dt, seed, *bounds)
    else:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        with ProcessPoolExecutor(k - 1, mp_context=get_context("fork")) as pool:
            rest = [pool.submit(_mc_paths, m, nsteps, dt, seed, lo, hi)
                    for lo, hi in zip(bounds[1:-1], bounds[2:])]
            logr = np.concatenate([_mc_paths(m, nsteps, dt, seed, *bounds[:2])]
                                  + [f.result() for f in rest])
    per_path = logr[:paths] / (nsteps * dt)
    with np.errstate(all="ignore"):
        value = float(per_path.mean())
        stderr = float(per_path.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    if not (math.isfinite(value) and math.isfinite(stderr)):
        raise FloatingPointError(f"lambda={value:g}, stderr={stderr:g}: "
                                 "the Euler steps overflow")
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
                    horizon: float = 200.0, dt: float = 1e-3,
                    paths: int = 64, seed: int = 1,
                    refine_tol: float = 1e-3) -> SweepResult:
    """Exponent along an alpha grid for B = [[alpha, -beta], [beta, alpha]].

    Zero crossings found on the grid are refined to brackets of width
    refine_tol.  Each level of fd and closed tries, per bracket, the
    regula falsi point x of the end values (Dowell & Jarratt 1971), x -+
    refine_tol / 4 and the midpoint, a bisection safeguard (Brent 1973,
    ch. 4), and keeps the first pair of neighbouring points, from lo, of
    opposite stability: every level at least halves the bracket, and
    one whose x lands within refine_tol / 4 of the root closes at width
    refine_tol / 2.  mc's lambda is noisy, so mc bisects.  A per-point
    failure (q4 with real zeros, a density unresolved within the mode
    cap) is recorded and the sweep continues; a failed refinement point
    ends its bracket, which then stays wider than refine_tol.  The grid
    is evaluated by one call of a batched evaluator, and each level, the
    points of all open brackets, by one more: fd as stacks
    (``_fd_exponents``), closed as one continued fraction
    (``_closed_exponents``), mc point by point.  A failure of a whole
    call (beta = 0 for closed, where q4 = beta has real zeros as for fd)
    is recorded at each of its points; an mc estimate that overflows, at
    its own point only.  For the mc method, grid point k draws from
    stream block (seed, k * 2^32) and refinement points derive their
    stream from the alpha bit pattern, so results are
    schedule-independent.
    """
    alphas = np.asarray(list(alpha_grid), dtype=float)
    if not np.isfinite(alphas).all():
        raise ValueError("alpha_grid must be finite")
    if alphas.size and np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha_grid must be strictly increasing")
    if method not in ("fd", "closed", "mc"):
        raise ValueError(f"unknown method {method!r}")
    a_mat = linearize(model, alpha_family(0.0, beta), equilibrium).A

    def evaluate(points: np.ndarray, on_grid: bool) -> tuple:
        """(lambda, stderr, {index: message}) at the points; lambda is NaN
        where a point failed.  An exception fails every point: it comes
        from the whole call (beta = 0 for closed, an mc setting); an mc
        estimate that overflows fails its own point."""
        stderrs = np.zeros(points.size)
        try:
            if method == "fd":
                values, _, errors = _fd_exponents(a_mat, beta, points)
            elif method == "closed":
                values, _, _, errors = _closed_exponents(a_mat, beta, points)
            else:
                values, errors = np.empty(points.size), {}
                for k, alpha in enumerate(points.tolist()):
                    try:
                        est = lyapunov_mc(
                            LinearSDE(a_mat, alpha_family(alpha, beta)), horizon=horizon,
                            dt=dt, paths=paths, seed=seed,
                            stream_base=k << 32 if on_grid else _refine_stream_base(alpha))
                    except FloatingPointError as exc:  # this point's own failure
                        values[k], errors[k] = np.nan, str(exc)
                        continue
                    values[k], stderrs[k] = est.value, est.stderr
        except (ValueError, ArithmeticError) as exc:
            return np.full(points.size, np.nan), stderrs, dict.fromkeys(
                range(points.size), str(exc))
        return values, stderrs, errors

    lambdas, stderrs, errors = evaluate(alphas, True)
    failures = [(float(alphas[k]), msg) for k, msg in errors.items()]

    # grid neighbours, both with exponents, of opposite stability (an exact
    # zero counts as stable)
    known, st = ~np.isnan(lambdas), lambdas <= 0.0
    flips = np.flatnonzero(known[:-1] & known[1:] & (st[:-1] != st[1:])).tolist()
    grid, lams = alphas.tolist(), lambdas.tolist()
    lo, hi = [grid[k] for k in flips], [grid[k + 1] for k in flips]
    flo, fhi = [lams[k] for k in flips], [lams[k + 1] for k in flips]
    ended = {}  # bracket -> its failed points and messages
    # refine every open bracket one level per evaluate call, keeping the
    # lambdas at its ends; a bracket whose points all round onto its ends
    # cannot shrink and is closed as it is.  Brackets are few, so their
    # bookkeeping is plain Python.
    guard = 0.25 * refine_tol
    live = [b for b in range(len(lo)) if hi[b] - lo[b] > refine_tol]
    while live:
        level = []  # (bracket, its points strictly inside, ascending)
        for b in live:
            mid = 0.5 * (lo[b] + hi[b])
            if method == "mc":
                points = [mid]
            else:
                x = lo[b] + (hi[b] - lo[b]) * (flo[b] / (flo[b] - fhi[b]))
                if not lo[b] < x < hi[b]:
                    x = mid
                points = sorted({x - guard, x + guard, mid})
            points = [p for p in points if lo[b] < p < hi[b]]
            if points:
                level.append((b, points))
        if not level:
            break
        values, _, errors = evaluate(np.array([p for _, ps in level for p in ps]), False)
        values, live, first = values.tolist(), [], 0
        for b, points in level:
            last = first + len(points)
            failed = [(p, errors[k]) for k, p in enumerate(points, first) if k in errors]
            seq = [(lo[b], flo[b]), *zip(points, values[first:last]), (hi[b], fhi[b])]
            first = last
            if failed:
                ended[b] = failed
                continue
            (lo[b], flo[b]), (hi[b], fhi[b]) = next(
                (u, v) for u, v in zip(seq, seq[1:]) if (u[1] <= 0.0) != (v[1] <= 0.0))
            if hi[b] - lo[b] > refine_tol:
                live.append(b)
    failures += [f for b in sorted(ended) for f in ended[b]]
    sign_changes = list(zip(lo, hi))

    stable_set = _stable_intervals(alphas, lambdas, sign_changes)
    return SweepResult(alphas=alphas, lambdas=lambdas, stderrs=stderrs,
                       method=method, sign_changes=sign_changes,
                       stable_set=stable_set, failures=failures)


def _stable_intervals(alphas, lambdas, sign_changes) -> list:
    """Maximal alpha intervals with lambda <= 0, endpoints at refined
    crossings (bracket midpoints) or the grid edges.

    Between neighbouring points with exponents (failed points skipped)
    whose stability differs, the set ends or begins at the refined
    crossing in that pair, or, where the pair spans failed grid points
    and sign_changes has none, at the pair's midpoint.
    """
    known = ~np.isnan(lambdas)
    a, st = np.asarray(alphas, dtype=float)[known], lambdas[known] <= 0.0
    flips = np.flatnonzero(st[:-1] != st[1:])
    cross = 0.5 * (a[flips] + a[flips + 1])
    # a refined crossing replaces the midpoint of the pair it was refined in
    refined = 0.5 * np.reshape(sign_changes, (-1, 2)).sum(axis=1)
    cross[np.searchsorted(a[flips], refined, side="right") - 1] = refined
    starts = np.concatenate((a[:1][st[:1]], cross[~st[flips]]))
    ends = np.concatenate((cross[st[flips]], a[-1:][st[-1:]]))
    return list(zip(starts.tolist(), ends.tolist()))
