"""Exact references the benchmark scores ``tumorsde`` against.

Independent of ``src/``: the two model presets are re-derived here from
their published right-hand sides and default coefficients.

Top Lyapunov exponent for the alpha family
------------------------------------------
For dX = A X dt + B X dW with B = alpha I + beta J (J the rotation by
pi/2) the polar angle obeys

    d theta = (q3(theta) - alpha beta) dt + beta dW,

whose diffusion is constant (Khasminskii 1967).  With E' = 2 (q3 -
alpha beta) / beta^2 = k0 + P', P periodic, the periodic stationary
density is

    p  ~  e^P  sum_n c_n e^{i n theta} / (i n - k0),

c_n the Fourier coefficients of e^{-P}.  Multiplying through by -k0
gives weights 1 (n = 0) and -k0 / (i n - k0) (n != 0), which stay finite
as k0 -> 0, where p -> e^P (zero flux).  P is a trigonometric
polynomial, so the m-node FFT converges spectrally (12 digits by m = 64
on the cases benchmarked).  The exponent is the average of the radial
drift q1 + (beta^2 - alpha^2) / 2 against p.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

KT_PARAMS = dict(a1=0.1181, a2=0.3747, a3=0.01184, b1=1.636, b2=0.002)
BELL_PARAMS = dict(a1=2.5, a2=1.0, b1=1.0, b2=0.4, b3=0.95, b4=2.0)


def kt_rhs(x, y, p=KT_PARAMS):
    """dx = a1 - a2 x + a3 x y,  dy = b1 y (1 - b2 y) - x y."""
    return (p["a1"] - p["a2"] * x + p["a3"] * x * y,
            p["b1"] * y * (1.0 - p["b2"] * y) - x * y)


def kt_p2(p=KT_PARAMS):
    """Coexistence equilibrium: x = b1 (1 - b2 y) with y the root of the
    resulting quadratic that keeps x > 0, polished by Newton steps."""
    qa = -p["a3"] * p["b1"] * p["b2"]
    qb = p["a3"] * p["b1"] + p["a2"] * p["b1"] * p["b2"]
    qc = p["a1"] - p["a2"] * p["b1"]
    y = min(r.real for r in np.roots([qa, qb, qc]) if r.real < 1.0 / p["b2"])
    x = p["b1"] * (1.0 - p["b2"] * y)
    for _ in range(3):
        f1, f2 = kt_rhs(x, y, p)
        j11, j12, j21, j22 = kt_jacobian(x, y, p)
        det = j11 * j22 - j12 * j21
        x, y = x - (f1 * j22 - f2 * j12) / det, y - (j11 * f2 - j21 * f1) / det
    return x, y


def kt_jacobian(x, y, p=KT_PARAMS):
    return (-p["a2"] + p["a3"] * y, p["a3"] * x,
            -y, p["b1"] * (1.0 - 2.0 * p["b2"] * y) - x)


KT_P2 = kt_p2()


def bell_p1(p=BELL_PARAMS):
    """Tumour-free equilibrium of dx = x (a1 - a2 y),
    dy = (b1 x - b3) y - b2 x + b4."""
    return 0.0, p["b4"] / p["b3"]


def bell_jacobian(x, y, p=BELL_PARAMS):
    return (p["a1"] - p["a2"] * y, -p["a2"] * x,
            p["b1"] * y - p["b2"], p["b1"] * x - p["b3"])


def linearisation(label: str) -> tuple:
    """Drift Jacobian (a11, a12, a21, a22) of a benchmarked equilibrium."""
    if label == "KT-P2":
        return kt_jacobian(*KT_P2)
    if label == "Bell-P1":
        return bell_jacobian(*bell_p1())
    raise ValueError(f"no reference for {label!r}")


def top_lyapunov(a, alpha, beta: float, m: int = 128) -> np.ndarray:
    """Exact top Lyapunov exponent for B = alpha I + beta J.

    a is (a11, a12, a21, a22); alpha a scalar or an array (the result
    has its shape).  beta must be nonzero.
    """
    if beta == 0:
        raise ValueError("beta = 0: the angle diffusion vanishes")
    a11, a12, a21, a22 = (float(v) for v in a)
    alpha = np.asarray(alpha, dtype=float)
    theta = 2.0 * math.pi * np.arange(m) / m
    c2t, s2t = np.cos(2.0 * theta), np.sin(2.0 * theta)
    per = ((a21 + a12) * s2t + (a11 - a22) * c2t) / (2.0 * beta ** 2)
    coef = np.fft.fft(np.exp(-per)) / m
    n = np.fft.fftfreq(m, 1.0 / m)
    k0 = ((a21 - a12 - 2.0 * alpha * beta) / beta ** 2)[..., None]
    nz = n != 0
    weights = np.ones(k0.shape[:-1] + (m,), dtype=complex)
    weights[..., nz] = -k0 / (1j * n[nz] - k0)
    dens = np.exp(per) * (np.fft.ifft(coef * weights, axis=-1) * m).real
    dens /= dens.sum(axis=-1, keepdims=True)
    mc2 = (dens * c2t).sum(axis=-1)
    ms2 = (dens * s2t).sum(axis=-1)
    return (0.5 * (a11 + a22 + beta ** 2 - alpha ** 2)
            + 0.5 * (a11 - a22) * mc2 + 0.5 * (a12 + a21) * ms2)


def crossings(a, beta: float, alphas) -> list:
    """Zeros of the exact exponent between consecutive grid alphas.

    Returns (alpha*, direction) pairs, direction +1 where the exponent
    turns positive as alpha grows (stable -> unstable) and -1 where it
    turns non-positive; "stable" is lambda <= 0 as in the sweep.
    """
    alphas = np.asarray(alphas, dtype=float)
    lams = top_lyapunov(a, alphas, beta)
    out = []
    for k in range(1, alphas.size):
        lo, hi = lams[k - 1], lams[k]
        if (lo <= 0.0) == (hi <= 0.0):
            continue
        root = brentq(lambda al: float(top_lyapunov(a, al, beta)),
                      alphas[k - 1], alphas[k], xtol=1e-13, rtol=1e-13)
        out.append((root, 1 if lo <= 0.0 else -1))
    return out


def fd_grid_tolerance(a, n: int, span: float = 2.0 * math.pi) -> float:
    """First-order scale of the fd estimator's grid error: the step
    span / n times the oscillation max - min of the radial drift over
    the angle (that of q1; the alpha-family terms are constant)."""
    a11, a12, a21, a22 = a
    osc_q1 = math.hypot(a11 - a22, a12 + a21)
    return span / n * osc_q1


def kt_wiener_increments(seed: int, steps: int, dt: float) -> np.ndarray:
    """The increments ``simulate`` draws for (seed, stream 0): Philox
    keyed by (seed, 0), uniforms 1 - U in (0, 1], Box-Muller pairs
    (cosine first), times sqrt(dt)."""
    key = np.array([seed & (1 << 64) - 1, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    npairs = (steps + 1) // 2
    u = 1.0 - gen.random(2 * npairs)
    rad = np.sqrt(-2.0 * np.log(u[0::2]))
    z = np.empty(2 * npairs)
    z[0::2] = rad * np.cos(2.0 * np.pi * u[1::2])
    z[1::2] = rad * np.sin(2.0 * np.pi * u[1::2])
    return math.sqrt(dt) * z[:steps]


def kt_euler2_step(x: float, y: float, w: float, dt: float, noise) -> tuple:
    """One second-order step of the KT model with one shared increment w
    and affine noise vanishing at P2: Euler-Maruyama plus the Milstein
    term, the dt^2/2 drift Taylor term and the dt w / 2 cross term, all
    from own-component partials."""
    p = KT_PARAMS
    xe, ye = KT_P2
    b11, b12, b21, b22 = noise
    f1, f2 = kt_rhs(x, y)
    df1 = -p["a2"] + p["a3"] * y
    df2, d2f2 = p["b1"] * (1.0 - 2.0 * p["b2"] * y) - x, -2.0 * p["b1"] * p["b2"]
    g1 = b11 * (x - xe) + b12 * (y - ye)
    g2 = b21 * (x - xe) + b22 * (y - ye)
    return (x + f1 * dt + g1 * w + 0.5 * g1 * b11 * (w * w - dt)
            + 0.5 * dt * dt * f1 * df1 + 0.5 * dt * w * (g1 * df1 + f1 * b11),
            y + f2 * dt + g2 * w + 0.5 * g2 * b22 * (w * w - dt)
            + 0.5 * dt * dt * (f2 * df2 + 0.5 * g2 * g2 * d2f2)
            + 0.5 * dt * w * (g2 * df2 + f2 * b22))


def kt_euler2_reference(dw: np.ndarray, rows: int, dt: float, x0: float,
                        y0: float, noise) -> np.ndarray:
    """First `rows` states (t, x, y) of the euler2 recurrence driven by
    the increments dw."""
    out = np.empty((rows, 3))
    x, y = x0, y0
    out[0] = (0.0, x, y)
    for k in range(rows - 1):
        x, y = kt_euler2_step(x, y, float(dw[k]), dt, noise)
        out[k + 1] = ((k + 1) * dt, x, y)
    return out
