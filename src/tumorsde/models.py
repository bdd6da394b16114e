"""Two-dimensional tumor-immune vector fields.

Provides the Kuznetsov-Taylor model and a family of predator-prey style
models assembled from five scalar shape functions h1..h5 of the tumor
count x:

    dx/dt = x * (h1(x) - h2(x) * y)
    dy/dt = (h3(x) - h4(x)) * y + h5(x)

Presets: volterra, bell, stepanova, vladar, exponential, logistic.  The
Kuznetsov-Taylor right-hand side does not fit the family (its y-equation
is quadratic in y) and is implemented directly.  Each model builder
makes the model's field, jet (the field with the own-component partials
of the second-order scheme) and Jacobian once, as closures over its
coefficients stored on the ModelSpec, with the closed-form equilibria of
kt and bell; no caller dispatches on a model's name.  A custom
right-hand side is called only through its checked field, which its
difference stencils read too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

__all__ = [
    "DomainError",
    "State",
    "Mat2",
    "Equilibrium",
    "HFun",
    "ModelSpec",
    "kt_model",
    "bell_model",
    "volterra_model",
    "stepanova_model",
    "vladar_model",
    "exponential_model",
    "logistic_model",
    "custom_model",
    "make_model",
    "find_equilibria_numeric",
    "model_equilibria",
    "jacobian",
    "residual_scale",
]


class DomainError(ValueError):
    """A model function was evaluated outside its domain."""


@dataclass(frozen=True)
class State:
    """Point in the (tumor count, effector count) plane."""

    x: float
    y: float


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix with named entries."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a11, self.a12, self.a21, self.a22)):
            raise ValueError("Mat2 entries must be finite")


@dataclass(frozen=True)
class Equilibrium:
    """Zero of a vector field, with the residual max|f_i| at the point."""

    point: State
    label: str
    residual: float


@dataclass(frozen=True)
class HFun:
    """Scalar shape function of x with first and second derivatives."""

    name: str
    f: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]

    def __call__(self, x: float) -> float:
        try:
            v = self.f(x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"{self.name} undefined at x={x!r}: {exc}") from None
        if not math.isfinite(v):
            raise DomainError(f"{self.name} evaluated non-finite at x={x!r}")
        return v


@dataclass(frozen=True)
class ModelSpec:
    """A named 2-D vector field with the closures its builder made once,
    each over a state pair s = (x, y) of floats:

        field(s) -> (f1, f2)
        jet(s)   -> (f1, f2, df1/dx, d2f1/dx2, df2/dy, d2f2/dy2)
        jac(s)   -> (df1/dx, df1/dy, df2/dx, df2/dy)

    field raises DomainError where a shape function is undefined, the
    value is non-finite or a custom rhs is complex or raises ValueError,
    ZeroDivisionError or OverflowError.  A preset's jet and jac are
    analytic (the jet evaluates each shape function once and leaves a
    non-finite value to the step built on it; jac's diagonal is the
    jet's); a custom model's are central differences (step 1e-6 *
    max(1, |coordinate|)) of the checked field.  closed(model) ->
    (equilibria, notes) is kt's and bell's closed form, else None.
    """

    name: str
    params: Mapping[str, float]
    field: Callable[[tuple], tuple]
    jet: Callable[[tuple], tuple]
    jac: Callable[[tuple], tuple]
    closed: Optional[Callable[["ModelSpec"], tuple]] = None


def _poly(name: str, c0: float, c1: float = 0.0, c2: float = 0.0) -> HFun:
    """c0 + c1 x + c2 x^2 and its two derivatives."""
    return HFun(name, lambda x: c0 + (c1 + c2 * x) * x,
                lambda x: c1 + 2.0 * c2 * x, lambda x: 2.0 * c2)


def _model(name: str, params: dict, fns: tuple, closed=None) -> ModelSpec:
    if not all(math.isfinite(v) for v in params.values()):
        raise ValueError(f"model {name} requires finite params")
    field, jet, jac = fns
    return ModelSpec(name=name, params=params, field=field, jet=jet, jac=jac, closed=closed)


def kt_model(a1: float = 0.1181, a2: float = 0.3747, a3: float = 0.01184,
             b1: float = 1.636, b2: float = 0.002) -> ModelSpec:
    """Kuznetsov-Taylor model: dx/dt = a1 - a2*x + a3*x*y, dy/dt = b1*y*(1 - b2*y) - x*y."""
    if a2 <= 0 or a3 <= 0 or b1 <= 0 or b2 <= 0:
        raise ValueError("model kt requires a2, a3, b1, b2 > 0")
    return _model("kt", {"a1": a1, "a2": a2, "a3": a3, "b1": b1, "b2": b2},
                  _kt_fns(a1, a2, a3, b1, b2), _kt_closed)


def bell_model(a1: float = 2.5, a2: float = 1.0, b1: float = 1.0, b2: float = 0.4,
               b3: float = 0.95, b4: float = 2.0) -> ModelSpec:
    """Bell model: dx/dt = x*(a1 - a2*y), dy/dt = (b1*x - b3)*y - b2*x + b4."""
    if a2 == 0:
        raise ValueError("model bell requires a2 != 0")
    h = (
        _poly("h1", a1),
        _poly("h2", a2),
        _poly("h3", 0.0, b1),
        _poly("h4", b3),
        _poly("h5", b4, -b2),
    )
    return _model("bell", {"a1": a1, "a2": a2, "b1": b1, "b2": b2, "b3": b3, "b4": b4},
                  _h_fns(*h), _bell_closed)


def volterra_model(a: float, b: float, d: float, f: float, k: float) -> ModelSpec:
    """Volterra model: dx/dt = a*x - b*x*y, dy/dt = d*x*y - f*y - k*x."""
    h = (
        _poly("h1", a),
        _poly("h2", b),
        _poly("h3", 0.0, d),
        _poly("h4", f),
        _poly("h5", 0.0, -k),
    )
    return _model("volterra", {"a": a, "b": b, "d": d, "f": f, "k": k}, _h_fns(*h))


def stepanova_model(a1: float, b: float, b1: float, b2: float, b4: float) -> ModelSpec:
    h = (
        _poly("h1", a1),
        _poly("h2", 1.0),
        _poly("h3", 0.0, b1),
        _poly("h4", b),
        _poly("h5", b4, -b2),
    )
    return _model("stepanova", {"a1": a1, "b": b, "b1": b1, "b2": b2, "b4": b4}, _h_fns(*h))


def vladar_model(K: float, b1: float, b2: float, b3: float) -> ModelSpec:
    """Vladar-Gonzalez model; h1 = log(K/x) requires x > 0."""
    def h1f(x):
        if x <= 0:
            raise DomainError(f"h1: log(K/x) requires x > 0, got x={x!r}")
        return math.log(K / x)

    h = (
        HFun("h1", h1f, lambda x: -1.0 / x, lambda x: 1.0 / (x * x)),
        _poly("h2", 1.0),
        _poly("h3", 0.0, b1),
        _poly("h4", b2, 0.0, b3),
        _poly("h5", 1.0),
    )
    return _model("vladar", {"K": K, "b1": b1, "b2": b2, "b3": b3}, _h_fns(*h))


def exponential_model(b1: float, b2: float, b3: float) -> ModelSpec:
    h = (
        _poly("h1", 1.0),
        _poly("h2", 1.0),
        _poly("h3", 0.0, b1),
        _poly("h4", b2, 0.0, b3),
        _poly("h5", 1.0),
    )
    return _model("exponential", {"b1": b1, "b2": b2, "b3": b3}, _h_fns(*h))


def logistic_model(a1: float, b1: float, b2: float, b3: float) -> ModelSpec:
    """Logistic model; h1 = 1 - a1/x requires x != 0."""
    def h1f(x):
        if x == 0:
            raise DomainError("h1: 1 - a1/x undefined at x=0")
        return 1.0 - a1 / x

    h = (
        HFun("h1", h1f, lambda x: a1 / (x * x), lambda x: -2 * a1 / (x ** 3)),
        _poly("h2", 1.0),
        _poly("h3", 0.0, b1),
        _poly("h4", b2, 0.0, b3),
        _poly("h5", 1.0),
    )
    return _model("logistic", {"a1": a1, "b1": b1, "b2": b2, "b3": b3}, _h_fns(*h))


def custom_model(rhs: Callable[[float, float], tuple], name: str = "custom",
                 params: Optional[Mapping[str, float]] = None) -> ModelSpec:
    """Wrap a user-supplied (x, y) -> (f1, f2) right-hand side; params,
    its coefficients for residual_scale, must be finite."""
    return _model(name, dict(params or {}), _custom_fns(rhs))


# in the order of the CLI's --model choices
_PRESETS = {"kt": kt_model, "volterra": volterra_model, "bell": bell_model,
            "stepanova": stepanova_model, "vladar": vladar_model,
            "exponential": exponential_model, "logistic": logistic_model}


def make_model(name: str, params: Optional[Mapping[str, float]] = None) -> ModelSpec:
    """Build a preset by name from its builder's keywords: each one without
    a default (kt's and bell's have them) is needed, any other is refused."""
    import inspect

    if name not in _PRESETS:
        raise ValueError(f"unknown model preset: {name}")
    builder, params = _PRESETS[name], dict(params or {})
    keys = inspect.signature(builder).parameters
    missing = [k for k, p in keys.items() if p.default is p.empty and k not in params]
    if missing:
        raise ValueError(f"model {name} needs params {missing}")
    unknown = set(params) - set(keys)
    if unknown:
        raise ValueError(f"model {name}: unknown params {sorted(unknown)}")
    return builder(**params)


_isfinite = math.isfinite


def _nonfinite(s) -> DomainError:
    return DomainError(f"vector field non-finite at ({s[0]!r}, {s[1]!r})")


def _kt_fns(a1, a2, a3, b1, b2) -> tuple:
    d2f2 = -2.0 * b1 * b2

    def field(s):
        x, y = s
        f1 = a1 - a2 * x + a3 * x * y
        f2 = b1 * y * (1.0 - b2 * y) - x * y
        if _isfinite(f1) and _isfinite(f2):
            return f1, f2
        raise _nonfinite(s)

    def jet(s):
        x, y = s
        return (a1 - a2 * x + a3 * x * y, b1 * y * (1.0 - b2 * y) - x * y,
                -a2 + a3 * y, 0.0, b1 * (1.0 - 2.0 * b2 * y) - x, d2f2)

    def jac(s):
        _, _, j11, _, j22, _ = jet(s)
        return j11, a3 * s[0], -s[1], j22

    return field, jet, jac


def _h_fns(h1, h2, h3, h4, h5) -> tuple:
    h1d1, h1d2, h2d1, h2d2 = h1.d1, h1.d2, h2.d1, h2.d2

    def field(s):
        x, y = s
        f1 = x * (h1(x) - h2(x) * y)
        f2 = (h3(x) - h4(x)) * y + h5(x)
        if _isfinite(f1) and _isfinite(f2):
            return f1, f2
        raise _nonfinite(s)

    def jet(s):
        x, y = s
        v1, v2, v3, v4 = h1(x), h2(x), h3(x), h4(x)
        d1, d2 = h1d1(x), h2d1(x)
        return (x * (v1 - v2 * y), (v3 - v4) * y + h5(x),
                v1 + x * d1 - (v2 + x * d2) * y,
                2.0 * d1 + x * h1d2(x) - (2.0 * d2 + x * h2d2(x)) * y,
                v3 - v4, 0.0)

    def jac(s):
        x, y = s
        _, _, j11, _, j22, _ = jet(s)
        return j11, -x * h2(x), (h3.d1(x) - h4.d1(x)) * y + h5.d1(x), j22

    return field, jet, jac


def _custom_fns(rhs) -> tuple:
    def field(s):
        # the one place a custom rhs is called
        try:
            f1, f2 = rhs(s[0], s[1])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"rhs undefined at ({s[0]!r}, {s[1]!r}): {exc}") from None
        if (isinstance(f1, complex) or isinstance(f2, complex)
                or not (_isfinite(f1) and _isfinite(f2))):
            raise _nonfinite(s)
        return f1, f2

    def jet(s):
        x, y = s
        f1, f2 = field(s)
        hx, hy, fxp, fxm, fyp, fym = _stencil(field, x, y)
        return (f1, f2,
                (fxp[0] - fxm[0]) / (2 * hx), (fxp[0] - 2 * f1 + fxm[0]) / hx ** 2,
                (fyp[1] - fym[1]) / (2 * hy), (fyp[1] - 2 * f2 + fym[1]) / hy ** 2)

    def jac(s):
        hx, hy, fxp, fxm, fyp, fym = _stencil(field, s[0], s[1])
        return ((fxp[0] - fxm[0]) / (2 * hx), (fyp[0] - fym[0]) / (2 * hy),
                (fxp[1] - fxm[1]) / (2 * hx), (fyp[1] - fym[1]) / (2 * hy))

    return field, jet, jac


def residual_scale(model: ModelSpec) -> float:
    """Magnitude unit for residual tolerances: max(1, largest |coefficient|)."""
    mags = [abs(v) for v in model.params.values()] or [1.0]
    return max(1.0, max(mags))


def _residual(model: ModelSpec, x: float, y: float) -> float:
    f1, f2 = model.field((x, y))
    return max(abs(f1), abs(f2))


def _admit(model: ModelSpec, out: list, notes: list, label: str, x: float, y: float):
    """(out, notes), the equilibrium label at (x, y) with its residual
    appended to out or, where the field there is not finite, a note that
    it is omitted appended to notes."""
    try:
        out.append(Equilibrium(State(x, y), label, _residual(model, x, y)))
    except DomainError:
        notes.append(f"{label} omitted: residual not finite at ({x:.6g}, {y:.6g})")
    return out, notes


def _kt_closed(model: ModelSpec) -> tuple:
    """(equilibria, notes) of a built kt model: P1 = (a1/a2, 0) when x1
    is not negative, and P2 from the positive root of the coexistence
    quadratic when its discriminant is finite, its denominators nonzero,
    its x not negative and its y positive (else not a population), each
    when its residual is finite, else a note why it is omitted."""
    a1, a2, a3, b1, b2 = (model.params[k] for k in ("a1", "a2", "a3", "b1", "b2"))
    x1 = a1 / a2
    out, notes = [], []
    if x1 < 0:
        notes.append(f"P1 omitted: x1 = {x1:.6g} < 0")
    else:
        _admit(model, out, notes, "P1", x1, 0.0)
    try:
        delta = b1 ** 2 * (b2 * a2 - a3) ** 2 + 4.0 * b1 * b2 * a1 * a3
    except OverflowError:
        delta = math.inf
    if not math.isfinite(delta):
        return out, notes + ["P2 omitted: discriminant overflows"]
    if delta < 0:
        return out, notes + ["P2 omitted: discriminant < 0"]
    sd = math.sqrt(delta)
    # each root in the form that adds terms of one sign, so that neither
    # cancels as b2 or a3 shrinks; y2 is the smaller root by Vieta
    if a3 < b2 * a2:
        x_num, x_den = 2.0 * a1 * b1 * b2, sd + b1 * (b2 * a2 - a3)
    else:
        x_num, x_den = b1 * (a3 - b2 * a2) + sd, 2.0 * a3
    y_den = b1 * (a3 + b2 * a2) + sd
    if x_den == 0 or y_den == 0:  # positive sums of products that underflow
        return out, notes + ["P2 omitted: a root's denominator underflows"]
    x2, y2 = x_num / x_den, 2.0 * (a2 * b1 - a1) / y_den
    if x2 < 0:
        return out, notes + [f"P2 omitted: x2 = {x2:.6g} < 0"]
    if not y2 > 0:
        return out, notes + [f"P2 omitted: y2 = {y2:.6g} <= 0"]
    return _admit(model, out, notes, "P2", x2, y2)


def _bell_closed(model: ModelSpec) -> tuple:
    """(equilibria, notes) of a built bell model: P1 = (0, b4/b3) on the
    x = 0 axis and the interior P2 = ((a1 b3 - a2 b4) / (a1 b1 - a2 b2),
    a1/a2), each when its denominator is not 0, its coordinates are not
    negative (a population) and its residual finite, else a note why."""
    a1, a2, b1, b2, b3, b4 = (model.params[k] for k in ("a1", "a2", "b1", "b2", "b3", "b4"))
    out, notes = [], []
    y1 = b4 / b3 if b3 != 0 else math.nan
    if b3 == 0:
        notes.append("P1 omitted: b3 = 0")
    elif y1 < 0:
        notes.append(f"P1 omitted: y1 = {y1:.6g} < 0")
    else:
        _admit(model, out, notes, "P1", 0.0, y1)
    den = a1 * b1 - a2 * b2
    if den == 0:
        return out, notes + ["P2 omitted: a1*b1 = a2*b2"]
    x2, y2 = (a1 * b3 - a2 * b4) / den, a1 / a2
    for name, v in (("x2", x2), ("y2", y2)):
        if v < 0:
            return out, notes + [f"P2 omitted: {name} = {v:.6g} < 0"]
    return _admit(model, out, notes, "P2", x2, y2)


def model_equilibria(model: ModelSpec) -> tuple:
    """(equilibria, notes) of a built model: its closed form (the kt and
    bell presets), else a Newton search of the box (0, 50)^2 from an
    8 x 8 lattice (find_equilibria_numeric) whose roots with x < 0 or
    y < 0 (not populations) are omitted.  A note says why an equilibrium
    is omitted, or that the search found nothing."""
    if model.closed is not None:
        return model.closed(model)
    eqs = find_equilibria_numeric(model, ((0.0, 50.0), (0.0, 50.0)), grid=8)
    out, notes = [], []
    for e in eqs:
        bad = [f"{k} = {v:.6g} < 0" for k, v in zip("xy", (e.point.x, e.point.y)) if v < 0]
        if bad:
            notes.append(f"root omitted: {bad[0]}")
        else:
            out.append(e)
    return out, notes if eqs else ["no equilibria found in box (0,50)^2"]


def _stencil(field, x: float, y: float) -> tuple:
    """Central-difference steps hx, hy (1e-6 * max(1, |coordinate|)) and
    the field, over a state pair, at (x + hx, y), (x - hx, y),
    (x, y + hy) and (x, y - hy)."""
    hx = 1e-6 * max(1.0, abs(x))
    hy = 1e-6 * max(1.0, abs(y))
    return (hx, hy, field((x + hx, y)), field((x - hx, y)),
            field((x, y + hy)), field((x, y - hy)))


def jacobian(model: ModelSpec, at: State) -> Mat2:
    """Jacobian of the vector field at a state: the model's jac, so a
    DomainError where a custom model's stencil leaves the rhs's domain."""
    return Mat2(*model.jac((at.x, at.y)))


def find_equilibria_numeric(model: ModelSpec, box, grid: int = 8) -> list:
    """Newton search for vector-field zeros from a lattice of starts.

    box is ((xlo, xhi), (ylo, yhi)).  Roots are kept when the residual
    drops below 1e-10 * residual_scale(model), deduplicated at distance
    1e-6 and sorted by x then y.  No convergence anywhere gives [].
    """
    (xlo, xhi), (ylo, yhi) = box
    if not (xhi > xlo and yhi > ylo) or grid < 2:
        return []
    tol = 1e-10 * residual_scale(model)
    roots = []
    for xs in np.linspace(xlo, xhi, grid):
        for ys in np.linspace(ylo, yhi, grid):
            pt = _newton(model, float(xs), float(ys))
            if pt is None:
                continue
            x, y = pt
            r = _residual(model, x, y)
            if r > tol:
                continue
            if any(math.hypot(x - rx, y - ry) < 1e-6 for rx, ry, _ in roots):
                continue
            roots.append((x, y, r))
    roots.sort(key=lambda t: (t[0], t[1]))
    return [Equilibrium(State(x, y), "numeric", r) for x, y, r in roots]


def _newton(model: ModelSpec, x: float, y: float, max_iter: int = 100):
    """Damped Newton iteration; returns (x, y) or None."""
    field, jac = model.field, model.jac
    for _ in range(max_iter):
        try:
            f1, f2 = field((x, y))
            j11, j12, j21, j22 = jac((x, y))
        except DomainError:
            return None
        norm0 = f1 * f1 + f2 * f2
        if not math.isfinite(norm0):
            return None
        det = j11 * j22 - j12 * j21
        if det == 0 or not math.isfinite(det):
            return None
        dx = -(f1 * j22 - f2 * j12) / det
        dy = -(j11 * f2 - j21 * f1) / det
        step = math.hypot(dx, dy)
        if step < 1e-12 * (1.0 + math.hypot(x, y)):
            return x, y
        # Armijo backtracking on |f|^2
        t = 1.0
        accepted = False
        for _ in range(40):
            xn, yn = x + t * dx, y + t * dy
            try:
                g1, g2 = field((xn, yn))
            except DomainError:
                t *= 0.5
                continue
            if g1 * g1 + g2 * g2 <= (1.0 - 1e-4 * t) * norm0:
                x, y = xn, yn
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return None
    return None
