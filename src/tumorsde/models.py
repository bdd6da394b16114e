"""Two-dimensional tumor-immune vector fields.

Provides the Kuznetsov-Taylor model and a family of predator-prey style
models assembled from five scalar shape functions h1..h5 of the tumor
count x:

    dx/dt = x * (h1(x) - h2(x) * y)
    dy/dt = (h3(x) - h4(x)) * y + h5(x)

Presets: volterra, bell, stepanova, vladar, exponential, logistic.  The
Kuznetsov-Taylor right-hand side does not fit the family (its y-equation
is quadratic in y) and is implemented directly.  Jacobians and the
own-component partial derivatives needed by the second-order
integration scheme are analytic for every preset and central
differences for custom right-hand sides.  vector_field_fns builds a
model's field and partials once, as closures over its coefficients;
eval_vector_field and diag_partials evaluate those closures at a State.
A custom right-hand side is called only through its checked field: a
value that raises, is complex or is non-finite there is a DomainError,
and the Jacobian's and the partials' difference stencils read that
field too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "DegenerateEquilibriumError",
    "State",
    "KTParams",
    "BellParams",
    "Mat2",
    "Equilibrium",
    "HFun",
    "ModelSpec",
    "KT_PARAMS",
    "BELL_PARAMS",
    "kt_model",
    "bell_model",
    "volterra_model",
    "stepanova_model",
    "vladar_model",
    "exponential_model",
    "logistic_model",
    "custom_model",
    "make_model",
    "vector_field_fns",
    "eval_vector_field",
    "kt_equilibria",
    "bell_equilibria",
    "find_equilibria_numeric",
    "jacobian",
    "diag_partials",
    "residual_scale",
]


class DomainError(ValueError):
    """A model function was evaluated outside its domain."""


class DegenerateEquilibriumError(ValueError):
    """An equilibrium formula has a vanishing denominator."""


@dataclass(frozen=True)
class State:
    """Point in the (tumor count, effector count) plane."""

    x: float
    y: float


@dataclass(frozen=True)
class KTParams:
    """Coefficients of the Kuznetsov-Taylor vector field.

    dx/dt = a1 - a2*x + a3*x*y
    dy/dt = b1*y*(1 - b2*y) - x*y
    """

    a1: float
    a2: float
    a3: float
    b1: float
    b2: float

    def __post_init__(self):
        vals = (self.a1, self.a2, self.a3, self.b1, self.b2)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("KTParams entries must be finite")
        if self.a2 <= 0 or self.b1 <= 0 or self.b2 <= 0 or self.a3 <= 0:
            raise ValueError("KTParams requires a2, a3, b1, b2 > 0")


@dataclass(frozen=True)
class BellParams:
    """Coefficients of the Bell vector field.

    dx/dt = x * (a1 - a2*y)
    dy/dt = (b1*x - b3)*y - b2*x + b4
    """

    a1: float
    a2: float
    b1: float
    b2: float
    b3: float
    b4: float

    def __post_init__(self):
        vals = (self.a1, self.a2, self.b1, self.b2, self.b3, self.b4)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("BellParams entries must be finite")
        if self.a2 == 0:
            raise ValueError("BellParams requires a2 != 0")


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

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=float)


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
    """A named 2-D vector field: a preset of the h-family, the
    Kuznetsov-Taylor system, or user-supplied right-hand sides."""

    name: str
    params: Mapping[str, float]
    h: Optional[Sequence[HFun]] = None  # (h1..h5) for family presets
    rhs: Optional[Callable[[float, float], tuple]] = None  # custom models


def _poly(name: str, c0: float, c1: float = 0.0, c2: float = 0.0) -> HFun:
    """c0 + c1 x + c2 x^2 and its two derivatives."""
    return HFun(name, lambda x: c0 + (c1 + c2 * x) * x,
                lambda x: c1 + 2.0 * c2 * x, lambda x: 2.0 * c2)


KT_PARAMS = KTParams(a1=0.1181, a2=0.3747, a3=0.01184, b1=1.636, b2=0.002)
BELL_PARAMS = BellParams(a1=2.5, a2=1.0, b1=1.0, b2=0.4, b3=0.95, b4=2.0)


def kt_model(params: KTParams = KT_PARAMS) -> ModelSpec:
    """Kuznetsov-Taylor model (positive immune response)."""
    return ModelSpec(name="kt", params=asdict(params))


def bell_model(params: BellParams = BELL_PARAMS) -> ModelSpec:
    h = (
        _poly("h1", params.a1),
        _poly("h2", params.a2),
        _poly("h3", 0.0, params.b1),
        _poly("h4", params.b3),
        _poly("h5", params.b4, -params.b2),
    )
    return ModelSpec(name="bell", params=asdict(params), h=h)


def volterra_model(a: float, b: float, d: float, f: float, k: float) -> ModelSpec:
    """Volterra model: dx/dt = a*x - b*x*y, dy/dt = d*x*y - f*y - k*x."""
    h = (
        _poly("h1", a),
        _poly("h2", b),
        _poly("h3", 0.0, d),
        _poly("h4", f),
        _poly("h5", 0.0, -k),
    )
    return ModelSpec(name="volterra", params={"a": a, "b": b, "d": d, "f": f, "k": k}, h=h)


def stepanova_model(a1: float, b: float, b1: float, b2: float, b4: float) -> ModelSpec:
    h = (
        _poly("h1", a1),
        _poly("h2", 1.0),
        _poly("h3", 0.0, b1),
        _poly("h4", b),
        _poly("h5", b4, -b2),
    )
    return ModelSpec(name="stepanova",
                     params={"a1": a1, "b": b, "b1": b1, "b2": b2, "b4": b4}, h=h)


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
    return ModelSpec(name="vladar", params={"K": K, "b1": b1, "b2": b2, "b3": b3}, h=h)


def exponential_model(b1: float, b2: float, b3: float) -> ModelSpec:
    h = (
        _poly("h1", 1.0),
        _poly("h2", 1.0),
        _poly("h3", 0.0, b1),
        _poly("h4", b2, 0.0, b3),
        _poly("h5", 1.0),
    )
    return ModelSpec(name="exponential", params={"b1": b1, "b2": b2, "b3": b3}, h=h)


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
    return ModelSpec(name="logistic",
                     params={"a1": a1, "b1": b1, "b2": b2, "b3": b3}, h=h)


def custom_model(rhs: Callable[[float, float], tuple], name: str = "custom",
                 params: Optional[Mapping[str, float]] = None) -> ModelSpec:
    """Wrap a user-supplied (x, y) -> (f1, f2) right-hand side."""
    return ModelSpec(name=name, params=dict(params or {}), rhs=rhs)


_FACTORIES = {
    "volterra": (volterra_model, ("a", "b", "d", "f", "k")),
    "stepanova": (stepanova_model, ("a1", "b", "b1", "b2", "b4")),
    "vladar": (vladar_model, ("K", "b1", "b2", "b3")),
    "exponential": (exponential_model, ("b1", "b2", "b3")),
    "logistic": (logistic_model, ("a1", "b1", "b2", "b3")),
}


_DEFAULTED = {"kt": (kt_model, KT_PARAMS), "bell": (bell_model, BELL_PARAMS)}


def make_model(name: str, params: Optional[Mapping[str, float]] = None) -> ModelSpec:
    """Build a preset by name; kt and bell fall back to their defaults
    for any coefficient not overridden, other presets need every one."""
    params = dict(params or {})
    if name in _DEFAULTED:
        factory, defaults = _DEFAULTED[name]
        _reject_unknown(name, params, asdict(defaults))
        return factory(replace(defaults, **params))
    if name in _FACTORIES:
        factory, keys = _FACTORIES[name]
        missing = [k for k in keys if k not in params]
        if missing:
            raise ValueError(f"model {name} needs params {missing}")
        _reject_unknown(name, params, dict.fromkeys(keys))
        return factory(**{k: params[k] for k in keys})
    raise ValueError(f"unknown model preset: {name}")


def _reject_unknown(name, given, allowed):
    unknown = set(given) - set(allowed)
    if unknown:
        raise ValueError(f"model {name}: unknown params {sorted(unknown)}")


def vector_field_fns(model: ModelSpec) -> tuple:
    """(field, partials) of the model, built once with its coefficients
    bound as locals.  Both map a state pair s = (x, y) of floats:

        field(s)    -> (f1, f2)
        partials(s) -> ((df1/dx, d2f1/dx2), (df2/dy, d2f2/dy2))

    field raises DomainError when a shape function is undefined there or
    the right-hand side is non-finite or, for a custom right-hand side,
    complex (a fractional power of a negative float) or raises
    ValueError, ZeroDivisionError or OverflowError itself.  partials are
    analytic for every preset, central differences of that checked
    field for custom models.
    """
    if model.name == "kt":
        p = model.params
        return _kt_fns(p["a1"], p["a2"], p["a3"], p["b1"], p["b2"])
    if model.h is not None:
        return _h_fns(*model.h)
    if model.rhs is not None:
        return _custom_fns(model.rhs)
    raise ValueError(f"model {model.name} has no right-hand side")


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

    def partials(s):
        x, y = s
        return (-a2 + a3 * y, 0.0), (b1 * (1.0 - 2.0 * b2 * y) - x, d2f2)

    return field, partials


def _h_fns(h1, h2, h3, h4, h5) -> tuple:
    h1d1, h1d2, h2d1, h2d2 = h1.d1, h1.d2, h2.d1, h2.d2

    def field(s):
        x, y = s
        f1 = x * (h1(x) - h2(x) * y)
        f2 = (h3(x) - h4(x)) * y + h5(x)
        if _isfinite(f1) and _isfinite(f2):
            return f1, f2
        raise _nonfinite(s)

    def partials(s):
        x, y = s
        df1 = h1(x) + x * h1d1(x) - (h2(x) + x * h2d1(x)) * y
        d2f1 = 2.0 * h1d1(x) + x * h1d2(x) - (2.0 * h2d1(x) + x * h2d2(x)) * y
        return (df1, d2f1), (h3(x) - h4(x), 0.0)

    return field, partials


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

    def partials(s):
        x, y = s
        f0 = field(s)
        hx, hy, fxp, fxm, fyp, fym = _stencil(field, x, y)
        return (((fxp[0] - fxm[0]) / (2 * hx), (fxp[0] - 2 * f0[0] + fxm[0]) / hx ** 2),
                ((fyp[1] - fym[1]) / (2 * hy), (fyp[1] - 2 * f0[1] + fym[1]) / hy ** 2))

    return field, partials


def eval_vector_field(model: ModelSpec, s: State) -> tuple:
    """Evaluate (f1, f2) at the state: the field of vector_field_fns,
    so DomainError where it is undefined, non-finite or complex."""
    return vector_field_fns(model)[0]((s.x, s.y))


def residual_scale(model: ModelSpec) -> float:
    """Magnitude unit for residual tolerances: max(1, largest |coefficient|)."""
    mags = [abs(v) for v in model.params.values()] or [1.0]
    return max(1.0, max(mags))


def _residual(model: ModelSpec, x: float, y: float) -> float:
    f1, f2 = eval_vector_field(model, State(x, y))
    return max(abs(f1), abs(f2))


def _kt_p2_root(p: KTParams) -> Optional[tuple]:
    """(x2, y2) from the positive root of the coexistence quadratic, or
    None when its discriminant is negative."""
    delta = p.b1 ** 2 * (p.b2 * p.a2 - p.a3) ** 2 + 4.0 * p.b1 * p.b2 * p.a1 * p.a3
    if delta < 0:
        return None
    sd = math.sqrt(delta)
    return ((p.b1 * (p.a3 - p.b2 * p.a2) + sd) / (2.0 * p.a3),
            (p.b1 * (p.a3 + p.b2 * p.a2) - sd) / (2.0 * p.b1 * p.b2 * p.a3))


def kt_equilibria(p: KTParams) -> list:
    """Tumor-present equilibria of the Kuznetsov-Taylor model.

    P1 = (a1/a2, 0) always exists.  P2 comes from the positive root of
    the coexistence quadratic and is returned only when its y-coordinate
    is positive (omitted otherwise, since y < 0 is not a population).
    """
    model = kt_model(p)
    x1 = p.a1 / p.a2
    out = [Equilibrium(State(x1, 0.0), "P1", _residual(model, x1, 0.0))]
    root = _kt_p2_root(p)
    if root is not None and root[1] > 0:
        x2, y2 = root
        out.append(Equilibrium(State(x2, y2), "P2", _residual(model, x2, y2)))
    return out


def kt_p2_status(p: KTParams) -> str:
    """One-line note on P2 existence for reporting."""
    root = _kt_p2_root(p)
    if root is None:
        return "P2 omitted: discriminant < 0"
    if root[1] > 0:
        return "P2 present"
    return f"P2 omitted: y2 = {root[1]:.6g} <= 0"


def bell_equilibria(p: BellParams) -> list:
    """Equilibria of the Bell model: P1 on the x = 0 axis, interior P2."""
    model = bell_model(p)
    if p.b3 == 0:
        raise DegenerateEquilibriumError("P1 undefined: b3 = 0")
    den = p.a1 * p.b1 - p.a2 * p.b2
    if den == 0:
        raise DegenerateEquilibriumError("P2 undefined: a1*b1 = a2*b2")
    y1 = p.b4 / p.b3
    x2 = (p.a1 * p.b3 - p.a2 * p.b4) / den
    y2 = p.a1 / p.a2
    return [
        Equilibrium(State(0.0, y1), "P1", _residual(model, 0.0, y1)),
        Equilibrium(State(x2, y2), "P2", _residual(model, x2, y2)),
    ]


def _stencil(field, x: float, y: float) -> tuple:
    """Central-difference steps hx, hy (1e-6 * max(1, |coordinate|)) and
    the field, over a state pair, at (x + hx, y), (x - hx, y),
    (x, y + hy) and (x, y - hy)."""
    hx = 1e-6 * max(1.0, abs(x))
    hy = 1e-6 * max(1.0, abs(y))
    return (hx, hy, field((x + hx, y)), field((x - hx, y)),
            field((x, y + hy)), field((x, y - hy)))


def jacobian(model: ModelSpec, at: State) -> Mat2:
    """Jacobian of the vector field: analytic for every preset (its
    diagonal from diag_partials), central finite differences (step
    1e-6 * max(1, |coordinate|)) of the checked field for custom
    right-hand sides, so DomainError where a stencil point is outside
    the rhs's real domain."""
    x, y = at.x, at.y
    if model.rhs is not None:
        field = _custom_fns(model.rhs)[0]
        hx, hy, fxp, fxm, fyp, fym = _stencil(field, x, y)
        return Mat2((fxp[0] - fxm[0]) / (2 * hx), (fyp[0] - fym[0]) / (2 * hy),
                    (fxp[1] - fxm[1]) / (2 * hx), (fyp[1] - fym[1]) / (2 * hy))
    (j11, _), (j22, _) = diag_partials(model, at)
    if model.name == "kt":
        return Mat2(j11, model.params["a3"] * x, -y, j22)
    _, h2, h3, h4, h5 = model.h
    return Mat2(j11, -x * h2(x), (h3.d1(x) - h4.d1(x)) * y + h5.d1(x), j22)


def diag_partials(model: ModelSpec, at: State) -> tuple:
    """Own-component drift partials ((df1/dx, d2f1/dx2), (df2/dy, d2f2/dy2))
    at the state; the partials of vector_field_fns."""
    return vector_field_fns(model)[1]((at.x, at.y))


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
    field = vector_field_fns(model)[0]
    for _ in range(max_iter):
        try:
            f1, f2 = field((x, y))
            jm = jacobian(model, State(x, y))
        except DomainError:
            return None
        norm0 = f1 * f1 + f2 * f2
        if not math.isfinite(norm0):
            return None
        det = jm.a11 * jm.a22 - jm.a12 * jm.a21
        if det == 0 or not math.isfinite(det):
            return None
        dx = -(f1 * jm.a22 - f2 * jm.a12) / det
        dy = -(jm.a11 * f2 - jm.a21 * f1) / det
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
