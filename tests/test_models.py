"""Model presets, equilibria, Jacobians."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from tumorsde import models
from tumorsde.integrate import SimConfig, simulate
from tumorsde.models import (
    DomainError,
    HFun,
    Mat2,
    State,
    bell_model,
    custom_model,
    exponential_model,
    find_equilibria_numeric,
    jacobian,
    kt_model,
    logistic_model,
    make_model,
    model_equilibria,
    residual_scale,
    stepanova_model,
    vladar_model,
    volterra_model,
)
from tumorsde.sde import linearize

# frozen from evaluating the equilibrium formulas with the default
# coefficients; confirmed by direct substitution (residual < 1e-15)
KT_P1 = (0.3151854817187083, 0.0)
KT_P2 = (1.5534604346698473, 25.2260285238853)
BELL_P1 = (0.0, 2.105263157894737)
BELL_P2 = (0.17857142857142858, 2.5)


def test_param_validation():
    # each builder checks its own coefficients; every one must be finite,
    # for every preset and for a custom model's params
    with pytest.raises(ValueError, match="model kt requires a2, a3, b1, b2 > 0"):
        kt_model(a2=-1.0)
    with pytest.raises(ValueError, match="model kt requires finite params"):
        kt_model(a1=math.nan)
    with pytest.raises(ValueError, match="model bell requires a2 != 0"):
        bell_model(a2=0.0)
    with pytest.raises(ValueError, match="model volterra requires finite params"):
        volterra_model(1.0, 0.5, 0.3, 0.4, math.inf)
    with pytest.raises(ValueError, match="model custom requires finite params"):
        custom_model(lambda x, y: (x, y), params={"a": math.nan})
    with pytest.raises(ValueError):
        Mat2(1.0, math.inf, 0.0, 1.0)


def test_kt_field_values():
    m = kt_model()
    f = m.field(KT_P1)
    assert max(abs(f[0]), abs(f[1])) < 1e-14
    assert m.field((0.0, 0.0)) == (0.1181, 0.0)


def test_bell_field_value():
    m = bell_model()
    f1, f2 = m.field((1.0, 2.5))
    # f1 = 1*(2.5 - 1*2.5), f2 = (1*1 - 0.95)*2.5 - 0.4*1 + 2
    assert abs(f1) < 1e-14
    assert abs(f2 - 1.725) < 1e-12


def test_kt_equilibria_default_params():
    eqs = model_equilibria(kt_model())[0]
    assert [e.label for e in eqs] == ["P1", "P2"]
    p1, p2 = eqs
    assert abs(p1.point.x - KT_P1[0]) < 1e-12 and p1.point.y == 0.0
    assert abs(p2.point.x - KT_P2[0]) < 1e-9
    assert abs(p2.point.y - KT_P2[1]) < 1e-9
    scale = residual_scale(kt_model())
    assert p1.residual <= 1e-10 * scale
    assert p2.residual <= 1e-10 * scale


def test_kt_p2_omitted_when_y2_nonpositive():
    # y2 > 0 iff b1*a2 > a1; pick a1 above that product
    m = kt_model(a1=1.0, a2=0.5, a3=0.01, b1=1.0, b2=0.1)
    assert m.params["b1"] * m.params["a2"] < m.params["a1"]
    eqs, notes = model_equilibria(m)
    assert [e.label for e in eqs] == ["P1"]
    assert notes == ["P2 omitted: y2 = -7.41657 <= 0"]


def test_kt_p1_omitted_when_x1_negative():
    # x1 = a1/a2 < 0 is not a population, as Bell's y1 < 0 is not
    eqs, notes = model_equilibria(kt_model(a1=-10.0))
    assert eqs == []
    a2 = kt_model().params["a2"]
    assert notes == [f"P1 omitted: x1 = {-10.0 / a2:.6g} < 0", "P2 omitted: discriminant < 0"]


@pytest.mark.parametrize("params, labels, notes", [
    (dict(a1=-0.01, b2=0.1), [], ["P1 omitted: x1 = -0.026688 < 0",
                                  "P2 omitted: x2 = -0.0394564 < 0"]),
    (dict(b1=1e200), ["P1"], ["P2 omitted: discriminant overflows"]),
    (dict(b1=1e-200, a3=1e-200, b2=1e-200), ["P1"],
     ["P2 omitted: a root's denominator underflows"]),
    (dict(b1=1e-200, b2=1e-200, a3=1e-201), ["P1"],
     ["P2 omitted: a root's denominator underflows"]),
], ids=["x2<0", "overflow", "y2-underflow", "x2-underflow"])
def test_kt_equilibria_omit_what_is_not_a_population(params, labels, notes):
    # x2 is checked before y2, as Bell's are; b1 ** 2 overflows a float;
    # y2's b1 (a3 + b2 a2) + sd, or x2's sd + b1 (b2 a2 - a3), is a sum of
    # positive terms that underflows to 0 (a ZeroDivisionError before)
    eqs, got = model_equilibria(kt_model(**params))
    assert [e.label for e in eqs] == labels and got == notes
    assert all(e.point.x >= 0 and e.point.y >= 0 and e.residual < 1e-12 for e in eqs)


@pytest.mark.parametrize("value", [1e-6, 1e-12, 1e-15, 1e-300, 1e-323])
@pytest.mark.parametrize("key", ["b2", "a3"])
def test_kt_p2_does_not_cancel_as_b2_or_a3_shrinks(key, value):
    # the textbook roots lost P2's y2 to cancellation (residual 1.3e-6 at
    # b2 = 1e-12, 1.9e-2 at a3 = 1e-15), omitted it at b2 = 1e-300 and
    # divided by zero at 1e-323
    eqs, notes = model_equilibria(kt_model(**{key: value}))
    assert [e.label for e in eqs] == ["P1", "P2"] and notes == []
    assert eqs[1].residual < 1e-12


@pytest.mark.parametrize("model, labels, notes", [
    (bell_model(b3=1e-309, b1=0.1), ["P2"], ["P1 omitted: residual not finite at (0, inf)"]),
    (bell_model(b3=1e308, a1=1e10), ["P1"],
     ["P2 omitted: residual not finite at (inf, 1e+10)"]),
    (kt_model(a1=1e300, a3=1e300), [],
     ["P1 omitted: residual not finite at (2.6688e+300, 0)",
      "P2 omitted: discriminant overflows"]),
    (kt_model(a2=1.0, a3=1e-160, b1=1e150, b2=1e-162), ["P1"],
     ["P2 omitted: residual not finite at (9.90032e+149, 9.99968e+159)"]),
], ids=["bell-P1", "bell-P2", "kt-P1", "kt-P2"])
def test_closed_equilibria_omit_a_point_whose_residual_is_not_finite(model, labels, notes):
    # the field overflows at that point alone: it is omitted with a note
    # and the other equilibrium is kept
    eqs, got = model_equilibria(model)
    assert [e.label for e in eqs] == labels and got == notes
    assert all(math.isfinite(e.residual) for e in eqs)


def test_bell_equilibria_default_params():
    p1, p2 = model_equilibria(bell_model())[0]
    assert abs(p1.point.x) < 1e-15
    assert abs(p1.point.y - BELL_P1[1]) < 1e-12
    assert abs(p2.point.x - BELL_P2[0]) < 1e-15
    assert abs(p2.point.y - BELL_P2[1]) < 1e-15
    assert p1.residual < 1e-12 and p2.residual < 1e-12


def test_bell_equilibria_degenerate():
    # b1 = a2*b2/a1 makes the P2 denominator vanish: P2 is omitted with a
    # note, and P1 = (0, b4/b3) still exists
    m = bell_model(a1=2.5, a2=1.0, b1=0.16, b2=0.4, b3=0.95, b4=2.0)
    (p1,), notes = model_equilibria(m)
    assert (p1.label, p1.point) == ("P1", State(0.0, 2.0 / 0.95))
    assert notes == ["P2 omitted: a1*b1 = a2*b2"]
    assert model_equilibria(m)[0] == [p1]


@pytest.mark.parametrize("params, labels, notes", [
    (dict(b4=3.0), ["P1"], ["P2 omitted: x2 = -0.297619 < 0"]),
    (dict(b4=-1.0), ["P2"], ["P1 omitted: y1 = -1.05263 < 0"]),
    (dict(a2=-1.0), ["P1"], ["P2 omitted: y2 = -2.5 < 0"]),
    (dict(b3=0.0), [], ["P1 omitted: b3 = 0", "P2 omitted: x2 = -0.952381 < 0"]),
    (dict(b4=0.0), ["P1", "P2"], []),
], ids=["x2<0", "y1<0", "y2<0", "b3=0", "on-the-axes"])
def test_bell_equilibria_omit_what_is_not_a_population(params, labels, notes):
    # an equilibrium exists and is a population, x, y >= 0, or is omitted
    # with a note, as kt's P2 is
    eqs, got = model_equilibria(bell_model(**params))
    assert [e.label for e in eqs] == labels and got == notes
    assert all(e.point.x >= 0 and e.point.y >= 0 and e.residual < 1e-12 for e in eqs)


def test_numeric_finder_recovers_kt():
    m = kt_model()
    found = find_equilibria_numeric(m, ((0.0, 50.0), (0.0, 50.0)), grid=8)
    analytic = model_equilibria(kt_model())[0]
    assert len(found) == len(analytic)
    for f, a in zip(found, sorted(analytic, key=lambda e: (e.point.x, e.point.y))):
        assert math.hypot(f.point.x - a.point.x, f.point.y - a.point.y) < 1e-8


def test_numeric_finder_recovers_bell():
    m = bell_model()
    found = find_equilibria_numeric(m, ((0.0, 10.0), (0.0, 10.0)), grid=8)
    analytic = sorted(model_equilibria(bell_model())[0], key=lambda e: (e.point.x, e.point.y))
    assert len(found) == 2
    for f, a in zip(found, analytic):
        assert math.hypot(f.point.x - a.point.x, f.point.y - a.point.y) < 1e-8


def test_numeric_finder_empty_box():
    assert find_equilibria_numeric(kt_model(), ((1.0, 1.0), (0.0, 2.0))) == []
    assert find_equilibria_numeric(kt_model(), ((0.0, 2.0), (0.0, 2.0)), grid=1) == []


def test_jacobian_kt_p1():
    j = jacobian(kt_model(), State(*KT_P1))
    assert abs(j.a11 - (-0.3747)) < 1e-12
    assert abs(j.a12 - 0.0037317961035495057) < 1e-12  # a3 * a1/a2
    assert abs(j.a21) < 1e-15
    assert abs(j.a22 - 1.3208145182812917) < 1e-12  # b1 - a1/a2


def test_jacobian_bell_p2():
    j = jacobian(bell_model(), State(*BELL_P2))
    assert abs(j.a11) < 1e-14
    assert abs(j.a12 - (-0.17857142857142858)) < 1e-14
    assert abs(j.a21 - 2.1) < 1e-14
    assert abs(j.a22 - (-0.7714285714285715)) < 1e-14


def _matrix(m):
    return np.reshape(astuple(m), (2, 2))


def _fd_jacobian(model, s):
    hx = 1e-6 * max(1.0, abs(s.x))
    hy = 1e-6 * max(1.0, abs(s.y))
    field = model.field
    fxp, fxm = field((s.x + hx, s.y)), field((s.x - hx, s.y))
    fyp, fym = field((s.x, s.y + hy)), field((s.x, s.y - hy))
    return np.array([[(fxp[0] - fxm[0]) / (2 * hx), (fyp[0] - fym[0]) / (2 * hy)],
                     [(fxp[1] - fxm[1]) / (2 * hx), (fyp[1] - fym[1]) / (2 * hy)]])


_PRESETS = [
    kt_model(),
    bell_model(),
    volterra_model(a=1.0, b=0.5, d=0.3, f=0.4, k=0.2),
    stepanova_model(a1=1.2, b=0.6, b1=0.8, b2=0.3, b4=1.1),
    vladar_model(K=10.0, b1=0.5, b2=0.2, b3=0.05),
    exponential_model(b1=0.7, b2=0.3, b3=0.1),
    logistic_model(a1=0.4, b1=0.9, b2=0.2, b3=0.06),
]


@pytest.mark.parametrize("model", _PRESETS)
def test_analytic_vs_fd_jacobian_random_states(model):
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = State(*rng.uniform(0.1, 5.0, 2))
        diff = np.abs(_matrix(jacobian(model, s)) - _fd_jacobian(model, s))
        assert diff.max() < 1e-5


def test_h_family_jacobian_matches_hand_derivation():
    # exact to rounding, which central differences (error ~1e-10) are not
    vol = volterra_model(a=1.0, b=0.5, d=0.3, f=0.4, k=0.2)
    vla = vladar_model(K=10.0, b1=0.5, b2=0.2, b3=0.05)
    rng = np.random.default_rng(13)
    for _ in range(10):
        x, y = rng.uniform(0.1, 5.0, 2)
        expect = [(vol, ((1.0 - 0.5 * y, -0.5 * x), (0.3 * y - 0.2, 0.3 * x - 0.4))),
                  (vla, ((math.log(10.0 / x) - 1.0 - y, -x),
                         ((0.5 - 0.1 * x) * y, 0.5 * x - 0.2 - 0.05 * x * x)))]
        for model, rows in expect:
            diff = np.abs(_matrix(jacobian(model, State(x, y))) - np.array(rows))
            assert diff.max() < 1e-12, model.name


def test_fd_jacobian_kt_p2():
    m = kt_model()
    s = State(*KT_P2)
    diff = np.abs(_matrix(jacobian(m, s)) - _fd_jacobian(m, s))
    assert diff.max() < 1e-5


def test_volterra_matches_direct_evaluation():
    rng = np.random.default_rng(11)
    a, b, d, f, k = rng.uniform(0.2, 2.0, 5)
    m = volterra_model(a, b, d, f, k)
    for _ in range(100):
        x, y = rng.uniform(-3.0, 3.0, 2)
        f1, f2 = m.field((x, y))
        assert abs(f1 - (a * x - b * x * y)) < 1e-12
        assert abs(f2 - (d * x * y - f * y - k * x)) < 1e-12


def test_vladar_domain_error_names_h1():
    m = vladar_model(K=10.0, b1=0.5, b2=0.2, b3=0.05)
    with pytest.raises(DomainError, match="h1"):
        m.field((-1.0, 1.0))
    with pytest.raises(DomainError, match="h1"):
        m.field((0.0, 1.0))
    f1, f2 = m.field((2.0, 1.0))
    assert math.isfinite(f1) and math.isfinite(f2)


def test_shape_function_non_finite_value_is_a_domain_error():
    # log(K/x) is finite for every finite K/x; K/x itself overflows to inf
    m = vladar_model(K=1e308, b1=0.5, b2=0.2, b3=0.05)
    with pytest.raises(DomainError, match="h1 evaluated non-finite at x=1e-10"):
        m.field((1e-10, 1.0))


def test_logistic_domain_error_at_zero():
    m = logistic_model(a1=0.5, b1=0.3, b2=0.2, b3=0.01)
    with pytest.raises(DomainError):
        m.field((0.0, 1.0))


@pytest.mark.parametrize("model", [
    kt_model(),
    bell_model(),
    volterra_model(0.5, 0.3, 0.4, 0.6, 0.2),
    vladar_model(K=8.0, b1=0.5, b2=0.2, b3=0.05),
    stepanova_model(a1=0.8, b=0.3, b1=0.5, b2=0.2, b4=1.0),
])
def test_diag_partials_match_finite_differences(model):
    field, jet = model.field, model.jet
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = State(*rng.uniform(0.5, 4.0, 2))
        df1, d2f1, df2, d2f2 = jet((s.x, s.y))[2:]
        h = 1e-5
        fp, fm = field((s.x + h, s.y)), field((s.x - h, s.y))
        f0 = field((s.x, s.y))
        gp, gm = field((s.x, s.y + h)), field((s.x, s.y - h))
        assert abs(df1 - (fp[0] - fm[0]) / (2 * h)) < 1e-5
        assert abs(d2f1 - (fp[0] - 2 * f0[0] + fm[0]) / h ** 2) < 1e-3
        assert abs(df2 - (gp[1] - gm[1]) / (2 * h)) < 1e-5
        assert abs(d2f2 - (gp[1] - 2 * f0[1] + gm[1]) / h ** 2) < 1e-3


@pytest.mark.parametrize("model", _PRESETS + [custom_model(
    lambda x, y: (x * (1.0 - x) - 0.5 * x * y, 0.3 * x * y - 0.2 * y))])
def test_jet_starts_with_the_field(model):
    field, jet = model.field, model.jet
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = tuple(rng.uniform(0.1, 5.0, 2).tolist())
        assert jet(s)[:2] == field(s)


def test_h_family_jet_evaluates_each_shape_function_once(monkeypatch):
    calls = []
    call = HFun.__call__
    monkeypatch.setattr(HFun, "__call__", lambda h, x: calls.append(h.name) or call(h, x))
    bell_model().jet((1.2, 2.6))
    assert sorted(calls) == ["h1", "h2", "h3", "h4", "h5"]


def test_custom_model_roundtrip():
    m = custom_model(lambda x, y: (y, -x), name="oscillator")
    assert m.field((2.0, 3.0)) == (3.0, -2.0)
    j = jacobian(m, State(1.0, 1.0))
    assert abs(j.a12 - 1.0) < 1e-8 and abs(j.a21 + 1.0) < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_custom_rhs_outside_its_domain_is_a_domain_error():
    # x ** 0.5 at x < 0 is complex and 1 / x at x = 0 raises
    # ZeroDivisionError: the Jacobian's stencil at x = 0 reaches the
    # first, the lattice starts at x = 0 the second.  Newton's iterate
    # stays a Python float, so a Newton step to x < 0 gives a complex
    # value, not numpy's nan and RuntimeWarning
    sqrt_rhs = lambda x, y: (x ** 0.5 - 1.0, y - x)
    with pytest.raises(DomainError):
        jacobian(custom_model(sqrt_rhs), State(0.0, 0.0))
    for rhs in (lambda x, y: (1.0 / x - 1.0, y - 1.0), sqrt_rhs):
        roots = find_equilibria_numeric(custom_model(rhs), ((0.0, 4.0), (0.0, 4.0)))
        assert len(roots) == 1
        assert math.hypot(roots[0].point.x - 1.0, roots[0].point.y - 1.0) < 1e-9
        assert type(roots[0].point.x) is float and type(roots[0].point.y) is float


def test_make_model_rejects_unknown():
    with pytest.raises(ValueError):
        make_model("nope")
    with pytest.raises(ValueError, match=r"model kt: unknown params \['zz'\]"):
        make_model("kt", {"zz": 1.0})
    with pytest.raises(ValueError, match=r"model volterra needs params \['b', 'd', 'f', 'k'\]"):
        make_model("volterra", {"a": 1.0})
    m = make_model("kt", {"a1": 0.2})
    assert m.params == kt_model(a1=0.2).params
    assert m.params["a1"] == 0.2 and m.params["a2"] == kt_model().params["a2"]


_SHIFT = lambda x, y: (1.0 - x, 2.0 - y)  # one root, (1, 2)


@pytest.mark.parametrize("name, params", [
    ("kt", None), ("kt", dict(a1=1, a2=1, a3=1, b1=1, b2=1)),
    ("bell", None), ("bell", dict(bell_model().params))])
def test_custom_model_named_like_a_preset_runs_its_own_rhs(name, params):
    # the name once chose the preset's field and closed-form equilibria,
    # and without the preset's params raised KeyError
    m = custom_model(_SHIFT, name=name, params=params)
    assert m.field((0.0, 0.0)) == (1.0, 2.0)
    f1, f2, df1, _, df2, _ = m.jet((0.0, 0.0))
    assert (f1, f2) == (1.0, 2.0)
    assert abs(df1 + 1.0) < 1e-8 and abs(df2 + 1.0) < 1e-8
    j = _matrix(jacobian(m, State(0.0, 0.0)))
    assert np.abs(j - np.array([[-1.0, 0.0], [0.0, -1.0]])).max() < 1e-8
    eqs, notes = model_equilibria(m)
    assert [e.label for e in eqs] == ["numeric"] and notes == []
    assert math.hypot(eqs[0].point.x - 1.0, eqs[0].point.y - 2.0) < 1e-9
    # the deterministic euler1 step contracts to the root by 1 - dt a step
    cfg = SimConfig(dt=0.01, steps=50, initial=State(0.0, 0.0), scheme="euler1", seed=1)
    x, y = simulate(m, None, cfg).states[-1]
    assert abs(x - (1.0 - 0.99 ** 50)) < 1e-12 and abs(y - 2.0 * (1.0 - 0.99 ** 50)) < 1e-12


@pytest.mark.parametrize("model, note", [
    (exponential_model(b1=0.7, b2=0.3, b3=0.1), "root omitted: x = -0.887482 < 0"),
    (stepanova_model(a1=1.2, b=0.6, b1=0.8, b2=0.3, b4=1.1),
     "root omitted: x = -0.575758 < 0"),
    (custom_model(lambda x, y: (1.0 - x, (y + 1.0) * (y - 2.0))), "root omitted: y = -1 < 0"),
])
def test_searched_roots_that_are_not_populations_are_omitted(model, note):
    # find_equilibria_numeric stays the raw search; the README's box is
    # (0, 50)^2 and a Newton path may leave it
    raw = find_equilibria_numeric(model, ((0.0, 50.0), (0.0, 50.0)), grid=8)
    eqs, notes = model_equilibria(model)
    assert eqs == [e for e in raw if e.point.x >= 0 and e.point.y >= 0]
    assert len(eqs) == len(raw) - 1 and eqs
    assert notes == [note]


def test_a_model_builds_its_closures_once(monkeypatch):
    built = [kt_model(), bell_model(), vladar_model(K=10.0, b1=0.5, b2=0.2, b3=0.05),
             custom_model(_SHIFT)]
    calls = []

    def counted(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    for name in ("_kt_fns", "_h_fns", "_custom_fns"):
        monkeypatch.setattr(models, name, counted(name, getattr(models, name)))
    for m in built:
        e = model_equilibria(m)[0][0]
        linearize(m, Mat2(0.5, -0.1, 0.1, 0.5), e)
        jacobian(m, e.point)
        find_equilibria_numeric(m, ((0.0, 5.0), (0.0, 5.0)), grid=3)
        simulate(m, None, SimConfig(dt=1e-3, steps=10, initial=e.point, scheme="euler2"))
    assert calls == []
    kt_model()  # the patch does count a build
    assert calls == ["_kt_fns"]
