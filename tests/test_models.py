"""Model presets, equilibria, Jacobians."""

import math

import numpy as np
import pytest

from tumorsde.models import (
    BELL_PARAMS,
    BellParams,
    DegenerateEquilibriumError,
    DomainError,
    KT_PARAMS,
    KTParams,
    Mat2,
    State,
    bell_equilibria,
    bell_model,
    custom_model,
    diag_partials,
    eval_vector_field,
    exponential_model,
    find_equilibria_numeric,
    jacobian,
    kt_equilibria,
    kt_model,
    logistic_model,
    make_model,
    residual_scale,
    stepanova_model,
    vladar_model,
    volterra_model,
)

# frozen from evaluating the equilibrium formulas with the default
# coefficients; confirmed by direct substitution (residual < 1e-15)
KT_P1 = (0.3151854817187083, 0.0)
KT_P2 = (1.5534604346698473, 25.2260285238853)
BELL_P1 = (0.0, 2.105263157894737)
BELL_P2 = (0.17857142857142858, 2.5)


def test_param_validation():
    with pytest.raises(ValueError):
        KTParams(a1=0.1, a2=-1.0, a3=0.01, b1=1.0, b2=0.1)
    with pytest.raises(ValueError):
        KTParams(a1=math.nan, a2=1.0, a3=0.01, b1=1.0, b2=0.1)
    with pytest.raises(ValueError):
        BellParams(a1=1.0, a2=0.0, b1=1.0, b2=0.1, b3=0.5, b4=1.0)
    with pytest.raises(ValueError):
        Mat2(1.0, math.inf, 0.0, 1.0)


def test_kt_field_values():
    m = kt_model()
    p1 = State(*KT_P1)
    f = eval_vector_field(m, p1)
    assert max(abs(f[0]), abs(f[1])) < 1e-14
    assert eval_vector_field(m, State(0.0, 0.0)) == (0.1181, 0.0)


def test_bell_field_value():
    m = bell_model()
    f1, f2 = eval_vector_field(m, State(1.0, 2.5))
    # f1 = 1*(2.5 - 1*2.5), f2 = (1*1 - 0.95)*2.5 - 0.4*1 + 2
    assert abs(f1) < 1e-14
    assert abs(f2 - 1.725) < 1e-12


def test_kt_equilibria_default_params():
    eqs = kt_equilibria(KT_PARAMS)
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
    p = KTParams(a1=1.0, a2=0.5, a3=0.01, b1=1.0, b2=0.1)
    assert p.b1 * p.a2 < p.a1
    eqs = kt_equilibria(p)
    assert [e.label for e in eqs] == ["P1"]


def test_bell_equilibria_default_params():
    p1, p2 = bell_equilibria(BELL_PARAMS)
    assert abs(p1.point.x) < 1e-15
    assert abs(p1.point.y - BELL_P1[1]) < 1e-12
    assert abs(p2.point.x - BELL_P2[0]) < 1e-15
    assert abs(p2.point.y - BELL_P2[1]) < 1e-15
    assert p1.residual < 1e-12 and p2.residual < 1e-12


def test_bell_equilibria_degenerate():
    # b1 = a2*b2/a1 makes the P2 denominator vanish
    p = BellParams(a1=2.5, a2=1.0, b1=0.16, b2=0.4, b3=0.95, b4=2.0)
    with pytest.raises(DegenerateEquilibriumError):
        bell_equilibria(p)


def test_numeric_finder_recovers_kt():
    m = kt_model()
    found = find_equilibria_numeric(m, ((0.0, 50.0), (0.0, 50.0)), grid=8)
    analytic = kt_equilibria(KT_PARAMS)
    assert len(found) == len(analytic)
    for f, a in zip(found, sorted(analytic, key=lambda e: (e.point.x, e.point.y))):
        assert math.hypot(f.point.x - a.point.x, f.point.y - a.point.y) < 1e-8


def test_numeric_finder_recovers_bell():
    m = bell_model()
    found = find_equilibria_numeric(m, ((0.0, 10.0), (0.0, 10.0)), grid=8)
    analytic = sorted(bell_equilibria(BELL_PARAMS), key=lambda e: (e.point.x, e.point.y))
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


def _fd_jacobian(model, s):
    hx = 1e-6 * max(1.0, abs(s.x))
    hy = 1e-6 * max(1.0, abs(s.y))
    fxp = eval_vector_field(model, State(s.x + hx, s.y))
    fxm = eval_vector_field(model, State(s.x - hx, s.y))
    fyp = eval_vector_field(model, State(s.x, s.y + hy))
    fym = eval_vector_field(model, State(s.x, s.y - hy))
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
        diff = np.abs(jacobian(model, s).as_array() - _fd_jacobian(model, s))
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
            diff = np.abs(jacobian(model, State(x, y)).as_array() - np.array(rows))
            assert diff.max() < 1e-12, model.name


def test_fd_jacobian_kt_p2():
    m = kt_model()
    s = State(*KT_P2)
    diff = np.abs(jacobian(m, s).as_array() - _fd_jacobian(m, s))
    assert diff.max() < 1e-5


def test_volterra_matches_direct_evaluation():
    rng = np.random.default_rng(11)
    a, b, d, f, k = rng.uniform(0.2, 2.0, 5)
    m = volterra_model(a, b, d, f, k)
    for _ in range(100):
        x, y = rng.uniform(-3.0, 3.0, 2)
        f1, f2 = eval_vector_field(m, State(x, y))
        assert abs(f1 - (a * x - b * x * y)) < 1e-12
        assert abs(f2 - (d * x * y - f * y - k * x)) < 1e-12


def test_vladar_domain_error_names_h1():
    m = vladar_model(K=10.0, b1=0.5, b2=0.2, b3=0.05)
    with pytest.raises(DomainError, match="h1"):
        eval_vector_field(m, State(-1.0, 1.0))
    with pytest.raises(DomainError, match="h1"):
        eval_vector_field(m, State(0.0, 1.0))
    f1, f2 = eval_vector_field(m, State(2.0, 1.0))
    assert math.isfinite(f1) and math.isfinite(f2)


def test_logistic_domain_error_at_zero():
    m = logistic_model(a1=0.5, b1=0.3, b2=0.2, b3=0.01)
    with pytest.raises(DomainError):
        eval_vector_field(m, State(0.0, 1.0))


@pytest.mark.parametrize("model", [
    kt_model(),
    bell_model(),
    volterra_model(0.5, 0.3, 0.4, 0.6, 0.2),
    vladar_model(K=8.0, b1=0.5, b2=0.2, b3=0.05),
    stepanova_model(a1=0.8, b=0.3, b1=0.5, b2=0.2, b4=1.0),
])
def test_diag_partials_match_finite_differences(model):
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = State(*rng.uniform(0.5, 4.0, 2))
        (df1, d2f1), (df2, d2f2) = diag_partials(model, s)
        h = 1e-5
        fp = eval_vector_field(model, State(s.x + h, s.y))
        fm = eval_vector_field(model, State(s.x - h, s.y))
        f0 = eval_vector_field(model, s)
        gp = eval_vector_field(model, State(s.x, s.y + h))
        gm = eval_vector_field(model, State(s.x, s.y - h))
        assert abs(df1 - (fp[0] - fm[0]) / (2 * h)) < 1e-5
        assert abs(d2f1 - (fp[0] - 2 * f0[0] + fm[0]) / h ** 2) < 1e-3
        assert abs(df2 - (gp[1] - gm[1]) / (2 * h)) < 1e-5
        assert abs(d2f2 - (gp[1] - 2 * f0[1] + gm[1]) / h ** 2) < 1e-3


def test_custom_model_roundtrip():
    m = custom_model(lambda x, y: (y, -x), name="oscillator")
    assert eval_vector_field(m, State(2.0, 3.0)) == (3.0, -2.0)
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
    with pytest.raises(ValueError):
        make_model("kt", {"zz": 1.0})
    with pytest.raises(ValueError):
        make_model("volterra", {"a": 1.0})  # missing coefficients
    m = make_model("kt", {"a1": 0.2})
    assert m.params["a1"] == 0.2 and m.params["a2"] == KT_PARAMS.a2
