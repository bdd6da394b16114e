"""Streams, Wiener increments, Euler schemes, trajectories."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from euler_ref import _check_finite, euler1_step, euler2_step
from tumorsde import integrate, lyapunov
from tumorsde.integrate import (
    BlowUpError,
    SimConfig,
    rng_stream,
    simulate,
    wiener_increments,
)
from tumorsde.models import DomainError, Mat2, State, bell_model, custom_model, \
    exponential_model, kt_model, logistic_model, model_equilibria, stepanova_model, \
    vladar_model, volterra_model
from tumorsde.sde import AffineDiffusion, LinearSDE, diffusion_at_equilibrium

KT_P2 = (1.5534604346698473, 25.2260285238853)


@pytest.mark.parametrize("n", [0, 1, 7, 64])
def test_wiener_increments_follow_the_formula_bit_for_bit(n):
    # Box-Muller of the uniforms 1 - U in (0, 1], cosine first, times
    # sqrt(dt): an odd count drops its last pair's sine
    dt = 0.04
    u = 1.0 - rng_stream(13, 2).random(2 * math.ceil(n / 2))
    assert u.size == 0 or (u.min() > 0.0 and u.max() <= 1.0)
    r, angle = np.sqrt(-2.0 * np.log(u[0::2])), 2.0 * np.pi * u[1::2]
    z = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1).ravel()[:n]
    assert np.array_equal(wiener_increments(rng_stream(13, 2), n, dt), math.sqrt(dt) * z)


def test_wiener_increments_moments():
    z = wiener_increments(rng_stream(2024, 0), 10 ** 6, 1.0)
    assert abs(z.mean()) <= 0.005
    assert abs(z.var() - 1.0) <= 0.01


def test_wiener_increments_count_edges():
    gen = rng_stream(5, 1)
    assert wiener_increments(gen, 0, 1.0).shape == (0,)
    assert wiener_increments(rng_stream(5, 1), np.int64(7), 1.0).shape == (7,)
    for steps in (-1, 2.5, 7.0, "7", None):
        with pytest.raises(ValueError, match="steps must be an integer >= 0"):
            wiener_increments(gen, steps, 1.0)


def test_stream_determinism_and_independence():
    a = wiener_increments(rng_stream(42, 3), 64, 1.0)
    b = wiener_increments(rng_stream(42, 3), 64, 1.0)
    c = wiener_increments(rng_stream(42, 4), 64, 1.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("first, stop, normals, nsteps",
                         [(0, 4, 12, 10), (0, 3, 15, 10), (5, 7, 2 ** 18, 9),
                          (0, 4, 4, 3), (2 ** 63 - 1, 2 ** 63 + 2, 3, 4)],
                         ids=["3-3-3-1", "5-5", "one-block", "1-1-1", "ones-past-2^63"])
def test_mc_draws_match_standard_normal_per_stream(monkeypatch, first, stop, normals,
                                                   nsteps):
    # phi is 4 pi (1 - the stream's first uniform); column p of the blocks
    # continues the stream's one standard_normal draw (the ziggurat, not
    # wiener_increments' Box-Muller) times sqrt(dt), for blocks of any
    # lengths, odd ones too: 12 normals over 4 paths are blocks of 3, 3, 3, 1
    monkeypatch.setattr(lyapunov, "_MC_BLOCK_NORMALS", normals)
    dt, ids = 0.01, range(first, stop)
    phi, blocks = lyapunov._mc_draws(nsteps, dt, 21, first, stop)
    drawn = [block.copy() for block in blocks]
    block = max(1, normals // len(ids))
    assert [len(b) for b in drawn] == [min(block, nsteps - lo) for lo in range(0, nsteps, block)]
    gens = [rng_stream(21, i) for i in ids]
    assert np.array_equal(phi, [4.0 * math.pi * (1.0 - gen.random()) for gen in gens])
    expect = np.stack([math.sqrt(dt) * gen.standard_normal(nsteps) for gen in gens], axis=1)
    assert np.array_equal(np.concatenate(drawn), expect)


def test_stream_keys_wrap_mod_2_64():
    # the key is (seed mod 2^64, stream mod 2^64)
    a = rng_stream(-1, 2 ** 64 + 3).random(4)
    assert np.array_equal(a, rng_stream(2 ** 64 - 1, 3).random(4))


def test_wiener_increment_scaling():
    inc = wiener_increments(rng_stream(7, 0), 10 ** 5, 0.01)
    assert abs(inc.var() / 0.01 - 1.0) < 0.05
    again = wiener_increments(rng_stream(7, 0), 10 ** 5, 0.01)
    assert np.array_equal(inc, again)


def test_wiener_path_second_moment():
    # <W(T)^2> ~ T across paths
    T, dt = 1.0, 0.01
    steps = int(T / dt)
    finals = np.array([wiener_increments(rng_stream(11, p), steps, dt).sum()
                       for p in range(1000)])
    assert abs(np.mean(finals ** 2) - T) < 0.15


def _gbm_fns(a, sigma):
    drift = lambda s: (a * s[0], a * s[1])
    diff = lambda s: (sigma * s[0], sigma * s[1])
    dpart = lambda s: ((a, 0.0), (a, 0.0))
    gpart = lambda s: ((sigma, 0.0), (sigma, 0.0))
    return drift, diff, dpart, gpart


def test_euler1_identity_and_formula():
    zero = lambda s: (0.0, 0.0)
    assert euler1_step(zero, zero, (1.5, -2.0), 0.1, 0.3, 0.3) == (1.5, -2.0)
    drift, diff, _, _ = _gbm_fns(1.0, 0.5)
    x, _ = euler1_step(drift, diff, (1.0, 1.0), 0.01, 0.1, 0.1)
    assert abs(x - 1.06) < 1e-15


def test_euler1_kt_drift_step():
    drift = kt_model().field
    zero = lambda s: (0.0, 0.0)
    x, y = euler1_step(drift, zero, (0.0, 0.0), 0.1, 0.0, 0.0)
    assert abs(x - 0.01181) < 1e-15 and y == 0.0


def test_euler1_blowup_signal():
    bad = lambda s: (math.inf, 0.0)
    zero = lambda s: (0.0, 0.0)
    with pytest.raises(BlowUpError) as err:
        euler1_step(bad, zero, (1.0, 1.0), 0.1, 0.0, 0.0)
    assert err.value.component == 1


@pytest.mark.parametrize("x, y, component", [
    (math.nan, 1.0, 1), (1.0, math.inf, 2), (math.inf, math.nan, 1),
    (np.array([1.0, math.inf]), np.zeros(2), 1), (np.zeros(2), np.array([math.nan, 1.0]), 2)])
def test_check_finite_names_the_first_bad_component(x, y, component):
    _check_finite(np.zeros(2), 1.0)
    with pytest.raises(BlowUpError) as err:
        _check_finite(x, y)
    assert err.value.component == component


def test_euler2_deterministic_taylor():
    # g = 0 reduces to x + f h + f f' h^2/2 per component
    drift, _, dpart, _ = _gbm_fns(0.7, 0.0)
    zero = lambda s: (0.0, 0.0)
    zpart = lambda s: ((0.0, 0.0), (0.0, 0.0))
    x, y = euler2_step(drift, zero, dpart, zpart, (2.0, 3.0), 0.05, 0.0, 0.0)
    exp_x = 2.0 + 0.7 * 2.0 * 0.05 + (0.7 * 2.0 * 0.7) * 0.05 ** 2 / 2
    exp_y = 3.0 + 0.7 * 3.0 * 0.05 + (0.7 * 3.0 * 0.7) * 0.05 ** 2 / 2
    assert abs(x - exp_x) < 1e-15 and abs(y - exp_y) < 1e-15


def test_euler2_constant_coefficients_reduce_to_euler1():
    drift = lambda s: (0.4, -0.3)
    diff = lambda s: (1.1, 0.2)
    zpart = lambda s: ((0.0, 0.0), (0.0, 0.0))
    s, dt, g = (0.5, 0.8), 0.02, 0.37
    assert euler2_step(drift, diff, zpart, zpart, s, dt, g, g) == \
        euler1_step(drift, diff, s, dt, g, g)


def test_euler2_gbm_hand_value():
    # every printed term evaluated by hand for f=x, g=0.5x at x=1,
    # h=0.01, G=0.1: 1 + 0.01 + 0.05 + 0 + 0.00005 + 0.0005 = 1.06055
    drift, diff, dpart, gpart = _gbm_fns(1.0, 0.5)
    x, _ = euler2_step(drift, diff, dpart, gpart, (1.0, 1.0), 0.01, 0.1, 0.1)
    assert abs(x - 1.06055) < 1e-12


def test_scheme_one_step_divergence_is_order_dt():
    # euler2 - euler1 over one step is dominated by the Milstein term,
    # which scales like dt when the same normal draw is used
    drift, diff, dpart, gpart = _gbm_fns(1.0, 0.5)
    z = 1.7  # fixed standard normal draw
    diffs = []
    for dt in (0.02, 0.01):
        g = z * math.sqrt(dt)
        x1, _ = euler1_step(drift, diff, (1.0, 1.0), dt, g, g)
        x2, _ = euler2_step(drift, diff, dpart, gpart, (1.0, 1.0), dt, g, g)
        diffs.append(abs(x2 - x1))
    ratio = diffs[0] / diffs[1]
    assert 1.4 < ratio < 2.8


def test_simulate_kt_ode_contracts_to_p2():
    m = kt_model()
    cfg = SimConfig(dt=0.01, steps=50_000, initial=State(1.6, 25.0))
    traj = simulate(m, None, cfg)
    assert traj.blowup_index is None
    target = np.array(KT_P2)
    final = traj.states[-1]
    assert np.linalg.norm(final - target) < 1e-2
    # window-wise contraction of the distance to P2
    dist = np.linalg.norm(traj.states - target, axis=1)
    windows = [dist[i:i + 10_000].max() for i in range(0, 50_000, 10_000)]
    assert all(a > b for a, b in zip(windows, windows[1:]))


def test_simulate_kt_saddle_escape():
    m = kt_model()
    p1 = model_equilibria(kt_model())[0][0]
    cfg = SimConfig(dt=0.01, steps=2_000, initial=State(p1.point.x, 1e-4))
    traj = simulate(m, None, cfg)
    y = traj.states[:, 1]
    assert y[200] > y[0] and y[2000] > y[200]


def test_simulate_bit_identical_reruns():
    m = kt_model()
    e = model_equilibria(kt_model())[0][1]
    d = diffusion_at_equilibrium(Mat2(1.0, -0.2, 0.2, 1.0), e)
    # start off the anchor so the noise is active
    start = State(e.point.x + 0.1, e.point.y - 0.5)
    cfg = SimConfig(dt=0.001, steps=2_000, initial=start, seed=99)
    t1 = simulate(m, d, cfg)
    t2 = simulate(m, d, cfg)
    assert np.array_equal(t1.states, t2.states)
    t3 = simulate(m, d, SimConfig(dt=0.001, steps=2_000, initial=start, seed=100))
    assert not np.array_equal(t1.states, t3.states)


def test_simulate_blowup_truncates():
    m = custom_model(lambda x, y: (x * x * 1e4, 0.0))
    cfg = SimConfig(dt=1.0, steps=50, initial=State(2.0, 0.0))
    with np.errstate(over="ignore"):
        traj = simulate(m, None, cfg)
    assert traj.blowup_index is not None
    assert len(traj.states) == traj.blowup_index
    assert np.isfinite(traj.states).all()


@pytest.mark.parametrize("drift", [(1e308, 0.0), (0.0, 1e308)], ids=["x", "y"])
def test_simulate_euler1_step_that_overflows_is_a_blowup(drift):
    # the field is finite, the step's sum 1e308 + 1e308 is not: the step
    # itself, not the field, ends the trajectory at step 1
    m = custom_model(lambda x, y: drift)
    cfg = SimConfig(dt=1.0, steps=5, initial=State(1e308, 1e308), scheme="euler1")
    traj = _assert_simulate_matches_float64_loop(m, None, cfg)
    assert traj.blowup_index == 1 and len(traj.states) == 1


@pytest.mark.parametrize("shift", [0, 1, 5])
def test_state_chunks_end_with_the_blowup_index(monkeypatch, shift):
    # x advances by exactly 1 per step until the drift at x = k is
    # infinite, so the step from state k blows up: blow-up index k + 1,
    # which is the number of states; shift 0 puts it on a chunk's first
    # step, which leaves that chunk empty, the others mid-chunk
    size = 8
    monkeypatch.setattr(integrate, "_SIM_CHUNK", size)
    k = 3 * size + shift
    m = custom_model(lambda x, y: (1.0 if x < k else math.inf, 0.0))
    cfg = SimConfig(dt=1.0, steps=10 * size, initial=State(0.0, 0.0))
    chunks = list(integrate._state_chunks(m, None, cfg))
    assert [states.shape for states in chunks] == \
        [(size + 1, 2), (size, 2), (size, 2), (shift, 2)]
    assert sum(map(len, chunks)) == k + 1 <= cfg.steps
    traj = simulate(m, None, cfg)
    assert traj.blowup_index == k + 1
    assert np.array_equal(np.concatenate(chunks), traj.states)
    assert np.array_equal(traj.states[:, 0], np.arange(k + 1))


def _python_calls(fn) -> int:
    """The Python-level calls that fn() makes: sys.setprofile "call"
    events, a generator's resumptions included."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    old = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(old)
    return calls


@pytest.mark.parametrize("scheme", ["euler1", "euler2"])
def test_a_scalar_step_is_two_python_calls(scheme):
    # the step and the model's field (with its partials for euler2); the
    # short run has as many chunks as the long one, so the two differ
    # only in the calls of the long run's extra steps
    m = kt_model()
    d = diffusion_at_equilibrium(Mat2(1.0, -0.2, 0.2, 1.0), model_equilibria(kt_model())[0][1])
    chunk = integrate._SIM_CHUNK
    long_steps = 2000
    short_steps = chunk * ((long_steps - 1) // chunk) + 1
    calls = {}
    for steps in (long_steps, long_steps, short_steps):  # the first warms up
        cfg = SimConfig(dt=1e-3, steps=steps, initial=State(1.6, 25.0),
                        scheme=scheme, seed=3)
        calls[steps] = _python_calls(lambda: list(integrate._state_chunks(m, d, cfg)))
    assert simulate(m, d, cfg).blowup_index is None
    assert calls[long_steps] - calls[short_steps] <= 2 * (long_steps - short_steps)


def test_bell_euler2_calls_field_and_partials_once_per_step():
    seen = {"field": [], "jet": []}
    m = bell_model()
    counted = replace(m, field=lambda s: seen["field"].append(s) or m.field(s),
                      jet=lambda s: seen["jet"].append(s) or m.jet(s))
    e = model_equilibria(m)[0][1]
    d = diffusion_at_equilibrium(Mat2(0.5, -0.1, 0.1, 0.5), e)
    cfg = SimConfig(dt=0.01, steps=2_000, initial=State(1.2, 2.6), scheme="euler2", seed=4)
    traj = simulate(counted, d, cfg)
    assert traj.blowup_index is None
    # once from each state but the last, and the field alone never
    assert seen["jet"] == [tuple(s) for s in traj.states[:-1].tolist()]
    assert seen["field"] == []


def test_state_chunks_hold_every_state_once(monkeypatch):
    monkeypatch.setattr(integrate, "_SIM_CHUNK", 6)
    m = kt_model()
    cfg = SimConfig(dt=1e-3, steps=20, initial=State(*KT_P2), scheme="euler2", seed=4)
    d = diffusion_at_equilibrium(Mat2(1.0, -0.2, 0.2, 1.0), model_equilibria(kt_model())[0][1])
    chunks = list(integrate._state_chunks(m, d, cfg))
    # steps + 1 states: no blow-up
    assert [states.shape for states in chunks] == [(7, 2), (6, 2), (6, 2), (2, 2)]
    traj = simulate(m, d, cfg)
    assert traj.blowup_index is None
    assert np.array_equal(np.concatenate(chunks), traj.states)
    assert np.array_equal(traj.times, 1e-3 * np.arange(21))


def _reference_fns(system, diffusion):
    """(drift, g, drift_partials, g_partials) of a run from the public
    evaluators: a model's field and the partials of its jet, the matrix
    entries for a LinearSDE and the affine formula b s + c for an
    AffineDiffusion."""
    if isinstance(system, LinearSDE):
        a = system.A
        drift = lambda s: (a.a11 * s[0] + a.a12 * s[1], a.a21 * s[0] + a.a22 * s[1])
        dpart = lambda s: ((a.a11, 0.0), (a.a22, 0.0))
    else:
        drift, jet = system.field, system.jet
        dpart = lambda s: (jet(s)[2:4], jet(s)[4:])
    if diffusion is not None:
        b, c1, c2 = diffusion.b, diffusion.c1, diffusion.c2
        g = lambda s: (b.a11 * s[0] + b.a12 * s[1] + c1, b.a21 * s[0] + b.a22 * s[1] + c2)
    elif isinstance(system, LinearSDE):
        b = system.B
        g = lambda s: (b.a11 * s[0] + b.a12 * s[1], b.a21 * s[0] + b.a22 * s[1])
    else:
        g = lambda s: (0.0, 0.0)
        return drift, g, dpart, lambda s: ((0.0, 0.0), (0.0, 0.0))
    return drift, g, dpart, lambda s: ((b.a11, 0.0), (b.a22, 0.0))


def _float64_loop(system, diffusion, cfg):
    """The trajectory loop that simulate replaced, on np.float64 scalars
    read from and stored into the state array: a reference for the
    loop on Python floats.  Returns (states, blowup_index)."""
    drift, g, dpart, gpart = _reference_fns(system, diffusion)
    if cfg.noise_streams == "shared":
        inc1 = inc2 = wiener_increments(rng_stream(cfg.seed), cfg.steps, cfg.dt)
    else:
        inc1 = wiener_increments(rng_stream(cfg.seed, 1), cfg.steps, cfg.dt)
        inc2 = wiener_increments(rng_stream(cfg.seed, 2), cfg.steps, cfg.dt)
    states = np.empty((cfg.steps + 1, 2))
    states[0] = (cfg.initial.x, cfg.initial.y)
    for n in range(cfg.steps):
        s = (states[n, 0], states[n, 1])
        try:
            if cfg.scheme == "euler1":
                x, y = euler1_step(drift, g, s, cfg.dt, inc1[n], inc2[n])
            else:
                x, y = euler2_step(drift, g, dpart, gpart, s, cfg.dt,
                                   inc1[n], inc2[n])
        except (BlowUpError, DomainError, OverflowError):
            return states[:n + 1], n + 1
        states[n + 1] = (x, y)
    return states, None


def _assert_simulate_matches_float64_loop(system, diffusion, cfg):
    traj = simulate(system, diffusion, cfg)
    with np.errstate(all="ignore"):
        states, blowup = _float64_loop(system, diffusion, cfg)
    assert traj.blowup_index == blowup
    assert np.array_equal(traj.states, states)
    return traj


def _noise(b11, b12, b21, b22):
    return AffineDiffusion(Mat2(b11, b12, b21, b22), 0.0, 0.0)


# (system, diffusion, initial state, dt) for every kind of drift simulate
# builds: the kt preset, the six h-family presets, a custom right-hand
# side and a LinearSDE with its own noise; "c5" is the diagonal system
# whose weak order criterion 5 certifies on euler_ref's schemes
_PARITY_SYSTEMS = {
    "kt": (kt_model(), diffusion_at_equilibrium(
        Mat2(1.0, -0.2, 0.2, 1.0), model_equilibria(kt_model())[0][1]), (1.6, 25.0), 1e-3),
    "bell": (bell_model(), diffusion_at_equilibrium(
        Mat2(0.5, -0.1, 0.1, 0.5), model_equilibria(bell_model())[0][1]), (1.2, 2.6), 1e-2),
    "volterra": (volterra_model(a=1.0, b=0.5, d=0.3, f=0.4, k=0.2),
                 _noise(0.2, 0.0, 0.0, 0.2), (1.0, 1.0), 1e-2),
    "stepanova": (stepanova_model(a1=1.2, b=0.6, b1=0.8, b2=0.3, b4=1.1),
                  _noise(0.2, -0.1, 0.1, 0.2), (1.0, 1.0), 1e-2),
    "vladar": (vladar_model(K=10.0, b1=0.5, b2=0.2, b3=0.05),
               _noise(0.3, 0.0, 0.0, 0.3), (2.0, 1.0), 1e-2),
    "exponential": (exponential_model(b1=0.7, b2=0.3, b3=0.1),
                    _noise(0.2, 0.0, 0.0, 0.2), (1.0, 1.0), 1e-2),
    "logistic": (logistic_model(a1=0.4, b1=0.9, b2=0.2, b3=0.06),
                 _noise(0.2, 0.0, 0.0, 0.2), (1.0, 1.0), 1e-2),
    "custom": (custom_model(lambda x, y: (x * (1.0 - x) - 0.5 * x * y,
                                          0.3 * x * y - 0.2 * y)),
               _noise(0.3, 0.0, 0.1, 0.3), (1.0, 1.0), 1e-2),
    "linear": (LinearSDE(Mat2(-0.5, 1.0, -1.0, -0.2), Mat2(0.4, -0.3, 0.3, 0.4)),
               None, (1.0, -1.0), 1e-2),
    "c5": (LinearSDE(Mat2(0.05, 0.0, 0.0, 0.05), Mat2(0.2, 0.0, 0.0, 0.2)),
           None, (1.0, 1.0), 1e-2),
}


@pytest.mark.parametrize("streams", ["shared", "independent"])
@pytest.mark.parametrize("scheme", ["euler1", "euler2"])
@pytest.mark.parametrize("name", list(_PARITY_SYSTEMS))
def test_simulate_matches_float64_loop(name, scheme, streams):
    system, diffusion, (x0, y0), dt = _PARITY_SYSTEMS[name]
    cfg = SimConfig(dt=dt, steps=integrate._SIM_CHUNK + 500, initial=State(x0, y0),
                    scheme=scheme, noise_streams=streams, seed=13)
    _assert_simulate_matches_float64_loop(system, diffusion, cfg)


def test_simulate_matches_float64_loop_kt_euler2():
    e = model_equilibria(kt_model())[0][1]
    d = diffusion_at_equilibrium(Mat2(1.0, -0.2, 0.2, 1.0), e)
    cfg = SimConfig(dt=1e-3, steps=10_000, initial=State(1.6, 25.0),
                    scheme="euler2", seed=3)
    assert cfg.steps > 2 * integrate._SIM_CHUNK  # several chunks of steps
    traj = _assert_simulate_matches_float64_loop(kt_model(), d, cfg)
    assert traj.blowup_index is None


def test_simulate_matches_float64_loop_bell_euler1():
    e = model_equilibria(bell_model())[0][1]
    d = diffusion_at_equilibrium(Mat2(0.5, -0.1, 0.1, 0.5), e)
    cfg = SimConfig(dt=0.01, steps=5_000, initial=State(e.point.x + 0.1, e.point.y),
                    scheme="euler1", seed=4)
    _assert_simulate_matches_float64_loop(bell_model(), d, cfg)


def test_simulate_matches_float64_loop_at_blowup():
    # KT with independent streams leaves the domain at step 2926
    e = model_equilibria(kt_model())[0][1]
    d = diffusion_at_equilibrium(Mat2(1.0, -0.2, 0.2, 1.0), e)
    cfg = SimConfig(dt=1e-3, steps=3_000, initial=State(1.6, 25.0),
                    noise_streams="independent", seed=7)
    traj = _assert_simulate_matches_float64_loop(kt_model(), d, cfg)
    assert traj.blowup_index == 2926


def test_simulate_matches_float64_loop_vladar_leaves_domain():
    # step 37 takes x below 0, where step 38 cannot evaluate h1 = log(K/x)
    m = vladar_model(K=10.0, b1=0.5, b2=0.2, b3=0.05)
    cfg = SimConfig(dt=0.05, steps=2_000, initial=State(0.3, 1.0),
                    noise_streams="independent", seed=1)
    traj = _assert_simulate_matches_float64_loop(m, _noise(3.0, 0.0, 0.0, 0.3), cfg)
    assert traj.blowup_index == 38 and len(traj.states) == 38
    assert traj.states[-2, 0] > 0.0 > traj.states[-1, 0]
    with pytest.raises(DomainError, match="h1"):
        m.field(tuple(traj.states[-1].tolist()))


@pytest.mark.parametrize("scheme", ["euler1", "euler2"])
@pytest.mark.parametrize("rhs, x0", [(lambda x, y: (1.0 / x, 0.0), 0.0),
                                     (lambda x, y: (x ** 0.5, 0.0), -1.0),
                                     (lambda x, y: (math.sqrt(x), 0.0), -1.0)],
                         ids=["reciprocal", "sqrt", "math_sqrt"])
def test_simulate_undefined_rhs_is_a_blowup(rhs, x0, scheme):
    # on a Python float 1/x at x = 0 raises ZeroDivisionError, x ** 0.5 at
    # x < 0 is complex (an np.float64 gave inf and nan) and math.sqrt at
    # x < 0 raises ValueError; each ends the trajectory at step 1
    cfg = SimConfig(dt=0.1, steps=5, initial=State(x0, 1.0), scheme=scheme)
    traj = _assert_simulate_matches_float64_loop(custom_model(rhs), None, cfg)
    assert traj.blowup_index == 1 and len(traj.states) == 1


@pytest.mark.parametrize("streams", ["shared", "independent"])
@pytest.mark.parametrize("seed", [3, 11])
def test_euler2_stencil_outside_rhs_domain_is_a_blowup(seed, streams):
    # x ** 0.5 near x = 0: the partials' stencil reaches x < 0, where the
    # rhs is complex, before the state itself does
    m = custom_model(lambda x, y: (-x ** 0.5, 0.1 * y))
    cfg = SimConfig(dt=0.01, steps=3_000, initial=State(0.5, 1.0), scheme="euler2",
                    noise_streams=streams, seed=seed)
    traj = simulate(m, _noise(0.5, 0.0, 0.0, 0.5), cfg)
    assert traj.blowup_index is not None
    assert len(traj.states) == traj.blowup_index
    assert np.isfinite(traj.states).all()


def test_shared_vs_independent_streams():
    sys_lin = LinearSDE(Mat2(0.0, 0.0, 0.0, 0.0), Mat2(1.0, 0.0, 0.0, 1.0))
    base = dict(dt=0.01, steps=100, initial=State(1.0, 1.0), seed=5)
    shared = simulate(sys_lin, None, SimConfig(**base, noise_streams="shared"))
    indep = simulate(sys_lin, None, SimConfig(**base, noise_streams="independent"))
    # with shared increments both components of dX = X dW move in lockstep
    assert np.allclose(shared.states[:, 0], shared.states[:, 1])
    assert not np.allclose(indep.states[:, 0], indep.states[:, 1])
    # each component steps x(n+1) = x(n) (1 + dW(n)) with the increments of
    # its own stream of the seed: 0 for shared noise, 1 and 2 for independent
    for traj, ids in ((shared, (0, 0)), (indep, (1, 2))):
        for i, stream_id in enumerate(ids):
            dw = wiener_increments(rng_stream(5, stream_id), 100, 0.01)
            np.testing.assert_allclose(traj.states[1:, i],
                                       traj.states[:-1, i] * (1.0 + dw), rtol=1e-13)


def _path_ends(system, paths, **cfg):
    """x(T) of paths simulate runs from (1, 1), run p with seed p + 1."""
    return np.array([simulate(system, None, SimConfig(
        initial=State(1.0, 1.0), seed=p + 1, **cfg)).states[-1, 0] for p in range(paths)])


def test_ensemble_gbm_moments():
    # an ensemble of independent paths, one seed per path
    a, sigma, T, dt = 0.05, 0.2, 1.0, 0.01
    sys_lin = LinearSDE(Mat2(a, 0.0, 0.0, a), Mat2(sigma, 0.0, 0.0, sigma))
    xT = _path_ends(sys_lin, 10_000, dt=dt, steps=int(T / dt))
    se = xT.std(ddof=1) / math.sqrt(len(xT))
    assert abs(xT.mean() - math.exp(a * T)) < 3 * se
    m2 = xT ** 2
    se2 = m2.std(ddof=1) / math.sqrt(len(m2))
    assert abs(m2.mean() - math.exp((2 * a + sigma ** 2) * T)) < 3 * se2


def test_scheme_mean_recursion_on_gbm():
    """The schemes' exact per-step means on dx = a x dt + sigma x dW are
    m -> m (1 + a h)             (first order)
    m -> m (1 + a h + a^2 h^2/2) (second order)
    so the deterministic weak biases against e^{aT} decay with fitted
    order 1 and 2; the simulated ensemble mean must sit on the
    recursion within Monte Carlo error."""
    a, sigma, T = 0.05, 0.2, 1.0
    dts = [0.1, 0.05, 0.025]
    for scheme, orders in (("euler1", 1.0), ("euler2", 2.0)):
        biases = []
        for dt in dts:
            n = int(round(T / dt))
            per_step = 1 + a * dt + (a * dt) ** 2 / 2 * (scheme == "euler2")
            biases.append(abs(math.exp(a * T) - per_step ** n))
        fit = np.polyfit(np.log(dts), np.log(biases), 1)[0]
        assert fit > orders - 0.1
    # tie the implementation to the recursion at one (scheme, dt)
    dt, steps, paths = 0.05, 20, 4000
    sys_lin = LinearSDE(Mat2(a, 0.0, 0.0, a), Mat2(sigma, 0.0, 0.0, sigma))
    xT = _path_ends(sys_lin, paths, dt=dt, steps=steps, scheme="euler2")
    per_step = 1 + a * dt + (a * dt) ** 2 / 2
    predicted = per_step ** steps
    se = xT.std(ddof=1) / math.sqrt(paths)
    assert abs(xT.mean() - predicted) < 3 * se


def test_simconfig_validation():
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(dt=dt, steps=10, initial=State(1.0, 1.0))
        with pytest.raises(ValueError, match="dt"):
            wiener_increments(rng_stream(1), 10, dt)
    for steps in (0, -3, 2.5, 10.0):
        with pytest.raises(ValueError, match="steps"):
            SimConfig(dt=0.1, steps=steps, initial=State(0, 0))
    assert SimConfig(dt=0.1, steps=np.int64(3), initial=State(0, 0)).steps == 3
    with pytest.raises(ValueError, match="unknown scheme 'rk4'"):
        SimConfig(dt=0.1, steps=10, initial=State(0, 0), scheme="rk4")
    with pytest.raises(ValueError, match="unknown noise_streams 'split'"):
        SimConfig(dt=0.1, steps=10, initial=State(0, 0), noise_streams="split")
