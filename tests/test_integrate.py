"""Streams, Box-Muller sampling, Euler schemes, trajectories, ensembles."""

import math

import numpy as np
import pytest

from tumorsde import integrate
from tumorsde.integrate import (
    BlowUpError,
    GaussianBlocks,
    RngStream,
    SimConfig,
    box_muller,
    ensemble_stats,
    euler1_step,
    euler2_step,
    gaussian_pairs,
    simulate,
    wiener_increments,
)
from tumorsde.models import BELL_PARAMS, KT_PARAMS, DomainError, Mat2, State, \
    bell_equilibria, bell_model, custom_model, diag_partials, eval_vector_field, \
    exponential_model, kt_equilibria, kt_model, logistic_model, stepanova_model, \
    vladar_model, volterra_model
from tumorsde.sde import AffineDiffusion, LinearSDE, diffusion_at_equilibrium

KT_P2 = (1.5534604346698473, 25.2260285238853)


def test_box_muller_exact_pairs():
    z1, z2 = box_muller(math.exp(-2.0), 0.25)
    assert abs(z1) < 1e-12  # sqrt(4) * cos(pi/2)
    assert abs(z2 - 2.0) < 1e-12
    z1, z2 = box_muller(1.0, 0.7)
    assert z1 == 0.0 and z2 == 0.0


def test_gaussian_pairs_moments():
    z = gaussian_pairs(RngStream(2024, 0), 10 ** 6)
    assert abs(z.mean()) <= 0.005
    assert abs(z.var() - 1.0) <= 0.01


def test_gaussian_pairs_count_edges():
    s = RngStream(5, 1)
    assert gaussian_pairs(s, 0).shape == (0,)
    assert gaussian_pairs(RngStream(5, 1), 7).shape == (7,)
    with pytest.raises(ValueError):
        gaussian_pairs(s, -1)


def test_stream_determinism_and_independence():
    a = gaussian_pairs(RngStream(42, 3), 64)
    b = gaussian_pairs(RngStream(42, 3), 64)
    c = gaussian_pairs(RngStream(42, 4), 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_in_half_open_unit():
    u = RngStream(9, 0).uniforms(10 ** 5)
    assert u.min() > 0.0 and u.max() <= 1.0


@pytest.mark.parametrize("size, counts", [(8, (8, 6)), (8, (7,)), (1, (1,)), (5, (2, 5, 4))])
def test_gaussian_blocks_match_gaussian_pairs_per_stream(size, counts):
    # column p of each block is the stream's gaussian_pairs draw, and
    # even blocks leave every stream where gaussian_pairs would
    ids = (0, 3, 4, 2 ** 63 + 1)
    blocks = GaussianBlocks([RngStream(21, i) for i in ids], size)
    own_streams = [RngStream(21, i) for i in ids]
    for count in counts:
        block = blocks.draw(count)
        assert block.shape == (count, len(ids))
        expect = np.stack([gaussian_pairs(st, count) for st in own_streams], axis=1)
        assert np.array_equal(block, expect)


def test_wiener_increment_scaling():
    inc = wiener_increments(RngStream(7, 0), 10 ** 5, 0.01)
    assert abs(inc.var() / 0.01 - 1.0) < 0.05
    again = wiener_increments(RngStream(7, 0), 10 ** 5, 0.01)
    assert np.array_equal(inc, again)


def test_wiener_path_second_moment():
    # <W(T)^2> ~ T across paths
    T, dt = 1.0, 0.01
    steps = int(T / dt)
    finals = np.array([wiener_increments(RngStream(11, p), steps, dt).sum()
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
    m = kt_model()
    from tumorsde.models import eval_vector_field
    drift = lambda s: eval_vector_field(m, State(s[0], s[1]))
    zero = lambda s: (0.0, 0.0)
    x, y = euler1_step(drift, zero, (0.0, 0.0), 0.1, 0.0, 0.0)
    assert abs(x - 0.01181) < 1e-15 and y == 0.0


def test_euler1_blowup_signal():
    bad = lambda s: (math.inf, 0.0)
    zero = lambda s: (0.0, 0.0)
    with pytest.raises(BlowUpError) as err:
        euler1_step(bad, zero, (1.0, 1.0), 0.1, 0.0, 0.0)
    assert err.value.component == 1


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
    p1 = kt_equilibria(KT_PARAMS)[0]
    cfg = SimConfig(dt=0.01, steps=2_000, initial=State(p1.point.x, 1e-4))
    traj = simulate(m, None, cfg)
    y = traj.states[:, 1]
    assert y[200] > y[0] and y[2000] > y[200]


def test_simulate_bit_identical_reruns():
    m = kt_model()
    e = kt_equilibria(KT_PARAMS)[1]
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


def _reference_fns(system, diffusion):
    """(drift, g, drift_partials, g_partials) of a run from the public
    evaluators: eval_vector_field and diag_partials on a State for a
    model, the matrix entries for a LinearSDE and the affine formula
    b s + c for an AffineDiffusion."""
    if isinstance(system, LinearSDE):
        a = system.A
        drift = lambda s: (a.a11 * s[0] + a.a12 * s[1], a.a21 * s[0] + a.a22 * s[1])
        dpart = lambda s: ((a.a11, 0.0), (a.a22, 0.0))
    else:
        drift = lambda s: eval_vector_field(system, State(s[0], s[1]))
        dpart = lambda s: diag_partials(system, State(s[0], s[1]))
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
    stream = RngStream(cfg.seed, cfg.stream)
    if cfg.noise_streams == "shared":
        inc1 = inc2 = wiener_increments(stream, cfg.steps, cfg.dt)
    else:
        inc1 = wiener_increments(stream.substream(0), cfg.steps, cfg.dt)
        inc2 = wiener_increments(stream.substream(1), cfg.steps, cfg.dt)
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
# side and a LinearSDE with its own noise
_PARITY_SYSTEMS = {
    "kt": (kt_model(), diffusion_at_equilibrium(
        Mat2(1.0, -0.2, 0.2, 1.0), kt_equilibria(KT_PARAMS)[1]), (1.6, 25.0), 1e-3),
    "bell": (bell_model(), diffusion_at_equilibrium(
        Mat2(0.5, -0.1, 0.1, 0.5), bell_equilibria(BELL_PARAMS)[1]), (1.2, 2.6), 1e-2),
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
    e = kt_equilibria(KT_PARAMS)[1]
    d = diffusion_at_equilibrium(Mat2(1.0, -0.2, 0.2, 1.0), e)
    cfg = SimConfig(dt=1e-3, steps=10_000, initial=State(1.6, 25.0),
                    scheme="euler2", seed=3)
    assert cfg.steps > 2 * integrate._SIM_CHUNK  # several chunks of steps
    traj = _assert_simulate_matches_float64_loop(kt_model(), d, cfg)
    assert traj.blowup_index is None


def test_simulate_matches_float64_loop_bell_euler1():
    e = bell_equilibria(BELL_PARAMS)[1]
    d = diffusion_at_equilibrium(Mat2(0.5, -0.1, 0.1, 0.5), e)
    cfg = SimConfig(dt=0.01, steps=5_000, initial=State(e.point.x + 0.1, e.point.y),
                    scheme="euler1", seed=4)
    _assert_simulate_matches_float64_loop(bell_model(), d, cfg)


def test_simulate_matches_float64_loop_at_blowup():
    # KT with independent streams leaves the domain at step 2926
    e = kt_equilibria(KT_PARAMS)[1]
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
        eval_vector_field(m, State(*traj.states[-1].tolist()))


@pytest.mark.parametrize("scheme", ["euler1", "euler2"])
@pytest.mark.parametrize("rhs, x0", [(lambda x, y: (1.0 / x, 0.0), 0.0),
                                     (lambda x, y: (x ** 0.5, 0.0), -1.0)],
                         ids=["reciprocal", "sqrt"])
def test_simulate_undefined_rhs_is_a_blowup(rhs, x0, scheme):
    # on a Python float 1/x at x = 0 raises ZeroDivisionError and x ** 0.5
    # at x < 0 is complex, where an np.float64 gave inf and nan; each ends
    # the trajectory at step 1
    cfg = SimConfig(dt=0.1, steps=5, initial=State(x0, 1.0), scheme=scheme)
    traj = _assert_simulate_matches_float64_loop(custom_model(rhs), None, cfg)
    assert traj.blowup_index == 1 and len(traj.states) == 1


def test_shared_vs_independent_streams():
    sys_lin = LinearSDE(Mat2(0.0, 0.0, 0.0, 0.0), Mat2(1.0, 0.0, 0.0, 1.0))
    base = dict(dt=0.01, steps=100, initial=State(1.0, 1.0), seed=5)
    shared = simulate(sys_lin, None, SimConfig(**base, noise_streams="shared"))
    indep = simulate(sys_lin, None, SimConfig(**base, noise_streams="independent"))
    # with shared increments both components of dX = X dW move in lockstep
    assert np.allclose(shared.states[:, 0], shared.states[:, 1])
    assert not np.allclose(indep.states[:, 0], indep.states[:, 1])


def test_ensemble_gbm_moments():
    a, sigma, T, dt = 0.05, 0.2, 1.0, 0.01
    sys_lin = LinearSDE(Mat2(a, 0.0, 0.0, a), Mat2(sigma, 0.0, 0.0, sigma))
    cfg = SimConfig(dt=dt, steps=int(T / dt), initial=State(1.0, 1.0), seed=17)
    ens = ensemble_stats(sys_lin, None, cfg, paths=10_000)
    xT = np.array([t.states[-1, 0] for t in ens.trajectories])
    se = xT.std(ddof=1) / math.sqrt(len(xT))
    assert abs(xT.mean() - math.exp(a * T)) < 3 * se
    m2 = xT ** 2
    se2 = m2.std(ddof=1) / math.sqrt(len(m2))
    assert abs(m2.mean() - math.exp((2 * a + sigma ** 2) * T)) < 3 * se2
    assert ens.mean.shape == (cfg.steps + 1, 2)


@pytest.mark.parametrize("streams, stride", [("shared", 1), ("independent", 2)])
def test_ensemble_paths_draw_from_own_streams(streams, stride):
    # every (path, component) pair has its own stream: with independent
    # noise, path p's second component once reused path p + 1's first
    sys_lin = LinearSDE(Mat2(-0.5, 0.0, 0.0, -0.5), Mat2(0.3, 0.0, 0.0, 0.3))
    cfg = SimConfig(dt=0.01, steps=200, initial=State(1.0, 1.0),
                    noise_streams=streams, seed=5, stream=3)
    ens = ensemble_stats(sys_lin, None, cfg, paths=4)
    columns = [t.states[1:, i] for t in ens.trajectories for i in (0, 1)]
    distinct = 1 if streams == "shared" else 2
    for a in range(len(columns)):
        for b in range(a + 1, len(columns)):
            same_path = a // 2 == b // 2
            assert np.array_equal(columns[a], columns[b]) == (same_path and distinct == 1)
    for p, t in enumerate(ens.trajectories):
        alone = simulate(sys_lin, None, SimConfig(
            dt=0.01, steps=200, initial=State(1.0, 1.0), noise_streams=streams,
            seed=5, stream=3 + 1 + stride * p))
        assert np.array_equal(t.states, alone.states)


def test_ensemble_zero_noise_has_zero_variance():
    a = 0.05
    sys_lin = LinearSDE(Mat2(a, 0.0, 0.0, a), Mat2(0.0, 0.0, 0.0, 0.0))
    cfg = SimConfig(dt=0.01, steps=100, initial=State(1.0, 1.0), seed=3)
    ens = ensemble_stats(sys_lin, None, cfg, paths=16)
    assert np.abs(ens.variance).max() < 1e-28


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
    cfg = SimConfig(dt=dt, steps=steps, initial=State(1.0, 1.0),
                    scheme="euler2", seed=29)
    ens = ensemble_stats(sys_lin, None, cfg, paths=paths)
    xT = np.array([t.states[-1, 0] for t in ens.trajectories])
    per_step = 1 + a * dt + (a * dt) ** 2 / 2
    predicted = per_step ** steps
    se = xT.std(ddof=1) / math.sqrt(paths)
    assert abs(xT.mean() - predicted) < 3 * se


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, steps=10, initial=State(0, 0))
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, steps=0, initial=State(0, 0))
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, steps=10, initial=State(0, 0), scheme="rk4")
