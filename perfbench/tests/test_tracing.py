import io
import contextlib

import pytest

import tumorsde
import tumorsde.cli
from tracing import COUNT_KEYS, Tracer, self_times


def test_self_time_on_a_synthetic_tree():
    #   0 root [0, 100]
    #   1   child [10, 30]
    #   2   child [40, 70]
    #   3     grandchild [45, 50]
    #   4   child [60, 80] overlaps child 2: [60, 70] is counted once
    #   5   child [90, 120] reaches past the root: clipped to [90, 100]
    starts = [0, 10, 40, 45, 60, 90]
    ends = [100, 30, 70, 50, 80, 120]
    parents = [-1, 0, 0, 2, 0, 0]
    assert self_times(starts, ends, parents) == [100 - 20 - 40 - 10, 20, 25, 5, 20, 30]


def test_wrapped_calls_nest_and_aggregate():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap(leaf, "m.leaf")

    def outer(x):
        return traced_leaf(traced_leaf(x))

    assert tracer.wrap(outer, "m.outer")(1) == 3
    assert tracer.names == ["m.outer", "m.leaf", "m.leaf"]
    assert tracer.parents == [-1, 0, 0]
    m = tracer.metrics()
    assert m["m.leaf.calls"] == 2 and m["m.outer.calls"] == 1
    assert m["m.outer.self_s"] == pytest.approx(m["m.outer.s"] - m["m.leaf.s"], abs=1e-12)


def test_raised_spans_are_closed():
    tracer = Tracer()

    def boom():
        raise ArithmeticError("x")

    with pytest.raises(ArithmeticError):
        tracer.wrap(boom, "m.boom")()
    assert tracer.raised == [0] and tracer.ends[0] >= tracer.starts[0]
    assert tracer._stack == []


def run_cli(tracer, argv):
    root = tracer.wrap(tumorsde.cli.main)
    tracer.reset()
    tracer.install(tumorsde)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert root(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_tracing_the_package_counts_exactly_and_restores(tmp_path):
    originals = (tumorsde.cli.stability_sweep, tumorsde.lyapunov.lyapunov_fd,
                 tumorsde.integrate.euler2_step, tumorsde.integrate.RngStream)
    tracer = Tracer()
    sweep = ["sweep", "--model", "bell", "--equilibrium", "P1", "--beta", "-2",
             "--alpha=-2.5:-1.5:0.5", "--method", "fd", "--grid-n", "2000",
             "--out", str(tmp_path / "s.csv")]
    m = run_cli(tracer, sweep)
    assert tracer.missing == []
    assert (tumorsde.cli.stability_sweep, tumorsde.lyapunov.lyapunov_fd,
            tumorsde.integrate.euler2_step, tumorsde.integrate.RngStream) == originals
    refine = m["lyapunov.refine_evals"]
    assert refine > 0 and m["lyapunov.evals"] == 3 + refine
    assert m["lyapunov.fd_nodes"] == 2000 * m["lyapunov.evals"]
    assert m["lyapunov.stationary_density_fd.calls"] == m["lyapunov.evals"]
    assert m["cli.csv_bytes"] == (tmp_path / "s.csv").stat().st_size
    assert m["lyapunov.stability_sweep.self_s"] < m["lyapunov.stability_sweep.s"]
    again = run_cli(tracer, sweep)
    assert all(again[k] == m[k] for k in COUNT_KEYS)

    sim = ["simulate", "--model", "kt", "--equilibrium", "P2", "--scheme", "euler2",
           "--steps", "500", "--noise", "1,-0.2,0.2,1", "--out", str(tmp_path / "t.csv")]
    m = run_cli(tracer, sim)
    assert m["integrate.euler_steps"] == m["models.vf_calls"] == 500
    assert m["integrate.normals"] == 500 and m["integrate.rng_streams"] == 1
    assert m["cli.csv_bytes"] == (tmp_path / "t.csv").stat().st_size

    mc = ["lyapunov", "--model", "bell", "--equilibrium", "P1", "--alpha=1.5",
          "--beta", "-2", "--method", "mc", "--paths", "8", "--dt", "0.01",
          "--horizon", "1"]
    m = run_cli(tracer, mc)
    assert m["lyapunov.mc_path_steps"] == 8 * 100
    assert m["integrate.normals"] == 8 * 100 and m["integrate.rng_streams"] == 8
