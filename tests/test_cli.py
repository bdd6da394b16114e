"""Flag/config parsing, CSV emission, exit codes."""

import errno
import os
import re
import signal
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import alpha_exact
from tumorsde import cli, integrate, models
from tumorsde.cli import (
    ConfigError,
    alpha_range_values,
    emit_sweep_csv,
    main,
    parse_config,
)
from tumorsde.integrate import SimConfig, Trajectory, simulate
from tumorsde.lyapunov import SweepResult
from tumorsde.models import Mat2, State, bell_model, model_equilibria
from tumorsde.sde import alpha_family, diffusion_at_equilibrium, linearize


def test_parse_sweep_example():
    cfg = parse_config(["sweep", "--model", "bell", "--equilibrium", "P1",
                        "--beta", "-2", "--alpha=-4:4:0.02", "--method", "fd"])
    assert cfg.command == "sweep" and cfg.model == "bell"
    assert cfg.alpha == (-4.0, 4.0, 0.02)
    grid = alpha_range_values(*cfg.alpha)
    assert len(grid) == 401
    assert grid[0] == -4.0 and abs(grid[-1] - 4.0) < 1e-12


def test_alpha_holds_a_real_or_a_range():
    cfg = parse_config(["lyapunov", "--alpha", "0.5"])
    assert type(cfg.alpha) is float and cfg.alpha == 0.5
    cfg = parse_config(["sweep", "--alpha=-1:1:0.5"])
    assert type(cfg.alpha) is tuple and cfg.alpha == (-1.0, 1.0, 0.5)


def test_parse_simulate_example():
    cfg = parse_config(["simulate", "--model", "kt", "--scheme", "euler2",
                        "--dt", "0.01", "--steps", "5000", "--seed", "42",
                        "--noise", "10,-2,2,10"])
    assert cfg.noise == Mat2(10.0, -2.0, 2.0, 10.0)
    assert cfg.scheme == "euler2" and cfg.dt == 0.01
    assert cfg.steps == 5000 and cfg.seed == 42


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="dt"):
        parse_config(["simulate", "--dt", "0"])
    with pytest.raises(ConfigError, match="paths"):
        parse_config(["lyapunov", "--paths", "0"])
    with pytest.raises(ConfigError, match="wibble"):
        parse_config(["sweep", "--wibble", "3"])
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(["sweep", "--beta", "two"])
    with pytest.raises(ConfigError, match="command"):
        parse_config(["--model", "kt"])


def test_defaults():
    cfg = parse_config(["lyapunov"])
    assert cfg.model == "kt" and cfg.beta == -2.0 and cfg.paths == 64
    assert cfg.dt == 1e-3 and cfg.seed == 1
    assert cfg.method == "fd" and cfg.equilibrium == "P1"


def test_removed_span_flag_is_unknown(capsys):
    assert main(["lyapunov", "--span", "pi"]) == 2
    assert "span: unknown key" in capsys.readouterr().err


def test_removed_grid_n_key_is_unknown(capsys, tmp_path):
    # fd's mode count comes from its tail rule alone; the node count that
    # once capped it is no longer an option, on the line or in a file
    assert main(["lyapunov", "--grid-n", "2000"]) == 2
    assert "grid_n: unknown key" in capsys.readouterr().err
    f = tmp_path / "run.cfg"
    f.write_text("grid_n = 500\n", encoding="utf-8")
    assert main(["lyapunov", "--config", str(f)]) == 2
    assert "grid_n: unknown key" in capsys.readouterr().err


def test_usage_lists_exactly_the_config_keys():
    # the flags USAGE lists under each command are the keys it reads, and
    # those after "with --method mc only:" the keys it reads with mc
    def flags(text):
        return {f[2:].replace("-", "_") for f in re.findall(r"--[a-z][a-z0-9-]*", text)}

    header, *sections = re.split(r"^(equilibria|simulate|lyapunov|sweep) ",
                                 cli.USAGE, flags=re.M)
    listed = dict(zip(sections[0::2], sections[1::2]))
    assert flags(header) == {"config"} and tuple(listed) == cli.COMMANDS
    for command, text in listed.items():
        base, marker, mc = text.partition("with --method mc only:")
        assert flags(base) == set(cli._COMMAND_KEYS[command]), command
        assert flags(mc) == (set(cli._MC_KEYS) if marker else set()), command
    read = set(cli._MC_KEYS).union(*cli._COMMAND_KEYS.values())
    assert read == set(cli._PARSERS) - {"command"}


def test_sizes_capped_before_allocation(capsys):
    assert parse_config(["simulate", "--steps", str(10 ** 7)]).steps == 10 ** 7
    cfg = parse_config(["sweep", "--method", "mc", "--paths", str(10 ** 4),
                        "--alpha=0:999999:1"])  # 10**6 points
    assert cfg.paths == 10 ** 4
    over = [(["simulate"], "steps", str(10 ** 7 + 1)),
            (["sweep", "--method", "mc"], "paths", str(10 ** 4 + 1)),
            (["sweep"], "alpha", "0:1000000:1"), (["sweep"], "alpha", "0:1e9:1e-3"),
            (["sweep"], "alpha", "-1e300:1e300:1e-300")]
    for head, key, value in over:
        with pytest.raises(ConfigError, match=f"^{key}: (must be|range)"):
            parse_config([*head, f"--{key}={value}"])
    # this range used to overflow int() in alpha_range_values
    assert main(["sweep", "--model", "bell", "--alpha=-1e300:1e300:1e-300"]) == 2
    assert capsys.readouterr().err.startswith("config error: alpha:")


def test_mc_step_count_capped(capsys, tmp_path):
    mc = ["--method", "mc", "--paths", "1"]
    f = tmp_path / "steps.cfg"
    f.write_text("horizon = 1e300\ndt = 1e-300\n", encoding="utf-8")
    for cmd in ("lyapunov", "sweep"):
        for horizon, dt in (("1e300", "1e-300"), ("1e9", "1e-9"),
                            ("10000.001", "0.001"), ("0.0004", "0.001")):
            with pytest.raises(ConfigError, match="^horizon: "):
                parse_config([cmd, *mc, "--horizon", horizon, "--dt", dt])
        # 1 and 10**7 steps are accepted; fd runs take no steps, so they do
        # not read a file's horizon and dt and take neither as a flag
        parse_config([cmd, *mc, "--horizon", "0.001", "--dt", "0.001"])
        parse_config([cmd, *mc, "--horizon", "10000", "--dt", "0.001"])
        parse_config([cmd, "--config", str(f)])
        with pytest.raises(ConfigError, match="^horizon: .* only with --method mc"):
            parse_config([cmd, "--horizon", "1e300", "--dt", "1e-300"])
    # this used to escape lyapunov_mc as an OverflowError
    assert main(["lyapunov", *mc, "--horizon", "1e300", "--dt", "1e-300"]) == 2
    assert capsys.readouterr().err.startswith("config error: horizon:")


def test_config_file_and_override(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# sweep settings\nmodel = bell\nbeta = -2\n"
                 "alpha = -1:1:0.5\nmethod = mc\npaths = 500\n",
                 encoding="utf-8")
    cfg = parse_config(["sweep", "--config", str(f), "--paths", "800"])
    assert cfg.model == "bell"
    assert cfg.paths == 800  # flag overrides file
    assert cfg.alpha == (-1.0, 1.0, 0.5)
    # a flag overrides the file's method too; an fd sweep does not read
    # the file's paths, and takes no --paths flag
    assert parse_config(["sweep", "--config", str(f), "--method", "fd"]).paths == 500
    with pytest.raises(ConfigError, match="^paths: sweep reads it only with --method mc$"):
        parse_config(["sweep", "--config", str(f), "--method", "fd", "--paths", "800"])


def test_config_file_errors(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("nonsense_key = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="nonsense_key"):
        parse_config(["sweep", "--config", str(f)])
    f.write_text("just a line without equals\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(["sweep", "--config", str(f)])


@pytest.mark.parametrize("argv, msg", [
    (["--alpha", "0.5", "--alpha", "0.7"], "alpha: given twice on the command line"),
    (["--alpha", "0.5", "--noise-streams", "shared", "--noise_streams", "shared"],
     "noise_streams: given twice on the command line"),
    (["--alpha", "0.5", "--params", "a1=1,a1=2.5"], "params: coefficient 'a1' given twice"),
    (["--alpha", "0.5", "--params", "a1=1, a1 =1"], "params: coefficient 'a1' given twice"),
], ids=["flag", "flag-spellings", "params", "params-same-value"])
def test_cli_repeated_key_exits_two(capsys, argv, msg):
    # a value the command would drop is an error, a repeated one too
    assert main(["lyapunov", "--model", "bell", "--method", "closed", *argv]) == 2
    assert capsys.readouterr().err == f"config error: {msg}\n"


def test_repeated_key_in_a_config_file_exits_two(capsys, tmp_path):
    f = tmp_path / "twice.cfg"
    f.write_text("model = bell\nalpha = 0.5\n# override\nalpha = 0.7\n", encoding="utf-8")
    assert main(["lyapunov", "--config", str(f)]) == 2
    assert capsys.readouterr().err == f"config error: alpha: {f}:4: given twice in the file\n"
    # a flag still overrides the file's one value
    f.write_text("model = bell\nalpha = 0.5\n", encoding="utf-8")
    assert parse_config(["lyapunov", "--config", str(f), "--alpha", "0.7"]).alpha == 0.7


# key -> a value other than its default, and a command line that reads it
_ONE_KEY = {
    "model": ("bell", ["simulate"]),
    "params": ("a1=0.2,b2=0.003", ["simulate"]),
    "equilibrium": ("P2", ["simulate"]),
    "noise": ("1,0.5,-0.5,1", ["simulate"]),
    "alpha": ("-1:1:0.5", ["sweep"]),
    "beta": ("-1.5", ["simulate", "--alpha", "0.5"]),
    "method": ("closed", ["lyapunov"]),
    "dt": ("0.01", ["simulate"]),
    "steps": ("20", ["simulate"]),
    "paths": ("8", ["lyapunov", "--method", "mc"]),
    "horizon": ("3", ["lyapunov", "--method", "mc"]),
    "seed": ("9", ["sweep", "--method", "mc"]),
    "out": ("x.csv", ["equilibria"]),
    "scheme": ("euler2", ["simulate"]),
    "x0": ("0.5", ["simulate"]),
    "y0": ("1.5", ["simulate"]),
    "noise_streams": ("independent", ["simulate"]),
}


@pytest.mark.parametrize("key", [f.name for f in fields(cli.RunConfig) if f.name != "command"])
def test_every_key_reads_the_same_from_the_line_and_a_file(tmp_path, key):
    # each RunConfig field is a key, parsed by the same parser wherever
    # its text comes from
    value, argv = _ONE_KEY[key]
    f = tmp_path / "one.cfg"
    f.write_text(f"{key} = {value}\n", encoding="utf-8")
    cfg = parse_config([*argv, f"--{key.replace('_', '-')}={value}"])
    assert cfg == parse_config([*argv, "--config", str(f)])
    assert cfg != parse_config(argv)


def test_config_roundtrip(tmp_path):
    cfg = parse_config(["sweep", "--model", "bell", "--equilibrium", "P2",
                        "--alpha=-2:2:0.25", "--beta", "-2", "--method", "mc",
                        "--paths", "1234",
                        "--params", "a1=2.5,b3=0.9", "--seed", "7",
                        "--out", "x.csv"])
    # every key of the run, in config-file syntax
    f = tmp_path / "echo.cfg"
    f.write_text("""\
command = sweep
model = bell
params = a1=2.5,b3=0.90000000000000002
equilibrium = P2
alpha = -2:2:0.25
beta = -2
method = mc
dt = 0.001
steps = 1000
paths = 1234
horizon = 200
seed = 7
scheme = euler1
noise_streams = shared
out = x.csv
""", encoding="utf-8")
    cfg2 = parse_config(["--config", str(f)])
    assert cfg2 == cfg


def test_sweep_csv_empty(tmp_path):
    r = SweepResult(alphas=np.empty(0), lambdas=np.empty(0),
                    stderrs=np.empty(0), method="fd", sign_changes=[],
                    stable_set=[], failures=[])
    p = tmp_path / "s.csv"
    emit_sweep_csv(r, str(p))
    assert p.read_text() == "alpha,lambda,method,stderr\n"


def test_sweep_csv_rows_match_per_value_format(tmp_path):
    # rows are formatted by one row template; the file is the text of
    # format(float(v), ".17g") per value, NaN and -0 included
    alphas = np.array([-2.5, -0.0, 1e-300, 1.0 / 3.0, 2.0])
    lambdas = np.array([0.125, -0.0, np.nan, -1.0 / 7.0, 1e300])
    stderrs = np.array([0.0, 1e-17, 0.0, np.inf, 2.5e-3])
    r = SweepResult(alphas=alphas, lambdas=lambdas, stderrs=stderrs,
                    method="mc", sign_changes=[(-0.5, 0.0), (1.0 / 3.0, 0.5)],
                    stable_set=[(-0.25, 0.4)],
                    failures=[(1e-300, "density mass nan not normalizable")])
    p = tmp_path / "s.csv"
    emit_sweep_csv(r, str(p))

    def fmt(v):
        return format(float(v), ".17g")

    expect = ["alpha,lambda,method,stderr"]
    expect += [f"{fmt(a)},{fmt(lam)},mc,{fmt(se)}"
               for a, lam, se in zip(alphas, lambdas, stderrs)]
    expect += [f"# sign_change lo={fmt(lo)} hi={fmt(hi)}" for lo, hi in r.sign_changes]
    expect += ["# stable lo=-0.25 hi=0.40000000000000002",
               "# failure alpha=1e-300: density mass nan not normalizable"]
    assert p.read_bytes() == ("\n".join(expect) + "\n").encode()
    rows = p.read_text().splitlines()[1:6]
    assert rows[1] == "-0,-0,mc,1.0000000000000001e-17"
    assert rows[2].split(",")[1] == "nan" and rows[3].endswith(",inf")


def test_cli_equilibria_exit_zero(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    assert main(["equilibria", "--model", "kt", "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "label,x,y,residual"
    assert len(text) == 3
    printed = capsys.readouterr().out
    assert "P1" in printed and "P2" in printed


def test_cli_equilibria_p2_omitted_note(capsys):
    assert main(["equilibria", "--model", "kt", "--params", "a1=1.0"]) == 0
    printed = capsys.readouterr().out
    assert "P2 omitted" in printed


def test_cli_kt_keeps_p2_as_b2_shrinks(capsys):
    # 2 b1 b2 a3 underflowed to 0 at b2 = 1e-323, a ZeroDivisionError for
    # every kt command; at b2 = 1e-12, P2's y2 cancelled to a residual of
    # 1.3e-6, refused as not an equilibrium
    assert main(["equilibria", "--model", "kt", "--params", "b2=1e-323"]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["P1", "P2"]
    assert main(["lyapunov", "--model", "kt", "--params", "b2=1e-12",
                 "--equilibrium", "P2", "--alpha", "0.5"]) == 0
    assert capsys.readouterr().out.startswith("lambda=")


@pytest.mark.parametrize("params", ["b1=1e-200,a3=1e-200,b2=1e-200",
                                    "b1=1e-200,b2=1e-200,a3=1e-201"])
def test_cli_kt_p2_denominator_underflow_is_a_note(capsys, params):
    # a ZeroDivisionError traceback and exit 1 before: P1 is still listed
    assert main(["equilibria", "--model", "kt", "--params", params]) == 0
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()] == ["P1", "note:"]
    assert out.endswith("note: P2 omitted: a root's denominator underflows\n")
    assert err == ""


def test_cli_kt_omits_a_negative_p1(capsys):
    # x1 = a1/a2 < 0 is not a population; without P1 no P2 either
    assert main(["equilibria", "--model", "kt", "--params", "a1=-10"]) == 0
    assert capsys.readouterr().out == ("note: P1 omitted: x1 = -26.688 < 0\n"
                                       "note: P2 omitted: discriminant < 0\n")


@pytest.mark.parametrize("params, printed", [
    ("a1=0.4", "note: P2 omitted: a1*b1 = a2*b2\n"),
    ("b4=3", "note: P2 omitted: x2 = -0.297619 < 0\n"),
])
def test_cli_bell_omits_an_equilibrium_and_keeps_the_other(tmp_path, capsys, params, printed):
    # P2 does not exist (a1*b1 = a2*b2) or is not a population (x2 < 0):
    # equilibria notes it, P1 still runs and selecting P2 is a config error
    out = tmp_path / "eq.csv"
    assert main(["equilibria", "--model", "bell", "--params", params, "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(printed)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines] == ["label", "P1", "# " + printed[6:-1]]
    argv = ["lyapunov", "--model", "bell", "--params", params, "--alpha", "0.5"]
    assert main(argv + ["--equilibrium", "P1", "--method", "fd"]) == 0
    assert capsys.readouterr().out.startswith("lambda=")
    assert main(argv + ["--equilibrium", "P2", "--method", "fd"]) == 2
    assert capsys.readouterr().err == \
        "config error: equilibrium: P2 not present for this model\n"


@pytest.mark.parametrize("method", ["fd", "closed"])
def test_cli_keeps_bell_p2_where_p1_overflows(capsys, method):
    # P1 = (0, b4/b3) is (0, inf) at b3 = 1e-309: equilibria notes it and
    # exits 0, and P2 = (13.33, 2.5) still runs
    params = ["--model", "bell", "--params", "b3=1e-309,b1=0.1"]
    assert main(["equilibria", *params]) == 0
    assert capsys.readouterr().out == (
        "P2  x=13.333333333333332  y=2.5  residual=0.000e+00\n"
        "note: P1 omitted: residual not finite at (0, inf)\n")
    assert main(["lyapunov", *params, "--equilibrium", "P2", "--alpha", "0.5",
                 "--method", method]) == 0
    assert capsys.readouterr().out.startswith("lambda=4.086")


def test_cli_closed_matches_fd_at_large_alpha(capsys):
    # closed's tail no longer overflows where fd's exponent is finite
    for alpha in ("1e25", "1e150"):
        printed = []
        for method in ("closed", "fd"):
            assert main(["lyapunov", "--model", "bell", "--equilibrium", "P1", "--alpha",
                         alpha, "--beta", "-2", "--method", method]) == 0
            printed.append(capsys.readouterr().out.split()[0])
        assert printed[0] == printed[1]
    assert printed[0] == "lambda=-4.9999999999999995e+299"


def test_cli_config_error_exit_two(capsys):
    assert main(["simulate", "--dt", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "dt" in err
    assert main(["sweep", "--frobnicate", "1"]) == 2
    assert main(["lyapunov", "--model", "bogus"]) == 2


_INPUT_CHECKS = [
    (["lyapunov", "--beta", "inf"], "beta: value must be finite, got 'inf'"),
    (["simulate", "--seed", "1.5"], "seed: malformed integer '1.5'"),
    (["equilibria", "--params", "a1"], "params: expected k=v, got 'a1'"),
    (["lyapunov", "--noise", "1,2,3"],
     "noise: expected four comma-separated reals m11,m12,m21,m22"),
    (["sweep", "--alpha=1:2"], "alpha: range must be lo:hi:step"),
    (["sweep", "--alpha=0:1:0"], "alpha: range step must be > 0"),
    (["sweep", "--alpha=1:0:0.5"], "alpha: range needs hi >= lo"),
    (["equilibria", "--config", "{missing}"],
     "config: cannot read '{missing}': [Errno 2] No such file or directory: '{missing}'"),
    (["frobnicate"], "command: unknown command 'frobnicate'"),
    (["equilibria", "stray"], "command: unexpected argument 'stray'"),
    (["lyapunov", "--alpha"], "alpha: missing value"),
    (["lyapunov", "--equilibrium", "7"], "equilibrium: index 7 out of range (2 found)"),
    (["lyapunov", "--model", "bell", "--method", "closed"],
     "method: closed needs the alpha/beta noise family"),
    (["sweep"], "alpha: sweep needs an alpha range lo:hi:step"),
    # a ValueError of the model builder, not a ConfigError
    (["equilibria", "--model", "volterra"],
     "model volterra needs params ['a', 'b', 'd', 'f', 'k']"),
]


@pytest.mark.parametrize("argv, msg", _INPUT_CHECKS, ids=[
    "beta-inf", "seed-float", "params-no-equals", "noise-three", "alpha-two-parts",
    "alpha-step-zero", "alpha-hi-below-lo", "config-unreadable", "unknown-command",
    "stray-positional", "alpha-no-value", "equilibrium-index", "closed-no-alpha",
    "sweep-no-range", "volterra-no-params"])
def test_cli_input_check_exits_two(capsys, tmp_path, argv, msg):
    missing = str(tmp_path / "none.cfg")
    assert main([a.format(missing=missing) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {msg.format(missing=missing)}\n"
    assert captured.out == ""


def test_cli_empty_params_are_no_overrides(capsys):
    assert main(["equilibria", "--params", ""]) == 0
    empty = capsys.readouterr()
    assert main(["equilibria"]) == 0
    assert capsys.readouterr() == empty and empty.err == ""


def test_cli_numerical_failure_exit_three(capsys):
    # b12 = b21 = 0.5: q4 = 0.5 cos(2 theta) vanishes on the grid
    code = main(["lyapunov", "--model", "kt", "--equilibrium", "P1",
                 "--noise", "0,0.5,0.5,0", "--method", "fd"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_beta_zero_fails_closed_as_fd(capsys, tmp_path):
    # q4 = beta: at beta = 0 closed rejects the system with fd's message,
    # and a sweep records it at each point
    msg = "q4 has real zeros, where the angle diffusion vanishes; use the mc method"
    argv = ["--model", "bell", "--equilibrium", "P1", "--beta", "0"]
    for method in ("closed", "fd"):
        assert main(["lyapunov", *argv, "--alpha", "0.5", "--method", method]) == 3
        assert capsys.readouterr().err == f"numerical failure: {msg}\n"
    out = tmp_path / "s.csv"
    assert main(["sweep", *argv, "--alpha=0:1:0.5", "--method", "closed",
                 "--out", str(out)]) == 0
    failures = [line for line in out.read_text(encoding="utf-8").splitlines()
                if line.startswith("# failure")]
    assert failures == [f"# failure alpha={a}: {msg}" for a in ("0", "0.5", "1")]


def test_cli_simulate_bytes_identical(tmp_path, capsys):
    args = ["simulate", "--model", "kt", "--equilibrium", "P2",
            "--scheme", "euler2", "--dt", "0.001", "--steps", "500",
            "--seed", "42", "--noise", "1,-0.2,0.2,1",
            "--x0", "1.6", "--y0", "25.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "n,t,x,y" and len(lines) == 502


# simulate's CSV writer runs in a forked process only on Linux
_forks = pytest.mark.skipif(sys.platform != "linux", reason="Linux only")

_KT_SIM = ["simulate", "--model", "kt", "--equilibrium", "P2", "--noise",
           "1,-0.2,0.2,1", "--x0", "1.6", "--y0", "25.0"]
# blows up at n = 2433 = 38 * 64 + 1 (found by a scan of seeds)
_VOLTERRA_BLOWUP = ["simulate", "--model", "volterra", "--params",
                    "a=1,b=0.5,d=0.3,f=0.4,k=0.2", "--equilibrium", "0", "--x0", "1",
                    "--y0", "1", "--scheme", "euler2", "--noise-streams", "independent",
                    "--noise", "1,0,0,1", "--steps", "3000", "--seed", "196"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _simulate_cli(monkeypatch, argv, forked, min_steps=0):
    """main(argv) with simulate's CSV writer forked or in-process, as if
    two CPUs were usable and runs of min_steps were long enough to fork;
    returns the exit code and the forks made."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with monkeypatch.context() as m:
        m.setattr(os, "fork", counted_fork)
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        m.setattr(cli, "_FORK_MIN_STEPS", min_steps)
        if not forked:
            m.setattr(cli, "_fork_cpus", lambda: 1)
        code = main(argv)
    _no_child_left()
    return code, len(forks)


def _trajectory_of(argv) -> Trajectory:
    """simulate()'s trajectory for a simulate command line."""
    cfg = parse_config(argv)
    model, eq = cli._model_at_equilibrium(cfg)
    sim = SimConfig(dt=cfg.dt, steps=cfg.steps, initial=State(cfg.x0, cfg.y0),
                    scheme=cfg.scheme, noise_streams=cfg.noise_streams, seed=cfg.seed)
    return simulate(model, diffusion_at_equilibrium(cli._noise_matrix(cfg), eq), sim)


@_forks
@pytest.mark.parametrize("scheme", ["euler1", "euler2"])
@pytest.mark.parametrize("streams", ["shared", "independent"])
def test_cli_simulate_forked_writer_writes_the_in_process_bytes(
        monkeypatch, tmp_path, capsys, scheme, streams):
    steps = 3 * integrate._SIM_CHUNK + 5  # four chunks
    argv = [*_KT_SIM, "--scheme", scheme, "--noise-streams", streams,
            "--steps", str(steps), "--seed", "5"]
    text = {}
    for forked in (True, False):
        out = tmp_path / f"{forked}.csv"
        assert _simulate_cli(monkeypatch, [*argv, "--out", str(out)], forked) \
            == (0, int(forked))
        assert capsys.readouterr().out == f"wrote {out}: {steps + 1} states\n"
        text[forked] = out.read_text(encoding="utf-8")
    assert text[True] == text[False]
    # the rows are simulate()'s trajectory
    t = _trajectory_of(argv)
    assert t.blowup_index is None and len(t.states) == steps + 1
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in text[True].splitlines()[1:]])
    assert np.array_equal(rows[:, 0], np.arange(steps + 1))
    assert np.array_equal(rows[:, 1], t.times)
    assert np.array_equal(rows[:, 2:], t.states)


def _rows(t: Trajectory) -> str:
    """The CSV text of a trajectory, formatted value by value."""
    lines = ["n,t,x,y"] + [",".join([str(n), *(format(v, ".17g") for v in row)])
                           for n, row in enumerate(zip(t.times.tolist(),
                                                       *t.states.T.tolist()))]
    if t.blowup_index is not None:
        lines.append(f"# blowup at n={t.blowup_index}")
    return "\n".join(lines) + "\n"


def test_trajectory_csv_rows(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main([*_KT_SIM, "--steps", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}: 4 states\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,t,x,y"
    assert len(lines) == 5  # header + 4 data rows, no marker
    assert lines[1] == "0,0,1.6000000000000001,25"
    assert lines[2].startswith("1,0.001,")


# KT P2 with independent streams leaves the domain at step 2926, in its
# third chunk
_KT_BLOWUP = [*_KT_SIM, "--noise-streams", "independent", "--steps", "3000",
              "--seed", "7"]


@_forks
def test_trajectory_csv_rows_across_chunks(monkeypatch, tmp_path, capsys):
    # both writers write simulate()'s rows value by value, and the
    # blow-up trailer after them
    t = _trajectory_of(_KT_BLOWUP)
    assert t.blowup_index == 2926 > 2 * integrate._SIM_CHUNK
    for forked in (True, False):
        out = tmp_path / f"{forked}.csv"
        assert _simulate_cli(monkeypatch, [*_KT_BLOWUP, "--out", str(out)],
                             forked) == (0, int(forked))
        assert capsys.readouterr().out == \
            f"wrote {out}: 2926 states (blow-up at n=2926)\n"
        assert out.read_text(encoding="utf-8") == _rows(t)


@_forks
def test_trajectory_csv_blowup_marker(monkeypatch, tmp_path, capsys):
    # the blow-up falls in the first and only chunk
    monkeypatch.setattr(integrate, "_SIM_CHUNK", 4096)
    for forked in (True, False):
        out = tmp_path / f"{forked}.csv"
        assert _simulate_cli(monkeypatch, [*_KT_BLOWUP, "--out", str(out)],
                             forked) == (0, int(forked))
        assert capsys.readouterr().out == \
            f"wrote {out}: 2926 states (blow-up at n=2926)\n"
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2928 and lines[-2].startswith("2925,")
        assert lines[-1] == "# blowup at n=2926"


@_forks
@pytest.mark.parametrize("forked", [True, False])
def test_cli_simulate_blowup_on_a_chunk_boundary(monkeypatch, tmp_path, capsys, forked):
    # the first step of a chunk blows up, so the last chunk has no states
    monkeypatch.setattr(integrate, "_SIM_CHUNK", 64)
    expect, out = tmp_path / "expect.csv", tmp_path / "b.csv"
    assert _simulate_cli(monkeypatch, [*_VOLTERRA_BLOWUP, "--out", str(expect)],
                         False) == (0, 0)
    assert _simulate_cli(monkeypatch, [*_VOLTERRA_BLOWUP, "--out", str(out)],
                         forked) == (0, int(forked))
    assert capsys.readouterr().out == \
        f"wrote {expect}: 2433 states (blow-up at n=2433)\n" \
        f"wrote {out}: 2433 states (blow-up at n=2433)\n"
    t = _trajectory_of(_VOLTERRA_BLOWUP)
    assert t.blowup_index == 2433 == 38 * 64 + 1
    assert out.read_bytes() == expect.read_bytes()
    assert out.read_text().splitlines()[-1] == "# blowup at n=2433"


@_forks
@pytest.mark.parametrize("forked", [True, False])
def test_cli_simulate_blowup_at_step_zero_writes_no_file(
        monkeypatch, tmp_path, capsys, forked):
    out = tmp_path / "never.csv"
    argv = ["simulate", "--model", "kt", "--equilibrium", "P1", "--x0", "1e308",
            "--y0", "1e308", "--steps", "10000", "--out", str(out)]
    assert _simulate_cli(monkeypatch, argv, forked) == (3, 0)
    assert capsys.readouterr().err == ("numerical failure: blow-up at step 0 "
                                       "(component diverged immediately)\n")
    assert not out.exists()


@_forks
@pytest.mark.parametrize("forked", [True, False])
def test_cli_simulate_io_errors_exit_three(monkeypatch, tmp_path, capsys, forked):
    steps = ["--steps", str(2 * integrate._SIM_CHUNK), "--seed", "3"]
    # --out names a directory: open fails before any writer starts
    assert _simulate_cli(monkeypatch, [*_KT_SIM, *steps, "--out", str(tmp_path)],
                         forked) == (3, 0)
    assert capsys.readouterr().err == \
        f"io error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    # every write fails, in the writer process or in this one
    assert _simulate_cli(monkeypatch, [*_KT_SIM, *steps, "--out", "/dev/full"],
                         forked) == (3, int(forked))
    assert capsys.readouterr().err == "io error: [Errno 28] No space left on device\n"


@_forks
def test_cli_simulate_killed_writer_exits_three(monkeypatch, tmp_path, capsys):
    rows = cli._csv_rows
    calls = []

    def rows_then_die(*args):
        calls.append(1)
        if len(calls) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return rows(*args)

    monkeypatch.setattr(cli, "_csv_rows", rows_then_die)
    argv = [*_KT_SIM, "--steps", str(4 * integrate._SIM_CHUNK), "--seed", "3",
            "--out", str(tmp_path / "t.csv")]
    assert _simulate_cli(monkeypatch, argv, True) == (3, 1)
    assert capsys.readouterr().err == \
        f"io error: the CSV writer was killed by signal {int(signal.SIGKILL)}\n"
    assert calls == []  # the rows were formatted in the writer process only


@_forks
def test_cli_simulate_writer_exits_eio_on_a_torn_row(monkeypatch, tmp_path, capsys):
    # the pipe carries bare float64 rows: one that ends inside a row is an
    # error of the writer, not a short trajectory
    def torn(*args):
        yield np.zeros((2, 2))
        yield np.zeros(3)

    monkeypatch.setattr(cli, "_state_chunks", torn)
    argv = [*_KT_SIM, "--out", str(tmp_path / "t.csv")]
    assert _simulate_cli(monkeypatch, argv, True) == (3, 1)
    assert capsys.readouterr().err == "io error: [Errno 5] Input/output error\n"


@_forks
def test_cli_simulate_forks_only_for_long_runs(monkeypatch, tmp_path, capsys):
    least = cli._FORK_MIN_STEPS
    assert least > integrate._SIM_CHUNK
    for steps, forks in ((least - 1, 0), (least, 1)):
        argv = [*_KT_SIM, "--steps", str(steps), "--out", str(tmp_path / "t.csv")]
        assert _simulate_cli(monkeypatch, argv, True, least) == (0, forks)
        assert capsys.readouterr().out == f"wrote {tmp_path / 't.csv'}: {steps + 1} states\n"


@_forks
@pytest.mark.parametrize("refused, err", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)])
def test_cli_simulate_writes_in_process_without_a_child(
        monkeypatch, tmp_path, capsys, refused, err):
    argv = [*_KT_SIM, "--steps", str(3 * integrate._SIM_CHUNK), "--seed", "3"]
    expect, out = tmp_path / "expect.csv", tmp_path / "out.csv"
    assert _simulate_cli(monkeypatch, [*argv, "--out", str(expect)], False) == (0, 0)

    def refuse(*args):
        raise OSError(err, os.strerror(err))

    monkeypatch.setattr(os, refused, refuse)
    fds = os.listdir("/proc/self/fd")
    assert _simulate_cli(monkeypatch, [*argv, "--out", str(out)], True) == (0, 0)
    assert os.listdir("/proc/self/fd") == fds
    states = 3 * integrate._SIM_CHUNK + 1
    assert capsys.readouterr() == (f"wrote {expect}: {states} states\n"
                                   f"wrote {out}: {states} states\n", "")
    assert out.read_bytes() == expect.read_bytes()


def test_cli_lyapunov_fd_line(capsys):
    code = main(["lyapunov", "--model", "bell", "--equilibrium", "P1",
                 "--alpha", "0.0", "--beta", "-2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda=") and "method=fd" in out
    lam = float(out.split()[0].split("=")[1])
    p1 = model_equilibria(bell_model())[0][0]
    a_mat = linearize(bell_model(), alpha_family(0.0, -2.0), p1).A
    exact = float(alpha_exact.top_lyapunov(a_mat, 0.0, -2.0))
    assert abs(lam - exact) <= 1e-12 * (1 + abs(exact)), (lam, exact)


def test_cli_sweep_csv_and_footer(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--model", "bell", "--equilibrium", "P1",
                 "--beta", "-2", "--alpha=-4:4:0.5", "--method", "fd",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,lambda,method,stderr"
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 18  # header + 17 grid points
    assert sum(l.startswith("# sign_change") for l in lines) == 2
    assert sum(l.startswith("# stable") for l in lines) == 2
    assert all(l.split(",")[3] == "0" for l in data[1:])  # fd stderr zeros


def test_cli_sweep_mc_stderr_populated(tmp_path):
    out = tmp_path / "sweep_mc.csv"
    code = main(["sweep", "--model", "bell", "--equilibrium", "P1",
                 "--beta", "-2", "--alpha=0:1:0.5", "--method", "mc",
                 "--horizon", "2", "--dt", "0.01", "--paths", "8",
                 "--out", str(out)])
    assert code == 0
    rows = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert all(float(r.split(",")[3]) > 0 for r in rows)


def test_cli_mc_overflow_is_a_numerical_failure(capsys, tmp_path):
    # q2^2 overflows at alpha 1e200: mc's -inf is refused, as fd's is
    head = ["--model", "bell", "--equilibrium", "P1", "--beta", "-2", "--method", "mc",
            "--horizon", "0.01", "--dt", "1e-3", "--paths", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lyapunov", *head, "--alpha", "1e200"]) == 3
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("numerical failure: lambda=-inf")
        # in a sweep each such point is its own failure, not a stable -inf
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *head, "--alpha=0:2e200:1e200", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [l.split(",")[1] for l in lines[2:4]] == ["nan", "nan"]
    failures = [l for l in lines if l.startswith("# failure")]
    assert len(failures) == 2 and all(l.endswith("the Euler steps overflow") for l in failures)
    assert not any(l.startswith("# stable") and "e+200" in l for l in lines)


def test_cli_help_and_no_args(capsys):
    assert main([]) == 0
    assert "usage" in capsys.readouterr().out
    assert main(["--help"]) == 0


def test_cli_equilibrium_selector_errors(capsys):
    assert main(["simulate", "--model", "kt", "--params", "a1=1.0",
                 "--equilibrium", "P2"]) == 2
    err = capsys.readouterr().err
    assert "equilibrium" in err


@pytest.mark.parametrize("sel", ["²", "٣"])  # superscript 2, Arabic-Indic 3
def test_cli_equilibrium_index_must_be_ascii_digits(capsys, sel):
    assert main(["lyapunov", "--equilibrium", sel]) == 2
    assert capsys.readouterr().err == (
        f"config error: equilibrium: must be P1, P2 or an index, got {sel!r}\n")


def test_cli_lyapunov_closed_line_and_unresolvable_exit_three(capsys):
    argv = ["lyapunov", "--model", "bell", "--equilibrium", "P1",
            "--alpha", "1.5", "--beta", "-2", "--method", "closed"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda=0.67407295079") and "method=closed" in out
    assert main(argv[:-4] + ["--beta", "0.01", "--method", "closed"]) == 0
    assert "method=closed" in capsys.readouterr().out
    # at beta = 0.001 the angle density is too sharp for the mode cap
    assert main(argv[:-4] + ["--beta", "0.001", "--method", "closed"]) == 3
    assert "not resolved by 1024 modes" in capsys.readouterr().err


_OVERFLOW = "lambda or the tail is not finite: the solve overflows"


def test_cli_non_finite_exponent_fails_its_own_point(tmp_path, capsys):
    # alpha^2 overflows from |alpha| ~ 1.34e154, so fd's and closed's
    # lambda is not finite there.  Each is one point's failure, without a
    # warning, and its neighbours keep their exponents
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lyapunov", "--alpha", "2e154", "--method", "fd"]) == 3
        assert capsys.readouterr() == ("", f"numerical failure: {_OVERFLOW}\n")
        for method, grid, bad in (("fd", "-2e154:2e154:2e154", (0, 2)),
                                  ("closed", "-2e154:2e154:2e154", (0, 2))):
            assert main(["lyapunov", "--alpha", "0", "--method", method]) == 0
            zero = capsys.readouterr().out.split()[0][len("lambda="):]
            out = tmp_path / f"{method}.csv"
            assert main(["sweep", f"--alpha={grid}", "--method", method,
                         "--out", str(out)]) == 0
            capsys.readouterr()
            lines = out.read_text(encoding="utf-8").splitlines()
            rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
            assert [r[1] for r in rows] == \
                ["nan" if k in bad else zero for k in range(len(rows))]
            assert [line for line in lines if line.startswith("#")] == \
                [f"# failure alpha={rows[k][0]}: {_OVERFLOW}" for k in bad]


def test_cli_closed_beta_overflow_fails_as_fd(tmp_path, capsys):
    # beta ** 2 overflows at beta = 1e200: closed fails as fd does, exit 3
    # with fd's message and no warning, and a sweep records it per point
    argv = ["--model", "bell", "--equilibrium", "P1", "--beta", "1e200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("fd", "closed"):
            assert main(["lyapunov", *argv, "--alpha", "0.5", "--method", method]) == 3
            assert capsys.readouterr() == ("", f"numerical failure: {_OVERFLOW}\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", *argv, "--alpha=0:1:0.5", "--method", "closed",
                     "--out", str(out)]) == 0
    failures = [line for line in out.read_text(encoding="utf-8").splitlines()
                if line.startswith("# failure")]
    assert failures == [f"# failure alpha={a}: {_OVERFLOW}" for a in ("0", "0.5", "1")]


_MC_OVERFLOW = "lambda=nan, stderr=nan: the Euler steps overflow"


@pytest.mark.parametrize("method, noise, msg", [
    ("fd", "1e200,-1e200,1e200,1e200", _OVERFLOW),
    ("fd", "2,-1e308,1e200,-0.5",
     "q4 has real zeros, where the angle diffusion vanishes; use the mc method"),
    ("mc", "1e200,-1e200,1e200,1e200", _MC_OVERFLOW),
    ("mc", "2,-1e308,1e200,-0.5", _MC_OVERFLOW),
], ids=["fd-1e200", "fd-1e308", "mc-1e200", "mc-1e308"])
def test_cli_overflowing_noise_fails_without_a_warning(capsys, method, noise, msg):
    # the angle rows overflow as they are built; the method refuses them,
    # and its message is all that stderr holds
    argv = ["lyapunov", "--model", "bell", "--equilibrium", "P1", "--noise", noise,
            "--method", method]
    if method == "mc":
        argv += ["--horizon", "0.01", "--dt", "1e-3", "--paths", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    assert capsys.readouterr() == ("", f"numerical failure: {msg}\n")


@pytest.mark.parametrize("command, extra", [("lyapunov", ["--method", "fd"]),
                                            ("lyapunov", ["--method", "closed"]),
                                            ("simulate", [])],
                         ids=["lyapunov-fd", "lyapunov-closed", "simulate"])
def test_cli_single_alpha_commands_reject_a_range(capsys, tmp_path, command, extra):
    # a range was ignored: lyapunov fell back to the default KT noise
    argv = [command, "--model", "bell", "--alpha=-1:1:0.5", *extra]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: alpha: {command} needs a single alpha, not a range\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("method", ["fd", "closed", "mc"])
def test_cli_sweep_rejects_noise(capsys, tmp_path, method):
    # --noise was ignored: sweep ran the alpha family and exited 0; it is
    # not a sweep flag, and a noise matrix from a file is refused too
    argv = ["sweep", "--model", "bell", "--alpha=-1:1:0.5", "--method", method,
            "--out", str(tmp_path / "sweep.csv")]
    assert main([*argv, "--noise", "1,2,3,4"]) == 2
    assert capsys.readouterr().err == "config error: noise: sweep does not read it\n"
    f = tmp_path / "noise.cfg"
    f.write_text("noise = 1,2,3,4\n", encoding="utf-8")
    assert main([*argv, "--config", str(f)]) == 2
    assert capsys.readouterr().err == (
        "config error: noise: sweep uses the alpha/beta family, not a noise matrix\n")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["lyapunov", "sweep"])
def test_cli_independent_noise_streams_exit_two(capsys, tmp_path, command):
    # lyapunov printed the shared-noise exponent under --noise-streams
    # independent and exited 0: the answer for a different SDE
    argv = [command, "--model", "bell", "--equilibrium", "P1", "--alpha=-1:1:0.5",
            "--out", str(tmp_path / "sweep.csv")] if command == "sweep" else [
        command, "--model", "bell", "--equilibrium", "P1", "--noise", "1,0.3,-0.5,0.8"]
    want = (f"config error: noise_streams: {command} solves the SDE with one "
            "shared Wiener process only\n")
    assert main([*argv, "--noise-streams", "independent"]) == 2
    assert capsys.readouterr().err == want
    f = tmp_path / "streams.cfg"
    f.write_text("noise_streams = independent\n", encoding="utf-8")
    assert main([*argv, "--config", str(f)]) == 2
    assert capsys.readouterr().err == want
    assert not (tmp_path / "sweep.csv").exists()
    # the file's shared streams are the default, not read
    f.write_text("noise_streams = shared\n", encoding="utf-8")
    assert main([*argv, "--config", str(f)]) == 0


_DROPPED = [
    # --noise replaced --alpha: lambda = -0.45388...
    (["lyapunov", "--model", "bell", "--alpha", "1", "--noise", "1,0.3,-0.5,0.8"],
     "alpha: the noise matrix replaces the alpha/beta family; give one or the other"),
    (["lyapunov", "--model", "bell", "--noise", "1,0.3,-0.5,0.8", "--beta", "-1"],
     "beta: the noise matrix replaces the alpha/beta family; give one or the other"),
    (["simulate", "--model", "kt", "--beta=-1", "--noise", "1,0,0,1", "--steps", "5"],
     "beta: the noise matrix replaces the alpha/beta family; give one or the other"),
    # fd takes no mc sizes, lyapunov no trajectory flags and writes no file
    (["lyapunov", "--model", "bell", "--method", "fd", "--paths", "5", "--horizon", "3",
      "--scheme", "euler2", "--steps", "9", "--x0", "4", "--out", "f.csv"],
     "paths: lyapunov reads it only with --method mc"),
    (["lyapunov", "--model", "bell", "--scheme", "euler2", "--steps", "9", "--x0", "4",
      "--out", "f.csv"], "scheme: lyapunov does not read it"),
    (["lyapunov", "--model", "bell", "--alpha", "0.5", "--method", "fd", "--paths", "5"],
     "paths: lyapunov reads it only with --method mc"),
    (["equilibria", "--method", "mc", "--alpha", "3", "--paths", "9"],
     "method: equilibria does not read it"),
    (["sweep", "--model", "bell", "--alpha=-1:1:0.5", "--steps", "9"],
     "steps: sweep does not read it"),
    (["sweep", "--model", "bell", "--alpha=-1:1:0.5", "--method", "closed", "--seed", "3"],
     "seed: sweep reads it only with --method mc"),
    # the file's noise replaced a line --alpha or --beta: lambda = -0.45388...
    (["lyapunov", "--model", "bell", "--config", "noise.cfg", "--alpha", "1"],
     "alpha: the noise matrix replaces the alpha/beta family; give one or the other"),
    (["simulate", "--model", "kt", "--config", "noise.cfg", "--beta=-1", "--steps", "5"],
     "beta: the noise matrix replaces the alpha/beta family; give one or the other"),
    # --beta without an alpha kept the default noise: lambda = -48.2714...
    (["lyapunov", "--model", "bell", "--beta", "-1"],
     "beta: the alpha/beta family needs an alpha; without one the default noise "
     "matrix is used"),
]


@pytest.mark.parametrize("argv, msg", _DROPPED, ids=range(len(_DROPPED)))
def test_cli_flags_a_command_drops_exit_two(capsys, tmp_path, monkeypatch, argv, msg):
    monkeypatch.chdir(tmp_path)
    if "--config" in argv:
        (tmp_path / "noise.cfg").write_text("noise = 1,0.3,-0.5,0.8\n", encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {msg}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["noise.cfg"] if "--config" in argv else [])


def test_cli_config_file_may_hold_other_commands_keys(capsys, tmp_path, monkeypatch):
    # one file serves simulate and lyapunov: lyapunov fd does not read its
    # trajectory and mc keys, and prints what it prints without the file
    monkeypatch.chdir(tmp_path)
    f = tmp_path / "shared.cfg"
    f.write_text("model = bell\nalpha = 0.5\nscheme = euler2\nsteps = 9\nx0 = 4\n"
                 "paths = 5\nhorizon = 3\nseed = 8\nout = never.csv\n", encoding="utf-8")
    assert main(["lyapunov", "--config", str(f)]) == 0
    with_file = capsys.readouterr().out
    assert main(["lyapunov", "--model", "bell", "--alpha", "0.5"]) == 0
    assert capsys.readouterr().out == with_file
    assert not (tmp_path / "never.csv").exists()


def test_cli_builds_the_preset_once(monkeypatch, tmp_path):
    # make_model built the preset and the closed-form equilibria built it
    # again
    built = []

    class Counted(models.ModelSpec):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("name"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(models, "ModelSpec", Counted)
    assert main(["sweep", "--model", "bell", "--equilibrium", "P1", "--alpha=-1:1:0.5",
                 "--method", "closed", "--out", str(tmp_path / "s.csv")]) == 0
    assert built == ["bell"]


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_runtime_imports_without_scipy():
    code = ("import tumorsde, tumorsde.cli, sys; assert not any("
            "m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True)


def test_cli_runs_as_a_module(tmp_path):
    # python -m tumorsde.cli exited 0 without running anything
    argv = ["sweep", "--model", "bell", "--equilibrium", "P1", "--beta", "-2",
            "--alpha=-4:4:0.5", "--method", "closed"]
    assert main([*argv, "--out", str(tmp_path / "in_process.csv")]) == 0
    module = [sys.executable, "-m", "tumorsde.cli"]
    run = subprocess.run([*module, *argv, "--out", str(tmp_path / "module.csv")],
                         env=_src_env(), capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "module.csv").read_bytes() == \
        (tmp_path / "in_process.csv").read_bytes()
    run = subprocess.run([*module, *argv, "--no-such-key", "1"], env=_src_env(),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stderr == "config error: no_such_key: unknown key\n"
