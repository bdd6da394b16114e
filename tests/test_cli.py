"""Flag/config parsing, CSV emission, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tumorsde.cli import (
    ConfigError,
    alpha_range_values,
    emit_config,
    emit_sweep_csv,
    emit_trajectory_csv,
    main,
    parse_config,
)
from tumorsde.integrate import Trajectory
from tumorsde.lyapunov import SweepResult
from tumorsde.models import Mat2


def test_parse_sweep_example():
    cfg = parse_config(["sweep", "--model", "bell", "--equilibrium", "P1",
                        "--beta", "-2", "--alpha=-4:4:0.02", "--method", "fd"])
    assert cfg.command == "sweep" and cfg.model == "bell"
    assert cfg.alpha_range == (-4.0, 4.0, 0.02)
    grid = alpha_range_values(*cfg.alpha_range)
    assert len(grid) == 401
    assert grid[0] == -4.0 and abs(grid[-1] - 4.0) < 1e-12


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
    with pytest.raises(ConfigError, match="grid_n"):
        parse_config(["lyapunov", "--grid-n", "1"])
    with pytest.raises(ConfigError, match="wibble"):
        parse_config(["sweep", "--wibble", "3"])
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(["sweep", "--beta", "two"])
    with pytest.raises(ConfigError, match="command"):
        parse_config(["--model", "kt"])


def test_defaults():
    cfg = parse_config(["lyapunov"])
    assert cfg.model == "kt" and cfg.beta == -2.0 and cfg.grid_n == 10000
    assert cfg.dt == 1e-3 and cfg.seed == 1
    assert cfg.method == "fd" and cfg.equilibrium == "P1"


def test_removed_span_flag_is_unknown(capsys):
    assert main(["lyapunov", "--span", "pi"]) == 2
    assert "span: unknown key" in capsys.readouterr().err


def test_sizes_capped_before_allocation(capsys):
    caps = ["--steps", str(10 ** 7), "--grid-n", str(10 ** 6),
            "--paths", str(10 ** 4), "--alpha=0:999999:1"]  # 10**6 points
    cfg = parse_config(["sweep"] + caps)
    assert (cfg.steps, cfg.grid_n, cfg.paths) == (10 ** 7, 10 ** 6, 10 ** 4)
    over = [("steps", str(10 ** 7 + 1)), ("grid_n", str(10 ** 6 + 1)),
            ("paths", str(10 ** 4 + 1)), ("alpha", "0:1000000:1"),
            ("alpha", "0:1e9:1e-3"), ("alpha", "-1e300:1e300:1e-300")]
    for key, value in over:
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config(["sweep", f"--{key}={value}"])
    # this range used to overflow int() in alpha_range_values
    assert main(["sweep", "--model", "bell", "--alpha=-1e300:1e300:1e-300"]) == 2
    assert capsys.readouterr().err.startswith("config error: alpha:")


def test_mc_step_count_capped(capsys):
    mc = ["--method", "mc", "--paths", "1"]
    for cmd in ("lyapunov", "sweep"):
        for horizon, dt in (("1e300", "1e-300"), ("1e9", "1e-9"),
                            ("10000.001", "0.001"), ("0.0004", "0.001")):
            with pytest.raises(ConfigError, match="^horizon: "):
                parse_config([cmd, *mc, "--horizon", horizon, "--dt", dt])
        # 1 and 10**7 steps are accepted; fd runs take no steps
        parse_config([cmd, *mc, "--horizon", "0.001", "--dt", "0.001"])
        parse_config([cmd, *mc, "--horizon", "10000", "--dt", "0.001"])
        parse_config([cmd, "--horizon", "1e300", "--dt", "1e-300"])
    # this used to escape lyapunov_mc as an OverflowError
    assert main(["lyapunov", *mc, "--horizon", "1e300", "--dt", "1e-300"]) == 2
    assert capsys.readouterr().err.startswith("config error: horizon:")


def test_config_file_and_override(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# sweep settings\nmodel = bell\nbeta = -2\n"
                 "alpha = -1:1:0.5\nmethod = fd\ngrid_n = 500\n",
                 encoding="utf-8")
    cfg = parse_config(["sweep", "--config", str(f), "--grid-n", "800"])
    assert cfg.model == "bell"
    assert cfg.grid_n == 800  # flag overrides file
    assert cfg.alpha_range == (-1.0, 1.0, 0.5)


def test_config_file_errors(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("nonsense_key = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="nonsense_key"):
        parse_config(["sweep", "--config", str(f)])
    f.write_text("just a line without equals\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(["sweep", "--config", str(f)])


def test_config_roundtrip(tmp_path):
    cfg = parse_config(["sweep", "--model", "bell", "--equilibrium", "P2",
                        "--alpha=-2:2:0.25", "--beta", "-2", "--grid-n", "1234",
                        "--params", "a1=2.5,b3=0.9", "--seed", "7",
                        "--out", "x.csv"])
    f = tmp_path / "echo.cfg"
    f.write_text(emit_config(cfg), encoding="utf-8")
    cfg2 = parse_config(["--config", str(f)])
    assert cfg2 == cfg


def test_trajectory_csv_rows(tmp_path):
    t = Trajectory(times=np.array([0.0, 0.1, 0.2, 0.3]),
                   states=np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=float))
    p = tmp_path / "t.csv"
    emit_trajectory_csv(t, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "n,t,x,y"
    assert len(lines) == 5  # header + 4 data rows, no marker
    assert lines[1].startswith("0,0,1,2")


def test_trajectory_csv_blowup_marker(tmp_path):
    t = Trajectory(times=np.array([0.0, 0.1]),
                   states=np.array([[1, 2], [3, 4]], dtype=float),
                   blowup_index=2)
    p = tmp_path / "t.csv"
    emit_trajectory_csv(t, str(p))
    assert p.read_text().splitlines()[-1] == "# blowup at n=2"


def test_sweep_csv_empty(tmp_path):
    r = SweepResult(alphas=np.empty(0), lambdas=np.empty(0),
                    stderrs=np.empty(0), method="fd", sign_changes=[],
                    stable_set=[], failures=[])
    p = tmp_path / "s.csv"
    emit_sweep_csv(r, str(p))
    assert p.read_text() == "alpha,lambda,method,stderr\n"


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


def test_cli_config_error_exit_two(capsys):
    assert main(["simulate", "--dt", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "dt" in err
    assert main(["sweep", "--frobnicate", "1"]) == 2
    assert main(["lyapunov", "--model", "bogus"]) == 2


def test_cli_numerical_failure_exit_three(capsys):
    # b12 = b21 = 0.5: q4 = 0.5 cos(2 theta) vanishes on the grid
    code = main(["lyapunov", "--model", "kt", "--equilibrium", "P1",
                 "--noise", "0,0.5,0.5,0", "--method", "fd"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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


def test_cli_lyapunov_fd_line(capsys):
    code = main(["lyapunov", "--model", "bell", "--equilibrium", "P1",
                 "--alpha", "0.0", "--beta", "-2", "--grid-n", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda=") and "method=fd" in out
    lam = float(out.split()[0].split("=")[1])
    assert abs(lam - 1.8622) < 5e-3  # computed independently at n=2000


def test_cli_sweep_csv_and_footer(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--model", "bell", "--equilibrium", "P1",
                 "--beta", "-2", "--alpha=-4:4:0.5", "--method", "fd",
                 "--grid-n", "2000", "--out", str(out)])
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


def test_cli_help_and_no_args(capsys):
    assert main([]) == 0
    assert "usage" in capsys.readouterr().out
    assert main(["--help"]) == 0


def test_cli_equilibrium_selector_errors(capsys):
    assert main(["simulate", "--model", "kt", "--params", "a1=1.0",
                 "--equilibrium", "P2"]) == 2
    err = capsys.readouterr().err
    assert "equilibrium" in err


def test_cli_lyapunov_closed_line_and_unresolvable_exit_three(capsys):
    argv = ["lyapunov", "--model", "bell", "--equilibrium", "P1",
            "--alpha", "1.5", "--beta", "-2", "--method", "closed"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda=0.67407295079") and "method=closed" in out
    # beta = 0.01 puts the density exponent's amplitude far beyond exp's range
    assert main(argv[:-4] + ["--beta", "0.01", "--method", "closed"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_runtime_imports_without_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import tumorsde, tumorsde.cli, sys; assert not any("
            "m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
