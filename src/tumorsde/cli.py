"""Command-line interface and CSV emission.

Commands: equilibria, simulate, lyapunov, sweep.  Flags may also be
given through a line-oriented config file (``key = value``, ``#``
comments, UTF-8) named by --config; explicit flags override file
values.  Reals in CSV output are rendered with 17 significant digits so
repeated seeded runs are byte-identical and values round-trip losslessly.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(degenerate angle diffusion, blow-up before the first completed step).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrate import SimConfig, Trajectory, simulate
from .lyapunov import (
    DegeneratePhaseDiffusionError,
    SweepResult,
    closed_form_lyapunov,
    lyapunov_fd,
    lyapunov_mc,
    mc_step_count,
    stability_sweep,
)
from .models import (
    DegenerateEquilibriumError,
    DomainError,
    Equilibrium,
    KTParams,
    Mat2,
    State,
    bell_equilibria,
    find_equilibria_numeric,
    kt_equilibria,
    kt_p2_status,
    make_model,
)
from .sde import KT_NOISE, NotAnEquilibriumError, alpha_family, \
    diffusion_at_equilibrium, linearize

__all__ = ["RunConfig", "ConfigError", "parse_config", "emit_config",
           "emit_trajectory_csv", "emit_sweep_csv", "emit_equilibria_csv",
           "main", "entry"]

COMMANDS = ("equilibria", "simulate", "lyapunov", "sweep")

USAGE = """\
usage: tumorsde COMMAND [flags] [--config FILE]

commands:
  equilibria   report the model's equilibria
  simulate     integrate one (stochastic) trajectory to CSV
  lyapunov     top Lyapunov exponent of the linearized system
  sweep        lambda(alpha) over an alpha grid, with zero crossings

shared flags:
  --model NAME            kt | volterra | bell | stepanova | vladar |
                          exponential | logistic   (default kt)
  --params k=v[,k=v...]   coefficient overrides for the preset
  --equilibrium SEL       P1 | P2 | integer index  (default P1)
  --noise m11,m12,m21,m22 full noise matrix (default 10,-2,2,10)
  --alpha X | lo:hi:step  alpha-family noise [[a,-b],[b,a]]; a range for sweep
  --beta X                alpha-family beta (default -2)
  --method M              fd | closed | mc  (default fd)
  --grid-n N              density steps over [0, pi] (default 10000)
  --dt X                  time step         (default 0.001)
  --steps N               trajectory steps  (default 1000)
  --paths N               mc paths          (default 64)
  --horizon T             mc horizon        (default 200)
  --seed N                master seed       (default 1)
  --out PATH              output CSV path
  --config FILE           read key = value defaults from FILE

simulate flags:
  --scheme S              euler1 | euler2   (default euler1)
  --x0 X, --y0 Y          initial state (default: the chosen equilibrium)
  --noise-streams S       shared | independent (default shared)
"""


class ConfigError(ValueError):
    def __init__(self, key: str, msg: str):
        super().__init__(f"{key}: {msg}")
        self.key = key


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: str = "kt"
    params: tuple = ()  # sorted (key, value) pairs
    equilibrium: str = "P1"
    noise: Optional[Mat2] = None
    alpha: Optional[float] = None
    alpha_range: Optional[tuple] = None  # (lo, hi, step)
    beta: float = -2.0
    method: str = "fd"
    grid_n: int = 10000
    dt: float = 1e-3
    steps: int = 1000
    paths: int = 64
    horizon: float = 200.0
    seed: int = 1
    out: Optional[str] = None
    scheme: str = "euler1"
    x0: Optional[float] = None
    y0: Optional[float] = None
    noise_streams: str = "shared"


def _parse_float(key, v):
    try:
        x = float(v)
    except ValueError:
        raise ConfigError(key, f"malformed number {v!r}") from None
    if not math.isfinite(x):
        raise ConfigError(key, f"value must be finite, got {v!r}")
    return x


def _parse_int(key, v):
    try:
        return int(v)
    except ValueError:
        raise ConfigError(key, f"malformed integer {v!r}") from None


def _choice(*choices):
    """Parser of one of the given words."""
    def parse(key, v):
        if v not in choices:
            raise ConfigError(key, f"must be one of {'|'.join(choices)}, got {v!r}")
        return v
    return parse


def _bounded_int(lo, hi, what="must be"):
    """Parser of an integer in [lo, hi]."""
    def parse(key, v):
        n = _parse_int(key, v)
        if n < lo:
            raise ConfigError(key, f"{what} >= {lo}, got {n}")
        if n > hi:
            raise ConfigError(key, f"{what} <= {hi}, got {n}")
        return n
    return parse


def _positive_float(key, v):
    x = _parse_float(key, v)
    if x <= 0:
        raise ConfigError(key, f"must be > 0, got {v}")
    return x


def _parse_params(key, v):
    """k=v[,k=v...] as sorted (key, value) pairs."""
    out = {}
    if not v.strip():
        return ()
    for item in v.split(","):
        if "=" not in item:
            raise ConfigError(key, f"expected k=v, got {item!r}")
        k, val = item.split("=", 1)
        out[k.strip()] = _parse_float(key, val.strip())
    return tuple(sorted(out.items()))


def _parse_equilibrium(key, v):
    if v not in ("P1", "P2") and not (v.isascii() and v.isdigit()):
        raise ConfigError(key, f"must be P1, P2 or an index, got {v!r}")
    return v


def _parse_noise(key, v):
    parts = v.split(",")
    if len(parts) != 4:
        raise ConfigError(key, "expected four comma-separated reals m11,m12,m21,m22")
    m = [_parse_float(key, p.strip()) for p in parts]
    return Mat2(*m)


# Sizes above these allocate without useful bound; they are rejected
# while parsing, before anything is allocated.
_MAX_STEPS = 10 ** 7
_MAX_GRID_N = 10 ** 6
_MAX_PATHS = 10 ** 4
_MAX_ALPHA_POINTS = 10 ** 6


def _parse_alpha(key, v):
    """A single real, or an inclusive lo:hi:step range of at most
    _MAX_ALPHA_POINTS points; returns (alpha, alpha_range)."""
    if ":" in v:
        parts = v.split(":")
        if len(parts) != 3:
            raise ConfigError(key, "range must be lo:hi:step")
        lo, hi, step = (_parse_float(key, p) for p in parts)
        if step <= 0:
            raise ConfigError(key, "range step must be > 0")
        if hi < lo:
            raise ConfigError(key, "range needs hi >= lo")
        # alpha_range_values' point count, floor((hi - lo) / step + 0.5) + 1,
        # compared as a float so that an overflowing range is rejected too
        if not (hi - lo) / step + 0.5 < _MAX_ALPHA_POINTS:
            raise ConfigError(key, f"range has more than {_MAX_ALPHA_POINTS} points")
        return None, (lo, hi, step)
    return _parse_float(key, v), None


def alpha_range_values(lo: float, hi: float, step: float) -> np.ndarray:
    """Grid lo, lo+step, ... inclusive of hi within half a step."""
    count = int(math.floor((hi - lo) / step + 0.5)) + 1
    vals = lo + step * np.arange(count)
    return vals[vals <= hi + 0.5 * step]


# config key -> parser(key, text) of its RunConfig value
_PARSERS = {
    "model": _choice("kt", "volterra", "bell", "stepanova", "vladar",
                     "exponential", "logistic"),
    "params": _parse_params,
    "equilibrium": _parse_equilibrium,
    "noise": _parse_noise,
    "alpha": _parse_alpha,
    "beta": _parse_float,
    "method": _choice("fd", "closed", "mc"),
    "grid_n": _bounded_int(2, _MAX_GRID_N, "grid size must be"),
    "dt": _positive_float,
    "steps": _bounded_int(1, _MAX_STEPS),
    "paths": _bounded_int(1, _MAX_PATHS),
    "horizon": _positive_float,
    "seed": _parse_int,
    "out": lambda key, v: v,
    "scheme": _choice("euler1", "euler2"),
    "x0": _parse_float,
    "y0": _parse_float,
    "noise_streams": _choice("shared", "independent"),
    "command": _choice(*COMMANDS),
}
_KEYS = (*_PARSERS, "config")


def _convert(key, val, cfg_dict):
    value = _PARSERS[key](key, val)  # keys were checked against _KEYS
    if key == "alpha":
        cfg_dict["alpha"], cfg_dict["alpha_range"] = value
    else:
        cfg_dict[key] = value


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _PARSERS:
            raise ConfigError(key, "unknown key")
        out[key] = val
    return out


def parse_config(argv) -> RunConfig:
    """Merge defaults, config-file values and command-line flags.

    Raises ConfigError on unknown keys, malformed numbers, values out
    of their documented ranges, or an mc lyapunov/sweep run whose Euler
    step count round(horizon / dt) is not 1 to 10^7.
    """
    tokens = list(argv)
    command = None
    if tokens and not tokens[0].startswith("-"):
        command = tokens.pop(0)
        if command not in COMMANDS:
            raise ConfigError("command", f"unknown command {command!r}")
    flags = {}
    while tokens:
        tok = tokens.pop(0)
        if not tok.startswith("--"):
            raise ConfigError("command", f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, val = body.split("=", 1)
        else:
            key = body
            if not tokens:
                raise ConfigError(key.replace("-", "_"), "missing value")
            val = tokens.pop(0)
        key = key.replace("-", "_")
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
        flags[key] = val

    cfg: dict = {}
    if "config" in flags:
        for key, val in _read_config_file(flags.pop("config")).items():
            _convert(key, val, cfg)
    for key, val in flags.items():  # explicit flags override file values
        _convert(key, val, cfg)
    if command is not None:
        cfg["command"] = command
    if "command" not in cfg:
        raise ConfigError("command", "no command given (on the line or in the file)")
    run = RunConfig(**cfg)
    if run.command in ("lyapunov", "sweep") and run.method == "mc":
        try:
            mc_step_count(run.horizon, run.dt)
        except ValueError as exc:
            raise ConfigError("horizon", str(exc)) from None
    return run


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def emit_config(cfg: RunConfig) -> str:
    """Serialize the effective configuration in config-file syntax."""
    lines = [f"command = {cfg.command}", f"model = {cfg.model}"]
    if cfg.params:
        lines.append("params = " + ",".join(f"{k}={_fmt(v)}" for k, v in cfg.params))
    lines.append(f"equilibrium = {cfg.equilibrium}")
    if cfg.noise is not None:
        b = cfg.noise
        lines.append("noise = " + ",".join(_fmt(v) for v in
                                           (b.a11, b.a12, b.a21, b.a22)))
    if cfg.alpha is not None:
        lines.append(f"alpha = {_fmt(cfg.alpha)}")
    if cfg.alpha_range is not None:
        lo, hi, step = cfg.alpha_range
        lines.append(f"alpha = {_fmt(lo)}:{_fmt(hi)}:{_fmt(step)}")
    lines += [
        f"beta = {_fmt(cfg.beta)}",
        f"method = {cfg.method}",
        f"grid_n = {cfg.grid_n}",
        f"dt = {_fmt(cfg.dt)}",
        f"steps = {cfg.steps}",
        f"paths = {cfg.paths}",
        f"horizon = {_fmt(cfg.horizon)}",
        f"seed = {cfg.seed}",
        f"scheme = {cfg.scheme}",
        f"noise_streams = {cfg.noise_streams}",
    ]
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    if cfg.x0 is not None:
        lines.append(f"x0 = {_fmt(cfg.x0)}")
    if cfg.y0 is not None:
        lines.append(f"y0 = {_fmt(cfg.y0)}")
    return "\n".join(lines) + "\n"


_CSV_CHUNK = 4096  # trajectory rows formatted per write
_CSV_ROW = "%d,%.17g,%.17g,%.17g\n"


def emit_trajectory_csv(t: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,t,x,y\n")
        for start in range(0, len(t.times), _CSV_CHUNK):
            stop = start + _CSV_CHUNK
            # rows (n, t, x, y), each formatted by one % of _CSV_ROW
            rows = zip(range(start, stop), t.times[start:stop].tolist(),
                       *t.states[start:stop].T.tolist())
            fh.write("".join(map(_CSV_ROW.__mod__, rows)))
        if t.blowup_index is not None:
            fh.write(f"# blowup at n={t.blowup_index}\n")


def emit_sweep_csv(r: SweepResult, path: str) -> None:
    lines = ["alpha,lambda,method,stderr"]
    for a, lam, se in zip(r.alphas, r.lambdas, r.stderrs):
        lines.append(f"{_fmt(a)},{_fmt(lam)},{r.method},{_fmt(se)}")
    for lo, hi in r.sign_changes:
        lines.append(f"# sign_change lo={_fmt(lo)} hi={_fmt(hi)}")
    for lo, hi in r.stable_set:
        lines.append(f"# stable lo={_fmt(lo)} hi={_fmt(hi)}")
    for a, msg in r.failures:
        lines.append(f"# failure alpha={_fmt(a)}: {msg}")
    _write(path, lines)


def emit_equilibria_csv(eqs, path: str, notes=()) -> None:
    lines = ["label,x,y,residual"]
    for e in eqs:
        lines.append(f"{e.label},{_fmt(e.point.x)},{_fmt(e.point.y)},{_fmt(e.residual)}")
    for note in notes:
        lines.append(f"# {note}")
    _write(path, lines)


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _model_equilibria(cfg: RunConfig):
    model = make_model(cfg.model, dict(cfg.params))
    notes = []
    if cfg.model == "kt":
        p = KTParams(**dict(model.params))
        eqs = kt_equilibria(p)
        status = kt_p2_status(p)
        if "omitted" in status:
            notes.append(status)
    elif cfg.model == "bell":
        from .models import BellParams
        eqs = bell_equilibria(BellParams(**dict(model.params)))
    else:
        eqs = find_equilibria_numeric(model, ((0.0, 50.0), (0.0, 50.0)), grid=8)
        if not eqs:
            notes.append("no equilibria found in box (0,50)^2")
    return model, eqs, notes


def _select_equilibrium(cfg: RunConfig, eqs) -> Equilibrium:
    sel = cfg.equilibrium
    if sel.isdigit():
        idx = int(sel)
        if idx >= len(eqs):
            raise ConfigError("equilibrium",
                              f"index {idx} out of range ({len(eqs)} found)")
        return eqs[idx]
    for e in eqs:
        if e.label == sel:
            return e
    raise ConfigError("equilibrium", f"{sel} not present for this model")


def _noise_matrix(cfg: RunConfig) -> Mat2:
    if cfg.noise is not None:
        return cfg.noise
    if cfg.alpha is not None:
        return alpha_family(cfg.alpha, cfg.beta)
    return KT_NOISE


def _cmd_equilibria(cfg: RunConfig) -> int:
    _, eqs, notes = _model_equilibria(cfg)
    for e in eqs:
        print(f"{e.label}  x={_fmt(e.point.x)}  y={_fmt(e.point.y)}  "
              f"residual={e.residual:.3e}")
    for note in notes:
        print(f"note: {note}")
    if cfg.out:
        emit_equilibria_csv(eqs, cfg.out, notes)
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    model, eqs, _ = _model_equilibria(cfg)
    eq = _select_equilibrium(cfg, eqs)
    diffusion = diffusion_at_equilibrium(_noise_matrix(cfg), eq)
    x0 = cfg.x0 if cfg.x0 is not None else eq.point.x
    y0 = cfg.y0 if cfg.y0 is not None else eq.point.y
    sim = SimConfig(dt=cfg.dt, steps=cfg.steps, initial=State(x0, y0),
                    scheme=cfg.scheme, noise_streams=cfg.noise_streams,
                    seed=cfg.seed)
    traj = simulate(model, diffusion, sim)
    if traj.blowup_index is not None and len(traj.states) == 1:
        print(f"numerical failure: blow-up at step 0 "
              f"(component diverged immediately)", file=sys.stderr)
        return 3
    out = cfg.out or "trajectory.csv"
    emit_trajectory_csv(traj, out)
    tail = f" (blow-up at n={traj.blowup_index})" if traj.blowup_index else ""
    print(f"wrote {out}: {len(traj.states)} states{tail}")
    return 0


def _cmd_lyapunov(cfg: RunConfig) -> int:
    model, eqs, _ = _model_equilibria(cfg)
    eq = _select_equilibrium(cfg, eqs)
    sys_lin = linearize(model, _noise_matrix(cfg), eq)
    if cfg.method == "fd":
        est = lyapunov_fd(sys_lin, n=cfg.grid_n)
    elif cfg.method == "closed":
        if cfg.alpha is None or cfg.noise is not None:
            raise ConfigError("method", "closed needs the alpha/beta noise family")
        est = closed_form_lyapunov(sys_lin.A, cfg.alpha, cfg.beta)
    else:
        est = lyapunov_mc(sys_lin, horizon=cfg.horizon, dt=cfg.dt,
                          paths=cfg.paths, seed=cfg.seed)
    diag = " ".join(f"{k}={v:.6g}" for k, v in est.diagnostics.items()
                    if isinstance(v, (int, float)))
    print(f"lambda={_fmt(est.value)} method={est.method} "
          f"stderr={_fmt(est.stderr)} n={est.n} {diag}")
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.alpha_range is None:
        raise ConfigError("alpha", "sweep needs an alpha range lo:hi:step")
    model, eqs, _ = _model_equilibria(cfg)
    eq = _select_equilibrium(cfg, eqs)
    lo, hi, step = cfg.alpha_range
    grid = alpha_range_values(lo, hi, step)
    result = stability_sweep(model, eq, cfg.beta, grid, method=cfg.method,
                             grid_n=cfg.grid_n,
                             horizon=cfg.horizon, dt=cfg.dt,
                             paths=cfg.paths, seed=cfg.seed)
    out = cfg.out or "sweep.csv"
    emit_sweep_csv(result, out)
    print(f"wrote {out}: {len(grid)} points")
    for b_lo, b_hi in result.sign_changes:
        print(f"sign change in [{_fmt(b_lo)}, {_fmt(b_hi)}]")
    for s_lo, s_hi in result.stable_set:
        print(f"stable for alpha in [{_fmt(s_lo)}, {_fmt(s_hi)}]")
    for a, msg in result.failures:
        print(f"warning: alpha={_fmt(a)}: {msg}", file=sys.stderr)
    return 0


_DISPATCH = {"equilibria": _cmd_equilibria, "simulate": _cmd_simulate,
             "lyapunov": _cmd_lyapunov, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, end="")
        return 0
    try:
        cfg = parse_config(argv)
        return _DISPATCH[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegeneratePhaseDiffusionError, NotAnEquilibriumError,
            DegenerateEquilibriumError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())
