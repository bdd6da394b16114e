"""Command-line interface and CSV emission.

Commands: equilibria, simulate, lyapunov, sweep.  Each reads its own
set of keys (_COMMAND_KEYS), and a flag outside it is a configuration
error.  The keys are the fields of RunConfig, each with its default
and its parser; alpha holds a real or a (lo, hi, step) range.  Keys
may also be given through a line-oriented config file
(``key = value``, ``#`` comments, UTF-8) named by --config; a file may
hold keys for other commands too, and explicit flags override its
values.  A key given twice on the line or in the file, or a coefficient
given twice in one params, is a configuration error.  Reals in CSV
output are rendered with 17 significant digits so repeated seeded runs
are byte-identical and values round-trip losslessly.

simulate's rows are written by _write_csv, here or in a forked child fed
raw float64 states; the command adds the blow-up trailer itself.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(degenerate angle diffusion, blow-up before the first completed step)
or an output file that cannot be written.
"""

from __future__ import annotations

import errno
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .integrate import _SIM_CHUNK, SimConfig, _state_chunks
from .lyapunov import (
    DegeneratePhaseDiffusionError,
    SweepResult,
    _fork_cpus,
    closed_form_lyapunov,
    lyapunov_fd,
    lyapunov_mc,
    mc_step_count,
    stability_sweep,
)
from .models import (
    _PRESETS,
    DomainError,
    Mat2,
    State,
    make_model,
    model_equilibria,
)
from .sde import KT_NOISE, NotAnEquilibriumError, alpha_family, \
    diffusion_at_equilibrium, linearize

__all__ = ["RunConfig", "ConfigError", "parse_config", "emit_sweep_csv",
           "emit_equilibria_csv", "main", "entry"]

# the keys each command reads; lyapunov and sweep add _MC_KEYS with --method mc
_COMMAND_KEYS = {
    "equilibria": ("model", "params", "out"),
    "simulate": ("model", "params", "equilibrium", "noise", "alpha", "beta", "dt",
                 "steps", "seed", "out", "scheme", "x0", "y0", "noise_streams"),
    "lyapunov": ("model", "params", "equilibrium", "noise", "alpha", "beta", "method"),
    "sweep": ("model", "params", "equilibrium", "alpha", "beta", "method", "out"),
}
_MC_KEYS = ("dt", "paths", "horizon", "seed")
COMMANDS = tuple(_COMMAND_KEYS)

USAGE = """\
usage: tumorsde COMMAND [flags] [--config FILE]

A flag not listed under its command exits 2.  A config file (key = value
lines, keys named as the flags with _ for -) may also hold keys that the
command does not read; explicit flags override it.

equilibria   report the model's equilibria
  --model NAME            kt | volterra | bell | stepanova | vladar |
                          exponential | logistic   (default kt)
  --params k=v[,k=v...]   coefficient overrides for the preset
  --out PATH              also write them to a CSV

simulate     integrate one (stochastic) trajectory to CSV
  --model, --params       as for equilibria
  --equilibrium SEL       P1 | P2 | integer index  (default P1)
  --noise m11,m12,m21,m22 full noise matrix (default 10,-2,2,10), or
  --alpha X, --beta X     alpha-family noise [[a,-b],[b,a]] (beta default -2)
  --scheme S              euler1 | euler2   (default euler1)
  --dt X, --steps N       time step and step count (default 0.001, 1000)
  --seed N                master seed       (default 1)
  --x0 X, --y0 Y          initial state (default: the chosen equilibrium)
  --noise-streams S       shared | independent (default shared)
  --out PATH              output CSV path   (default trajectory.csv)

lyapunov     top Lyapunov exponent of the linearized system
  --model, --params, --equilibrium, --noise, --alpha, --beta   as for simulate
  --method M              fd | closed | mc  (default fd)
  with --method mc only: --dt, --seed as for simulate, and
  --paths N, --horizon T  mc paths and horizon (default 64, 200)

sweep        lambda(alpha) over an alpha grid, with zero crossings
  --model, --params, --equilibrium, --beta   as for simulate
  --alpha lo:hi:step      the alpha grid
  --method M              fd | closed | mc  (default fd)
  --out PATH              output CSV path   (default sweep.csv)
  with --method mc only: --dt, --paths, --horizon, --seed as for lyapunov
"""


class ConfigError(ValueError):
    def __init__(self, key: str, msg: str):
        super().__init__(f"{key}: {msg}")
        self.key = key


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


def _bounded_int(lo, hi):
    """Parser of an integer in [lo, hi]."""
    def parse(key, v):
        n = _parse_int(key, v)
        if n < lo:
            raise ConfigError(key, f"must be >= {lo}, got {n}")
        if n > hi:
            raise ConfigError(key, f"must be <= {hi}, got {n}")
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
        k, val = (part.strip() for part in item.split("=", 1))
        if k in out:
            raise ConfigError(key, f"coefficient {k!r} given twice")
        out[k] = _parse_float(key, val)
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
_MAX_PATHS = 10 ** 4
_MAX_ALPHA_POINTS = 10 ** 6


def _parse_alpha(key, v):
    """A single real, or an inclusive lo:hi:step range of at most
    _MAX_ALPHA_POINTS points as (lo, hi, step)."""
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
        return lo, hi, step
    return _parse_float(key, v)


def alpha_range_values(lo: float, hi: float, step: float) -> np.ndarray:
    """Grid lo, lo+step, ... inclusive of hi within half a step."""
    count = int(math.floor((hi - lo) / step + 0.5)) + 1
    vals = lo + step * np.arange(count)
    return vals[vals <= hi + 0.5 * step]


def _key(default, parse):
    """A RunConfig field: its default and its parser(key, text)."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """One run's config, a field per key, read through its field's parser."""

    command: str = field(metadata={"parse": _choice(*COMMANDS)})
    model: str = _key("kt", _choice(*_PRESETS))
    params: tuple = _key((), _parse_params)  # sorted (key, value) pairs
    equilibrium: str = _key("P1", _parse_equilibrium)
    noise: Optional[Mat2] = _key(None, _parse_noise)
    alpha: Union[float, tuple, None] = _key(None, _parse_alpha)  # or (lo, hi, step)
    beta: float = _key(-2.0, _parse_float)
    method: str = _key("fd", _choice("fd", "closed", "mc"))
    dt: float = _key(1e-3, _positive_float)
    steps: int = _key(1000, _bounded_int(1, _MAX_STEPS))
    paths: int = _key(64, _bounded_int(1, _MAX_PATHS))
    horizon: float = _key(200.0, _positive_float)
    seed: int = _key(1, _parse_int)
    out: Optional[str] = _key(None, lambda key, v: v)
    scheme: str = _key("euler1", _choice("euler1", "euler2"))
    x0: Optional[float] = _key(None, _parse_float)
    y0: Optional[float] = _key(None, _parse_float)
    noise_streams: str = _key("shared", _choice("shared", "independent"))


# config key -> parser(key, text) of its RunConfig value
_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
_KEYS = (*_PARSERS, "config")


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
        if key in out:
            raise ConfigError(key, f"{path}:{lineno}: given twice in the file")
        out[key] = val
    return out


def parse_config(argv) -> RunConfig:
    """Merge defaults, config-file values and command-line flags.

    Raises ConfigError on unknown keys, a key given twice on the line or
    in the file, a coefficient given twice in params, a flag its command
    does not read (_check_flags), malformed numbers, values out of their
    documented ranges, a lyapunov or sweep run with independent noise streams, or
    an mc lyapunov/sweep run whose Euler step count round(horizon / dt)
    is not 1 to 10^7.
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
        if key in flags:
            raise ConfigError(key, "given twice on the command line")
        flags[key] = val

    file = _read_config_file(flags.pop("config")) if "config" in flags else {}
    # explicit flags override file values; keys were checked against _KEYS
    cfg = {key: _PARSERS[key](key, val) for key, val in (*file.items(), *flags.items())}
    if command is not None:
        cfg["command"] = command
    if "command" not in cfg:
        raise ConfigError("command", "no command given (on the line or in the file)")
    run = RunConfig(**cfg)
    if run.command in ("lyapunov", "sweep"):
        if run.noise_streams == "independent":
            raise ConfigError("noise_streams", f"{run.command} solves the SDE with "
                              "one shared Wiener process only")
        if run.method == "mc":
            try:
                mc_step_count(run.horizon, run.dt)
            except ValueError as exc:
                raise ConfigError("horizon", str(exc)) from None
    _check_flags(run, flags)
    return run


def _check_flags(run: RunConfig, flags) -> None:
    """ConfigError for a command-line flag that run's command would
    drop: a key outside its set, an mc key without --method mc, --alpha
    or --beta beside a noise matrix (from the line or the file), which
    replaces them, and --beta without an alpha, where the default noise
    matrix is used."""
    keys = _COMMAND_KEYS[run.command]
    mc = "method" in keys and run.method == "mc"
    for key in flags:
        if key in keys or key == "command" or (mc and key in _MC_KEYS):
            continue
        if "method" in keys and key in _MC_KEYS:
            raise ConfigError(key, f"{run.command} reads it only with --method mc")
        raise ConfigError(key, f"{run.command} does not read it")
    if "noise" not in keys:
        return
    if run.noise is not None:
        for key in ("alpha", "beta"):
            if key in flags:
                raise ConfigError(key, "the noise matrix replaces the alpha/beta "
                                  "family; give one or the other")
    elif "beta" in flags and run.alpha is None:
        raise ConfigError("beta", "the alpha/beta family needs an alpha; without "
                          "one the default noise matrix is used")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


_CSV_ROW = "%d,%.17g,%.17g,%.17g\n"
_SWEEP_ROW = "%.17g,%.17g,%s,%.17g"
# simulate forks its CSV writer only for runs of at least this many
# steps.  KT-P2 euler2 main with the two-call step, forked against
# in-process writer, 198 alternating rounds on a 2-vCPU VM with both CPUs
# free: the fork won 126 at 4096 steps (medians 19.1 against 22.2 ms),
# 172 at 8192 (29.6 / 43.7 ms) and 181 at 12288 (41.1 / 64.9 ms).  A fit
# of those medians gives a fixed cost of about 7 ms for the fork and
# about 2.6 ms saved per 1024-step chunk formatted beside the steps, so
# the medians break even near 2800 steps, but below 8192 the fork loses
# one round in three; with the second CPU busy it can lose at every length
_FORK_MIN_STEPS = 8192


def _csv_rows(n0: int, states, dt: float) -> str:
    """The CSV rows n0, n0 + 1, ... of the (k, 2) states, at the times
    dt * n of simulate, formatted by one % of _CSV_ROW repeated k times."""
    k = len(states)
    flat = [None] * (4 * k)
    flat[0::4] = range(n0, n0 + k)
    flat[1::4] = (dt * np.arange(n0, n0 + k)).tolist()
    flat[2::4] = states[:, 0].tolist()
    flat[3::4] = states[:, 1].tolist()
    return (_CSV_ROW * k) % tuple(flat)


def _write_csv(fh, blocks, dt: float) -> int:
    """Write the trajectory CSV header and the rows of the state blocks
    to fh; return the number of states."""
    fh.write("n,t,x,y\n")
    n = 0
    for states in blocks:
        fh.write(_csv_rows(n, states, dt))
        n += len(states)
    return n


def _writer_child(fh, r: int, w: int, dt: float) -> None:
    """The forked CSV writer: write to fh the CSV of the float64 state
    rows read from the pipe end r, then exit with status 0, or with the
    errno of an OSError (EIO for any other failure, such as a pipe that
    ends inside a row).  It never returns into the caller's code."""
    code = errno.EIO
    try:
        os.close(w)  # else the pipe would never end for this reader
        with fh, open(r, "rb") as pipe:
            # each read but the last holds _SIM_CHUNK rows
            reads = iter(lambda: pipe.read(16 * _SIM_CHUNK), b"")
            _write_csv(fh, (np.frombuffer(b).reshape(-1, 2) for b in reads), dt)
        code = 0
    except OSError as exc:
        if exc.errno and exc.errno < 256:  # an exit status holds 8 bits
            code = exc.errno
    finally:
        os._exit(code)


def _write_forked(fh, blocks, dt: float) -> int:
    """_write_csv through a forked writer, while this process goes on
    producing the blocks and sends their raw float64 rows down a pipe;
    where no pipe or child can be had (EMFILE, EAGAIN, ENOMEM) it is
    _write_csv in this process.  fh must hold no unwritten text: the
    writer writes through its copy of fh, and on return this process's
    fh writes after it, at the file offset the two share.  The writer
    is reaped on every path; an OSError carries its errno, or the
    signal that ended it."""
    r = w = None
    try:
        r, w = os.pipe()
        pid = os.fork()
    except OSError:
        for end in (r, w):
            if end is not None:
                os.close(end)
        return _write_csv(fh, blocks, dt)
    if pid == 0:
        _writer_child(fh, r, w, dt)
    os.close(r)
    n, broken = 0, None
    try:
        with open(w, "wb") as pipe:
            for states in blocks:
                pipe.write(states)
                n += len(states)
    except BrokenPipeError as exc:
        broken = exc  # the writer has exited; its status says why
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code > 0:
        raise OSError(code, os.strerror(code))
    if code < 0:
        raise OSError(f"the CSV writer was killed by signal {-code}")
    if broken is not None:
        raise broken
    return n


def emit_sweep_csv(r: SweepResult, path: str) -> None:
    lines = ["alpha,lambda,method,stderr"]
    # rows (alpha, lambda, method, stderr), each formatted by one % of _SWEEP_ROW
    lines += map(_SWEEP_ROW.__mod__, zip(r.alphas.tolist(), r.lambdas.tolist(),
                                         itertools.repeat(r.method),
                                         r.stderrs.tolist()))
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


def _model_at_equilibrium(cfg: RunConfig) -> tuple:
    """The built model and the equilibrium that cfg selects."""
    model = make_model(cfg.model, dict(cfg.params))
    eqs, _ = model_equilibria(model)
    sel = cfg.equilibrium
    if sel.isdigit():
        idx = int(sel)
        if idx >= len(eqs):
            raise ConfigError("equilibrium",
                              f"index {idx} out of range ({len(eqs)} found)")
        return model, eqs[idx]
    for e in eqs:
        if e.label == sel:
            return model, e
    raise ConfigError("equilibrium", f"{sel} not present for this model")


def _noise_matrix(cfg: RunConfig) -> Mat2:
    if isinstance(cfg.alpha, tuple):
        raise ConfigError("alpha", f"{cfg.command} needs a single alpha, not a range")
    if cfg.noise is not None:
        return cfg.noise
    if cfg.alpha is not None:
        return alpha_family(cfg.alpha, cfg.beta)
    return KT_NOISE


def _cmd_equilibria(cfg: RunConfig) -> int:
    eqs, notes = model_equilibria(make_model(cfg.model, dict(cfg.params)))
    for e in eqs:
        print(f"{e.label}  x={_fmt(e.point.x)}  y={_fmt(e.point.y)}  "
              f"residual={e.residual:.3e}")
    for note in notes:
        print(f"note: {note}")
    if cfg.out:
        emit_equilibria_csv(eqs, cfg.out, notes)
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    model, eq = _model_at_equilibrium(cfg)
    diffusion = diffusion_at_equilibrium(_noise_matrix(cfg), eq)
    x0 = cfg.x0 if cfg.x0 is not None else eq.point.x
    y0 = cfg.y0 if cfg.y0 is not None else eq.point.y
    sim = SimConfig(dt=cfg.dt, steps=cfg.steps, initial=State(x0, y0),
                    scheme=cfg.scheme, noise_streams=cfg.noise_streams,
                    seed=cfg.seed)
    blocks = _state_chunks(model, diffusion, sim)
    first = next(blocks)
    if len(first) == 1:  # a first chunk without a blow-up has 2 states or more
        print(f"numerical failure: blow-up at step 0 "
              f"(component diverged immediately)", file=sys.stderr)
        return 3
    out = cfg.out or "trajectory.csv"
    blocks = itertools.chain([first], blocks)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        # a second process formats the CSV while this one steps, where the
        # run is long enough to repay the fork (_FORK_MIN_STEPS)
        fork = sim.steps >= _FORK_MIN_STEPS and _fork_cpus() > 1
        n = (_write_forked if fork else _write_csv)(fh, blocks, cfg.dt)
        if n <= sim.steps:  # fewer than steps + 1 states: n is the blow-up index
            fh.write(f"# blowup at n={n}\n")
    tail = f" (blow-up at n={n})" if n <= sim.steps else ""
    print(f"wrote {out}: {n} states{tail}")
    return 0


def _cmd_lyapunov(cfg: RunConfig) -> int:
    model, eq = _model_at_equilibrium(cfg)
    sys_lin = linearize(model, _noise_matrix(cfg), eq)
    if cfg.method == "fd":
        est = lyapunov_fd(sys_lin)
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
    if cfg.noise is not None:
        raise ConfigError("noise", "sweep uses the alpha/beta family, not a noise matrix")
    if not isinstance(cfg.alpha, tuple):
        raise ConfigError("alpha", "sweep needs an alpha range lo:hi:step")
    model, eq = _model_at_equilibrium(cfg)
    grid = alpha_range_values(*cfg.alpha)
    result = stability_sweep(model, eq, cfg.beta, grid, method=cfg.method,
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
    except (DegeneratePhaseDiffusionError, FloatingPointError, NotAnEquilibriumError,
            DomainError) as exc:
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


if __name__ == "__main__":
    entry()
