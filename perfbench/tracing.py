"""Span tracing of ``tumorsde`` from outside the package.

The modules import each other's names directly (``from .lyapunov import
lyapunov_fd``), so a function is traced by rebinding its name in every
module that looks it up at call time.  Each call records a span (name,
start, end, parent) in memory; ``Tracer.metrics`` turns the spans of one
operation into per-layer times and counts.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

# module -> names looked up there at call time
CALL_SITES = {
    "cli": ("parse_config", "kt_equilibria", "bell_equilibria",
            "find_equilibria_numeric", "linearize", "stability_sweep",
            "lyapunov_fd", "closed_form_lyapunov", "lyapunov_mc", "simulate",
            "emit_sweep_csv", "emit_trajectory_csv"),
    "lyapunov": ("linearize", "lyapunov_fd", "closed_form_lyapunov",
                 "lyapunov_mc", "stationary_density_fd", "gaussian_pairs"),
    "integrate": ("gaussian_pairs", "wiener_increments", "euler1_step",
                  "euler2_step", "eval_vector_field", "diag_partials"),
}
STREAM_SITES = ("lyapunov", "integrate")  # modules that construct RngStream

ESTIMATORS = ("lyapunov.lyapunov_fd", "lyapunov.closed_form_lyapunov",
              "lyapunov.lyapunov_mc")
EQUILIBRIA = ("models.kt_equilibria", "models.bell_equilibria",
              "models.find_equilibria_numeric")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_fd_nodes(counts, args, kwargs, result):
    counts["fd_nodes"] += int(_arg(args, kwargs, 1, "n", 10000))


def _count_mc(counts, args, kwargs, result):
    horizon = _arg(args, kwargs, 1, "horizon", 200.0)
    dt = _arg(args, kwargs, 2, "dt", 1e-3)
    paths = _arg(args, kwargs, 3, "paths", 64)
    counts["mc_path_steps"] += int(paths) * int(round(horizon / dt))


def _count_normals(counts, args, kwargs, result):
    counts["normals"] += int(_arg(args, kwargs, 1, "count"))


def _count_csv(counts, args, kwargs, result):
    counts["csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_sweep(counts, args, kwargs, result):
    counts["grid_points"] += len(result.alphas)
    counts["sweep_failures"] += len(result.failures)


HOOKS = {
    "lyapunov.stationary_density_fd": _count_fd_nodes,
    "lyapunov.lyapunov_mc": _count_mc,
    "integrate.gaussian_pairs": _count_normals,
    "cli.emit_sweep_csv": _count_csv,
    "cli.emit_trajectory_csv": _count_csv,
    "lyapunov.stability_sweep": _count_sweep,
}


def span_name(fn) -> str:
    """'module.function' after the module that defines fn."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it its child spans cover
    (children clipped to the parent, overlaps counted once)."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered, reach = 0, s
        for c in sorted(children[i], key=starts.__getitem__):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(e - s - covered)
    return out


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.raised = []  # indexes of spans that ended in an exception
        self.counts = Counter()
        self._stack = []
        self._saved = []  # (module, attribute, original)
        self.missing = []  # call sites absent from this version of tumorsde

    def reset(self) -> None:
        for lst in (self.names, self.parents, self.starts, self.ends,
                    self.raised, self._stack):
            lst.clear()
        self.counts.clear()

    def wrap(self, fn, name=None):
        name = name or span_name(fn)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, raised, counts = self._stack, self.raised, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.append(i)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Rebind the CALL_SITES names of package's modules to traced
        wrappers (one wrapper per function) and count RngStream
        constructions."""
        wrappers, self.missing = {}, []
        for mod_name, attrs in CALL_SITES.items():
            mod = getattr(package, mod_name)
            for attr in attrs:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
        counts = self.counts
        for mod_name in STREAM_SITES:
            mod = getattr(package, mod_name)
            base = getattr(mod, "RngStream", None)
            if base is None:
                self.missing.append(f"{mod_name}.RngStream")
                continue

            class CountedStream(base):
                def __post_init__(self):
                    counts["rng_streams"] += 1
                    super().__post_init__()

            self._saved.append((mod, "RngStream", base))
            setattr(mod, "RngStream", CountedStream)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def metrics(self) -> dict:
        """Per-layer figures of the spans recorded since the last reset:
        '<span>.s' inclusive seconds, '<span>.self_s', '<span>.calls',
        plus the counts listed in README.md."""
        selfs = self_times(self.starts, self.ends, self.parents)
        incl, own, calls = Counter(), Counter(), Counter()
        for i, name in enumerate(self.names):
            incl[name] += self.ends[i] - self.starts[i]
            own[name] += selfs[i]
            calls[name] += 1
        sweep_ids = {i for i, n in enumerate(self.names)
                     if n == "lyapunov.stability_sweep"}
        evals = sum(1 for n, p in zip(self.names, self.parents)
                    if n in ESTIMATORS and p in sweep_ids)
        # estimator failures inside a sweep are in its failures list
        loose = sum(1 for i in self.raised
                    if self.names[i] in ESTIMATORS and self.parents[i] not in sweep_ids)
        c = self.counts
        out = {}
        for name in incl:
            out[f"{name}.s"] = incl[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
            out[f"{name}.calls"] = calls[name]
        out.update({
            "models.equilibria.s": sum(incl[n] for n in EQUILIBRIA) / 1e9,
            "models.vf_calls": calls["models.eval_vector_field"],
            "lyapunov.evals": evals,
            "lyapunov.refine_evals": evals - c["grid_points"],
            "lyapunov.failures": c["sweep_failures"] + loose,
            "lyapunov.fd_nodes": c["fd_nodes"],
            "lyapunov.mc_path_steps": c["mc_path_steps"],
            "integrate.normals": c["normals"],
            "integrate.rng_streams": c["rng_streams"],
            "integrate.euler_steps": (calls["integrate.euler1_step"]
                                      + calls["integrate.euler2_step"]),
            "cli.csv_bytes": c["csv_bytes"],
        })
        out["lyapunov.fd_ns_per_node"] = _ratio(
            incl["lyapunov.stationary_density_fd"], c["fd_nodes"])
        out["lyapunov.mc_ns_per_path_step"] = _ratio(
            incl["lyapunov.lyapunov_mc"], c["mc_path_steps"])
        out["integrate.ns_per_normal"] = _ratio(
            incl["integrate.gaussian_pairs"], c["normals"])
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},{self.starts[i]},{self.ends[i]}\n")


def _ratio(ns: int, count: int) -> float:
    return ns / count if count else 0.0


COUNT_KEYS = ("lyapunov.fd_nodes", "lyapunov.evals", "lyapunov.refine_evals",
              "lyapunov.mc_path_steps", "integrate.normals",
              "integrate.rng_streams", "integrate.euler_steps",
              "models.vf_calls", "cli.csv_bytes")
