"""tumorsde benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts fresh single-threaded worker
processes (``worker.py``) that import ``tumorsde`` from ``src/`` and
drive ``tumorsde.cli.main`` in-process, checks every output against the
exact references in ``oracle.py`` and prints a readable report followed,
as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the ``end_to_end`` list of
BENCHMARK.json, with --trace 1 its ``per_layer`` list (see README.md).
Exits non-zero without a result when the checkout has no ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import CAL_REF_S, normalised  # noqa: E402
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5  # fresh processes timed for setup_s
DEADLINE_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # the worker imports tumorsde from ./src only
    return env


def run_child(args, deadline: float, env: dict) -> subprocess.CompletedProcess:
    timeout = max(5.0, deadline - time.monotonic())
    return subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def environment(versions: dict, env: dict) -> dict:
    """Machine, toolchain and thread settings this result was taken on."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": [round(v, 2) for v in os.getloadavg()],
            **versions, "commit": git_commit(),
            "threads": {var: env.get(var) for var in THREAD_VARS}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            fields = [open(os.path.join(base, index, f), encoding="utf-8").read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{fields[0]}{fields[1][0].lower()}"] = fields[2]
    info["caches"] = caches
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def finite_max(values) -> float:
    return max((v for v in values if not math.isnan(v)), default=math.nan)


def score(workload: str, ops: list) -> dict:
    """Check every operation's output; returns the tally, the accuracy
    figures (NaN where the workload has none) and each operation's work
    (a simulate run that blows up completes fewer steps)."""
    import checks
    import oracle
    import workloads as wl

    tally = checks.Tally()
    out = {"tally": tally, "max_abs_err": math.nan, "crossing_err": math.nan,
           "stderr2_s": math.nan, "work": [op["work"] for op in ops]}
    if workload.startswith("sweep-"):
        refs, errs, cross = {}, [], []
        for op in ops:
            lo, hi, method = op["meta"]["lo"], op["meta"]["hi"], op["meta"]["method"]
            if (lo, hi) not in refs:
                refs[lo, hi] = checks.SweepReference.bell_p1(lo, hi)
            try:
                with open(op["out"], encoding="utf-8") as fh:
                    text = fh.read() if op["rc"] == 0 else ""
            except OSError:
                text = ""
            res = checks.check_sweep(text, method, refs[lo, hi])
            tally.merge(res.tally)
            errs.append(res.max_abs_err)
            cross.append(res.crossing_err)
        out["max_abs_err"] = finite_max(errs)
        out["crossing_err"] = finite_max(cross)
    elif workload == "lyapunov-mc":
        exact = checks.mc_references()
        cost = []
        for op in ops:
            ok, _value, stderr, note = checks.check_mc(
                op["rc"], op["stdout"], exact[op["meta"]["case"]])
            tally.add(ok, note + ("" if ok else " " + op["stderr"][-200:]))
            if math.isfinite(stderr):
                cost.append(stderr ** 2 * op["wall_s"])
        out["stderr2_s"] = statistics.fmean(cost) if cost else math.nan
    else:
        increments, digests = {}, {}
        out["work"] = []
        for op in ops:
            seed = op["meta"]["seed"]
            if seed not in increments:
                increments[seed] = oracle.kt_wiener_increments(seed, wl.SIM_STEPS,
                                                               wl.SIM_DT)
            if op["rc"] != 0:
                ok, done, note = False, 0, f"exit {op['rc']}: {op['stderr'][-200:]}"
            else:
                ok, done, note = checks.check_trajectory(op["out"], wl.SIM_STEPS,
                                                         increments[seed])
            if ok and digests.setdefault(seed, checks.file_digest(op["out"])) \
                    != checks.file_digest(op["out"]):
                ok, note = False, f"seed {seed}: CSV differs from the same-seed run"
            tally.add(ok, note)
            out["work"].append(done)
    return out


def end_to_end(ops: list, work: list, setups: list, peak_kb: int) -> dict:
    """Median set-up time and median operation rate at reference speed."""
    return {"setup_s": statistics.median(setups),
            "throughput": statistics.median(w / normalised(op["wall_s"], op["cal_s"])
                                            for w, op in zip(work, ops)),
            "peak_rss_mb": peak_kb * 1024 / 1e6}


def per_layer(trace: dict, ops: list, scored: dict) -> dict:
    traced = sum(op["wall_s"] for op in ops if op["traced"])
    plain = sum(op["wall_s"] for op in ops if not op["traced"])
    values = dict(trace["layers"])
    values["trace.overhead_s"] = (traced - plain) / 2
    for key, name in (("max_abs_err", "lyapunov.max_abs_err"),
                      ("crossing_err", "lyapunov.crossing_err"),
                      ("stderr2_s", "lyapunov.mc_stderr2_s")):
        if math.isfinite(scored[key]):
            values[name] = scored[key]
    return values


def report(args, spec, wl_obj, ops, setups, scored, values, info, trace):
    """Readable lines ahead of the JSON result, naming each figure as
    README.md does."""
    tally = scored["tally"]
    lines = [f"# env {json.dumps(info, sort_keys=True)}",
             f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(ops)} operations, {sum(op['wall_s'] for op in ops):.2f} s measured"]
    frac = tally.failed / tally.attempted if tally.attempted else math.nan
    if not args.trace:
        raw = [w / op["wall_s"] for w, op in zip(scored["work"], ops)]
        speed = [CAL_REF_S / op["cal_s"] for op in ops]
        lines += [
            f"#   setup_s          {values['setup_s']:.4f} s  (median of {len(setups)} "
            f"fresh imports, range {min(setups):.4f}..{max(setups):.4f})",
            f"#   {wl_obj.work_name:<16} {values['throughput']:.6g} 1/s  (= throughput, "
            f"median of {len(raw)} operations at reference speed; unscaled median "
            f"{statistics.median(raw):.6g}, range {min(raw):.6g}..{max(raw):.6g}; "
            f"host speed {min(speed):.2f}..{max(speed):.2f})",
        ]
    for key, unit in (("max_abs_err", "abs"), ("crossing_err", "abs"),
                      ("stderr2_s", "s")):
        if math.isfinite(scored[key]):
            lines.append(f"#   {key:<16} {scored[key]:.6g} {unit}")
    lines.append(f"#   failed_frac      {frac:.6g}  ({tally.failed}/{tally.attempted})")
    if not args.trace:
        lines.append(f"#   peak_rss_mb      {values['peak_rss_mb']:.2f} MB")
    else:
        layers = trace["layers"]
        selfs = sorted(((v, k[:-7]) for k, v in layers.items() if k.endswith(".self_s")),
                       reverse=True)
        total = sum(v for v, _ in selfs)
        lines.append(f"#   traced cycle: {layers.get('cli.main.s', 0):.4f} s, "
                     f"overhead {values['trace.overhead_s']:+.4f} s; self time by span:")
        lines += [f"#     {name:<36} {v:10.4f} s  {100 * v / total:5.1f}%"
                  for v, name in selfs[:8]]
        if trace["missing_sites"]:
            lines.append(f"#   call sites not found: {', '.join(trace['missing_sites'])}")
        unexercised = [m["name"] for m in spec["per_layer"] if not values.get(m["name"])]
        lines.append(f"#   zero on this workload: {', '.join(unexercised) or 'none'}")
    for note in tally.notes[:5]:
        lines.append(f"#   FAILED {note}")
    return lines


def main(argv=None) -> int:
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "tumorsde", "cli.py")):
        print(f"no tumorsde sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    env = child_env()
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe = run_child(["--probe"], deadline, env)
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                return 1
            setups.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
        proc = run_child(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--workdir", workdir], deadline, env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        ops = result["ops"]
        scored = score(args.workload, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = scored["tally"]
    correct = tally.failed == 0 and tally.attempted > 0
    if args.trace:
        trace = result["trace"]
        values = per_layer(trace, ops, scored)
        wanted = spec["per_layer"]
        if trace["count_mismatch"]:
            correct = False
            tally.notes.append("counts differ between identical traced operations: "
                               + ", ".join(trace["count_mismatch"]))
    else:
        trace = None
        values = end_to_end(ops, scored["work"], setups, result["peak_rss_kb"])
        wanted = spec["end_to_end"]
    info = environment(result["versions"], env)
    for line in report(args, spec, wl.WORKLOADS[args.workload], ops, setups,
                       scored, values, info, trace):
        print(line)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
