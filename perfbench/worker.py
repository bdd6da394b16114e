"""One benchmark process: imports ``tumorsde`` from the checkout's
``src/`` and drives ``tumorsde.cli.main`` in-process.

    python3 perfbench/worker.py --probe
        time the import set-up only and print {"setup_s": ...}
    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --workdir DIR
        run the workload and write DIR/result.json

Untraced, whole cycles of operations (see workloads.py) repeat until
the next cycle would end after S seconds.  Traced, the run is fixed:
the first cycle untraced, twice traced, untraced again, so counts can
be compared and the tracing overhead is traced minus untraced time.
``run.py`` starts this and checks the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402  (standard library only)


def _run_op(main, call, traced=False) -> dict:
    """Run one CLI call, capturing its output; any exception is a failed
    operation, not a crash of the benchmark."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(call.argv))
    except Exception:
        rc, err = -1, io.StringIO(traceback.format_exc())
    wall = time.perf_counter() - t0
    return {"argv": list(call.argv), "out": call.out, "work": call.work,
            "meta": call.meta, "rc": rc, "wall_s": wall, "traced": traced,
            "stdout": out.getvalue()[-2000:], "stderr": err.getvalue()[-2000:]}


def measure(main, workload, seed, seconds, workdir) -> list:
    """Whole cycles of operations until the next cycle would end after
    `seconds`; at least one.  Each operation records the mean of the
    calibration kernel times taken just before and just after it."""
    from calibrate import calibrate

    ops, start, k = [], time.perf_counter(), 0
    cal = calibrate()
    while True:
        t0 = time.perf_counter()
        for _ in range(workload.cycle):
            op = _run_op(main, workload.call(seed, k, workdir))
            cal_next = calibrate()
            op["cal_s"] = 0.5 * (cal + cal_next)
            ops.append(op)
            cal, k = cal_next, k + 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return ops


def traced_run(package, workload, seed, workdir) -> tuple:
    """Cycle 0 four times on the same inputs: untraced, traced, traced,
    untraced.  Per-layer values are per cycle, averaged over the two
    traced cycles."""
    from tracing import COUNT_KEYS, Tracer

    tracer = Tracer()
    root = tracer.wrap(package.cli.main)
    ops, per_cycle = [], []
    for i, traced in enumerate((False, True, True, False)):
        calls = [workload.call(seed, k, workdir, f"t{i}-{k}")
                 for k in range(workload.cycle)]
        if not traced:
            ops += [_run_op(package.cli.main, c) for c in calls]
            continue
        tracer.reset()
        tracer.install(package)
        try:
            ops += [_run_op(root, c, traced=True) for c in calls]
        finally:
            tracer.uninstall()
        per_cycle.append(tracer.metrics())
    tracer.write_spans(os.path.join(HERE, ".work", f"spans-{workload.name}.csv"))
    first, second = per_cycle
    mismatched = [key for key in COUNT_KEYS if first.get(key) != second.get(key)]
    layers = {key: 0.5 * (first.get(key, 0) + second.get(key, 0))
              for key in set(first) | set(second)}
    return ops, {"layers": layers, "count_mismatch": mismatched,
                 "missing_sites": tracer.missing}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tumorsde
    import tumorsde.cli
    setup_s = time.perf_counter() - t0
    origin = os.path.dirname(os.path.realpath(tumorsde.__file__))
    if origin != os.path.join(ROOT, "src", "tumorsde"):
        print(f"tumorsde imported from {origin}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.workload or not args.workdir:
        ap.error("--workload and --workdir are required without --probe")

    workload = wl.WORKLOADS[args.workload]
    if args.trace:
        ops, trace = traced_run(tumorsde, workload, args.seed, args.workdir)
    else:
        ops = measure(tumorsde.cli.main, workload, args.seed, args.seconds,
                      args.workdir)
        trace = None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy
    import scipy
    result = {"setup_s": setup_s, "ops": ops, "peak_rss_kb": peak_kb,
              "trace": trace,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
