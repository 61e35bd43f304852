"""Run one benchmark workload from a seed and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-long --seed 0 \
        --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``,
``items_per_s``, ``peak_rss_mb``) from an untraced run; ``--trace 1``
prints the per-layer metrics from a traced run and writes its span
stream to ``.perfbench/traces/<workload>-seed<seed>.jsonl``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record
host noise and a digest of the checked results.

The run is one process with the serial acquisition backend, single-
threaded BLAS, no HTTP server and no subprocess.  It imports the
program from ``src/`` of the checkout it sits in and exits non-zero,
without a result line, when there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def pin_environment(src: str) -> None:
    """Fix the load shape before numpy loads: one BLAS thread, and the
    program's default configuration whatever the caller's environment."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    sys.path.insert(0, src)


def host_sample():
    """(wall, process CPU, host steal) seconds right now."""
    times = os.times()
    steal = 0.0
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
        steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return time.perf_counter(), times.user + times.system, steal


def host_record(start, end, timed_s: float) -> dict:
    """Host noise over one execution; no metric derives from it."""
    return {"wall_s": round(end[0] - start[0], 4),
            "timed_s": round(timed_s, 4),
            "cpu_s": round(end[1] - start[1], 4),
            "steal_s": round(end[2] - start[2], 4),
            "loadavg_1m": os.getloadavg()[0]}


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def run_untraced(wl, seed: int, seconds: float):
    from workloads import Clock, clear_program_caches

    plan = wl.plan(seed, seconds)
    clock = Clock(wl.setup_repeats)
    clear_program_caches()
    start = host_sample()
    outputs, items = wl.execute(plan, clock, None)
    host = host_record(start, host_sample(), clock.timed_s)
    host["setup_samples_s"] = [quartiles(s) for s in clock.setup_samples]
    gate = wl.check(plan, outputs)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": clock.setup_s,
               "items_per_s": items / clock.timed_s,
               "peak_rss_mb": peak_kb / 1024.0}
    return metrics, gate, host, wl.digest(outputs)


def run_traced(wl, seed: int, seconds: float):
    from tracer import Tracer
    from workloads import Clock, clear_program_caches

    plan = wl.plan(seed, seconds)
    clock = Clock(1)
    tracer = Tracer()
    tracer.install()
    clear_program_caches()
    start = host_sample()
    try:
        with tracer.span("bench.run", workload=wl.name, seed=seed):
            outputs, items = wl.execute(plan, clock, tracer)
    finally:
        tracer.uninstall()
    host = host_record(start, host_sample(), clock.timed_s)
    # The untraced comparison pass runs other dies of the same size and
    # starts, like the traced pass, with the program's bias-solve memo
    # empty, so nothing the traced pass computed can speed it up.
    bare = Clock(1)
    clear_program_caches()
    _, bare_items = wl.execute(wl.plan(seed, seconds, pass_index=1), bare,
                               None)
    gate = wl.check(plan, outputs)
    metrics = tracer.layer_metrics()
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        (bare_items / bare.timed_s) / (items / clock.timed_s) - 1.0)
    tracer.write_jsonl(os.path.join(
        OUT_DIR, "traces", f"{wl.name}-seed{seed}.jsonl"))
    return metrics, gate, host, wl.digest(outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    pin_environment(src)

    from workloads import WORKLOAD_NAMES, committed_digest, workload

    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOAD_NAMES)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workdir = os.path.join(OUT_DIR, "tmp", f"{args.workload}-{os.getpid()}")
    wl = workload(args.workload, workdir)
    try:
        wl.warmup()
        run = run_traced if args.trace else run_untraced
        metrics, gate, host, digest = run(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = committed_digest(args.workload, args.seed, args.seconds)
    if expected is not None and digest != expected:
        gate.fail("digest")
    print("host " + json.dumps(host, sort_keys=True))
    print("digest " + json.dumps({"workload": args.workload,
                                  "seed": args.seed, "digest": digest,
                                  "failures": gate.failures[:20]}))
    units = END_TO_END if not args.trace else \
        {name: layer_unit(name) for name in metrics}
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in sorted(units.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
