"""Steadiness check: run each workload over several seeds, one at a time.

    python3 perfbench/steadiness.py --seeds 10 --out first.json
    python3 perfbench/steadiness.py --seeds 10 --against first.json
    python3 perfbench/steadiness.py --workloads grid-service --seeds 5
    python3 perfbench/steadiness.py --seeds 0 --counts-seed 0

For every workload and end-to-end metric it prints the median, the
quartiles and the spread ``(q3 - q1) / median`` over the runs
(``statistics.quantiles(values, n=4)``), next to the bound in
``BENCHMARK.json``, and fails if a spread reaches its bound; the
benchmark aims for spreads below a third of the bound.  Each run's host
noise (process CPU seconds, host steal seconds, 1-minute load average)
is listed beside its wall-clock numbers, so an unsteady run can be
pinned on the host.  The summary is written to ``--out``; with
``--against`` an earlier summary, it also prints how far each median
moved and fails if one got worse by more than its bound.

``--counts-seed`` also runs every workload traced twice on that seed
and fails unless every count and share metric repeats exactly and no
operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    host = json.loads(lines[-3][len("host "):])
    return json.loads(lines[-1]), host


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--counts-seed", type=int, default=None)
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".perfbench", "steadiness.json"))
    parser.add_argument("--against", default=None)
    args = parser.parse_args(argv)
    earlier = {}
    if args.against is not None:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)

    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, host = bench_run(workload, seed, args.seconds, 0)
            runs.append((seed, result, host))
            metrics = result["metrics"]
            print(f"{workload} seed={seed} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in sorted(metrics.items()))
                  + f" | cpu_s={host['cpu_s']} steal_s={host['steal_s']} "
                    f"load={host['loadavg_1m']:.2f}", flush=True)
            ok &= result["correct"]
        summary[workload] = {}
        if len(runs) < 2:
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[1]["metrics"][name]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            verdict = "ok" if rel < bound / 3 else (
                "WIDE" if rel < bound else "OVER")
            ok &= rel < bound
            summary[workload][name] = {"median": median, "q1": q1,
                                       "q3": q3, "spread": rel,
                                       "bound": bound}
            moved = ""
            before = earlier.get(workload, {}).get(name)
            if before is not None:
                shift = median / before["median"] - 1.0
                worse = -shift if metric["better"] == "higher" else shift
                ok &= worse <= bound
                moved = (f" moved={shift:+.4f} from {before['median']:.5g}"
                         f"{' WORSE' if worse > bound else ''}")
            print(f"  {workload:20s} {name:12s} median={median:.5g} "
                  f"q1={q1:.5g} q3={q3:.5g} spread={rel:.4f} "
                  f"bound={bound} {verdict}{moved}", flush=True)
    if args.counts_seed is not None:
        for workload in args.workloads.split(","):
            first = bench_run(workload, args.counts_seed, args.seconds, 1)[0]
            second = bench_run(workload, args.counts_seed, args.seconds, 1)[0]
            counted = [m["name"] for m in bench["per_layer"]
                       if m["unit"] in ("count", "ratio")]
            differ = [n for n in counted
                      if first["metrics"][n] != second["metrics"][n]]
            failed = first["failed"] + second["failed"]
            print(f"  {workload:20s} counts identical across two traced "
                  f"runs: {not differ} {differ} failed={failed}", flush=True)
            ok &= not differ and failed == 0
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
