"""Benchmark: parallel trace acquisition vs serial, byte for byte.

Times a 256-trace fig6-style CPA campaign (CMOS target, the heaviest
per-trace style) serially and with a 4-worker pool, proves the two
trace matrices are byte-identical and the CPA verdict unchanged, and
records traces/sec for both in ``BENCH_acquisition.json`` at the repo
root.  Those plaintexts are all distinct, so the acquirer's
ideal-sample memo never hits there.

The ``repeated_plaintexts`` section measures the memo: 1024 seed-drawn
CMOS plaintexts (so bytes recur, as in a long campaign) acquired
serially, against an uncached reference that simulates and measures
every trace on its own.  It records both rates, the
``sca.acquisition.simulated`` count (memo misses) and whether the
bytes are identical.

The ``shared_activity`` section measures the activity memo across dies,
the grid's and the job service's load: CMOS and PG-MCML, 8 dies x 128
seed-drawn traces each, acquired once with one ``ActivityMemo`` shared
by every die's acquirer and once with a fresh acquirer (own memo) per
die.  It records the simulations and seconds of both, whether their
bytes are identical, and the CPU count.

Also measures the observability layer (``repro.obs``) on the serial
path: one run with a live Telemetry handle (its metrics registry
snapshot lands in the JSON under ``telemetry``) and the no-telemetry
run time it is compared against — the disabled path must stay within
2 % of a run with no handles at all, which is what
``telemetry_overhead_pct`` records.

The speedup itself is machine-dependent (a single-core container can
only demonstrate equality, not scaling), so the ≥2.5x acceptance bar
is asserted only where at least 4 CPUs are visible; the JSON always
records what was measured plus the cpu count it was measured on.
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import run_once

from repro.cells import build_cmos_library
from repro.obs import Telemetry
from repro.sca import AttackCampaign, TraceAcquirer, acquire_traces
from repro.sca.acquisition import ActivityMemo, resolve_backend
from repro.sca.attack import build_reduced_aes
from repro.sca.matrix import STYLE_BUILDERS

N_TRACES = 256
WORKERS = 4
KEY = 0x2B
#: The repeated-plaintext case: seed-drawn bytes, so most recur.
N_REPEATED = 1024
REPEATED_SEED = 0
#: The shared-activity case: dies x traces per die, per style.
SHARED_STYLES = ("cmos", "pgmcml")
N_DIES = 8
N_DIE_TRACES = 128

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_acquisition.json")


def _timed_campaign(campaign, **kwargs):
    begin = time.perf_counter()
    result = campaign.run(list(range(N_TRACES)), **kwargs)
    return result, time.perf_counter() - begin


def _disabled_path_overhead_pct(serial_s: float) -> dict:
    """Measured cost of the no-op telemetry path on the serial run.

    The serial campaign above runs with NULL_TELEMETRY, whose calls are
    cached no-ops; the disabled "overhead" is those calls' cost.  The
    bench's instrumentation is chunk-level (a handful of calls per
    16-trace chunk plus one span per acquire), so we time the no-op
    call directly and scale by the calls the serial path actually
    makes.
    """
    from repro.obs import NULL_TELEMETRY

    n = 200_000
    begin = time.perf_counter()
    for _ in range(n):
        NULL_TELEMETRY.counter("bench").inc()
    per_call_s = (time.perf_counter() - begin) / n
    # Serial path: ~4 no-op touches per chunk (branch + span + two
    # metric sites) + 2 per acquire call; be pessimistic and charge 8.
    chunks = -(-N_TRACES // 16)
    calls = 8 * chunks + 2
    return {
        "null_call_ns": round(per_call_s * 1e9, 2),
        "disabled_calls_charged": calls,
        "disabled_overhead_pct": round(
            100.0 * calls * per_call_s / serial_s, 5),
    }


def _repeated_plaintexts_case(library) -> dict:
    """Memoised serial acquisition vs an uncached per-trace reference."""
    netlist, _ = build_reduced_aes(library)
    pts = [int(p) for p in np.random.default_rng(REPEATED_SEED).integers(
        0, 256, size=N_REPEATED)]
    begin = time.perf_counter()
    memoised = acquire_traces(netlist, KEY, pts)
    memo_s = time.perf_counter() - begin

    oracle = TraceAcquirer(netlist, KEY)
    begin = time.perf_counter()
    uncached = np.array([
        oracle.chain.measure(oracle.compose(oracle.activity.simulate(p)),
                             trace_index=i)
        for i, p in enumerate(pts)])
    uncached_s = time.perf_counter() - begin

    telemetry = Telemetry()
    acquire_traces(netlist, KEY, pts, telemetry=telemetry)
    return {
        "n_traces": N_REPEATED,
        "seed": REPEATED_SEED,
        "distinct_plaintexts": len(set(pts)),
        "simulated": telemetry.registry.counter(
            "sca.acquisition.simulated").value,
        "memo_seconds": round(memo_s, 4),
        "uncached_seconds": round(uncached_s, 4),
        "memo_traces_per_sec": round(N_REPEATED / memo_s, 2),
        "uncached_traces_per_sec": round(N_REPEATED / uncached_s, 2),
        "speedup": round(uncached_s / memo_s, 3),
        "byte_identical_to_uncached":
            memoised.tobytes() == uncached.tobytes(),
    }


def _shared_activity_style(style: str) -> dict:
    """Every die on one activity memo vs a fresh acquirer per die."""
    netlist, _ = build_reduced_aes(STYLE_BUILDERS[style]())
    rng = np.random.default_rng(REPEATED_SEED)
    plaintexts = [[int(p) for p in rng.integers(0, 256, N_DIE_TRACES)]
                  for _ in range(N_DIES)]

    def acquire_dies(shared: bool):
        begin = time.perf_counter()
        memo = ActivityMemo(netlist, KEY) if shared else None
        rows, simulated = [], 0
        for die, pts in enumerate(plaintexts):
            acquirer = TraceAcquirer(netlist, KEY, mismatch_seed=die,
                                     activity=memo)
            rows.append(acquirer.acquire(pts))
            simulated += acquirer.simulated
        return np.vstack(rows), simulated, time.perf_counter() - begin

    shared, shared_sims, shared_s = acquire_dies(True)
    fresh, fresh_sims, fresh_s = acquire_dies(False)
    return {
        "distinct_plaintexts": len(set().union(*plaintexts)),
        "shared_simulations": shared_sims,
        "fresh_simulations": fresh_sims,
        "fresh_distinct_per_die": sum(len(set(p)) for p in plaintexts),
        "shared_seconds": round(shared_s, 4),
        "fresh_seconds": round(fresh_s, 4),
        "speedup": round(fresh_s / shared_s, 3),
        "byte_identical": shared.tobytes() == fresh.tobytes(),
    }


def _shared_activity_case() -> dict:
    return {"cpu_count": os.cpu_count(), "dies": N_DIES,
            "traces_per_die": N_DIE_TRACES, "seed": REPEATED_SEED,
            **{style: _shared_activity_style(style)
               for style in SHARED_STYLES}}


def run_comparison():
    library = build_cmos_library()
    serial_result, serial_s = _timed_campaign(
        AttackCampaign(library, KEY), workers=1)
    parallel_result, parallel_s = _timed_campaign(
        AttackCampaign(library, KEY), workers=WORKERS)

    # Telemetry-enabled serial run: registry numbers for the report and
    # proof that instrumentation changes nothing.
    telemetry = Telemetry()
    observed_result, observed_s = _timed_campaign(
        AttackCampaign(library, KEY, telemetry=telemetry), workers=1)

    report = {
        "experiment": "fig6-style CPA acquisition, cmos target",
        "n_traces": N_TRACES,
        "workers": WORKERS,
        "backend": resolve_backend("auto", WORKERS),
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "serial_traces_per_sec": round(N_TRACES / serial_s, 2),
        "parallel_traces_per_sec": round(N_TRACES / parallel_s, 2),
        "speedup": round(serial_s / parallel_s, 3),
        "byte_identical": bool(np.array_equal(serial_result.traces,
                                              parallel_result.traces)),
        "cpa_rank_serial": serial_result.rank,
        "cpa_rank_parallel": parallel_result.rank,
        "telemetry": {
            "enabled_serial_seconds": round(observed_s, 4),
            "enabled_serial_traces_per_sec": round(
                N_TRACES / observed_s, 2),
            "byte_identical_with_telemetry": bool(np.array_equal(
                serial_result.traces, observed_result.traces)),
            # The serial/parallel runs above carry NULL_TELEMETRY —
            # their time *is* the disabled path; positive means
            # enabling telemetry cost that much.
            "enabled_overhead_pct": round(
                (observed_s / serial_s - 1.0) * 100.0, 2),
            "registry": telemetry.registry.snapshot(),
            **_disabled_path_overhead_pct(serial_s),
        },
        "repeated_plaintexts": _repeated_plaintexts_case(library),
        "shared_activity": _shared_activity_case(),
    }
    with open(RESULT_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report, serial_result, parallel_result


def test_acquisition_parallel_equivalence_and_throughput(benchmark):
    report, serial_result, parallel_result = run_once(benchmark,
                                                      run_comparison)
    assert report["byte_identical"]
    assert np.array_equal(serial_result.cpa.peak_per_guess,
                          parallel_result.cpa.peak_per_guess)
    assert report["cpa_rank_serial"] == report["cpa_rank_parallel"]
    assert report["telemetry"]["byte_identical_with_telemetry"]
    assert report["telemetry"]["registry"].get("sca.acquisition.traces", {}
                                               ).get("value") == N_TRACES
    assert report["telemetry"]["disabled_overhead_pct"] <= 2.0, report
    repeated = report["repeated_plaintexts"]
    assert repeated["byte_identical_to_uncached"], repeated
    assert repeated["simulated"] == repeated["distinct_plaintexts"], repeated
    for style in SHARED_STYLES:
        case = report["shared_activity"][style]
        assert case["byte_identical"], case
        assert case["shared_simulations"] == case["distinct_plaintexts"], case
        assert case["fresh_simulations"] == \
            case["fresh_distinct_per_die"], case
    if (os.cpu_count() or 1) >= WORKERS:
        assert report["speedup"] >= 2.5, report
    benchmark.extra_info.update(report)


def main():
    report, _, _ = run_comparison()
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return report


if __name__ == "__main__":
    main()
