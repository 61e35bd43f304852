"""Benchmark: serial trace acquisition, its memos and its telemetry.

Times a 256-trace fig6-style CPA campaign (CMOS target, the heaviest
per-trace style) in one process and records traces/sec and the CPA
rank in ``BENCH_acquisition.json`` at the repo root
(``benchmarks/bench_spice.py`` re-times the same path against it).
Those plaintexts are all distinct, so the acquirer's ideal-sample memo
never hits there.

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

The ``event_sim`` section measures the lane-parallel event simulation
that serves every activity-memo miss: per style and corner (tt, ff,
ss), all 256 plaintexts of key 0x3C simulated one at a time on the heap
simulator (``ActivityMemo.simulate``) against one ``prefetch`` on a
fresh memo (the compiled plan, one lane pass and the heap re-runs of
the lanes it flags).  It records both times, the fallback lanes, how
many of the 256 activities are byte-identical to the heap's, and the
CPU count; the test asserts all 256 are.

Also measures the observability layer (``repro.obs``) on the serial
path: one run with a live Telemetry handle (its metrics registry
snapshot lands in the JSON under ``telemetry``) proves instrumentation
changes no byte.  ``enabled_overhead_pct`` is the median cost of
enabling telemetry over alternating (disabled, enabled) campaign
pairs, reported and not gated; the disabled path must stay within
2 % of a run with no handles at all, which is what
``disabled_overhead_pct`` records.  The JSON records the cpu count
it was measured on.
"""

import json
import os
import statistics
import time

import numpy as np
import pytest
from conftest import run_once

from repro.cells import build_cmos_library, library_at_corner
from repro.obs import Telemetry
from repro.sca import AttackCampaign, TraceAcquirer, acquire_traces
from repro.sca.acquisition import ActivityMemo
from repro.sca.attack import build_reduced_aes
from repro.sca.matrix import STYLE_BUILDERS
from repro.tech import corner

N_TRACES = 256
KEY = 0x2B
#: Alternating (disabled, enabled) campaign pairs behind the overhead.
OVERHEAD_PAIRS = 5
#: The repeated-plaintext case: seed-drawn bytes, so most recur.
N_REPEATED = 1024
REPEATED_SEED = 0
#: The shared-activity case: dies x traces per die, per style.
SHARED_STYLES = ("cmos", "pgmcml")
N_DIES = 8
N_DIE_TRACES = 128
#: The event-simulation case: every byte of one key per style x corner.
EVENT_SIM_KEY = 0x3C
EVENT_SIM_STYLES = ("cmos", "mcml", "pgmcml", "wddl")
EVENT_SIM_CORNERS = ("tt", "ff", "ss")

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_acquisition.json")


def _timed_campaign(campaign):
    begin = time.perf_counter()
    result = campaign.run(list(range(N_TRACES)))
    return result, time.perf_counter() - begin


def _enabled_overhead(library) -> dict:
    """Cost of a live Telemetry handle on the serial campaign.

    Runs after the campaigns above have warmed every import and cache.
    Each pair times a disabled and then an enabled campaign back to
    back, so drift on the host reaches both sides; the median pair is
    the reported figure.
    """
    pairs = []
    for _ in range(OVERHEAD_PAIRS):
        _, disabled_s = _timed_campaign(AttackCampaign(library, KEY))
        _, enabled_s = _timed_campaign(
            AttackCampaign(library, KEY, telemetry=Telemetry()))
        pairs.append(100.0 * (enabled_s / disabled_s - 1.0))
    return {
        "enabled_overhead_pct": round(statistics.median(pairs), 2),
        "enabled_overhead_pairs_pct": [round(p, 2) for p in pairs],
    }


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
    # Serial path, per 16-trace chunk: a span and a timer (each made,
    # entered and exited) and two counter lookups with their incs —
    # 10 no-op calls; plus the acquire call's span (charged 2) and its
    # two counters (4).
    chunks = -(-N_TRACES // 16)
    calls = 10 * chunks + 6
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


def _same_activity(a, b) -> bool:
    """Byte-identical activity arrays (same dtypes, same bytes)."""
    fields = ("times", "nets", "values") if hasattr(a, "times") \
        else ("values",)
    return all(getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in fields)


def _event_sim_corner(style: str, corner_name: str) -> dict:
    """256 heap simulations against one lane-parallel prefetch."""
    netlist, _ = build_reduced_aes(library_at_corner(
        STYLE_BUILDERS[style](), corner(corner_name)))
    oracle = ActivityMemo(netlist, EVENT_SIM_KEY)
    begin = time.perf_counter()
    heap = [oracle.simulate(p) for p in range(256)]
    heap_s = time.perf_counter() - begin
    memo = ActivityMemo(netlist, EVENT_SIM_KEY)
    begin = time.perf_counter()
    memo.prefetch(range(256))
    lanes_s = time.perf_counter() - begin
    return {
        "heap_ms": round(1e3 * heap_s, 2),
        "lane_pass_ms": round(1e3 * lanes_s, 2),
        "speedup": round(heap_s / lanes_s, 2),
        "fallback_lanes": memo.fallbacks,
        "identical": sum(_same_activity(memo.get(p)[0], heap[p])
                         for p in range(256)),
    }


def _event_sim_case() -> dict:
    return {"cpu_count": os.cpu_count(), "key": EVENT_SIM_KEY,
            "plaintexts": 256,
            **{f"{style}-{corner_name}": _event_sim_corner(style,
                                                           corner_name)
               for style in EVENT_SIM_STYLES
               for corner_name in EVENT_SIM_CORNERS}}


def assert_event_sim_exact(case: dict) -> None:
    """Every (style, corner) gave all 256 activities of the heap."""
    for style in EVENT_SIM_STYLES:
        for corner_name in EVENT_SIM_CORNERS:
            row = case[f"{style}-{corner_name}"]
            assert row["identical"] == case["plaintexts"], \
                (style, corner_name, row)


def run_comparison():
    library = build_cmos_library()
    serial_result, serial_s = _timed_campaign(AttackCampaign(library, KEY))

    # Telemetry-enabled serial run: registry numbers for the report and
    # proof that instrumentation changes nothing.
    telemetry = Telemetry()
    observed_result, observed_s = _timed_campaign(
        AttackCampaign(library, KEY, telemetry=telemetry))

    report = {
        "experiment": "fig6-style CPA acquisition, cmos target",
        "n_traces": N_TRACES,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_s, 4),
        "serial_traces_per_sec": round(N_TRACES / serial_s, 2),
        "cpa_rank_serial": serial_result.rank,
        "telemetry": {
            "enabled_serial_seconds": round(observed_s, 4),
            "enabled_serial_traces_per_sec": round(
                N_TRACES / observed_s, 2),
            "byte_identical_with_telemetry": bool(np.array_equal(
                serial_result.traces, observed_result.traces)),
            # Positive means enabling telemetry cost that much.
            **_enabled_overhead(library),
            "registry": telemetry.registry.snapshot(),
            **_disabled_path_overhead_pct(serial_s),
        },
        "repeated_plaintexts": _repeated_plaintexts_case(library),
        "shared_activity": _shared_activity_case(),
        "event_sim": _event_sim_case(),
    }
    with open(RESULT_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def test_acquisition_memos_telemetry_and_throughput(benchmark):
    report = run_once(benchmark, run_comparison)
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
    assert_event_sim_exact(report["event_sim"])
    benchmark.extra_info.update(report)


def main():
    report = run_comparison()
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return report


if __name__ == "__main__":
    main()
