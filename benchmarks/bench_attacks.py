"""Benchmark: class-sum DPA and MLPA against the per-guess loops.

Acquires trace sets the way the attack grid does: the reduced AES in
cmos, mcml, pgmcml and wddl at the tt and ff corners, three dies each,
128 seed-drawn traces per set; and, Fig. 6-sized, cmos, mcml and
pgmcml at tt with 896 traces.  On every set it times multi-bit DPA,
single-bit DPA on each of the 8 bits, and MLPA at degrees 1 and 2,
each next to its per-guess loop reference from
``tests/attack_oracles.py``.  DPA runs on standardised traces and
MLPA on the raw ones, as in the grid.

Per attack and trace budget, ``BENCH_attacks.json`` at the repo root
records the seconds of both paths, the largest score difference
relative to the largest reference score, and on how many sets the
tie-aware ranks of all 256 guesses are identical; it also records the
CPU count.  The contract: every difference within ``REL_TOL``, and
identical ranks for multi-bit DPA and MLPA.  Single-bit DPA ranks may
move only where the reference scores of two guesses lie within
``REL_TOL`` of each other: protected styles have exact ties that
rounding splits.  Timings are reported, never gated.

Run:  python benchmarks/bench_attacks.py
"""

import json
import os
import sys
import time

import numpy as np
from conftest import run_once

from repro.cells import library_at_corner
from repro.power import MeasurementChain, standardize
from repro.sca import TraceAcquirer, dpa_attack, mlpa_attack, \
    multibit_dpa_attack, tie_aware_rank
from repro.sca.acquisition import ActivityMemo
from repro.sca.attack import build_reduced_aes
from repro.sca.matrix import STYLE_BUILDERS
from repro.tech import corner

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)  # the loop references live in tests/
from tests.attack_oracles import (  # noqa: E402
    REL_TOL,
    max_relative_delta,
    mlpa_r2_loop,
    per_bit_differentials,
)

RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_attacks.json")
KEY = 0x3C
SEED = 0
#: (budget, styles, corners, dies) of each group of trace sets.
SET_GROUPS = (
    (128, ("cmos", "mcml", "pgmcml", "wddl"), ("tt", "ff"), 3),
    (896, ("cmos", "mcml", "pgmcml"), ("tt",), 1),
)
#: Attacks whose tie-aware ranks must be identical to the loop's.
RANK_EXACT = ("multibit_dpa", "mlpa_degree_1", "mlpa_degree_2")


def _trace_sets():
    """Yield ``(budget, traces, plaintexts)`` for every set, built on one
    activity memo per (style, corner) like the grid."""
    rng = np.random.default_rng(SEED)
    for budget, styles, corners, dies in SET_GROUPS:
        for style in styles:
            for corner_name in corners:
                library = library_at_corner(STYLE_BUILDERS[style](),
                                            corner(corner_name))
                netlist, _ = build_reduced_aes(library)
                memo = ActivityMemo(netlist, KEY)
                for die in range(dies):
                    pts = [int(p) for p in rng.integers(0, 256, budget)]
                    chain = MeasurementChain(seed=int(rng.integers(2 ** 31)))
                    acquirer = TraceAcquirer(netlist, KEY, chain=chain,
                                             mismatch_seed=die,
                                             activity=memo)
                    yield budget, acquirer.acquire(pts), pts


def _ranks(scores):
    """Tie-aware rank of every guess under ``peak_per_guess`` scores."""
    return [tie_aware_rank(scores, guess) for guess in range(256)]


def _peaks(name, scores):
    return (scores.max(axis=1) if name.startswith("mlpa")
            else np.abs(scores).max(axis=1))


def _moves_inside_ties(got, reference):
    """Whether every guess whose rank moved has a reference score within
    ``REL_TOL`` of another guess's: a tie that rounding split."""
    moved = np.flatnonzero(np.asarray(_ranks(got)) !=
                           np.asarray(_ranks(reference)))
    scale = np.abs(reference).max()
    for guess in moved:
        gaps = np.abs(np.delete(reference, guess) - reference[guess])
        if gaps.min() > REL_TOL * scale:
            return False
    return True


def _timed(fn):
    begin = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - begin


def _cases(traces, pts):
    """``(attack, kernel call, loop call)`` for one trace set."""
    normed = standardize(traces)
    yield ("multibit_dpa",
           lambda: multibit_dpa_attack(normed, pts).differentials,
           lambda: per_bit_differentials(normed, pts, range(8)))
    for bit in range(8):
        yield ("single_bit_dpa",
               lambda bit=bit: dpa_attack(normed, pts,
                                          target_bit=bit).differentials,
               lambda bit=bit: per_bit_differentials(normed, pts, [bit]))
    for degree in (1, 2):
        yield (f"mlpa_degree_{degree}",
               lambda degree=degree: mlpa_attack(traces, pts,
                                                 degree=degree).r2,
               lambda degree=degree: mlpa_r2_loop(traces, pts, degree))


def run_comparison():
    stats = {}
    for budget, traces, pts in _trace_sets():
        for name, kernel, loop in _cases(traces, pts):
            got, kernel_s = _timed(kernel)
            reference, loop_s = _timed(loop)
            row = stats.setdefault(name, {}).setdefault(str(budget), {
                "runs": 0, "kernel_seconds": 0.0, "loop_seconds": 0.0,
                "max_rel_delta": 0.0, "rank_identical": 0,
                "true_key_rank_moves": [], "moves_inside_ties": True})
            row["runs"] += 1
            row["kernel_seconds"] += kernel_s
            row["loop_seconds"] += loop_s
            row["max_rel_delta"] = max(row["max_rel_delta"],
                                       max_relative_delta(got, reference))
            got_peaks, ref_peaks = _peaks(name, got), _peaks(name, reference)
            if _ranks(got_peaks) == _ranks(ref_peaks):
                row["rank_identical"] += 1
            else:
                row["moves_inside_ties"] &= _moves_inside_ties(got_peaks,
                                                               ref_peaks)
                move = (tie_aware_rank(got_peaks, KEY)
                        - tie_aware_rank(ref_peaks, KEY))
                if move:
                    row["true_key_rank_moves"].append(move)
    for per_budget in stats.values():
        for row in per_budget.values():
            row["speedup"] = round(row["loop_seconds"]
                                   / row["kernel_seconds"], 2)
            row["kernel_ms_per_run"] = round(
                1e3 * row.pop("kernel_seconds") / row["runs"], 2)
            row["loop_ms_per_run"] = round(
                1e3 * row.pop("loop_seconds") / row["runs"], 2)
    report = {
        "experiment": "class-sum DPA/MLPA vs per-guess loops",
        "cpu_count": os.cpu_count(),
        "key": KEY,
        "seed": SEED,
        "rel_tol": REL_TOL,
        "set_groups": [{"budget": budget, "styles": list(styles),
                        "corners": list(corners), "dies": dies}
                       for budget, styles, corners, dies in SET_GROUPS],
        "max_rel_delta": max(row["max_rel_delta"]
                             for per_budget in stats.values()
                             for row in per_budget.values()),
        "ranks_identical": all(
            row["rank_identical"] == row["runs"]
            for name in RANK_EXACT for row in stats[name].values()),
        "attacks": stats,
    }
    with open(RESULT_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def test_class_sum_attacks_match_loops(benchmark):
    report = run_once(benchmark, run_comparison)
    assert report["max_rel_delta"] <= REL_TOL, report
    assert report["ranks_identical"], report
    for row in report["attacks"]["single_bit_dpa"].values():
        assert row["moves_inside_ties"], row
    benchmark.extra_info.update(report)


def main():
    report = run_comparison()
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return report


if __name__ == "__main__":
    main()
