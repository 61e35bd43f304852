"""Benchmark: vectorized device-bank MNA assembly vs the reference loop.

Times cell-level transients under each assembly — forced through
``forced_assembly``, which replaces the unknown-count selector in
``repro.spice.dc`` — and records the results in ``BENCH_spice.json``
at the repo root:

* a single PG-MCML buffer driven through a full 256-step switching
  window — the smallest realistic workload, where ufunc dispatch and
  the scalar loop roughly break even;
* an 8-buffer PG-MCML chain (~80 devices), the headline: the batched
  EKV evaluation amortises dispatch across the device axis and must be
  ≥3× faster than the loop;
* 256 PG-MCML buffer testbenches (pulse polarity from the lane index's
  low bit) marched through the lockstep batched transient engine at
  batch sizes 1 / 8 / 32 — batch=1 is the serial oracle, the batched
  chunks must match it exactly (0.0 V) and batch=32 must be ≥4× faster;
* Fig. 3, a production caller of the lockstep: the full 9-point
  tail-current sweep as one batched call (``fig3.run``) against 18
  serial ``characterize_mcml_cell`` runs, timed, with every simulated
  ``Fig3Point`` value (27) and every lane's delay, swing and supply
  current (54) bit-identical to the serial path;
* Table 2, the other production caller: the 12 PG-MCML cells
  ``paper-long`` characterises at 50 µA — 12 topologies — timed through
  ``run_transient_batch`` and through ``run_transient``, alternating
  (bias solved and testbenches built beforehand), with every lockstep
  array compared byte for byte against the serial run and every serial
  ``vdd`` sample bit for bit against the per-grid-point reference in
  ``tests/transient_oracle.py``;
* the DC callers, each timed against its serial loop in
  ``tests/dc_oracle.py`` (alternating, best of ``REPEATS``): Fig. 3's
  nine bias searches as one ``solve_biases`` call, Table 2's gated
  50 µA search, ``mc_input_offset(24)`` and ``mc_buffer_residual(48)``,
  with their DC solves, lockstep rounds and lanes counted, and every
  bias point ``repr``-identical and every Monte Carlo value float-equal
  to the oracle's;
* the bank/sparse crossover: PG-MCML buffer chains of 1 to 64 cells
  (4 to 382 unknowns) under both assemblies, with the sparse/bank time
  ratio and the largest voltage difference per size, next to the
  ``SPARSE_MIN_UNKNOWNS`` threshold ``System`` selects by;
* the 256-trace serial CPA acquisition of ``bench_acquisition.py``,
  re-timed under the bank default and compared against the reference
  numbers in ``BENCH_acquisition.json``.  That path is logic-sim plus
  power models — no SPICE in the per-trace loop — so its role here is
  regression proof: the verdict (CPA rank) and throughput must not
  degrade with the bank assembly active.

Every timing is a best-of-``REPEATS`` wall clock, the compared
assemblies alternating repeat by repeat so host load reaches both; the
bank and loop solutions of each transient are compared point for point
so the JSON also certifies the assemblies agree (≤1e-9 V across the
whole wave).

The ``@slow`` sparse section (CI job ``sparse-bench``) adds the PR 8
cases: a full S-box-unit DC solve where the sparse CSC assembly (which
the S-box's ``System`` picks by itself) must beat the dense banks ≥5×
with ≤1e-9 V divergence, and a factor-timing probe of the complete
PG-MCML AES core (72k unknowns) that only the sparse path can
represent at all.
"""

import json
import os
import sys
import time
from unittest import mock

import numpy as np
import pytest
from conftest import run_once

import repro.cells.bias as bias_mod
import repro.cells.montecarlo as montecarlo
from repro.cells import (
    McmlCellGenerator,
    build_cmos_library,
    build_pg_mcml_library,
    characterize_mcml_cell,
    mc_buffer_residual,
    mc_input_offset,
    mcml_testbench,
    measure_mcml_cell,
    solve_bias,
    solve_biases,
)
from repro.cells.functions import function
from repro.cells.pgmcml import PgMcmlCellGenerator
from repro.experiments import fig3
from repro.sca import AttackCampaign
import repro.spice.dc as dc
from repro.spice import Circuit, run_transient_batch
from repro.spice.dc import SPARSE_MIN_UNKNOWNS, System
from repro.spice.stimulus import Pulse
from repro.spice.transient import run_transient
from repro.tech import TECH90
from repro.units import uA

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)  # the per-point reference lives in tests/
import tests.dc_oracle as dc_oracle  # noqa: E402
from tests.dc_oracle import (  # noqa: E402
    serial_mc_buffer_residual,
    serial_mc_input_offset,
    serial_solve_bias,
)
from tests.transient_oracle import equal_samples  # noqa: E402

N_STEPS = 256
CHAIN_LEN = 8
REPEATS = 3
N_TRACES = 256
KEY = 0x2B

#: Lockstep batched-transient case: 256 per-trace testbenches, chunked
#: at each of these batch sizes (1 = the serial oracle).
BATCH_TRACES = 256
BATCH_SIZES = (1, 8, 32)
BATCH_STEPS = 64

#: The Fig. 3 values the batched call must reproduce (the rest of a
#: ``Fig3Point`` is the sweep input and the area model).
FIG3_FIELDS = ("delay_fo1", "delay_fo4", "swing")
#: What ``measure_mcml_cell`` reads from each of Fig. 3's 18 lanes.
FIG3_LANE_FIELDS = ("delay", "swing", "iss")

#: The Table 2 cells ``paper-long`` characterises, and their tail current.
TABLE2_CELLS = ("BUF", "DIFF2SINGLE", "AND2", "AND3", "AND4", "MUX2",
                "MUX4", "MAJ32", "XOR2", "XOR3", "XOR4", "FA")
TABLE2_ISS = uA(50)

#: Monte Carlo dies of the ``dc`` section (``paper-long``'s sizes).
MC_OFFSET_DIES = 24
MC_RESIDUAL_DIES = 48

#: Buffer-chain lengths of the bank/sparse crossover (4 to 382 unknowns).
CROSSOVER_CELLS = (1, 2, 4, 8, 16, 32, 64)

RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_spice.json")
ACQ_REFERENCE_PATH = os.path.join(_REPO_ROOT, "BENCH_acquisition.json")

#: Interconnect resistance between chained buffer stages, ohms.
WIRE_RES = 10.0

#: Output load per stage, farads.
LOAD_CAP = 2e-15


def build_chain(n_cells: int):
    """``n_cells`` PG-MCML buffers in one circuit, wired in series.

    Returns ``(circuit, window)`` with a full-swing differential pulse
    on the first stage's input and every rail / bias / sleep net tied
    to its DC source — the same testbench shape as
    ``repro.cells.characterize``, scaled across cells.
    """
    tech = TECH90
    gen = PgMcmlCellGenerator(tech)
    ckt = Circuit(f"pg_chain{n_cells}")
    cells = [gen.build(function("BUF"), circuit=ckt, prefix=f"u{i}_",
                       load_cap=LOAD_CAP)
             for i in range(n_cells)]
    tied = set()
    for cell in cells:
        for short, net, value in (("vdd", cell.vdd_net, tech.vdd),
                                  ("vvn", cell.vn_net, gen.sizing.vn),
                                  ("vvp", cell.vp_net, gen.sizing.vp),
                                  ("vslp", cell.sleep_net, tech.vdd)):
            if net not in tied:
                tied.add(net)
                ckt.v(f"{short}_{net}", net, value)
    window = N_STEPS * 1e-12
    edge = 10e-12
    vdd, swing = tech.vdd, gen.sizing.swing
    in_p, in_n = cells[0].input_nets["A"]
    ckt.v("vin_p", in_p, Pulse(vdd - swing, vdd, window / 2, edge, edge,
                               window, 0.0))
    ckt.v("vin_n", in_n, Pulse(vdd, vdd - swing, window / 2, edge, edge,
                               window, 0.0))
    for i in range(n_cells - 1):
        out_p, out_n = next(iter(cells[i].output_nets.values()))
        nxt_p, nxt_n = cells[i + 1].input_nets["A"]
        ckt.resistor(f"rw{i}_p", out_p, nxt_p, WIRE_RES)
        ckt.resistor(f"rw{i}_n", out_n, nxt_n, WIRE_RES)
    return ckt, window


def forced_assembly(name: str):
    """Every ``System`` built inside the block uses ``name``.

    The one seam to a chosen assembly (``tests/assembly_seam.py`` is
    the same): replace the unknown-count selector in ``repro.spice.dc``.
    """
    return mock.patch.object(dc, "_select_assembly", lambda n: name)


def _timed_transients(circuit, window, assemblies):
    """Best-of-``REPEATS`` transient wall time per assembly.

    The assemblies alternate within each repeat, so a burst of host
    load reaches all of them rather than one block of repeats.
    Returns ``{assembly: (result, seconds)}``.
    """
    best = {}
    for _ in range(REPEATS):
        for assembly in assemblies:
            with forced_assembly(assembly):
                begin = time.perf_counter()
                result = run_transient(circuit, tstop=window,
                                       dt=window / N_STEPS)
                elapsed = time.perf_counter() - begin
            if assembly not in best or elapsed < best[assembly][1]:
                best[assembly] = (result, elapsed)
    return best


def _max_delta(ref, got) -> float:
    """Largest node-voltage difference between two transient results."""
    return max(float(np.max(np.abs(ref.voltages[node] - got.voltages[node])))
               for node in ref.voltages)


def _transient_case(name: str, n_cells: int) -> dict:
    circuit, window = build_chain(n_cells)
    timed = _timed_transients(circuit, window, ("bank", "loop"))
    (bank_result, bank_s), (loop_result, loop_s) = \
        timed["bank"], timed["loop"]
    max_delta = _max_delta(bank_result, loop_result)
    return {
        "case": name,
        "devices": len(circuit.devices),
        "steps": N_STEPS,
        "bank_seconds": round(bank_s, 4),
        "loop_seconds": round(loop_s, 4),
        "speedup": round(loop_s / bank_s, 3),
        "max_voltage_delta": max_delta,
    }


def _crossover_case() -> dict:
    """Bank vs sparse on buffer chains either side of the threshold.

    ``selected`` is what ``System`` picks for the chain by itself;
    ``sparse_over_bank`` below 1 means sparse was faster.
    """
    sizes = []
    for n_cells in CROSSOVER_CELLS:
        circuit, window = build_chain(n_cells)
        timed = _timed_transients(circuit, window, ("bank", "sparse"))
        (bank_result, bank_s), (sparse_result, sparse_s) = \
            timed["bank"], timed["sparse"]
        system = System(circuit)
        sizes.append({
            "cells": n_cells,
            "unknowns": system.n,
            "selected": system.assembly,
            "bank_seconds": round(bank_s, 4),
            "sparse_seconds": round(sparse_s, 4),
            "sparse_over_bank": round(sparse_s / bank_s, 3),
            "max_voltage_delta": _max_delta(bank_result, sparse_result),
        })
    return {
        "sparse_min_unknowns": SPARSE_MIN_UNKNOWNS,
        "steps": N_STEPS,
        "repeats": REPEATS,
        "sizes": sizes,
    }


def build_buffer_lane(lane: int):
    """One PG-MCML buffer testbench of the 256-lane batch.

    The differential input pulse's polarity is the lane index's low bit
    — every lane shares the template's topology and stimulus
    breakpoints (the lockstep requirements), only stimulus values
    differ.
    """
    circuit, window = build_chain(1)
    if lane & 1:
        sources = {s.name: s for s in circuit.vsources}
        p, n = sources["vin_p"], sources["vin_n"]
        p.stimulus, n.stimulus = n.stimulus, p.stimulus
    return circuit, window


def _batched_transient_case() -> dict:
    """256 one-buffer traces at batch 1 / 8 / 32, vs the serial oracle.

    The batch=1 pass runs the plain serial engine — its waveforms are
    the oracle every batched chunk is compared against (they must be
    equal: 0.0 V), and its wall time is the speedup baseline.
    """
    lanes = []
    window = None
    for i in range(BATCH_TRACES):
        circuit, window = build_buffer_lane(i)
        lanes.append(circuit)
    dt = window / BATCH_STEPS
    timings = {}
    oracle = None
    worst = 0.0
    for batch in BATCH_SIZES:
        begin = time.perf_counter()
        if batch == 1:
            results = [run_transient(ckt, tstop=window, dt=dt)
                       for ckt in lanes]
        else:
            results = []
            for b0 in range(0, BATCH_TRACES, batch):
                results.extend(run_transient_batch(
                    lanes[b0:b0 + batch], tstop=window, dt=dt))
        timings[batch] = time.perf_counter() - begin
        if batch == 1:
            oracle = results
        else:
            worst = max(worst, max(
                float(np.max(np.abs(ref.voltages[node]
                                    - res.voltages[node])))
                for ref, res in zip(oracle, results)
                for node in ref.voltages))
    return {
        "case": f"batched_buffer_lanes_{BATCH_TRACES}",
        "traces": BATCH_TRACES,
        "steps": BATCH_STEPS,
        "assembly": "bank",
        "batch_sizes": list(BATCH_SIZES),
        "batch_seconds": {str(b): round(timings[b], 4)
                          for b in BATCH_SIZES},
        "traces_per_sec": {str(b): round(BATCH_TRACES / timings[b], 2)
                           for b in BATCH_SIZES},
        "speedup_batch8": round(timings[1] / timings[8], 3),
        "speedup_batch32": round(timings[1] / timings[32], 3),
        "max_voltage_delta_vs_serial": worst,
    }


def _rel_delta(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


def _agreement(pairs) -> dict:
    """Count and worst relative difference over (batched, serial) pairs."""
    pairs = list(pairs)
    return {
        "values": len(pairs),
        "bit_identical": sum(got == want for got, want in pairs),
        "max_rel_delta": max(_rel_delta(got, want) for got, want in pairs),
    }


def _fig3_case() -> dict:
    """Fig. 3's sweep: one batched call against the serial path.

    Bias points are solved (and cached) before either timer starts, so
    both times are testbench building, transients and measurement.  The
    serial side is ``characterize_mcml_cell`` per lane; the batched side
    is ``fig3.run`` and, for the per-lane comparison, the same
    testbenches measured after one ``run_transient_batch`` call.
    """
    sweep = fig3.DEFAULT_SWEEP
    fn = function("BUF")
    generators = [McmlCellGenerator(sizing=solve_bias(iss).sizing)
                  for iss in sweep]
    begin = time.perf_counter()
    serial = [characterize_mcml_cell(fn, gen, fanout=fanout)
              for gen in generators for fanout in (1, 4)]
    serial_s = time.perf_counter() - begin
    begin = time.perf_counter()
    batched = fig3.run(sweep)
    batched_s = time.perf_counter() - begin
    benches = [mcml_testbench(fn, gen, fanout=fanout)
               for gen in generators for fanout in (1, 4)]
    results = run_transient_batch([b.circuit for b in benches],
                                  tstop=benches[0].window, dt=benches[0].dt,
                                  record=[b.record for b in benches])
    lanes = [measure_mcml_cell(b, r) for b, r in zip(benches, results)]
    reference = [fig3.Fig3Point(iss=iss, delay_fo1=fo1.delay,
                                delay_fo4=fo4.delay, swing=fo1.swing,
                                area_um2=fig3.buffer_area_um2(iss))
                 for iss, fo1, fo4 in zip(sweep, serial[0::2], serial[1::2])]
    return {
        "sweep_ua": [round(iss * 1e6, 6) for iss in sweep],
        "lanes": len(serial),
        "serial_seconds": round(serial_s, 4),
        "batched_seconds": round(batched_s, 4),
        "speedup": round(serial_s / batched_s, 3),
        "points": _agreement(
            (getattr(got, field), getattr(want, field))
            for got, want in zip(batched.points, reference)
            for field in FIG3_FIELDS),
        "lane_values": _agreement(
            (getattr(got, field), getattr(want, field))
            for got, want in zip(lanes, serial)
            for field in FIG3_LANE_FIELDS),
    }


def _table2_case() -> dict:
    """Table 2's cells through the lockstep and the serial engine.

    The bias point is solved and the 12 testbenches built before the
    timers start, so each time is the transients alone; the engines
    alternate within each best-of-``REPEATS`` repeat, as
    ``_timed_transients`` does.  Every node is recorded (the reference
    reads the state from the result); that does not change the march.
    Per cell: how many of the serial run's ``vdd`` samples equal the
    per-grid-point reference bit for bit, and how many of the lockstep's
    recorded arrays equal the serial run's byte for byte.
    """
    generator = PgMcmlCellGenerator(
        sizing=solve_bias(TABLE2_ISS, gated=True).sizing)
    benches = [mcml_testbench(function(name), generator)
               for name in TABLE2_CELLS]
    circuits = [b.circuit for b in benches]
    window, dt = benches[0].window, benches[0].dt
    engines = {
        "lockstep": lambda: run_transient_batch(circuits, tstop=window,
                                                dt=dt),
        "serial": lambda: [run_transient(c, tstop=window, dt=dt)
                           for c in circuits],
    }
    best = {}
    for _ in range(REPEATS):
        for engine, run in engines.items():
            begin = time.perf_counter()
            results = run()
            elapsed = time.perf_counter() - begin
            if engine not in best or elapsed < best[engine][1]:
                best[engine] = (results, elapsed)
    (lockstep, lockstep_s), (serial, serial_s) = \
        best["lockstep"], best["serial"]
    cells = []
    for name, circuit, want, got in zip(TABLE2_CELLS, circuits, serial,
                                        lockstep):
        pairs = [(want.voltages[node], got.voltages[node])
                 for node in want.voltages]
        pairs += [(want.source_currents[src], got.source_currents[src])
                  for src in want.source_currents]
        cells.append({
            "cell": name,
            "vdd_samples": len(want.time),
            "vdd_equal_to_reference": equal_samples(circuit, want),
            "arrays": len(pairs),
            "arrays_equal_to_serial": sum(a.tobytes() == b.tobytes()
                                          for a, b in pairs),
        })
    return {
        "cpu_count": os.cpu_count(),
        "iss_ua": round(TABLE2_ISS * 1e6, 6),
        "repeats": REPEATS,
        "serial_seconds": round(serial_s, 4),
        "lockstep_seconds": round(lockstep_s, 4),
        "speedup": round(serial_s / lockstep_s, 3),
        "transient_steps": sum(r.stats.steps_taken for r in serial),
        "cells": cells,
    }


def assert_table2_exact(case: dict) -> None:
    """Every serial ``vdd`` sample equals the per-point reference, and
    every lockstep array equals the serial run's."""
    for cell in case["cells"]:
        assert cell["vdd_equal_to_reference"] == cell["vdd_samples"], cell
        assert cell["arrays_equal_to_serial"] == cell["arrays"], cell


def _counted(run, module, name: str):
    """Run ``run`` once with ``module.name`` wrapped; returns its
    result, the wrapped function's call count and how many circuits
    the calls were given (their first argument, one circuit or a list)."""
    calls = [0, 0]
    real = getattr(module, name)

    def counting(first, *args, **kwargs):
        calls[0] += 1
        calls[1] += len(first) if isinstance(first, list) else 1
        return real(first, *args, **kwargs)

    with mock.patch.object(module, name, counting):
        result = run()
    return result, calls[0], calls[1]


def _fresh_biases(run):
    """``run`` with the bias cache emptied first, as a cold search."""
    def cold():
        bias_mod._CACHE.clear()
        return run()
    return cold


def _dc_case() -> dict:
    """The DC callers in lockstep against their serial loops.

    Each case runs once counted (the serial loop's ``solve_dc`` calls;
    the lockstep's ``solve_dc_batch`` rounds and lanes, cache hits
    included), then the two alternate within each best-of-``REPEATS``
    repeat.  ``bit_identical`` counts bias points whose ``repr`` equals
    the oracle's and Monte Carlo values equal to the oracle's floats.
    """
    gated = TABLE2_ISS
    cases = {
        "fig3_bias_searches": (
            _fresh_biases(lambda: solve_biases(fig3.DEFAULT_SWEEP)),
            lambda: [serial_solve_bias(iss) for iss in fig3.DEFAULT_SWEEP],
            bias_mod, dc_oracle),
        "table2_gated_bias_search": (
            _fresh_biases(lambda: [solve_bias(gated, gated=True)]),
            lambda: [serial_solve_bias(gated, gated=True)],
            bias_mod, dc_oracle),
        "mc_input_offset": (
            lambda: mc_input_offset(MC_OFFSET_DIES),
            lambda: serial_mc_input_offset(MC_OFFSET_DIES),
            montecarlo, dc_oracle),
        "mc_buffer_residual": (
            lambda: mc_buffer_residual(MC_RESIDUAL_DIES),
            lambda: serial_mc_buffer_residual(MC_RESIDUAL_DIES),
            montecarlo, dc_oracle),
    }
    out = []
    for name, (lockstep, oracle, module, oracle_module) in cases.items():
        got, rounds, lanes = _counted(lockstep, module, "solve_dc_batch")
        want, solves, _ = _counted(oracle, oracle_module, "solve_dc")
        if isinstance(got, list) and got and hasattr(got[0], "sizing"):
            pairs = [(repr(g), repr(w)) for g, w in zip(got, want)]
        elif hasattr(got, "residual_currents"):
            pairs = list(zip(got.residual_currents + got.mean_currents,
                             want.residual_currents + want.mean_currents))
        else:
            pairs = list(zip(got, want))
        best = {}
        for _ in range(REPEATS):
            for engine, run in (("lockstep", lockstep), ("oracle", oracle)):
                begin = time.perf_counter()
                run()
                elapsed = time.perf_counter() - begin
                best[engine] = min(best.get(engine, elapsed), elapsed)
        out.append({
            "case": name,
            "oracle_solves": solves,
            "lockstep_rounds": rounds,
            "lockstep_lanes": lanes,
            "oracle_seconds": round(best["oracle"], 4),
            "lockstep_seconds": round(best["lockstep"], 4),
            "speedup": round(best["oracle"] / best["lockstep"], 3),
            "values": len(pairs),
            "bit_identical": sum(g == w for g, w in pairs),
        })
    return {"cpu_count": os.cpu_count(), "repeats": REPEATS, "cases": out}


def assert_dc_exact(case: dict) -> None:
    """Every lockstep value equals the serial loop's."""
    for entry in case["cases"]:
        assert entry["values"] > 0, entry
        assert entry["bit_identical"] == entry["values"], entry


def _serial_acquisition() -> dict:
    """Serial 256-trace CPA under the bank default, vs the reference."""
    library = build_cmos_library()
    campaign = AttackCampaign(library, KEY)
    begin = time.perf_counter()
    result = campaign.run(list(range(N_TRACES)))
    elapsed = time.perf_counter() - begin
    entry = {
        "n_traces": N_TRACES,
        "serial_seconds": round(elapsed, 4),
        "serial_traces_per_sec": round(N_TRACES / elapsed, 2),
        "cpa_rank": result.rank,
    }
    if os.path.exists(ACQ_REFERENCE_PATH):
        with open(ACQ_REFERENCE_PATH) as fh:
            reference = json.load(fh)
        entry["reference_serial_seconds"] = reference["serial_seconds"]
        entry["reference_cpa_rank"] = reference["cpa_rank_serial"]
        entry["delta_vs_reference_pct"] = round(
            (elapsed / reference["serial_seconds"] - 1.0) * 100.0, 2)
    return entry


def run_comparison():
    """The non-slow report; the slow ``sparse`` section already in
    ``BENCH_spice.json`` is kept."""
    report = {}
    if os.path.exists(RESULT_PATH):
        with open(RESULT_PATH) as fh:
            report = json.load(fh)
    report.update({
        "experiment": "device-bank vs reference-loop MNA assembly",
        "cpu_count": os.cpu_count(),
        "transients": [
            _transient_case("pgmcml_buffer", 1),
            _transient_case(f"pgmcml_chain{CHAIN_LEN}", CHAIN_LEN),
        ],
        "crossover": _crossover_case(),
        "batched": _batched_transient_case(),
        "fig3": _fig3_case(),
        "table2": _table2_case(),
        "dc": _dc_case(),
        "acquisition": _serial_acquisition(),
    })
    with open(RESULT_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def test_bank_assembly_speedup_and_equivalence(benchmark):
    report = run_once(benchmark, run_comparison)
    by_case = {entry["case"]: entry for entry in report["transients"]}
    chain = by_case[f"pgmcml_chain{CHAIN_LEN}"]
    assert chain["speedup"] >= 3.0, chain
    for entry in report["transients"]:
        assert entry["max_voltage_delta"] <= 1e-9, entry
    for size in report["crossover"]["sizes"]:
        assert size["max_voltage_delta"] <= 1e-9, size
    batched = report["batched"]
    assert batched["speedup_batch32"] >= 4.0, batched
    assert batched["max_voltage_delta_vs_serial"] == 0.0, batched
    fig3_case = report["fig3"]
    for part in ("points", "lane_values"):
        assert fig3_case[part]["bit_identical"] == fig3_case[part]["values"], \
            fig3_case
    assert_table2_exact(report["table2"])
    assert_dc_exact(report["dc"])
    acq = report["acquisition"]
    assert acq["cpa_rank"] == 0, acq
    if "reference_cpa_rank" in acq:
        assert acq["cpa_rank"] == acq["reference_cpa_rank"], acq
    benchmark.extra_info.update(report)


# -- sparse CSC assembly vs the dense banks (PR 8) ----------------------------
#
# Run separately (CI job ``sparse-bench``; ``pytest -m slow``): the
# honest dense baseline at S-box-unit scale takes ~30 s of LAPACK, and
# the AES-core case elaborates 144k devices.

def _sbox_unit_testbench():
    """One PG-MCML AES S-box LUT (≈400 cells), ready for a DC solve."""
    from repro.synth import (attach_core_testbench, elaborate_netlist,
                             map_lut, sbox_truth_tables)
    lib = build_pg_mcml_library()
    block = map_lut(lib, sbox_truth_tables(),
                    [f"a{i}" for i in range(8)], name="sbox_bench")
    elab = elaborate_netlist(block.netlist)
    attach_core_testbench(
        elab, {f"a{i}": bool((0x53 >> (7 - i)) & 1) for i in range(8)})
    return elab


def _sparse_sbox_case() -> dict:
    """DC solve of the S-box unit: sparse vs dense-bank, same circuit.

    The headline gate: splu on the canonical CSC pattern must beat the
    dense LAPACK factorization ≥5× at this scale, with every node
    voltage within 1e-9 V.
    """
    from repro.spice import solve_dc

    elab = _sbox_unit_testbench()
    selected = System(elab.circuit)  # picked by its unknown count
    with forced_assembly("bank"):
        dense = System(elab.circuit)
    timings, ops, iters = {}, {}, {}
    for assembly, sys_ in (("bank", dense), ("sparse", selected)):
        begin = time.perf_counter()
        op = solve_dc(elab.circuit, system=sys_)
        timings[assembly] = time.perf_counter() - begin
        ops[assembly] = op
        iters[assembly] = op.diagnostics.total_iterations
    max_delta = max(abs(ops["sparse"].voltages[n] - ops["bank"].voltages[n])
                    for n in ops["bank"].voltages)
    return {
        "case": "pgmcml_sbox_unit_dc",
        "devices": len(elab.circuit.devices),
        "unknowns": selected.n,
        "selected_assembly": selected.assembly,
        "bank_seconds": round(timings["bank"], 4),
        "sparse_seconds": round(timings["sparse"], 4),
        "speedup_sparse": round(timings["bank"] / timings["sparse"], 3),
        "newton_iterations": iters,
        "max_voltage_delta": max_delta,
    }


def _sparse_aes_core_case() -> dict:
    """Sparse-only scale probe: the full PG-MCML AES core.

    No dense baseline exists here — a dense Jacobian at 72k unknowns
    is ~40 GB — so the case records what the sparse path achieves:
    pattern construction, one Newton assembly, and two numeric
    factorizations (the second shows the cached index plans leave only
    splu itself on the per-iteration path).
    """
    from repro.netlist import LogicSimulator
    from repro.synth import (attach_core_testbench, build_aes_core,
                             elaborate_netlist, initial_point)

    core = build_aes_core(build_pg_mcml_library())
    begin = time.perf_counter()
    elab = elaborate_netlist(core.netlist, sleep_tree=core.sleep_tree)
    elaborate_s = time.perf_counter() - begin
    inputs = {f"pt{i}": i % 3 == 0 for i in range(128)}
    inputs.update({f"key{i}": i % 5 == 0 for i in range(128)})
    inputs.update({"clk": False, "load": True})
    attach_core_testbench(elab, inputs)
    sim = LogicSimulator(core.netlist)
    sim.initialize(inputs)
    ic = initial_point(elab, sim.values)

    begin = time.perf_counter()
    sys_ = System(elab.circuit)
    asm = sys_.sparse_assembly()
    pattern_s = time.perf_counter() - begin
    fixed = elab.circuit.fixed_nodes(0.0)
    x = np.array([ic.voltages[n] for n in sys_.unknowns])
    begin = time.perf_counter()
    f, data = sys_.residual_and_jacobian(x, fixed, 0.0)
    assemble_s = time.perf_counter() - begin
    factor_s = []
    for _ in range(2):
        begin = time.perf_counter()
        dx, singular = asm.solve(data, -f)
        factor_s.append(time.perf_counter() - begin)
    return {
        "case": "pgmcml_aes_core_sparse",
        "devices": len(elab.circuit.devices),
        "unknowns": sys_.n,
        "nnz": asm.nnz,
        "dense_jacobian_gigabytes": round(sys_.n * sys_.n * 8 / 1e9, 1),
        "elaborate_seconds": round(elaborate_s, 2),
        "pattern_seconds": round(pattern_s, 2),
        "assemble_seconds": round(assemble_s, 3),
        "factor_seconds": [round(s, 2) for s in factor_s],
        "singular_events": int(singular),
        "dx_finite": bool(np.all(np.isfinite(dx))),
    }


def run_sparse_comparison():
    """The sparse-assembly report, merged into ``BENCH_spice.json``."""
    sparse_report = {
        "experiment": "sparse CSC vs dense-bank MNA assembly",
        "sbox": _sparse_sbox_case(),
        "aes_core": _sparse_aes_core_case(),
    }
    report = {}
    if os.path.exists(RESULT_PATH):
        with open(RESULT_PATH) as fh:
            report = json.load(fh)
    report["sparse"] = sparse_report
    with open(RESULT_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return sparse_report


@pytest.mark.slow
def test_sparse_assembly_speedup_and_scale(benchmark):
    report = run_once(benchmark, run_sparse_comparison)
    sbox = report["sbox"]
    assert sbox["selected_assembly"] == "sparse", sbox
    assert sbox["speedup_sparse"] >= 5.0, sbox
    assert sbox["max_voltage_delta"] <= 1e-9, sbox
    assert (sbox["newton_iterations"]["sparse"]
            == sbox["newton_iterations"]["bank"]), sbox
    core = report["aes_core"]
    assert core["dx_finite"], core
    assert core["unknowns"] > 50_000, core
    assert max(core["factor_seconds"]) < 120.0, core
    benchmark.extra_info.update(report)


def main():
    report = run_comparison()
    report["sparse"] = run_sparse_comparison()
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return report


if __name__ == "__main__":
    main()
