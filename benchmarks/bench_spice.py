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
* 256 per-trace buffer testbenches (pulse polarity driven by the
  plaintext's low bit) marched through the lockstep batched transient
  engine at batch sizes 1 / 8 / 32 — batch=1 is the serial oracle, the
  batched chunks must match it to ≤1e-9 V and batch=32 must be ≥4×
  faster;
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

Every timing is a best-of-``REPEATS`` wall clock; the bank and loop
solutions of each transient are compared point for point so the JSON
also certifies the assemblies agree (≤1e-9 V across the whole wave).

The ``@slow`` sparse section (CI job ``sparse-bench``) adds the PR 8
cases: a full S-box-unit DC solve where the sparse CSC assembly (which
the S-box's ``System`` picks by itself) must beat the dense banks ≥5×
with ≤1e-9 V divergence, and a factor-timing probe of the complete
PG-MCML AES core (72k unknowns) that only the sparse path can
represent at all.
"""

import json
import os
import time
from unittest import mock

import numpy as np
import pytest
from conftest import run_once

from repro.cells import build_cmos_library, build_pg_mcml_library
from repro.cells.functions import function
from repro.cells.pgmcml import PgMcmlCellGenerator
from repro.sca import AttackCampaign
import repro.spice.dc as dc
from repro.spice import Circuit, run_transient_batch
from repro.spice.dc import SPARSE_MIN_UNKNOWNS, System
from repro.spice.stimulus import Pulse
from repro.spice.transient import run_transient
from repro.tech import TECH90

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

#: Buffer-chain lengths of the bank/sparse crossover (4 to 382 unknowns).
CROSSOVER_CELLS = (1, 2, 4, 8, 16, 32, 64)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def _timed_transient(circuit, window, assembly):
    """Best-of-``REPEATS`` transient wall time under one assembly."""
    best, result = None, None
    with forced_assembly(assembly):
        for _ in range(REPEATS):
            begin = time.perf_counter()
            result = run_transient(circuit, tstop=window,
                                   dt=window / N_STEPS)
            elapsed = time.perf_counter() - begin
            if best is None or elapsed < best:
                best = elapsed
    return result, best


def _max_delta(ref, got) -> float:
    """Largest node-voltage difference between two transient results."""
    return max(float(np.max(np.abs(ref.voltages[node] - got.voltages[node])))
               for node in ref.voltages)


def _transient_case(name: str, n_cells: int) -> dict:
    circuit, window = build_chain(n_cells)
    bank_result, bank_s = _timed_transient(circuit, window, "bank")
    loop_result, loop_s = _timed_transient(circuit, window, "loop")
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
        bank_result, bank_s = _timed_transient(circuit, window, "bank")
        sparse_result, sparse_s = _timed_transient(circuit, window,
                                                   "sparse")
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


def build_trace_lane(plaintext: int):
    """One PG-MCML buffer testbench for one acquisition trace.

    The differential input pulse's polarity is the plaintext's low bit
    — every lane shares the template's topology and stimulus
    breakpoints (the lockstep requirements), only stimulus values
    differ, exactly like a campaign's per-plaintext testbenches.
    """
    circuit, window = build_chain(1)
    if plaintext & 1:
        sources = {s.name: s for s in circuit.vsources}
        p, n = sources["vin_p"], sources["vin_n"]
        p.stimulus, n.stimulus = n.stimulus, p.stimulus
    return circuit, window


def _batched_transient_case() -> dict:
    """256 one-buffer traces at batch 1 / 8 / 32, vs the serial oracle.

    The batch=1 pass runs the plain serial engine — its waveforms are
    the oracle every batched chunk is compared against (≤1e-9 V), and
    its wall time is the speedup baseline.
    """
    lanes = []
    window = None
    for i in range(BATCH_TRACES):
        circuit, window = build_trace_lane(i)
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
        "case": f"batched_acquisition_{BATCH_TRACES}",
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


def _serial_acquisition() -> dict:
    """Serial 256-trace CPA under the bank default, vs the reference."""
    library = build_cmos_library()
    campaign = AttackCampaign(library, KEY)
    begin = time.perf_counter()
    result = campaign.run(list(range(N_TRACES)), workers=1)
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
    report = {
        "experiment": "device-bank vs reference-loop MNA assembly",
        "cpu_count": os.cpu_count(),
        "transients": [
            _transient_case("pgmcml_buffer", 1),
            _transient_case(f"pgmcml_chain{CHAIN_LEN}", CHAIN_LEN),
        ],
        "crossover": _crossover_case(),
        "batched": _batched_transient_case(),
        "acquisition": _serial_acquisition(),
    }
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
    assert batched["max_voltage_delta_vs_serial"] <= 1e-9, batched
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
