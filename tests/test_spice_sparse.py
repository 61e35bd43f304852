"""Sparse MNA assembly + operating-point cache: the equivalence proof.

The sparse path (:mod:`repro.spice.sparse`) assembles the same
floating-point residual and Jacobian entries as the dense device banks
— one canonical ``nnz`` data vector instead of an ``(n, n)`` array —
and factors with SuperLU instead of LAPACK.  The contract proven here:

* **entry-for-entry Jacobian identity** — densifying the sparse data
  vector reproduces the bank Jacobian exactly (same bincount sums);
* **solution equivalence** — DC operating points and transient
  waveforms agree across ``bank`` / ``loop`` / ``sparse`` to ≤1e-9 for
  all three library styles, sleep on and off; batched lanes whose
  ``System`` selects the sparse assembly run serially and match too;
* **identical control flow** — the Newton iteration counts and recovery
  ladder attempts of a PG-MCML buffer chain are byte-identical across
  assemblies (pinned as a regression reference);
* **the operating-point cache is safe** — hits are byte-identical to
  cold solves, content (not name) addressed, invalidated by
  ``swap_device`` and fault-proxy injection, and keyed on source names.

Each comparison builds its ``System`` under ``forced_assembly`` (the
seam in ``tests/assembly_seam.py``); everywhere else the unknown count
picks the assembly.

Full-core (AES) cases are ``@pytest.mark.slow``: ERC preflight over the
complete elaborated core in every style, and the headline smoke test —
a supply-current transient of the 144k-device PG-MCML core that only
the sparse assembly can run.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import (
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
)
from repro.cells.cmos import CmosCellGenerator
from repro.cells.functions import function
from repro.cells.mcml import McmlCellGenerator
from repro.cells.pgmcml import PgMcmlCellGenerator
from repro.errors import CircuitError, ConvergenceError, SynthesisError
from repro.faultinject import Fault, FaultInjector
from repro.netlist import LogicSimulator
from repro.obs import MemorySink, Telemetry
from repro.spice import (
    Circuit,
    DC,
    OperatingPointCache,
    Pulse,
    run_transient,
    run_transient_batch,
    solve_dc,
)
from repro.spice import sparse as sparse_mod
from repro.spice.dc import System
from repro.spice.erc import check_circuit
from repro.synth import (
    attach_core_testbench,
    build_aes_core,
    elaborate_netlist,
    initial_point,
    map_lut,
)
from repro.tech import TECH90
from repro.units import um

from .assembly_seam import ASSEMBLIES, forced_assembly, forced_system

#: Pinned reference trajectory of the 3-buffer PG-MCML chain DC solve
#: (TestDiagnosticsPinned): plain Newton converges without touching the
#: recovery ladder, in exactly this many iterations, in every assembly.
PINNED_CONVERGED_BY = "newton"
PINNED_ATTEMPTS = 1
PINNED_ITERATIONS = 16

#: (library style, sleep drive) cases — sleep only applies to PG-MCML.
STYLE_CASES = [
    ("cmos", None),
    ("mcml", None),
    ("pgmcml", True),
    ("pgmcml", False),
]

LIB_BUILDERS = {
    "cmos": build_cmos_library,
    "mcml": build_mcml_library,
    "pgmcml": build_pg_mcml_library,
}


# -- testbench builders -------------------------------------------------------

def biased_cell(style: str, fn_name: str = "AND2",
                sleep_on: bool = True) -> Circuit:
    """One generated differential cell with rails, bias, and DC inputs."""
    gen_cls = PgMcmlCellGenerator if style == "pgmcml" else McmlCellGenerator
    gen = gen_cls(TECH90)
    cell = gen.build(function(fn_name), load_cap=2e-15)
    ckt = cell.circuit
    ckt.v("vdd", cell.vdd_net, TECH90.vdd)
    ckt.v("vvn", cell.vn_net, gen.sizing.vn)
    ckt.v("vvp", cell.vp_net, gen.sizing.vp)
    if cell.has_sleep:
        ckt.v("vslp", cell.sleep_net, TECH90.vdd if sleep_on else 0.0)
    swing = gen.sizing.swing
    for i, (pos, neg) in enumerate(cell.input_nets.values()):
        hi = i % 2 == 0
        ckt.v(f"vi{i}p", pos, TECH90.vdd - (0.0 if hi else swing))
        ckt.v(f"vi{i}n", neg, TECH90.vdd - (swing if hi else 0.0))
    return ckt


def cmos_cell(fn_name: str = "NAND2") -> Circuit:
    """One static CMOS gate with rails and DC inputs."""
    gen = CmosCellGenerator(TECH90)
    cell = gen.build(fn_name, load_cap=2e-15)
    ckt = cell.circuit
    ckt.v("vdd", cell.vdd_net, TECH90.vdd)
    for i, net in enumerate(cell.input_nets.values()):
        ckt.v(f"vi{i}", net, TECH90.vdd if i % 2 == 0 else 0.0)
    return ckt


def styled_cell(style: str, sleep_on, fn_name: str = "AND2") -> Circuit:
    if style == "cmos":
        # CMOS has primitive templates only; pick a same-arity gate.
        return cmos_cell({"AND2": "NAND2", "XOR2": "NOR2"}[fn_name])
    return biased_cell(style, fn_name, bool(sleep_on))


def pg_buffer_chain(n_cells: int = 3, sleep_on: bool = True,
                    pulse: bool = False):
    """``n_cells`` PG-MCML buffers in series (the bench_spice workload)."""
    gen = PgMcmlCellGenerator(TECH90)
    ckt = Circuit(f"pg_chain{n_cells}")
    cells = [gen.build(function("BUF"), circuit=ckt, prefix=f"u{i}_",
                       load_cap=2e-15)
             for i in range(n_cells)]
    tied = set()
    for cell in cells:
        for short, net, value in (
                ("vdd", cell.vdd_net, TECH90.vdd),
                ("vvn", cell.vn_net, gen.sizing.vn),
                ("vvp", cell.vp_net, gen.sizing.vp),
                ("vslp", cell.sleep_net,
                 TECH90.vdd if sleep_on else 0.0)):
            if net not in tied:
                tied.add(net)
                ckt.v(f"{short}_{net}", net, value)
    vdd, swing = TECH90.vdd, gen.sizing.swing
    in_p, in_n = cells[0].input_nets["A"]
    if pulse:
        window, edge = 64e-12, 5e-12
        ckt.v("vin_p", in_p, Pulse(vdd - swing, vdd, window / 2, edge,
                                   edge, window, 0.0))
        ckt.v("vin_n", in_n, Pulse(vdd, vdd - swing, window / 2, edge,
                                   edge, window, 0.0))
    else:
        ckt.v("vin_p", in_p, vdd)
        ckt.v("vin_n", in_n, vdd - swing)
    for i in range(n_cells - 1):
        out_p, out_n = next(iter(cells[i].output_nets.values()))
        nxt_p, nxt_n = cells[i + 1].input_nets["A"]
        ckt.resistor(f"rw{i}_p", out_p, nxt_p, 10.0)
        ckt.resistor(f"rw{i}_n", out_n, nxt_n, 10.0)
    return ckt


def dc_solution(circuit: Circuit, assembly: str):
    return solve_dc(circuit, system=forced_system(circuit, assembly))


def assert_ops_close(op_a, op_b, tol=1e-9):
    assert set(op_a.voltages) == set(op_b.voltages)
    for node in op_a.voltages:
        assert op_a.voltages[node] == pytest.approx(
            op_b.voltages[node], abs=tol), node


# -- DC equivalence -----------------------------------------------------------

class TestDcEquivalence:
    @pytest.mark.parametrize("style,sleep_on", STYLE_CASES)
    @pytest.mark.parametrize("fn_name", ["AND2", "XOR2"])
    def test_cell_dc_sparse_matches_bank_and_loop(self, style, sleep_on,
                                                  fn_name):
        ops = {a: dc_solution(styled_cell(style, sleep_on, fn_name), a)
               for a in ASSEMBLIES}
        assert_ops_close(ops["sparse"], ops["bank"])
        assert_ops_close(ops["sparse"], ops["loop"])

    def test_jacobian_entries_identical(self):
        """Densified sparse data == bank Jacobian, entry for entry."""
        ckt = biased_cell("pgmcml", "AND2")
        bank = forced_system(ckt, "bank")
        sparse = forced_system(ckt, "sparse")
        fixed = ckt.fixed_nodes(0.0)
        rng = np.random.default_rng(7)
        x = 0.6 + 0.1 * rng.standard_normal(bank.n)
        for gmin in (0.0, 1e-9):
            f_b, j_b = bank.residual_and_jacobian(x, fixed, gmin)
            f_s, data = sparse.residual_and_jacobian(x, fixed, gmin)
            np.testing.assert_array_equal(f_s, f_b)
            asm = sparse.sparse_assembly()
            dense = np.zeros((sparse.n, sparse.n))
            dense[asm._perm[:, None], asm._perm[None, :]] = \
                asm.matrix(data).toarray()
            np.testing.assert_allclose(dense, j_b, rtol=1e-12, atol=1e-15)

    def test_fixed_node_currents_match(self):
        ckt = biased_cell("mcml", "MUX2")
        bank = forced_system(ckt, "bank")
        sparse = forced_system(ckt, "sparse")
        fixed = ckt.fixed_nodes(0.0)
        x = np.full(bank.n, 0.7)
        cur_b = bank.fixed_node_currents(x, fixed)
        cur_s = sparse.fixed_node_currents(x, fixed)
        assert set(cur_b) == set(cur_s)
        for node in cur_b:
            assert cur_s[node] == pytest.approx(cur_b[node], rel=1e-9,
                                                abs=1e-15)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_random_network_equivalence(self, seed):
        """Random component values on a CMOS-inverter-ish network:
        all three assemblies find the same operating point."""
        rng = np.random.default_rng(seed)
        from repro.tech import NMOS_LVT, PMOS_LVT
        ckt = Circuit(f"rand{seed}")
        ckt.v("vdd", "vdd", float(rng.uniform(0.9, 1.4)))
        ckt.v("vin", "a", float(rng.uniform(0.0, 1.2)))
        ckt.resistor("r1", "vdd", "b", float(rng.uniform(1e3, 1e5)))
        ckt.resistor("r2", "b", "c", float(rng.uniform(1e3, 1e5)))
        ckt.resistor("r3", "c", "0", float(rng.uniform(1e3, 1e5)))
        ckt.isource("i1", "b", "0", float(rng.uniform(1e-8, 1e-6)))
        ckt.capacitor("c1", "b", "0", 1e-15)
        ckt.mosfet("mn", "b", "a", "0", "0", NMOS_LVT,
                   w=um(float(rng.uniform(0.2, 1.0))), l=um(0.1))
        ckt.mosfet("mp", "b", "a", "vdd", "vdd", PMOS_LVT,
                   w=um(float(rng.uniform(0.2, 1.0))), l=um(0.1))
        ops = {a: dc_solution(ckt, a) for a in ASSEMBLIES}
        assert_ops_close(ops["sparse"], ops["bank"])
        assert_ops_close(ops["sparse"], ops["loop"])


# -- transient / batch equivalence --------------------------------------------

class TestTransientEquivalence:
    @pytest.mark.parametrize("sleep_on", [True, False])
    def test_pg_chain_waveforms(self, sleep_on):
        results = {}
        for assembly in ASSEMBLIES:
            ckt = pg_buffer_chain(2, sleep_on=sleep_on, pulse=True)
            with forced_assembly(assembly):
                results[assembly] = run_transient(ckt, tstop=64e-12,
                                                  dt=1e-12)
        ref = results["bank"]
        for assembly in ("loop", "sparse"):
            res = results[assembly]
            np.testing.assert_array_equal(res.time, ref.time)
            for node in ref.voltages:
                np.testing.assert_allclose(
                    res.voltages[node], ref.voltages[node], atol=1e-9,
                    err_msg=f"{assembly}:{node}")
            for src in ref.source_currents:
                np.testing.assert_allclose(
                    res.source_currents[src], ref.source_currents[src],
                    atol=1e-9, err_msg=f"{assembly}:{src}")

    @pytest.mark.parametrize("style", ["cmos", "mcml"])
    def test_single_cell_transient(self, style):
        def build():
            if style == "cmos":
                gen = CmosCellGenerator(TECH90)
                cell = gen.build("INV", load_cap=2e-15)
                ckt = cell.circuit
                ckt.v("vdd", cell.vdd_net, TECH90.vdd)
                ckt.v("vin", next(iter(cell.input_nets.values())),
                      Pulse(0.0, TECH90.vdd, 20e-12, 2e-12, 2e-12, 80e-12))
                return ckt
            gen = McmlCellGenerator(TECH90)
            cell = gen.build(function("BUF"), load_cap=2e-15)
            ckt = cell.circuit
            ckt.v("vdd", cell.vdd_net, TECH90.vdd)
            ckt.v("vvn", cell.vn_net, gen.sizing.vn)
            ckt.v("vvp", cell.vp_net, gen.sizing.vp)
            vdd, swing = TECH90.vdd, gen.sizing.swing
            in_p, in_n = cell.input_nets["A"]
            ckt.v("vin_p", in_p, Pulse(vdd - swing, vdd, 20e-12, 2e-12,
                                       2e-12, 80e-12))
            ckt.v("vin_n", in_n, Pulse(vdd, vdd - swing, 20e-12, 2e-12,
                                       2e-12, 80e-12))
            return ckt

        waves = {}
        for assembly in ("bank", "sparse"):
            with forced_assembly(assembly):
                waves[assembly] = run_transient(build(), tstop=60e-12,
                                                dt=1e-12)
        ref, got = waves["bank"], waves["sparse"]
        for node in ref.voltages:
            np.testing.assert_allclose(got.voltages[node],
                                       ref.voltages[node], atol=1e-9)

    @staticmethod
    def sparse_batch(circuits, tstop, dt):
        """``run_transient_batch`` under the sparse assembly, checking
        that the batch fell back to serial runs."""
        sink = MemorySink()
        with forced_assembly("sparse"):
            results = run_transient_batch(circuits, tstop=tstop, dt=dt,
                                          telemetry=Telemetry(sinks=[sink]))
        fallbacks = [r for r in sink.records
                     if r.get("name") == "spice.batch.fallback"]
        assert len(fallbacks) == 1
        assert "sparse assembly" in fallbacks[0]["attrs"]["reason"]
        return results

    def test_batched_sparse_matches_serial_bank(self):
        def lanes(n):
            out = []
            for k in range(n):
                ckt = Circuit("rc")
                ckt.v("vin", "in",
                      Pulse(0.0, 1.0 + 0.1 * k, 1e-9, 1e-12, 1e-12, 50e-9))
                ckt.resistor("r1", "in", "out", 1e3 * (k + 1))
                ckt.capacitor("c1", "out", "0", 1e-12)
                out.append(ckt)
            return out

        with forced_assembly("bank"):
            serial = [run_transient(c, tstop=5e-9, dt=0.5e-10)
                      for c in lanes(4)]
        batched = self.sparse_batch(lanes(4), tstop=5e-9, dt=0.5e-10)
        for ref, got in zip(serial, batched):
            np.testing.assert_array_equal(got.time, ref.time)
            for node in ref.voltages:
                np.testing.assert_allclose(got.voltages[node],
                                           ref.voltages[node], atol=1e-9)

    def test_batched_pg_cells_sparse(self):
        def lanes(n):
            return [pg_buffer_chain(1, pulse=True) for _ in range(n)]

        with forced_assembly("bank"):
            serial = [run_transient(c, tstop=32e-12, dt=1e-12)
                      for c in lanes(3)]
        batched = self.sparse_batch(lanes(3), tstop=32e-12, dt=1e-12)
        for ref, got in zip(serial, batched):
            for node in ref.voltages:
                np.testing.assert_allclose(got.voltages[node],
                                           ref.voltages[node], atol=1e-9)


# -- control-flow regression (satellite: pinned diagnostics) ------------------

class TestDiagnosticsPinned:
    def test_newton_trajectory_identical_across_assemblies(self):
        """Same iteration counts, attempts, and ladder verdicts.

        The sparse path must not change Newton's control flow — only
        the linear algebra inside each step.  The pinned numbers are
        the reference trajectory of a 3-buffer PG-MCML chain; a change
        means the solver's numerics moved (review, then re-pin).
        """
        diags = {}
        for assembly in ASSEMBLIES:
            op = dc_solution(pg_buffer_chain(3), assembly)
            diags[assembly] = op.diagnostics
        ref = diags["bank"]
        for assembly in ("loop", "sparse"):
            d = diags[assembly]
            assert d.converged_by == ref.converged_by
            assert d.strategies() == ref.strategies()
            assert d.total_iterations == ref.total_iterations
            assert [a.iterations for a in d.attempts] == \
                [a.iterations for a in ref.attempts]
        # Pinned reference (regression): see docstring before re-pinning.
        assert ref.converged_by == PINNED_CONVERGED_BY
        assert len(ref.attempts) == PINNED_ATTEMPTS
        assert ref.total_iterations == PINNED_ITERATIONS


# -- sparse assembly unit behaviour -------------------------------------------

class TestSparseAssemblyUnit:
    def _small(self):
        ckt = biased_cell("pgmcml", "BUF")
        sys_ = forced_system(ckt, "sparse")
        return ckt, sys_, sys_.sparse_assembly()

    def test_positions_outside_pattern_raise(self):
        _, sys_, asm = self._small()
        rows = np.array([0])
        cols = np.array([sys_.n - 1])
        flat = asm._invperm[cols] * asm.n + asm._invperm[rows]
        if np.isin(flat, asm._uniq).any():
            pytest.skip("corner coordinate happens to be in the pattern")
        with pytest.raises(CircuitError, match="outside the sparse"):
            asm.positions(rows, cols)

    def test_positions_roundtrip(self):
        _, _, asm = self._small()
        rows = np.arange(asm.n)
        pos = asm.positions(rows, rows)
        np.testing.assert_array_equal(pos, asm.diag_pos)

    def test_singular_takes_tikhonov_retry(self):
        _, _, asm = self._small()
        data = np.zeros(asm.nnz)
        rhs = np.zeros(asm.n)
        dx, singular = asm.solve(data, rhs)
        assert singular == 1
        np.testing.assert_allclose(dx, 0.0)

    def test_doubly_singular_small_system_densifies(self, monkeypatch):
        _, _, asm = self._small()
        monkeypatch.setattr(sparse_mod, "_TIKHONOV", 0.0)
        rhs = np.zeros(asm.n)
        dx, singular = asm.solve(np.zeros(asm.nnz), rhs)
        assert singular == 1
        np.testing.assert_allclose(dx, 0.0)

    def test_doubly_singular_large_system_fails_loudly(self, monkeypatch):
        _, _, asm = self._small()
        monkeypatch.setattr(sparse_mod, "_TIKHONOV", 0.0)
        monkeypatch.setattr(sparse_mod, "_DENSE_LSTSQ_LIMIT", 1)
        with pytest.raises(ConvergenceError, match="singular"):
            asm.solve(np.zeros(asm.nnz), np.zeros(asm.n))

    def test_empty_system(self):
        ckt = Circuit("allfixed")
        ckt.v("vdd", "a", 1.0)
        ckt.resistor("r1", "a", "0", 1e3)
        sys_ = forced_system(ckt, "sparse")
        assert sys_.n == 0
        op = solve_dc(ckt, system=sys_)
        assert op.voltages["a"] == pytest.approx(1.0)

    def test_rebuilt_after_swap_device(self):
        from repro.spice import Capacitor
        ckt, sys_, asm = self._small()
        old = next(d for d in ckt.devices if type(d) is Capacitor)
        ckt.swap_device(old.name, Capacitor(old.name, *old.terminals,
                                            old.capacitance * 2))
        assert sys_.sparse_assembly() is not asm


# -- operating-point cache ----------------------------------------------------

class TestOperatingPointCache:
    def test_hit_is_byte_identical_to_cold_solve(self):
        cache = OperatingPointCache()
        ckt = pg_buffer_chain(2)
        cold = solve_dc(ckt, op_cache=cache)
        hit = solve_dc(ckt, op_cache=cache)
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
        assert set(hit.voltages) == set(cold.voltages)
        for node in cold.voltages:
            # Byte identity, not closeness: same float, same repr.
            assert hit.voltages[node] == cold.voltages[node]
            assert repr(hit.voltages[node]) == repr(cold.voltages[node])

    def test_mutating_a_hit_does_not_poison_the_cache(self):
        cache = OperatingPointCache()
        ckt = cmos_cell("INV")
        first = solve_dc(ckt, op_cache=cache)
        node = next(iter(first.voltages))
        first.voltages[node] = 99.0
        again = solve_dc(ckt, op_cache=cache)
        assert again.voltages[node] != 99.0

    def test_content_addressed_across_equal_builds(self):
        cache = OperatingPointCache()
        solve_dc(cmos_cell("NAND2"), op_cache=cache)
        solve_dc(cmos_cell("NAND2"), op_cache=cache)
        assert cache.hits == 1

    def test_parameter_change_misses(self):
        cache = OperatingPointCache()
        a = cmos_cell("INV")
        b = cmos_cell("INV")
        a.resistor("rx", "vdd", "0", 2e6)
        b.resistor("rx", "vdd", "0", 1e6)
        solve_dc(a, op_cache=cache)
        solve_dc(b, op_cache=cache)
        assert cache.hits == 0 and cache.misses == 2

    def test_swap_device_invalidates(self):
        from repro.spice import Resistor
        cache = OperatingPointCache()
        ckt = cmos_cell("INV")
        ckt.resistor("rl", "vdd", "0", 1e6)
        solve_dc(ckt, op_cache=cache)
        ckt.swap_device("rl", Resistor("rl", "vdd", "0", 5e5))
        solve_dc(ckt, op_cache=cache)
        assert cache.hits == 0 and cache.misses == 2

    def test_guess_is_part_of_the_key(self):
        cache = OperatingPointCache()
        ckt = cmos_cell("INV")
        solve_dc(ckt, op_cache=cache)
        node = next(iter(System(ckt).unknowns))
        solve_dc(ckt, guess={node: 0.3}, op_cache=cache)
        assert cache.hits == 0 and cache.misses == 2

    def test_recovery_policy_bypasses(self):
        from repro.spice.recovery import RecoveryPolicy
        cache = OperatingPointCache()
        ckt = cmos_cell("INV")
        solve_dc(ckt, policy=RecoveryPolicy(), op_cache=cache)
        assert cache.bypasses == 1 and cache.misses == 0

    def test_unknown_device_class_bypasses(self):
        from repro.spice.devices import Device

        class Weird(Device):
            def __init__(self):
                super().__init__("w1", ("a", "0"))

            def currents(self, volts):
                return [volts[0] * 1e-3, -volts[0] * 1e-3]

        cache = OperatingPointCache()
        ckt = Circuit("weird")
        ckt.v("vs", "a", 1.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.resistor("r2", "b", "0", 1e3)
        ckt.add(Weird())
        solve_dc(ckt, op_cache=cache)
        assert cache.bypasses == 1 and len(cache) == 0

    def test_source_names_are_part_of_the_key(self):
        """Same devices and node voltages, different source name: the
        second solve must miss, or its ``source_currents`` would name
        the first circuit's source."""
        def divider(source):
            ckt = Circuit("div")
            ckt.v(source, "a", 1.0)
            ckt.resistor("r1", "a", "b", 1e3)
            ckt.resistor("r2", "b", "0", 1e3)
            return ckt

        cache = OperatingPointCache()
        first = solve_dc(divider("v1"), op_cache=cache)
        second = solve_dc(divider("vx"), op_cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        assert set(second.source_currents) == {"vx"}
        assert second.current("vx") == first.current("v1")

    def test_telemetry_counters(self):
        tele = Telemetry(sinks=[])
        cache = OperatingPointCache()
        ckt = cmos_cell("INV")
        solve_dc(ckt, op_cache=cache, telemetry=tele)
        solve_dc(ckt, op_cache=cache, telemetry=tele)
        reg = tele.registry
        assert reg.counter("spice.opcache.misses").value == 1
        assert reg.counter("spice.opcache.stores").value == 1
        assert reg.counter("spice.opcache.hits").value == 1

    def test_clear_resets_entries_and_counters(self):
        cache = OperatingPointCache()
        solve_dc(cmos_cell("INV"), op_cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.counters() == {"hits": 0, "misses": 0, "bypasses": 0,
                                    "stores": 0, "entries": 0}

    def test_cache_consistent_across_assemblies(self):
        """Assembly is part of the key; a hit never crosses assemblies."""
        cache = OperatingPointCache()
        ckt = cmos_cell("INV")
        solve_dc(ckt, system=forced_system(ckt, "bank"), op_cache=cache)
        solve_dc(ckt, system=forced_system(ckt, "sparse"), op_cache=cache)
        assert cache.hits == 0 and cache.misses == 2


# -- elaboration: gate netlist -> transistor circuit --------------------------

XOR_TABLE = [0, 1, 1, 0]


def lut_block(style: str):
    """A 2-input XOR plus a constant-high output (exercises ties)."""
    lib = LIB_BUILDERS[style]()
    return map_lut(lib, {"y": XOR_TABLE, "k": [1, 1, 1, 1]},
                   ["a", "b"], name=f"xorlut_{style}")


class TestElaborator:
    @pytest.mark.parametrize("style", ["cmos", "mcml", "pgmcml"])
    @pytest.mark.parametrize("a,b", [(False, False), (True, False),
                                     (True, True)])
    def test_lut_dc_truth(self, style, a, b):
        block = lut_block(style)
        elab = elaborate_netlist(block.netlist)
        attach_core_testbench(elab, {"a": a, "b": b})
        op = dc_solution(elab.circuit, "sparse")
        hi, lo = elab.logic_levels
        mid = (hi + lo) / 2.0
        for out, want in (("y", a != b), ("k", True)):
            rails = elab.rails(block.outputs[out])
            if isinstance(rails, tuple):
                diff = op.voltages[rails[0]] - op.voltages[rails[1]]
                assert (diff > 0) == want, (out, diff)
            else:
                assert (op.voltages[rails] > mid) == want

    def test_differential_elaboration_matches_bank_assembly(self):
        block = lut_block("pgmcml")
        elab = elaborate_netlist(block.netlist)
        attach_core_testbench(elab, {"a": True, "b": False})
        assert_ops_close(dc_solution(elab.circuit, "sparse"),
                         dc_solution(elab.circuit, "bank"))

    def test_netlist_bindings(self):
        block = lut_block("mcml")
        elab = elaborate_netlist(block.netlist)
        assert elab.differential
        assert elab.device_count == len(elab.circuit.devices)
        p, n = elab.rails("a")
        assert p != n
        with pytest.raises(SynthesisError, match="not a net"):
            elab.rails("nonexistent")

    def test_missing_primary_input_rejected(self):
        block = lut_block("cmos")
        elab = elaborate_netlist(block.netlist)
        with pytest.raises(SynthesisError, match="undriven primary"):
            attach_core_testbench(elab, {"a": True})

    def test_cmos_dff_latches_on_clock_edge(self):
        lib = build_cmos_library()
        from repro.netlist.graph import GateNetlist
        nl = GateNetlist("dffcore", lib)
        nl.add_primary_input("d")
        nl.add_primary_input("ck")
        nl.add_instance("DFF", {"D": "d", "CK": "ck", "Q": "q"}, name="ff")
        nl.add_instance("INV", {"A": "q", "Y": "qn"}, name="u1")
        nl.add_primary_output("qn")
        elab = elaborate_netlist(nl)
        vdd = TECH90.vdd
        ck = Pulse(0.0, vdd, 40e-12, 2e-12, 2e-12, 200e-12)
        attach_core_testbench(elab, {"d": True, "ck": ck})
        sim = LogicSimulator(nl)
        sim.initialize({"d": True, "ck": False})
        ic = initial_point(elab, sim.values)
        res = run_transient(elab.circuit, tstop=100e-12, dt=1e-12, ic=ic)
        q = elab.rails("q")
        assert res.wave(q).v[0] < 0.3 * vdd  # seeded low
        assert res.wave(q).v[-1] > 0.7 * vdd  # latched after the edge

    def test_initial_point_covers_every_node(self):
        block = lut_block("pgmcml")
        elab = elaborate_netlist(block.netlist)
        attach_core_testbench(elab, {"a": True, "b": True})
        sim = LogicSimulator(block.netlist)
        sim.initialize({"a": True, "b": True})
        ic = initial_point(elab, sim.values)
        sys_ = System(elab.circuit)
        assert all(n in ic.voltages for n in sys_.unknowns)

    def test_sleep_tree_leaf_missing_rejected(self):
        from repro.synth.sleep import SleepTree
        block = lut_block("pgmcml")
        bare = SleepTree(root_net="sleep_root", levels=0,
                         buffer_instances=[], leaf_of={},
                         insertion_delay=0.0, fanout_limit=4)
        with pytest.raises(SynthesisError, match="sleep-tree leaf"):
            elaborate_netlist(block.netlist, sleep_tree=bare)


# -- full-core cases (slow; CI slow-tests job) --------------------------------

def _core_inputs(load=True, clk=False):
    inputs = {f"pt{i}": (i % 3 == 0) for i in range(128)}
    inputs.update({f"key{i}": (i % 5 == 0) for i in range(128)})
    inputs["clk"] = clk
    inputs["load"] = load
    return inputs


@pytest.mark.slow
class TestFullCore:
    @pytest.mark.parametrize("style", ["cmos", "mcml", "pgmcml"])
    def test_erc_clean_and_linear_time(self, style):
        """ERC over the full elaborated core: no false positives.

        Also pins the O(devices) claim: checking the ~10^5-device core
        must cost no more than a generous per-device constant.
        """
        lib = LIB_BUILDERS[style]()
        core = build_aes_core(lib)
        elab = elaborate_netlist(core.netlist, sleep_tree=core.sleep_tree)
        attach_core_testbench(elab, _core_inputs())
        begin = time.perf_counter()
        report = check_circuit(elab.circuit, style=elab.style)
        elapsed = time.perf_counter() - begin
        assert report.ok, report.findings[:10]
        assert not report.findings
        n_dev = len(elab.circuit.devices)
        assert n_dev > 20_000
        assert elapsed < max(5.0, 100e-6 * n_dev), \
            f"ERC took {elapsed:.1f}s for {n_dev} devices"

    def test_aes_core_sparse_supply_current_smoke(self):
        """The headline: a transient the dense assembly cannot run.

        144k devices / 72k unknowns — a dense Jacobian would be 40 GB.
        The core's ``System`` picks the sparse engine by itself, which
        must march a few backward-Euler steps from a logic-seeded
        initial point and produce a finite supply-current waveform.
        """
        core = build_aes_core(build_pg_mcml_library())
        elab = elaborate_netlist(core.netlist, sleep_tree=core.sleep_tree)
        inputs = _core_inputs()
        attach_core_testbench(elab, inputs)
        sim = LogicSimulator(core.netlist)
        sim.initialize(inputs)
        ic = initial_point(elab, sim.values)
        res = run_transient(elab.circuit, tstop=4e-12, dt=1e-12,
                            record=[elab.vdd_net], ic=ic)
        supply = res.current("vdd")
        assert len(supply.v) == len(res.time) > 1
        assert np.all(np.isfinite(supply.v))
        assert np.max(np.abs(supply.v)) > 0.0
