"""Bank-vs-loop equivalence of the vectorized MNA assembly.

The banked path (:mod:`repro.spice.banks`) must reproduce the reference
per-device loop's residual, Jacobian, and fixed-node currents to
floating-point rounding (the issue's bound is 1e-12; in practice the
two agree to ~1e-15 because both evaluate the same EKV arithmetic with
the same forward-difference step).  It also pins the size rule that
gives a ``System`` the dense banks below ``SPARSE_MIN_UNKNOWNS`` unknowns
and the sparse assembly from there on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells.functions import function
from repro.cells.mcml import McmlCellGenerator
from repro.cells.pgmcml import PgMcmlCellGenerator
from repro.spice import Circuit, run_transient, run_transient_batch, solve_dc
from repro.spice.batch import BatchSystem
from repro.spice.dc import SPARSE_MIN_UNKNOWNS, System
from repro.spice.devices import Mosfet
from repro.spice.stimulus import Pulse
from repro.tech import NMOS_LVT, PMOS_LVT, TECH90
from repro.units import um

from .assembly_seam import forced_system

VDD = 1.2


def biased_cell(style: str, fn_name: str = "AND2",
                sleep_on: bool = True) -> Circuit:
    """A generated cell with rails, bias, and DC inputs attached."""
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


def mixed_circuit() -> Circuit:
    """Every banked device class at once, plus a capacitor (skipped)."""
    c = Circuit("mixed")
    c.v("vdd", "vdd", VDD)
    c.resistor("r1", "vdd", "a", 1e3)
    c.resistor("r2", "a", "b", 2e3)
    c.isource("i1", "b", "0", 1e-5)
    c.capacitor("c1", "a", "0", 1e-15)
    c.mosfet("mn", "b", "a", "0", "0", NMOS_LVT, w=um(0.3), l=um(0.1))
    c.mosfet("mp", "b", "a", "vdd", "vdd", PMOS_LVT, w=um(0.6), l=um(0.1))
    return c


def assert_assemblies_agree(circuit: Circuit, x: np.ndarray,
                            gmin: float = 0.0, t: float = 0.0) -> None:
    bank = forced_system(circuit, "bank")
    loop = forced_system(circuit, "loop")
    fixed = circuit.fixed_nodes(t)
    f_b, j_b = bank.residual_and_jacobian(x, fixed, gmin)
    f_l, j_l = loop.residual_and_jacobian(x, fixed, gmin)
    np.testing.assert_allclose(f_b, f_l, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(j_b, j_l, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(bank.residual_only(x, fixed, gmin), f_l,
                               rtol=1e-9, atol=1e-12)
    cur_b = bank.fixed_node_currents(x, fixed)
    cur_l = loop.fixed_node_currents(x, fixed)
    assert set(cur_b) == set(cur_l)
    for node in cur_b:
        assert cur_b[node] == pytest.approx(cur_l[node], rel=1e-9,
                                            abs=1e-15)


class TestEquivalence:
    @pytest.mark.parametrize("gmin", [0.0, 1e-9, 1e-3])
    def test_mixed_devices(self, gmin):
        circuit = mixed_circuit()
        rng = np.random.default_rng(7)
        n = len(circuit.unknown_nodes())
        for _ in range(5):
            assert_assemblies_agree(circuit, rng.uniform(0.0, VDD, n),
                                    gmin=gmin)

    @pytest.mark.parametrize("style,sleep_on", [("mcml", True),
                                                ("pgmcml", True),
                                                ("pgmcml", False)])
    def test_cell_random_bias(self, style, sleep_on):
        circuit = biased_cell(style, sleep_on=sleep_on)
        rng = np.random.default_rng(11)
        n = len(circuit.unknown_nodes())
        for _ in range(3):
            assert_assemblies_agree(circuit, rng.uniform(0.0, VDD, n))

    def test_solve_dc_agreement(self):
        circuit = biased_cell("pgmcml")
        op_bank = solve_dc(circuit, system=forced_system(circuit, "bank"))
        op_loop = solve_dc(circuit, system=forced_system(circuit, "loop"))
        for node, volt in op_bank.voltages.items():
            assert volt == pytest.approx(op_loop.voltages[node], abs=1e-9)
        for name, cur in op_bank.source_currents.items():
            assert cur == pytest.approx(op_loop.source_currents[name],
                                        abs=1e-15)

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["BUF", "AND2", "XOR2"]),
           st.sampled_from([("mcml", True), ("pgmcml", True),
                            ("pgmcml", False)]))
    @settings(max_examples=15, deadline=None)
    def test_property_random_cells(self, seed, fn_name, style_sleep):
        """The issue's property test: any cell, any bias point."""
        style, sleep_on = style_sleep
        circuit = biased_cell(style, fn_name, sleep_on=sleep_on)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.2, VDD + 0.2, len(circuit.unknown_nodes()))
        assert_assemblies_agree(circuit, x, gmin=rng.choice([0.0, 1e-6]))


class TestScatterFallback:
    def test_bincount_path_matches_dense(self, monkeypatch):
        """Above the dense-operator footprint ceiling, the plan falls
        back to bincount accumulation; both must deposit identically."""
        import repro.spice.banks as banks

        circuit = mixed_circuit()
        x = np.linspace(0.1, 1.0, len(circuit.unknown_nodes()))
        fixed = circuit.fixed_nodes()
        dense = System(circuit)
        f_d, j_d = dense.residual_and_jacobian(x, fixed, 0.0)
        monkeypatch.setattr(banks, "_DENSE_LIMIT", 0)
        sparse = System(circuit)
        assert all(b.plan.s_f is None for b in sparse.bank_assembly().banks)
        f_s, j_s = sparse.residual_and_jacobian(x, fixed, 0.0)
        np.testing.assert_array_equal(f_d, f_s)
        np.testing.assert_array_equal(j_d, j_s)
        np.testing.assert_array_equal(
            dense.bank_assembly().fixed_totals(
                dense.full_volts(x, fixed), x, fixed),
            sparse.bank_assembly().fixed_totals(
                sparse.full_volts(x, fixed), x, fixed))
        cur = sparse.fixed_node_currents(x, fixed)
        assert set(cur) == set(fixed)


class TestLoopBlockFallback:
    def test_subclass_goes_to_loop_block(self):
        """Subclasses may override currents(); only exact banked types
        take the vectorized path."""

        class ScaledMosfet(Mosfet):
            def currents(self, volts):
                return [2.0 * i for i in super().currents(volts)]

        circuit = mixed_circuit()
        original = circuit.device("mn")
        circuit.swap_device("mn", ScaledMosfet(
            "mn", *original.terminals, original.model))
        system = System(circuit)
        assembly = system.bank_assembly()
        assert assembly.loop is not None
        assert any(type(d) is ScaledMosfet
                   for d, _, _ in assembly.loop.entries)
        x = np.linspace(0.2, 0.9, system.n)
        assert_assemblies_agree(circuit, x)

    def test_loop_block_fixed_totals(self):
        circuit = mixed_circuit()
        original = circuit.device("mp")

        class Proxy(Mosfet):
            pass

        circuit.swap_device("mp", Proxy("mp", *original.terminals,
                                        original.model))
        system = System(circuit)
        x = np.linspace(0.1, 1.1, system.n)
        fixed = circuit.fixed_nodes()
        cur_b = system.fixed_node_currents(x, fixed)
        cur_l = forced_system(circuit, "loop").fixed_node_currents(x, fixed)
        for node in cur_b:
            assert cur_b[node] == pytest.approx(cur_l[node], rel=1e-9,
                                                abs=1e-15)


class TestStaleness:
    def test_swap_device_rebuilds_banks(self):
        circuit = mixed_circuit()
        system = System(circuit)
        fixed = circuit.fixed_nodes()
        x = np.full(system.n, 0.5)
        before = system.residual_only(x, fixed, 0.0)
        first = system.bank_assembly()
        assert system.bank_assembly() is first  # cached while unchanged
        original = circuit.device("r1")
        from repro.spice.devices import Resistor
        circuit.swap_device("r1", Resistor("r1", *original.terminals, 10e3))
        rebuilt = system.bank_assembly()
        assert rebuilt is not first
        after = system.residual_only(x, fixed, 0.0)
        assert not np.allclose(before, after)
        loop_after = forced_system(circuit, "loop").residual_only(
            x, fixed, 0.0)
        np.testing.assert_allclose(after, loop_after, rtol=1e-9, atol=1e-12)


def resistor_ladder(unknowns: int, pulse: bool = False) -> Circuit:
    """A source driving ``unknowns`` series resistors into ground, with
    a capacitor on every internal node."""
    c = Circuit(f"ladder{unknowns}")
    c.v("vs", "n0", Pulse(0.0, VDD, 1e-10, 1e-11, 1e-11, 1e-9)
        if pulse else VDD)
    for k in range(unknowns):
        c.resistor(f"r{k}", f"n{k}", f"n{k + 1}", 1e3)
        c.capacitor(f"c{k}", f"n{k + 1}", "0", 1e-15)
    c.resistor("rg", f"n{unknowns}", "0", 1e3)
    return c


class TestAssemblySelection:
    def test_default_is_bank(self):
        assert System(mixed_circuit()).assembly == "bank"

    @pytest.mark.parametrize("unknowns,assembly", [
        (SPARSE_MIN_UNKNOWNS - 1, "bank"),
        (SPARSE_MIN_UNKNOWNS, "sparse"),
    ])
    def test_unknown_count_picks_the_assembly(self, unknowns, assembly):
        circuit = resistor_ladder(unknowns)
        system = System(circuit)
        assert system.n == unknowns
        assert system.assembly == assembly
        # A divider of equal resistors: node k sits at VDD*(1 - k/(n+1)).
        op = solve_dc(circuit, system=system)
        for k in range(1, unknowns + 1):
            assert op[f"n{k}"] == pytest.approx(
                VDD * (1.0 - k / (unknowns + 1)), abs=1e-9)

    @pytest.mark.parametrize("unknowns,assembly", [
        (SPARSE_MIN_UNKNOWNS - 1, "bank"),
        (SPARSE_MIN_UNKNOWNS, "sparse"),
    ])
    def test_batch_lanes_follow_the_template(self, unknowns, assembly):
        lanes = [resistor_ladder(unknowns, pulse=True) for _ in range(2)]
        assert BatchSystem(lanes).system.assembly == assembly
        batched = run_transient_batch(lanes, 4e-10, 2e-11)
        serial = run_transient(resistor_ladder(unknowns, pulse=True),
                               4e-10, 2e-11)
        for got in batched:
            np.testing.assert_array_equal(got.time, serial.time)
            for node, wave in serial.voltages.items():
                np.testing.assert_allclose(got.voltages[node], wave,
                                           atol=1e-12)
