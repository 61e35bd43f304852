"""Tests for transient analysis against analytic RC solutions."""

import math

import numpy as np
import pytest

from repro.errors import CircuitError
from repro.spice import Circuit, DC, Pulse, PWL, run_transient, solve_dc
from repro.tech import NMOS_LVT, PMOS_LVT
from repro.units import ns, ps, um

VDD = 1.2


def rc_circuit(r=1e3, c=1e-12, stim=None):
    ckt = Circuit("rc")
    ckt.v("vin", "in", stim if stim is not None else
          Pulse(0.0, 1.0, ns(1), ps(1), ps(1), ns(50)))
    ckt.resistor("r1", "in", "out", r)
    ckt.capacitor("c1", "out", "0", c)
    return ckt


class TestRCStep:
    def test_time_constant(self):
        # v(out) should reach 1 - 1/e at t = delay + tau.
        tau = 1e-9
        ckt = rc_circuit(r=1e3, c=1e-12)
        res = run_transient(ckt, tstop=ns(6), dt=ps(10))
        wave = res.wave("out")
        t63 = wave.first_crossing(1.0 - math.exp(-1.0), "rise")
        assert t63 == pytest.approx(ns(1) + tau, rel=0.05)

    def test_final_value(self):
        res = run_transient(rc_circuit(), tstop=ns(8), dt=ps(20))
        assert res.wave("out").v[-1] == pytest.approx(1.0, abs=0.01)

    def test_source_current_charges_cap(self):
        # Integral of supply current equals the charge C*V delivered.
        ckt = rc_circuit(r=1e3, c=1e-12)
        res = run_transient(ckt, tstop=ns(10), dt=ps(10))
        charge = res.current("vin").integral()
        assert charge == pytest.approx(1e-12 * 1.0, rel=0.05)

    def test_record_subset(self):
        res = run_transient(rc_circuit(), tstop=ns(2), dt=ps(50),
                            record=["out"])
        assert "out" in res.voltages
        with pytest.raises(CircuitError):
            res.wave("in")

    def test_unknown_source_current(self):
        res = run_transient(rc_circuit(), tstop=ns(2), dt=ps(50))
        with pytest.raises(CircuitError):
            res.current("nope")

    def test_bad_parameters(self):
        with pytest.raises(CircuitError):
            run_transient(rc_circuit(), tstop=0.0, dt=ps(1))


class TestBreakpoints:
    def test_grid_includes_stimulus_edges(self):
        ckt = rc_circuit(stim=PWL([(0.0, 0.0), (ns(1.234), 1.0)]))
        res = run_transient(ckt, tstop=ns(3), dt=ps(100))
        assert np.any(np.isclose(res.time, ns(1.234)))

    def test_tstop_survives_nearby_breakpoint(self):
        # A stimulus corner within dt/1000 of tstop used to evict tstop
        # from the grid during dedup; the run then ended short.
        tstop = ns(3)
        ckt = rc_circuit(stim=PWL([(0.0, 0.0), (tstop - ps(0.01), 1.0)]))
        res = run_transient(ckt, tstop=tstop, dt=ps(100))
        assert res.time[-1] == tstop

    def test_grid_never_exceeds_tstop(self):
        # tstop not a multiple of dt: arange's padding must be clipped.
        res = run_transient(rc_circuit(), tstop=ns(1.05), dt=ps(100))
        assert res.time[-1] == ns(1.05)
        assert np.all(res.time <= ns(1.05))


class TestTransientStats:
    def test_clean_run_stats(self):
        res = run_transient(rc_circuit(), tstop=ns(2), dt=ps(50))
        stats = res.stats
        assert stats.grid_points == len(res.time)
        assert stats.steps_taken >= stats.grid_points - 1
        assert stats.newton_failures == 0
        assert stats.retried_intervals == 0
        assert stats.halvings == 0

    def test_bad_halving_budget_rejected(self):
        with pytest.raises(CircuitError):
            run_transient(rc_circuit(), tstop=ns(1), dt=ps(50),
                          max_step_halvings=-1)


class TestRCDivider:
    def test_cap_between_two_unknowns(self):
        # R-C-R sandwich: both cap terminals are unknown nodes.
        ckt = Circuit()
        ckt.v("vin", "in", Pulse(0, 1.0, ns(0.5), ps(1), ps(1), ns(40)))
        ckt.resistor("r1", "in", "a", 1e3)
        ckt.capacitor("c1", "a", "b", 1e-12)
        ckt.resistor("r2", "b", "0", 1e3)
        res = run_transient(ckt, tstop=ns(10), dt=ps(20))
        # At t -> inf the cap is open: no current, b at ground.
        assert res.wave("b").v[-1] == pytest.approx(0.0, abs=0.01)
        # Immediately after the step the cap couples the edge onto b.
        assert res.wave("b").peak() > 0.2


class TestInverterTransient:
    def build(self):
        ckt = Circuit("inv")
        ckt.v("vdd", "vdd", VDD)
        ckt.v("vin", "in", Pulse(0.0, VDD, ns(0.5), ps(20), ps(20), ns(1),
                                 ns(2)))
        ckt.mosfet("mn", "out", "in", "0", "0", NMOS_LVT,
                   w=um(0.3), l=um(0.1))
        ckt.mosfet("mp", "out", "in", "vdd", "vdd", PMOS_LVT,
                   w=um(0.6), l=um(0.1))
        ckt.capacitor("cl", "out", "0", 2e-15)
        return ckt

    def test_inversion(self):
        res = run_transient(self.build(), tstop=ns(2), dt=ps(5))
        out = res.wave("out")
        assert out.value_at(ns(0.4)) > VDD - 0.1   # input low -> out high
        assert out.value_at(ns(1.2)) < 0.1         # input high -> out low

    def test_switching_draws_supply_current(self):
        res = run_transient(self.build(), tstop=ns(2), dt=ps(5))
        supply = res.current("vdd")
        # Static CMOS: negligible quiescent current, pulses at edges.
        assert supply.peak() > 1e-6
        quiescent = abs(supply.value_at(ns(0.4)))
        assert quiescent < 1e-7

    def test_initial_condition_from_dc(self):
        ckt = self.build()
        op = solve_dc(ckt)
        res = run_transient(ckt, tstop=ns(1), dt=ps(10), ic=op)
        assert res.wave("out").v[0] == pytest.approx(op["out"], abs=1e-6)


class TestRecordValidation:
    def test_unknown_record_name_raises(self):
        # Pre-fix behaviour silently recorded 0.0 for the typo.
        with pytest.raises(CircuitError, match="record names"):
            run_transient(rc_circuit(), tstop=ns(1), dt=ps(100),
                          record=["outt"])

    def test_error_lists_every_offender(self):
        with pytest.raises(CircuitError) as err:
            run_transient(rc_circuit(), tstop=ns(1), dt=ps(100),
                          record=["out", "bogus1", "bogus2"])
        assert "bogus1" in str(err.value) and "bogus2" in str(err.value)

    def test_ground_alias_records_zero(self):
        # Aliases fold to the canonical ground node instead of erroring.
        res = run_transient(rc_circuit(), tstop=ns(1), dt=ps(100),
                            record=["out", "gnd"])
        assert np.all(np.asarray(res.voltages["gnd"]) == 0.0)
        assert len(res.wave("out").v) == len(res.time)


class TestCompanionCommit:
    """The companion currents behind the source-current record are
    committed exactly once per accepted step, never for a rejected
    solve."""

    @staticmethod
    def counted_commits(monkeypatch):
        from repro.spice import transient as tr

        commits = []
        original = tr._CompanionCaps.commit_currents

        def counting(self, i_new):
            commits.append(1)
            return original(self, i_new)

        monkeypatch.setattr(tr._CompanionCaps, "commit_currents", counting)
        return commits

    def test_exactly_one_commit_per_accepted_step(self, monkeypatch):
        commits = self.counted_commits(monkeypatch)
        res = run_transient(rc_circuit(), tstop=ns(4), dt=ps(20))
        assert len(commits) == res.stats.steps_taken

    def test_halved_step_commits_only_what_it_accepts(self, monkeypatch):
        from repro.faultinject import Fault, FaultInjector

        ckt = rc_circuit()
        injector = FaultInjector(ckt, [Fault("r1", "oscillate",
                                             t_start=ns(2), t_stop=ns(2.1),
                                             magnitude=1e-3, trip_limit=1)])
        commits = self.counted_commits(monkeypatch)
        with injector:
            res = run_transient(ckt, tstop=ns(4), dt=ps(20),
                                on_step=injector.set_time)
        assert res.stats.newton_failures >= 1
        assert res.stats.halvings >= 1
        assert len(commits) == res.stats.steps_taken


class TestCompanionStamps:
    """The companion Jacobian is stamped once per step size; a sparse
    stamp belongs to one pattern object."""

    @pytest.mark.parametrize("assembly", ["bank", "sparse"])
    def test_one_stamp_per_step_size(self, assembly):
        from repro.spice.transient import _CompanionCaps

        from .assembly_seam import forced_system

        ckt = rc_circuit()
        caps = _CompanionCaps(forced_system(ckt, assembly), ckt)
        geq, jac = caps._stamp(ps(20))
        assert caps._stamp(ps(20))[1] is jac
        assert caps._stamp(ps(10))[1] is not jac
        np.testing.assert_array_equal(geq, caps.cvec / ps(20))

    def test_device_swap_drops_sparse_stamps(self):
        from repro.spice import Resistor
        from repro.spice.transient import _CompanionCaps

        from .assembly_seam import forced_system

        ckt = rc_circuit()
        caps = _CompanionCaps(forced_system(ckt, "sparse"), ckt)
        _, jac = caps._stamp(ps(20))
        ckt.swap_device("r1", Resistor("r1", "in", "out", 2e3))
        _, rebuilt = caps._stamp(ps(20))
        assert rebuilt is not jac
        np.testing.assert_array_equal(rebuilt, jac)


class TestSourceOnlyCapacitors:
    """A capacitor between two source-driven nodes never enters Newton,
    but its backward-Euler current C·ΔV/Δt reaches the supply current of
    the sources it spans, in the serial and the batched engine."""

    EDGE = ps(10)

    def pulse(self):
        return Pulse(0.0, 1.0, ps(100), self.EDGE, self.EDGE, ns(1))

    def test_serial_edge_step_carries_the_capacitor(self):
        ckt = Circuit("edge")
        ckt.v("vin", "p", self.pulse())
        ckt.resistor("r1", "p", "0", 1e3)
        ckt.capacitor("c1", "p", "0", 1e-15)
        res = run_transient(ckt, tstop=ps(200), dt=ps(10))
        edge = int(np.flatnonzero(res.time == ps(110))[0])
        # 1 V across 1 kOhm plus 1 fF * 1 V / 10 ps.
        assert res.current("vin").v[edge] == pytest.approx(1.1e-3,
                                                           rel=1e-9)
        assert res.current("vin").v[edge + 1] == pytest.approx(1e-3,
                                                               rel=1e-9)

    def test_batched_edge_step_carries_the_capacitor(self):
        from repro.obs import MemorySink, Telemetry
        from repro.spice import run_transient_batch

        def lane():
            ckt = Circuit("edge_mid")
            ckt.v("vin", "p", self.pulse())
            ckt.resistor("r1", "p", "m", 1e3)
            ckt.resistor("r2", "m", "0", 1e3)
            ckt.capacitor("c1", "p", "0", 1e-15)
            return ckt

        sink = MemorySink()
        batched = run_transient_batch([lane(), lane()], ps(200), ps(10),
                                      telemetry=Telemetry(sinks=[sink]))
        assert not [r for r in sink.records
                    if r.get("name") == "spice.batch.fallback"]
        serial = run_transient(lane(), tstop=ps(200), dt=ps(10))
        edge = int(np.flatnonzero(serial.time == ps(110))[0])
        assert serial.current("vin").v[edge] == pytest.approx(0.6e-3,
                                                              rel=1e-9)
        for res in batched:
            np.testing.assert_array_equal(res.current("vin").v,
                                          serial.current("vin").v)


class TestInitialConditionValidation:
    def test_ic_of_another_circuit_names_the_missing_nodes(self):
        other = Circuit("divider")
        other.v("vin", "in", 1.0)
        other.resistor("r1", "in", "mid", 1e3)
        other.resistor("r2", "mid", "0", 1e3)
        with pytest.raises(CircuitError, match="'out'"):
            run_transient(rc_circuit(), tstop=ns(1), dt=ps(100),
                          ic=solve_dc(other))


class TestSupplyCurrentOracle:
    """Supply currents computed from the grid-point records equal, byte
    for byte, the per-grid-point reference in
    ``tests/transient_oracle.py``."""

    @staticmethod
    def assert_bytes_equal(circuit, res, before_point=None):
        from .transient_oracle import reference_source_currents

        want = reference_source_currents(circuit, res, before_point)
        assert set(want) == set(res.source_currents)
        for name, values in want.items():
            assert res.source_currents[name].tobytes() == values.tobytes(), \
                name

    def test_pg_mcml_table2_testbench(self):
        from repro.cells import PgMcmlCellGenerator, mcml_testbench, \
            solve_bias
        from repro.cells.functions import function
        from repro.spice.dc import System
        from repro.units import uA

        gen = PgMcmlCellGenerator(sizing=solve_bias(uA(50), gated=True).sizing)
        bench = mcml_testbench(function("AND2"), gen)
        assert System(bench.circuit).assembly == "bank"
        res = run_transient(bench.circuit, tstop=bench.window, dt=bench.dt)
        self.assert_bytes_equal(bench.circuit, res)

    def test_sparse_buffer_chain(self):
        from repro.spice.dc import SPARSE_MIN_UNKNOWNS, System

        from .test_spice_sparse import pg_buffer_chain

        ckt = pg_buffer_chain(n_cells=24, pulse=True)
        assert System(ckt).n >= SPARSE_MIN_UNKNOWNS
        assert System(ckt).assembly == "sparse"
        res = run_transient(ckt, tstop=64e-12, dt=2e-12)
        assert res.stats.steps_taken >= 32
        self.assert_bytes_equal(ckt, res)

    def test_loop_oracle_assembly(self):
        from .assembly_seam import forced_assembly

        ckt = rc_circuit()
        with forced_assembly("loop"):
            res = run_transient(ckt, tstop=ns(2), dt=ps(20))
            self.assert_bytes_equal(ckt, res)

    def test_windowed_perturb_fault_is_evaluated_at_each_point(self):
        from repro.faultinject import Fault, FaultInjector

        from .transient_oracle import reference_source_currents

        ckt = rc_circuit()
        injector = FaultInjector(ckt, [Fault("r1", "perturb",
                                             t_start=ns(2), t_stop=ns(2.5),
                                             magnitude=1e-5)])
        with injector:
            res = run_transient(ckt, tstop=ns(4), dt=ps(20),
                                on_step=injector.set_time)
            self.assert_bytes_equal(ckt, res, injector.set_time)
            # With the clock left at the end of the run the proxy sees no
            # fault: those samples differ inside the window only.
            late = reference_source_currents(ckt, res)["vin"]
        window = (res.time >= ns(2)) & (res.time < ns(2.5))
        differs = res.current("vin").v != late
        assert differs[window].all()
        assert not differs[~window].any()
