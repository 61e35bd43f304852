"""The lockstep batched transient and DC engines vs the serial oracles.

The contract: :func:`repro.spice.run_transient_batch` marches B circuits
of any dense topologies that share a time grid in lockstep and returns,
for each, exactly what :func:`repro.spice.run_transient` returns: every
recorded voltage and source current byte for byte, the time grid, and
every control-flow statistic.  A lane the march cannot take runs on the
serial path with a ``spice.batch.fallback`` event, never fails, and a
lane that diverges mid-flight falls out of the march alone.  Each lane
counts as one transient run in telemetry, whichever path finished it.

Also pins the drift-free time grid: it is built from integer step
indices (``k * dt``), so a tstop/dt ratio like 1e-9/1e-11 yields exactly
101 samples with the last one exactly ``tstop``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import mcml_testbench, solve_bias, solve_biases
from repro.cells.bias import _replica
from repro.cells.cmos import CmosCellGenerator
from repro.cells.functions import function
from repro.cells.mcml import McmlCellGenerator, McmlSizing
from repro.cells.montecarlo import _die
from repro.cells.pgmcml import PgMcmlCellGenerator
from repro.errors import (
    BudgetExhaustedError,
    CircuitError,
    ConvergenceError,
)
from repro.experiments import fig3
from repro.faultinject import Fault, FaultInjector
from repro.obs import MemorySink, Telemetry
from repro.spice import (
    PWL,
    Circuit,
    OperatingPointCache,
    Pulse,
    Resistor,
    SolveBudget,
    run_transient,
    run_transient_batch,
    solve_dc,
    solve_dc_batch,
)
from repro.spice import batch as batch_mod
from repro.spice.dc import SPARSE_MIN_UNKNOWNS, System
from repro.spice.transient import _time_grid
from repro.tech import NMOS_LVT, PMOS_LVT, TECH90
from repro.units import ps, uA


# -- lane builders ------------------------------------------------------------

def rc_lane(r: float = 1e3, c: float = 1e-12) -> Circuit:
    ckt = Circuit("rc")
    ckt.v("vin", "in", Pulse(0.0, 1.0, 1e-9, 1e-12, 1e-12, 50e-9))
    ckt.resistor("r1", "in", "out", r)
    ckt.capacitor("c1", "out", "0", c)
    return ckt


def rc_lanes(seeds) -> list:
    """Same topology, per-lane R/C values (exercises per-lane params)."""
    lanes = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        lanes.append(rc_lane(r=1e3 * rng.uniform(0.5, 2.0),
                             c=1e-12 * rng.uniform(0.5, 2.0)))
    return lanes


def cell_lane(style: str, sleep_on: bool, seed: int,
              window: float) -> Circuit:
    """One generated BUF cell wired for a transient, with per-lane
    bias wiggle, load, and pulse polarity drawn from ``seed``.

    Every lane shares one topology and one set of stimulus breakpoints
    (so one time grid); only values differ.
    """
    rng = np.random.default_rng(seed)
    polarity = bool(rng.integers(2))
    edge = window / 16.0
    tech = TECH90
    if style == "cmos":
        gen = CmosCellGenerator(tech)
        cell = gen.build("BUF", load_cap=2e-15)
        ckt = cell.circuit
        ckt.v("vdd", cell.vdd_net, tech.vdd)
        lo, hi = (0.0, tech.vdd) if polarity else (tech.vdd, 0.0)
        ckt.v("vin", cell.input_nets["A"],
              Pulse(lo, hi, window / 2, edge, edge, window, 0.0))
        out = next(iter(cell.output_nets.values()))
        ckt.resistor("rload", out, "0", 1e5 * rng.uniform(0.5, 2.0))
        ckt.capacitor("cload", out, "0", 1e-15 * rng.uniform(0.5, 2.0))
        return ckt
    gen_cls = PgMcmlCellGenerator if style == "pgmcml" else McmlCellGenerator
    gen = gen_cls(tech)
    cell = gen.build(function("BUF"), load_cap=2e-15)
    ckt = cell.circuit
    ckt.v("vdd", cell.vdd_net, tech.vdd)
    ckt.v("vvn", cell.vn_net,
          gen.sizing.vn * (1.0 + 0.01 * rng.uniform(-1.0, 1.0)))
    ckt.v("vvp", cell.vp_net,
          gen.sizing.vp * (1.0 + 0.01 * rng.uniform(-1.0, 1.0)))
    if cell.has_sleep:
        ckt.v("vslp", cell.sleep_net, tech.vdd if sleep_on else 0.0)
    swing = gen.sizing.swing
    in_p, in_n = cell.input_nets["A"]
    hi, lo = tech.vdd, tech.vdd - swing
    p_levels, n_levels = ((lo, hi), (hi, lo)) if polarity \
        else ((hi, lo), (lo, hi))
    ckt.v("vin_p", in_p, Pulse(p_levels[0], p_levels[1], window / 2,
                               edge, edge, window, 0.0))
    ckt.v("vin_n", in_n, Pulse(n_levels[0], n_levels[1], window / 2,
                               edge, edge, window, 0.0))
    out_p, out_n = next(iter(cell.output_nets.values()))
    ckt.resistor("rload", out_p, out_n, 2e5 * rng.uniform(0.5, 2.0))
    ckt.capacitor("cload", out_p, "0", 1e-15 * rng.uniform(0.5, 2.0))
    return ckt


def assert_batch_matches_serial(circuits, tstop, dt, **kw):
    """Run both engines and compare every recorded array byte for byte,
    the grids, and each lane's control-flow statistics."""
    serial = [run_transient(ckt, tstop, dt, **kw) for ckt in circuits]
    batch = run_transient_batch(circuits, tstop, dt, **kw)
    assert_lanes_equal(serial, batch)
    return serial, batch


def assert_lanes_equal(serial, batch):
    assert len(batch) == len(serial)
    for lane, (s, b) in enumerate(zip(serial, batch)):
        assert s.time.tobytes() == b.time.tobytes(), lane
        assert list(s.voltages) == list(b.voltages), lane
        for node in s.voltages:
            assert s.voltages[node].tobytes() == b.voltages[node].tobytes(), \
                (lane, node)
        assert list(s.source_currents) == list(b.source_currents), lane
        for name in s.source_currents:
            assert (s.source_currents[name].tobytes()
                    == b.source_currents[name].tobytes()), (lane, name)
        assert s.stats == b.stats, lane


# -- drift-free time grid -----------------------------------------------------

class TestTimeGridExactness:
    def test_integer_ratio_grid_is_exact(self):
        grid = _time_grid(1e-9, 1e-11, ())
        assert len(grid) == 101
        assert grid[-1] == 1e-9
        # Interior samples are single products k*dt (no accumulated
        # summation error); the final sample is tstop itself.
        assert np.array_equal(grid[:-1], np.arange(100) * 1e-11)

    def test_non_divisible_ratio_ends_exactly_at_tstop(self):
        grid = _time_grid(1e-9, 3e-12, ())
        assert grid[-1] == 1e-9
        # Interior points are exact integer multiples of dt, not a
        # cumulative sum that drifts k ULPs by the end of the window.
        interior = grid[:-1]
        ks = np.round(interior / 3e-12).astype(int)
        assert np.array_equal(interior, ks * 3e-12)

    def test_many_steps_no_drift(self):
        # 1e5 cumulative additions of 1e-11 drift by ~1e-21 per step;
        # the index-built grid hits every k*dt bit-for-bit.
        grid = _time_grid(1e-6, 1e-11, ())
        assert len(grid) == 100001
        assert grid[-1] == 1e-6
        assert grid[50000] == 50000 * 1e-11
        assert np.array_equal(grid[:-1], np.arange(100000) * 1e-11)

    @pytest.mark.parametrize("engine", ["serial", "batch"])
    def test_transient_grid_exact_sample_count(self, engine):
        tstop, dt = 1e-9, 1e-11
        if engine == "serial":
            times = [run_transient(rc_lane(), tstop, dt).time]
        else:
            times = [r.time for r in
                     run_transient_batch(rc_lanes([1, 2, 3]), tstop, dt)]
        for time in times:
            assert len(time) == 101
            assert time[-1] == tstop
            assert np.array_equal(time[:-1], np.arange(100) * dt)

    def test_breakpoints_still_honoured(self):
        grid = _time_grid(1e-9, 1e-11, (3.33e-10,))
        assert np.any(grid == 3.33e-10)
        assert grid[-1] == 1e-9


# -- batched == serial property suite -----------------------------------------

class TestBatchedEquivalenceRC:
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([1, 3, 16]))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_rc_lanes_match(self, seed, nb):
        rng = np.random.default_rng(seed)
        lanes = rc_lanes(rng.integers(0, 2**31, size=nb))
        assert_batch_matches_serial(lanes, tstop=4e-9, dt=1e-10)

    def test_ragged_lane_count(self):
        # A lane count that is not a tidy power of two (the "ragged
        # final chunk" shape a caller slicing 7 traces by 3 produces).
        for nb in (5, 7):
            assert_batch_matches_serial(rc_lanes(range(nb)),
                                        tstop=2e-9, dt=1e-10)

    def test_single_lane_full_stat_parity(self):
        assert_batch_matches_serial(rc_lanes([11]), tstop=4e-9, dt=2e-10)


class TestBatchedEquivalenceCells:
    WINDOW = 64e-12
    DT = WINDOW / 16

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([("cmos", True), ("mcml", True),
                            ("pgmcml", True), ("pgmcml", False)]))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_cell_lanes_match(self, seed, style_sleep):
        style, sleep_on = style_sleep
        rng = np.random.default_rng(seed)
        nb = int(rng.choice([1, 3]))
        lanes = [cell_lane(style, sleep_on, s, self.WINDOW)
                 for s in rng.integers(0, 2**31, size=nb)]
        assert_batch_matches_serial(lanes, tstop=self.WINDOW, dt=self.DT)

    @pytest.mark.parametrize("style,sleep_on", [("cmos", True),
                                                ("mcml", True),
                                                ("pgmcml", True),
                                                ("pgmcml", False)])
    def test_batch16_matches_serial(self, style, sleep_on):
        lanes = [cell_lane(style, sleep_on, seed, self.WINDOW)
                 for seed in range(16)]
        assert_batch_matches_serial(lanes, tstop=self.WINDOW, dt=self.DT)

    def test_be_stats_match_at_batch3(self):
        lanes = [cell_lane("pgmcml", True, seed, self.WINDOW)
                 for seed in range(3)]
        serial, batch = assert_batch_matches_serial(
            lanes, tstop=self.WINDOW, dt=self.DT)
        for s, b in zip(serial, batch):
            assert s.stats.steps_taken == b.stats.steps_taken
            assert s.stats.newton_failures == b.stats.newton_failures
            assert s.stats.halvings == b.stats.halvings


# -- lanes of any topology in one march ---------------------------------------

#: The combinational cells Table 2 characterises.
TABLE2_CELLS = ("BUF", "DIFF2SINGLE", "AND2", "AND3", "AND4", "MUX2",
                "MUX4", "MAJ32", "XOR2", "XOR3", "XOR4", "FA")


def toggle(lo: float, hi: float, window: float) -> Pulse:
    """``mcml_testbench``'s input toggle: a lane driven by it shares the
    time grid of the cell testbenches of that window."""
    return Pulse(lo, hi, window / 2, ps(10), ps(10), window, 0.0)


def toggled_rc_lane(window: float) -> Circuit:
    ckt = Circuit("rc_toggle")
    ckt.v("vin", "in", toggle(0.0, 1.0, window))
    ckt.resistor("r1", "in", "out", 1e3)
    ckt.capacitor("c1", "out", "0", 1e-14)
    return ckt


def toggled_cmos_lane(window: float) -> Circuit:
    cell = CmosCellGenerator(TECH90).build("BUF", load_cap=2e-15)
    ckt = cell.circuit
    ckt.v("vdd", cell.vdd_net, TECH90.vdd)
    ckt.v("vin", cell.input_nets["A"], toggle(0.0, TECH90.vdd, window))
    return ckt


def halving_lane(pulse: Pulse) -> Circuit:
    """A PMOS pass device whose gate lags the input edge: at the full
    step Newton does not converge, and the step is halved twice."""
    ckt = Circuit("halving")
    ckt.v("vdd", "vdd", 1.2)
    ckt.v("vin", "in", pulse)
    ckt.mosfet("m0", "0", "0", "b", "0", NMOS_LVT, 2.1e-6, 0.1e-6)
    ckt.mosfet("m1", "in", "a", "c", "vdd", PMOS_LVT, 18e-6, 0.1e-6)
    ckt.mosfet("m2", "b", "vdd", "in", "0", NMOS_LVT, 16e-6, 0.1e-6)
    ckt.capacitor("ca", "a", "0", 1e-13)
    ckt.capacitor("cb", "b", "0", 1e-13)
    ckt.resistor("rb", "b", "vdd", 1e3)
    ckt.capacitor("cc", "c", "0", 1e-15)
    ckt.resistor("rc", "c", "a", 1e6)
    return ckt


class TestMixedTopologies:
    """Lanes of different topologies march together, each byte-identical
    to its serial run."""

    def test_table2_cells_rc_and_cmos_lanes_in_one_march(self):
        generator = PgMcmlCellGenerator(
            sizing=solve_bias(uA(50), gated=True).sizing)
        benches = [mcml_testbench(function(name), generator)
                   for name in TABLE2_CELLS]
        window, dt = benches[0].window, benches[0].dt
        circuits = [bench.circuit for bench in benches] \
            + [toggled_rc_lane(window), toggled_cmos_lane(window)]
        records = [bench.record for bench in benches] + [None, None]
        tele, sink = _batch_telemetry()
        batch = run_transient_batch(circuits, window, dt, record=records,
                                    telemetry=tele)
        assert not _fallbacks(sink)
        # The t=0 points that need the gmin ladder, and only those, leave
        # the lockstep DC (AND3 and AND4 at this bias).
        ladder = [i for i, ckt in enumerate(circuits)
                  if solve_dc(ckt).diagnostics.converged_by != "newton"]
        assert ladder
        assert [i for event in _fallbacks(sink, "dc")
                for i in event["attrs"]["lanes"]] == ladder
        assert tele.counter("spice.batch.lanes").value == len(circuits)
        serial = [run_transient(ckt, window, dt, record=names)
                  for ckt, names in zip(circuits, records)]
        assert_lanes_equal(serial, batch)

    def test_halving_and_failing_lanes(self, monkeypatch):
        """One lane halves its step inside the march; another falls out
        mid-flight and its serial retry is its result."""
        pulse = Pulse(0.0, 1.2, 1e-10, 1e-12, 1e-12, 1e-9)
        tstop, dt = 4e-10, 1e-10

        def lanes():
            doomed = rc_lane()
            doomed.name = "doomed"
            doomed.vsources[0].stimulus = pulse
            rc = rc_lane(r=2e3)
            rc.vsources[0].stimulus = pulse
            return [halving_lane(pulse), doomed, rc]

        serial = [run_transient(ckt, tstop, dt) for ckt in lanes()]
        assert serial[0].stats.halvings >= 1

        accept = batch_mod._Lane.accept

        def failing_accept(self, state, i_new, budget, tele):
            accept(self, state, i_new, budget, tele)
            if self.circuit.name == "doomed" and self.stats.steps_taken == 2:
                self.fail("injected", tele)

        monkeypatch.setattr(batch_mod._Lane, "accept", failing_accept)
        tele, sink = _batch_telemetry()
        batch = run_transient_batch(lanes(), tstop, dt, telemetry=tele)
        assert not _fallbacks(sink)
        isolated = _events(sink, "spice.batch.lane_isolated")
        assert [event["attrs"]["lane"] for event in isolated] == [1]
        assert_lanes_equal(serial, batch)
        assert tele.counter("spice.transient.runs").value == 3
        assert tele.counter("spice.transient.halvings").value \
            == serial[0].stats.halvings


#: Lane builders sharing the time grid of 0.2 ns cell testbenches.
POOL_WINDOW, POOL_DT = ps(200), ps(4)


def _pool_lane(k: int):
    """Lane ``k`` of the property pool and its record."""
    cells = ("BUF", "AND2", "XOR2", "MUX2", "FA")
    if k < len(cells):
        bench = mcml_testbench(function(cells[k]), PgMcmlCellGenerator(TECH90),
                               window=POOL_WINDOW, dt=POOL_DT)
        return bench.circuit, bench.record
    if k == len(cells):
        bench = mcml_testbench(function("BUF"), McmlCellGenerator(TECH90),
                               fanout=4, window=POOL_WINDOW, dt=POOL_DT)
        return bench.circuit, bench.record
    if k == len(cells) + 1:
        return toggled_rc_lane(POOL_WINDOW), ["out", "in"]
    return toggled_cmos_lane(POOL_WINDOW), None


POOL_SIZE = 8
_POOL_SERIAL: dict = {}


def _pool_serial(k: int):
    if k not in _POOL_SERIAL:
        ckt, names = _pool_lane(k)
        _POOL_SERIAL[k] = run_transient(ckt, POOL_WINDOW, POOL_DT,
                                        record=names)
    return _POOL_SERIAL[k]


class TestLaneSubsets:
    @given(st.lists(st.integers(0, POOL_SIZE - 1), min_size=1,
                    max_size=POOL_SIZE, unique=True))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_any_subset_in_any_order_equals_serial(self, picks):
        lanes = [_pool_lane(k) for k in picks]
        tele, sink = _batch_telemetry()
        batch = run_transient_batch([ckt for ckt, _ in lanes], POOL_WINDOW,
                                    POOL_DT,
                                    record=[names for _, names in lanes],
                                    telemetry=tele)
        assert not _fallbacks(sink)
        assert_lanes_equal([_pool_serial(k) for k in picks], batch)


# -- serial fallbacks and lane isolation -------------------------------------

def _batch_telemetry():
    sink = MemorySink()
    return Telemetry(sinks=[sink]), sink


def _events(sink, name):
    return [r for r in sink.records if r.get("name") == name]


def _fallbacks(sink, scope=None):
    """``spice.batch.fallback`` events of one scope: ``None`` for lanes
    that leave the transient march, ``"dc"`` for operating points the
    lockstep DC hands to the serial ladder."""
    return [r for r in _events(sink, "spice.batch.fallback")
            if r["attrs"].get("scope") == scope]


class TestSerialFallback:
    def test_unbanked_device_class_falls_back(self):
        class NoisyResistor(Resistor):
            pass

        lanes = rc_lanes([1, 2])
        for ckt in lanes:
            ckt.add(NoisyResistor("rx", "out", "0", 1e7))
        tele, sink = _batch_telemetry()
        results = run_transient_batch(lanes, 2e-9, 1e-10, telemetry=tele)
        assert len(results) == 2
        assert _events(sink, "spice.batch.fallback")

    def test_no_unknowns_falls_back(self):
        lanes = []
        for _ in range(2):
            ckt = Circuit("fixed_only")
            ckt.v("vin", "in", 1.0)
            ckt.resistor("r1", "in", "0", 1e3)
            lanes.append(ckt)
        tele, sink = _batch_telemetry()
        results = run_transient_batch(lanes, 1e-9, 1e-10, telemetry=tele)
        assert len(results) == 2
        events = _events(sink, "spice.batch.fallback")
        assert events and events[0]["attrs"]["reason"] == "no-unknowns"

    def test_another_time_grid_falls_back(self):
        def lanes():
            out = rc_lanes([1, 2])
            out[1].vsources[0].stimulus = Pulse(0.0, 1.0, 0.55e-9, 1e-12,
                                                1e-12, 50e-9)
            return out

        tele, sink = _batch_telemetry()
        results = run_transient_batch(lanes(), 2e-9, 1e-10, telemetry=tele)
        events = _events(sink, "spice.batch.fallback")
        assert [(e["attrs"]["reason"], e["attrs"]["lanes"])
                for e in events] == [("another time grid", [1])]
        assert_lanes_equal([run_transient(c, 2e-9, 1e-10) for c in lanes()],
                           results)

    def test_validation_matches_serial(self):
        with pytest.raises(CircuitError):
            run_transient_batch(rc_lanes([1]), tstop=0.0, dt=1e-10)
        with pytest.raises(CircuitError):
            run_transient_batch(rc_lanes([1]), 1e-9, 1e-10,
                                max_step_halvings=-1)
        with pytest.raises(CircuitError):
            run_transient_batch(rc_lanes([1]), 1e-9, 1e-10,
                                record=["nope"])
        with pytest.raises(CircuitError, match="'nope'"):
            run_transient_batch(rc_lanes([1, 2]), 1e-9, 1e-10,
                                record=[["out"], ["nope"]])
        with pytest.raises(CircuitError, match="one sequence"):
            run_transient_batch(rc_lanes([1, 2]), 1e-9, 1e-10,
                                record=[["out"]])
        assert run_transient_batch([], 1e-9, 1e-10) == []


class TestLaneIsolation:
    def test_failed_lane_retried_serially(self, monkeypatch):
        """A lane that falls out of the batch is re-run serially and its
        serial result is returned verbatim; the other lanes keep their
        batched results."""
        from repro.spice import batch as batch_mod
        lanes = rc_lanes([1, 2, 3])
        serial = [run_transient(c, 2e-9, 1e-10) for c in lanes]

        real_march = batch_mod._march

        def wounded_march(*args, **kwargs):
            results = real_march(*args, **kwargs)
            results[1] = None  # lane 1 "diverged" mid-flight
            return results

        monkeypatch.setattr(batch_mod, "_march", wounded_march)
        tele, sink = _batch_telemetry()
        results = run_transient_batch(rc_lanes([1, 2, 3]), 2e-9, 1e-10,
                                      telemetry=tele)
        events = _events(sink, "spice.batch.lane_isolated")
        assert len(events) == 1 and events[0]["attrs"]["lane"] == 1
        for s, r in zip(serial, results):
            assert np.array_equal(s.voltages["out"], r.voltages["out"])
        # The retried lane is counted by its serial run, and only there.
        assert tele.counter("spice.transient.runs").value == 3

    def test_serial_retry_error_is_normative(self, monkeypatch):
        from repro.spice import batch as batch_mod

        real_march = batch_mod._march

        def wounded_march(*args, **kwargs):
            results = real_march(*args, **kwargs)
            results[0] = None
            return results

        def failing_serial(*args, **kwargs):
            raise ConvergenceError("lane cannot converge serially either")

        monkeypatch.setattr(batch_mod, "_march", wounded_march)
        monkeypatch.setattr(batch_mod, "run_transient", failing_serial)
        with pytest.raises(ConvergenceError):
            run_transient_batch(rc_lanes([1, 2]), 2e-9, 1e-10)


class TestBudgetParity:
    def test_step_budget_exhaustion_matches_serial(self):
        budget = SolveBudget(max_transient_steps=5)
        with pytest.raises(BudgetExhaustedError):
            run_transient(rc_lane(), 4e-9, 1e-10, budget=budget)
        with pytest.raises(BudgetExhaustedError):
            run_transient_batch(rc_lanes([1, 2, 3]), 4e-9, 1e-10,
                                budget=budget)

    def test_ladder_budget_exhaustion_matches_serial(self):
        budget = SolveBudget(max_ladder_attempts=0)
        serial_err = batch_err = None
        try:
            run_transient(rc_lane(), 1e-9, 1e-10, budget=budget)
        except ConvergenceError as err:
            serial_err = err
        try:
            run_transient_batch(rc_lanes([1]), 1e-9, 1e-10, budget=budget)
        except ConvergenceError as err:
            batch_err = err
        assert serial_err is not None and batch_err is not None
        assert type(batch_err) is type(serial_err)

    def test_generous_budget_unchanged(self):
        budget = SolveBudget(max_newton_iterations=10_000,
                             max_transient_steps=10_000,
                             max_transient_rejections=64)
        assert_batch_matches_serial(rc_lanes([4, 5]), 2e-9, 1e-10,
                                    budget=budget)


class TestBatchKnob:
    def test_telemetry_counts_lockstep_work(self):
        tele, _ = _batch_telemetry()
        run_transient_batch(rc_lanes([1, 2, 3]), 2e-9, 1e-10,
                            telemetry=tele)
        assert tele.counter("spice.batch.runs").value >= 1
        assert tele.counter("spice.batch.lanes").value == 3
        assert tele.counter("spice.batch.lockstep_solves").value > 0
        assert tele.counter("spice.batch.lockstep_iterations").value > 0

    def test_finished_lanes_count_as_transient_runs(self):
        counted = {}
        for engine in ("serial", "batch"):
            tele, _ = _batch_telemetry()
            if engine == "serial":
                for ckt in rc_lanes([1, 2, 3]):
                    run_transient(ckt, 2e-9, 1e-10, telemetry=tele)
            else:
                run_transient_batch(rc_lanes([1, 2, 3]), 2e-9, 1e-10,
                                    telemetry=tele)
            counted[engine] = tuple(
                tele.counter(f"spice.transient.{name}").value
                for name in ("runs", "steps_accepted", "halvings"))
        assert counted["batch"] == counted["serial"]
        assert counted["serial"][0] == 3


# -- lockstep DC vs solve_dc --------------------------------------------------

def assert_points_equal(serial, batch):
    """Every lane's voltages and source currents byte for byte, and its
    diagnostics record for record."""
    assert len(batch) == len(serial)
    for lane, (s, b) in enumerate(zip(serial, batch)):
        for field in ("voltages", "source_currents"):
            want, got = getattr(s, field), getattr(b, field)
            assert list(want) == list(got), (lane, field)
            assert (np.array(list(want.values())).tobytes()
                    == np.array(list(got.values())).tobytes()), (lane, field)
        assert repr(s.diagnostics.to_dict()) \
            == repr(b.diagnostics.to_dict()), lane


def fig3_replicas() -> list:
    """Fig. 3's bias replicas: each solved point, its Vn search's lower
    end and its widest scanned load."""
    lanes = []
    for point in solve_biases(fig3.DEFAULT_SWEEP):
        sizing = point.sizing
        vn_lo = TECH90.flavor(sizing.tail_flavor).vt0 + 0.02
        w_hi = max(sizing.w_load * 20.0,
                   TECH90.flavor(sizing.load_flavor).wmin * 40.0)
        for probe in (sizing, replace(sizing, vn=vn_lo),
                      replace(sizing, w_load=w_hi)):
            lanes.append(_replica(probe, TECH90, False)[0])
    return lanes


def ladder_lane() -> Circuit:
    """The gated 50 uA replica at the bottom of its Vn search, where
    plain Newton does not converge: solve_dc needs the gmin ladder."""
    sizing = McmlSizing.for_current(uA(50), 0.40, TECH90)
    vn_lo = TECH90.flavor(sizing.tail_flavor).vt0 + 0.02
    return _replica(replace(sizing, vn=vn_lo), TECH90, True)[0]


def offset_dies(count: int):
    """Monte Carlo dies wired as ``mc_input_offset`` drives them, each
    with a probe time of its own."""
    sizing = McmlSizing()
    common, span = TECH90.vdd - sizing.swing / 2.0, 0.05
    dies = []
    for k in range(count):
        cell, ckt = _die(k, sizing, TECH90, 3.5e-9, 1e-9, seed=7)
        in_p, in_n = cell.input_nets["A"]
        ckt.v("vin_p", in_p, PWL([(0.0, common - span),
                                  (2 * span, common + span)]))
        ckt.v("vin_n", in_n, PWL([(0.0, common + span),
                                  (2 * span, common - span)]))
        dies.append(ckt)
    times = np.random.default_rng(3).uniform(0.0, 2 * span, count).tolist()
    return dies, times


def sparse_lane() -> Circuit:
    """A resistor ladder of SPARSE_MIN_UNKNOWNS unknowns."""
    ckt = Circuit("sparse_ladder")
    ckt.v("vs", "n0", 1.0)
    for k in range(SPARSE_MIN_UNKNOWNS):
        ckt.resistor(f"r{k}", f"n{k}", f"n{k + 1}", 1e3)
    ckt.resistor("rg", f"n{SPARSE_MIN_UNKNOWNS}", "0", 1e3)
    return ckt


def proxy_lane() -> Circuit:
    """A divider whose lower resistor is a perturbed fault proxy."""
    ckt = Circuit("proxied_divider")
    ckt.v("vin", "in", 1.0)
    ckt.resistor("r1", "in", "mid", 1e3)
    ckt.resistor("r2", "mid", "0", 1e3)
    FaultInjector(ckt, [Fault("r2", "perturb", magnitude=1e-5)]).arm()
    return ckt


def fixed_only_lane() -> Circuit:
    ckt = Circuit("fixed_only")
    ckt.v("vin", "in", 1.0)
    ckt.resistor("r1", "in", "0", 1e3)
    return ckt


def _dc_pool() -> list:
    """(circuit, t) lanes of every kind the property draws from."""
    replicas = fig3_replicas()
    dies, times = offset_dies(2)
    return [(replicas[0], 0.0), (replicas[4], 0.0), (replicas[8], 0.0),
            (ladder_lane(), 0.0), (dies[0], times[0]), (dies[1], times[1]),
            (proxy_lane(), 0.0), (fixed_only_lane(), 0.0)]


_DC_POOL: list = []


def _dc_serial(k: int):
    if not _DC_POOL:
        _DC_POOL.extend((ckt, t, solve_dc(ckt, t=t)) for ckt, t in _dc_pool())
    return _DC_POOL[k]


_NEWTON_COUNTERS = ("spice.newton.solves", "spice.newton.iterations",
                    "spice.newton.failures", "spice.dc.ladder_attempts",
                    "spice.newton.singular_jacobian_events")


class TestDcLockstep:
    """:func:`repro.spice.solve_dc_batch` against :func:`solve_dc`, lane
    by lane."""

    def test_fig3_replicas(self):
        lanes = fig3_replicas()
        tele, sink = _batch_telemetry()
        batch = solve_dc_batch(lanes, telemetry=tele)
        assert_points_equal([solve_dc(ckt) for ckt in lanes], batch)
        assert not _fallbacks(sink, "dc")
        assert tele.counter("spice.batch.dc_rounds").value == 1
        assert tele.counter("spice.batch.dc_lanes").value == len(lanes)

    def test_monte_carlo_dies_at_their_own_times(self):
        dies, times = offset_dies(6)
        serial = [solve_dc(ckt, t=t) for ckt, t in zip(dies, times)]
        systems = [System(ckt) for ckt in dies]
        assert_points_equal(serial, solve_dc_batch(dies, times,
                                                   systems=systems))
        # The same systems again, at other times.
        later = [t / 2.0 for t in times]
        assert_points_equal(
            [solve_dc(ckt, t=t) for ckt, t in zip(dies, later)],
            solve_dc_batch(dies, later, systems=systems))

    def test_lane_that_needs_the_gmin_ladder(self):
        lanes = [ladder_lane()] + fig3_replicas()[:3]
        serial = [solve_dc(ckt) for ckt in lanes]
        assert serial[0].diagnostics.converged_by.startswith("gmin")
        tele, sink = _batch_telemetry()
        assert_points_equal(serial, solve_dc_batch(lanes, telemetry=tele))
        assert [(e["attrs"]["reason"], e["attrs"]["lanes"])
                for e in _fallbacks(sink, "dc")] \
            == [("first rung did not converge", [0])]

    def test_lanes_the_march_cannot_take(self):
        replicas = fig3_replicas()
        lanes = [replicas[0], sparse_lane(), proxy_lane(), fixed_only_lane(),
                 replicas[1]]
        tele, sink = _batch_telemetry()
        batch = solve_dc_batch(lanes, telemetry=tele)
        assert_points_equal([solve_dc(ckt) for ckt in lanes], batch)
        assert {e["attrs"]["reason"]: e["attrs"]["lanes"]
                for e in _fallbacks(sink, "dc")} == {
            "sparse assembly": [1],
            "un-banked devices ['FaultyDevice']": [2],
            "no-unknowns": [3]}
        assert tele.counter("spice.batch.dc_lanes").value == 2

    def test_duplicate_circuits(self):
        replicas = fig3_replicas()
        lanes = [replicas[2], replicas[2], replicas[5], replicas[2]]
        assert_points_equal([solve_dc(ckt) for ckt in lanes],
                            solve_dc_batch(lanes))
        serial_cache, batch_cache = OperatingPointCache(), \
            OperatingPointCache()
        serial = [solve_dc(ckt, op_cache=serial_cache) for ckt in lanes]
        assert_points_equal(serial,
                            solve_dc_batch(lanes, op_cache=batch_cache))
        assert batch_cache.counters() == serial_cache.counters()
        assert serial_cache.hits == 2

    def test_one_lane_is_solve_dc(self):
        tele, sink = _batch_telemetry()
        lane = fig3_replicas()[3]
        assert_points_equal([solve_dc(lane)],
                            solve_dc_batch([lane], telemetry=tele))
        assert tele.counter("spice.batch.dc_rounds").value == 0
        assert not _fallbacks(sink, "dc")

    @pytest.mark.parametrize("budget", [
        SolveBudget(max_ladder_attempts=0),
        SolveBudget(max_newton_iterations=3),
        SolveBudget(max_ladder_attempts=2),
    ])
    def test_budget_parity(self, budget):
        lanes = [fig3_replicas()[0], ladder_lane()]
        for ckt in lanes:
            try:
                want = solve_dc(ckt, budget=budget)
            except ConvergenceError as err:
                want = err
            try:
                got = solve_dc_batch([ckt, fig3_replicas()[1]],
                                     budget=budget)[0]
            except ConvergenceError as err:
                got = err
            assert type(got) is type(want)
            if isinstance(want, ConvergenceError):
                assert repr(got.diagnostics.to_dict()) \
                    == repr(want.diagnostics.to_dict())
            else:
                assert_points_equal([want], [got])
        with pytest.raises(BudgetExhaustedError):
            solve_dc_batch(lanes, budget=SolveBudget(max_ladder_attempts=0))

    def test_counts_newton_work_as_solve_dc_does(self):
        lanes = [ladder_lane()] + fig3_replicas()[:4]
        counted = {}
        for engine in ("serial", "batch"):
            tele, _ = _batch_telemetry()
            if engine == "serial":
                for ckt in lanes:
                    solve_dc(ckt, telemetry=tele)
            else:
                solve_dc_batch(lanes, telemetry=tele)
            counted[engine] = [tele.counter(name).value
                               for name in _NEWTON_COUNTERS]
        assert counted["batch"] == counted["serial"]
        assert counted["serial"][2] == 1  # the ladder lane's first rung

    def test_validation(self):
        assert solve_dc_batch([]) == []
        lanes = fig3_replicas()[:2]
        with pytest.raises(CircuitError, match="one per circuit"):
            solve_dc_batch(lanes, [0.0])
        with pytest.raises(CircuitError, match="one per circuit"):
            solve_dc_batch(lanes, systems=[System(lanes[0])])
        with pytest.raises(CircuitError, match="one per circuit"):
            solve_dc_batch(lanes, op_cache=[OperatingPointCache()])

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_any_subset_in_any_order_equals_serial(self, picks):
        lanes = [_dc_serial(k) for k in picks]
        batch = solve_dc_batch([ckt for ckt, _, _ in lanes],
                               [t for _, t, _ in lanes])
        assert_points_equal([op for _, _, op in lanes], batch)
