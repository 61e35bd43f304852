"""The lockstep batched transient engine vs the serial oracle (PR 7).

The contract: :func:`repro.spice.run_transient_batch` simulates B
same-topology circuits in one stack of block-diagonal Newton solves and
must agree with B independent :func:`repro.spice.run_transient` runs —
waveforms to ≤1e-12 (in practice ~1e-16; the only difference is batched
BLAS rounding), the time grid bit-for-bit, and every control-flow
statistic exactly at B=1.  When the batch axis cannot apply the engine
must *fall back* to the serial path, never fail, and a lane that
diverges mid-flight falls out of the batch alone.

Also pins this PR's two bugfixes:

* the time grid is built from integer step indices (``k * dt``), so a
  tstop/dt ratio like 1e-9/1e-11 yields exactly 101 samples with the
  last one exactly ``tstop`` — no cumulative float drift (satellite 1);
* the trapezoidal ringing detector's current floor is *relative* to the
  per-trace current scale, so floor-scale alternating currents are
  still classified as ringing (satellite 2).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells.cmos import CmosCellGenerator
from repro.cells.functions import function
from repro.cells.mcml import McmlCellGenerator
from repro.cells.pgmcml import PgMcmlCellGenerator
from repro.errors import (
    BudgetExhaustedError,
    CircuitError,
    ConvergenceError,
)
from repro.obs import MemorySink, Telemetry
from repro.spice import (
    Circuit,
    Pulse,
    Resistor,
    SolveBudget,
    run_transient,
    run_transient_batch,
)
from repro.spice.transient import (
    RINGING_ABS_FLOOR,
    RINGING_REL_FLOOR,
    _ringing_mask,
    _time_grid,
    _trap_ringing,
)
from repro.tech import TECH90


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

    Every lane shares the template's topology and stimulus breakpoints
    (the lockstep requirements); only values differ.
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


def assert_batch_matches_serial(circuits, tstop, dt, tol=1e-12, **kw):
    """Run both engines and compare waveforms, grids, and (at B=1) the
    full control-flow statistics."""
    serial = [run_transient(ckt, tstop, dt, **kw) for ckt in circuits]
    batch = run_transient_batch(circuits, tstop, dt, **kw)
    assert len(batch) == len(serial)
    for s, b in zip(serial, batch):
        assert np.array_equal(s.time, b.time)
        assert set(s.voltages) == set(b.voltages)
        for node in s.voltages:
            delta = float(np.max(np.abs(s.voltages[node]
                                        - b.voltages[node])))
            assert delta <= tol, (node, delta)
        for name in s.source_currents:
            delta = float(np.max(np.abs(s.source_currents[name]
                                        - b.source_currents[name])))
            assert delta <= tol, (name, delta)
    if len(circuits) == 1:
        s, b = serial[0].stats, batch[0].stats
        assert (s.steps_taken, s.newton_failures, s.halvings,
                s.retried_intervals, s.be_fallback_steps,
                s.ringing_fallback_steps) == \
               (b.steps_taken, b.newton_failures, b.halvings,
                b.retried_intervals, b.be_fallback_steps,
                b.ringing_fallback_steps)
    return serial, batch


# -- satellite 1: drift-free time grid ---------------------------------------

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


# -- satellite 2: relative-floor ringing detector ----------------------------

class TestRingingDetector:
    def test_floor_scale_alternation_is_ringing(self):
        # Magnitudes below the old absolute floor (1e-12 A) but genuinely
        # alternating: the relative floor must classify this as ringing.
        i_new = np.array([1e-13, -1e-13, 5e-14])
        i_old = np.array([-1e-13, 1e-13, -5e-14])
        assert _trap_ringing(i_new, i_old)

    def test_tiny_component_on_large_trace_is_not_ringing(self):
        # An alternating current 8 orders below the trace's dominant
        # current is numerical noise, not oscillation.
        i_new = np.array([1e-3, 1e-11])
        i_old = np.array([1e-3, -1e-11])
        assert not _trap_ringing(i_new, i_old)

    def test_decaying_alternation_is_not_ringing(self):
        i_new = np.array([1e-13])
        i_old = np.array([-1e-12])
        assert not _trap_ringing(i_new, i_old)

    def test_true_zero_currents_are_not_ringing(self):
        zeros = np.zeros(4)
        assert not _trap_ringing(zeros, zeros)
        assert not _trap_ringing(np.zeros(0), np.zeros(0))
        assert not _trap_ringing(None, None)

    def test_floor_is_relative_to_each_trace(self):
        # Same alternating component: masked on the lane with a large
        # dominant current, flagged on the lane without one.
        i_new = np.array([[1e-3, 1e-11], [0.0, 1e-11]])
        i_old = np.array([[1e-3, -1e-11], [0.0, -1e-11]])
        mask = _ringing_mask(i_new, i_old)
        assert not mask[0].any()
        assert mask[1].any()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_batched_mask_matches_serial_rows_bitwise(self, seed):
        """Per-trace detection on a (B, E) stack is bit-for-bit the
        serial detector applied row by row (same inputs in, same
        booleans out)."""
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 13)))
        scale = 10.0 ** rng.integers(-14, 0, size=(shape[0], 1))
        i_new = rng.uniform(-1.0, 1.0, shape) * scale
        i_old = rng.uniform(-1.0, 1.0, shape) * scale
        batched = _ringing_mask(i_new, i_old)
        for b in range(shape[0]):
            assert np.array_equal(batched[b], _ringing_mask(i_new[b],
                                                            i_old[b]))
            assert bool(batched[b].any()) == _trap_ringing(i_new[b],
                                                           i_old[b])


# -- satellite 4: batched == serial property suite ---------------------------

class TestBatchedEquivalenceRC:
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([1, 3, 16]),
           st.sampled_from(["be", "trap"]))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_rc_lanes_match(self, seed, nb, method):
        rng = np.random.default_rng(seed)
        lanes = rc_lanes(rng.integers(0, 2**31, size=nb))
        assert_batch_matches_serial(lanes, tstop=4e-9, dt=1e-10,
                                    method=method, detect_ringing=True)

    def test_ragged_lane_count(self):
        # A lane count that is not a tidy power of two (the "ragged
        # final chunk" shape a caller slicing 7 traces by 3 produces).
        for nb in (5, 7):
            assert_batch_matches_serial(rc_lanes(range(nb)),
                                        tstop=2e-9, dt=1e-10)

    def test_single_lane_full_stat_parity_with_ringing(self):
        assert_batch_matches_serial(rc_lanes([11]), tstop=4e-9, dt=2e-10,
                                    method="trap", detect_ringing=True)


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
        assert_batch_matches_serial(lanes, tstop=self.WINDOW, dt=self.DT,
                                    method="trap", detect_ringing=True)

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
            lanes, tstop=self.WINDOW, dt=self.DT, method="be")
        for s, b in zip(serial, batch):
            assert s.stats.steps_taken == b.stats.steps_taken
            assert s.stats.newton_failures == b.stats.newton_failures
            assert s.stats.halvings == b.stats.halvings


# -- serial fallbacks and lane isolation -------------------------------------

def _batch_telemetry():
    sink = MemorySink()
    return Telemetry(sinks=[sink]), sink


def _events(sink, name):
    return [r for r in sink.records if r.get("name") == name]


class TestSerialFallback:
    def test_on_step_hook_falls_back(self):
        tele, sink = _batch_telemetry()
        seen = []
        results = run_transient_batch(
            rc_lanes([1, 2]), 2e-9, 1e-10,
            on_step=seen.append, telemetry=tele)
        assert len(results) == 2 and seen
        events = _events(sink, "spice.batch.fallback")
        assert events and events[0]["attrs"]["reason"] == "on_step-hook"

    def test_mismatched_topology_falls_back(self):
        a = rc_lane()
        b = rc_lane()
        b.resistor("r2", "out", "0", 1e6)
        tele, sink = _batch_telemetry()
        serial = [run_transient(c, 2e-9, 1e-10) for c in (a, b)]
        a2, b2 = rc_lane(), rc_lane()
        b2.resistor("r2", "out", "0", 1e6)
        results = run_transient_batch([a2, b2], 2e-9, 1e-10, telemetry=tele)
        events = _events(sink, "spice.batch.fallback")
        assert events and "unbatchable" in events[0]["attrs"]["reason"]
        for s, r in zip(serial, results):
            assert np.array_equal(s.voltages["out"], r.voltages["out"])

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

    def test_validation_matches_serial(self):
        with pytest.raises(CircuitError):
            run_transient_batch(rc_lanes([1]), tstop=0.0, dt=1e-10)
        with pytest.raises(CircuitError):
            run_transient_batch(rc_lanes([1]), 1e-9, 1e-10, method="gear")
        with pytest.raises(CircuitError):
            run_transient_batch(rc_lanes([1]), 1e-9, 1e-10,
                                max_step_halvings=-1)
        with pytest.raises(CircuitError):
            run_transient_batch(rc_lanes([1]), 1e-9, 1e-10,
                                record=["nope"])
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
