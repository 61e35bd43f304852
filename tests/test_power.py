"""Tests for block power models, trace synthesis, gating, and the probe."""

import numpy as np
import pytest

from repro.cells import build_cmos_library, build_mcml_library, \
    build_pg_mcml_library
from repro.errors import TraceError
from repro.netlist import GateNetlist, LogicSimulator
from repro.power import (
    BlockPowerModel,
    GatingSchedule,
    MeasurementChain,
    TraceGrid,
    TransitionActivity,
    activity_current,
    driven_nets,
    gated_block_current,
    schedule_from_sbox_events,
    ungated_block_current,
)
from repro.units import nA, ns, uA


@pytest.fixture(scope="module")
def cmos():
    return build_cmos_library()


@pytest.fixture(scope="module")
def mcml():
    return build_mcml_library()


@pytest.fixture(scope="module")
def pg():
    return build_pg_mcml_library()


def buffer_block(lib, n=4, cell="BUF"):
    nl = GateNetlist("blk", lib)
    nl.add_primary_input("a")
    prev = "a"
    for i in range(n):
        nl.add_instance(cell, {"A": prev, "Y": f"n{i}"}, name=f"u{i}")
        prev = f"n{i}"
    return nl


class TestTraceGrid:
    def test_sample_count(self):
        grid = TraceGrid(0.0, 1e-9, 0.1e-9)
        assert grid.n == 11
        assert grid.times()[-1] == pytest.approx(1e-9)

    def test_validation(self):
        with pytest.raises(TraceError):
            TraceGrid(0.0, 0.0, 1e-12)
        with pytest.raises(TraceError):
            TraceGrid(0.0, 1e-9, -1.0)


class TestStaticCurrents:
    def test_mcml_block_sums_tails(self, mcml):
        model = BlockPowerModel(buffer_block(mcml, 10))
        assert model.static_current() == pytest.approx(10 * uA(50), rel=1e-6)

    def test_mcml_cannot_sleep(self, mcml):
        model = BlockPowerModel(buffer_block(mcml, 2))
        with pytest.raises(TraceError):
            model.static_current(asleep=True)

    def test_pg_block_sleeps(self, pg):
        model = BlockPowerModel(buffer_block(pg, 10))
        awake = model.static_current(asleep=False)
        asleep = model.static_current(asleep=True)
        assert awake == pytest.approx(10 * uA(50), rel=1e-6)
        assert asleep == pytest.approx(10 * nA(0.1), rel=1e-6)

    def test_cmos_block_leaks_only(self, cmos):
        model = BlockPowerModel(buffer_block(cmos, 10, cell="INV"))
        leak = model.static_current()
        assert 0.0 < leak < uA(1)

    def test_average_power_duty_scaling(self, pg):
        model = BlockPowerModel(buffer_block(pg, 10))
        full = model.average_power(awake_fraction=1.0)
        tiny = model.average_power(awake_fraction=1e-4)
        assert full / tiny > 1e3

    def test_average_power_validates_fraction(self, pg):
        model = BlockPowerModel(buffer_block(pg, 2))
        with pytest.raises(TraceError):
            model.average_power(awake_fraction=1.5)

    def test_mismatch_residuals_reproducible(self, mcml):
        nl = buffer_block(mcml, 5)
        a = BlockPowerModel(nl, seed=11)
        b = BlockPowerModel(nl, seed=11)
        c = BlockPowerModel(nl, seed=12)
        assert a.residual_for("u0") == b.residual_for("u0")
        assert a.residual_for("u0") != c.residual_for("u0")

    def test_residual_magnitude(self, mcml):
        model = BlockPowerModel(buffer_block(mcml, 50), seed=0)
        residuals = [abs(model.residual_for(f"u{i}")) for i in range(50)]
        assert max(residuals) < uA(0.5)
        assert np.std(residuals) > 0.0


def activity(nl, trace):
    """The arrays an acquisition's activity memo keeps for ``trace``."""
    return TransitionActivity.from_trace(trace, driven_nets(nl))


class TestActivityCurrent:
    def grid(self):
        return TraceGrid(0.0, ns(3), 25e-12)

    def run_block(self, lib, value=True):
        nl = buffer_block(lib, 4)
        sim = LogicSimulator(nl)
        sim.reset()
        trace = sim.run([(ns(0.5), "a", value)], duration=ns(3))
        return nl, activity(nl, trace)

    def test_cmos_transitions_draw_charge(self, cmos):
        nl, cycle = self.run_block(cmos)
        model = BlockPowerModel(nl)
        samples = activity_current(model, cycle, self.grid())
        static = model.static_current()
        assert samples.max() > static * 5
        # Charge above static equals the toggled energy / vdd, roughly.
        assert samples.min() >= 0.0

    def test_cmos_no_activity_no_pulse(self, cmos):
        nl = buffer_block(cmos, 4)
        sim = LogicSimulator(nl)
        sim.reset()
        trace = sim.run([], duration=ns(3))
        model = BlockPowerModel(nl)
        samples = activity_current(model, activity(nl, trace), self.grid())
        assert samples.max() == pytest.approx(model.static_current())

    def test_mcml_current_nearly_flat(self, mcml):
        nl, cycle = self.run_block(mcml)
        model = BlockPowerModel(nl)
        samples = activity_current(model, cycle, self.grid())
        static = model.static_current()
        # Fluctuation well under 5 % of the static level.
        assert np.abs(samples - static).max() < 0.05 * static

    def test_mcml_hum_is_data_independent(self, mcml):
        """Toggling vs not toggling must produce nearly identical MCML
        traces — the DPA-resistance property."""
        nl = buffer_block(mcml, 4)
        model = BlockPowerModel(nl, seed=0)
        sim = LogicSimulator(nl)
        sim.reset()
        t_active = sim.run([(ns(0.5), "a", True)], duration=ns(3))
        sim.reset()
        t_idle = sim.run([], duration=ns(3))
        s_active = activity_current(model, activity(nl, t_active),
                                    self.grid())
        s_idle = activity_current(model, activity(nl, t_idle), self.grid())
        diff = np.abs(s_active - s_idle).max()
        assert diff < uA(1.0)  # residuals only, far below Iss

    def test_include_static_flag(self, mcml):
        nl, cycle = self.run_block(mcml)
        model = BlockPowerModel(nl)
        with_static = activity_current(model, cycle, self.grid())
        without = activity_current(model, cycle, self.grid(),
                                   include_static=False)
        delta = with_static - without
        assert np.allclose(delta, model.static_current(), rtol=1e-9)

    def test_arrival_times_monotone_along_chain(self, mcml):
        model = BlockPowerModel(buffer_block(mcml, 4))
        arrivals = model.arrival_times()
        assert arrivals["u0"] < arrivals["u1"] < arrivals["u3"]


class TestGating:
    def test_schedule_windows_merge(self):
        schedule = schedule_from_sbox_events(
            [10, 11, 13, 100], period=ns(2.5), insertion_delay=ns(1))
        assert len(schedule.windows) == 2

    def test_schedule_opens_early(self):
        schedule = schedule_from_sbox_events(
            [10], period=ns(2.5), insertion_delay=ns(1), guard_cycles=1)
        t_on, t_off = schedule.windows[0]
        assert t_on < 10 * ns(2.5)
        assert t_off == pytest.approx(11 * ns(2.5))

    def test_awake_fraction(self):
        schedule = GatingSchedule([(ns(1), ns(2))])
        assert schedule.awake_fraction(0.0, ns(10)) == pytest.approx(0.1)

    def test_awake_query(self):
        schedule = GatingSchedule([(ns(1), ns(2))])
        assert schedule.awake(ns(1.5))
        assert not schedule.awake(ns(3))

    def test_windows_must_be_disjoint(self):
        with pytest.raises(TraceError):
            GatingSchedule([(0.0, ns(2)), (ns(1), ns(3))])

    def test_empty_schedule(self):
        schedule = schedule_from_sbox_events([], ns(2.5), ns(1))
        assert schedule.windows == []

    def test_signal_waveform(self):
        schedule = GatingSchedule([(ns(1), ns(2))])
        times = np.linspace(0, ns(3), 31)
        sig = schedule.signal(times)
        assert sig.peak() == pytest.approx(1.2)
        assert sig.value_at(ns(0.5)) == 0.0

    def test_gated_current_rises_and_falls(self, pg):
        nl = buffer_block(pg, 10)
        model = BlockPowerModel(nl)
        schedule = GatingSchedule([(ns(5), ns(15))])
        times = np.linspace(0, ns(25), 500)
        wave = gated_block_current(model, schedule, times)
        on = model.static_current(asleep=False)
        off = model.static_current(asleep=True)
        assert wave.value_at(ns(2)) < 10 * off + 1e-9
        assert wave.value_at(ns(14)) == pytest.approx(on, rel=0.05)
        assert wave.value_at(ns(24)) < 0.05 * on

    def test_gated_requires_pg(self, mcml):
        model = BlockPowerModel(buffer_block(mcml, 2))
        with pytest.raises(TraceError):
            gated_block_current(model, GatingSchedule([(0, ns(1))]),
                                np.linspace(0, ns(2), 10))

    def test_ungated_is_flat(self, mcml):
        model = BlockPowerModel(buffer_block(mcml, 3))
        wave = ungated_block_current(model, np.linspace(0, ns(5), 50))
        assert wave.swing() == 0.0
        assert wave.peak() == pytest.approx(3 * uA(50))


class TestMeasurementChain:
    def test_quantisation(self):
        chain = MeasurementChain(noise_sigma=0.0, resolution=uA(1))
        out = chain.measure(np.array([1.4e-6, 1.6e-6]))
        assert out[0] == pytest.approx(1e-6)
        assert out[1] == pytest.approx(2e-6)

    def test_noise_is_reproducible(self):
        a = MeasurementChain(seed=5).measure(np.zeros(100))
        b = MeasurementChain(seed=5).measure(np.zeros(100))
        assert np.array_equal(a, b)

    def test_noise_magnitude(self):
        chain = MeasurementChain(noise_sigma=uA(0.5), resolution=0.0,
                                 seed=1)
        out = chain.measure(np.zeros(5000))
        assert np.std(out) == pytest.approx(uA(0.5), rel=0.1)

    def test_ideal_probe(self):
        chain = MeasurementChain().ideal()
        x = np.array([1.234e-7])
        assert chain.measure(x)[0] == pytest.approx(1.234e-7)

    def test_validation(self):
        with pytest.raises(TraceError):
            MeasurementChain(noise_sigma=-1.0)
