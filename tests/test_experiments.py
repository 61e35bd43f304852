"""Integration tests over the experiment drivers: the paper's claims.

These are the claims the reproduction must uphold; the benchmarks print
the full tables, these tests assert the shape.
"""

import pytest

from repro.cells import (
    McmlCellGenerator,
    PgMcmlCellGenerator,
    function,
    mcml_testbench,
    measure_mcml_cell,
    solve_bias,
)
from repro.experiments import fig3, fig5, fig6, table1, table2, table3
from repro.experiments.table3 import PAPER_TABLE3
from repro.spice import batch
from repro.spice.backend import InternalBackend, SimulatorBackend, dispatch
from repro.spice.transient import run_transient
from repro.units import uA


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run()

    def test_areas_exact(self, result):
        assert result.max_abs_error_um2() < 1e-3

    def test_overhead_near_6_percent(self, result):
        assert result.mean_overhead_pct == pytest.approx(5.56, abs=0.3)

    def test_library_wide_overhead(self, result):
        assert 4.0 < result.library_mean_overhead_pct < 7.0


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run(n_blocks=1)

    def test_cell_count_ordering(self, result):
        cells = {r.style: r.cells for r in result.rows}
        assert cells["cmos"] > cells["pgmcml"] > cells["mcml"]

    def test_cmos_mcml_cell_ratio_matches_paper(self, result):
        cells = {r.style: r.cells for r in result.rows}
        paper_ratio = PAPER_TABLE3["cmos"][0] / PAPER_TABLE3["mcml"][0]
        assert cells["cmos"] / cells["mcml"] == pytest.approx(paper_ratio,
                                                              abs=0.25)

    def test_area_ordering(self, result):
        areas = {r.style: r.area_um2 for r in result.rows}
        assert areas["pgmcml"] > areas["mcml"] > areas["cmos"]

    def test_block_area_ratio_near_2_5(self, result):
        areas = {r.style: r.area_um2 for r in result.rows}
        assert areas["mcml"] / areas["cmos"] == pytest.approx(2.53, abs=0.6)

    def test_delay_ordering(self, result):
        delays = {r.style: r.delay_ns for r in result.rows}
        assert delays["cmos"] < delays["mcml"] < delays["pgmcml"]

    def test_pg_delay_overhead_small(self, result):
        delays = {r.style: r.delay_ns for r in result.rows}
        assert delays["pgmcml"] / delays["mcml"] < 1.05

    def test_mcml_power_is_huge(self, result):
        power = {r.style: r.avg_power_w for r in result.rows}
        assert power["mcml"] > 100 * power["cmos"]

    def test_pg_power_beats_cmos_at_paper_duty(self, result):
        power = {r.style: r.avg_power_at_paper_duty_w for r in result.rows}
        assert power["pgmcml"] < power["cmos"]
        # Paper: PG-MCML ~4x below CMOS.
        assert power["cmos"] / power["pgmcml"] == pytest.approx(4.3, abs=2.5)

    def test_pg_reduction_factor_at_paper_duty(self, result):
        ratio = result.power_ratio_at_paper_duty("mcml", "pgmcml")
        assert ratio > 1e3  # paper: ~1e4

    def test_pg_power_magnitude_near_paper(self, result):
        pg_row = result.row("pgmcml")
        assert pg_row.avg_power_at_paper_duty_w == pytest.approx(
            47.77e-6, rel=0.5)

    def test_duty_measured(self, result):
        assert 0.005 < result.measured_duty < 0.05


def assert_arrays_equal(serial, batched):
    """Every recorded voltage and source current, byte for byte."""
    for attr in ("voltages", "source_currents"):
        want, got = getattr(serial, attr), getattr(batched, attr)
        assert list(want) == list(got)
        for name in want:
            assert want[name].tobytes() == got[name].tobytes(), name


def spy_march(monkeypatch):
    """Record each lockstep march's lanes and results."""
    marches = []
    march = batch._march

    def spy(lanes, *args):
        results = march(lanes, *args)
        marches.append(results)
        return results

    monkeypatch.setattr(batch, "_march", spy)
    return marches


class TestFig3:
    """Fig. 3's one batched backend call against the serial path."""

    #: Includes 250 µA, whose FO4 swing the same-topology batch engine
    #: moved by 4e-16 relative.
    SWEEP = (uA(10), uA(50), uA(250))

    def test_batched_sweep_equals_serial_characterisation(self, monkeypatch):
        marches = spy_march(monkeypatch)
        result = fig3.run(self.SWEEP)
        # One lockstep march over every lane: no per-circuit loop and no
        # serial fallback.
        assert [len(lanes) for lanes in marches] == [2 * len(self.SWEEP)]
        assert [p.iss for p in result.points] == list(self.SWEEP)
        fn = function("BUF")
        lanes = iter(marches[0])
        for point in result.points:
            generator = McmlCellGenerator(sizing=solve_bias(point.iss).sizing)
            measured = []
            for fanout in (1, 4):
                bench = mcml_testbench(fn, generator, fanout=fanout)
                serial = run_transient(bench.circuit, tstop=bench.window,
                                       dt=bench.dt, record=bench.record)
                assert_arrays_equal(serial, next(lanes))
                measured.append(measure_mcml_cell(bench, serial))
            fo1, fo4 = measured
            serial_point = fig3.Fig3Point(
                iss=point.iss, delay_fo1=fo1.delay, delay_fo4=fo4.delay,
                swing=fo1.swing, area_um2=fig3.buffer_area_um2(point.iss))
            assert point == serial_point

    def test_sweep_goes_through_the_backend_seam(self):
        class Recording(SimulatorBackend):
            """Delegates to the internal engine, one call at a time."""

            name = "recording"

            def __init__(self):
                self.inner = InternalBackend()
                self.transients = []

            def probe(self):
                return self.inner.probe()

            def solve_dc(self, circuit, t=0.0, telemetry=None, **kwargs):
                return self.inner.solve_dc(circuit, t=t,
                                           telemetry=telemetry, **kwargs)

            def run_transient(self, circuit, tstop, dt, record=None,
                              telemetry=None, **kwargs):
                self.transients.append(circuit.name)
                return self.inner.run_transient(
                    circuit, tstop, dt, record=record, telemetry=telemetry,
                    **kwargs)

        backend = Recording()
        sweep = self.SWEEP[:2]
        dispatch.set_default_backend(backend)
        try:
            result = fig3.run(sweep)
        finally:
            dispatch.reset_default_backend()
        assert len(backend.transients) == 2 * len(sweep)
        assert len(result.points) == len(sweep)


class TestTable2:
    """Table 2's cells go to the backend as one batched call."""

    #: Three shapes: the march stacks none of them together.
    CELLS = ("BUF", "AND2", "FA")

    def test_batched_cells_equal_serial_characterisation(self, monkeypatch):
        marches = spy_march(monkeypatch)
        result = table2.run(self.CELLS)
        assert [len(lanes) for lanes in marches] == [len(self.CELLS)]
        generator = PgMcmlCellGenerator(
            sizing=solve_bias(uA(50), gated=True).sizing)
        for name, lane in zip(self.CELLS, marches[0]):
            bench = mcml_testbench(function(name), generator)
            serial = run_transient(bench.circuit, tstop=bench.window,
                                   dt=bench.dt, record=bench.record)
            assert_arrays_equal(serial, lane)
            meas = measure_mcml_cell(bench, serial)
            row = result.row_for(name)
            assert (row.spice_delay_ps, row.spice_swing_v, row.spice_iss_ua) \
                == (meas.delay * 1e12, meas.swing, meas.iss * 1e6)
        assert result.row_for("XOR2").spice_delay_ps is None


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run()

    def test_mcml_flat_tens_of_ma(self, result):
        assert 10.0 < result.mcml_flat_ma < 400.0
        assert result.mcml_current.swing() == 0.0

    def test_pg_reaches_mcml_level_when_awake(self, result):
        assert result.pg_peak_ma == pytest.approx(result.mcml_flat_ma,
                                                  rel=0.05)

    def test_sleep_floor_negligible(self, result):
        assert result.pg_floor_ua < 50.0
        assert result.on_off_ratio > 1e3

    def test_sleep_signal_leads_the_burst(self, result):
        t_on, _ = result.window
        rise = result.sleep_signal.first_crossing(0.6, "rise")
        assert rise == pytest.approx(t_on, abs=1e-10)

    def test_window_length_order_of_paper(self, result):
        assert 5.0 < result.window_length_ns() < 60.0


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run()

    def test_matches_paper_outcome(self, result):
        assert result.matches_paper()

    def test_cmos_margin(self, result):
        assert result.distinguishability("cmos") > 1.2

    def test_differential_buried(self, result):
        assert result.distinguishability("mcml") < 1.0
        assert result.distinguishability("pgmcml") < 1.0

    def test_pg_no_worse_than_mcml(self, result):
        """'The insertion of the sleep signal does not introduce a
        negative effect on robustness' — PG margin comparable to MCML."""
        assert result.distinguishability("pgmcml") <= \
            1.15 * result.distinguishability("mcml")
