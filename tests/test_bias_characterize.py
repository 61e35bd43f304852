"""Tests for the bias solver and the characterisation harness."""

import pytest

import repro.cells.bias as bias
from repro.cells import (
    McmlCellGenerator,
    PgMcmlCellGenerator,
    characterize_mcml_cell,
    function,
    measure_leakage,
    solve_bias,
)
from repro.cells.characterize import sensitising_assignment
from repro.errors import CharacterizationError
from repro.spice import OperatingPointCache
from repro.units import uA


@pytest.fixture(scope="module")
def bias50():
    return solve_bias(uA(50))


class TestBiasSolver:
    def test_hits_current_target(self, bias50):
        assert bias50.iss_measured == pytest.approx(uA(50), rel=0.02)

    def test_hits_swing_target(self, bias50):
        assert bias50.swing_measured == pytest.approx(0.40, rel=0.02)

    def test_load_resistance(self, bias50):
        assert bias50.load_resistance == pytest.approx(0.4 / uA(50), rel=0.05)

    def test_cache_returns_same_object(self):
        a = solve_bias(uA(50))
        b = solve_bias(uA(50))
        assert a is b

    def test_gated_variant_differs(self):
        gated = solve_bias(uA(50), gated=True)
        assert gated.gated
        assert gated.iss_measured == pytest.approx(uA(50), rel=0.02)

    def test_low_current_uses_vp_knob(self):
        low = solve_bias(uA(10))
        assert low.swing_measured == pytest.approx(0.40, rel=0.05)
        assert low.sizing.vp > 0.05  # load weakened through Vp

    def test_high_current(self):
        high = solve_bias(uA(250))
        assert high.iss_measured == pytest.approx(uA(250), rel=0.05)

    def test_invalid_targets(self):
        with pytest.raises(CharacterizationError):
            solve_bias(-1e-6)
        with pytest.raises(CharacterizationError):
            solve_bias(uA(50), swing=2.0)


class TestBiasOperatingPointCache:
    """The scan and bisections re-measure points they already solved;
    the per-call cache must answer those without moving the result."""

    @pytest.mark.parametrize("iss,gated", [(uA(50), True), (uA(20), False)])
    def test_hits_leave_the_bias_point_byte_identical(self, monkeypatch,
                                                      iss, gated):
        made = []

        class Recording(OperatingPointCache):
            def __init__(self):
                super().__init__()
                made.append(self)

        class AlwaysMiss(Recording):
            def lookup(self, key):
                self.misses += 1
                return None

        points = []
        for cache_cls in (Recording, AlwaysMiss):
            monkeypatch.setattr(bias, "_CACHE", {})
            monkeypatch.setattr(bias, "OperatingPointCache", cache_cls)
            points.append(solve_bias(iss, gated=gated))
        cached, uncached = points
        assert repr(cached) == repr(uncached)
        assert len(made) == 2  # one cache per solve_bias call
        assert made[0].hits > 0 and made[1].hits == 0
        # Same search path: every DC solve asked its cache once.
        assert made[0].hits + made[0].misses == made[1].misses


class TestSensitising:
    def test_buffer(self):
        pin, side, out = sensitising_assignment(function("BUF"))
        assert pin == "A" and out == "Y" and side == {}

    def test_and2_requires_high_side(self):
        pin, side, out = sensitising_assignment(function("AND2"))
        other = [p for p in ("A", "B") if p != pin][0]
        assert side[other] is True

    def test_mux2(self):
        pin, side, out = sensitising_assignment(function("MUX2"))
        fn = function("MUX2")
        low = fn.evaluate({**side, pin: False})[out]
        high = fn.evaluate({**side, pin: True})[out]
        assert low != high

    def test_constant_function_rejected(self):
        with pytest.raises(CharacterizationError):
            sensitising_assignment(function("TIEH"))

    def test_sequential_rejected(self):
        with pytest.raises(CharacterizationError):
            sensitising_assignment(function("DFF"))


class TestCharacterization:
    def test_buffer_measurement(self, bias50):
        gen = McmlCellGenerator(sizing=bias50.sizing)
        meas = characterize_mcml_cell(function("BUF"), gen, fanout=1)
        assert 5e-12 < meas.delay < 60e-12
        assert meas.swing == pytest.approx(0.40, rel=0.1)
        assert meas.iss == pytest.approx(uA(50), rel=0.1)

    def test_fanout_slows_cell(self, bias50):
        gen = McmlCellGenerator(sizing=bias50.sizing)
        fo1 = characterize_mcml_cell(function("BUF"), gen, fanout=1)
        fo4 = characterize_mcml_cell(function("BUF"), gen, fanout=4)
        assert fo4.delay > 1.5 * fo1.delay

    def test_pg_overhead_small(self, bias50):
        plain = characterize_mcml_cell(
            function("BUF"), McmlCellGenerator(sizing=bias50.sizing))
        gated = characterize_mcml_cell(
            function("BUF"),
            PgMcmlCellGenerator(sizing=solve_bias(uA(50), gated=True).sizing))
        # "The insertion of the sleep transistor does not reduce the
        # performances" — within a few percent.
        assert gated.delay == pytest.approx(plain.delay, rel=0.10)

    def test_and2_slower_than_buffer(self, bias50):
        gen = McmlCellGenerator(sizing=bias50.sizing)
        buf = characterize_mcml_cell(function("BUF"), gen)
        and2 = characterize_mcml_cell(function("AND2"), gen)
        assert and2.delay > buf.delay

    def test_repr(self, bias50):
        gen = McmlCellGenerator(sizing=bias50.sizing)
        meas = characterize_mcml_cell(function("BUF"), gen)
        assert "BUF" in repr(meas)


class TestLeakage:
    def test_sleep_leakage_tiny(self):
        gen = PgMcmlCellGenerator(sizing=solve_bias(uA(50), gated=True).sizing)
        leak = measure_leakage(function("BUF"), gen, asleep=True)
        assert 0.0 < leak < 5e-9

    def test_active_equals_tail_current(self):
        bias = solve_bias(uA(50), gated=True)
        gen = PgMcmlCellGenerator(sizing=bias.sizing)
        active = measure_leakage(function("BUF"), gen, asleep=False)
        assert active == pytest.approx(uA(50), rel=0.1)

    def test_on_off_ratio_exceeds_1e4(self):
        bias = solve_bias(uA(50), gated=True)
        gen = PgMcmlCellGenerator(sizing=bias.sizing)
        on = measure_leakage(function("BUF"), gen, asleep=False)
        off = measure_leakage(function("BUF"), gen, asleep=True)
        assert on / off > 1e4

    def test_plain_mcml_has_no_sleep_mode(self):
        bias = solve_bias(uA(50))
        gen = McmlCellGenerator(sizing=bias.sizing)
        with pytest.raises(CharacterizationError):
            measure_leakage(function("BUF"), gen, asleep=True)
