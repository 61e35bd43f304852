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
    solve_biases,
)
from repro.cells.characterize import sensitising_assignment
from repro.errors import CharacterizationError
from repro.experiments import fig3
from repro.spice import OperatingPointCache
from repro.tech import TECH90, Technology
from repro.units import uA
from .dc_oracle import serial_solve_bias


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


@pytest.fixture
def target_caches(monkeypatch):
    """An empty bias cache, and every operating-point cache the searches
    make, in the order they make them."""
    made = []

    class Recording(OperatingPointCache):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(bias, "_CACHE", {})
    monkeypatch.setattr(bias, "OperatingPointCache", Recording)
    return made


class TestBiasLockstep:
    """solve_biases against the serial search (``tests/dc_oracle.py``):
    each target's point ``repr``-identical, with its cache's hits and
    misses."""

    @pytest.mark.parametrize("targets,gated", [
        (fig3.DEFAULT_SWEEP, False),  # Fig. 3's nine searches at once
        ((uA(50),), True),            # Table 2's gated search
        ((uA(20),), False),           # the Vp branch
    ])
    def test_matches_the_serial_search(self, target_caches, targets,
                                       gated):
        points = solve_biases(targets, gated=gated)
        assert len(target_caches) == len(targets)
        for iss, point, cache in zip(targets, points, target_caches):
            oracle_cache = OperatingPointCache()
            want = serial_solve_bias(iss, gated=gated,
                                     op_cache=oracle_cache)
            assert repr(point) == repr(want)
            assert cache.counters() == oracle_cache.counters()
        if targets == (uA(20),):
            assert points[0].sizing.vp > 0.0

    def test_duplicate_targets_share_one_point(self, target_caches):
        a, b, c = solve_biases([uA(50), uA(35), uA(50)])
        assert a is c and a is not b
        assert len(target_caches) == 2
        assert solve_bias(uA(50)) is a
        assert solve_biases([uA(35), uA(50)]) == [b, a]

    def test_cache_key_names_outer_iterations(self, target_caches):
        full = solve_bias(uA(50))
        one = solve_bias(uA(50), outer_iterations=1)
        assert one is not full
        assert repr(one) == repr(serial_solve_bias(uA(50),
                                                   outer_iterations=1))
        assert one.sizing.vn != full.sizing.vn

    def test_cache_key_names_the_technology_content(self, target_caches):
        low = Technology(vdd=1.0)
        assert low.name == TECH90.name
        nominal = solve_bias(uA(50))
        point = solve_bias(uA(50), tech=low)
        assert point is not nominal
        assert repr(point) == repr(serial_solve_bias(uA(50), tech=low))

    def test_invalid_targets_fail_before_any_search(self, target_caches):
        with pytest.raises(CharacterizationError):
            solve_biases([uA(50), 0.0])
        assert not target_caches and not bias._CACHE


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
