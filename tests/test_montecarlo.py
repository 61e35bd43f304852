"""Tests for Monte-Carlo mismatch analysis of MCML cells."""

import pytest

from repro.cells import (
    McmlCellGenerator,
    function,
    mc_buffer_residual,
    mc_input_offset,
    solve_bias,
)
from repro.cells.library import RESIDUAL_SIGMA_PER_TAIL
from repro.errors import CharacterizationError
from repro.tech import MismatchModel
from repro.units import uA
from .dc_oracle import serial_mc_buffer_residual, serial_mc_input_offset


@pytest.fixture(scope="module")
def sizing():
    return solve_bias(uA(50)).sizing


class TestMismatchGeneration:
    def test_devices_get_individual_parameters(self, sizing):
        gen = McmlCellGenerator(sizing=sizing,
                                mismatch=MismatchModel(seed=3))
        cell = gen.build(function("AND2"))
        vts = {d.model.params.vt0 for d in cell.circuit.devices
               if type(d).__name__ == "Mosfet"}
        assert len(vts) > 3  # pairs, loads, tail all deviate

    def test_no_mismatch_means_identical_devices(self, sizing):
        gen = McmlCellGenerator(sizing=sizing)
        cell = gen.build(function("AND2"))
        vts = {d.model.params.vt0 for d in cell.circuit.devices
               if type(d).__name__ == "Mosfet"
               and d.model.params.is_nmos}
        # Pairs and tail share the same high-Vt flavour: 1 distinct value.
        assert len(vts) == 1

    def test_reproducible_sampling(self, sizing):
        def build(seed):
            gen = McmlCellGenerator(sizing=sizing,
                                    mismatch=MismatchModel(seed=seed))
            cell = gen.build(function("BUF"))
            return sorted(d.model.params.vt0
                          for d in cell.circuit.devices
                          if type(d).__name__ == "Mosfet")
        assert build(7) == build(7)
        assert build(7) != build(8)


class TestResidualCurrent:
    def test_rms_order_matches_library_constant(self, sizing):
        result = mc_buffer_residual(n_samples=16, sizing=sizing)
        # The datasheet constant must be within ~3x of the MC-derived
        # value (it is literally where the constant came from).
        assert result.residual_sigma == pytest.approx(
            RESIDUAL_SIGMA_PER_TAIL, rel=2.0)
        assert result.residual_sigma < 1e-6  # far below the 50 uA tail

    def test_zero_mismatch_zero_residual(self, sizing):
        result = mc_buffer_residual(n_samples=3, sizing=sizing,
                                    avt=0.0, akp=0.0)
        assert result.residual_max < 1e-10

    def test_residual_grows_with_avt(self, sizing):
        small = mc_buffer_residual(n_samples=8, sizing=sizing, avt=1e-9)
        large = mc_buffer_residual(n_samples=8, sizing=sizing, avt=6e-9)
        assert large.residual_sigma > small.residual_sigma

    def test_mean_current_near_target(self, sizing):
        result = mc_buffer_residual(n_samples=8, sizing=sizing)
        mean = sum(result.mean_currents) / len(result.mean_currents)
        assert mean == pytest.approx(uA(50), rel=0.15)

    def test_iss_spread_recorded(self, sizing):
        result = mc_buffer_residual(n_samples=8, sizing=sizing)
        assert 0.0 < result.iss_sigma < uA(10)

    def test_sample_count_validated(self, sizing):
        with pytest.raises(CharacterizationError):
            mc_buffer_residual(n_samples=1, sizing=sizing)

    def test_repr(self, sizing):
        result = mc_buffer_residual(n_samples=4, sizing=sizing)
        assert "residual" in repr(result)


class TestInputOffset:
    def test_offsets_are_millivolt_scale(self, sizing):
        offsets = mc_input_offset(n_samples=6, sizing=sizing)
        assert all(abs(o) < 0.05 for o in offsets)
        assert any(abs(o) > 1e-4 for o in offsets)

    def test_zero_mismatch_zero_offset(self, sizing):
        offsets = mc_input_offset(n_samples=2, sizing=sizing, avt=0.0,
                                  akp=0.0)
        assert all(abs(o) < 2e-3 for o in offsets)


class TestLockstepMatchesSerial:
    """Every die solved in lockstep gives the serial loop's floats
    (``tests/dc_oracle.py``)."""

    def test_buffer_residual(self, sizing):
        got = mc_buffer_residual(n_samples=6, sizing=sizing, seed=5)
        want = serial_mc_buffer_residual(n_samples=6, sizing=sizing, seed=5)
        assert got.residual_currents == want.residual_currents
        assert got.mean_currents == want.mean_currents

    def test_input_offset(self, sizing):
        assert mc_input_offset(n_samples=5, sizing=sizing, seed=3) \
            == serial_mc_input_offset(n_samples=5, sizing=sizing, seed=3)

    def test_input_offset_sample_count_validated(self, sizing):
        with pytest.raises(CharacterizationError):
            mc_input_offset(n_samples=0, sizing=sizing)
