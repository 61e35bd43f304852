"""Tests for the multi-bit (generalised) DPA — the title attack."""

import numpy as np
import pytest

from repro.aes import SBOX
from repro.cells import build_cmos_library, build_pg_mcml_library
from repro.errors import AttackError
from repro.power import standardize
from repro.sca import AttackCampaign, dpa_attack, multibit_dpa_attack

from .attack_oracles import REL_TOL, max_relative_delta, per_bit_differentials


def charge_per_one_traces(key=0x42, n=300, seed=0):
    """Synthetic charge-per-one target: sample 6 carries HW plus noise."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 256, size=n)
    traces = rng.normal(0.0, 0.5, size=(n, 12))
    hw = np.array([bin(SBOX[p ^ key]).count("1") for p in pts])
    traces[:, 6] += 0.5 * hw
    return traces, pts.tolist()


class TestMultibitDpa:
    def test_recovers_key_on_synthetic_target(self):
        traces, pts = charge_per_one_traces()
        result = multibit_dpa_attack(traces, pts, true_key=0x42)
        assert result.succeeded

    def test_stronger_than_single_bit(self):
        traces, pts = charge_per_one_traces(n=180, seed=3)
        multi = multibit_dpa_attack(traces, pts, true_key=0x42)
        single = dpa_attack(traces, pts, target_bit=0, true_key=0x42)
        assert multi.rank_of_true_key() <= single.rank_of_true_key()

    def test_target_bit_marker(self):
        traces, pts = charge_per_one_traces(n=64)
        result = multibit_dpa_attack(traces, pts)
        assert result.target_bit == -1

    def test_count_mismatch(self):
        with pytest.raises(AttackError):
            multibit_dpa_attack(np.ones((4, 3)), [1, 2])


def _random_and_quantised():
    traces, pts = charge_per_one_traces(n=120, seed=5)
    # A 1.0 step leaves -0.0 and +0.0 side by side on flat samples.
    return {"random": (traces, pts),
            "quantised": (np.round(traces), pts)}


def _assert_matches_loop(got, reference, name):
    """Within :data:`REL_TOL` of the loop; byte for byte where the traces
    are integers, whose class sums are exact."""
    if name == "quantised":
        assert got.tobytes() == reference.tobytes()
    else:
        assert max_relative_delta(got, reference) <= REL_TOL


class TestOneDifferenceOfMeansKernel:
    @pytest.mark.parametrize("bit", range(8))
    @pytest.mark.parametrize("name", ["random", "quantised"])
    def test_single_bit_matches_per_bit_loop(self, name, bit):
        traces, pts = _random_and_quantised()[name]
        result = dpa_attack(traces, pts, target_bit=bit)
        _assert_matches_loop(result.differentials,
                             per_bit_differentials(traces, pts, [bit]), name)

    @pytest.mark.parametrize("name", ["random", "quantised"])
    def test_multibit_matches_per_bit_loop(self, name):
        traces, pts = _random_and_quantised()[name]
        _assert_matches_loop(multibit_dpa_attack(traces, pts).differentials,
                             per_bit_differentials(traces, pts, range(8)),
                             name)


class TestCampaignDpa:
    def test_cmos_breaks_under_dpa(self):
        campaign = AttackCampaign(build_cmos_library(), 0x2B)
        result = campaign.run(with_dpa=True)
        assert result.dpa.succeeded

    def test_pg_resists_dpa(self):
        campaign = AttackCampaign(build_pg_mcml_library(), 0x2B)
        result = campaign.run(with_dpa=True)
        assert not result.dpa.succeeded
        assert result.dpa.rank_of_true_key() > 5

    def test_standardisation_is_what_rescues_dom_on_cmos(self):
        """Raw DoM drowns in the high-variance switching samples; the
        per-sample normalisation recovers it — documenting why the
        campaign standardises before DPA."""
        campaign = AttackCampaign(build_cmos_library(), 0x2B)
        result = campaign.run()
        raw = multibit_dpa_attack(result.traces, result.plaintexts,
                                  true_key=0x2B)
        normed = multibit_dpa_attack(standardize(result.traces),
                                     result.plaintexts, true_key=0x2B)
        assert normed.rank_of_true_key() < raw.rank_of_true_key()
        assert normed.rank_of_true_key() == 0
