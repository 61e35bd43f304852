"""End-to-end attack-campaign tests (the Fig. 6 pipeline, reduced size).

The full 256-plaintext campaigns run in the fig6 benchmark; here a
subset keeps the suite fast while still checking the qualitative
outcome: the CMOS implementation leaks enough to rank the true key near
the top, the differential implementations do not.
"""

import numpy as np
import pytest

from repro.cells import build_cmos_library, build_mcml_library, \
    build_pg_mcml_library
from repro.errors import AttackError
from repro.power import MeasurementChain, TraceGrid
from repro.sca import AttackCampaign, acquire_traces
from repro.sca.attack import build_reduced_aes
from repro.aes import SBOX
from repro.netlist import LogicSimulator
from repro.units import ns

KEY = 0x2B


@pytest.fixture(scope="module")
def cmos_campaign():
    return AttackCampaign(build_cmos_library(), KEY)


@pytest.fixture(scope="module")
def pg_campaign():
    return AttackCampaign(build_pg_mcml_library(), KEY)


class TestReducedAesNetlist:
    @pytest.mark.parametrize("build", [build_cmos_library,
                                       build_pg_mcml_library])
    def test_logic_correct(self, build):
        nl, outs = build_reduced_aes(build())
        sim = LogicSimulator(nl)
        for p in (0x00, 0x55, 0xFF):
            env = {f"p{b}": bool((p >> (7 - b)) & 1) for b in range(8)}
            env.update({f"k{b}": bool((KEY >> (7 - b)) & 1)
                        for b in range(8)})
            sim.initialize(env)
            got = sum(int(sim.values[outs[b]]) << (7 - b) for b in range(8))
            assert got == SBOX[p ^ KEY]

    def test_has_key_addition_layer(self):
        nl, _ = build_reduced_aes(build_cmos_library())
        assert nl.cell_histogram().get("XOR2", 0) >= 8


class TestCollectTraces:
    def test_shape_and_determinism(self, cmos_campaign):
        grid = TraceGrid(0.0, ns(2), 50e-12)
        pts = [0, 1, 2, 3]
        a = acquire_traces(cmos_campaign.netlist, KEY, pts, grid=grid,
                           chain=MeasurementChain(seed=9))
        b = acquire_traces(cmos_campaign.netlist, KEY, pts, grid=grid,
                           chain=MeasurementChain(seed=9))
        assert a.shape == (4, grid.n)
        assert np.array_equal(a, b)

    def test_key_validated(self, cmos_campaign):
        with pytest.raises(AttackError):
            acquire_traces(cmos_campaign.netlist, 300, [0])

    def test_plaintext_validated(self, cmos_campaign):
        with pytest.raises(AttackError):
            acquire_traces(cmos_campaign.netlist, KEY, [999])

    def test_cmos_traces_vary_with_data(self, cmos_campaign):
        grid = TraceGrid(0.0, ns(2), 50e-12)
        traces = acquire_traces(cmos_campaign.netlist, KEY, [0x00, 0xFF],
                                grid=grid,
                                chain=MeasurementChain(noise_sigma=0.0,
                                                       resolution=0.0))
        assert np.abs(traces[0] - traces[1]).max() > 1e-6

    def test_pg_traces_nearly_constant(self, pg_campaign):
        grid = TraceGrid(0.0, ns(2), 50e-12)
        traces = acquire_traces(pg_campaign.netlist, KEY, [0x00, 0xFF],
                                grid=grid,
                                chain=MeasurementChain(noise_sigma=0.0,
                                                       resolution=0.0))
        static = traces.mean()
        # Data changes the trace by far less than a percent of Iss total.
        assert np.abs(traces[0] - traces[1]).max() < 0.01 * static


class TestCampaignOutcomes:
    def test_cmos_leaks(self, cmos_campaign):
        result = cmos_campaign.run(plaintexts=list(range(0, 256, 2)))
        assert result.rank <= 2  # key at (or next to) the top

    def test_pgmcml_resists(self, pg_campaign):
        result = pg_campaign.run(plaintexts=list(range(0, 256, 2)))
        assert result.rank > 5
        assert not result.succeeded

    def test_mcml_resists(self):
        campaign = AttackCampaign(build_mcml_library(), KEY)
        result = campaign.run(plaintexts=list(range(0, 256, 2)))
        assert not result.succeeded

    def test_summary_text(self, cmos_campaign):
        result = cmos_campaign.run(plaintexts=list(range(0, 256, 4)))
        assert "CMOS" in result.summary()

    def test_key_validated(self):
        with pytest.raises(AttackError):
            AttackCampaign(build_cmos_library(), key=999)
