"""Tests for the order-independent acquisition engine.

The contract under test: a campaign's trace matrix is a pure function
of (netlist, key, chain entropy, mismatch seed, plaintexts) — the same
bytes come out however the plaintexts are chunked, in whichever order
the chunks run, and when a campaign is killed and resumed from the
result store.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cells import (
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
    build_wddl_library,
)
from repro.errors import AttackError, TraceError
from repro.experiments.runner import CheckpointedRun
from repro.obs import MemorySink, Telemetry
from repro.power import MeasurementChain, TraceGrid
from repro.sca import (
    AttackCampaign,
    TraceAcquirer,
    acquire_traces,
    cpa_attack,
    validate_plaintexts,
)
from repro.sca.attack import build_reduced_aes
from repro.units import ns, ps, uA

KEY = 0x2B
PTS = list(range(40))
#: Campaign index of the first trace in the memo tests.
OFFSET = 5

_BUILDERS = {
    "cmos": build_cmos_library,
    "mcml": build_mcml_library,
    "pgmcml": build_pg_mcml_library,
}


@pytest.fixture(scope="module", params=sorted(_BUILDERS))
def style_setup(request):
    """(style, library, netlist, serial reference matrix) per style."""
    library = _BUILDERS[request.param]()
    netlist, _ = build_reduced_aes(library)
    serial = acquire_traces(netlist, KEY, PTS)
    return request.param, library, netlist, serial


class TestByteIdenticalAcrossExecution:
    """Chunk size, shuffled chunk order and kill-and-resume all produce
    byte-identical matrices, per style."""

    def test_shuffled_chunk_order_matches_serial(self, style_setup):
        _, _, netlist, serial = style_setup
        acquirer = TraceAcquirer(netlist, KEY)
        starts = list(range(0, len(PTS), 8))
        np.random.default_rng(3).shuffle(starts)
        rows = np.empty_like(serial)
        for begin in starts:
            chunk = PTS[begin:begin + 8]
            rows[begin:begin + len(chunk)] = acquirer.acquire(
                chunk, trace_offset=begin)
        assert np.array_equal(rows, serial)

    def test_chunk_size_does_not_matter(self, repeated_setup):
        """Chunk invariance, which checkpointed runs and the job service
        rely on: slices of 1, 7, 16 and 33 traces, each acquired at its
        own campaign offset, give the bytes of one call over the whole
        list (and of the uncached per-trace reference)."""
        _, netlist, pts, reference = repeated_setup
        whole = TraceAcquirer(netlist, KEY).acquire(pts, trace_offset=OFFSET)
        assert whole.tobytes() == reference.tobytes()
        for size in (1, 7, 16, 33):
            sliced = _in_slices(TraceAcquirer(netlist, KEY), pts, size,
                                offset=OFFSET)
            assert sliced.tobytes() == whole.tobytes(), size

    def test_kill_and_resume_with_workers_matches_serial(
            self, style_setup, tmp_path, kill_after_puts):
        _, library, _, serial = style_setup
        path = tmp_path / "store"
        campaign = AttackCampaign(library, KEY)
        with pytest.raises(KeyboardInterrupt):
            campaign.run(
                PTS,
                runner=kill_after_puts(CheckpointedRun(path, chunk_size=8),
                                       2))

        tele = Telemetry(sinks=[MemorySink()])
        runner = CheckpointedRun(path, chunk_size=8)
        resumed = AttackCampaign(library, KEY,
                                 telemetry=tele).run(PTS, runner=runner)
        assert runner.stats.chunks_resumed == 2
        assert runner.stats.chunks_run == 3
        # Only the three missing chunks were acquired.
        assert tele.registry.counter("sca.acquisition.traces").value == 24
        assert np.array_equal(resumed.traces, serial)
        reference = cpa_attack(serial, PTS, true_key=KEY)
        assert resumed.cpa.rank_of_true_key() == \
            reference.rank_of_true_key()

    def test_campaign_api_rank_invariant_under_workers(self, style_setup):
        _, library, _, serial = style_setup
        result = AttackCampaign(library, KEY).run(PTS)
        assert np.array_equal(result.traces, serial)
        reference = cpa_attack(serial, PTS, true_key=KEY)
        assert result.cpa.rank_of_true_key() == \
            reference.rank_of_true_key()


class TestCounterBasedNoise:
    def test_indexed_measure_matches_sequential(self):
        chain_a = MeasurementChain(seed=9)
        chain_b = MeasurementChain(seed=9)
        x = np.linspace(0, uA(10), 50)
        sequential = [chain_a.measure(x) for _ in range(4)]
        indexed = [chain_b.measure(x, trace_index=i) for i in range(4)]
        for s, i in zip(sequential, indexed):
            assert np.array_equal(s, i)

    def test_indexed_measure_is_order_independent(self):
        chain = MeasurementChain(seed=9)
        x = np.linspace(0, uA(10), 50)
        forward = [chain.measure(x, trace_index=i) for i in range(4)]
        backward = [chain.measure(x, trace_index=i)
                    for i in reversed(range(4))]
        for i, row in enumerate(reversed(backward)):
            assert np.array_equal(row, forward[i])

    def test_indexed_measure_does_not_advance_counter(self):
        chain_a = MeasurementChain(seed=9)
        chain_b = MeasurementChain(seed=9)
        x = np.zeros(20)
        chain_a.measure(x, trace_index=17)  # a worker elsewhere
        assert np.array_equal(chain_a.measure(x), chain_b.measure(x))

    def test_negative_index_rejected(self):
        with pytest.raises(TraceError):
            MeasurementChain().measure(np.zeros(4), trace_index=-1)

    def test_fingerprint_names_scheme_and_entropy(self):
        fp = MeasurementChain(seed=42).fingerprint()
        assert fp["scheme"] == MeasurementChain.SCHEME
        assert fp["entropy"] == "42"

    def test_distinct_traces_get_distinct_noise(self):
        chain = MeasurementChain(noise_sigma=uA(0.5), resolution=0.0)
        x = np.zeros(100)
        assert not np.array_equal(chain.measure(x, trace_index=0),
                                  chain.measure(x, trace_index=1))


class TestValidation:
    def test_bad_plaintexts_listed(self):
        with pytest.raises(AttackError) as err:
            validate_plaintexts([0, -1, 256, "x"])
        message = str(err.value)
        assert "-1" in message and "256" in message and "'x'" in message

    def test_overflow_of_bad_values_is_summarised(self):
        with pytest.raises(AttackError, match=r"\+2 more"):
            validate_plaintexts(list(range(256, 266)))

    def test_valid_batch_coerced_to_ints(self):
        assert validate_plaintexts([0, np.int64(7), 255]) == [0, 7, 255]

    def test_whole_batch_checked_before_any_simulation(self):
        library = build_cmos_library()
        netlist, _ = build_reduced_aes(library)
        acquirer = TraceAcquirer(netlist, KEY)
        simulated = []
        acquirer.ideal_samples = lambda p: simulated.append(p)
        with pytest.raises(AttackError):
            acquirer.acquire([0, 1, 2, 999])
        assert simulated == []

    def test_t_apply_must_precede_window_end(self):
        library = build_cmos_library()
        netlist, _ = build_reduced_aes(library)
        grid = TraceGrid(0.0, ns(2.0), ps(25.0))
        with pytest.raises(AttackError, match="t_apply"):
            TraceAcquirer(netlist, KEY, grid=grid, t_apply=ns(2.0))

    def test_key_byte_checked(self):
        library = build_cmos_library()
        netlist, _ = build_reduced_aes(library)
        with pytest.raises(AttackError):
            TraceAcquirer(netlist, 0x100)


class TestCheckpointScheme:
    def test_different_entropy_reuses_no_chunk(self, tmp_path,
                                               kill_after_puts):
        library = build_cmos_library()
        pts = list(range(16))
        path = tmp_path / "store"
        first = AttackCampaign(library, KEY, chain=MeasurementChain(seed=1))
        with pytest.raises(KeyboardInterrupt):
            first.run(
                pts,
                runner=kill_after_puts(CheckpointedRun(path, chunk_size=8),
                                       1))
        second = AttackCampaign(library, KEY,
                                chain=MeasurementChain(seed=2))
        runner = CheckpointedRun(path, chunk_size=8)
        resumed = second.run(pts, runner=runner)
        assert runner.stats.chunks_resumed == 0
        assert runner.stats.chunks_run == 2
        fresh = AttackCampaign(library, KEY,
                               chain=MeasurementChain(seed=2)).run(pts)
        assert resumed.traces.tobytes() == fresh.traces.tobytes()

    def test_empty_plaintext_list_yields_empty_matrix(self):
        library = build_cmos_library()
        netlist, _ = build_reduced_aes(library)
        out = acquire_traces(netlist, KEY, [])
        assert out.shape[0] == 0 and out.shape[1] > 0
        # The acquirer's own grid sets the width.
        grid = TraceGrid(0.0, ns(2.0), ps(50.0))
        assert acquire_traces(netlist, KEY, [], grid=grid).shape == \
            (0, grid.n)


class TestBlockedMeasurement:
    """measure_block is the serial measure applied row by row (PR 7)."""

    def test_block_matches_indexed_rows_bitwise(self):
        chain_a = MeasurementChain(seed=9)
        chain_b = MeasurementChain(seed=9)
        rng = np.random.default_rng(5)
        samples = rng.uniform(0.0, uA(30), size=(7, 40))
        block = chain_a.measure_block(samples, first_index=13)
        for i in range(samples.shape[0]):
            assert np.array_equal(block[i],
                                  chain_b.measure(samples[i],
                                                  trace_index=13 + i))

    def test_block_does_not_advance_counter(self):
        chain_a = MeasurementChain(seed=9)
        chain_b = MeasurementChain(seed=9)
        x = np.zeros(20)
        chain_a.measure_block(np.zeros((3, 20)), first_index=40)
        assert np.array_equal(chain_a.measure(x), chain_b.measure(x))

    def test_block_validation(self):
        chain = MeasurementChain()
        with pytest.raises(TraceError):
            chain.measure_block(np.zeros(8))
        with pytest.raises(TraceError):
            chain.measure_block(np.zeros((2, 8)), first_index=-1)
        empty = chain.measure_block(np.zeros((0, 8)))
        assert empty.shape == (0, 8)


def _in_slices(acquirer, pts, size, offset=0):
    """``pts`` acquired ``size`` at a time, each slice at its offset."""
    return np.vstack([
        acquirer.acquire(pts[begin:begin + size],
                         trace_offset=offset + begin)
        for begin in range(0, len(pts), size)])


class TestBatchedAcquisition:
    """The acquirer measures each chunk as one block; the bytes equal a
    per-trace ``measure`` loop for every block size."""

    @pytest.mark.parametrize("batch", [1, 3, 16, 64])
    def test_batch_sizes_byte_identical(self, style_setup, batch):
        # 40 traces: blocks of 3 and 16 leave ragged final blocks, 64
        # exceeds the trace count entirely.
        _, _, netlist, serial = style_setup
        acquirer = TraceAcquirer(netlist, KEY)
        per_trace = np.array([
            acquirer.chain.measure(acquirer.ideal_samples(p), trace_index=i)
            for i, p in enumerate(PTS)])
        out = _in_slices(TraceAcquirer(netlist, KEY), PTS, batch)
        assert out.tobytes() == per_trace.tobytes()
        assert serial.tobytes() == per_trace.tobytes()


@pytest.fixture(scope="module",
                params=sorted(_BUILDERS) + ["wddl"])
def repeated_setup(request):
    """(style, netlist, plaintexts, uncached reference) per style.

    96 plaintexts repeat 32 distinct bytes three times in shuffled
    order; the reference row of trace ``i`` is a fresh simulation,
    composed and measured alone at index ``OFFSET + i``.
    """
    builder = dict(_BUILDERS, wddl=build_wddl_library)[request.param]
    netlist, _ = build_reduced_aes(builder())
    rng = np.random.default_rng(7)
    distinct = rng.choice(256, size=32, replace=False)
    pts = [int(p) for p in rng.permutation(np.repeat(distinct, 3))]
    oracle = TraceAcquirer(netlist, KEY)
    reference = np.array([
        oracle.chain.measure(oracle.compose(oracle.activity.simulate(p)),
                             trace_index=OFFSET + i)
        for i, p in enumerate(pts)])
    return request.param, netlist, pts, reference


class TestIdealSampleMemo:
    """Each distinct plaintext is simulated once per acquirer, and the
    memoised traces equal uncached per-trace ones byte for byte."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 16])
    def test_memo_matches_uncached_reference(self, repeated_setup,
                                             chunk_size, simulated_bytes):
        style, netlist, pts, reference = repeated_setup
        out = _in_slices(TraceAcquirer(netlist, KEY), pts, chunk_size,
                         offset=OFFSET)
        assert out.tobytes() == reference.tobytes()
        # Each distinct byte once: a lane of a pass, or a heap fallback.
        assert simulated_bytes == Counter(set(pts))

    def test_simulated_counter_counts_memo_misses(self):
        netlist, _ = build_reduced_aes(build_cmos_library())
        tele = Telemetry(sinks=[MemorySink()])
        acquire_traces(netlist, KEY, list(range(16)) * 4, telemetry=tele)
        assert tele.registry.counter("sca.acquisition.traces").value == 64
        assert tele.registry.counter(
            "sca.acquisition.simulated").value == 16
        assert tele.registry.counter(
            "sca.acquisition.composed").value == 16
