"""Tests for CheckpointedRun: chunked execution over the content-addressed
result store, and the acceptance-criterion kill-and-resume round-trips on
fig6-style CPA campaigns and TVLA assessments."""

import os

import numpy as np
import pytest

from repro.cells import (
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
    library_at_corner,
)
from repro.errors import CheckpointError
from repro.experiments import fig6, tvla
from repro.experiments.runner import CheckpointedRun
from repro.obs import MemorySink, Telemetry
from repro.power import TraceGrid
from repro.sca import AttackCampaign, cpa_attack, fixed_vs_random_tvla
from repro.sca.attack import build_reduced_aes
from repro.tech import corner
from repro.units import ns, ps, uA


def square_chunk(chunk, start):
    return np.array([[float(i), float(i * i)] for i in chunk])


class TestBasicExecution:
    def test_single_pass(self, tmp_path):
        runner = CheckpointedRun(tmp_path / "basic", chunk_size=4)
        out = runner.run(list(range(10)), square_chunk)
        np.testing.assert_array_equal(
            out, [[i, i * i] for i in range(10)])
        assert len(runner.store.keys()) == 3  # one entry per chunk
        assert runner.stats.chunks_total == 3
        assert runner.stats.chunks_run == 3
        assert runner.stats.chunks_resumed == 0

    def test_completed_run_resumes_without_reprocessing(self, tmp_path):
        runner = CheckpointedRun(tmp_path / "done", chunk_size=4)
        first = runner.run(list(range(10)), square_chunk)

        def exploding(chunk, start):
            raise AssertionError("should not be called on a finished run")

        again = CheckpointedRun(tmp_path / "done", chunk_size=4)
        second = again.run(list(range(10)), exploding)
        np.testing.assert_array_equal(first, second)
        assert again.stats.chunks_run == 0
        assert again.stats.chunks_resumed == 3

    def test_one_dim_chunk_output(self, tmp_path):
        runner = CheckpointedRun(tmp_path / "flat", chunk_size=3)
        out = runner.run(list(range(7)),
                         lambda chunk, start: np.array(
                             [float(i) for i in chunk]))
        assert out.shape == (7, 1)

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointedRun(tmp_path / "x", chunk_size=0)

    def test_wrong_row_count_rejected(self, tmp_path):
        runner = CheckpointedRun(tmp_path / "rows", chunk_size=4)
        with pytest.raises(CheckpointError):
            runner.run(list(range(8)),
                       lambda chunk, start: np.zeros((1, 2)))
        assert runner.store.keys() == []  # nothing malformed was stored


class TestKillAndResume:
    def test_mid_run_kill_resumes_from_chunk_boundary(self, tmp_path):
        path = tmp_path / "killed"
        calls = []

        def process_then_die(chunk, start):
            calls.append(start)
            if start >= 8:
                raise KeyboardInterrupt
            return square_chunk(chunk, start)

        runner = CheckpointedRun(path, chunk_size=4)
        with pytest.raises(KeyboardInterrupt):
            runner.run(list(range(12)), process_then_die)
        assert calls == [0, 4, 8]

        resumed = CheckpointedRun(path, chunk_size=4)
        calls.clear()

        def recording(chunk, start):
            calls.append(start)
            return square_chunk(chunk, start)

        out = resumed.run(list(range(12)), recording)
        np.testing.assert_array_equal(
            out, [[i, i * i] for i in range(12)])
        assert calls == [8]  # only the missing chunk is computed
        assert resumed.stats.chunks_resumed == 2
        assert resumed.stats.chunks_run == 1

    def test_truncated_chunk_entry_is_recomputed(self, tmp_path):
        path = tmp_path / "torn"
        reference = CheckpointedRun(path, chunk_size=4).run(
            list(range(8)), square_chunk)
        entries = [os.path.join(root, name)
                   for root, _, names in os.walk(path) for name in names]
        assert len(entries) == 2
        with open(entries[0], "r+b") as fh:
            fh.truncate(200)  # simulate disk corruption

        runner = CheckpointedRun(path, chunk_size=4)
        out = runner.run(list(range(8)), square_chunk)
        assert out.tobytes() == reference.tobytes()
        assert runner.stats.chunks_run == 1
        assert runner.stats.chunks_resumed == 1

        # The recompute replaced the torn entry: the next run is all hits.
        again = CheckpointedRun(path, chunk_size=4)
        assert again.run(list(range(8)), square_chunk).tobytes() == \
            reference.tobytes()
        assert again.stats.chunks_resumed == 2

    def test_fingerprint_mismatch_reuses_nothing(self, tmp_path):
        path = tmp_path / "fp"
        CheckpointedRun(path, chunk_size=4).run(list(range(8)), square_chunk)
        other = CheckpointedRun(path, chunk_size=4)
        out = other.run(list(range(9)), square_chunk)
        np.testing.assert_array_equal(out, [[i, i * i] for i in range(9)])
        assert other.stats.chunks_resumed == 0
        assert other.stats.chunks_run == 3
        assert len(other.store.keys()) == 5  # both campaigns side by side

    def test_extra_fingerprint_keys_participate(self, tmp_path):
        path = tmp_path / "fpx"
        CheckpointedRun(path, chunk_size=4).run(
            list(range(8)), square_chunk, fingerprint={"seed": 1})
        other = CheckpointedRun(path, chunk_size=4)
        other.run(list(range(8)), square_chunk, fingerprint={"seed": 2})
        assert other.stats.chunks_resumed == 0
        same = CheckpointedRun(path, chunk_size=4)
        same.run(list(range(8)), square_chunk, fingerprint={"seed": 1})
        assert same.stats.chunks_resumed == 2


_BUILDERS = {
    "cmos": build_cmos_library,
    "mcml": build_mcml_library,
    "pgmcml": build_pg_mcml_library,
}


class TestCampaignResume:
    """Acceptance criterion: a fig6-style CPA campaign or a TVLA
    assessment killed mid-run resumes from the store and yields
    byte-identical results."""

    KEY = 0x2B
    PLAINTEXTS = list(range(48))

    def test_cpa_campaign_kill_and_resume_is_byte_identical(
            self, tmp_path, kill_after_puts):
        lib = build_cmos_library()
        path = tmp_path / "store"

        reference = AttackCampaign(lib, self.KEY).run(self.PLAINTEXTS)

        campaign = AttackCampaign(lib, self.KEY)
        with pytest.raises(KeyboardInterrupt):
            campaign.run(
                self.PLAINTEXTS,
                runner=kill_after_puts(CheckpointedRun(path, chunk_size=16),
                                       2))

        resumed_campaign = AttackCampaign(lib, self.KEY)
        runner = CheckpointedRun(path, chunk_size=16)
        result = resumed_campaign.run(self.PLAINTEXTS, runner=runner)
        assert runner.stats.chunks_resumed == 2
        assert runner.stats.chunks_run == 1

        np.testing.assert_array_equal(result.traces, reference.traces)
        np.testing.assert_array_equal(result.cpa.peak_per_guess,
                                      reference.cpa.peak_per_guess)

    def test_tvla_kill_and_resume_matches_uninterrupted(
            self, tmp_path, kill_after_puts):
        lib = build_cmos_library()
        netlist, _ = build_reduced_aes(lib)
        path = tmp_path / "store"

        reference = fixed_vs_random_tvla(netlist, key=self.KEY, n_traces=32)

        with pytest.raises(KeyboardInterrupt):
            fixed_vs_random_tvla(
                netlist, key=self.KEY, n_traces=32,
                runner=kill_after_puts(CheckpointedRun(path, chunk_size=8),
                                       2))

        result = fixed_vs_random_tvla(
            netlist, key=self.KEY, n_traces=32,
            runner=CheckpointedRun(path, chunk_size=8))
        np.testing.assert_array_equal(result.t_values, reference.t_values)

    @pytest.mark.parametrize("style", sorted(_BUILDERS))
    def test_killed_campaigns_resume_in_parallel_on_one_store(
            self, style, tmp_path, kill_after_puts):
        """CPA and TVLA for one style share a store directory; each is
        killed after 2 chunks and resumed.  The resumed runs acquire
        only their missing chunks, and the telemetry says so."""
        library = _BUILDERS[style]()
        netlist, _ = build_reduced_aes(library)
        store = tmp_path / "store"
        pts = self.PLAINTEXTS

        serial = AttackCampaign(library, self.KEY).run(pts)
        serial_tvla = fixed_vs_random_tvla(netlist, key=self.KEY,
                                           n_traces=32)

        with pytest.raises(KeyboardInterrupt):
            AttackCampaign(library, self.KEY).run(
                pts,
                runner=kill_after_puts(CheckpointedRun(store, chunk_size=8),
                                       2))
        with pytest.raises(KeyboardInterrupt):
            fixed_vs_random_tvla(
                netlist, key=self.KEY, n_traces=32,
                runner=kill_after_puts(CheckpointedRun(store, chunk_size=8),
                                       2))

        tele = Telemetry(sinks=[MemorySink()])
        resumed = AttackCampaign(library, self.KEY,
                                 telemetry=tele).run(
            pts, runner=CheckpointedRun(store, chunk_size=8, telemetry=tele))
        assert resumed.traces.tobytes() == serial.traces.tobytes()
        assert resumed.cpa.rank_of_true_key() == \
            cpa_attack(serial.traces, pts,
                       true_key=self.KEY).rank_of_true_key()
        counters = tele.registry
        assert counters.counter("checkpoint.chunks_resumed").value == 2
        assert counters.counter("checkpoint.chunks_run").value == 4
        assert counters.counter("sca.acquisition.traces").value == \
            len(pts) - 16

        tvla_tele = Telemetry(sinks=[MemorySink()])
        tvla = fixed_vs_random_tvla(
            netlist, key=self.KEY, n_traces=32,
            runner=CheckpointedRun(store, chunk_size=8,
                                   telemetry=tvla_tele),
            telemetry=tvla_tele)
        assert tvla.t_values.tobytes() == serial_tvla.t_values.tobytes()
        counters = tvla_tele.registry
        assert counters.counter("checkpoint.chunks_resumed").value == 2
        assert counters.counter("checkpoint.chunks_run").value == 2
        assert counters.counter("sca.acquisition.traces").value == 16

    def test_different_grid_reuses_no_chunk(self, tmp_path):
        lib = build_cmos_library()
        pts = self.PLAINTEXTS[:16]
        store = tmp_path / "store"
        AttackCampaign(lib, self.KEY).run(
            pts, runner=CheckpointedRun(store, chunk_size=8))
        grid = TraceGrid(0.0, ns(2.0), ps(50.0))
        runner = CheckpointedRun(store, chunk_size=8)
        coarse = AttackCampaign(lib, self.KEY).run(pts, grid=grid,
                                                   runner=runner)
        assert runner.stats.chunks_resumed == 0
        fresh = AttackCampaign(lib, self.KEY).run(pts, grid=grid)
        assert coarse.traces.tobytes() == fresh.traces.tobytes()

    def test_drivers_share_one_store_across_styles(self, tmp_path):
        """fig6 and tvla keep every style's chunks in one directory;
        the keys never collide, and a rerun is served entirely from
        the store."""
        store = str(tmp_path / "store")
        pts = self.PLAINTEXTS[:16]
        plain_cpa = fig6.run(plaintexts=pts)
        plain_tvla = tvla.run(n_traces=16)
        fig6.run(plaintexts=pts, checkpoint_dir=store, chunk_size=8)
        tvla.run(n_traces=16, checkpoint_dir=store, chunk_size=8)

        tele = Telemetry(sinks=[MemorySink()])
        cpa = fig6.run(plaintexts=pts, checkpoint_dir=store, chunk_size=8,
                       telemetry=tele)
        assessed = tvla.run(n_traces=16, checkpoint_dir=store,
                            chunk_size=8, telemetry=tele)
        assert tele.registry.counter("checkpoint.chunks_resumed").value \
            == 12  # 3 styles x 2 chunks, for fig6 and again for tvla
        assert tele.registry.counter("checkpoint.chunks_run").value == 0
        for style in ("cmos", "mcml", "pgmcml"):
            assert cpa.results[style].traces.tobytes() == \
                plain_cpa.results[style].traces.tobytes()
        assert [r.max_abs_t for r in assessed.rows] == \
            [r.max_abs_t for r in plain_tvla.rows]


class TestLibraryKeysTheChunks:
    """Campaigns on one style at another corner or tail current read
    other datasheets, so they never resume each other's chunks."""

    KEY = 0x2B
    PLAINTEXTS = list(range(32))

    def _campaign_on(self, store, library):
        runner = CheckpointedRun(store, chunk_size=16)
        result = AttackCampaign(library, self.KEY).run(self.PLAINTEXTS,
                                                       runner=runner)
        return result, runner.stats.chunks_resumed

    def _assert_second_library_runs_fresh(self, tmp_path, first, second):
        store = tmp_path / "store"
        stored, _ = self._campaign_on(store, first)
        result, resumed = self._campaign_on(store, second)
        fresh = AttackCampaign(second, self.KEY).run(self.PLAINTEXTS)
        assert resumed == 0
        assert result.traces.tobytes() == fresh.traces.tobytes()
        assert result.traces.tobytes() != stored.traces.tobytes()

    def test_cmos_campaign_at_another_corner(self, tmp_path):
        base = build_cmos_library()
        self._assert_second_library_runs_fresh(
            tmp_path, base, library_at_corner(base, corner("ff")))

    def test_pgmcml_campaign_at_another_tail_current(self, tmp_path):
        nominal = build_pg_mcml_library()
        starved = build_pg_mcml_library(iss=uA(20))
        assert starved.name == nominal.name
        self._assert_second_library_runs_fresh(tmp_path, nominal, starved)

    def test_pgmcml_tvla_at_another_corner(self, tmp_path):
        base = build_pg_mcml_library()
        tt, _ = build_reduced_aes(base)
        ff, _ = build_reduced_aes(library_at_corner(base, corner("ff")))
        assert tt.name == ff.name
        store = tmp_path / "store"
        stored = fixed_vs_random_tvla(
            tt, key=self.KEY, n_traces=32,
            runner=CheckpointedRun(store, chunk_size=16))
        runner = CheckpointedRun(store, chunk_size=16)
        result = fixed_vs_random_tvla(ff, key=self.KEY, n_traces=32,
                                      runner=runner)
        fresh = fixed_vs_random_tvla(ff, key=self.KEY, n_traces=32)
        assert runner.stats.chunks_resumed == 0
        assert result.t_values.tobytes() == fresh.t_values.tobytes()
        assert result.t_values.tobytes() != stored.t_values.tobytes()


class TestTelemetryEdgeCases:
    """Observability must never influence checkpoint semantics: resume
    works and stays byte-identical whether telemetry is off, in memory,
    or appending to a JSONL file — even one a previous kill corrupted."""

    def _killed_then_resumed(self, tmp_path, arm, first_tele, second_tele):
        path = tmp_path / "obs"
        reference = CheckpointedRun(tmp_path / "ref", chunk_size=4).run(
            list(range(12)), square_chunk)
        with pytest.raises(KeyboardInterrupt):
            arm(CheckpointedRun(path, chunk_size=4, telemetry=first_tele),
                2).run(list(range(12)), square_chunk)
        runner = CheckpointedRun(path, chunk_size=4, telemetry=second_tele)
        out = runner.run(list(range(12)), square_chunk)
        np.testing.assert_array_equal(out, reference)
        assert runner.stats.chunks_resumed == 2

    def test_resume_with_telemetry_enabled_both_sides(self, tmp_path,
                                                      kill_after_puts):
        first = Telemetry(sinks=[MemorySink()])
        second = Telemetry(sinks=[MemorySink()])
        self._killed_then_resumed(tmp_path, kill_after_puts, first, second)
        before = [s["attrs"] for s in first.sinks[0].spans()
                  if s["name"] == "checkpoint.chunk"]
        assert [a["resumed"] for a in before] == [False, False]
        assert before[-1]["error"] == "KeyboardInterrupt"
        after = [s["attrs"]["resumed"] for s in second.sinks[0].spans()
                 if s["name"] == "checkpoint.chunk"]
        assert after == [True, True, False]
        assert second.registry.counter("checkpoint.chunks_resumed").value \
            == 2
        assert second.registry.counter("checkpoint.chunks_run").value == 1

    def test_resume_after_telemetry_is_turned_off(self, tmp_path,
                                                  kill_after_puts):
        self._killed_then_resumed(tmp_path, kill_after_puts,
                                  Telemetry(sinks=[MemorySink()]), None)

    def test_resume_after_telemetry_is_turned_on(self, tmp_path,
                                                 kill_after_puts):
        self._killed_then_resumed(tmp_path, kill_after_puts, None,
                                  Telemetry(sinks=[MemorySink()]))

    def test_corrupt_jsonl_sink_does_not_poison_resume(self, tmp_path,
                                                       kill_after_puts):
        """The trace file is append-only: a resume pointed at a trace
        torn by the kill (or overwritten with garbage) neither raises
        nor changes the computed rows."""
        from repro.obs import JsonlSink, read_jsonl

        trace = tmp_path / "campaign.jsonl"
        path = tmp_path / "obs"
        reference = CheckpointedRun(tmp_path / "ref", chunk_size=4).run(
            list(range(12)), square_chunk)

        first = Telemetry(sinks=[JsonlSink(trace)])
        with pytest.raises(KeyboardInterrupt):
            kill_after_puts(CheckpointedRun(path, chunk_size=4,
                                            telemetry=first),
                            2).run(list(range(12)), square_chunk)
        first.close()

        # Simulate the kill tearing the trace mid-record.
        with open(trace, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "span", "name": "torn')

        second = Telemetry(sinks=[JsonlSink(trace)])
        runner = CheckpointedRun(path, chunk_size=4, telemetry=second)
        out = runner.run(list(range(12)), square_chunk)
        second.close()
        np.testing.assert_array_equal(out, reference)

        # Lenient reading recovers every intact record around the tear.
        records = read_jsonl(trace)
        chunks = [r["attrs"]["resumed"] for r in records
                  if r.get("name") == "checkpoint.chunk"]
        assert chunks == [False, False, True, True, False]

    def test_redirecting_telemetry_mid_campaign_is_harmless(
            self, tmp_path, kill_after_puts):
        """First half traced to file A, resume traced to file B: rows
        identical and both traces individually well-formed."""
        from repro.obs import JsonlSink, read_jsonl, validate_stream

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        path = tmp_path / "redir"
        reference = CheckpointedRun(tmp_path / "ref", chunk_size=4).run(
            list(range(12)), square_chunk)

        first = Telemetry(sinks=[JsonlSink(a)])
        with pytest.raises(KeyboardInterrupt):
            kill_after_puts(CheckpointedRun(path, chunk_size=4,
                                            telemetry=first),
                            2).run(list(range(12)), square_chunk)
        first.close()

        second = Telemetry(sinks=[JsonlSink(b)])
        out = CheckpointedRun(path, chunk_size=4, telemetry=second).run(
            list(range(12)), square_chunk)
        second.close()
        np.testing.assert_array_equal(out, reference)
        validate_stream(read_jsonl(a, strict=True))
        validate_stream(read_jsonl(b, strict=True))
