"""Tracing-invariance: telemetry must never change a single output byte.

The ISSUE contract: every simulation and trace artefact is byte-identical
with telemetry disabled, enabled in memory, or redirected to a JSONL
file — including kill-and-resume campaigns — for all three cell styles.
These tests prove it, and additionally pin the structural determinism of
the acquisition span tree (one child span per chunk, in index order).

Set ``REPRO_OBS_TRACE_ARTIFACT=/path/out.jsonl`` to have the pgmcml
equivalence run leave its validated JSONL trace behind (CI uploads it as
an artifact).
"""

import os
import shutil

import numpy as np
import pytest

from repro.cells import (
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
)
from repro.experiments.runner import CheckpointedRun
from repro.obs import (
    JsonlSink,
    MemorySink,
    Telemetry,
    read_jsonl,
    span_tree,
    validate_stream,
)
from repro.sca import AttackCampaign, acquire_traces
from repro.sca.attack import build_reduced_aes
from repro.spice import Circuit, Pulse, run_transient
from repro.units import ns, ps

KEY = 0x2B
PTS = list(range(24))

_BUILDERS = {
    "cmos": build_cmos_library,
    "mcml": build_mcml_library,
    "pgmcml": build_pg_mcml_library,
}


@pytest.fixture(scope="module", params=sorted(_BUILDERS))
def style_setup(request):
    """(style, library, netlist, reference matrix with NO telemetry)."""
    library = _BUILDERS[request.param]()
    netlist, _ = build_reduced_aes(library)
    reference = acquire_traces(netlist, KEY, PTS)
    return request.param, library, netlist, reference


class TestByteIdenticalWithTelemetry:
    def test_memory_telemetry_changes_nothing(self, style_setup):
        style, _, netlist, reference = style_setup
        tele = Telemetry(sinks=[MemorySink()])
        observed = acquire_traces(netlist, KEY, PTS, telemetry=tele)
        assert np.array_equal(observed, reference)
        assert tele.registry.counter("sca.acquisition.traces").value == \
            len(PTS)
        validate_stream(tele.sinks[0].records)

    def test_jsonl_redirected_telemetry_changes_nothing(self, style_setup,
                                                        tmp_path):
        style, _, netlist, reference = style_setup
        path = tmp_path / f"{style}.jsonl"
        tele = Telemetry(sinks=[JsonlSink(path)])
        observed = acquire_traces(netlist, KEY, PTS, telemetry=tele)
        tele.emit_metrics()
        tele.close()
        assert np.array_equal(observed, reference)
        records = read_jsonl(path, strict=True)
        validate_stream(records)
        assert any(r["kind"] == "metrics" for r in records)
        artifact = os.environ.get("REPRO_OBS_TRACE_ARTIFACT")
        if artifact and style == "pgmcml":
            os.makedirs(os.path.dirname(artifact) or ".", exist_ok=True)
            shutil.copyfile(path, artifact)

    def test_kill_and_resume_with_telemetry_matches(self, style_setup,
                                                    tmp_path,
                                                    kill_after_puts):
        """Telemetry through store put/kill/resume: the resumed matrix
        is still byte-identical, and checkpoint spans cover both the
        chunks stored before the kill and the chunks served on resume."""
        _, library, _, reference = style_setup
        path = tmp_path / "store"
        first = Telemetry(sinks=[MemorySink()])

        with pytest.raises(KeyboardInterrupt):
            AttackCampaign(library, KEY, telemetry=first).run(
                PTS, runner=kill_after_puts(
                    CheckpointedRun(path, chunk_size=8, telemetry=first), 2))
        assert [s["attrs"]["resumed"] for s in first.sinks[0].spans()
                if s["name"] == "checkpoint.chunk"] == [False, False]

        second = Telemetry(sinks=[MemorySink()])
        runner = CheckpointedRun(path, chunk_size=8, telemetry=second)
        resumed = AttackCampaign(library, KEY,
                                 telemetry=second).run(PTS, runner=runner)
        assert runner.stats.chunks_resumed == 2
        assert np.array_equal(resumed.traces, reference)
        assert [s["attrs"]["resumed"] for s in second.sinks[0].spans()
                if s["name"] == "checkpoint.chunk"] == [True, True, False]
        assert second.registry.counter("checkpoint.chunks_resumed").value \
            == 2
        assert [s["attrs"]["checkpointed"] for s in second.sinks[0].spans()
                if s["name"] == "sca.campaign"] == [True]
        validate_stream(second.sinks[0].records)

    def test_resume_without_telemetry_after_telemetry_run(self, style_setup,
                                                          tmp_path,
                                                          kill_after_puts):
        """A campaign started with telemetry resumes identically with it
        disabled — the chunk keys are blind to observability entirely."""
        _, library, _, reference = style_setup
        path = tmp_path / "store"

        tele = Telemetry(sinks=[MemorySink()])
        with pytest.raises(KeyboardInterrupt):
            AttackCampaign(library, KEY, telemetry=tele).run(
                PTS, runner=kill_after_puts(
                    CheckpointedRun(path, chunk_size=8, telemetry=tele), 1))
        runner = CheckpointedRun(path, chunk_size=8)
        resumed = AttackCampaign(library, KEY).run(PTS, runner=runner)
        assert runner.stats.chunks_resumed == 1
        assert np.array_equal(resumed.traces, reference)


class TestSpanTreeDeterminism:
    """Acquisition's span tree (names, nesting, order, attrs) is a pure
    function of the work: one child span per 16-trace chunk, in index
    order at its campaign-global offset."""

    def test_chunks_are_children_in_index_order(self, style_setup):
        _, _, netlist, _ = style_setup
        (root,) = span_tree(_acquisition_records(netlist))
        assert root["name"] == "sca.acquisition.acquire"
        assert root["attrs"] == {"traces": len(PTS), "chunks": 2,
                                 "chunk_size": 16}
        chunks = root["children"]
        assert [c["name"] for c in chunks] == \
            ["sca.acquisition.chunk"] * 2
        assert [c["attrs"] for c in chunks] == [
            {"chunk": 0, "offset": 3, "n": 16},
            {"chunk": 1, "offset": 19, "n": len(PTS) - 16}]

    def test_tree_repeats_exactly(self, style_setup):
        _, _, netlist, _ = style_setup
        first, second = (span_tree(_acquisition_records(netlist))
                         for _ in range(2))
        assert first == second


def _acquisition_records(netlist):
    tele = Telemetry(sinks=[MemorySink()])
    acquire_traces(netlist, KEY, PTS, trace_offset=3, telemetry=tele)
    return tele.sinks[0].records


class TestTransientInvariance:
    def _rc(self):
        ckt = Circuit("rc")
        ckt.v("vin", "in", Pulse(0.0, 1.0, ns(1), ps(1), ps(1), ns(50)))
        ckt.resistor("r1", "in", "out", 1e3)
        ckt.capacitor("c1", "out", "0", 1e-12)
        return ckt

    def test_transient_arrays_identical_on_off(self):
        bare = run_transient(self._rc(), tstop=ns(6), dt=ps(20))
        tele = Telemetry(sinks=[MemorySink()])
        observed = run_transient(self._rc(), tstop=ns(6), dt=ps(20),
                                 telemetry=tele)
        assert np.array_equal(bare.time, observed.time)
        for node in bare.voltages:
            assert np.array_equal(bare.voltages[node],
                                  observed.voltages[node])
        (root,) = span_tree(tele.sinks[0].records)
        assert root["name"] == "spice.transient.run"
        assert root["attrs"]["steps_taken"] == bare.stats.steps_taken
        assert tele.registry.counter("spice.transient.runs").value == 1
        assert tele.registry.counter(
            "spice.transient.steps_accepted").value == bare.stats.steps_taken
        # Physics sanity so the equality above is not vacuous.
        assert observed.wave("out").v[-1] == pytest.approx(1.0, abs=0.02)

    def test_dc_spans_nest_under_transient(self):
        tele = Telemetry(sinks=[MemorySink()])
        run_transient(self._rc(), tstop=ns(2), dt=ps(50), telemetry=tele)
        (root,) = span_tree(tele.sinks[0].records)
        names = {c["name"] for c in root["children"]}
        assert "spice.dc.solve" in names
        assert tele.registry.counter("spice.newton.solves").value >= 1
