"""Tracing-invariance: telemetry must never change a single output byte.

The ISSUE contract: every simulation and trace artefact is byte-identical
with telemetry disabled, enabled in memory, or redirected to a JSONL
file — including kill-and-resume campaigns — for all three cell styles.
These tests prove it, and additionally pin the structural determinism of
the span trees (serial, threaded, and forked acquisition reassemble to
the same tree).

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
from repro.sca.acquisition import _fork_available
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
    reference = acquire_traces(netlist, KEY, PTS, workers=1)
    return request.param, library, netlist, reference


def _strip_root_env(forest):
    """Drop attrs that legitimately vary with execution strategy."""
    for root in forest:
        for key in ("backend", "workers"):
            root["attrs"].pop(key, None)
    return forest


class TestByteIdenticalWithTelemetry:
    def test_memory_telemetry_changes_nothing(self, style_setup):
        style, _, netlist, reference = style_setup
        tele = Telemetry(sinks=[MemorySink()])
        observed = acquire_traces(netlist, KEY, PTS, workers=1,
                                  telemetry=tele)
        assert np.array_equal(observed, reference)
        assert tele.registry.counter("sca.acquisition.traces").value == \
            len(PTS)
        validate_stream(tele.sinks[0].records)

    def test_jsonl_redirected_telemetry_changes_nothing(self, style_setup,
                                                        tmp_path):
        style, _, netlist, reference = style_setup
        path = tmp_path / f"{style}.jsonl"
        tele = Telemetry(sinks=[JsonlSink(path)])
        observed = acquire_traces(netlist, KEY, PTS, workers=2,
                                  backend="thread", chunk_size=8,
                                  telemetry=tele)
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
    """Serial, threaded, and forked acquisition produce the SAME span
    tree (names, nesting, order, attrs) once timestamps and ids are
    stripped — workers reassemble by chunk index."""

    def _tree(self, netlist, workers, backend):
        tele = Telemetry(sinks=[MemorySink()])
        acquire_traces(netlist, KEY, PTS, workers=workers, backend=backend,
                       chunk_size=8, telemetry=tele)
        return _strip_root_env(span_tree(tele.sinks[0].records))

    def test_serial_vs_thread_trees_identical(self, style_setup):
        _, _, netlist, _ = style_setup
        serial = self._tree(netlist, workers=1, backend="serial")
        threaded = self._tree(netlist, workers=4, backend="thread")
        assert serial == threaded
        chunks = serial[0]["children"]
        assert [c["name"] for c in chunks] == \
            ["sca.acquisition.chunk"] * 3
        assert [c["attrs"]["chunk"] for c in chunks] == [0, 1, 2]

    @pytest.mark.skipif(not _fork_available(),
                        reason="fork start method unavailable")
    def test_fork_tree_identical_too(self, style_setup):
        _, _, netlist, _ = style_setup
        serial = self._tree(netlist, workers=1, backend="serial")
        forked = self._tree(netlist, workers=4, backend="process")
        assert serial == forked


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
