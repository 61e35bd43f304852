"""Unit tests for the repro.obs observability layer.

Covers the metric primitives, the sinks (including the append-only
JSONL contract), span nesting on the Telemetry handle, and the
record/stream schema validation that CI runs against real traces.
"""

import io
import json
import threading

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import (
    NULL_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullTelemetry,
    SchemaError,
    Telemetry,
    muted_telemetry,
    read_jsonl,
    span_tree,
    validate_record,
    validate_stream,
)


# -- metrics ------------------------------------------------------------------

class TestMetrics:
    def test_counter_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_keeps_latest(self):
        g = Gauge("g")
        assert g.snapshot()["value"] is None
        g.set(3)
        g.set(7)
        assert g.snapshot()["value"] == 7

    def test_histogram_aggregates(self):
        h = Histogram("h")
        for v in (2.0, 4.0, 6.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["total"] == pytest.approx(12.0)
        assert snap["min"] == 2.0 and snap["max"] == 6.0
        assert snap["mean"] == pytest.approx(4.0)

    def test_empty_histogram_snapshot_is_json_safe(self):
        snap = Histogram("h").snapshot()
        assert snap["min"] is None and snap["max"] is None
        assert snap["mean"] is None
        json.dumps(snap)

    def test_registry_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ReproError):
            reg.gauge("x")


# -- sinks --------------------------------------------------------------------

class TestSinks:
    def test_memory_sink_partitions_kinds(self):
        tele = Telemetry(sinks=[MemorySink()])
        with tele.span("a"):
            tele.event("e")
        sink = tele.sinks[0]
        assert [r["name"] for r in sink.spans()] == ["a"]
        assert [r["name"] for r in sink.events()] == ["e"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tele = Telemetry(sinks=[JsonlSink(path)])
        with tele.span("solve", n=3):
            tele.event("attempt", strategy="newton")
        tele.emit_metrics()
        tele.close()
        records = read_jsonl(path, strict=True)
        assert [r["kind"] for r in records] == ["event", "span", "metrics"]
        validate_stream(records)

    def test_jsonl_appends_never_truncates(self, tmp_path):
        """A pre-existing (even corrupt) file is appended to, not parsed."""
        path = tmp_path / "trace.jsonl"
        path.write_text('{"torn": \n')  # torn line from a kill
        tele = Telemetry(sinks=[JsonlSink(path)])
        tele.event("after-resume")
        tele.close()
        raw = path.read_text().splitlines()
        assert raw[0] == '{"torn": '
        records = read_jsonl(path)  # lenient: skips the torn line
        assert [r["name"] for r in records if r.get("kind") == "event"] == \
            ["after-resume"]
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path, strict=True)

    def test_jsonl_serialises_numpy_scalars(self, tmp_path):
        path = tmp_path / "np.jsonl"
        tele = Telemetry(sinks=[JsonlSink(path)])
        tele.event("e", value=np.float64(1.5), count=np.int64(3))
        tele.close()
        (record,) = read_jsonl(path, strict=True)
        assert record["attrs"] == {"value": 1.5, "count": 3}

    def test_jsonl_accepts_file_object_without_closing_it(self):
        buf = io.StringIO()
        sink = JsonlSink(buf, flush_every=1)
        sink.emit({"kind": "event", "name": "x", "t": 0.0, "attrs": {},
                   "seq": 1})
        sink.close()
        assert not buf.closed
        assert json.loads(buf.getvalue())["name"] == "x"


# -- telemetry handle ---------------------------------------------------------

class TestTelemetry:
    def test_null_telemetry_is_inert_and_shared(self):
        assert NULL_TELEMETRY.enabled is False
        span = NULL_TELEMETRY.span("anything", x=1)
        with span as s:
            s.set("k", "v")
        NULL_TELEMETRY.counter("c").inc()
        NULL_TELEMETRY.histogram("h").observe(1.0)
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")
        assert isinstance(NULL_TELEMETRY, NullTelemetry)

    def test_span_nesting_and_tree(self):
        tele = Telemetry(sinks=[MemorySink()])
        with tele.span("outer", depth=0):
            with tele.span("inner", depth=1):
                pass
            with tele.span("inner2"):
                pass
        forest = span_tree(tele.sinks[0].records)
        assert len(forest) == 1
        assert forest[0]["name"] == "outer"
        assert [c["name"] for c in forest[0]["children"]] == \
            ["inner", "inner2"]

    def test_span_records_exception_and_propagates(self):
        tele = Telemetry(sinks=[MemorySink()])
        with pytest.raises(ValueError):
            with tele.span("bad"):
                raise ValueError("boom")
        (span,) = tele.sinks[0].spans()
        assert span["attrs"]["error"] == "ValueError"

    def test_threads_get_independent_span_stacks(self):
        tele = Telemetry(sinks=[MemorySink()])
        seen = {}

        def work(name):
            with tele.span(name):
                seen[name] = tele.current_span_id()

        with tele.span("root"):
            t = threading.Thread(target=work, args=("child-thread",))
            t.start()
            t.join()
        spans = {s["name"]: s for s in tele.sinks[0].spans()}
        # The other thread's span must NOT be parented to this thread's
        # root — each thread has its own stack.
        assert spans["child-thread"]["parent_id"] is None

    def test_timer_observes_into_histogram(self):
        tele = Telemetry()
        with tele.timer("t"):
            pass
        snap = tele.registry.histogram("t").snapshot()
        assert snap["count"] == 1
        assert snap["min"] >= 0.0

    def test_progress_renders_and_records(self):
        rendered = []
        tele = Telemetry(sinks=[MemorySink()], progress=rendered.append)
        tele.progress("halfway")
        assert rendered == ["halfway"]
        (record,) = tele.sinks[0].records
        assert record["kind"] == "progress" and record["text"] == "halfway"

    def test_muted_telemetry_records_but_never_renders(self, capsys):
        tele = muted_telemetry()
        tele.progress("silent")
        assert capsys.readouterr().out == ""
        assert tele.sinks[0].records[0]["text"] == "silent"


# -- schema -------------------------------------------------------------------

class TestSchema:
    def _span(self, **over):
        record = {"kind": "span", "name": "s", "span_id": 1,
                  "parent_id": None, "t_start": 0.0, "t_end": 1.0,
                  "attrs": {}, "seq": 1}
        record.update(over)
        return record

    def test_valid_records_pass(self):
        validate_record(self._span())
        validate_record({"kind": "event", "name": "e", "t": 0.0,
                         "attrs": {}, "seq": 1})
        validate_record({"kind": "progress", "text": "x", "t": 0.0,
                         "seq": 1})
        validate_record({"kind": "metrics", "t": 0.0, "seq": 1,
                         "registry": {"c": {"type": "counter", "value": 1}}})

    @pytest.mark.parametrize("mutation", [
        {"kind": "mystery"},
        {"name": 7},
        {"t_end": float("nan")},
        {"t_end": -1.0},
        {"parent_id": "three"},
        {"seq": None},
    ])
    def test_bad_span_shapes_raise(self, mutation):
        with pytest.raises(SchemaError):
            validate_record(self._span(**mutation))

    def test_metrics_entry_type_checked(self):
        with pytest.raises(SchemaError):
            validate_record({"kind": "metrics", "t": 0.0, "seq": 1,
                             "registry": {"bad": {"type": "nope"}}})

    def test_stream_rejects_duplicate_ids(self):
        with pytest.raises(SchemaError, match="duplicate"):
            validate_stream([self._span(seq=1),
                             self._span(seq=2)])

    def test_stream_rejects_nonincreasing_seq(self):
        with pytest.raises(SchemaError, match="seq"):
            validate_stream([self._span(seq=5),
                             self._span(span_id=2, seq=5)])

    def test_stream_rejects_missing_parent(self):
        with pytest.raises(SchemaError, match="missing parent"):
            validate_stream([self._span(parent_id=99)])

    def test_stream_rejects_escaping_child_window(self):
        child = self._span(span_id=2, parent_id=1, t_start=0.5,
                           t_end=2.0, seq=2)
        with pytest.raises(SchemaError, match="escapes"):
            validate_stream([self._span(), child])

    def test_stream_rejects_parent_cycles(self):
        a = self._span(span_id=1, parent_id=2, seq=1)
        b = self._span(span_id=2, parent_id=1, seq=2)
        with pytest.raises(SchemaError, match="cycle"):
            validate_stream([a, b])

    def test_real_telemetry_stream_validates(self):
        tele = Telemetry(sinks=[MemorySink()])
        with tele.span("a"):
            with tele.span("b"):
                tele.event("e")
            tele.progress("p")
        tele.emit_metrics()
        spans = validate_stream(tele.sinks[0].records)
        assert len(spans) == 2

    def test_heartbeat_record_shape(self):
        validate_record({"kind": "heartbeat", "worker": "w1", "t": 0.0,
                         "attrs": {"job": "job-x"}, "seq": 1})
        for bad in ({"kind": "heartbeat", "t": 0.0, "attrs": {}, "seq": 1},
                    {"kind": "heartbeat", "worker": 7, "t": 0.0,
                     "attrs": {}, "seq": 1},
                    {"kind": "heartbeat", "worker": "w1", "t": 0.0,
                     "attrs": None, "seq": 1}):
            with pytest.raises(SchemaError):
                validate_record(bad)

    def test_telemetry_emits_heartbeats(self):
        sink = MemorySink()
        tele = Telemetry(sinks=[sink], source="w1")
        tele.heartbeat("w1", job="job-x", chunk=3)
        beats = [r for r in sink.records if r["kind"] == "heartbeat"]
        assert len(beats) == 1
        assert beats[0]["worker"] == "w1"
        assert beats[0]["src"] == "w1"
        assert beats[0]["attrs"] == {"job": "job-x", "chunk": 3}
        validate_stream(sink.records)


class TestMultiSourceStreams:
    """Several emitters sharing one stream (the job service's shared
    events file), partitioned by ``src``."""

    def _worker_records(self, name, n_events=1):
        sink = MemorySink()
        tele = Telemetry(sinks=[sink], source=name)
        with tele.span("chunk", worker=name):
            for i in range(n_events):
                tele.event("step", i=i)
        tele.heartbeat(name, chunk=0)
        return sink.records

    def test_source_label_stamps_every_record(self):
        records = self._worker_records("w1", n_events=2)
        assert records and all(r["src"] == "w1" for r in records)

    def test_interleaved_sources_validate_independently(self):
        a = self._worker_records("a")
        b = self._worker_records("b")
        # Interleave: seq counters and span ids restart per emitter, so
        # a single-stream validation of the merge would reject it...
        merged = [r for pair in zip(a, b) for r in pair]
        spans = validate_stream(merged)
        # ...but partitioned validation passes, with qualified ids.
        assert set(spans) == {("a", 1), ("b", 1)}
        stripped = [{k: v for k, v in r.items() if k != "src"}
                    for r in merged]
        with pytest.raises(SchemaError):
            validate_stream(stripped)

    def test_non_string_src_rejected(self):
        with pytest.raises(SchemaError, match="src"):
            validate_stream([{"kind": "event", "name": "e", "t": 0.0,
                              "attrs": {}, "seq": 1, "src": 7}])

    def test_span_tree_forests_per_source(self):
        merged = self._worker_records("a") + self._worker_records("b")
        forest = span_tree(merged)
        assert [t["name"] for t in forest] == ["chunk", "chunk"]
        assert [t["attrs"]["worker"] for t in forest] == ["a", "b"]
