"""The `Telemetry` handle: hierarchical spans + metrics + progress.

One :class:`Telemetry` object is threaded *explicitly* through the
layers it observes (solver systems, acquisition, campaign and
checkpoint runners) — there is no global registry and no ambient
context variable in the hot path.  Code that is handed no telemetry
falls back to the module-level :data:`NULL_TELEMETRY` singleton, whose
every method is a near-zero-cost no-op, so instrumented code needs no
``if telemetry is not None`` guards.

Design rules, enforced by the test suite:

* **Invariance** — telemetry must never influence the computation it
  observes.  Spans carry monotonic timestamps and attributes only; no
  RNG, no branching on sink state.  Simulation and trace outputs are
  byte-identical with telemetry on, off, or redirected.
* **Deterministic trees** — span *structure* (names, nesting, order,
  attributes other than timestamps) is a pure function of the work
  performed.
* **Monotonic time** — ``t_start``/``t_end`` come from
  :func:`time.monotonic`; a child span's window nests inside its
  parent's (see :mod:`repro.obs.schema`).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sinks import MemorySink, Sink


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    def update(self, attrs: Dict) -> None:
        pass


class _NullMetric:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, n=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_METRIC = _NullMetric()


class NullTelemetry:
    """The disabled handle: every operation is a cached no-op.

    A single shared instance (:data:`NULL_TELEMETRY`) is the default for
    every instrumented layer, so the disabled path costs one attribute
    lookup and one no-op call — no allocation, no branching, no I/O.
    """

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def heartbeat(self, worker: str, **attrs) -> None:
        pass

    def progress(self, text: str) -> None:
        pass

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def timer(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def emit_metrics(self) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The process-wide disabled handle.  Instrumented layers use this as
#: their default so the no-telemetry path never allocates.
NULL_TELEMETRY = NullTelemetry()


class Span:
    """One live span: context manager that emits on exit."""

    __slots__ = ("_telemetry", "name", "span_id", "parent_id", "attrs",
                 "t_start", "t_end")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict):
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.t_start: float = 0.0
        self.t_end: float = 0.0

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    def update(self, attrs: Dict) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._telemetry._enter_span(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._telemetry._exit_span(self)
        return False


class _Timer:
    """Times a block into a histogram (and nothing else)."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram):
        self._hist = hist
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.monotonic()
        return self

    def __exit__(self, *exc) -> bool:
        self._hist.observe(time.monotonic() - self._t0)
        return False


class Telemetry:
    """An enabled telemetry handle: spans, metrics, progress, sinks.

    Parameters
    ----------
    sinks:
        Where finished records go (:class:`~repro.obs.sinks.JsonlSink`,
        :class:`~repro.obs.sinks.MemorySink`, ...).  May be empty: the
        metrics registry and progress rendering still work.
    registry:
        Metrics registry; a fresh one is created when omitted.
    progress:
        Callable rendering progress text for a human (``print`` for the
        CLI default); ``None`` mutes rendering while still recording
        ``progress`` records to the sinks.
    source:
        Optional emitter label stamped on every record as ``src``.
        Service workers use their worker id here: several processes can
        then append to one shared JSONL stream and
        :func:`~repro.obs.schema.validate_stream` validates each
        emitter's records (seq monotonicity, span nesting) as its own
        sub-stream.
    """

    enabled = True

    def __init__(self, sinks: Iterable[Sink] = (),
                 registry: Optional[MetricsRegistry] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 source: Optional[str] = None):
        self.sinks: List[Sink] = list(sinks)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._progress = progress
        self.source = source
        self._ids = itertools.count(1)
        self._seq = itertools.count(1)
        self._local = threading.local()

    # -- span plumbing -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _enter_span(self, span: Span) -> None:
        stack = self._stack()
        span.span_id = next(self._ids)
        span.parent_id = stack[-1] if stack else None
        span.t_start = time.monotonic()
        stack.append(span.span_id)

    def _exit_span(self, span: Span) -> None:
        span.t_end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        elif span.span_id in stack:  # tolerate misnested exits
            stack.remove(span.span_id)
        self._emit({
            "kind": "span",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "t_start": span.t_start,
            "t_end": span.t_end,
            "attrs": span.attrs,
        })

    # -- point records -------------------------------------------------------

    def event(self, name: str, **attrs) -> None:
        self._emit({
            "kind": "event",
            "name": name,
            "span_id": self.current_span_id(),
            "t": time.monotonic(),
            "attrs": attrs,
        })

    def heartbeat(self, worker: str, **attrs) -> None:
        """A liveness beacon from a long-running worker.

        Distinct from :meth:`event` so stream consumers (the job
        service's supervisor, the HTTP progress tail) can filter
        liveness chatter from semantic events cheaply, and so the
        schema can require the ``worker`` identity on every beacon.
        """
        self._emit({
            "kind": "heartbeat",
            "worker": worker,
            "span_id": self.current_span_id(),
            "t": time.monotonic(),
            "attrs": attrs,
        })

    def progress(self, text: str) -> None:
        """Human-facing progress line: rendered and recorded."""
        if self._progress is not None:
            self._progress(text)
        self._emit({
            "kind": "progress",
            "text": text,
            "span_id": self.current_span_id(),
            "t": time.monotonic(),
        })

    # -- metrics -------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name)

    def timer(self, name: str) -> _Timer:
        return _Timer(self.registry.histogram(name))

    def emit_metrics(self) -> None:
        """Write the current registry snapshot as one record."""
        self._emit({
            "kind": "metrics",
            "t": time.monotonic(),
            "registry": self.registry.snapshot(),
        })

    # -- emission ------------------------------------------------------------

    def _emit(self, record: Dict) -> None:
        record["seq"] = next(self._seq)
        if self.source is not None:
            record["src"] = self.source
        for sink in self.sinks:
            sink.emit(record)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def default_telemetry() -> Telemetry:
    """What the CLI drivers use when handed nothing: progress renders to
    stdout (preserving the historical ``print`` behaviour), no sinks."""
    return Telemetry(progress=print)


def muted_telemetry() -> Telemetry:
    """Records everything, renders nothing (the stray-print test rig)."""
    return Telemetry(sinks=[MemorySink()], progress=None)
