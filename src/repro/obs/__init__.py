"""Structured observability: spans, metrics, sinks, schema.

``repro.obs`` is the measurement substrate under every performance and
robustness claim the flow makes: the SPICE solvers, the transient
engine, trace acquisition, and the campaign/checkpoint runners all
accept one :class:`Telemetry` handle (explicitly threaded, never
global) and describe what they did through it.

The load-bearing contract — telemetry on vs off is byte-identical in
every simulation and trace output, including kill-and-resume — is
enforced by ``tests/test_obs_invariance.py``.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .schema import SchemaError, span_tree, validate_record, validate_stream
from .sinks import JsonlSink, MemorySink, NullSink, Sink, read_jsonl
from .telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    default_telemetry,
    muted_telemetry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SchemaError",
    "span_tree",
    "validate_record",
    "validate_stream",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "Sink",
    "read_jsonl",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "default_telemetry",
    "muted_telemetry",
]
