"""Process-local metrics: counters, gauges, histograms in a registry.

The registry is deliberately tiny — no labels, no exporters, no time
series.  A metric is a named cell of aggregate state that hot loops can
bump cheaply; :meth:`MetricsRegistry.snapshot` turns the whole registry
into one JSON-friendly dict for sinks, benchmarks and tests.

Thread safety: mutation goes through per-metric methods that are atomic
enough under the GIL for the int/float updates used here; the registry
itself takes a lock only on *creation* of a metric, never on update, so
the hot path stays allocation- and lock-free.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Union

from ..errors import ReproError

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, Number]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A set-to-latest value (e.g. queue depth, worker count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Optional[Number]]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Aggregate distribution: count / total / min / max (+ mean).

    No buckets and no reservoir — the aggregates are exact and bounded
    in memory.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def snapshot(self) -> Dict[str, Optional[Number]]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named metrics of one process."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name)
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-friendly view of every metric, sorted by name."""
        return {name: self._metrics[name].snapshot()
                for name in self.names()}
