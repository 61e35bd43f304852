"""Shared experiment plumbing: records, table printing, comparisons,
and checkpointed (resumable) campaign execution."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import CheckpointError, ReproError
from ..obs import NULL_TELEMETRY


@dataclass
class ExperimentRecord:
    """One measured quantity next to its paper value."""

    name: str
    measured: float
    paper: Optional[float] = None
    unit: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if self.paper in (None, 0.0):
            return None
        return self.measured / self.paper

    def row(self) -> List[str]:
        paper = "-" if self.paper is None else f"{self.paper:.6g}"
        ratio = "-" if self.ratio is None else f"{self.ratio:.3f}"
        return [self.name, f"{self.measured:.6g}", paper, ratio, self.unit]


def print_table(rows: Sequence[Sequence[str]],
                headers: Sequence[str],
                emit: Optional[Callable[[str], None]] = None) -> str:
    """Render a fixed-width table through ``emit``; returns the text.

    ``emit`` defaults to ``print`` (the historical behaviour); drivers
    pass their telemetry's ``progress`` method so the rendering lands
    in trace sinks too, and tests pass a muted handle's to keep stdout
    clean.
    """
    if not rows:
        raise ReproError("no rows to print")
    table = [list(headers)] + [list(r) for r in rows]
    widths = [max(len(str(row[i])) for row in table)
              for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    text = "\n".join(lines)
    (emit if emit is not None else print)(text)
    return text


def records_table(records: Sequence[ExperimentRecord],
                  emit: Optional[Callable[[str], None]] = None) -> str:
    return print_table([r.row() for r in records],
                       ["quantity", "measured", "paper", "ratio", "unit"],
                       emit=emit)


# -- checkpointed execution ---------------------------------------------------

@dataclass
class CheckpointStats:
    """What a :class:`CheckpointedRun` did on its last :meth:`run`."""

    chunks_total: int = 0
    chunks_resumed: int = 0
    chunks_run: int = 0


class CheckpointedRun:
    """Chunked, resumable campaign execution over a :class:`ResultStore`.

    Long trace campaigns (the fig6 CPA and TVLA drivers push thousands
    of logic simulations through the power models) must survive a
    killed process.  Each chunk's rows become one entry of the
    content-addressed store at ``path`` under
    ``chunk_key(fingerprint, chunk_index)``, where the fingerprint is
    the items hash, the chunk size and the caller's campaign
    fingerprint.  A rerun on the same directory serves stored chunks
    and computes only the missing ones; every chunk is a pure function
    of its items and start index (counter-based noise), so the result
    is byte-identical to an uninterrupted run.  A different campaign
    hashes to different keys and reuses nothing; a torn entry fails the
    store's digest check and is recomputed.
    """

    def __init__(self, path, chunk_size: int = 32, telemetry=None):
        # Imported here: the job service package loads asyncio and the
        # HTTP API, which drivers that never checkpoint should not pay for.
        from ..service.store import ResultStore

        if chunk_size < 1:
            raise CheckpointError("chunk_size must be >= 1")
        self.store = ResultStore(path)
        self.chunk_size = chunk_size
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.stats = CheckpointStats()

    def run(self, items: Sequence, process_chunk: Callable,
            fingerprint: Optional[Dict[str, Any]] = None) -> np.ndarray:
        """Process ``items`` in chunks, storing each as it completes.

        ``process_chunk(chunk_items, start_index)`` must return an array
        with one row per item, computed independently of any other chunk.
        """
        from ..service.store import chunk_key

        items = list(items)
        fp: Dict[str, Any] = {
            "n_items": len(items),
            "items_sha": hashlib.sha256(repr(items).encode()).hexdigest(),
            "chunk_size": self.chunk_size}
        fp.update(fingerprint or {})
        starts = range(0, len(items), self.chunk_size)
        self.stats = CheckpointStats(chunks_total=len(starts))
        tele = self.telemetry
        blocks: List[np.ndarray] = []
        for index, begin in enumerate(starts):
            chunk = items[begin:begin + self.chunk_size]
            key = chunk_key(fp, index)
            with tele.span("checkpoint.chunk", chunk=index,
                           start=begin) as span:
                rows = self.store.get(key)
                span.set("resumed", rows is not None)
                if rows is None:
                    rows = np.asarray(process_chunk(chunk, begin))
                    if rows.ndim == 1:
                        rows = rows.reshape(len(chunk), -1)
                    if rows.shape[0] != len(chunk):
                        raise CheckpointError(
                            f"process_chunk returned {rows.shape[0]} rows "
                            f"for a {len(chunk)}-item chunk")
                    self.store.put(key, rows)
                    self.stats.chunks_run += 1
                    tele.counter("checkpoint.chunks_run").inc()
                else:
                    self.stats.chunks_resumed += 1
                    tele.counter("checkpoint.chunks_resumed").inc()
            blocks.append(rows)
        return np.vstack(blocks) if blocks else np.zeros((0, 0))
