"""The durable job ledger: fsync'd, crc-guarded, replayable JSONL.

Every mutation of the job queue is one appended line::

    {"crc": <crc32 of the canonical record json>, "rec": {...}}

and the whole queue state is a fold over those lines — there is no
other store.  Each append is flushed and fsync'd before the call
returns, the same discipline as a result-store put, so a SIGKILL
between any two appends loses at most work-in-flight, never committed
state.

Appends are serialised across *processes* with ``flock`` on the ledger
file itself (workers, the supervisor, and ``ledgerctl`` all mutate one
file), and a read-modify-append transaction (claiming a chunk) holds
the same lock across the whole decision.

Corruption policy — proven by the chaos suite:

* a **torn tail** (kill mid-append) is invisible: only complete lines
  are parsed, and the next append starts on a fresh line;
* a **corrupt chunk record** anywhere (bad json, crc mismatch) is
  skipped and counted; the replay's resulting state is *conservative* —
  a chunk whose ``done`` record was destroyed merely replays as
  ``leased``/``pending``, gets requeued, and the content-addressed
  result store turns the recompute into a cache hit.  Output bytes
  never change;
* a **corrupt or missing job record** is not recoverable (the spec is
  gone) and replay raises :class:`~repro.errors.JobLedgerError` naming
  the orphaned records.
"""

from __future__ import annotations

import io
import json
import os
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from ..errors import JobLedgerError

#: Every record kind the replay understands.
RECORD_KINDS = ("job", "lease", "renew", "done", "failed", "requeue",
                "quarantine")

#: Chunk states of the per-chunk machine.
CHUNK_STATES = ("pending", "leased", "done", "quarantined")


def _canonical(record: Dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_record(record: Dict) -> str:
    """One ledger line (no trailing newline) with its crc envelope."""
    payload = _canonical(record)
    return _canonical({"crc": zlib.crc32(payload.encode("utf-8")),
                       "rec": json.loads(payload)})


def decode_line(line: str) -> Optional[Dict]:
    """The record in one ledger line, or ``None`` if it is corrupt."""
    try:
        envelope = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(envelope, dict) or "rec" not in envelope:
        return None
    record = envelope.get("rec")
    if not isinstance(record, dict):
        return None
    if envelope.get("crc") != zlib.crc32(
            _canonical(record).encode("utf-8")):
        return None
    if record.get("kind") not in RECORD_KINDS:
        return None
    return record


@dataclass
class ChunkState:
    """One chunk's position in the ``pending → leased → done/failed``
    machine, as replayed from the ledger."""

    state: str = "pending"
    attempt: int = 0
    worker: Optional[str] = None
    expires: float = 0.0
    not_before: float = 0.0
    digest: Optional[str] = None
    error: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return {"state": self.state, "attempt": self.attempt,
                "worker": self.worker, "expires": self.expires,
                "not_before": self.not_before, "digest": self.digest,
                "error": self.error}


@dataclass
class JobState:
    """One job: its spec plus the chunk machines."""

    job_id: str
    spec: Dict
    fingerprint: Dict
    n_chunks: int
    submitted: float
    chunks: Dict[int, ChunkState] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in CHUNK_STATES}
        for chunk in self.chunks.values():
            out[chunk.state] += 1
        return out

    @property
    def state(self) -> str:
        counts = self.counts()
        if counts["quarantined"]:
            return "quarantined"
        if counts["done"] == self.n_chunks:
            return "done"
        if counts["leased"]:
            return "running"
        return "pending"


class LedgerState:
    """The fold of every valid ledger record seen so far."""

    def __init__(self) -> None:
        self.jobs: Dict[str, JobState] = {}
        self.corrupt_records = 0
        self.stale_records = 0

    # -- record application ----------------------------------------------

    def apply(self, record: Dict) -> None:
        kind = record["kind"]
        if kind == "job":
            job_id = record["job"]
            if job_id in self.jobs:  # duplicate submit: first one wins
                self.stale_records += 1
                return
            self.jobs[job_id] = JobState(
                job_id=job_id, spec=record["spec"],
                fingerprint=record["fingerprint"],
                n_chunks=int(record["n_chunks"]),
                submitted=float(record.get("t", 0.0)),
                chunks={i: ChunkState()
                        for i in range(int(record["n_chunks"]))})
            return
        job = self.jobs.get(record.get("job"))
        if job is None:
            raise JobLedgerError(
                f"ledger {kind} record references unknown job "
                f"{record.get('job')!r} (its job record is missing or "
                f"corrupt)", context={"record": record})
        chunk = job.chunks.get(int(record.get("chunk", -1)))
        if chunk is None:
            raise JobLedgerError(
                f"ledger {kind} record references chunk "
                f"{record.get('chunk')!r} outside job {job.job_id} "
                f"({job.n_chunks} chunks)", context={"record": record})
        getattr(self, f"_apply_{kind}")(chunk, record)

    def _apply_lease(self, chunk: ChunkState, record: Dict) -> None:
        if chunk.state == "done":  # stale: lease lost a race with done
            self.stale_records += 1
            return
        chunk.state = "leased"
        chunk.worker = record["worker"]
        chunk.attempt = int(record["attempt"])
        chunk.expires = float(record["expires"])

    def _apply_renew(self, chunk: ChunkState, record: Dict) -> None:
        if chunk.state != "leased" or chunk.worker != record["worker"]:
            self.stale_records += 1  # heartbeat from a reaped lease
            return
        chunk.expires = float(record["expires"])

    def _apply_done(self, chunk: ChunkState, record: Dict) -> None:
        chunk.state = "done"
        chunk.digest = record["digest"]
        chunk.worker = None
        chunk.error = None

    def _apply_failed(self, chunk: ChunkState, record: Dict) -> None:
        if chunk.state == "done":
            self.stale_records += 1
            return
        chunk.state = "pending"
        chunk.worker = None
        chunk.attempt = int(record["attempt"])
        chunk.not_before = float(record["not_before"])
        chunk.error = record.get("error")

    def _apply_requeue(self, chunk: ChunkState, record: Dict) -> None:
        if chunk.state == "done" and not record.get("force"):
            self.stale_records += 1
            return
        chunk.state = "pending"
        chunk.worker = None
        chunk.digest = None
        chunk.attempt = int(record["attempt"])
        chunk.not_before = float(record["not_before"])

    def _apply_quarantine(self, chunk: ChunkState, record: Dict) -> None:
        if chunk.state == "done":
            self.stale_records += 1
            return
        chunk.state = "quarantined"
        chunk.worker = None
        chunk.attempt = int(record["attempt"])
        chunk.error = record.get("error")


class JobLedger:
    """Append-only durable ledger with incremental replay.

    One instance per process; any number of processes may share the
    file.  Every public operation takes the inter-process ``flock``
    (and an in-process lock, so a worker's heartbeat thread cannot race
    its main loop), refreshes the in-memory fold from newly appended
    bytes, and — for mutations — appends one fsync'd line.
    """

    def __init__(self, path, fsync: bool = True):
        self.path = os.fspath(path)
        self.fsync = fsync
        self._state = LedgerState()
        self._offset = 0
        self._tlock = threading.RLock()
        self._lock_depth = 0
        # O_APPEND: every write lands at EOF even if another process
        # appended since we opened; flock serialises whole lines.
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND,
                           0o644)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "JobLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- locking -----------------------------------------------------------

    @contextmanager
    def lock(self):
        """Exclusive inter-process + in-process critical section.

        Reentrant, so a transaction can call other ledger operations.
        """
        with self._tlock:
            if self._lock_depth == 0 and fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_EX)
            self._lock_depth += 1
            try:
                yield self
            finally:
                self._lock_depth -= 1
                if self._lock_depth == 0 and fcntl is not None:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)

    # -- replay ------------------------------------------------------------

    def refresh(self) -> LedgerState:
        """Fold newly appended bytes into the in-memory state."""
        with self.lock():
            try:
                size = os.path.getsize(self.path)
            except OSError as exc:
                raise JobLedgerError(
                    f"ledger {self.path} unreadable: {exc}")
            if size > self._offset:
                with open(self.path, "rb") as fh:
                    fh.seek(self._offset)
                    data = fh.read(size - self._offset)
                # Only complete lines: a torn tail (kill mid-append, or
                # a concurrent writer between getsize and read) stays
                # unconsumed until its newline lands.
                end = data.rfind(b"\n")
                if end >= 0:
                    for raw in data[:end].split(b"\n"):
                        if not raw.strip():
                            continue
                        record = decode_line(raw.decode("utf-8",
                                                        "replace"))
                        if record is None:
                            self._state.corrupt_records += 1
                            continue
                        self._state.apply(record)
                    self._offset += end + 1
            return self._state

    def append(self, record: Dict) -> None:
        """Durably append one record and fold it into the state."""
        if record.get("kind") not in RECORD_KINDS:
            raise JobLedgerError(
                f"unknown ledger record kind {record.get('kind')!r}",
                context={"record": record})
        line = encode_record(record) + "\n"
        with self.lock():
            # Catch up first so the fold applies records in file order.
            self.refresh()
            os.write(self._fd, line.encode("utf-8"))
            if self.fsync:
                os.fsync(self._fd)
            self._state.apply(record)
            self._offset += len(line.encode("utf-8"))

    # -- convenience -------------------------------------------------------

    def records(self) -> Tuple[List[Dict], int]:
        """Full tolerant re-read: (valid records, corrupt count).

        For tools (``ledgerctl``) — the queue itself uses the
        incremental fold.
        """
        valid: List[Dict] = []
        corrupt = 0
        try:
            with open(self.path, "r", encoding="utf-8",
                      errors="replace") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    record = decode_line(line)
                    if record is None:
                        corrupt += 1
                    else:
                        valid.append(record)
        except OSError as exc:
            raise JobLedgerError(f"ledger {self.path} unreadable: {exc}")
        return valid, corrupt
