"""The stateless campaign worker.

A worker is any process, on any host, pointed at the shared ledger and
result store.  It carries no campaign state of its own: the spec inside
each lease reconstructs the netlist, the measurement chain, and the
plaintext schedule, and the counter-based noise makes the chunk's bytes
a pure function of its trace offsets.  (The worker keeps only the last
job's netlist and simulated activity, a cache that the next job on the
same style, corner and key reuses byte-identically.)  Kill a worker at
any instant and nothing is lost — its lease expires, the chunk requeues,
and the replacement produces identical bytes into the same content
address.

The loop per lease:

1. **cache check** — if the chunk's content address is already in the
   store (duplicate submit, crash replay), complete immediately;
2. **heartbeat thread** — renews the lease at a third of the TTL while
   the acquisition runs, and mirrors each renewal to the obs stream as
   a :meth:`~repro.obs.Telemetry.heartbeat` record;
3. **acquire** — simulate the chunk at its campaign-global trace
   offset;
4. **commit** — atomic store put, then the ``done`` ledger record.

A :class:`~repro.errors.ReproError` fails the attempt back to the queue
(backoff / quarantine); an ``E_JOB_LEASE`` rejection means the lease
was reaped while we worked — the result is discarded, harmlessly.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional, Tuple

from ..errors import JobLeaseError, ReproError
from ..obs import JsonlSink, NULL_TELEMETRY, Telemetry
from .ledger import JobLedger
from .queue import JobQueue, Lease
from .store import ResultStore


class ServiceWorker:
    """One worker process's claim-acquire-commit loop."""

    def __init__(self, queue: JobQueue, worker_id: Optional[str] = None,
                 telemetry=None,
                 on_chunk: Optional[Callable[[Lease], None]] = None):
        self.queue = queue
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        #: Test/fault-injection hook: called with the lease right before
        #: acquisition (raise, stall, or SIGKILL yourself here).
        self.on_chunk = on_chunk
        self._acquirer_job: Optional[str] = None
        self._acquirer = None
        #: (style, corner, key) of the last job served: its netlist and
        #: activity memo serve the next job on the same netlist.
        self._netlist_for: Optional[Tuple[str, str, int]] = None

    # -- heartbeats --------------------------------------------------------

    def _heartbeat_loop(self, lease: Lease, stop: threading.Event,
                        stale: threading.Event) -> None:
        interval = max(0.05, self.queue.lease_ttl / 3.0)
        while not stop.wait(interval):
            try:
                expires = self.queue.heartbeat(lease)
            except JobLeaseError:
                stale.set()
                return
            self.telemetry.heartbeat(self.worker_id, job=lease.job_id,
                                     chunk=lease.chunk,
                                     attempt=lease.attempt,
                                     expires=expires)

    # -- the loop body -----------------------------------------------------

    def _acquirer_for(self, lease: Lease):
        # One live acquirer; consecutive chunks of the same job reuse it.
        # A new job on the last job's (style, corner, key) reuses its
        # netlist and activity memo (the netlist build and the event
        # simulation are the expensive parts) for its own die.
        if self._acquirer_job != lease.job_id:
            spec = lease.spec
            where = (spec.style, spec.corner, spec.key)
            shared = self._acquirer.activity \
                if where == self._netlist_for else None
            self._acquirer = spec.build_acquirer(telemetry=self.telemetry,
                                                 activity=shared)
            self._acquirer_job = lease.job_id
            self._netlist_for = where
        return self._acquirer

    def run_once(self) -> str:
        """Claim and process one chunk.

        Returns one of ``"idle"`` (nothing claimable), ``"cache-hit"``,
        ``"done"``, ``"failed"`` (attempt recorded to the queue), or
        ``"stale"`` (lease reaped under us; work discarded).
        """
        lease = self.queue.claim(self.worker_id)
        if lease is None:
            return "idle"
        cached = self.queue.store.get(lease.key)
        if cached is not None:
            try:
                self.queue.complete(lease, lease.key)
            except JobLeaseError:
                return "stale"
            self.telemetry.event("service.cache_hit", job=lease.job_id,
                                 chunk=lease.chunk,
                                 worker=self.worker_id)
            return "cache-hit"
        stop = threading.Event()
        stale = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(lease, stop, stale),
            name=f"{self.worker_id}-heartbeat", daemon=True)
        beat.start()
        try:
            with self.telemetry.span("service.chunk", job=lease.job_id,
                                     chunk=lease.chunk,
                                     attempt=lease.attempt):
                if self.on_chunk is not None:
                    self.on_chunk(lease)
                start, _stop_idx = lease.bounds
                rows = self._acquirer_for(lease).acquire(
                    lease.spec.chunk_plaintexts(lease.chunk),
                    trace_offset=start)
        except ReproError as err:
            stop.set()
            beat.join()
            try:
                self.queue.fail(lease, err.to_dict())
            except JobLeaseError:
                return "stale"
            return "failed"
        finally:
            stop.set()
        beat.join()
        if stale.is_set():
            return "stale"
        self.queue.store.put(lease.key, rows)
        try:
            self.queue.complete(lease, lease.key)
        except JobLeaseError:
            return "stale"
        return "done"

    def run(self, drain: bool = True, poll: float = 0.05,
            stop: Optional[threading.Event] = None) -> None:
        """Process chunks until told to stop.

        ``drain=True`` exits once no chunk is pending or leased anywhere
        (every job done or quarantined); ``drain=False`` keeps polling
        forever (the ``repro worker`` daemon mode) until ``stop`` is
        set.
        """
        while stop is None or not stop.is_set():
            outcome = self.run_once()
            if outcome != "idle":
                continue
            if drain and not self._has_open_chunks():
                return
            time.sleep(poll)

    def _has_open_chunks(self) -> bool:
        for job in self.queue.jobs():
            counts = job["counts"]
            if counts["pending"] or counts["leased"]:
                return True
        return False


def worker_main(ledger_path: str, store_root: str, worker_id: str,
                events_path: Optional[str] = None,
                lease_ttl: float = 30.0, max_attempts: int = 4,
                drain: bool = True, poll: float = 0.05) -> None:
    """Entry point for a worker process (``repro worker`` and the
    ``multiprocessing.Process`` targets the chaos tests SIGKILL).

    Everything it needs crosses the boundary as three paths and a few
    scalars — the definition of stateless.  Each worker labels its obs
    records with its own ``src`` so any number of them can share one
    events file.
    """
    telemetry = NULL_TELEMETRY
    if events_path is not None:
        telemetry = Telemetry(
            sinks=[JsonlSink(events_path, flush_every=1)],
            progress=None, source=worker_id)
    with JobLedger(ledger_path) as ledger:
        queue = JobQueue(ledger, ResultStore(store_root),
                         lease_ttl=lease_ttl, max_attempts=max_attempts,
                         telemetry=telemetry)
        worker = ServiceWorker(queue, worker_id=worker_id,
                               telemetry=telemetry)
        try:
            worker.run(drain=drain, poll=poll)
        finally:
            telemetry.flush()
            telemetry.close()
