"""Chaos suite for the campaign job service.

The fault-tolerance contract under test:

* a campaign sharded through the durable queue produces trace bytes —
  and therefore CPA key ranks — identical to a serial run, including
  when a worker process is SIGKILLed mid-chunk, when leases expire and
  requeue, and when the supervisor restarts from the ledger;
* duplicate submission of an identical spec dedupes to the existing
  job, and crash-replayed chunks dedupe to content-addressed cache hits
  instead of recomputes;
* a poison chunk quarantines with ``E_JOB_*`` codes after a bounded
  number of backoff attempts instead of burning workers forever;
* ledger corruption is survived: torn tails and damaged chunk records
  replay conservatively (recompute → cache hit), a destroyed job record
  fails loudly with ``E_JOB_LEDGER``.

Set ``REPRO_SERVICE_ARTIFACT=/path/out.jsonl`` to keep the killed-worker
run's validated events stream (CI uploads it).
"""

import asyncio
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import (
    AttackError,
    JobError,
    JobLeaseError,
    JobLedgerError,
    JobPoisonedError,
    JobSpecError,
)
from repro.faultinject import corrupt_jsonl_record
from repro.obs import JsonlSink, MemorySink, Telemetry, read_jsonl, \
    validate_stream
from repro.sca.cpa import cpa_attack
from repro.sca.matrix import (
    MatrixSpec,
    derive_chain_seed,
    derive_mismatch_seed,
    derive_plaintexts,
)
from repro.service import (
    CampaignJobSpec,
    JobLedger,
    JobQueue,
    JobService,
    ResultStore,
    ServiceWorker,
    expand_matrix,
)
from repro.service.ledger import decode_line, encode_record
from repro.service.store import chunk_key

KEY = 0x2B
SPEC = CampaignJobSpec(style="cmos", budget=32, key=KEY, chunk_size=8)

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


@pytest.fixture(scope="module")
def oracle():
    """Serial reference traces for SPEC (the byte-identity ground truth)."""
    return SPEC.build_acquirer().acquire(SPEC.plaintexts())


class FakeClock:
    """Injectable time source for lease-expiry tests."""

    def __init__(self, start=1000.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _make_queue(tmp_path, name="svc", **kwargs):
    directory = tmp_path / name
    directory.mkdir(exist_ok=True)
    ledger = JobLedger(str(directory / "ledger.jsonl"))
    store = ResultStore(str(directory / "store"))
    return JobQueue(ledger, store, **kwargs)


def _complete_manually(queue, lease, rows=None):
    rows = rows if rows is not None else np.zeros((1, 2))
    queue.store.put(lease.key, rows)
    queue.complete(lease, lease.key)


# -- spec ------------------------------------------------------------------


class TestCampaignJobSpec:
    def test_round_trip_and_identity(self):
        clone = CampaignJobSpec.from_dict(SPEC.to_dict())
        assert clone == SPEC
        assert clone.job_id == SPEC.job_id
        assert clone.fingerprint() == SPEC.fingerprint()

    def test_chunking(self):
        assert SPEC.n_chunks == 4
        assert SPEC.chunk_bounds(0) == (0, 8)
        assert SPEC.chunk_bounds(3) == (24, 32)
        ragged = CampaignJobSpec(style="cmos", budget=20, chunk_size=8)
        assert ragged.n_chunks == 3
        assert ragged.chunk_bounds(2) == (16, 20)
        with pytest.raises(JobSpecError):
            SPEC.chunk_bounds(4)

    def test_chunk_plaintexts_cover_the_schedule(self):
        joined = []
        for index in range(SPEC.n_chunks):
            joined.extend(SPEC.chunk_plaintexts(index))
        assert joined == SPEC.plaintexts()

    def test_derivations_match_the_matrix(self):
        assert SPEC.plaintexts() == derive_plaintexts(
            SPEC.base_seed, "cmos", "tt", 32, "random", 0)
        assert SPEC.chain().seed == derive_chain_seed(
            SPEC.base_seed, SPEC.trace_key())
        assert SPEC.mismatch_seed() == derive_mismatch_seed(
            SPEC.base_seed, "cmos", "tt", 0)

    @pytest.mark.parametrize("bad", [
        {"style": "nope", "budget": 32},
        {"style": "cmos", "budget": 4},
        {"style": "cmos", "budget": 33, "schedule": "tvla"},
        {"style": "cmos", "budget": 32, "schedule": "weird"},
        {"style": "cmos", "budget": 32, "corner": "xx"},
        {"style": "cmos", "budget": 32, "key": 300},
        {"style": "cmos", "budget": 32, "noise": -1.0},
        {"style": "cmos", "budget": 32, "chunk_size": 0},
        {"style": "cmos", "budget": 32, "bogus": 1},
        {"budget": 32},
    ])
    def test_validation(self, bad):
        with pytest.raises(JobSpecError):
            CampaignJobSpec.from_dict(bad)

    def test_fingerprint_separates_different_work(self):
        other = CampaignJobSpec(style="cmos", budget=32, key=KEY,
                                chunk_size=8, repeat=1)
        assert other.job_id != SPEC.job_id


# -- ledger ----------------------------------------------------------------


class TestJobLedger:
    def test_crc_envelope_round_trip(self):
        record = {"kind": "job", "job": "job-x", "spec": {}, "t": 1.0,
                  "fingerprint": {"a": 1}, "n_chunks": 2}
        assert decode_line(encode_record(record)) == record
        assert decode_line("not json") is None
        assert decode_line('{"rec": {"kind": "job"}, "crc": 0}') is None

    def test_append_refresh_and_reopen(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with JobLedger(path) as ledger:
            ledger.append({"kind": "job", "job": "j1", "spec": {},
                           "fingerprint": {}, "n_chunks": 2, "t": 0.0})
            ledger.append({"kind": "lease", "job": "j1", "chunk": 0,
                           "worker": "w", "attempt": 1, "expires": 9.0})
            assert ledger.refresh().jobs["j1"].chunks[0].state == "leased"
        with JobLedger(path) as reopened:
            state = reopened.refresh()
            assert state.jobs["j1"].chunks[0].state == "leased"
            assert state.jobs["j1"].chunks[1].state == "pending"
            assert state.corrupt_records == 0

    def test_torn_tail_is_invisible(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with JobLedger(path) as ledger:
            ledger.append({"kind": "job", "job": "j1", "spec": {},
                           "fingerprint": {}, "n_chunks": 1, "t": 0.0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"crc": 123, "rec": {"kind": "le')  # kill mid-append
        with JobLedger(path) as ledger:
            state = ledger.refresh()
            assert "j1" in state.jobs
            # The torn tail has no newline: not consumed, not counted.
            assert state.corrupt_records == 0

    def test_corrupt_chunk_record_replays_conservatively(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with JobLedger(path) as ledger:
            ledger.append({"kind": "job", "job": "j1", "spec": {},
                           "fingerprint": {}, "n_chunks": 1, "t": 0.0})
            ledger.append({"kind": "lease", "job": "j1", "chunk": 0,
                           "worker": "w", "attempt": 1, "expires": 9.0})
            ledger.append({"kind": "done", "job": "j1", "chunk": 0,
                           "worker": "w", "digest": "d"})
        corrupt_jsonl_record(path, 2, mode="flip")  # destroy the done
        with JobLedger(path) as ledger:
            state = ledger.refresh()
            assert state.corrupt_records == 1
            # Conservative: the chunk demotes to its pre-done state and
            # will be requeued; the store dedupe makes that a cache hit.
            assert state.jobs["j1"].chunks[0].state == "leased"

    def test_corrupt_job_record_is_fatal(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with JobLedger(path) as ledger:
            ledger.append({"kind": "job", "job": "j1", "spec": {},
                           "fingerprint": {}, "n_chunks": 1, "t": 0.0})
            ledger.append({"kind": "lease", "job": "j1", "chunk": 0,
                           "worker": "w", "attempt": 1, "expires": 9.0})
        corrupt_jsonl_record(path, 0, mode="garbage")
        with JobLedger(path) as ledger:
            with pytest.raises(JobLedgerError) as excinfo:
                ledger.refresh()
            assert excinfo.value.error_code == "E_JOB_LEDGER"

    def test_stale_records_do_not_regress_done(self, tmp_path):
        with JobLedger(str(tmp_path / "l.jsonl")) as ledger:
            ledger.append({"kind": "job", "job": "j1", "spec": {},
                           "fingerprint": {}, "n_chunks": 1, "t": 0.0})
            ledger.append({"kind": "lease", "job": "j1", "chunk": 0,
                           "worker": "w", "attempt": 1, "expires": 9.0})
            ledger.append({"kind": "done", "job": "j1", "chunk": 0,
                           "worker": "w", "digest": "d"})
            # A zombie worker's late failure must not undo the commit.
            ledger.append({"kind": "failed", "job": "j1", "chunk": 0,
                           "attempt": 1, "not_before": 0.0,
                           "error": {"error_code": "E_LATE"}})
            state = ledger.refresh()
            assert state.jobs["j1"].chunks[0].state == "done"
            assert state.stale_records == 1


# -- result store ----------------------------------------------------------


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        rows = np.arange(12.0).reshape(3, 4)
        key = chunk_key({"k": 1}, 0)
        assert store.get(key) is None
        store.put(key, rows)
        assert store.has(key)
        assert np.array_equal(store.get(key), rows)
        store.put(key, rows)  # idempotent
        assert store.keys() == [key]

    def test_keys_are_logical_coordinates(self):
        assert chunk_key({"a": 1}, 0) != chunk_key({"a": 1}, 1)
        assert chunk_key({"a": 1}, 0) != chunk_key({"a": 2}, 0)
        assert chunk_key({"a": 1}, 0) == chunk_key({"a": 1}, 0)

    def test_torn_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = chunk_key({"k": 1}, 0)
        path = store.put(key, np.ones((2, 2)))
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        assert store.get(key) is None

    def test_mislabeled_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key_a = chunk_key({"k": 1}, 0)
        key_b = chunk_key({"k": 2}, 0)
        source = store.put(key_a, np.ones((2, 2)))
        target = store._path(key_b)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy(source, target)  # entry claims to be key_a
        assert store.get(key_b) is None
        assert np.array_equal(store.get(key_a), np.ones((2, 2)))


# -- queue lifecycle (fake clock, no acquisition) --------------------------


class TestJobQueue:
    def test_submit_dedupes_by_fingerprint(self, tmp_path):
        queue = _make_queue(tmp_path)
        job_id, deduped = queue.submit(SPEC)
        assert job_id == SPEC.job_id and not deduped
        again, deduped = queue.submit(SPEC)
        assert again == job_id and deduped
        assert len(queue.jobs()) == 1

    def test_claim_lease_complete_cycle(self, tmp_path):
        clock = FakeClock()
        queue = _make_queue(tmp_path, clock=clock, lease_ttl=10.0)
        job_id, _ = queue.submit(SPEC)
        lease = queue.claim("w1")
        assert (lease.job_id, lease.chunk, lease.attempt) == (job_id, 0, 1)
        assert lease.expires == clock.now + 10.0
        clock.advance(5.0)
        assert queue.heartbeat(lease) == clock.now + 10.0
        _complete_manually(queue, lease)
        status = queue.status(job_id)
        assert status["chunks"]["0"]["state"] == "done"
        assert status["counts"] == {"pending": 3, "leased": 0,
                                    "done": 1, "quarantined": 0}
        # The next claim moves on to chunk 1.
        assert queue.claim("w1").chunk == 1

    def test_expired_lease_is_reaped_and_requeued(self, tmp_path):
        clock = FakeClock()
        queue = _make_queue(tmp_path, clock=clock, lease_ttl=10.0)
        queue.submit(SPEC)
        lease = queue.claim("w1")
        assert queue.reap() == []  # still live
        clock.advance(10.1)
        reaped = queue.reap()
        assert reaped == [(lease.job_id, 0, "requeued")]
        # Backoff window: not claimable immediately...
        chunk = queue.status(lease.job_id)["chunks"]["0"]
        assert chunk["state"] == "pending"
        assert chunk["not_before"] > clock.now
        clock.advance(queue.backoff_cap)
        release = queue.claim("w2")
        assert (release.chunk, release.attempt) == (0, 2)

    def test_stale_lease_operations_raise(self, tmp_path):
        clock = FakeClock()
        queue = _make_queue(tmp_path, clock=clock, lease_ttl=10.0)
        queue.submit(SPEC)
        lease = queue.claim("w1")
        clock.advance(11.0)
        queue.reap()
        for op in (lambda: queue.heartbeat(lease),
                   lambda: queue.complete(lease, "d"),
                   lambda: queue.fail(lease, {"error_code": "E_X"})):
            with pytest.raises(JobLeaseError) as excinfo:
                op()
            assert excinfo.value.error_code == "E_JOB_LEASE"

    def test_fail_requeues_with_backoff_then_quarantines(self, tmp_path):
        clock = FakeClock()
        queue = _make_queue(tmp_path, clock=clock, max_attempts=3)
        job_id, _ = queue.submit(SPEC)
        last_error = {"error_code": "E_CONVERGENCE", "message": "boom"}
        for attempt in range(1, 4):
            clock.advance(queue.backoff_cap + 1.0)
            lease = queue.claim("w1")
            assert lease.attempt == attempt
            outcome = queue.fail(lease, last_error)
        assert outcome == "quarantined"
        chunk = queue.status(job_id)["chunks"]["0"]
        assert chunk["state"] == "quarantined"
        assert chunk["attempt"] == 3
        assert chunk["error"]["error_code"] == "E_CONVERGENCE"
        # The quarantined chunk is never claimable again...
        clock.advance(1e6)
        assert queue.claim("w1").chunk == 1
        # ...until an operator requeue resets it.
        queue.requeue(job_id, 0)
        lease = queue.claim("w2")
        assert (lease.chunk, lease.attempt) == (0, 1)

    def test_backoff_is_deterministic_and_capped(self, tmp_path):
        queue = _make_queue(tmp_path, backoff_base=0.5, backoff_cap=8.0)
        a = queue.backoff("job-a", 0, 3)
        assert a == queue.backoff("job-a", 0, 3)  # replayable
        assert queue.backoff("job-a", 1, 3) != a  # de-synchronised
        for attempt in range(1, 12):
            delay = queue.backoff("job-a", 0, attempt)
            assert 0.0 < delay <= 8.0 * 1.5
        # Exponential up to the cap.
        assert queue.backoff("job-a", 0, 1) < queue.backoff("job-a", 0, 4)

    def test_gather_incomplete_and_unknown_jobs_raise(self, tmp_path):
        queue = _make_queue(tmp_path)
        with pytest.raises(JobError):
            queue.status("job-missing")
        job_id, _ = queue.submit(SPEC)
        with pytest.raises(JobError) as excinfo:
            queue.gather(job_id)
        assert "outstanding" in str(excinfo.value)

    def test_requeue_done_needs_force(self, tmp_path):
        queue = _make_queue(tmp_path)
        job_id, _ = queue.submit(SPEC)
        lease = queue.claim("w1")
        _complete_manually(queue, lease)
        with pytest.raises(JobError):
            queue.requeue(job_id, 0)
        queue.requeue(job_id, 0, force=True)
        assert queue.status(job_id)["chunks"]["0"]["state"] == "pending"


# -- end-to-end with real acquisition --------------------------------------


def _drain(queue, telemetry=None, on_chunk=None, worker_id="w0"):
    worker = ServiceWorker(queue, worker_id=worker_id,
                           telemetry=telemetry, on_chunk=on_chunk)
    worker.run(drain=True, poll=0.01)
    return worker


class TestEndToEnd:
    def test_sharded_run_is_byte_identical_to_serial(self, tmp_path,
                                                     oracle):
        queue = _make_queue(tmp_path)
        job_id, _ = queue.submit(SPEC)
        _drain(queue)
        rows = queue.gather(job_id)
        assert np.array_equal(rows, oracle)
        serial_rank = cpa_attack(oracle, SPEC.plaintexts(),
                                 true_key=KEY).rank_of_true_key()
        service_rank = cpa_attack(rows, SPEC.plaintexts(),
                                  true_key=KEY).rank_of_true_key()
        assert service_rank == serial_rank

    def test_duplicate_submission_dedupes_without_recompute(self, tmp_path,
                                                            oracle):
        queue = _make_queue(tmp_path)
        job_id, _ = queue.submit(SPEC)
        _drain(queue)
        # Resubmitting the identical spec addresses the finished job.
        again, deduped = queue.submit(SPEC)
        assert deduped and again == job_id
        assert np.array_equal(queue.gather(job_id), oracle)

    def test_crash_replay_hits_the_result_cache(self, tmp_path, oracle):
        first = _make_queue(tmp_path, "svc1")
        first.submit(SPEC)
        acquired = []
        _drain(first, on_chunk=lambda lease: acquired.append(lease.chunk))
        assert sorted(acquired) == [0, 1, 2, 3]
        # Same campaign against a fresh ledger (total queue loss), same
        # store: every chunk dedupes to a content-addressed cache hit.
        second = JobQueue(
            JobLedger(str(tmp_path / "svc2.jsonl")), first.store)
        job_id, _ = second.submit(SPEC)
        worker = ServiceWorker(second, worker_id="w2",
                               on_chunk=lambda lease: pytest.fail(
                                   "cache hit must not acquire"))
        outcomes = [worker.run_once() for _ in range(SPEC.n_chunks)]
        assert outcomes == ["cache-hit"] * SPEC.n_chunks
        assert np.array_equal(second.gather(job_id), oracle)

    def test_poison_chunk_quarantines_with_bounded_attempts(self,
                                                            tmp_path,
                                                            oracle):
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink], progress=None)
        queue = _make_queue(tmp_path, max_attempts=2, backoff_base=0.02,
                            backoff_cap=0.05, telemetry=telemetry)
        job_id, _ = queue.submit(SPEC)

        attempts = []

        def poison(lease):
            if lease.chunk == 1:
                attempts.append(lease.attempt)
                raise AttackError("synthetic poison chunk",
                                  context={"chunk": lease.chunk})

        _drain(queue, telemetry=telemetry, on_chunk=poison)
        assert attempts == [1, 2]  # bounded: max_attempts, no more
        status = queue.status(job_id)
        assert status["state"] == "quarantined"
        assert status["chunks"]["1"]["state"] == "quarantined"
        assert status["chunks"]["1"]["error"]["error_code"] == "E_ATTACK"
        with pytest.raises(JobPoisonedError) as excinfo:
            queue.gather(job_id)
        assert excinfo.value.error_code == "E_JOB_POISONED"
        assert excinfo.value.context["error"]["error_code"] == "E_ATTACK"
        names = [r["name"] for r in sink.records
                 if r.get("kind") == "event"]
        assert "service.requeued" in names
        assert "service.quarantined" in names
        # The healthy chunks still carry oracle bytes in the store.
        good = queue.store.get(chunk_key(SPEC.fingerprint(), 0))
        assert np.array_equal(good, oracle[0:8])
        # Operator requeue + drain completes the job after the "fix".
        queue.requeue(job_id, 1)
        _drain(queue)
        assert np.array_equal(queue.gather(job_id), oracle)

    def test_supervisor_restart_resumes_from_ledger(self, tmp_path,
                                                    oracle):
        queue = _make_queue(tmp_path)
        job_id, _ = queue.submit(SPEC)
        worker = ServiceWorker(queue, worker_id="w0")
        assert worker.run_once() == "done"
        assert worker.run_once() == "done"
        queue.ledger.close()  # the whole service process goes away
        revived = JobQueue(
            JobLedger(str(tmp_path / "svc" / "ledger.jsonl")),
            ResultStore(str(tmp_path / "svc" / "store")))
        status = revived.status(job_id)
        assert status["counts"]["done"] == 2
        _drain(revived)
        assert np.array_equal(revived.gather(job_id), oracle)

    def test_corrupted_done_record_recovers_via_cache(self, tmp_path,
                                                      oracle):
        queue = _make_queue(tmp_path)
        job_id, _ = queue.submit(SPEC)
        _drain(queue)
        queue.ledger.close()
        path = str(tmp_path / "svc" / "ledger.jsonl")
        with open(path, "r", encoding="utf-8") as fh:
            lines = [decode_line(line) for line in fh]
        target = next(i for i, rec in enumerate(lines)
                      if rec and rec["kind"] == "done"
                      and rec["chunk"] == 2)
        corrupt_jsonl_record(path, target, mode="flip")
        # Replay demotes chunk 2 to leased; a far-future clock expires
        # the stale lease and the reaper requeues it.
        future = FakeClock(time.time() + 1e6)
        revived = JobQueue(JobLedger(path), queue.store, clock=future)
        assert revived.ledger.refresh().corrupt_records == 1
        assert revived.status(job_id)["chunks"]["2"]["state"] == "leased"
        assert (job_id, 2, "requeued") in revived.reap()
        future.advance(revived.backoff_cap + 1.0)
        worker = ServiceWorker(revived, worker_id="w9",
                               on_chunk=lambda lease: pytest.fail(
                                   "recovery must be a cache hit"))
        assert worker.run_once() == "cache-hit"
        assert np.array_equal(revived.gather(job_id), oracle)


# -- killed worker process (the headline chaos scenario) -------------------


def _suicidal_worker(ledger_path, store_root, events_path, token,
                     lease_ttl):
    """Worker process that SIGKILLs itself claiming its second chunk."""

    def maybe_die(lease):
        if lease.chunk == 0:
            # Outlive one heartbeat interval so the events stream
            # provably carries liveness beacons (CI asserts on them).
            time.sleep(lease_ttl / 3.0 + 0.2)
        if os.path.exists(token) and lease.chunk >= 1:
            os.unlink(token)
            os.kill(os.getpid(), signal.SIGKILL)

    telemetry = Telemetry(
        sinks=[JsonlSink(events_path, flush_every=1)],
        progress=None, source="victim")
    with JobLedger(ledger_path) as ledger:
        queue = JobQueue(ledger, ResultStore(store_root),
                         lease_ttl=lease_ttl, telemetry=telemetry)
        worker = ServiceWorker(queue, worker_id="victim",
                               telemetry=telemetry, on_chunk=maybe_die)
        worker.run(drain=True, poll=0.01)


class TestKilledWorker:
    @fork_only
    def test_sigkilled_worker_mid_chunk_byte_identical(self, tmp_path,
                                                       oracle):
        ledger_path = str(tmp_path / "ledger.jsonl")
        store_root = str(tmp_path / "store")
        events_path = str(tmp_path / "events.jsonl")
        token = str(tmp_path / "kill-token")
        ttl = 0.8
        with open(token, "w") as fh:
            fh.write("1")
        queue = JobQueue(JobLedger(ledger_path), ResultStore(store_root),
                         lease_ttl=ttl)
        job_id, _ = queue.submit(SPEC)

        context = multiprocessing.get_context("fork")
        victim = context.Process(
            target=_suicidal_worker,
            args=(ledger_path, store_root, events_path, token, ttl))
        victim.start()
        victim.join(timeout=120)
        assert victim.exitcode == -signal.SIGKILL  # actually murdered
        assert not os.path.exists(token)

        # The victim committed work before dying, and died holding a
        # lease on a later chunk.
        status = queue.status(job_id)
        assert status["counts"]["done"] >= 1
        assert status["counts"]["leased"] >= 1

        # Supervisor: wait out the dead worker's TTL, reap, re-run.
        deadline = time.time() + 30.0
        reaped = []
        while not reaped and time.time() < deadline:
            time.sleep(0.1)
            reaped = queue.reap()
        assert any(outcome == "requeued" for _, _, outcome in reaped)
        # The drain loop polls through the requeued chunk's backoff
        # window by itself.
        _drain(queue, worker_id="replacement")

        rows = queue.gather(job_id)
        assert np.array_equal(rows, oracle)
        serial_rank = cpa_attack(oracle, SPEC.plaintexts(),
                                 true_key=KEY).rank_of_true_key()
        assert cpa_attack(rows, SPEC.plaintexts(),
                          true_key=KEY).rank_of_true_key() == serial_rank

        # The victim's telemetry stream validates (heartbeats included)
        # under its own src label.
        records = read_jsonl(events_path)
        assert all(r.get("src") == "victim" for r in records)
        validate_stream(records)
        artifact = os.environ.get("REPRO_SERVICE_ARTIFACT")
        if artifact:
            shutil.copy(events_path, artifact)


# -- HTTP API --------------------------------------------------------------


async def _http(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n".encode("ascii")
        + payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body_bytes = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body_bytes)


class TestJobServiceHTTP:
    def test_submit_status_events_and_errors(self, tmp_path):
        clock = FakeClock()
        queue = _make_queue(tmp_path, clock=clock, lease_ttl=5.0)
        events_path = str(tmp_path / "events.jsonl")
        service = JobService(queue, events_path=events_path,
                             reap_interval=0.05)

        async def scenario():
            await service.start()
            try:
                port = service.port
                status, reply = await _http(port, "POST", "/jobs",
                                            SPEC.to_dict())
                assert status == 200
                job_id = reply["job"]
                assert reply == {"job": SPEC.job_id, "deduped": False,
                                 "n_chunks": 4}
                status, reply = await _http(port, "POST", "/jobs",
                                            SPEC.to_dict())
                assert status == 200 and reply["deduped"]

                status, reply = await _http(port, "GET", "/jobs")
                assert status == 200
                assert [j["job"] for j in reply["jobs"]] == [job_id]

                status, reply = await _http(port, "GET", f"/jobs/{job_id}")
                assert status == 200
                assert reply["counts"]["pending"] == 4

                # Bad requests surface structured errors.
                status, reply = await _http(port, "POST", "/jobs",
                                            {"style": "nope", "budget": 32})
                assert status == 400
                assert reply["error"]["error_code"] == "E_JOB_SPEC"
                status, reply = await _http(port, "GET", "/jobs/job-none")
                assert status == 404
                status, _reply = await _http(port, "GET", "/nope")
                assert status == 404

                # Events tail with a resume cursor.
                tele = Telemetry(
                    sinks=[JsonlSink(events_path, flush_every=1)],
                    progress=None, source="w1")
                tele.event("service.claim", job=job_id, chunk=0)
                tele.heartbeat("w1", job=job_id, chunk=0)
                tele.event("service.claim", job="job-other", chunk=0)
                tele.close()
                status, reply = await _http(port, "GET",
                                            f"/jobs/{job_id}/events")
                assert status == 200
                assert reply["cursor"] == 2
                kinds = [r["kind"] for r in reply["events"]]
                assert kinds == ["event", "heartbeat"]
                status, reply = await _http(
                    port, "GET", f"/jobs/{job_id}/events?after=2")
                assert status == 200
                assert reply["events"] == [] and reply["cursor"] == 2

                # The supervisor task reaps expired leases by itself.
                lease = queue.claim("w1")
                clock.advance(6.0)
                deadline = time.time() + 10.0
                while time.time() < deadline:
                    await asyncio.sleep(0.05)
                    chunk = queue.status(job_id)["chunks"]["0"]
                    if chunk["state"] == "pending":
                        break
                assert chunk["state"] == "pending"
                assert chunk["attempt"] == lease.attempt
            finally:
                await service.stop()

        asyncio.run(scenario())


# -- grid sharding ---------------------------------------------------------


class TestExpandMatrix:
    def test_one_job_per_unique_traceset(self):
        grid = MatrixSpec(styles=("cmos", "mcml"),
                          attacks=("cpa", "dpa"), budgets=(16,),
                          repeats=2, key=KEY)
        jobs = expand_matrix(grid, chunk_size=8)
        # cpa and dpa share the random schedule: 2 styles x 2 dies.
        assert len(jobs) == 4
        assert len({job.job_id for job in jobs}) == 4
        for job in jobs:
            assert job.key == KEY
            assert job.plaintexts() == derive_plaintexts(
                grid.base_seed, job.style, job.corner, job.budget,
                job.schedule, job.repeat)
            assert job.chain().seed == derive_chain_seed(
                grid.base_seed, job.trace_key())
            assert job.mismatch_seed() == derive_mismatch_seed(
                grid.base_seed, job.style, job.corner, job.repeat)

    def test_tvla_jobs_get_the_interleaved_schedule(self):
        grid = MatrixSpec(styles=("cmos",), attacks=("cpa", "tvla"),
                          budgets=(16,))
        jobs = expand_matrix(grid)
        schedules = sorted(job.schedule for job in jobs)
        assert schedules == ["random", "tvla"]
        tvla = next(job for job in jobs if job.schedule == "tvla")
        assert tvla.plaintexts()[0::2] == [0x00] * 8


# -- CLI + ledgerctl -------------------------------------------------------


def _run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src"))
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, cwd=str(cwd),
                          env=env, timeout=300)


class TestServiceCli:
    def test_submit_worker_gather_round_trip(self, tmp_path):
        spec = CampaignJobSpec(style="cmos", budget=16, key=KEY,
                               chunk_size=8)
        submitted = _run_cli(
            ["submit", "--dir", "svc", "--style", "cmos", "--budget",
             "16", "--key", hex(KEY), "--chunk-size", "8"], tmp_path)
        assert submitted.returncode == 0, submitted.stderr
        reply = json.loads(submitted.stdout)
        assert reply["job"] == spec.job_id and reply["n_chunks"] == 2

        worked = _run_cli(["worker", "--dir", "svc", "--once",
                           "--id", "cli-w"], tmp_path)
        assert worked.returncode == 0, worked.stderr

        listed = _run_cli(["jobs", "--dir", "svc"], tmp_path)
        assert listed.returncode == 0, listed.stderr
        jobs = json.loads(listed.stdout)["jobs"]
        assert jobs[0]["state"] == "done"

        gathered = _run_cli(["jobs", "--dir", "svc", spec.job_id,
                             "--gather", "out.npz"], tmp_path)
        assert gathered.returncode == 0, gathered.stderr
        with np.load(str(tmp_path / "out.npz")) as archive:
            rows = np.array(archive["rows"])
        oracle = spec.build_acquirer().acquire(spec.plaintexts())
        assert np.array_equal(rows, oracle)
        # The worker labelled its telemetry in the shared events file.
        records = read_jsonl(str(tmp_path / "svc" / "events.jsonl"))
        assert any(r.get("src") == "cli-w" for r in records)
        validate_stream(records)

    def test_submit_validates_specs(self, tmp_path):
        rejected = _run_cli(
            ["submit", "--dir", "svc", "--style", "nope",
             "--budget", "16"], tmp_path)
        assert rejected.returncode == 1
        assert "unknown style" in rejected.stderr


def _run_ledgerctl(args, cwd):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.run(
        [sys.executable, os.path.join(root, "tools", "ledgerctl.py"),
         *args], capture_output=True, text=True, cwd=str(cwd),
        timeout=120)


class TestLedgerctl:
    def test_list_chunks_inspect_requeue(self, tmp_path):
        clock = FakeClock()
        queue = _make_queue(tmp_path, clock=clock, max_attempts=1)
        job_id, _ = queue.submit(SPEC)
        lease = queue.claim("w1")
        _complete_manually(queue, lease)
        lease = queue.claim("w1")
        queue.fail(lease, {"error_code": "E_CONVERGENCE",
                           "message": "poison"})
        queue.ledger.close()
        directory = str(tmp_path / "svc")

        listed = _run_ledgerctl(["list", "--dir", directory], tmp_path)
        assert listed.returncode == 0, listed.stderr
        assert json.loads(listed.stdout)["jobs"][0]["job"] == job_id

        chunks = _run_ledgerctl(["chunks", "--dir", directory, job_id],
                                tmp_path)
        assert chunks.returncode == 0, chunks.stderr
        detail = json.loads(chunks.stdout)
        assert detail["chunks"]["0"]["state"] == "done"
        assert detail["chunks"]["1"]["state"] == "quarantined"

        inspected = _run_ledgerctl(["inspect", "--dir", directory],
                                   tmp_path)
        assert inspected.returncode == 1  # quarantine present -> nonzero
        report = json.loads(inspected.stdout)
        assert report["corrupt_lines"] == 0
        assert report["quarantined"][0]["chunk"] == 1
        assert report["quarantined"][0]["error"]["error_code"] \
            == "E_CONVERGENCE"

        requeued = _run_ledgerctl(
            ["requeue", "--dir", directory, job_id, "--chunk", "1"],
            tmp_path)
        assert requeued.returncode == 0, requeued.stderr
        inspected = _run_ledgerctl(["inspect", "--dir", directory],
                                   tmp_path)
        assert inspected.returncode == 0
        assert json.loads(inspected.stdout)["quarantined"] == []

    def test_missing_ledger_fails_cleanly(self, tmp_path):
        result = _run_ledgerctl(["list", "--dir", str(tmp_path / "nope")],
                                tmp_path)
        assert result.returncode == 2
        assert "no ledger" in result.stderr
