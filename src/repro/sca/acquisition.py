"""Order-independent parallel trace acquisition.

The Fig. 6 / TVLA campaigns push thousands of event simulations through
the power models and the measurement chain — the repo's heaviest
workload.  This module is the worker-pool layer that spreads one
campaign's plaintexts over threads or processes while guaranteeing the
result is **byte-identical** to a serial run, regardless of worker
count, chunking, or execution order:

* noise is counter-based (:class:`repro.power.MeasurementChain` derives
  trace *i*'s generator from ``(campaign entropy, i)``), so no worker
  consumes stream state another worker needed;
* mismatch residuals are a pure function of ``(netlist, mismatch_seed)``
  — every worker's :class:`BlockPowerModel` draws the same die;
* chunks are reassembled by trace index, not completion order.

Acquisition memoises at two levels, because the reduced AES takes one
plaintext byte:

* :class:`ActivityMemo` — the event simulation, which no die changes.
  One memo per (netlist, key, ``t_apply``, window) simulates each
  distinct byte once for every die and worker that shares it.
* :class:`TraceAcquirer` — one die: its power model and precomputed
  data-independent baseline, plus a row memo that composes each byte's
  noiseless samples once per acquirer however often the byte recurs.

Both memos are exact by construction: composition reads the same
activity arrays in the same order, and noise and quantisation stay
per trace, so neither changes an output byte.
:func:`acquire_traces` is the one-shot entry point;
:class:`AcquisitionPool` keeps a pool alive across many acquisitions
(the checkpointed campaign path reuses one pool for every chunk).

The process backend relies on ``fork`` (Linux/macOS-with-fork): workers
inherit the acquirer through copy-on-write, which sidesteps pickling
the netlist's cell-function closures.  Where ``fork`` is unavailable
the pool falls back to threads.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import threading
import time
import weakref
from concurrent.futures import BrokenExecutor, Executor, \
    ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AcquisitionError, AttackError
from ..obs import NULL_TELEMETRY, MemorySink, Telemetry
from ..netlist import GateNetlist, LogicSimulator
from ..power import (
    BlockPowerModel,
    MeasurementChain,
    SettledActivity,
    TraceGrid,
    TransitionActivity,
    activity_current,
    differential_baseline,
    driven_nets,
    wddl_baseline,
    wddl_current,
)
from ..units import ns, ps

#: Trace capture window (the reduced AES settles well within this).
DEFAULT_WINDOW = ns(2.0)
#: Current sampling step for attack traces.
DEFAULT_DT = ps(25.0)
#: Plaintexts handed to a worker at a time.
DEFAULT_CHUNK = 16

_BACKENDS = ("auto", "serial", "thread", "process")


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_backend(backend: str, workers: int) -> str:
    """Map (backend, workers) onto the backend actually used."""
    if backend not in _BACKENDS:
        raise AttackError(
            f"unknown acquisition backend {backend!r}; "
            f"choose from {_BACKENDS}")
    if workers < 1:
        raise AttackError(f"workers must be >= 1: {workers}")
    if workers == 1 or backend == "serial":
        return "serial"
    if backend == "auto":
        return "process" if _fork_available() else "thread"
    if backend == "process" and not _fork_available():
        return "thread"
    return backend


def validate_plaintexts(plaintexts: Sequence[int]) -> List[int]:
    """Whole-batch validation, before any trace is acquired.

    A bad byte in the middle of a campaign must not leave half the work
    done (and the noise counter advanced) before raising.
    """
    values: List[int] = []
    bad: List[object] = []
    for p in plaintexts:
        try:
            value = int(p)
        except (TypeError, ValueError):
            bad.append(p)
            continue
        if not 0 <= value <= 0xFF:
            bad.append(p)
        else:
            values.append(value)
    if bad:
        shown = ", ".join(repr(b) for b in bad[:8])
        more = "" if len(bad) <= 8 else f" (+{len(bad) - 8} more)"
        raise AttackError(f"plaintext bytes out of range: {shown}{more}")
    return values


class ActivityMemo:
    """The die-independent half of acquisition: simulated activity per
    plaintext byte for one (netlist, key, ``t_apply``, window).

    The event simulation reads the netlist's timing, the key stimulus,
    the apply time and the window, never the die (mismatch enters only
    when a :class:`BlockPowerModel` composes).  So every die of a
    netlist can share one memo: each distinct plaintext is simulated
    once (``LogicSimulator.run``; ``initialize`` for WDDL) and kept as
    compact arrays, a :class:`~repro.power.trace.TransitionActivity` or
    :class:`~repro.power.trace.SettledActivity`.

    Misses simulate one at a time under a lock (the simulator is
    stateful), so acquirers on the thread backend can share a memo.
    Forked process workers each get a copy.  The memo is never
    process-wide: whoever builds acquirers for many dies of one netlist
    hands them one memo and drops it when that netlist is done.
    """

    def __init__(self, netlist: GateNetlist, key: int, t_apply: float = 0.0,
                 window: float = DEFAULT_WINDOW):
        if not 0 <= key <= 0xFF:
            raise AttackError(f"key byte out of range: {key}")
        if not t_apply < window:
            raise AttackError(
                f"t_apply={t_apply:g} must fall before the capture "
                f"window's end t1={window:g}")
        self.netlist = netlist
        self.key = key
        self.t_apply = t_apply
        self.window = window
        self._settles = netlist.library.style == "wddl"
        self._simulator = LogicSimulator(netlist)
        self._nets = driven_nets(netlist)
        self._key_bits = [(f"k{b}", bool((key >> (7 - b)) & 1))
                          for b in range(8)]
        self._lock = threading.RLock()
        self._activity: Dict[int, object] = {}

    def simulate(self, plaintext: int):
        """One cycle's activity, simulated afresh (the uncached
        reference for :meth:`get`).

        Transition styles: ``reset()`` discharges every net, then key
        and plaintext bits apply at ``t_apply``.  WDDL: ``reset()`` is
        the precharge phase (the all-zero wave discharges every rail
        pair) and ``initialize()`` the evaluate phase; its settled
        single-rail values say which rail of each pair charged, and
        each gate evaluates exactly once per cycle, so there is no
        data-dependent transition stream to simulate.
        """
        bits = self._key_bits + [(f"p{b}", bool((plaintext >> (7 - b)) & 1))
                                 for b in range(8)]
        with self._lock:
            sim = self._simulator
            sim.reset()
            if self._settles:
                sim.initialize(dict(bits))
                return SettledActivity.from_values(self.netlist, sim.values)
            trace = sim.run([(self.t_apply, net, value)
                             for net, value in bits], duration=self.window)
        return TransitionActivity.from_trace(trace, self._nets)

    def get(self, plaintext: int) -> Tuple[object, bool]:
        """``(activity, simulated)``: ``simulated`` is True when this call
        ran the simulation, so a caller counts its own misses even when
        other threads grow the same memo."""
        with self._lock:
            activity = self._activity.get(plaintext)
            if activity is not None:
                return activity, False
            activity = self._activity[plaintext] = self.simulate(plaintext)
        return activity, True


class TraceAcquirer:
    """One die's end of a campaign: compose from shared activity, measure.

    Owns the die — its power model and, for differential styles, the
    pre-composed data-independent baseline — and takes the
    die-independent activity from an :class:`ActivityMemo`, its own
    unless ``activity`` hands it a shared one.

    :meth:`ideal_samples` is a pure function of the plaintext byte for
    a given acquirer, so :meth:`acquire` also memoises its composed rows
    per byte (at most 256 x ``grid.n`` floats).  That row memo lives and
    dies with the acquirer, so each worker keeps its own.
    """

    def __init__(self, netlist: GateNetlist, key: int,
                 chain: Optional[MeasurementChain] = None,
                 grid: Optional[TraceGrid] = None,
                 mismatch_seed: int = 0, t_apply: float = 0.0,
                 activity: Optional[ActivityMemo] = None):
        self.netlist = netlist
        self.key = key
        self.chain = chain if chain is not None else MeasurementChain()
        self.grid = grid if grid is not None else \
            TraceGrid(0.0, DEFAULT_WINDOW, DEFAULT_DT)
        if activity is None:
            activity = ActivityMemo(netlist, key, t_apply=t_apply,
                                    window=self.grid.t1)
        elif (activity.netlist is not netlist or activity.key != key
              or activity.t_apply != t_apply
              or activity.window != self.grid.t1):
            raise AttackError(
                "activity memo was built for another netlist, key, "
                "t_apply or window")
        self.activity = activity
        self.mismatch_seed = mismatch_seed
        self.t_apply = t_apply
        self.model = BlockPowerModel(netlist, seed=mismatch_seed)
        if self.model.style == "cmos":
            self._baseline = None
        elif self.model.style == "wddl":
            self._baseline = wddl_baseline(self.model, self.grid,
                                           t_apply=t_apply)
        else:
            self._baseline = differential_baseline(self.model, self.grid,
                                                   t_apply=t_apply)
        self._ideal: Dict[int, np.ndarray] = {}
        #: Simulations this acquirer ran (its misses on the shared memo).
        self.simulated = 0

    def compose(self, activity) -> np.ndarray:
        """This die's pre-instrument current samples for one activity."""
        if self.model.style == "wddl":
            return wddl_current(self.model, activity, self.grid,
                                baseline=self._baseline,
                                t_apply=self.t_apply)
        return activity_current(self.model, activity, self.grid,
                                baseline=self._baseline)

    def ideal_samples(self, plaintext: int) -> np.ndarray:
        """Pre-instrument current samples for one plaintext, composed
        afresh (the uncached reference for :meth:`acquire`'s row memo)."""
        activity, simulated = self.activity.get(plaintext)
        self.simulated += simulated
        return self.compose(activity)

    def acquire(self, plaintexts: Sequence[int],
                trace_offset: int = 0) -> np.ndarray:
        """Measured traces, one row per plaintext.

        ``trace_offset`` is the campaign-global index of the first
        plaintext — it keys the noise, so a chunk produces the same
        bytes wherever and whenever it runs.  Each row's ideal samples
        come from the row memo, calling :meth:`ideal_samples` only for a
        byte this acquirer has not composed yet; the whole chunk then
        goes through one
        :meth:`~repro.power.MeasurementChain.measure_block`, which is
        byte-identical to a per-trace ``measure`` loop.
        """
        pts = validate_plaintexts(plaintexts)
        samples = np.empty((len(pts), self.grid.n))
        memo = self._ideal
        for i, plaintext in enumerate(pts):
            row = memo.get(plaintext)
            if row is None:
                row = memo[plaintext] = self.ideal_samples(plaintext)
            samples[i] = row
        return self.chain.measure_block(samples, first_index=trace_offset)


# -- worker-pool plumbing -----------------------------------------------------

#: Acquirers inherited by forked process workers, keyed by pool token.
#: Only ever *read* in workers; the parent owns the lifecycle.
_FORK_ACQUIRERS: Dict[int, TraceAcquirer] = {}
_POOL_TOKENS = itertools.count(1)


def _instrumented_chunk(acquirer: TraceAcquirer, chunk_index: int,
                        trace_offset: int, plaintexts: List[int],
                        observe: bool, t_submit: float):
    """Run one chunk, optionally under an isolated telemetry collector.

    Returns ``(rows, records)`` where ``records`` is the collector's
    record list (to be :meth:`~repro.obs.Telemetry.adopt`-ed by the
    parent in chunk-index order) or ``None`` when telemetry is off.
    Everything is plain dicts, so the fork backend can pickle the
    results back across the process boundary.
    """
    if not observe:
        return acquirer.acquire(plaintexts, trace_offset=trace_offset), None
    collector = Telemetry(sinks=[MemorySink()])
    t0 = time.monotonic()
    collector.histogram("sca.acquisition.queue_wait_seconds").observe(
        max(0.0, t0 - t_submit))
    simulated_before = acquirer.simulated
    composed_before = len(acquirer._ideal)
    with collector.span("sca.acquisition.chunk", chunk=chunk_index,
                        offset=trace_offset, n=len(plaintexts)):
        rows = acquirer.acquire(plaintexts, trace_offset=trace_offset)
    collector.histogram("sca.acquisition.chunk_seconds").observe(
        time.monotonic() - t0)
    collector.counter("sca.acquisition.traces").inc(len(plaintexts))
    # Memo misses depend on the backend and on which worker ran what
    # first — counters, never span attrs (span trees must match across
    # backends).  Simulations are counted by the acquirer that ran them,
    # not from the shared memo's size, which other threads also grow.
    collector.counter("sca.acquisition.simulated").inc(
        acquirer.simulated - simulated_before)
    collector.counter("sca.acquisition.composed").inc(
        len(acquirer._ideal) - composed_before)
    collector.emit_metrics()
    return rows, collector.sinks[0].records


def _process_chunk(token: int, chunk_index: int, trace_offset: int,
                   plaintexts: List[int], observe: bool, t_submit: float):
    acquirer = _FORK_ACQUIRERS.get(token)
    if acquirer is None:
        raise AttackError(
            "process worker has no inherited acquirer (fork-only backend "
            "ran under a spawn start method?)")
    return _instrumented_chunk(acquirer, chunk_index, trace_offset,
                               plaintexts, observe, t_submit)


class AcquisitionPool:
    """A reusable worker pool bound to one campaign's acquisition state.

    Usable as a context manager.  ``workers=1`` (or backend="serial")
    degenerates to an in-process acquirer with zero pool overhead, so
    callers can thread a ``workers`` argument through unconditionally.
    """

    def __init__(self, factory: Callable[[], TraceAcquirer],
                 workers: int = 1, backend: str = "auto",
                 chunk_size: int = DEFAULT_CHUNK, telemetry=None,
                 max_pool_rebuilds: int = 3):
        if chunk_size < 1:
            raise AttackError(f"chunk_size must be >= 1: {chunk_size}")
        if max_pool_rebuilds < 0:
            raise AttackError(
                f"max_pool_rebuilds must be >= 0: {max_pool_rebuilds}")
        self.backend = resolve_backend(backend, workers)
        self.workers = 1 if self.backend == "serial" else workers
        self.chunk_size = chunk_size
        self.max_pool_rebuilds = max_pool_rebuilds
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._factory = factory
        self._executor: Optional[Executor] = None
        self._token: Optional[int] = None
        self._finalizer = None
        self._serial: Optional[TraceAcquirer] = None
        self._thread_acquirers: Optional["queue.SimpleQueue"] = None
        self._thread_local = threading.local()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "AcquisitionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()
        self._release_token()

    def _release_token(self) -> None:
        """Drop this pool's fork-acquirer registry entry (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        if self._token is not None:
            _FORK_ACQUIRERS.pop(self._token, None)
            self._token = None

    def _ensure_started(self) -> None:
        if self.backend == "serial":
            if self._serial is None:
                self._serial = self._factory()
            return
        if self._executor is not None:
            return
        if self.backend == "process":
            # The acquirer must exist before the first submit: workers
            # fork lazily and inherit it copy-on-write.  The finalizer
            # reclaims the registry slot even when the pool is abandoned
            # without close() (e.g. a caller that crashed mid-campaign).
            token = next(_POOL_TOKENS)
            _FORK_ACQUIRERS[token] = self._factory()
            self._token = token
            self._finalizer = weakref.finalize(
                self, _FORK_ACQUIRERS.pop, token, None)
            try:
                self._executor = self._new_process_executor()
            except Exception:
                self._release_token()
                raise
        else:
            # One acquirer per thread, all built up front in this thread
            # (power-model and simulator construction walk the shared
            # netlist, so they must not race).
            acquirers: "queue.SimpleQueue" = queue.SimpleQueue()
            for _ in range(self.workers):
                acquirers.put(self._factory())
            self._thread_acquirers = acquirers
            self._executor = ThreadPoolExecutor(max_workers=self.workers)

    def _new_process_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"))

    def _thread_chunk(self, chunk_index: int, trace_offset: int,
                      plaintexts: List[int], observe: bool,
                      t_submit: float):
        acquirer = getattr(self._thread_local, "acquirer", None)
        if acquirer is None:
            acquirer = self._thread_acquirers.get_nowait()
            self._thread_local.acquirer = acquirer
        return _instrumented_chunk(acquirer, chunk_index, trace_offset,
                                   plaintexts, observe, t_submit)

    # -- worker-crash recovery -----------------------------------------------

    def _run_thread_jobs(self, jobs, observe: bool) -> List:
        futures = [self._executor.submit(
            self._thread_chunk, index, offset, chunk, observe,
            time.monotonic() if observe else 0.0)
            for index, offset, chunk in jobs]
        return [f.result() for f in futures]

    def _run_process_jobs(self, jobs, observe: bool, tele) -> List:
        """Run chunks on the fork pool, surviving killed workers.

        A dead worker breaks the whole :class:`ProcessPoolExecutor`:
        every not-yet-finished future raises ``BrokenProcessPool``.
        Completed chunks keep their results, so only the unfinished
        chunks are requeued onto a rebuilt executor — and because each
        chunk is a pure function of ``(chunk_index, trace_offset,
        plaintexts)`` (counter-based noise, deterministic mismatch), the
        requeued rerun is byte-identical to what the dead worker would
        have produced.  After ``max_pool_rebuilds`` rebuilds the pool
        falls back to the thread backend rather than looping forever
        against a systematically dying fork environment.
        """
        results: Dict[int, Tuple] = {}
        pending = list(jobs)
        rebuilds = 0
        while pending:
            futures = []
            lost = []
            broken = False
            for job in pending:
                if broken:
                    lost.append(job)
                    continue
                try:
                    futures.append((self._executor.submit(
                        _process_chunk, self._token, job[0], job[1], job[2],
                        observe, time.monotonic() if observe else 0.0), job))
                except BrokenExecutor:
                    broken = True
                    lost.append(job)
            for future, job in futures:
                try:
                    results[job[0]] = future.result()
                except BrokenExecutor:
                    lost.append(job)
            if not lost:
                break
            pending = sorted(lost)
            tele.counter("sca.acquisition.workers_lost").inc()
            tele.event("sca.acquisition.worker_lost",
                       chunks=[j[0] for j in pending],
                       requeued=len(pending), rebuilds=rebuilds)
            if rebuilds >= self.max_pool_rebuilds:
                tele.counter("sca.acquisition.backend_fallbacks").inc()
                tele.event("sca.acquisition.backend_fallback",
                           from_backend="process", to_backend="thread",
                           rebuilds=rebuilds, remaining=len(pending))
                self._fallback_to_threads()
                finished = self._run_thread_jobs(pending, observe)
                for job, result in zip(pending, finished):
                    results[job[0]] = result
                break
            rebuilds += 1
            self._rebuild_process_executor()
            tele.counter("sca.acquisition.pool_rebuilds").inc()
            tele.event("sca.acquisition.pool_rebuilt", rebuild=rebuilds,
                       requeued=len(pending))
        missing = [index for index, _, _ in jobs if index not in results]
        if missing:  # pragma: no cover - defensive
            raise AcquisitionError(
                f"chunks never completed: {missing}",
                context={"chunks": missing, "rebuilds": rebuilds})
        return [results[index] for index, _, _ in jobs]

    def _rebuild_process_executor(self) -> None:
        """Replace a broken fork executor; the acquirer token survives."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
        self._executor = self._new_process_executor()

    def _fallback_to_threads(self) -> None:
        """Permanently demote this pool to the thread backend."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
        self._release_token()
        self.backend = "thread"
        self._ensure_started()

    # -- acquisition ---------------------------------------------------------

    def acquire(self, plaintexts: Sequence[int],
                trace_offset: int = 0) -> np.ndarray:
        """Measured traces for ``plaintexts``, rows in plaintext order.

        Chunks are submitted in order and reassembled by index, so the
        output is invariant to which worker finishes first.  Every
        backend — serial included — runs the same chunk wrapper, so the
        adopted span tree is identical for serial, thread, and fork
        runs of the same campaign slice.
        """
        pts = validate_plaintexts(plaintexts)
        self._ensure_started()
        tele = self.telemetry
        observe = tele.enabled
        if self.backend == "serial" and not pts:
            # Preserve the acquirer's own grid width for the empty case.
            return self._serial.acquire(pts, trace_offset=trace_offset)
        jobs: List[Tuple[int, int, List[int]]] = [
            (index, trace_offset + begin,
             pts[begin:begin + self.chunk_size])
            for index, begin in enumerate(
                range(0, len(pts), self.chunk_size))]
        with tele.span("sca.acquisition.acquire", backend=self.backend,
                       workers=self.workers, traces=len(pts),
                       chunks=len(jobs), chunk_size=self.chunk_size):
            if self.backend == "serial":
                results = [
                    _instrumented_chunk(
                        self._serial, index, offset, chunk, observe,
                        time.monotonic() if observe else 0.0)
                    for index, offset, chunk in jobs]
            elif self.backend == "process":
                results = self._run_process_jobs(jobs, observe, tele)
            else:
                results = self._run_thread_jobs(jobs, observe)
            blocks: List[np.ndarray] = []
            for rows, records in results:
                if records is not None:
                    tele.adopt(records)
                blocks.append(rows)
        if not blocks:
            return np.zeros((0, TraceGrid(0.0, DEFAULT_WINDOW,
                                          DEFAULT_DT).n))
        return np.vstack(blocks)


def acquire_traces(netlist: GateNetlist, key: int,
                   plaintexts: Sequence[int],
                   chain: Optional[MeasurementChain] = None,
                   grid: Optional[TraceGrid] = None,
                   mismatch_seed: int = 0, t_apply: float = 0.0,
                   workers: int = 1, backend: str = "auto",
                   chunk_size: int = DEFAULT_CHUNK,
                   trace_offset: int = 0, telemetry=None) -> np.ndarray:
    """One-shot parallel acquisition: simulate, compose, and measure
    ``plaintexts`` with ``workers`` workers.

    Byte-identical to a serial run for any ``workers``/``backend``/
    ``chunk_size`` — and for any ``telemetry`` — see the module
    docstring for why.
    """
    pts = validate_plaintexts(plaintexts)
    grid = grid if grid is not None else \
        TraceGrid(0.0, DEFAULT_WINDOW, DEFAULT_DT)
    if not pts:
        return np.zeros((0, grid.n))
    activity = ActivityMemo(netlist, key, t_apply=t_apply, window=grid.t1)

    def factory() -> TraceAcquirer:
        return TraceAcquirer(netlist, key, chain=chain, grid=grid,
                             mismatch_seed=mismatch_seed, t_apply=t_apply,
                             activity=activity)

    with AcquisitionPool(factory, workers=workers, backend=backend,
                         chunk_size=chunk_size, telemetry=telemetry) as pool:
        return pool.acquire(pts, trace_offset=trace_offset)
