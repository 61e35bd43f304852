"""Order-independent trace acquisition, one process per campaign.

The Fig. 6 / TVLA campaigns push thousands of event simulations through
the power models and the measurement chain — the repo's heaviest
workload.  A campaign's trace matrix is a pure function of its inputs,
so the same bytes come out however the plaintexts are chunked, in
whichever order the chunks run, and wherever they run:

* noise is counter-based (:class:`repro.power.MeasurementChain` derives
  trace *i*'s generator from ``(campaign entropy, i)``), so a chunk
  consumes no stream state another chunk needs;
* mismatch residuals are a pure function of ``(netlist, mismatch_seed)``
  — every :class:`BlockPowerModel` of a die draws the same die.

That is what :class:`~repro.experiments.runner.CheckpointedRun` and the
campaign job service (:mod:`repro.service`) rely on: they store and
resume chunks at their campaign-global offsets, and the service's
leased worker processes (``repro serve``) are where parallel,
crash-tolerant acquisition lives.

Acquisition memoises at two levels, because the reduced AES takes one
plaintext byte:

* :class:`ActivityMemo` — the event simulation, which no die changes.
  One memo per (netlist, key, ``t_apply``, window) simulates each
  distinct byte once for every die that shares it, all of a call's
  missing bytes in one lane-parallel pass.
* :class:`TraceAcquirer` — one die: its power model and precomputed
  data-independent baseline, plus a row memo that composes each byte's
  noiseless samples once per acquirer however often the byte recurs.

Both memos are exact by construction: composition reads the same
activity arrays in the same order, and noise and quantisation stay
per trace, so neither changes an output byte.
:func:`acquire_traces` is the one-shot entry point;
:class:`AcquisitionPool` steps one acquirer through a campaign in
chunks, each under its own telemetry span.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AttackError
from ..obs import NULL_TELEMETRY
from ..netlist import GateNetlist, LaneSimulator, LogicSimulator
from ..power import (
    BlockPowerModel,
    MeasurementChain,
    SettledActivity,
    TraceGrid,
    TransitionActivity,
    activity_current,
    differential_baseline,
    driven_nets,
    settled_nets,
    wddl_baseline,
    wddl_current,
)
from ..units import ns, ps

#: Trace capture window (the reduced AES settles well within this).
DEFAULT_WINDOW = ns(2.0)
#: Current sampling step for attack traces.
DEFAULT_DT = ps(25.0)
#: Plaintexts acquired (and traced) as one chunk.
DEFAULT_CHUNK = 16


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
    once and kept as compact arrays, a
    :class:`~repro.power.trace.TransitionActivity` or
    :class:`~repro.power.trace.SettledActivity`.

    Misses are simulated together: :meth:`prefetch` runs every byte a
    call lacks as one lane of a :class:`~repro.netlist.LaneSimulator`
    pass (``settle`` for WDDL), and re-runs only the lanes that pass
    flags on the heap simulator (:meth:`simulate`, counted in
    :attr:`fallbacks`).  Netlists the pass cannot run (sequential
    cells, cells wider than eight inputs) simulate each byte on the
    heap.  Either way the arrays are byte-identical to :meth:`simulate`.
    The memo works under a lock, because the heap simulator is stateful
    and acquirers on several threads may share one memo.  It is never
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
        # Compiled on the first miss; False when the heap runs each byte.
        self._lanes = None
        self._lock = threading.RLock()
        self._activity: Dict[int, object] = {}
        #: Lanes re-run on the heap simulator because of the order hazard.
        self.fallbacks = 0

    def simulate(self, plaintext: int):
        """One cycle's activity, simulated afresh on the heap simulator:
        the reference for :meth:`prefetch`'s lane pass and its per-lane
        fallback.

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

    def prefetch(self, plaintexts: Sequence[int]) -> int:
        """Simulate every byte of ``plaintexts`` the memo lacks, in one
        lane-parallel pass; returns how many bytes that was."""
        with self._lock:
            missing = [p for p in dict.fromkeys(plaintexts)
                       if p not in self._activity]
            if missing:
                self._activity.update(zip(missing, self._simulate(missing)))
        return len(missing)

    def _simulate(self, plaintexts: List[int]) -> List[object]:
        """The activities of ``plaintexts``, none of them memoised."""
        if self._lanes is None:
            names = [name for name, _ in self._key_bits] + \
                [f"p{b}" for b in range(8)]
            self._lanes = (LaneSimulator(self.netlist)
                           if LaneSimulator.supports(self.netlist, names)
                           else False)
        if not self._lanes:
            return [self.simulate(p) for p in plaintexts]
        n = len(plaintexts)
        inputs = {name: (1 << n) - 1 if value else 0
                  for name, value in self._key_bits}
        for b in range(8):
            inputs[f"p{b}"] = sum(1 << i for i, p in enumerate(plaintexts)
                                  if (p >> (7 - b)) & 1)
        if self._settles:
            settled = self._lanes.settle(inputs, n,
                                         settled_nets(self.netlist))
            return [SettledActivity(values=row.copy()) for row in settled]
        trace = self._lanes.run(inputs, n, self.t_apply, self.window,
                                self._nets)
        activities: List[object] = []
        for i, plaintext in enumerate(plaintexts):
            if (trace.fallback >> i) & 1:
                self.fallbacks += 1
                activities.append(self.simulate(plaintext))
            else:
                activities.append(TransitionActivity(*trace.lane(i)))
        return activities

    def get(self, plaintext: int) -> Tuple[object, bool]:
        """``(activity, simulated)``: ``simulated`` is True when this call
        ran the simulation, so a caller counts its own misses even when
        other acquirers grow the same memo."""
        simulated = self.prefetch([plaintext])
        return self._activity[plaintext], bool(simulated)


class TraceAcquirer:
    """One die's end of a campaign: compose from shared activity, measure.

    Owns the die — its power model and, for differential styles, the
    pre-composed data-independent baseline — and takes the
    die-independent activity from an :class:`ActivityMemo`, its own
    unless ``activity`` hands it a shared one.

    :meth:`ideal_samples` is a pure function of the plaintext byte for
    a given acquirer, so :meth:`acquire` also memoises its composed rows
    per byte (at most 256 x ``grid.n`` floats).  That row memo lives and
    dies with the acquirer.
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

    def prefetch(self, plaintexts: Sequence[int]) -> int:
        """Simulate, in one pass, the bytes of ``plaintexts`` the memo
        lacks; returns how many, also added to :attr:`simulated`."""
        simulated = self.activity.prefetch(plaintexts)
        self.simulated += simulated
        return simulated

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
        bytes wherever and whenever it runs.  The bytes this acquirer
        has not composed yet are simulated first, in one
        :meth:`prefetch`.  Each row's ideal samples then come from the
        row memo, calling :meth:`ideal_samples` only for a byte this
        acquirer has not composed yet; the whole chunk then goes through
        one :meth:`~repro.power.MeasurementChain.measure_block`, which
        is byte-identical to a per-trace ``measure`` loop.
        """
        pts = validate_plaintexts(plaintexts)
        samples = np.empty((len(pts), self.grid.n))
        memo = self._ideal
        self.prefetch([p for p in pts if p not in memo])
        for i, plaintext in enumerate(pts):
            row = memo.get(plaintext)
            if row is None:
                row = memo[plaintext] = self.ideal_samples(plaintext)
            samples[i] = row
        return self.chain.measure_block(samples, first_index=trace_offset)


class AcquisitionPool:
    """One campaign's acquisition: a :class:`TraceAcquirer` stepped
    serially through the plaintexts in chunks of :data:`DEFAULT_CHUNK`.

    The whole campaign's missing bytes are simulated first, in one
    lane-parallel pass, and counted on ``sca.acquisition.simulated``;
    the lanes that pass re-ran on the heap simulator are counted on
    ``sca.acquisition.heap_fallbacks``.  Each chunk then runs at its
    campaign-global offset under its own ``sca.acquisition.chunk`` span,
    and counts its traces and the rows it composed on the campaign's
    telemetry.  The bytes equal one ``acquirer.acquire`` call over the
    whole list.  Parallel, crash-tolerant campaigns go through the job
    service's worker processes (``repro serve``), not through this
    class.
    """

    def __init__(self, acquirer: TraceAcquirer, telemetry=None):
        self.acquirer = acquirer
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def acquire(self, plaintexts: Sequence[int],
                trace_offset: int = 0) -> np.ndarray:
        """Measured traces for ``plaintexts``, rows in plaintext order."""
        pts = validate_plaintexts(plaintexts)
        if not pts:
            # The acquirer's own grid width, no span.
            return self.acquirer.acquire(pts, trace_offset=trace_offset)
        tele = self.telemetry
        starts = range(0, len(pts), DEFAULT_CHUNK)
        with tele.span("sca.acquisition.acquire",
                       traces=len(pts), chunks=len(starts),
                       chunk_size=DEFAULT_CHUNK):
            # Memo misses depend on what ran first — counters, never
            # span attrs.  Simulations are counted by the acquirer that
            # ran them, not from the memo's size, which other dies also
            # grow.
            memo = self.acquirer.activity
            fallbacks = memo.fallbacks
            tele.counter("sca.acquisition.simulated").inc(
                self.acquirer.prefetch(pts))
            tele.counter("sca.acquisition.heap_fallbacks").inc(
                memo.fallbacks - fallbacks)
            return np.vstack([
                self._chunk(index, trace_offset + begin,
                            pts[begin:begin + DEFAULT_CHUNK])
                for index, begin in enumerate(starts)])

    def _chunk(self, index: int, offset: int,
               plaintexts: List[int]) -> np.ndarray:
        tele = self.telemetry
        acquirer = self.acquirer
        composed = len(acquirer._ideal)
        with tele.span("sca.acquisition.chunk", chunk=index, offset=offset,
                       n=len(plaintexts)):
            with tele.timer("sca.acquisition.chunk_seconds"):
                rows = acquirer.acquire(plaintexts, trace_offset=offset)
        tele.counter("sca.acquisition.traces").inc(len(plaintexts))
        tele.counter("sca.acquisition.composed").inc(
            len(acquirer._ideal) - composed)
        return rows


def acquire_traces(netlist: GateNetlist, key: int,
                   plaintexts: Sequence[int],
                   chain: Optional[MeasurementChain] = None,
                   grid: Optional[TraceGrid] = None,
                   mismatch_seed: int = 0, t_apply: float = 0.0,
                   trace_offset: int = 0, telemetry=None) -> np.ndarray:
    """One-shot acquisition: simulate, compose, and measure
    ``plaintexts`` on one die.

    Byte-identical for any ``telemetry`` — see the module docstring for
    why.
    """
    acquirer = TraceAcquirer(netlist, key, chain=chain, grid=grid,
                             mismatch_seed=mismatch_seed, t_apply=t_apply)
    return AcquisitionPool(acquirer, telemetry=telemetry).acquire(
        plaintexts, trace_offset=trace_offset)
