"""Lane-parallel event simulation: many input vectors in one pass.

A *lane* is one input vector's copy of the circuit.  Every lane starts
from the discharged state (:meth:`LogicSimulator.reset`) and drives its
primary inputs high at one instant ``t_apply``, as a trace campaign
does for each plaintext.  Every stimulus switches at the same time and
every instance has one fixed delay, so all lanes' events fall on the
same few (time, net) pairs: the reduced AES's 256 plaintexts record
42 to 58 thousand transitions on under 1 500 such pairs.

Net values are Python-int bitmasks over lanes.  Each cell's packed
truth table is compiled once, by Shannon expansion, into a bitwise
expression over those masks.  :meth:`LaneSimulator.run` mirrors
:meth:`LogicSimulator.run` lane by lane:

* an event is a (time, net) pair with the mask of lanes whose net flips
  then;
* each gate output keeps its pending flips by maturity time, and a
  reaction supersedes them in the lanes it covers (inertial delay);
* a reaction schedules a flip in lane L only where the new value
  differs from the net in L.  The heap also re-schedules an unchanged
  value over a pending change; such an event can only land as a no-op,
  so the pass drops the pending change instead and schedules fewer
  events, with the same transitions;
* the events of one instant come in *generations*: cells with zero
  delay (the RAILSWAP pseudo cell) mature at the instant that fired
  them, after everything already queued for it, as the heap's sequence
  counter orders them.

Within one generation the heap's order is the order events were
scheduled, which depends on each lane's history.  It decides the result
in one case only: a gate's pending output flips the net in the same
generation as one of that gate's inputs changes.  The pass flags those
lanes in :attr:`LaneTrace.fallback` instead of guessing; the caller
re-runs them on the heap.  So are lanes that schedule past the
``5 x duration`` oscillation horizon, where the heap decides whether it
raises :class:`~repro.errors.SimulationError`.

Exactness contract: for every lane not flagged, :meth:`LaneTrace.lane`
holds exactly the transitions of ``LogicSimulator.run`` on the
``record`` nets, in its (time, net-name) order, with the same float
times.  The contract covers the output transitions, not the internal
queue.  :meth:`LaneSimulator.settle` is ``reset()`` + ``initialize()``
for every lane: the same two levelised sweeps, bitwise.

The plan covers combinational netlists whose cells have at most
:data:`MAX_INPUTS` inputs (:meth:`LaneSimulator.supports`); anything
else stays on the heap simulator, one vector at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, \
    Tuple

import numpy as np

from ..errors import SimulationError
from .graph import GateNetlist

#: Widest cell the pass compiles (the heap's packed-table limit too).
MAX_INPUTS = 8


def _shannon(table: int, size: int, var: int) -> str:
    """A bitwise expression over ``x{var}``, ``x{var+1}``, ... of a
    ``size``-entry truth table whose first variable is the most
    significant bit of the row index."""
    ones = (1 << size) - 1
    if table == 0:
        return "0"
    if table == ones:
        return "-1"
    half = size >> 1
    low_ones = (1 << half) - 1
    low, high = table & low_ones, table >> half
    if low == high:
        return _shannon(low, half, var + 1)
    x = f"x{var}"
    if low == 0 and high == low_ones:
        return x
    if low == low_ones and high == 0:
        return f"~{x}"
    a = _shannon(high, half, var + 1)
    b = _shannon(low, half, var + 1)
    if low == 0:
        return f"({x} & {a})"
    if high == 0:
        return f"(~{x} & {b})"
    if high == low_ones:
        return f"({x} | {b})"
    if low == low_ones:
        return f"(~{x} | {a})"
    if high == low ^ low_ones:
        return f"({x} ^ {b})"
    return f"({b} ^ ({x} & ({a} ^ {b})))"


def compile_table(table: int, n_inputs: int) -> Callable[..., int]:
    """The bitwise evaluator of a packed truth table (bit ``code`` is
    the output for inputs ``code``, first input most significant).

    It takes one lane mask per input and returns the output's mask.
    Complements are unbounded Python ints, so callers mask the result
    with the lanes they read.
    """
    args = ", ".join(f"x{k}" for k in range(n_inputs))
    return eval(f"lambda {args}: {_shannon(table, 1 << n_inputs, 0)}")


def _unpack(masks: Sequence[int], lanes: int) -> np.ndarray:
    """``(lanes, len(masks))`` bools: bit ``i`` of mask ``j`` at
    ``[i, j]``."""
    width = (lanes + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little")
                                 for m in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1,
                         count=lanes, bitorder="little")
    return np.ascontiguousarray(bits.T).view(bool)


@dataclass(frozen=True, eq=False)
class LaneTrace:
    """The recorded transitions of every lane of one pass.

    Column ``j`` is the ``j``-th recorded (time, net) event in
    (time, net-name) order; ``flips[i, j]`` says whether lane ``i``
    changed there and ``values[i, j]`` the value the net then held.
    """

    times: np.ndarray   # float64, per event
    nets: np.ndarray    # int32, the event net's ``record`` value
    flips: np.ndarray   # bool, (lanes, events)
    values: np.ndarray  # bool, (lanes, events)
    #: Mask of the lanes to re-run on the heap simulator.
    fallback: int

    def lane(self, i: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lane ``i``'s (times, nets, values) arrays."""
        index = np.flatnonzero(self.flips[i])
        return self.times[index], self.nets[index], self.values[i, index]


class LaneSimulator:
    """One combinational netlist compiled for lane-parallel passes."""

    def __init__(self, netlist: GateNetlist):
        if not self.supports(netlist):
            raise SimulationError(
                f"{netlist.name}: lane passes need a combinational "
                f"netlist of cells with at most {MAX_INPUTS} inputs")
        netlist.validate()
        self.netlist = netlist
        self._names = list(netlist.nets)
        index = self._index = {name: i for i, name in enumerate(self._names)}
        gate_of = {name: g for g, name in enumerate(netlist.instances)}
        # Per cell function: (output pin, evaluator) pairs.
        tables: Dict[str, List[Tuple[str, Callable[..., int]]]] = {}
        #: Per gate: input net indices (first input first), (output net,
        #: evaluator) pairs, and its delay.
        self._inputs: List[Tuple[int, ...]] = []
        self._outputs: List[Tuple[Tuple[int, Callable[..., int]], ...]] = []
        self._delays: List[float] = []
        for inst in netlist.instances.values():
            fn = inst.cell.function
            if fn.name not in tables:
                tables[fn.name] = [
                    (out, compile_table(
                        sum(bit << code
                            for code, bit in enumerate(fn.truth_table(out))),
                        len(fn.inputs)))
                    for out in fn.outputs]
            self._inputs.append(tuple(index[inst.pins[p]] for p in fn.inputs))
            self._outputs.append(tuple((index[inst.pins[out]], evaluate)
                                       for out, evaluate in tables[fn.name]))
            self._delays.append(netlist.instance_delay(inst))
        self._sinks = [tuple(dict.fromkeys(gate_of[i] for i, _ in net.sinks))
                       for net in netlist.nets.values()]
        self._driver = [gate_of[net.driver[0]] if net.driver else -1
                        for net in netlist.nets.values()]
        self._order = [gate_of[inst.name] for inst in netlist.levelize()]

    @staticmethod
    def supports(netlist: GateNetlist, inputs: Sequence[str] = ()) -> bool:
        """Whether passes can run ``netlist`` with stimuli on ``inputs``:
        no sequential cell, none wider than :data:`MAX_INPUTS`, and every
        stimulus net a primary input."""
        return (all(not inst.cell.is_sequential
                    and len(inst.cell.inputs) <= MAX_INPUTS
                    for inst in netlist.instances.values())
                and all(name in netlist.nets
                        and netlist.nets[name].is_primary_input
                        for name in inputs))

    def _stimulus(self, inputs: Mapping[str, int], full: int
                  ) -> Dict[int, int]:
        masks: Dict[int, int] = {}
        for name, mask in inputs.items():
            net = self._index.get(name)
            if net is None or not self.netlist.nets[name].is_primary_input:
                raise SimulationError(
                    f"lane stimulus {name!r} is not a primary input")
            if mask & full:
                masks[net] = mask & full
        return masks

    def settle(self, inputs: Mapping[str, int], lanes: int,
               nets: Sequence[str]) -> np.ndarray:
        """``reset()`` + ``initialize()`` in every lane at once.

        ``inputs`` maps a primary input to the mask of lanes where it is
        high.  Returns the settled value of each of ``nets`` per lane,
        as ``(lanes, len(nets))`` bools.
        """
        full = (1 << lanes) - 1
        values = [0] * len(self._names)
        for net, mask in self._stimulus(inputs, full).items():
            values[net] = mask
        for _ in range(2):  # two sweeps, as initialize() makes
            for g in self._order:
                ins = [values[i] for i in self._inputs[g]]
                for out, evaluate in self._outputs[g]:
                    values[out] = evaluate(*ins) & full
        return _unpack([values[self._index[name]] for name in nets], lanes)

    def run(self, inputs: Mapping[str, int], lanes: int, t_apply: float,
            duration: Optional[float], record: Mapping[str, int]
            ) -> LaneTrace:
        """``reset()`` + ``run()`` in every lane at once.

        ``inputs`` maps a primary input to the mask of lanes where it
        rises at ``t_apply``; the others stay low.  ``duration`` sets the
        oscillation horizon as in :meth:`LogicSimulator.run`.  Transitions
        are recorded on the nets ``record`` names, each under its value.
        """
        full = (1 << lanes) - 1
        names, sinks, driver = self._names, self._sinks, self._driver
        gate_inputs, gate_outputs, delays = \
            self._inputs, self._outputs, self._delays
        recorded: List[Optional[int]] = [None] * len(names)
        for name, value in record.items():
            recorded[self._index[name]] = value
        values = [0] * len(names)
        # Per output net: maturity time -> lanes whose net flips then.
        pending: List[Dict[float, int]] = [{} for _ in names]
        agenda: Dict[float, List[int]] = {}
        queue: List[float] = []
        horizon = (duration or 0.0) * 5.0
        time = float(t_apply)
        fallback = full if horizon and time > horizon else 0
        events: List[Tuple[float, str, int, int, int]] = []
        flips = self._stimulus(inputs, full)
        while True:
            react: Dict[int, int] = {}
            for net, mask in flips.items():
                value = values[net] = values[net] ^ mask
                if recorded[net] is not None:
                    events.append((time, names[net], recorded[net], mask,
                                   value))
                for g in sinks[net]:
                    react[g] = react.get(g, 0) | mask
            for g, hit in react.items():
                when = time + delays[g]
                if horizon and when > horizon:
                    fallback |= hit  # the heap decides whether it raises
                ins = [values[i] for i in gate_inputs[g]]
                for out, evaluate in gate_outputs[g]:
                    change = (evaluate(*ins) ^ values[out]) & hit
                    pend = pending[out]
                    if pend:
                        keep = ~hit
                        for at in list(pend):
                            left = pend[at] & keep
                            if left:
                                pend[at] = left
                            else:
                                del pend[at]
                    if change:
                        pend[when] = pend.get(when, 0) | change
                        bucket = agenda.get(when)
                        if bucket is None:
                            agenda[when] = [out]
                            heapq.heappush(queue, when)
                        else:
                            bucket.append(out)
            if not queue:
                break
            # The next generation: zero-delay flips re-queue the instant
            # they fired at, behind everything already queued for it.
            time = heapq.heappop(queue)
            flips = {}
            for out in agenda.pop(time):
                mask = pending[out].pop(time, 0)
                if mask:
                    flips[out] = mask
            # The order hazard: a gate's pending flip and a change of one
            # of its inputs in the same generation.  The heap pops them
            # in the order they were scheduled, which this pass does not
            # track, so the heap re-runs those lanes.
            for out, mask in flips.items():
                for net in gate_inputs[driver[out]]:
                    if net in flips:
                        fallback |= mask & flips[net]
        events.sort(key=lambda e: (e[0], e[1]))
        return LaneTrace(
            times=np.array([e[0] for e in events], dtype=float),
            nets=np.array([e[2] for e in events], dtype=np.int32),
            flips=_unpack([e[3] for e in events], lanes),
            values=_unpack([e[4] for e in events], lanes),
            fallback=fallback)
