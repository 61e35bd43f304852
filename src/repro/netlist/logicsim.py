"""Event-driven gate-level logic simulation.

Replaces the paper's ModelSim step: simulate the mapped netlist with
per-instance delays (cell datasheet delay into the actual net load),
record every net transition with its timestamp, and expose the activity
both as a transition stream (consumed by :mod:`repro.power` to build
current traces, and by the VCD writer) and as per-net toggle counts.

The simulator uses inertial-style delay: if an instance re-evaluates
before its previously scheduled output change has matured, the stale
event is superseded (narrow glitches inside one cell delay are
swallowed, as real gates do).

Trace campaigns simulate many input vectors of one netlist through
:class:`~repro.netlist.lanes.LaneSimulator`, one lane per vector.  This
heap-driven simulator is that pass's oracle, and its per-lane fallback
where events of one instant meet in an order only the heap's sequence
counter decides.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .graph import GateNetlist, Instance


@dataclass(frozen=True)
class Transition:
    """One net value change."""

    time: float
    net: str
    value: bool
    instance: Optional[str] = None  # driving instance, None for stimuli


@dataclass
class SimulationTrace:
    """The recorded activity of one simulation run."""

    transitions: List[Transition] = field(default_factory=list)
    final_values: Dict[str, bool] = field(default_factory=dict)
    duration: float = 0.0

    def toggles(self, net: Optional[str] = None) -> int:
        """Total transitions, optionally restricted to one net."""
        if net is None:
            return len(self.transitions)
        return sum(1 for t in self.transitions if t.net == net)

    def toggle_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for t in self.transitions:
            counts[t.net] = counts.get(t.net, 0) + 1
        return counts

    def instance_toggles(self) -> Dict[str, int]:
        """Output transitions per driving instance (CMOS energy events)."""
        counts: Dict[str, int] = {}
        for t in self.transitions:
            if t.instance is not None:
                counts[t.instance] = counts.get(t.instance, 0) + 1
        return counts

    def value_of(self, net: str, time: float) -> bool:
        """Net value at ``time`` (False before any transition)."""
        value = False
        for t in self.transitions:
            if t.net != net:
                continue
            if t.time > time:
                break
            value = t.value
        return value

    def in_window(self, t0: float, t1: float) -> List[Transition]:
        return [t for t in self.transitions if t0 <= t.time < t1]


class LogicSimulator:
    """Event-driven simulator bound to one :class:`GateNetlist`."""

    def __init__(self, netlist: GateNetlist):
        netlist.validate()
        self.netlist = netlist
        self._order = netlist.levelize()
        self._delays: Dict[str, float] = {
            inst.name: netlist.instance_delay(inst)
            for inst in netlist.instances.values()
        }
        self.values: Dict[str, bool] = {n: False for n in netlist.nets}
        self.states: Dict[str, Dict[str, bool]] = {
            inst.name: {pin: False for pin in inst.cell.function.state_pins}
            for inst in netlist.sequential_instances()
        }
        self._prev_clock: Dict[str, bool] = {
            inst.name: False for inst in netlist.sequential_instances()
        }
        self._pending: Dict[Tuple[str, str], int] = {}
        # Fast combinational evaluation: per instance, the input net
        # names (MSB-first) and one packed truth table per output pin.
        self._tables: Dict[str, Tuple[List[str], List[Tuple[str, int]]]] = {}
        table_cache: Dict[str, Tuple[Tuple[str, ...], List[Tuple[str, int]]]] = {}
        for inst in netlist.instances.values():
            fn = inst.cell.function
            if fn.sequential or len(fn.inputs) > 8:
                continue
            cached = table_cache.get(fn.name)
            if cached is None:
                packed: List[Tuple[str, int]] = []
                for out in fn.outputs:
                    bits = fn.truth_table(out)
                    value = 0
                    for code, bit in enumerate(bits):
                        value |= bit << code
                    packed.append((out, value))
                cached = (fn.inputs, packed)
                table_cache[fn.name] = cached
            pins, packed = cached
            nets = [inst.pins[p] for p in pins]
            self._tables[inst.name] = (nets, packed)

    # -- helpers ------------------------------------------------------------------

    def _inputs_of(self, inst: Instance) -> Dict[str, bool]:
        return {pin: self.values[inst.pins[pin]]
                for pin in inst.cell.inputs}

    def _eval_outputs(self, inst: Instance) -> Dict[str, bool]:
        fast = self._tables.get(inst.name)
        if fast is not None:
            nets, packed = fast
            values = self.values
            code = 0
            for net in nets:
                code = (code << 1) | values[net]
            return {out: bool((table >> code) & 1)
                    for out, table in packed}
        assignment = self._inputs_of(inst)
        if inst.cell.is_sequential:
            assignment.update(self.states[inst.name])
        return inst.cell.function.evaluate(assignment)

    # -- settling ------------------------------------------------------------------

    def reset(self) -> None:
        """Force every net and state to logic 0 (the discharged die).

        This mirrors the SPICE initial condition of the paper's trace
        campaign: all internal nodes start at ground, so the transitions
        of the subsequent run charge exactly the nets that evaluate to 1.
        """
        for net in self.values:
            self.values[net] = False
        for state in self.states.values():
            for pin in state:
                state[pin] = False
        for name in self._prev_clock:
            self._prev_clock[name] = False
        self._pending = {}

    def initialize(self, inputs: Dict[str, bool],
                   states: Optional[Dict[str, Dict[str, bool]]] = None) -> None:
        """Set primary inputs and settle all nets with zero delay."""
        for name, value in inputs.items():
            if name not in self.netlist.nets:
                raise SimulationError(f"unknown primary input {name!r}")
            self.values[name] = bool(value)
        if states:
            for inst_name, state in states.items():
                self.states[inst_name].update(state)
        # Sequential outputs first (they are sources), then levelised logic.
        for inst in self.netlist.sequential_instances():
            for pin, value in self._eval_outputs(inst).items():
                self.values[inst.pins[pin]] = value
            clock = inst.cell.function.clock_pin
            if clock:
                self._prev_clock[inst.name] = self.values[inst.pins[clock]]
        for _ in range(2):  # two passes settle latch transparency
            for inst in self._order:
                for pin, value in self._eval_outputs(inst).items():
                    self.values[inst.pins[pin]] = value

    # -- event-driven run ------------------------------------------------------------

    def run(self, stimuli: Sequence[Tuple[float, str, bool]],
            duration: Optional[float] = None,
            record_initial: bool = False) -> SimulationTrace:
        """Apply timed primary-input events and simulate until quiescence.

        ``stimuli`` is a sequence of ``(time, net, value)``.  Events the
        netlist produces after the last stimulus are still processed;
        ``duration`` only bounds the reported trace duration (and errors
        if activity persists beyond five times that horizon, catching
        oscillations).
        """
        queue: List[Tuple[float, int, str, bool, Optional[str]]] = []
        seq = 0
        for time, net, value in stimuli:
            if net not in self.netlist.nets:
                raise SimulationError(f"unknown stimulus net {net!r}")
            heapq.heappush(queue, (float(time), seq, net, bool(value), None))
            seq += 1

        # (inst, out pin) -> seq id of the newest scheduled change; shared
        # with _react via an attribute so re-evaluations can supersede.
        pending: Dict[Tuple[str, str], int] = {}
        self._pending = pending
        trace = SimulationTrace()
        if record_initial:
            for name, value in self.values.items():
                trace.transitions.append(Transition(0.0, name, value))
        horizon = (duration or 0.0) * 5.0
        last_time = 0.0

        def schedule(time: float, net: str, value: bool, inst: Instance,
                     pin: str) -> None:
            nonlocal seq
            heapq.heappush(queue, (time, seq, net, value, inst.name))
            pending[(inst.name, pin)] = seq
            seq += 1

        while queue:
            time, event_id, net, value, src = heapq.heappop(queue)
            if horizon and time > horizon:
                raise SimulationError(
                    f"activity persists past 5x duration ({horizon:.3g} s); "
                    f"oscillating netlist?")
            if src is not None:
                driver = self.netlist.nets[net].driver
                if driver is not None:
                    key = (driver[0], driver[1])
                    if pending.get(key) != event_id:
                        continue  # superseded by a newer evaluation
                    del pending[key]
            if self.values[net] == value:
                continue
            self.values[net] = value
            last_time = max(last_time, time)
            trace.transitions.append(Transition(time, net, value, src))
            for inst_name, pin in self.netlist.nets[net].sinks:
                inst = self.netlist.instances[inst_name]
                self._react(inst, pin, time, schedule)

        self._pending = {}
        trace.final_values = dict(self.values)
        trace.duration = duration if duration is not None else last_time
        trace.transitions.sort(key=lambda t: (t.time, t.net))
        return trace

    def _react(self, inst: Instance, pin: str, time: float, schedule) -> None:
        fn = inst.cell.function
        if fn.sequential:
            self._react_sequential(inst, pin, time, schedule)
            return
        delay = self._delays[inst.name]
        outputs = self._eval_outputs(inst)
        for out_pin, value in outputs.items():
            net = inst.pins[out_pin]
            key = (inst.name, out_pin)
            # Schedule when the mature value will differ from the current
            # net value, or when a stale pending change must be undone;
            # either way the newest event supersedes the old one.
            if value != self.values[net] or key in self._pending:
                schedule(time + delay, net, value, inst, out_pin)

    def _react_sequential(self, inst: Instance, pin: str, time: float,
                          schedule) -> None:
        fn = inst.cell.function
        name = inst.name
        inputs = self._inputs_of(inst)
        update = False
        if fn.name == "DLATCH":
            update = True  # transparent latch reacts to any input change
        else:
            if pin == fn.clock_pin:
                now = inputs[fn.clock_pin]
                if now and not self._prev_clock[name]:
                    update = True
                self._prev_clock[name] = now
            elif pin == "RN" and not inputs["RN"]:
                update = True  # asynchronous reset assertion
        if update:
            self.states[name] = fn.next_state(inputs, self.states[name])
        outputs = self._eval_outputs(inst)
        delay = self._delays[name]
        for out_pin, value in outputs.items():
            net = inst.pins[out_pin]
            if value != self.values[net]:
                schedule(time + delay, net, value, inst, out_pin)
