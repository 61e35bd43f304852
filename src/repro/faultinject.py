"""Deterministic fault injection for the SPICE engine.

Robustness code is only trustworthy if its failure paths are exercised,
and real circuits fail rarely and unreproducibly.  This module wraps
:class:`~repro.spice.devices.Device` objects in proxies that corrupt
their terminal currents on demand — NaN/Inf outputs, perturbed
characteristics (and therefore perturbed finite-difference Jacobians),
or call-parity oscillation that forces Newton non-convergence — inside a
chosen simulation-time window.  Everything is deterministic: no RNG, no
wall-clock, so a failing run replays exactly.

Usage::

    from repro.faultinject import Fault, FaultInjector

    injector = FaultInjector(circuit, [
        Fault("mn1", "oscillate", t_start=ns(1), t_stop=ns(1.2),
              trip_limit=1),
    ])
    with injector:                       # wraps the faulted devices
        result = run_transient(circuit, tstop=ns(3), dt=ps(20),
                               on_step=injector.set_time)

``trip_limit`` bounds how many Newton solve *attempts* see the fault
(each :meth:`FaultInjector.set_time` call inside the window counts one),
which models transient numerical pathologies that a retry at a smaller
timestep cures — the scenario the transient engine's step-halving ladder
exists for.  ``trip_limit=None`` keeps the fault active for the whole
window.

For DC solves there is no stepping callback: either leave ``now`` at its
default 0.0 (faults windowed over t=0 are active) or call
:meth:`set_time` by hand before :func:`~repro.spice.dc.solve_dc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .errors import CircuitError
from .spice.circuit import Circuit
from .spice.devices import Device

#: Supported fault kinds.
FAULT_KINDS = ("nan", "inf", "open", "perturb", "oscillate")


@dataclass
class Fault:
    """One scheduled corruption of one device.

    Parameters
    ----------
    device:
        Name of the device to corrupt.
    kind:
        ``"nan"`` / ``"inf"`` — all terminal currents become NaN / Inf;
        ``"open"`` — the device stops conducting entirely;
        ``"perturb"`` — a deterministic nonlinear current of amplitude
        ``magnitude`` is superimposed between the first and last
        terminals, corrupting both the residual and the finite-difference
        Jacobian; ``"oscillate"`` — a current of ``magnitude`` whose sign
        flips on every device evaluation, making the Newton residual
        inconsistent with its Jacobian so the solve cannot converge.
    t_start, t_stop:
        Active window ``[t_start, t_stop)`` in simulation seconds.
    magnitude:
        Amplitude for ``"perturb"``/``"oscillate"``, amperes.
    trip_limit:
        Number of solve attempts (``set_time`` calls inside the window)
        the fault stays active for; ``None`` means the whole window.
    """

    device: str
    kind: str
    t_start: float = 0.0
    t_stop: float = math.inf
    magnitude: float = 1e-3
    trip_limit: Optional[int] = None
    trips: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise CircuitError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {FAULT_KINDS}")
        if self.t_stop <= self.t_start:
            raise CircuitError("fault window is empty (t_stop <= t_start)")

    def in_window(self, t: float) -> bool:
        return self.t_start <= t < self.t_stop

    @property
    def expired(self) -> bool:
        return self.trip_limit is not None and self.trips > self.trip_limit


class FaultyDevice(Device):
    """Proxy that applies an injector's active faults to a real device."""

    def __init__(self, inner: Device, injector: "FaultInjector"):
        super().__init__(inner.name, inner.terminals)
        self.inner = inner
        self._injector = injector
        self._calls = 0

    def currents(self, volts: Sequence[float]) -> List[float]:
        self._calls += 1
        base = list(self.inner.currents(volts))
        for fault in self._injector.faults_for(self.inner.name):
            base = self._apply(fault, base, volts)
        return base

    def capacitances(self):
        return self.inner.capacitances()

    def _apply(self, fault: Fault, base: List[float],
               volts: Sequence[float]) -> List[float]:
        if fault.kind == "nan":
            return [math.nan] * len(base)
        if fault.kind == "inf":
            return [math.inf] * len(base)
        if fault.kind == "open":
            return [0.0] * len(base)
        if fault.kind == "perturb":
            bump = fault.magnitude * math.sin(
                1e3 * (volts[0] - volts[-1]) + 1.0)
            out = list(base)
            out[0] += bump
            out[-1] -= bump
            return out
        # "oscillate": sign flips with call parity, so the residual seen
        # by Newton disagrees with the finite-difference Jacobian.
        sign = 1.0 if self._calls % 2 == 0 else -1.0
        out = list(base)
        out[0] += sign * fault.magnitude
        out[-1] -= sign * fault.magnitude
        return out


class FaultInjector:
    """Schedules faults against a circuit and arms/disarms the proxies.

    Works as a context manager (arm on entry, disarm on exit) or via
    explicit :meth:`arm` / :meth:`disarm`.  Pass :meth:`set_time` as the
    ``on_step`` callback of :func:`~repro.spice.transient.run_transient`
    so windowed faults track simulation time.
    """

    def __init__(self, circuit: Circuit,
                 faults: Iterable[Fault] = ()):
        self.circuit = circuit
        self.faults: List[Fault] = []
        self.now = 0.0
        self._originals: Dict[str, Device] = {}
        self._armed = False
        for fault in faults:
            self.add(fault)

    def add(self, fault: Fault) -> Fault:
        device = self.circuit.device(fault.device)  # raises if unknown
        if self._armed and fault.device not in self._originals:
            proxy = FaultyDevice(device, self)
            self._originals[fault.device] = self.circuit.swap_device(
                fault.device, proxy)
        self.faults.append(fault)
        return fault

    # -- arming --------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Swap every faulted device for its proxy (idempotent)."""
        if self._armed:
            return self
        for fault in self.faults:
            if fault.device in self._originals:
                continue
            inner = self.circuit.device(fault.device)
            proxy = FaultyDevice(inner, self)
            self._originals[fault.device] = self.circuit.swap_device(
                fault.device, proxy)
        self._armed = True
        return self

    def disarm(self) -> None:
        """Restore the original devices."""
        for name, original in self._originals.items():
            self.circuit.swap_device(name, original)
        self._originals.clear()
        self._armed = False

    def __enter__(self) -> "FaultInjector":
        return self.arm()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.disarm()

    # -- scheduling ----------------------------------------------------------

    def set_time(self, t: float) -> None:
        """Advance simulation time; counts one solve attempt per call."""
        self.now = float(t)
        for fault in self.faults:
            if fault.trip_limit is not None and fault.in_window(self.now):
                fault.trips += 1

    def faults_for(self, device_name: str) -> List[Fault]:
        """The faults currently active on the named device."""
        return [f for f in self.faults
                if f.device == device_name and f.in_window(self.now)
                and not f.expired]

    def reset(self) -> None:
        """Clear trip counters and rewind time (fresh campaign)."""
        self.now = 0.0
        for fault in self.faults:
            fault.trips = 0


#: Ways :func:`corrupt_jsonl_record` can damage a line.
CORRUPTION_MODES = ("garbage", "truncate", "flip")


def corrupt_jsonl_record(path: str, index: int,
                         mode: str = "garbage") -> str:
    """Deterministically damage line ``index`` of a JSONL file in place.

    Chaos tooling for append-only stores (the job ledger, obs streams):
    ``"garbage"`` replaces the line with non-JSON bytes, ``"truncate"``
    cuts it mid-record (a torn write), and ``"flip"`` alters one
    character so the json still parses but any embedded checksum (the
    ledger's crc envelope) no longer matches.  Returns the original
    line so tests can assert on what was destroyed.  Line numbering
    counts every physical line, zero-based; negative indices address
    from the end as usual.
    """
    if mode not in CORRUPTION_MODES:
        raise CircuitError(
            f"unknown corruption mode {mode!r}; "
            f"choose from {CORRUPTION_MODES}")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    try:
        original = lines[index]
    except IndexError:
        raise CircuitError(
            f"{path} has {len(lines)} lines; cannot corrupt line {index}")
    stripped = original.rstrip("\n")
    if mode == "garbage":
        damaged = "#### not json ####"
    elif mode == "truncate":
        damaged = stripped[:max(1, len(stripped) // 2)]
    else:  # "flip": change one digit-ish character, keep valid json
        position = len(stripped) // 2
        for offset, char in enumerate(stripped[position:]):
            if char.isdigit():
                replacement = "1" if char == "0" else "0"
                cut = position + offset
                damaged = stripped[:cut] + replacement \
                    + stripped[cut + 1:]
                break
        else:
            damaged = stripped[:-2] + '~"'
    lines[index] = damaged + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    return stripped
