"""Content-addressed operating-point cache.

The bias search (:func:`repro.cells.bias.solve_biases`) scans and
bisects one replica buffer per target over Vn, load width and Vp, and
re-measures points it has already solved.  This module caches solved
operating points keyed by a *content fingerprint* of everything that
determines the solution and the solver's trajectory to it:

* every device, in list order, as ``(class tag, name, terminals,
  parameters, parasitic capacitances)`` — list order matters because
  deposit summation order is part of the floating-point result;
* every voltage source as ``(name, node)`` — the names key the
  returned ``source_currents``;
* the fixed-node voltages at the solve time (the bias / corner axis —
  a different stimulus value at ``t`` is a different key);
* the warm-start guess and the assembly mode (both steer the Newton
  trajectory).

Content addressing *is* the invalidation contract: ``swap_device``
(fault-injection arming, model overrides) changes the device tuple, so
the poisoned entry simply can never be looked up again.  Devices of
unknown classes — fault proxies, test doubles — have no stable
parameter surface to fingerprint, so circuits containing them bypass
the cache entirely (counted in ``bypasses``).

A cache hit returns a fresh :class:`~repro.spice.dc.OperatingPoint`
with copied voltage/current dicts, byte-identical to what a cold solve
would produce (the solver is deterministic given the fingerprinted
inputs); the stored solve's diagnostics ride along.  A cache lives as
long as its owner: the bias search makes one per target (about a
hundred entries), and :func:`~repro.spice.dc.solve_dc` and
:func:`~repro.spice.batch.solve_dc_batch` use none unless one is
passed.  Measured on the full characterisation plan, every hit came
from the bias search; transients, Monte Carlo and leakage solves never
repeat a key.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from .devices import Capacitor, ISource, Mosfet, Resistor


class OperatingPointCache:
    """Map from content fingerprints to operating points."""

    def __init__(self):
        self._store: Dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._store)

    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "bypasses": self.bypasses, "stores": self.stores,
                "entries": len(self._store)}

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._store.clear()
        self.hits = self.misses = self.bypasses = self.stores = 0

    # -- fingerprinting ------------------------------------------------------

    def fingerprint(self, circuit, t: float,
                    guess: Optional[Dict[str, float]],
                    assembly: str) -> Optional[str]:
        """The content key, or ``None`` when the circuit cannot be
        fingerprinted (unknown device classes — fault proxies)."""
        parts = [circuit.name, assembly,
                 repr(tuple((s.name, s.node) for s in circuit.vsources))]
        for device in circuit.devices:
            cls = type(device)
            if cls is Resistor:
                sig = ("R", device.name, device.terminals,
                       repr(device.resistance))
            elif cls is Capacitor:
                sig = ("C", device.name, device.terminals,
                       repr(device.capacitance))
            elif cls is ISource:
                sig = ("I", device.name, device.terminals,
                       repr(device.value))
            elif cls is Mosfet:
                params = tuple(sorted(
                    (k, repr(v))
                    for k, v in device.model.bank_params().items()))
                caps = tuple((a, b, repr(c))
                             for a, b, c in device.capacitances())
                sig = ("M", device.name, device.terminals, params, caps)
            else:
                return None
            parts.append(repr(sig))
        fixed = circuit.fixed_nodes(t)
        parts.append(repr(tuple(sorted(
            (node, repr(v)) for node, v in fixed.items()))))
        if guess:
            parts.append(repr(tuple(sorted(
                (node, repr(v)) for node, v in guess.items()))))
        else:
            parts.append("no-guess")
        digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
        return digest

    # -- storage -------------------------------------------------------------

    def lookup(self, key: str):
        """The cached :class:`OperatingPoint` (fresh dict copies), or
        ``None``.  Counts the hit/miss."""
        stored = self._store.get(key)
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        return _copy_op(stored)

    def store(self, key: str, op) -> None:
        self.stores += 1
        self._store[key] = _copy_op(op)


def _copy_op(op):
    """A defensively-copied OperatingPoint (shared diagnostics)."""
    from .dc import OperatingPoint
    return OperatingPoint(dict(op.voltages), dict(op.source_currents),
                          diagnostics=op.diagnostics)

