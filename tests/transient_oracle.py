"""Per-grid-point reference for the serial transient's source currents.

:func:`repro.spice.run_transient` records the unknowns, the source tail
and the committed companion currents at each grid point and computes
the supply currents from those records, a block of grid points at a
time, outside the step loop.  The reference here computes them
one grid point at a time: :meth:`System.fixed_node_currents` at the
recorded state, plus each capacitor's backward-Euler current over the
step into that point, folded into its source-driven ends in entry order
(capacitors with an unknown end first, then those between two
source-driven nodes, each group in circuit order).  The contract
between the two is byte equality.

The reference reads the state from the result, so the run must record
every node and take no step halvings (a halved step's inner state is
not recorded).
"""

from typing import Callable, Dict, Optional

import numpy as np

from repro.spice import Circuit
from repro.spice.dc import System
from repro.spice.transient import TransientResult


def reference_source_currents(
        circuit: Circuit, result: TransientResult,
        before_point: Optional[Callable[[float], None]] = None,
) -> Dict[str, np.ndarray]:
    """Source currents of ``result`` recomputed grid point by grid point.

    ``before_point(t)`` runs before the devices are evaluated at grid
    time ``t`` — pass a fault injector's ``set_time`` so its proxies see
    the clock they saw when the engine recorded that point.
    """
    if result.stats.halvings:
        raise ValueError("the reference needs a run without step halvings")
    system = System(circuit)
    caps = [(a, b, c) for a, b, c in circuit.linear_capacitances()
            if a in system.index or b in system.index]
    caps += [(a, b, c) for a, b, c in circuit.linear_capacitances()
             if a not in system.index and b not in system.index]
    out = {source.name: [] for source in circuit.vsources}
    prev = None
    for g, t in enumerate(result.time):
        t = float(t)
        volts = circuit.fixed_nodes(t)
        volts.update((node, result.voltages[node][g])
                     for node in system.unknowns)
        x = np.array([volts[node] for node in system.unknowns])
        if before_point is not None:
            before_point(t)
        dev = system.fixed_node_currents(x, circuit.fixed_nodes(t))
        cap = dict.fromkeys(dev, 0.0)
        if prev is not None:
            t_prev, v_prev = prev
            for a, b, c in caps:
                i = (c / (t - t_prev)) * ((volts[a] - volts[b])
                                          - (v_prev[a] - v_prev[b]))
                if a not in system.index:
                    cap[a] += i
                if b not in system.index:
                    cap[b] -= i
        for source in circuit.vsources:
            out[source.name].append(dev[source.node] + cap[source.node])
        prev = (t, volts)
    return {name: np.asarray(values) for name, values in out.items()}


def equal_samples(circuit: Circuit, result: TransientResult,
                  source: str = "vdd",
                  before_point: Optional[Callable[[float], None]] = None
                  ) -> int:
    """How many of ``source``'s samples equal the reference bit for bit."""
    want = reference_source_currents(circuit, result, before_point)[source]
    got = result.source_currents[source]
    return int(np.sum(got.view(np.int64) == want.view(np.int64)))
