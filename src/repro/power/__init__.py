"""Block-level power and current-trace modelling.

The paper switches tools at the block level: cells are characterised in
SPICE, but the 3000-cell S-box ISE is simulated with a fast-SPICE engine
(Synopsys Nanosim) driven by logic activity in VCD form.  This package
is our fast engine.  Per-instance current contributions are calibrated
against the transistor-level models:

* **CMOS** — a charge packet per output transition
  (``energy_toggle / Vdd``) plus static leakage;
* **MCML** — a constant tail current per cell, a small symmetric
  switching disturbance, and the crucial *data-dependent residual*: with
  mismatched loads the two branches drop slightly different voltages, so
  the tail current depends weakly on which branch is active.  Each
  instance draws its residual once from the technology's Pelgrom model —
  this is the only data-dependent term, and it is orders of magnitude
  below the CMOS signal;
* **PG-MCML** — the MCML model gated by the sleep schedule with an
  exponential wake transient, plus the CMOS sleep-tree buffers.

:mod:`repro.power.noise` adds measurement noise and the paper's 1 µA
amplitude quantisation.
"""

from .models import BlockPowerModel, InstancePower
from .trace import (
    SettledActivity,
    TransitionActivity,
    activity_current,
    differential_baseline,
    driven_nets,
    settled_nets,
    wddl_baseline,
    wddl_current,
    TraceGrid,
)
from .gating import (
    GatingSchedule,
    gated_block_current,
    ungated_block_current,
    schedule_from_sbox_events,
)
from .noise import MeasurementChain
from .preprocess import add_jitter, align, center, compress, standardize, window

__all__ = [
    "BlockPowerModel",
    "InstancePower",
    "SettledActivity",
    "TransitionActivity",
    "activity_current",
    "differential_baseline",
    "driven_nets",
    "settled_nets",
    "wddl_baseline",
    "wddl_current",
    "TraceGrid",
    "GatingSchedule",
    "gated_block_current",
    "ungated_block_current",
    "schedule_from_sbox_events",
    "MeasurementChain",
    "add_jitter",
    "align",
    "center",
    "compress",
    "standardize",
    "window",
]
