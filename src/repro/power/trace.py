"""Current-trace synthesis from logic activity.

:func:`activity_current` converts the transition stream of an
event-driven simulation, held as a :class:`TransitionActivity`, into a
sampled supply-current waveform, per the style-specific contribution
rules of :mod:`repro.power.models`:

* CMOS: each output toggle deposits its charge packet as a triangular
  pulse of width :data:`~repro.power.models.CMOS_PULSE_WIDTH` — exactly
  the picture a fast-SPICE simulator paints for a switching static gate;
* MCML styles: the supply current is the (constant) sum of tail
  currents, plus each instance's mismatch residual whenever its output
  is high, plus a small symmetric blip at every toggle.

The sampled result is intentionally *pre-measurement*: noise and the
1 µA instrument quantisation live in :mod:`repro.power.noise` so studies
can examine both sides of the probe.

Activity is die-independent, so it is kept as compact arrays
(:class:`TransitionActivity`, :class:`SettledActivity`) that every die
of a netlist shares; composing a die is array gathers from its
:class:`BlockPowerModel`'s per-net and per-instance tables, a lexsort
and one cumsum.  The pulse deposits are one batched accumulation, and
the entire data-independent part of a differential trace (static tails
+ the evaluation hum) is available pre-composed through
:func:`differential_baseline` for reuse across a whole campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..errors import TraceError
from ..netlist import GateNetlist, SimulationTrace
from .models import (
    BlockPowerModel,
    CMOS_PULSE_WIDTH,
    MCML_BLIP_FRACTION,
    MCML_BLIP_WIDTH,
)


@dataclass(frozen=True)
class TraceGrid:
    """A uniform sampling grid for current traces."""

    t0: float
    t1: float
    dt: float

    def __post_init__(self) -> None:
        if self.dt <= 0.0 or self.t1 <= self.t0:
            raise TraceError("grid must have positive span and step")

    @property
    def n(self) -> int:
        return int(round((self.t1 - self.t0) / self.dt)) + 1

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def index(self, t: float) -> float:
        return (t - self.t0) / self.dt


def driven_nets(netlist: GateNetlist) -> Dict[str, int]:
    """Position in ``netlist.nets`` of every net a physical cell drives.

    A :class:`TransitionActivity` indexes nets by this position.
    Primary inputs and pseudo-cell outputs are absent: their
    transitions draw no supply current.
    """
    return {name: i for i, (name, net) in enumerate(netlist.nets.items())
            if net.driver is not None
            and not netlist.instances[net.driver[0]].cell.pseudo}


@dataclass(frozen=True, eq=False)
class TransitionActivity:
    """The output transitions of one simulated cycle, as arrays.

    Row ``i`` is the ``i``-th transition of the simulation's
    (time, net)-ordered stream that a physical cell drives: its time,
    its net's position in ``netlist.nets`` and the value it took.  No
    field depends on the die, so every die of a netlist composes from
    the same instance.
    """

    times: np.ndarray   # float64
    nets: np.ndarray    # int32
    values: np.ndarray  # bool

    @classmethod
    def from_trace(cls, trace: SimulationTrace,
                   nets: Mapping[str, int]) -> "TransitionActivity":
        """Keep the transitions of ``trace`` on the ``nets`` (see
        :func:`driven_nets`) that a cell drove."""
        kept = [tr for tr in trace.transitions
                if tr.instance is not None and tr.net in nets]
        return cls(times=np.array([tr.time for tr in kept], dtype=float),
                   nets=np.array([nets[tr.net] for tr in kept],
                                 dtype=np.int32),
                   values=np.array([tr.value for tr in kept], dtype=bool))


def settled_nets(netlist: GateNetlist) -> List[str]:
    """The first output net of each modelled (non-pseudo) instance, in
    ``netlist.instances`` order: what a :class:`SettledActivity` holds."""
    return [inst.pins[inst.cell.outputs[0]]
            for inst in netlist.instances.values() if not inst.cell.pseudo]


@dataclass(frozen=True, eq=False)
class SettledActivity:
    """The settled output of each modelled (non-pseudo) instance after
    one WDDL evaluate phase, in ``netlist.instances`` order."""

    values: np.ndarray  # bool

    @classmethod
    def from_values(cls, netlist: GateNetlist,
                    net_values: Mapping[str, bool]) -> "SettledActivity":
        """Read each instance's first output from settled net values."""
        return cls(values=np.array(
            [net_values[net] for net in settled_nets(netlist)], dtype=bool))


def _deposit_triangles(samples: np.ndarray, grid: TraceGrid,
                       times: np.ndarray, charges: np.ndarray,
                       width: float) -> None:
    """Add one triangular pulse per (time, charge) pair, batched.

    Each pulse rises linearly from ``t`` to its apex at ``t + width/2``
    and falls back to zero at ``t + width``.  All pulses share ``width``
    so every event touches the same small number of grid slots, which
    lets the whole batch go through one fancy-indexed accumulation
    instead of a Python loop per event.
    """
    times = np.asarray(times, dtype=float)
    charges = np.asarray(charges, dtype=float)
    if times.size == 0:
        return
    half = width / 2.0
    peaks = 2.0 * charges / width
    first = np.floor((times - grid.t0) / grid.dt).astype(np.int64)
    span = int(np.ceil(width / grid.dt)) + 2
    ks = first[:, None] + np.arange(span)[None, :]
    u = (grid.t0 + ks * grid.dt) - times[:, None]
    rising = peaks[:, None] * u / half
    falling = peaks[:, None] * (width - u) / half
    contrib = np.where(u <= half, rising, falling)
    valid = (ks >= 0) & (ks < samples.size) & (u >= 0.0) & (u <= width)
    samples += np.bincount(ks[valid], weights=contrib[valid],
                           minlength=samples.size)


def wddl_baseline(model: BlockPowerModel, grid: TraceGrid,
                  include_static: bool = True,
                  t_apply: float = 0.0) -> np.ndarray:
    """The data-independent part of a WDDL trace.

    Every evaluate phase charges exactly one rail of every pair — that
    constant switching count is the countermeasure.  So the baseline is
    the CMOS leakage floor plus one mean-charge packet per instance at
    its static arrival time for inputs applied at ``t_apply``,
    identical for every trace of a campaign.
    """
    if model.style != "wddl":
        raise TraceError(
            f"wddl_baseline applies to WDDL blocks, not {model.style!r}")
    samples = np.zeros(grid.n)
    if include_static:
        samples += model.static_current()
    times, charges = [], []
    for inst_name, arrival in model.arrival_times(t_apply).items():
        ip = model.instances.get(inst_name)
        if ip is None:
            continue
        times.append(arrival)
        charges.append(ip.toggle_charge)
    _deposit_triangles(samples, grid, np.asarray(times),
                       np.asarray(charges), CMOS_PULSE_WIDTH)
    return samples


def _baseline_copy(model: BlockPowerModel, grid: TraceGrid,
                   include_static: bool, baseline: Optional[np.ndarray],
                   t_apply: float) -> np.ndarray:
    """A fresh copy of the data-independent part of a WDDL or
    differential trace: ``baseline`` when given, else composed now."""
    if baseline is None:
        if model.style == "wddl":
            return wddl_baseline(model, grid, include_static, t_apply)
        return differential_baseline(model, grid, include_static, t_apply)
    if baseline.shape != (grid.n,):
        raise TraceError(
            f"baseline has {baseline.shape} samples, grid wants "
            f"({grid.n},)")
    return baseline.copy()


def wddl_current(model: BlockPowerModel, activity: SettledActivity,
                 grid: TraceGrid, include_static: bool = True,
                 baseline: Optional[np.ndarray] = None,
                 t_apply: float = 0.0) -> np.ndarray:
    """Supply-current samples for one WDDL evaluate phase.

    ``activity`` holds each instance's settled (single-rail) output
    value: True means the true rail charged this cycle, False the false
    rail.  The data dependence is each instance's rail-imbalance charge,
    signed by which rail won — added on top of the precomposed
    :func:`wddl_baseline` at the instance's static arrival time for
    inputs applied at ``t_apply``.  There is no transition stream: WDDL
    evaluates every gate exactly once per precharge/evaluate cycle by
    construction.
    """
    if model.style != "wddl":
        raise TraceError(
            f"wddl_current applies to WDDL blocks, not {model.style!r}")
    if activity.values.shape != (len(model.instances),):
        raise TraceError(
            f"{activity.values.shape} settled values for "
            f"{len(model.instances)} modelled instances")
    samples = _baseline_copy(model, grid, include_static, baseline,
                             t_apply)
    times, residuals, index = model.evaluation_terms(t_apply)
    charges = np.where(activity.values[index], residuals, -residuals)
    _deposit_triangles(samples, grid, times, charges, CMOS_PULSE_WIDTH)
    return samples


def differential_baseline(model: BlockPowerModel, grid: TraceGrid,
                          include_static: bool = True,
                          t_apply: float = 0.0) -> np.ndarray:
    """The data-independent part of a differential (MCML-style) trace.

    Constant tail currents plus the evaluation hum: when an MCML gate
    evaluates, BOTH output rails slew (one to Vdd, one to Vdd-swing)
    whatever the data, so the hum's timing comes from static arrival
    analysis (inputs applied at ``t_apply``) and its amplitude is
    constant — "power consumption almost independent from the specific
    input patterns" (§1).  The baseline is identical for every trace of
    a campaign, so acquisition composes it once and adds only the
    per-trace mismatch residuals on top.
    """
    if model.style == "cmos":
        raise TraceError("CMOS traces have no data-independent baseline")
    if model.style == "wddl":
        raise TraceError("WDDL blocks compose through wddl_baseline")
    samples = np.zeros(grid.n)
    if include_static:
        samples += model.static_current()
    times, charges = [], []
    for inst_name, arrival in model.arrival_times(t_apply).items():
        ip = model.instances.get(inst_name)
        if ip is None or ip.style == "cmos":
            continue
        times.append(arrival)
        charges.append(MCML_BLIP_FRACTION * ip.static * MCML_BLIP_WIDTH)
    _deposit_triangles(samples, grid, np.asarray(times),
                       np.asarray(charges), MCML_BLIP_WIDTH)
    return samples


def _residual_levels(residuals: np.ndarray, activity: TransitionActivity,
                     grid: TraceGrid) -> Optional[np.ndarray]:
    """Running mismatch-residual sum sampled on the grid (None if flat).

    Each transition of a cell with a nonzero residual steps the sum by
    +residual (output rose) or -residual (fell); the steps are summed in
    (time, step) order.
    """
    steps = residuals[activity.nets]
    moved = steps != 0.0
    if not moved.any():
        return None
    times = activity.times[moved]
    steps = np.where(activity.values[moved], steps[moved], -steps[moved])
    order = np.lexsort((steps, times))
    cumulative = np.cumsum(steps[order])
    idx = np.searchsorted(times[order], grid.times(), side="right")
    return np.where(idx > 0, cumulative[np.maximum(idx - 1, 0)], 0.0)


def activity_current(model: BlockPowerModel, activity: TransitionActivity,
                     grid: TraceGrid,
                     include_static: bool = True,
                     baseline: Optional[np.ndarray] = None) -> np.ndarray:
    """Supply-current samples over ``grid`` for one cycle's transitions.

    ``baseline``, for differential styles only, is a precomputed
    :func:`differential_baseline` (with matching ``include_static``) to
    reuse across many traces of one campaign; it is never mutated.
    """
    if model.style == "wddl":
        raise TraceError(
            "WDDL traces are phase-composed from settled values, not a "
            "transition stream; use wddl_current")
    charges, residuals = model.net_terms
    if model.style == "cmos":
        if baseline is not None:
            raise TraceError("baseline reuse only applies to MCML styles")
        samples = np.zeros(grid.n)
        if include_static:
            samples += model.static_current()
        _deposit_triangles(samples, grid, activity.times,
                           charges[activity.nets], CMOS_PULSE_WIDTH)
        return samples
    samples = _baseline_copy(model, grid, include_static, baseline, 0.0)
    levels = _residual_levels(residuals, activity, grid)
    if levels is not None:
        samples += levels
    return samples
