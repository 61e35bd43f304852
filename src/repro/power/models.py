"""Per-instance power parameters and block summaries."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from ..errors import TraceError
from ..netlist import GateNetlist
from ..tech import Technology, TECH90

#: Width of the CMOS switching-current packet, seconds.
CMOS_PULSE_WIDTH = 100e-12
#: Width of the MCML switching disturbance, seconds.
MCML_BLIP_WIDTH = 50e-12
#: Amplitude of the (data-independent) MCML switching disturbance as a
#: fraction of the cell's tail current.
MCML_BLIP_FRACTION = 0.05


@dataclass(frozen=True)
class InstancePower:
    """Calibrated current contribution of one placed cell."""

    name: str
    style: str
    #: static supply current while powered, amperes
    static: float
    #: charge per output toggle (CMOS) or per evaluate phase (WDDL),
    #: coulombs
    toggle_charge: float
    #: data-dependent residual: extra static current when the output is
    #: high (MCML mismatch term, amperes), or the signed true/false rail
    #: charge imbalance (WDDL, coulombs); zero for CMOS
    residual: float
    #: sleep-mode leakage (PG-MCML), amperes
    sleep_leak: float
    has_sleep: bool


class BlockPowerModel:
    """Current model of one mapped netlist.

    The mismatch residuals are drawn from a seeded generator: the same
    seed models the same fabricated die, so an attack campaign sees a
    consistent leakage pattern across traces (as a real chip would),
    while different seeds model different dies.
    """

    def __init__(self, netlist: GateNetlist, tech: Technology = TECH90,
                 seed: int = 0):
        self.netlist = netlist
        self.tech = tech
        self.style = netlist.library.style
        rng = np.random.default_rng(seed)
        self._arrivals: Dict[float, Dict[str, float]] = {}
        self._evaluation_terms: Dict[
            float, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.instances: Dict[str, InstancePower] = {}
        for inst in netlist.instances.values():
            if inst.cell.pseudo:
                continue
            power = inst.cell.power
            if power.style == "cmos":
                self.instances[inst.name] = InstancePower(
                    name=inst.name, style="cmos",
                    static=power.leak,
                    toggle_charge=power.energy_toggle / tech.vdd,
                    residual=0.0, sleep_leak=power.leak,
                    has_sleep=False)
            elif power.style == "wddl":
                # The per-evaluation charge is data-independent; the
                # per-die rail imbalance (a signed charge) is the whole
                # leakage channel — see repro.cells.wddl.
                self.instances[inst.name] = InstancePower(
                    name=inst.name, style="wddl",
                    static=power.leak,
                    toggle_charge=power.energy_toggle / tech.vdd,
                    residual=float(rng.normal(0.0, power.residual_sigma)),
                    sleep_leak=power.leak,
                    has_sleep=False)
            else:
                residual = float(rng.normal(0.0, power.residual_sigma))
                self.instances[inst.name] = InstancePower(
                    name=inst.name, style=power.style,
                    static=power.iss,
                    toggle_charge=0.0,
                    residual=residual,
                    sleep_leak=power.sleep_leak,
                    has_sleep=power.has_sleep)

    # -- static aggregates ---------------------------------------------------

    def static_current(self, asleep: bool = False) -> float:
        """Total quiescent supply current.

        For a PG-MCML block, ``asleep`` selects sleep mode: gated cells
        fall to their sleep leakage while the CMOS sleep-tree buffers
        keep their (static CMOS) leakage.
        """
        total = 0.0
        for ip in self.instances.values():
            if asleep:
                if ip.has_sleep:
                    total += ip.sleep_leak
                elif ip.style in ("cmos", "wddl"):
                    total += ip.static
                else:
                    raise TraceError(
                        "conventional MCML cells cannot sleep; only "
                        "PG-MCML blocks support asleep=True")
            else:
                total += ip.static
        return total

    def average_power(self, awake_fraction: float = 1.0,
                      toggle_rate: float = 0.0) -> float:
        """Long-run average power in watts.

        ``awake_fraction`` is the fraction of time the block is powered
        (always 1 for CMOS and conventional MCML); ``toggle_rate`` is the
        average output-toggle frequency per CMOS instance in Hz.
        """
        if not 0.0 <= awake_fraction <= 1.0:
            raise TraceError("awake fraction must be within [0, 1]")
        vdd = self.tech.vdd
        total = 0.0
        for ip in self.instances.values():
            if ip.style in ("cmos", "wddl"):
                total += vdd * (ip.static + ip.toggle_charge * toggle_rate)
            elif ip.has_sleep:
                total += vdd * (ip.static * awake_fraction
                                + ip.sleep_leak * (1.0 - awake_fraction))
            else:
                total += vdd * ip.static
        return total

    def residual_for(self, inst_name: str) -> float:
        return self.instances[inst_name].residual

    @cached_property
    def net_terms(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(toggle charge, residual)`` of each net's driving instance.

        Both arrays are indexed by a net's position in ``netlist.nets``
        (the index a :class:`~repro.power.trace.TransitionActivity`
        stores) and hold zero where no modelled cell drives the net.  A
        CMOS toggle's charge scales with the driven load relative to
        the cell's characterisation load (its own input): bigger
        fanout, more charge per toggle.  Cached: a die's constants.
        """
        netlist = self.netlist
        position = {name: i for i, name in enumerate(netlist.nets)}
        charges = np.zeros(len(position))
        residuals = np.zeros(len(position))
        for name, ip in self.instances.items():
            inst = netlist.instances[name]
            ref = max(inst.cell.input_cap, 1e-18)
            for pin in inst.cell.outputs:
                net = inst.pins[pin]
                load = netlist.load_cap(net)
                charges[position[net]] = \
                    ip.toggle_charge * max(load / ref, 0.25)
                residuals[position[net]] = ip.residual
        return charges, residuals

    def evaluation_terms(self, t_apply: float = 0.0,
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(arrival time, residual, instance position)`` of every
        modelled instance with a nonzero residual, in
        :meth:`arrival_times` order, for inputs applied at ``t_apply``.

        The position indexes ``self.instances`` (the order of a
        :class:`~repro.power.trace.SettledActivity`).  Cached per
        ``t_apply``: a die's constants.
        """
        cached = self._evaluation_terms.get(t_apply)
        if cached is not None:
            return cached
        position = {name: i for i, name in enumerate(self.instances)}
        terms = [(arrival, self.instances[name].residual, position[name])
                 for name, arrival in self.arrival_times(t_apply).items()
                 if name in position and self.instances[name].residual != 0.0]
        cached = self._evaluation_terms[t_apply] = (
            np.array([t for t, _, _ in terms], dtype=float),
            np.array([r for _, r, _ in terms], dtype=float),
            np.array([i for _, _, i in terms], dtype=np.intp))
        return cached

    def arrival_times(self, t_apply: float = 0.0) -> Dict[str, float]:
        """Static output-arrival time per instance (inputs at t_apply).

        Used by the differential current composer: an MCML gate's rails
        both slew when it evaluates, drawing a charge packet that is
        data-independent to first order — so its timing comes from
        static analysis, not from the (data-dependent) toggle stream.
        Cached per ``t_apply``: the profile is a property of the
        netlist and the apply time, not the trace.
        """
        cached = self._arrivals.get(t_apply)
        if cached is not None:
            return cached
        arrivals: Dict[str, float] = {}
        net_time: Dict[str, float] = {
            n: t_apply for n in self.netlist.primary_inputs}
        for inst in self.netlist.sequential_instances():
            delay = self.netlist.instance_delay(inst)
            arrivals[inst.name] = t_apply + delay
            for pin in inst.cell.outputs:
                net_time[inst.pins[pin]] = t_apply + delay
        for inst in self.netlist.levelize():
            delay = self.netlist.instance_delay(inst)
            worst = max((net_time.get(n, t_apply)
                         for n in inst.input_nets()), default=t_apply)
            arrivals[inst.name] = worst + delay
            for pin in inst.cell.outputs:
                net_time[inst.pins[pin]] = worst + delay
        self._arrivals[t_apply] = arrivals
        return arrivals

    def __repr__(self) -> str:
        return (f"BlockPowerModel({self.netlist.name}/{self.style}: "
                f"{len(self.instances)} cells, "
                f"Istatic={self.static_current() * 1e3:.3g} mA)")
