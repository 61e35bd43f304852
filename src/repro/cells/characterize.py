"""Cell characterisation by transistor-level simulation.

Reproduces what the authors did with HSPICE on every library cell:
stimulate one input with a differential pulse while holding the others at
sensitising values, simulate the transient, and measure the differential
propagation delay, output swing, and supply current — plus DC leakage in
active and sleep modes.

A measurement is two halves around one transient: the wired testbench
(:func:`mcml_testbench`) and a measurer of the simulated
:class:`~repro.spice.transient.TransientResult`
(:func:`measure_mcml_cell`).  :func:`characterize_mcml_cell` runs one
testbench; Fig. 3 builds all of its testbenches and simulates them in
one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import CharacterizationError
from ..spice import (
    DC,
    Circuit,
    Pulse,
    TransientResult,
    differential_delay,
)
# Characterisation goes through the backend seam: the dispatch pair
# resolves to the internal engine by default (byte-identical call) and
# to an external simulator under REPRO_SPICE_BACKEND / --backend.
from ..spice.backend.dispatch import run_transient, solve_dc
from ..tech import Technology, TECH90
from ..units import ns, ps
from .functions import CellFunction
from .mcml import McmlCellGenerator


@dataclass(frozen=True)
class CellMeasurement:
    """What one characterisation run produced."""

    cell_name: str
    delay: float
    swing: float
    iss: float
    toggled_pin: str
    sleep_leak: Optional[float] = None

    def __repr__(self) -> str:
        base = (f"CellMeasurement({self.cell_name}: d={self.delay * 1e12:.4g}ps, "
                f"swing={self.swing:.3g}V, iss={self.iss * 1e6:.4g}uA")
        if self.sleep_leak is not None:
            base += f", sleep={self.sleep_leak * 1e9:.3g}nA"
        return base + ")"


def sensitising_assignment(fn: CellFunction) -> Tuple[str, Dict[str, bool], str]:
    """Find a pin and side-input assignment that toggles an output.

    Returns ``(pin, side_values, output)`` such that flipping ``pin``
    under ``side_values`` flips ``output`` — the boolean-difference
    condition every delay measurement needs.
    """
    if fn.sequential:
        raise CharacterizationError(
            f"{fn.name}: use latch-specific stimuli for sequential cells")
    others_of = {pin: [x for x in fn.inputs if x != pin] for pin in fn.inputs}
    for pin in fn.inputs:
        others = others_of[pin]
        for code in range(1 << len(others)):
            side = {
                other: bool((code >> k) & 1)
                for k, other in enumerate(others)
            }
            low = fn.evaluate({**side, pin: False})
            high = fn.evaluate({**side, pin: True})
            for out in fn.outputs:
                if low[out] != high[out]:
                    return pin, side, out
    raise CharacterizationError(
        f"{fn.name}: no input toggles any output (constant function?)")


#: Routing capacitance per output rail: a stub plus one fat-wire branch
#: per fanout destination.  Unlike the destination gate capacitance this
#: does NOT scale with the cell's own bias current, which is what makes
#: the Fig. 3 delay saturate at high Iss.
WIRE_CAP_BASE = 0.8e-15
WIRE_CAP_PER_FANOUT = 0.7e-15


@dataclass(frozen=True)
class CellTestbench:
    """A cell wired for one delay measurement, and what to read back."""

    circuit: Circuit
    cell_name: str
    toggled_pin: str
    inputs: Tuple[str, str]
    outputs: Tuple[str, str]
    vdd_net: str
    window: float
    dt: float

    @property
    def record(self) -> List[str]:
        """The nodes the measurement reads."""
        return [*self.inputs, *self.outputs, self.vdd_net]


def _bias_rails(ckt: Circuit, cell, sizing, tech: Technology,
                awake: bool = True) -> None:
    """Supply, bias and (PG-MCML) sleep-signal sources."""
    ckt.v("vdd", cell.vdd_net, tech.vdd)
    ckt.v("vvn", cell.vn_net, sizing.vn)
    ckt.v("vvp", cell.vp_net, sizing.vp)
    if cell.has_sleep:
        ckt.v("vsleep", cell.sleep_net, tech.vdd if awake else 0.0)


def _toggle(ckt: Circuit, name: str, nets: Tuple[str, str], vlo: float,
            vhi: float, window: float) -> None:
    """A differential pulse that flips ``nets`` at mid-window."""
    edge = ps(10)
    half = window / 2
    ckt.v(f"{name}_p", nets[0], Pulse(vlo, vhi, half, edge, edge, window, 0.0))
    ckt.v(f"{name}_n", nets[1], Pulse(vhi, vlo, half, edge, edge, window, 0.0))


def mcml_testbench(fn: CellFunction, generator: McmlCellGenerator,
                   fanout: int = 1, tech: Technology = TECH90,
                   dt: float = ps(0.5),
                   window: float = ns(0.8)) -> CellTestbench:
    """Wire a generated MCML or PG-MCML cell for a delay measurement.

    The toggling input gets a differential pulse; each output rail is
    loaded with ``fanout`` buffer inputs plus the routing capacitance.
    """
    pin, side, out = sensitising_assignment(fn)
    sizing = generator.sizing
    load = (fanout * generator.input_capacitance()
            + WIRE_CAP_BASE + WIRE_CAP_PER_FANOUT * fanout)
    cell = generator.build(fn, load_cap=load)
    ckt = cell.circuit
    _bias_rails(ckt, cell, sizing, tech)
    vhi, vlo = sizing.input_high(tech), sizing.input_low(tech)
    _toggle(ckt, "vstim", cell.input_nets[pin], vlo, vhi, window)
    for other, value in side.items():
        o_p, o_n = cell.input_nets[other]
        ckt.v(f"vside_{other.lower()}_p", o_p, DC(vhi if value else vlo))
        ckt.v(f"vside_{other.lower()}_n", o_n, DC(vlo if value else vhi))
    return CellTestbench(circuit=ckt, cell_name=fn.name, toggled_pin=pin,
                         inputs=cell.input_nets[pin],
                         outputs=cell.output_nets[out],
                         vdd_net=cell.vdd_net, window=window, dt=dt)


def measure_mcml_cell(bench: CellTestbench,
                      result: TransientResult) -> CellMeasurement:
    """Delay, swing and supply current of one simulated testbench."""
    in_p, in_n = bench.inputs
    out_p, out_n = bench.outputs
    half = bench.window / 2
    delay = differential_delay(result, in_p, in_n, out_p, out_n,
                               after=half * 0.9)
    swing = result.differential(out_p, out_n).settle_value(0.1)
    iss = result.current("vdd").average(t0=bench.window * 0.75)
    return CellMeasurement(cell_name=bench.cell_name, delay=delay,
                           swing=abs(swing), iss=iss,
                           toggled_pin=bench.toggled_pin)


def _simulate(bench: CellTestbench) -> CellMeasurement:
    result = run_transient(bench.circuit, tstop=bench.window, dt=bench.dt,
                           record=bench.record)
    return measure_mcml_cell(bench, result)


def characterize_mcml_cell(fn: CellFunction, generator: McmlCellGenerator,
                           fanout: int = 1, tech: Technology = TECH90,
                           dt: float = ps(0.5),
                           window: float = ns(0.8)) -> CellMeasurement:
    """Measure delay/swing/current of a generated MCML or PG-MCML cell
    (see :func:`mcml_testbench`)."""
    return _simulate(mcml_testbench(fn, generator, fanout, tech, dt, window))


def characterize_mcml_dff(generator: McmlCellGenerator,
                          tech: Technology = TECH90, dt: float = ps(0.5),
                          window: float = ns(1.6)) -> CellMeasurement:
    """Clock-to-Q measurement of the master-slave CML flip-flop.

    D is held high throughout; CK rises mid-window; the measurement is
    the differential CK crossing to the differential Q crossing.
    """
    from .functions import function  # local import avoids a cycle

    sizing = generator.sizing
    cell = generator.build(function("DFF"),
                           load_cap=generator.input_capacitance())
    ckt = cell.circuit
    _bias_rails(ckt, cell, sizing, tech)
    vhi, vlo = sizing.input_high(tech), sizing.input_low(tech)
    d_p, d_n = cell.input_nets["D"]
    ckt.v("vd_p", d_p, DC(vhi))
    ckt.v("vd_n", d_n, DC(vlo))
    _toggle(ckt, "vck", cell.input_nets["CK"], vlo, vhi, window)
    return _simulate(CellTestbench(
        circuit=ckt, cell_name="DFF", toggled_pin="CK",
        inputs=cell.input_nets["CK"], outputs=cell.output_nets["Q"],
        vdd_net=cell.vdd_net, window=window, dt=dt))


def measure_leakage(fn: CellFunction, generator: McmlCellGenerator,
                    asleep: bool, tech: Technology = TECH90) -> float:
    """DC supply current with static inputs, optionally in sleep mode."""
    sizing = generator.sizing
    cell = generator.build(fn)
    if asleep and not cell.has_sleep:
        raise CharacterizationError(
            f"{fn.name}: conventional MCML has no sleep mode")
    ckt = cell.circuit
    _bias_rails(ckt, cell, sizing, tech, awake=not asleep)
    vhi, vlo = sizing.input_high(tech), sizing.input_low(tech)
    for pin in fn.inputs:
        in_p, in_n = cell.input_nets[pin]
        ckt.v(f"vin_{pin.lower()}_p", in_p, DC(vhi))
        ckt.v(f"vin_{pin.lower()}_n", in_n, DC(vlo))
    op = solve_dc(ckt)
    return op.current("vdd")
