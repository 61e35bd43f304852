"""Gate-level netlists, event-driven simulation, timing, VCD and SDF.

This package replaces the gate-level half of the paper's flow: the
post-synthesis netlist (Design Compiler output), the ModelSim logic
simulation that produced the VCD stimuli, the SDF back-annotation, and
the static timing numbers reported in Table 3.
"""

from .graph import GateNetlist, Instance, Net
from .logicsim import LogicSimulator, Transition, SimulationTrace
from .lanes import LaneSimulator, LaneTrace
from .timing import static_timing, TimingReport, wire_delay
from .vcd import write_vcd, read_vcd
from .sdf import annotate_delays, write_sdf, read_sdf
from .verilog import write_verilog, read_verilog
from .equivalence import (
    check_equivalence,
    netlist_to_bdds,
    verify_against_tables,
)

__all__ = [
    "GateNetlist",
    "Instance",
    "Net",
    "LogicSimulator",
    "Transition",
    "SimulationTrace",
    "LaneSimulator",
    "LaneTrace",
    "static_timing",
    "TimingReport",
    "wire_delay",
    "write_vcd",
    "read_vcd",
    "annotate_delays",
    "write_sdf",
    "read_sdf",
    "write_verilog",
    "read_verilog",
    "check_equivalence",
    "netlist_to_bdds",
    "verify_against_tables",
]
