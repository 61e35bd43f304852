"""A small SPICE-class analog circuit simulator.

The paper's entire evaluation rests on transistor-level simulation
(HSPICE-class accuracy for cells, Synopsys Nanosim for blocks).  This
package replaces those proprietary tools for cell-level work:

* :mod:`repro.spice.mosfet` — a smooth EKV-style MOSFET model valid from
  subthreshold to strong inversion (the same first-order physics that
  make MCML work: saturated tail current, triode PMOS loads, exponential
  subthreshold leakage);
* :mod:`repro.spice.devices` — device classes (MOSFET, resistor,
  capacitor, sources) with a uniform terminal-current interface;
* :mod:`repro.spice.circuit` — the netlist container;
* :mod:`repro.spice.dc` — Newton-Raphson operating-point solver with
  damping and gmin stepping;
* :mod:`repro.spice.recovery` — the convergence-recovery ladder (gmin,
  source stepping, pseudo-transient) with per-strategy diagnostics;
* :mod:`repro.spice.transient` — fixed-step backward-Euler transient
  analysis with local step-halving retry on Newton failures;
* :mod:`repro.spice.batch` — the same transient marched in lockstep over
  circuits of any dense topology (Fig. 3's buffer sweep, Table 2's
  cells), byte-identical to serial runs;
* :mod:`repro.spice.waveform` — waveform storage and measurements
  (crossings, delays, averages, charge integrals);
* :mod:`repro.spice.stimulus` — DC / pulse / PWL / clock stimuli.

Block-level current simulation (thousands of cells over microseconds) is
done by the calibrated fast models in :mod:`repro.power`, exactly as the
paper switches from SPICE to a fast-SPICE tool for the ISE block.
"""

from .waveform import Waveform
from .stimulus import DC, Pulse, PWL, Clock, Stimulus
from .mosfet import MosfetModel
from .devices import Mosfet, Resistor, Capacitor, VSource, ISource
from .circuit import Circuit, GROUND
from .dc import solve_dc, OperatingPoint
from .sparse import SparseAssembly
from .opcache import OperatingPointCache
from .deck import DeckInfo, parse_spice_deck, write_spice_deck, write_subckt
from .erc import (
    ErcFinding,
    ErcReport,
    check_circuit,
    erc_enabled,
    erc_preflight,
)
from .recovery import (
    NewtonStats,
    RecoveryPolicy,
    SolveBudget,
    SolverDiagnostics,
    StrategyAttempt,
    UNLIMITED_BUDGET,
    solve_with_recovery,
)
from .sweep import dc_sweep, SweepResult
from .transient import TransientResult, TransientStats, run_transient
from .batch import run_transient_batch, solve_dc_batch
from .analysis import (
    differential_delay,
    propagation_delay,
    measure_swing,
    average_supply_current,
)
from .backend import (
    InternalBackend,
    NgspiceBackend,
    SimulatorBackend,
    SupervisorPolicy,
    available_backends,
    default_backend,
    get_backend,
    reset_default_backend,
    set_default_backend,
)

__all__ = [
    "Waveform",
    "DC",
    "Pulse",
    "PWL",
    "Clock",
    "Stimulus",
    "MosfetModel",
    "Mosfet",
    "Resistor",
    "Capacitor",
    "VSource",
    "ISource",
    "Circuit",
    "GROUND",
    "solve_dc",
    "solve_dc_batch",
    "OperatingPoint",
    "SparseAssembly",
    "OperatingPointCache",
    "ErcFinding",
    "ErcReport",
    "check_circuit",
    "erc_enabled",
    "erc_preflight",
    "NewtonStats",
    "RecoveryPolicy",
    "SolveBudget",
    "SolverDiagnostics",
    "StrategyAttempt",
    "UNLIMITED_BUDGET",
    "solve_with_recovery",
    "dc_sweep",
    "SweepResult",
    "DeckInfo",
    "parse_spice_deck",
    "write_spice_deck",
    "write_subckt",
    "InternalBackend",
    "NgspiceBackend",
    "SimulatorBackend",
    "SupervisorPolicy",
    "available_backends",
    "default_backend",
    "get_backend",
    "reset_default_backend",
    "set_default_backend",
    "TransientResult",
    "TransientStats",
    "run_transient",
    "run_transient_batch",
    "differential_delay",
    "propagation_delay",
    "measure_swing",
    "average_supply_current",
]
