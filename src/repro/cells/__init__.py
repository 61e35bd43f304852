"""Standard cells: functions, generators, layout, characterisation, libraries.

This package is the heart of the reproduction.  It models the three cell
families the paper compares:

* **static CMOS** — the commercial 90 nm reference library;
* **MCML** — Badel-style differential current-mode cells (constant tail
  current, BDD-structured NMOS network, triode PMOS loads);
* **PG-MCML** — the paper's contribution: MCML plus a fine-grain sleep
  transistor stacked on the tail current source (topology (d) of Fig. 2).

Cell *datasheets* (area, delay, current, leakage) are held by
:class:`~repro.cells.library.Library`.  Datasheet geometry reproduces the
published layouts (Tables 1 and 2); electrical values can either be taken
from the paper (``source="paper"``) or re-derived by simulating the
generated transistor netlists with :mod:`repro.spice`
(:mod:`repro.cells.characterize`).
"""

from .functions import CellFunction, FUNCTIONS, function
from .cell import Cell, DelayModel, PowerModel
from .layout import (
    LayoutModel,
    SITE_COUNTS_MCML,
    SITE_COUNTS_CMOS,
    SITE_COUNTS_WDDL,
)
from .mcml import McmlCellGenerator, McmlSizing
from .pgmcml import PgMcmlCellGenerator, PowerGateTopology
from .cmos import CmosCellGenerator
from .bias import BiasPoint, solve_bias, solve_biases
from .characterize import (
    CellMeasurement,
    CellTestbench,
    characterize_mcml_cell,
    characterize_mcml_dff,
    mcml_testbench,
    measure_leakage,
    measure_mcml_cell,
)
from .montecarlo import (
    McmlMonteCarloResult,
    mc_buffer_residual,
    mc_input_offset,
)
from .library import (
    Library,
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
    library_at_corner,
    preflight_library,
)
from .wddl import WddlCellGenerator, build_wddl_library
from .io import load_library, save_library, library_to_dict, library_from_dict
from .liberty import write_liberty

__all__ = [
    "CellFunction",
    "FUNCTIONS",
    "function",
    "Cell",
    "DelayModel",
    "PowerModel",
    "LayoutModel",
    "SITE_COUNTS_MCML",
    "SITE_COUNTS_CMOS",
    "SITE_COUNTS_WDDL",
    "McmlCellGenerator",
    "McmlSizing",
    "PgMcmlCellGenerator",
    "PowerGateTopology",
    "CmosCellGenerator",
    "BiasPoint",
    "solve_bias",
    "solve_biases",
    "CellMeasurement",
    "characterize_mcml_cell",
    "characterize_mcml_dff",
    "CellTestbench",
    "mcml_testbench",
    "measure_mcml_cell",
    "measure_leakage",
    "McmlMonteCarloResult",
    "mc_buffer_residual",
    "mc_input_offset",
    "Library",
    "build_cmos_library",
    "build_mcml_library",
    "build_pg_mcml_library",
    "build_wddl_library",
    "WddlCellGenerator",
    "library_at_corner",
    "preflight_library",
    "load_library",
    "save_library",
    "library_to_dict",
    "library_from_dict",
    "write_liberty",
]
