"""Library construction: the three cell families under comparison.

The datasheet numbers encode the published library (Tables 1 and 2 of the
paper) plus the derived quantities the paper states in prose:

* PG-MCML delays are Table 2's column; conventional MCML is ~2.7 % faster
  (the Table 3 block delays: 0.698 ns vs 0.717 ns) because removing the
  sleep device recovers a little tail headroom;
* the CMOS reference is ~12 % faster at block level (0.630 ns vs
  0.717 ns), and its per-cell areas follow the paper's MCML/CMOS area
  ratio column;
* every MCML/PG-MCML cell draws one 50 µA tail per output tree (the Fig. 3
  area-delay optimum); two-phase sequential cells draw two;
* PG-MCML sleep leakage reflects the stacked high-Vt sleep transistor
  with negative VGS (§4), simulated at ~100 pA/tail by
  :func:`repro.cells.characterize.measure_leakage`;
* CMOS static leakage is the 90 nm low-Vt reality that makes the paper's
  Table 3 CMOS number leakage-dominated (~5 nA per placement site).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..errors import CellError
from ..tech import Technology, TECH90
from ..units import fF, nA, ps, uA
from .cell import Cell, DelayModel, PowerModel
from .characterize import characterize_mcml_cell, measure_leakage
from .functions import function
from .layout import LayoutModel
from .mcml import McmlCellGenerator, McmlSizing
from .pgmcml import PgMcmlCellGenerator

#: Table 2: PG-MCML cell delays (seconds) at the 50 µA bias point.
PAPER_PG_DELAYS: Dict[str, float] = {
    "BUF": ps(23.97),
    "DIFF2SINGLE": ps(80.41),
    "AND2": ps(41.34),
    "AND3": ps(68.74),
    "AND4": ps(99.96),
    "MUX2": ps(43.58),
    "MUX4": ps(87.11),
    "MAJ32": ps(82.32),
    "XOR2": ps(44.26),
    "XOR3": ps(84.37),
    "XOR4": ps(109.68),
    "DLATCH": ps(36.32),
    "DFF": ps(53.4),
    "DFFR": ps(69.33),
    "EDFF": ps(63.53),
    "FA": ps(84.49),
}

#: Table 2: MCML-area / CMOS-area ratios the paper reports.
PAPER_AREA_RATIOS: Dict[str, float] = {
    "BUF": 2.4,
    "AND2": 1.9,
    "AND3": 2.1,
    "AND4": 2.8,
    "MUX2": 1.2,
    "MUX4": 1.2,
    "XOR2": 1.1,
    "XOR3": 1.1,
    "XOR4": 1.1,
    "DLATCH": 1.3,
    "DFF": 1.3,
    "DFFR": 1.8,
    "FA": 1.4,
}

#: The 16 cells of the paper's PG-MCML library (Table 2 order).
PG_MCML_CELL_NAMES: Tuple[str, ...] = (
    "BUF", "DIFF2SINGLE", "AND2", "AND3", "AND4", "MUX2", "MUX4",
    "MAJ32", "XOR2", "XOR3", "XOR4", "DLATCH", "DFF", "DFFR", "EDFF", "FA",
)

#: Extra cells our flow also uses (boundary + sleep-tree support).
MCML_SUPPORT_CELLS: Tuple[str, ...] = ("SINGLE2DIFF", "BUFX4")

CMOS_CELL_NAMES: Tuple[str, ...] = (
    "INV", "BUF", "BUFX4", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3",
    "AND2", "AND3", "AND4", "OR2", "MUX2", "MUX4", "MAJ32", "XOR2", "XOR3",
    "XOR4", "XNOR2", "DLATCH", "DFF", "DFFR", "EDFF", "FA", "TIEH", "TIEL",
)

#: Slowdown of PG-MCML vs conventional MCML (Table 3: 0.717/0.698).
PG_VS_MCML_DELAY = 0.717 / 0.698
#: Speedup of the CMOS reference vs PG-MCML (Table 3: 0.630/0.717).
CMOS_VS_PG_DELAY = 0.630 / 0.717

#: Tail trees per cell (one 50 µA tail each).
TAILS_PER_CELL: Dict[str, int] = {
    "DFF": 2, "DFFR": 2, "EDFF": 2, "FA": 2,
}

#: Nominal per-tail current at the Fig. 3 optimum.
NOMINAL_ISS = uA(50)
#: Simulated sleep-mode leakage per tail (stacked high-Vt, negative VGS).
SLEEP_LEAK_PER_TAIL = nA(0.1)
#: Residual data-dependent current sigma per tail — the only
#: data-dependent DC term a balanced MCML gate has left.  Derived from
#: Monte-Carlo transistor-level simulation of Pelgrom-mismatched buffers
#: (:func:`repro.cells.montecarlo.mc_buffer_residual`: ~0.1 uA RMS at
#: Avt = 3.5 mV.um), and consistent with the hand estimate of load
#: mismatch acting through the tail's output conductance.
RESIDUAL_SIGMA_PER_TAIL = nA(100)
#: CMOS static leakage per placement site (low-Vt subthreshold + gate).
CMOS_LEAK_PER_SITE = nA(5)
#: CMOS switching energy: effective 2 fF + 0.6 fF/site at Vdd.
CMOS_ENERGY_BASE_CAP = fF(2.0)
CMOS_ENERGY_SITE_CAP = fF(0.6)

#: Differential input capacitance of an MCML pair input.
MCML_INPUT_CAP = fF(1.2)
#: Input capacitance of a CMOS unit gate input.
CMOS_INPUT_CAP = fF(1.6)
#: Effective CMOS drive resistance (unit drive).
CMOS_DRIVE_RES = 2.5e3
#: Sleep wake time constant of a PG-MCML cell (fraction of a clock).
PG_WAKE_TIME = ps(300)

#: Delays for CMOS-only helper cells (not present in Table 2), seconds.
CMOS_EXTRA_DELAYS: Dict[str, float] = {
    "INV": ps(12.0),
    "BUFX4": ps(24.0),
    "NAND2": ps(16.0),
    "NAND3": ps(22.0),
    "NAND4": ps(28.0),
    "NOR2": ps(18.0),
    "NOR3": ps(26.0),
    "OR2": ps(30.0),
    "XNOR2": ps(38.9),
    "TIEH": ps(1.0),
    "TIEL": ps(1.0),
}

#: Delays for MCML support cells, seconds.
MCML_EXTRA_DELAYS: Dict[str, float] = {
    "SINGLE2DIFF": ps(60.0),
    "BUFX4": ps(30.0),
    "OR2": ps(41.34),   # differential: OR2 == AND2 with swapped rails
}


@dataclass
class Library:
    """A named collection of cell datasheets of one style."""

    name: str
    style: str
    cells: Dict[str, Cell]
    tech: Technology = TECH90

    def cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            known = ", ".join(sorted(self.cells))
            raise CellError(
                f"library {self.name!r} has no cell {name!r}; "
                f"available: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self):
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    def names(self) -> List[str]:
        return sorted(self.cells)

    def total_area_um2(self, histogram: Dict[str, int]) -> float:
        """Placed area of an instance-count histogram, µm²."""
        return sum(self.cell(name).area_um2 * count
                   for name, count in histogram.items())

    def datasheet_rows(self) -> List[Tuple[str, float, float]]:
        """(name, area µm², delay ps) rows, Table 2 style."""
        return [(c.name, c.area_um2, c.delay_model.delay(c.input_cap) * 1e12)
                for c in sorted(self.cells.values(), key=lambda c: c.name)]

    def digest(self) -> str:
        """Digest of what a power trace reads from this library.

        Covers the name, the technology, and each cell's input
        capacitance, delay model and power data, so two libraries of one
        style at different corners or tail currents (which may share a
        name) never share checkpointed traces.
        """
        h = hashlib.sha256(repr((self.name, self.tech)).encode())
        for name in sorted(self.cells):
            cell = self.cells[name]
            h.update(repr((name, cell.input_cap, cell.delay_model,
                           cell.power)).encode())
        return h.hexdigest()[:16]


def _mcml_cell(name: str, style: str, layout: LayoutModel,
               iss_per_tail: float, delay: float) -> Cell:
    fn = function(name if name != "BUFX4" else "BUF")
    tails = TAILS_PER_CELL.get(name, 1)
    iss = iss_per_tail * tails
    drive = 4.0 if name.endswith("X4") else 1.0
    drive_res = 0.40 / (iss_per_tail * drive)
    intrinsic = max(delay - drive_res * MCML_INPUT_CAP, ps(1.0))
    power = PowerModel(
        style=style,
        iss=iss,
        residual_sigma=RESIDUAL_SIGMA_PER_TAIL * (tails ** 0.5),
        sleep_leak=SLEEP_LEAK_PER_TAIL * tails if style == "pgmcml" else 0.0,
        wake_time=PG_WAKE_TIME if style == "pgmcml" else 0.0,
        leak=0.0,
    )
    return Cell(
        name=name, function=fn, style=style,
        sites=layout.sites_for(name), area_um2=layout.area_um2(name),
        input_cap=MCML_INPUT_CAP, drive=drive,
        delay_model=DelayModel(intrinsic, drive_res), power=power)


def _railswap_cell(style: str) -> Cell:
    """The zero-cost differential inversion pseudo cell."""
    return Cell(
        name="RAILSWAP", function=function("RAILSWAP"), style=style,
        sites=1, area_um2=1e-9, input_cap=1e-18,
        delay_model=DelayModel(0.0, 0.0),
        power=PowerModel(style="cmos", leak=0.0, energy_toggle=0.0),
        pseudo=True, source="derived")


def _tie_cell(style: str, name: str) -> Cell:
    """Differential constant: a wire pair tied to the output rails.

    Unlike CMOS tie cells these need no transistors (the constant levels
    Vdd and Vdd-swing exist as rails), so they are pseudo cells.
    """
    return Cell(
        name=name, function=function(name), style=style,
        sites=1, area_um2=1e-9, input_cap=1e-18,
        delay_model=DelayModel(0.0, 0.0),
        power=PowerModel(style="cmos", leak=0.0, energy_toggle=0.0),
        pseudo=True, source="derived")


def _sleepbuf_cell(tech: Technology) -> Cell:
    """CMOS buffer at MCML row height for the sleep distribution tree.

    Sized so that the ~165 tree buffers of the S-box ISE account for the
    ~1000 µm² area delta between the MCML and PG-MCML blocks in Table 3.
    """
    sites = 4
    area = sites * tech.site_width_pgmcml * tech.cell_height * 1e12
    return Cell(
        name="SLEEPBUF", function=function("SLEEPBUF"), style="cmos",
        sites=sites, area_um2=area, input_cap=CMOS_INPUT_CAP, drive=4.0,
        delay_model=DelayModel(ps(20.0), CMOS_DRIVE_RES / 4.0),
        power=PowerModel(
            style="cmos",
            leak=CMOS_LEAK_PER_SITE * sites,
            energy_toggle=(CMOS_ENERGY_BASE_CAP
                           + CMOS_ENERGY_SITE_CAP * sites) * tech.vdd ** 2),
        source="derived")


def build_pg_mcml_library(tech: Technology = TECH90,
                          iss: float = NOMINAL_ISS,
                          include_support: bool = True) -> Library:
    """The paper's 16-cell PG-MCML library (plus flow-support cells)."""
    layout = LayoutModel("pgmcml", tech)
    cells: Dict[str, Cell] = {}
    if iss <= 0.0:
        raise CellError("library tail current must be positive")
    for name in PG_MCML_CELL_NAMES:
        # Delay scales inversely with the tail current (R = swing / Iss).
        delay = PAPER_PG_DELAYS[name] * (NOMINAL_ISS / iss)
        cells[name] = _mcml_cell(name, "pgmcml", layout, iss, delay)
    if include_support:
        for name in MCML_SUPPORT_CELLS + ("OR2",):
            delay = MCML_EXTRA_DELAYS[name] * (NOMINAL_ISS / iss)
            cells[name] = _mcml_cell(name, "pgmcml", layout, iss, delay)
        cells["RAILSWAP"] = _railswap_cell("pgmcml")
        cells["SLEEPBUF"] = _sleepbuf_cell(tech)
        cells["TIEH"] = _tie_cell("pgmcml", "TIEH")
        cells["TIEL"] = _tie_cell("pgmcml", "TIEL")
    return Library(name="pg_mcml_90nm", style="pgmcml", cells=cells,
                   tech=tech)


def build_mcml_library(tech: Technology = TECH90,
                       iss: float = NOMINAL_ISS,
                       include_support: bool = True) -> Library:
    """Conventional (non-gated) MCML: Badel-style, same site counts on
    the narrower MCML site, slightly faster, no sleep mode."""
    layout = LayoutModel("mcml", tech)
    cells: Dict[str, Cell] = {}
    names = PG_MCML_CELL_NAMES + (
        MCML_SUPPORT_CELLS + ("OR2",) if include_support else ())
    for name in names:
        pg_delay = PAPER_PG_DELAYS.get(name, MCML_EXTRA_DELAYS.get(name))
        delay = pg_delay / PG_VS_MCML_DELAY * (NOMINAL_ISS / iss)
        cells[name] = _mcml_cell(name, "mcml", layout, iss, delay)
    if include_support:
        cells["RAILSWAP"] = _railswap_cell("mcml")
        cells["TIEH"] = _tie_cell("mcml", "TIEH")
        cells["TIEL"] = _tie_cell("mcml", "TIEL")
    return Library(name="mcml_90nm", style="mcml", cells=cells, tech=tech)


def build_cmos_library(tech: Technology = TECH90) -> Library:
    """The commercial-style 90 nm static CMOS reference library."""
    layout = LayoutModel("cmos", tech)
    cells: Dict[str, Cell] = {}
    for name in CMOS_CELL_NAMES:
        fn = function(name if name != "BUFX4" else "BUF")
        if name in PAPER_PG_DELAYS:
            delay = PAPER_PG_DELAYS[name] * CMOS_VS_PG_DELAY
        else:
            delay = CMOS_EXTRA_DELAYS[name]
        drive = 4.0 if name.endswith("X4") else 1.0
        drive_res = CMOS_DRIVE_RES / drive
        intrinsic = max(delay - drive_res * CMOS_INPUT_CAP, ps(0.5))
        sites = layout.sites_for(name)
        energy_cap = CMOS_ENERGY_BASE_CAP + CMOS_ENERGY_SITE_CAP * sites
        power = PowerModel(
            style="cmos",
            leak=CMOS_LEAK_PER_SITE * sites,
            energy_toggle=energy_cap * tech.vdd ** 2,
        )
        cells[name] = Cell(
            name=name, function=fn, style="cmos", sites=sites,
            area_um2=layout.area_um2(name), input_cap=CMOS_INPUT_CAP,
            drive=drive, delay_model=DelayModel(intrinsic, drive_res),
            power=power)
    return Library(name="cmos_90nm_ref", style="cmos", cells=cells, tech=tech)


def characterize_library_cell(library: Library, cell_name: str,
                              fanout: int = 1,
                              sizing: Optional[McmlSizing] = None) -> Cell:
    """Re-derive one MCML/PG-MCML cell's datasheet by SPICE simulation.

    Returns an updated :class:`Cell` (the library is not mutated); used
    by the Table 2 benchmark to compare paper-vs-simulated values.
    """
    cell = library.cell(cell_name)
    if library.style == "cmos":
        raise CellError("characterize_library_cell supports MCML styles; "
                        "CMOS gates are characterised via repro.cells.cmos")
    gen_cls = (PgMcmlCellGenerator if library.style == "pgmcml"
               else McmlCellGenerator)
    generator = gen_cls(library.tech, sizing or McmlSizing())
    fn = cell.function
    meas = characterize_mcml_cell(fn, generator, fanout=fanout,
                                  tech=library.tech)
    n_tails = TAILS_PER_CELL.get(cell_name, 1)
    drive_res = meas.swing / max(meas.iss / n_tails, 1e-9)
    intrinsic = max(meas.delay - drive_res * cell.input_cap, 0.0)
    sleep = None
    if library.style == "pgmcml":
        sleep = measure_leakage(fn, generator, asleep=True, tech=library.tech)
    power = PowerModel(
        style=library.style,
        iss=meas.iss,
        residual_sigma=cell.power.residual_sigma,
        sleep_leak=max(sleep, 0.0) if sleep is not None else 0.0,
        wake_time=cell.power.wake_time,
    )
    return cell.with_measurement(DelayModel(intrinsic, drive_res), power)


#: Subthreshold slope used to translate a corner's Vt shift into a
#: leakage ratio (~80 mV/decade at 90 nm).
SUBTHRESHOLD_SLOPE_V = 0.080


def library_at_corner(library: Library, corner) -> Library:
    """Datasheets shifted to a global process corner.

    ``corner`` is a :class:`repro.tech.corners.Corner`.  Delay scales
    inversely with the corner's mobility factor; CMOS and WDDL leakage
    scales exponentially with the threshold shift (subthreshold
    conduction); MCML/PG-MCML tail currents are pinned by the bias
    network, so ``iss`` — and with it the style's static signature — is
    corner-insensitive, which is exactly the §4 robustness claim the
    campaign matrix's corner axis probes.  Pseudo cells (rail swaps,
    ties) pass through unchanged.
    """
    mean_kp = 0.5 * (corner.kp_scale_n + corner.kp_scale_p)
    mean_dvt = 0.5 * (corner.dvt_n + corner.dvt_p)
    if mean_kp <= 0.0:
        raise CellError(f"corner {corner.name!r} has non-positive mobility")
    delay_scale = 1.0 / mean_kp
    leak_scale = 10.0 ** (-mean_dvt / SUBTHRESHOLD_SLOPE_V)
    cells: Dict[str, Cell] = {}
    for name, cell in library.cells.items():
        if cell.pseudo:
            cells[name] = cell
            continue
        dm = DelayModel(cell.delay_model.intrinsic * delay_scale,
                        cell.delay_model.drive_res * delay_scale)
        power = cell.power
        if power.style in ("cmos", "wddl"):
            power = replace(power, leak=power.leak * leak_scale)
        elif power.sleep_leak > 0.0:
            power = replace(power, sleep_leak=min(
                power.sleep_leak * leak_scale, 0.5 * power.iss))
        cells[name] = replace(cell, delay_model=dm, power=power,
                              source="derived")
    return Library(name=f"{library.name}@{corner.name}",
                   style=library.style, cells=cells,
                   tech=corner.technology(library.tech))


#: Style-representative functions the library preflight elaborates: a
#: combinational cell, a stacked cell, and a sequential cell cover every
#: distinct transistor template the generators emit.
_PREFLIGHT_MCML = ("BUF", "NAND2", "DLATCH")
_PREFLIGHT_CMOS = ("INV", "NAND2", "MUX2")
#: WDDL templates: the buffer, a NAND/NOR pair (AND2), and the AOI22
#: compound (XOR2) cover every device pattern the generator emits.
_PREFLIGHT_WDDL = ("BUF", "AND2", "XOR2")


def preflight_library(library: Library, telemetry=None) -> List:
    """ERC the library's transistor templates before a long flow starts.

    Builds style-representative cells with ``library``'s generator and
    runs the :mod:`repro.spice.erc` preflight on each, raising
    :class:`~repro.errors.ErcError` on the first violation.  Called at
    synthesis and campaign start (both have ``erc`` opt-outs) so a
    mis-generated template is caught in milliseconds instead of hours
    into an acquisition run.
    """
    from .cmos import CmosCellGenerator

    reports = []
    if library.style == "cmos":
        generator = CmosCellGenerator(library.tech)
        for name in _PREFLIGHT_CMOS:
            cell = generator.build(name, erc=False)
            reports.append(generator.erc_check(cell, telemetry=telemetry))
    elif library.style == "wddl":
        from .wddl import WddlCellGenerator

        generator = WddlCellGenerator(library.tech)
        for name in _PREFLIGHT_WDDL:
            cell = generator.build(name, erc=False)
            reports.append(generator.erc_check(cell, telemetry=telemetry))
    else:
        gen_cls = (PgMcmlCellGenerator if library.style == "pgmcml"
                   else McmlCellGenerator)
        generator = gen_cls(library.tech)
        for name in _PREFLIGHT_MCML:
            cell = generator.build(function(name), erc=False)
            reports.append(generator.erc_check(cell, telemetry=telemetry))
    return reports
