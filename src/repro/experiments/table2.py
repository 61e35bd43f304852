"""Table 2: area and delay of the 16 PG-MCML library cells.

Two layers of reproduction:

* the **datasheet** layer — our library's areas come from the site-count
  layout model and must match the published µm² exactly; the published
  delays are carried as the datasheet values;
* the **characterisation** layer — for the 12 combinational cells we
  re-derive delay, swing and tail current from transistor-level
  transients and report them against the paper's column (shape
  agreement: ordering and roughly proportional magnitudes; our generic
  90 nm models are not the authors' PDK).  The cells' testbenches go to
  the simulator backend as one :func:`run_transient_batch` call — one
  lockstep transient over all of them on the internal engine, each
  lane byte-identical to its serial run — and ``measure_mcml_cell``
  reads each result, as ``characterize_mcml_cell`` does for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..cells import (
    build_cmos_library,
    build_pg_mcml_library,
    function,
    mcml_testbench,
    measure_mcml_cell,
    PgMcmlCellGenerator,
    solve_bias,
)
from ..cells.library import (
    PAPER_AREA_RATIOS,
    PAPER_PG_DELAYS,
    PG_MCML_CELL_NAMES,
)
from ..spice.backend.dispatch import run_transient_batch
from ..units import uA
from ..obs import default_telemetry
from .runner import print_table

#: Cells characterised at transistor level by default: every
#: combinational cell (the latch and flip-flops need a clocked
#: testbench, which ``characterize_mcml_dff`` builds for the DFF).
DEFAULT_SPICE_CELLS = ("BUF", "DIFF2SINGLE", "AND2", "AND3", "AND4", "MUX2",
                       "MUX4", "MAJ32", "XOR2", "XOR3", "XOR4", "FA")


@dataclass
class Table2Row:
    cell: str
    area_um2: float
    paper_delay_ps: float
    area_ratio: Optional[float]
    paper_ratio: Optional[float]
    spice_delay_ps: Optional[float] = None
    spice_swing_v: Optional[float] = None
    spice_iss_ua: Optional[float] = None


@dataclass
class Table2Result:
    rows: List[Table2Row]
    mean_ratio: float

    def row_for(self, cell: str) -> Table2Row:
        for row in self.rows:
            if row.cell == cell:
                return row
        raise KeyError(cell)


def run(spice_cells: Tuple[str, ...] = DEFAULT_SPICE_CELLS,
        iss: float = uA(50)) -> Table2Result:
    pg = build_pg_mcml_library()
    cmos = build_cmos_library()

    measured = {}
    names = [name for name in PG_MCML_CELL_NAMES if name in spice_cells]
    if names:
        generator = PgMcmlCellGenerator(
            sizing=solve_bias(iss, gated=True).sizing)
        benches = [mcml_testbench(function(name), generator)
                   for name in names]
        results = run_transient_batch(
            [bench.circuit for bench in benches], tstop=benches[0].window,
            dt=benches[0].dt, record=[bench.record for bench in benches])
        measured = {name: measure_mcml_cell(bench, result)
                    for name, bench, result in zip(names, benches, results)}

    rows: List[Table2Row] = []
    ratios: List[float] = []
    for name in PG_MCML_CELL_NAMES:
        cell = pg.cell(name)
        ratio = None
        if name in PAPER_AREA_RATIOS and name in cmos:
            ratio = cell.area_um2 / cmos.cell(name).area_um2
            ratios.append(ratio)
        row = Table2Row(
            cell=name,
            area_um2=cell.area_um2,
            paper_delay_ps=PAPER_PG_DELAYS[name] * 1e12,
            area_ratio=ratio,
            paper_ratio=PAPER_AREA_RATIOS.get(name),
        )
        meas = measured.get(name)
        if meas is not None:
            row.spice_delay_ps = meas.delay * 1e12
            row.spice_swing_v = meas.swing
            row.spice_iss_ua = meas.iss * 1e6
        rows.append(row)
    mean_ratio = sum(ratios) / len(ratios)
    return Table2Result(rows=rows, mean_ratio=mean_ratio)


def main(spice_cells: Tuple[str, ...] = DEFAULT_SPICE_CELLS,
         telemetry=None) -> Table2Result:
    tele = telemetry if telemetry is not None else default_telemetry()
    result = run(spice_cells)
    table = []
    for r in result.rows:
        table.append([
            r.cell,
            f"{r.area_um2:.4f}",
            f"{r.paper_delay_ps:.2f}",
            "-" if r.spice_delay_ps is None else f"{r.spice_delay_ps:.2f}",
            "-" if r.area_ratio is None else f"{r.area_ratio:.2f}",
            "-" if r.paper_ratio is None else f"{r.paper_ratio:.1f}",
        ])
    tele.progress("Table 2: PG-MCML library (areas exact; delays: paper "
                  "datasheet vs our SPICE characterisation)")
    print_table(table, ["Cell", "Area [um2]", "paper delay [ps]",
                        "SPICE delay [ps]", "MCML/CMOS area", "paper ratio"],
                emit=tele.progress)
    tele.progress(f"mean PG-MCML/CMOS area ratio: {result.mean_ratio:.3f} "
                  f"(paper: 1.6x average)")
    return result


if __name__ == "__main__":
    main()
