"""Extension experiment: the attack × countermeasure matrix.

Runs a declarative campaign grid (:mod:`repro.sca.matrix`) across
library styles, attacks, noise levels, process corners and trace
budgets, and prints the unified comparison report: tie-corrected
guessing entropy, success rate and MTD per cell, TVLA verdicts, and
the security-vs-overhead frontier.

The default grid is the CI smoke configuration — CMOS vs. WDDL under
first-order CPA, second-order CPA, MLPA and TVLA at one noise level and
the typical corner.  Pass a JSON grid spec (``repro matrix --grid
examples/matrix_smoke.json``) to sweep anything else; the expected
headline on the default grid:

* CMOS: CPA recovers the key, TVLA flags it immediately;
* WDDL: the constant-switching discipline defeats the same CPA at the
  same budget (residual rail imbalance needs ~2-3x the traces), while
  TVLA still detects the imbalance — reduced, not eliminated.
"""

from __future__ import annotations

from typing import Optional

from ..obs import default_telemetry
from ..sca.matrix import MatrixReport, MatrixSpec, run_matrix

#: The CI smoke grid: 2 styles × 4 attacks at one budget.  Small enough
#: for a pull-request gate, wide enough to exercise WDDL, both
#: higher-order attacks, TVLA scheduling, and the acquisition dedupe.
SMOKE_GRID = {
    "styles": ["cmos", "wddl"],
    "attacks": ["cpa", "cpa2", "mlpa", "tvla"],
    "noises": [5e-7],
    "corners": ["tt"],
    "budgets": [256],
    "key": 0x3C,
    "repeats": 1,
}


def run(spec: Optional[MatrixSpec] = None, telemetry=None) -> MatrixReport:
    if spec is None:
        spec = MatrixSpec.from_dict(SMOKE_GRID)
    return run_matrix(spec, telemetry=telemetry)


def main(grid: Optional[str] = None, report: Optional[str] = None,
         telemetry=None) -> MatrixReport:
    """CLI driver: ``grid`` is a JSON spec path, ``report`` an output path."""
    tele = telemetry if telemetry is not None else default_telemetry()
    spec = MatrixSpec.from_json(grid) if grid else None
    result = run(spec=spec, telemetry=telemetry)
    tele.progress("attack x countermeasure matrix "
                  f"({len(result.cells)} cells):\n")
    tele.progress(result.format_table())
    failed = [c for c in result.cells if not c.ok]
    if failed:
        tele.progress(f"\n{len(failed)} cell(s) failed and were isolated "
                      "(see error_code column)")
    if report:
        result.to_json(report)
        tele.progress(f"\nwrote {report}")
    return result
