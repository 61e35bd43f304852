"""The attack × countermeasure campaign matrix.

The paper's security argument is one column of a much bigger table:
CPA against CMOS vs. (PG-)MCML at one noise level, one corner, one
trace budget.  A modern evaluation (and the PoSyn-style comparisons in
:mod:`repro.experiments.related`) wants the whole grid — every library
style crossed with every attack, swept over measurement noise, process
corner and trace budget — condensed into one report with a
security-vs-overhead frontier.

:class:`MatrixSpec` is the declarative grid description (loadable from
JSON for the CLI); :func:`run_matrix` expands it into cells and runs
each on the existing acquisition/attack machinery with three
engineering properties this module exists for:

* **Acquisition dedupe** — every attack that consumes the same physical
  trace set (same style, corner, noise, budget, schedule and die) gets
  the *same* acquired traces, composed once.  A 4-attack × 3-budget
  grid acquires 3 trace sets per style, not 12.
* **Cell failure isolation** — a cell that raises a
  :class:`~repro.errors.ReproError` (odd TVLA budget, infeasible MLPA
  basis, ERC rejection) records its ``error_code`` in the report and
  the rest of the grid keeps running.
* **Tie-aware scoring** — guessing entropy and success rate use the
  midpoint-of-tie-class rank, so a protected style's flat score vector
  reports GE ≈ 127.5 instead of an artifact of the key byte value.

Repeats are *dies*: each repeat draws a fresh mismatch seed (a new
Pelgrom sample) and fresh measurement noise, which is what makes the
guessing-entropy average meaningful.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cells import (
    Library,
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
    build_wddl_library,
    library_at_corner,
    preflight_library,
)
from ..errors import AttackError, ReproError
from ..obs import NULL_TELEMETRY
from ..power import BlockPowerModel, MeasurementChain
from ..power.preprocess import standardize
from ..spice.erc import erc_enabled
from ..tech import corner as lookup_corner
from ..units import MHz
from .acquisition import ActivityMemo, AcquisitionPool, TraceAcquirer
from .attack import build_reduced_aes
from .cpa import cpa_attack
from .dpa import multibit_dpa_attack
from .highorder import mlpa_attack, second_order_cpa
from .metrics import guessing_entropy, mtd, success_rate
from .ttest import TVLA_THRESHOLD, welch_t

STYLE_BUILDERS = {
    "cmos": build_cmos_library,
    "mcml": build_mcml_library,
    "pgmcml": build_pg_mcml_library,
    "wddl": build_wddl_library,
}

#: Attacks the matrix knows how to run.  ``cpa2`` is second-order CPA on
#: centered-product samples; ``mlpa`` the multi-linear regression attack.
KNOWN_ATTACKS = ("cpa", "dpa", "cpa2", "mlpa", "tvla")

#: Nominal operating point for the frontier's power column.
FRONTIER_CLOCK_HZ = MHz(100.0)
#: Average per-gate toggle activity of random-data CMOS logic.
CMOS_ACTIVITY = 0.1
#: PG-MCML awake fraction for the frontier (ISE-style duty guard band).
PGMCML_AWAKE_FRACTION = 0.25


def _derive_seed(*parts) -> int:
    """A stable 31-bit seed from heterogeneous grid coordinates."""
    text = "|".join(repr(p) for p in parts)
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


@dataclass(frozen=True)
class MatrixCell:
    """One coordinate of the expanded grid."""

    style: str
    attack: str
    noise: float    # measurement-noise sigma, amperes
    corner: str
    budget: int     # trace count

    @property
    def schedule(self) -> str:
        """Plaintext discipline: TVLA interleaves fixed/random."""
        return "tvla" if self.attack == "tvla" else "random"

    def trace_key(self, repeat: int) -> Tuple:
        """Dedupe key: cells sharing it consume the same trace set."""
        return (self.style, self.corner, self.noise, self.budget,
                self.schedule, repeat)

    def label(self) -> str:
        return (f"{self.style}/{self.attack} @ {self.corner}, "
                f"noise={self.noise:.2e} A, n={self.budget}")


# -- traceset coordinate derivations ------------------------------------------
#
# Everything that determines a trace set — plaintexts, noise chain,
# mismatch die — is a pure function of (base_seed, trace-key
# coordinates).  These are module-level so the campaign job service
# (:mod:`repro.service`) can shard a grid's acquisitions across hosts
# and still produce trace sets byte-identical to an in-process
# :func:`run_matrix` of the same spec.

def derive_plaintexts(base_seed: int, style: str, corner: str, budget: int,
                      schedule: str, repeat: int) -> List[int]:
    """The plaintext schedule for one traceset coordinate.

    ``schedule="tvla"`` interleaves the fixed class (0x00) with fresh
    random bytes pairwise; anything else is uniform random bytes.
    """
    seed = _derive_seed(base_seed, "pts", style, corner, budget,
                        schedule, repeat)
    rng = np.random.default_rng(seed)
    if schedule == "tvla":
        if budget % 2 != 0:
            raise AttackError(
                f"TVLA budget must be even (fixed/random classes are "
                f"interleaved pairwise); got {budget}")
        half = budget // 2
        randoms = [int(x) for x in rng.integers(0, 256, size=half)]
        interleaved: List[int] = []
        for r in randoms:
            interleaved.extend((0x00, r))
        return interleaved
    return [int(x) for x in rng.integers(0, 256, size=budget)]


def derive_chain_seed(base_seed: int, trace_key: Tuple) -> int:
    """Measurement-chain entropy for one traceset coordinate."""
    return _derive_seed(base_seed, "chain", *trace_key)


def derive_mismatch_seed(base_seed: int, style: str, corner: str,
                         repeat: int) -> int:
    """The die: one Pelgrom mismatch sample per (style, corner, repeat)."""
    return _derive_seed(base_seed, "die", style, corner, repeat)


@dataclass
class MatrixSpec:
    """Declarative description of a campaign grid.

    The grid is the cartesian product styles × attacks × noises ×
    corners × budgets, each cell run ``repeats`` times on independent
    dies.  ``noises`` are measurement-chain sigma values in amperes.
    """

    styles: Tuple[str, ...]
    attacks: Tuple[str, ...]
    noises: Tuple[float, ...] = (5e-7,)
    corners: Tuple[str, ...] = ("tt",)
    budgets: Tuple[int, ...] = (128,)
    key: int = 0x3C
    repeats: int = 1
    base_seed: int = 1234

    def __post_init__(self) -> None:
        self.styles = tuple(self.styles)
        self.attacks = tuple(self.attacks)
        self.noises = tuple(float(n) for n in self.noises)
        self.corners = tuple(self.corners)
        self.budgets = tuple(int(b) for b in self.budgets)
        if not self.styles or not self.attacks:
            raise AttackError("grid needs at least one style and attack")
        for s in self.styles:
            if s not in STYLE_BUILDERS:
                known = ", ".join(sorted(STYLE_BUILDERS))
                raise AttackError(f"unknown style {s!r}; known: {known}")
        for a in self.attacks:
            if a not in KNOWN_ATTACKS:
                known = ", ".join(KNOWN_ATTACKS)
                raise AttackError(f"unknown attack {a!r}; known: {known}")
        for n in self.noises:
            if n < 0.0:
                raise AttackError("noise sigma must be non-negative")
        for c in self.corners:
            lookup_corner(c)  # raises DeviceError for unknown names
        for b in self.budgets:
            if b < 8:
                raise AttackError(f"trace budget too small: {b}")
        if not 0 <= self.key <= 0xFF:
            raise AttackError(f"key byte out of range: {self.key}")
        if self.repeats < 1:
            raise AttackError("repeats must be >= 1")

    def expand(self) -> List[MatrixCell]:
        """Cartesian-product the axes into cells, deterministic order."""
        return [MatrixCell(style=s, attack=a, noise=n, corner=c, budget=b)
                for s in self.styles
                for a in self.attacks
                for n in self.noises
                for c in self.corners
                for b in self.budgets]

    def to_dict(self) -> Dict:
        return {"styles": list(self.styles), "attacks": list(self.attacks),
                "noises": list(self.noises), "corners": list(self.corners),
                "budgets": list(self.budgets), "key": self.key,
                "repeats": self.repeats, "base_seed": self.base_seed}

    @classmethod
    def from_dict(cls, data: Dict) -> "MatrixSpec":
        if not isinstance(data, dict):
            raise AttackError("grid spec must be a JSON object")
        known = {"styles", "attacks", "noises", "corners", "budgets",
                 "key", "repeats", "base_seed"}
        extra = set(data) - known
        if extra:
            raise AttackError(
                f"unknown grid spec keys: {', '.join(sorted(extra))}")
        missing = {"styles", "attacks"} - set(data)
        if missing:
            raise AttackError(
                f"grid spec missing keys: {', '.join(sorted(missing))}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "MatrixSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise AttackError(f"cannot load grid spec {path!r}: {exc}")
        return cls.from_dict(data)


@dataclass
class CellResult:
    """Outcome of one grid cell over all repeats."""

    cell: MatrixCell
    ok: bool
    # Rank-producing attacks (cpa/dpa/cpa2/mlpa):
    ranks: List[float] = field(default_factory=list)
    tie_widths: List[int] = field(default_factory=list)
    guessing_entropy: Optional[float] = None
    success_rate: Optional[float] = None
    mtd: Optional[int] = None
    mtd_evaluated: bool = False
    # TVLA:
    max_abs_t: Optional[float] = None
    leak_detected: Optional[bool] = None
    # Failure isolation:
    error_code: Optional[str] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "style": self.cell.style, "attack": self.cell.attack,
            "noise": self.cell.noise, "corner": self.cell.corner,
            "budget": self.cell.budget, "ok": self.ok,
            "ranks": self.ranks, "tie_widths": self.tie_widths,
            "guessing_entropy": self.guessing_entropy,
            "success_rate": self.success_rate,
            "mtd": self.mtd, "mtd_evaluated": self.mtd_evaluated,
            "max_abs_t": self.max_abs_t,
            "leak_detected": self.leak_detected,
            "error_code": self.error_code, "error": self.error,
        }


@dataclass
class FrontierRow:
    """Security-vs-overhead summary for one (style, corner)."""

    style: str
    corner: str
    area_um2: float
    power_w: float
    area_overhead: Optional[float]   # × the CMOS row at the same corner
    power_overhead: Optional[float]
    best_mtd: Optional[int]          # smallest MTD over the style's cells
    min_guessing_entropy: Optional[float]
    broken: bool                     # any attack recovered the key

    def to_dict(self) -> Dict:
        return {"style": self.style, "corner": self.corner,
                "area_um2": self.area_um2, "power_w": self.power_w,
                "area_overhead": self.area_overhead,
                "power_overhead": self.power_overhead,
                "best_mtd": self.best_mtd,
                "min_guessing_entropy": self.min_guessing_entropy,
                "broken": self.broken}


@dataclass
class MatrixReport:
    """Everything one grid run produced."""

    spec: MatrixSpec
    cells: List[CellResult]
    frontier: List[FrontierRow]
    acquisitions: int        # trace sets actually composed
    acquisitions_reused: int  # cell×repeat consumers served from cache

    def to_dict(self) -> Dict:
        return {"spec": self.spec.to_dict(),
                "cells": [c.to_dict() for c in self.cells],
                "frontier": [f.to_dict() for f in self.frontier],
                "acquisitions": self.acquisitions,
                "acquisitions_reused": self.acquisitions_reused}

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")

    def format_table(self) -> str:
        """Human-readable comparison table plus the frontier."""
        lines = []
        header = (f"{'style':<8}{'attack':<7}{'corner':<7}{'noise[A]':>10}"
                  f"{'n':>6}  {'outcome':<44}")
        lines.append(header)
        lines.append("-" * len(header))
        for res in self.cells:
            c = res.cell
            if not res.ok:
                outcome = f"FAILED [{res.error_code}] {res.error}"
            elif c.attack == "tvla":
                verdict = ("LEAK" if res.leak_detected else "quiet")
                outcome = f"max|t|={res.max_abs_t:.1f} -> {verdict}"
            else:
                ge = res.guessing_entropy
                sr = res.success_rate
                mtd_txt = (str(res.mtd) if res.mtd is not None else
                           ("-" if not res.mtd_evaluated else ">n"))
                outcome = f"GE={ge:.1f} SR={sr:.2f} MTD={mtd_txt}"
                if max(res.tie_widths, default=1) > 1:
                    outcome += f" ties={max(res.tie_widths)}"
            lines.append(f"{c.style:<8}{c.attack:<7}{c.corner:<7}"
                         f"{c.noise:>10.2e}{c.budget:>6}  {outcome:<44}")
        lines.append("")
        lines.append("Security vs. overhead frontier "
                     f"(@{FRONTIER_CLOCK_HZ / 1e6:.0f} MHz):")
        fhdr = (f"{'style':<8}{'corner':<7}{'area[um2]':>11}{'power[W]':>11}"
                f"{'xA':>8}{'xP':>8}{'minGE':>8}{'bestMTD':>9}  verdict")
        lines.append(fhdr)
        lines.append("-" * len(fhdr))
        for row in self.frontier:
            xa = f"{row.area_overhead:.2f}" if row.area_overhead else "-"
            xp = f"{row.power_overhead:.2f}" if row.power_overhead else "-"
            ge = (f"{row.min_guessing_entropy:.1f}"
                  if row.min_guessing_entropy is not None else "-")
            bm = str(row.best_mtd) if row.best_mtd is not None else "none"
            verdict = "BROKEN" if row.broken else "holds"
            lines.append(f"{row.style:<8}{row.corner:<7}"
                         f"{row.area_um2:>11.1f}{row.power_w:>11.3e}"
                         f"{xa:>8}{xp:>8}{ge:>8}{bm:>9}  {verdict}")
        lines.append("")
        lines.append(f"trace sets composed: {self.acquisitions}, "
                     f"cell-repeats served from cache: "
                     f"{self.acquisitions_reused}")
        return "\n".join(lines)


class _GridRunner:
    """Shared state for one grid execution: libraries, netlists, memos
    and acquired trace sets.

    Every die of a (style, corner) shares one netlist and one
    :class:`~repro.sca.acquisition.ActivityMemo`, so each distinct
    plaintext is simulated once for all of them.  The memo is dropped
    after the last trace set of its (style, corner) is acquired.
    """

    def __init__(self, spec: MatrixSpec, telemetry, erc: Optional[bool]):
        self.spec = spec
        self.tele = telemetry
        self.erc = erc if erc is not None else erc_enabled()
        self._libraries: Dict[Tuple[str, str], Library] = {}
        self._netlists: Dict[Tuple[str, str], Tuple] = {}
        self._activities: Dict[Tuple[str, str], ActivityMemo] = {}
        #: Trace sets per (style, corner) not acquired yet.
        self._unacquired: Dict[Tuple[str, str], set] = {}
        for cell in spec.expand():
            self._unacquired.setdefault((cell.style, cell.corner), set()) \
                .update(cell.trace_key(r) for r in range(spec.repeats))
        self._tracesets: Dict[Tuple, Tuple] = {}
        self._preflighted: set = set()
        self.acquired = 0
        self.reused = 0

    # -- shared builders ------------------------------------------------

    def library(self, style: str, corner_name: str) -> Library:
        key = (style, corner_name)
        if key not in self._libraries:
            base = STYLE_BUILDERS[style]()
            if self.erc and style not in self._preflighted:
                # Topology is corner-independent; one preflight per style
                # covers every corner-scaled variant of its templates.
                preflight_library(base, telemetry=self.tele)
                self._preflighted.add(style)
            self._libraries[key] = library_at_corner(
                base, lookup_corner(corner_name))
        return self._libraries[key]

    def netlist(self, style: str, corner_name: str):
        key = (style, corner_name)
        if key not in self._netlists:
            lib = self.library(style, corner_name)
            nl, _outputs = build_reduced_aes(lib)
            self._netlists[key] = nl
        return self._netlists[key]

    # -- acquisition with dedupe ----------------------------------------

    def traceset(self, cell: MatrixCell, repeat: int):
        """(plaintexts, traces) for a cell's coordinates, cached.

        Failures are cached too, so every cell sharing a broken trace
        set reports the same error without re-running the acquisition:
        the acquisition is deterministic, so a rerun would fail again.
        """
        key = cell.trace_key(repeat)
        if key in self._tracesets:
            kind, payload = self._tracesets[key]
            self.reused += 1
            if kind == "err":
                raise payload
            return payload
        try:
            pts, traces = self._acquire(cell, repeat)
        except ReproError as exc:
            self._tracesets[key] = ("err", exc)
            raise
        finally:
            where = (cell.style, cell.corner)
            self._unacquired[where].discard(key)
            if not self._unacquired[where]:
                self._activities.pop(where, None)
        self._tracesets[key] = ("ok", (pts, traces))
        self.acquired += 1
        return pts, traces

    def _acquire(self, cell: MatrixCell, repeat: int):
        spec = self.spec
        pts = self._plaintexts(cell, repeat)
        where = (cell.style, cell.corner)
        netlist = self.netlist(*where)
        if where not in self._activities:
            self._activities[where] = ActivityMemo(netlist, spec.key)
        activity = self._activities[where]
        chain = MeasurementChain(
            noise_sigma=cell.noise,
            seed=derive_chain_seed(spec.base_seed, cell.trace_key(repeat)))
        # A repeat is a fresh die: new Pelgrom mismatch sample, shared by
        # every attack and budget measured on that die at that corner.
        mismatch_seed = derive_mismatch_seed(spec.base_seed, cell.style,
                                             cell.corner, repeat)
        with self.tele.span("sca.matrix.acquire", style=cell.style,
                            corner=cell.corner, schedule=cell.schedule,
                            n_traces=len(pts), repeat=repeat):
            acquirer = TraceAcquirer(netlist, spec.key, chain=chain,
                                     mismatch_seed=mismatch_seed,
                                     activity=activity)
            traces = AcquisitionPool(acquirer, telemetry=self.tele) \
                .acquire(pts)
        return pts, traces

    def _plaintexts(self, cell: MatrixCell, repeat: int) -> List[int]:
        return derive_plaintexts(self.spec.base_seed, cell.style,
                                 cell.corner, cell.budget, cell.schedule,
                                 repeat)

    # -- per-cell evaluation --------------------------------------------

    def run_cell(self, cell: MatrixCell) -> CellResult:
        with self.tele.span("sca.matrix.cell", style=cell.style,
                            attack=cell.attack, corner=cell.corner,
                            noise=cell.noise, budget=cell.budget) as span:
            try:
                result = self._evaluate(cell)
            except ReproError as exc:
                span.set("ok", False)
                span.set("error_code", exc.error_code)
                return CellResult(cell=cell, ok=False,
                                  error_code=exc.error_code,
                                  error=str(exc))
            span.set("ok", True)
            if result.guessing_entropy is not None:
                span.set("guessing_entropy", result.guessing_entropy)
            if result.max_abs_t is not None:
                span.set("max_abs_t", result.max_abs_t)
            return result

    def _evaluate(self, cell: MatrixCell) -> CellResult:
        if cell.attack == "tvla":
            return self._evaluate_tvla(cell)
        ranks: List[float] = []
        widths: List[int] = []
        mtd_value: Optional[int] = None
        mtd_done = False
        for repeat in range(self.spec.repeats):
            pts, traces = self.traceset(cell, repeat)
            result = self._run_attack(cell, traces, pts)
            ranks.append(float(result.rank_of_true_key()))
            widths.append(int(result.best_guess_tie_width()))
            if cell.attack == "cpa" and repeat == 0:
                # MTD on the first die only: the prefix re-runs dominate
                # the grid's cost, and one disclosure curve per cell is
                # what the comparison table needs.
                mtd_value = mtd(traces, pts, self.spec.key,
                                step=max(cell.budget // 8, 16),
                                stable_windows=2)
                mtd_done = True
        return CellResult(cell=cell, ok=True, ranks=ranks,
                          tie_widths=widths,
                          guessing_entropy=guessing_entropy(ranks),
                          success_rate=success_rate(ranks),
                          mtd=mtd_value, mtd_evaluated=mtd_done)

    def _run_attack(self, cell: MatrixCell, traces: np.ndarray,
                    pts: Sequence[int]):
        key = self.spec.key
        if cell.attack == "cpa":
            return cpa_attack(traces, pts, true_key=key)
        if cell.attack == "dpa":
            return multibit_dpa_attack(standardize(traces), pts,
                                       true_key=key)
        if cell.attack == "cpa2":
            return second_order_cpa(traces, pts, true_key=key)
        if cell.attack == "mlpa":
            return mlpa_attack(traces, pts, true_key=key)
        raise AttackError(f"unknown attack {cell.attack!r}")

    def _evaluate_tvla(self, cell: MatrixCell) -> CellResult:
        worst = 0.0
        for repeat in range(self.spec.repeats):
            pts, traces = self.traceset(cell, repeat)
            t = welch_t(traces[0::2], traces[1::2])
            worst = max(worst, float(np.abs(t).max()))
        return CellResult(cell=cell, ok=True, max_abs_t=worst,
                          leak_detected=worst > TVLA_THRESHOLD)

    # -- frontier -------------------------------------------------------

    def frontier(self, cells: List[CellResult]) -> List[FrontierRow]:
        rows: List[FrontierRow] = []
        pairs = []
        for style in self.spec.styles:
            for corner_name in self.spec.corners:
                if (style, corner_name) not in pairs:
                    pairs.append((style, corner_name))
        baselines: Dict[str, Tuple[float, float]] = {}
        for style, corner_name in pairs:
            nl = self.netlist(style, corner_name)
            lib = self.library(style, corner_name)
            model = BlockPowerModel(nl, tech=lib.tech, seed=0)
            if style == "wddl":
                # Precharge logic evaluates every gate every cycle —
                # constant (high) activity is the countermeasure.
                power = model.average_power(toggle_rate=FRONTIER_CLOCK_HZ)
            elif style == "cmos":
                power = model.average_power(
                    toggle_rate=FRONTIER_CLOCK_HZ * CMOS_ACTIVITY)
            elif style == "pgmcml":
                power = model.average_power(
                    awake_fraction=PGMCML_AWAKE_FRACTION,
                    toggle_rate=FRONTIER_CLOCK_HZ * CMOS_ACTIVITY)
            else:
                power = model.average_power()
            area = nl.total_area_um2()
            if style == "cmos":
                baselines[corner_name] = (area, power)
            mine = [c for c in cells if c.ok and c.cell.style == style
                    and c.cell.corner == corner_name]
            mtds = [c.mtd for c in mine if c.mtd is not None]
            ges = [c.guessing_entropy for c in mine
                   if c.guessing_entropy is not None]
            broken = any((c.success_rate or 0.0) > 0.0 for c in mine)
            rows.append(FrontierRow(
                style=style, corner=corner_name, area_um2=area,
                power_w=power, area_overhead=None, power_overhead=None,
                best_mtd=min(mtds) if mtds else None,
                min_guessing_entropy=min(ges) if ges else None,
                broken=broken))
        for row in rows:
            base = baselines.get(row.corner)
            if base is not None and base[0] > 0.0 and base[1] > 0.0:
                row.area_overhead = row.area_um2 / base[0]
                row.power_overhead = row.power_w / base[1]
        return rows


def run_matrix(spec: MatrixSpec, telemetry=None, workers: int = 1,
               backend: str = "serial",
               erc: Optional[bool] = None) -> MatrixReport:
    """Expand ``spec`` and run every cell in this process, returning one
    report.

    ``erc`` overrides the REPRO_ERC preflight gate.  Cell order (and
    every seed) is a pure function of the spec, so two runs of the same
    grid produce byte-identical trace sets.  ``workers`` and ``backend``
    accept only ``1`` and ``"serial"``, which existing callers pass; a
    grid spread over processes goes through the job service
    (``repro serve --workers N``).
    """
    if workers != 1 or backend != "serial":
        raise AttackError(
            f"run_matrix acquires in one process (workers=1, "
            f"backend='serial'), not workers={workers!r}, "
            f"backend={backend!r}; spread a grid over processes with "
            f"the job service: repro serve --workers N")
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    cells = spec.expand()
    runner = _GridRunner(spec, tele, erc)
    with tele.span("sca.matrix", n_cells=len(cells),
                   styles=",".join(spec.styles),
                   attacks=",".join(spec.attacks),
                   repeats=spec.repeats) as span:
        results = [runner.run_cell(cell) for cell in cells]
        frontier = runner.frontier(results)
        span.set("acquisitions", runner.acquired)
        span.set("acquisitions_reused", runner.reused)
        span.set("failed_cells", sum(1 for r in results if not r.ok))
    return MatrixReport(spec=spec, cells=results, frontier=frontier,
                        acquisitions=runner.acquired,
                        acquisitions_reused=runner.reused)
