"""Fig. 3: buffer delay and area-delay trade-off vs tail current.

(a) transistor-level delay of the MCML buffer/inverter driving FO1 and
FO4 loads across the Iss design space — delay improves roughly as 1/Iss
and saturates at high currents ("increasing the bias current above
250 µA provides a limited speed improvement");

(b) power-delay and area-delay products — the area-delay optimum the
paper picks sits near 50 µA, which is where the whole library is biased.

Every point is one buffer at two loads; the whole sweep is one batch of
transients through the simulator backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..cells import (
    McmlCellGenerator,
    function,
    mcml_testbench,
    measure_mcml_cell,
    solve_biases,
)
from ..spice.backend.dispatch import run_transient_batch
from ..tech import TECH90
from ..units import uA
from ..obs import default_telemetry
from .runner import print_table

#: Default sweep points, amperes.
DEFAULT_SWEEP = tuple(uA(x) for x in (10, 20, 35, 50, 75, 100, 150, 250, 400))

#: Buffer area model vs tail current: the X1 layout (5 sites, 7.448 µm²
#: with sleep) is sized for 50 µA; the pair/tail/load widths scale with
#: Iss while the pins, rails, and well overhead do not.
AREA_FIXED_FRACTION = 0.6
AREA_AT_50UA_UM2 = 7.448


def buffer_area_um2(iss: float) -> float:
    """First-order buffer layout area as a function of tail current."""
    scale = iss / uA(50)
    return AREA_AT_50UA_UM2 * (AREA_FIXED_FRACTION
                               + (1.0 - AREA_FIXED_FRACTION) * scale)


@dataclass
class Fig3Point:
    iss: float
    delay_fo1: float
    delay_fo4: float
    swing: float
    area_um2: float

    @property
    def power_w(self) -> float:
        return TECH90.vdd * self.iss

    @property
    def pdp_fo4(self) -> float:
        """Power-delay product (J) at FO4."""
        return self.power_w * self.delay_fo4

    @property
    def adp_fo4(self) -> float:
        """Area-delay product (µm²·s) at FO4."""
        return self.area_um2 * self.delay_fo4


@dataclass
class Fig3Result:
    points: List[Fig3Point]

    def optimum_iss(self) -> float:
        """Tail current minimising the FO4 area-delay product."""
        return min(self.points, key=lambda p: p.adp_fo4).iss

    def delay_saturation_ratio(self) -> float:
        """Speedup left between 250 µA and the highest simulated Iss."""
        pts = sorted(self.points, key=lambda p: p.iss)
        at_250 = min(pts, key=lambda p: abs(p.iss - uA(250)))
        fastest = pts[-1]
        return at_250.delay_fo4 / fastest.delay_fo4


def run(sweep: Sequence[float] = DEFAULT_SWEEP) -> Fig3Result:
    """Measure the buffer at every tail current, at FO1 and FO4.

    The bias points come from one :func:`solve_biases` call, every
    search in lockstep.  The testbenches go to the backend in sweep
    order, FO1 then FO4 at each point, as one
    :func:`run_transient_batch` call: one lockstep
    transient on the internal engine, one run per circuit on an external
    simulator.  Each value equals :func:`characterize_mcml_cell`'s bit
    for bit (``tests/test_experiments.py``).
    """
    fn = function("BUF")
    benches = []
    for point in solve_biases(sweep):
        generator = McmlCellGenerator(sizing=point.sizing)
        benches += [mcml_testbench(fn, generator, fanout=fanout)
                    for fanout in (1, 4)]
    if not benches:
        return Fig3Result(points=[])
    results = run_transient_batch([bench.circuit for bench in benches],
                                  tstop=benches[0].window,
                                  dt=benches[0].dt,
                                  record=[bench.record for bench in benches])
    measured = [measure_mcml_cell(bench, result)
                for bench, result in zip(benches, results)]
    points: List[Fig3Point] = []
    for iss, fo1, fo4 in zip(sweep, measured[0::2], measured[1::2]):
        points.append(Fig3Point(
            iss=iss, delay_fo1=fo1.delay, delay_fo4=fo4.delay,
            swing=fo1.swing, area_um2=buffer_area_um2(iss)))
    return Fig3Result(points=points)


def main(sweep: Sequence[float] = DEFAULT_SWEEP,
         telemetry=None) -> Fig3Result:
    tele = telemetry if telemetry is not None else default_telemetry()
    result = run(sweep)
    rows = []
    for p in result.points:
        rows.append([
            f"{p.iss * 1e6:.0f}",
            f"{p.delay_fo1 * 1e12:.2f}", f"{p.delay_fo4 * 1e12:.2f}",
            f"{p.swing:.3f}", f"{p.area_um2:.3f}",
            f"{p.pdp_fo4 * 1e15:.3f}", f"{p.adp_fo4 * 1e18:.3f}",
        ])
    tele.progress("Fig. 3: MCML buffer design space vs tail current")
    print_table(rows, ["Iss[uA]", "tFO1[ps]", "tFO4[ps]", "swing[V]",
                       "area[um2]", "PDP[fJ]", "ADP[um2*as]"],
                emit=tele.progress)
    tele.progress(f"area-delay optimum: {result.optimum_iss() * 1e6:.0f} uA "
                  f"(paper: ~50 uA)")
    tele.progress(f"delay left above 250 uA: "
                  f"{(result.delay_saturation_ratio() - 1) * 100:.1f}% "
                  f"(paper: 'limited improvement')")
    return result


if __name__ == "__main__":
    main()
