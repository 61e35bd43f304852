"""Monte-Carlo analysis of MCML cells under device mismatch.

Closes the loop between the technology's Pelgrom model and the library
datasheet: the residual data-dependent supply current that powers the
Fig. 6 side-channel study
(:data:`repro.cells.library.RESIDUAL_SIGMA_PER_TAIL`) is not a free
parameter — it is what transistor-level simulation of mismatch-sampled
cells produces.

For each Monte-Carlo instance of a buffer we solve the DC operating
point with the output steered each way and record the *difference* in
supply current — the data-dependent term an attacker could hope to see.
A perfectly matched cell has exactly zero difference; mismatch in the
loads, the pair, and the tail leaves tens of nanoamps.  The module also
measures the input-referred offset (the classic differential-pair
metric) and the delay spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..errors import CharacterizationError
from ..spice import PWL, solve_dc_batch
from ..spice.dc import System
from ..tech import MismatchModel, Technology, TECH90
from .functions import function
from .mcml import McmlCellGenerator, McmlSizing


@dataclass
class McmlMonteCarloResult:
    """Distributions over Monte-Carlo instances of one cell."""

    n_samples: int
    #: per-instance |I(out=1) - I(out=0)| supply-current difference, A
    residual_currents: List[float]
    #: per-instance mean supply current, A
    mean_currents: List[float]

    @property
    def residual_sigma(self) -> float:
        """RMS data-dependent current over the population, amperes."""
        n = len(self.residual_currents)
        return math.sqrt(sum(r * r for r in self.residual_currents) / n)

    @property
    def residual_max(self) -> float:
        return max(abs(r) for r in self.residual_currents)

    @property
    def iss_sigma(self) -> float:
        """Absolute tail-current spread across instances, amperes."""
        n = len(self.mean_currents)
        mean = sum(self.mean_currents) / n
        var = sum((i - mean) ** 2 for i in self.mean_currents) / n
        return math.sqrt(var)

    def __repr__(self) -> str:
        return (f"McmlMonteCarloResult(n={self.n_samples}, "
                f"residual sigma {self.residual_sigma * 1e9:.3g} nA, "
                f"Iss sigma {self.iss_sigma * 1e6:.3g} uA)")


def _die(k: int, sizing: McmlSizing, tech: Technology, avt: float,
         akp: float, seed: int):
    """Monte Carlo die ``k``: one mismatch-sampled buffer cell, supplied
    and biased; returns the cell and its circuit."""
    mismatch = MismatchModel(avt=avt, akp=akp, seed=seed + 1000 * k)
    cell = McmlCellGenerator(tech, sizing, mismatch=mismatch).build(
        function("BUF"))
    ckt = cell.circuit
    ckt.v("vdd", cell.vdd_net, tech.vdd)
    ckt.v("vvn", cell.vn_net, sizing.vn)
    ckt.v("vvp", cell.vp_net, sizing.vp)
    return cell, ckt


def mc_buffer_residual(n_samples: int = 16,
                       sizing: Optional[McmlSizing] = None,
                       tech: Technology = TECH90,
                       avt: float = 3.5e-9, akp: float = 1.0e-9,
                       seed: int = 0) -> McmlMonteCarloResult:
    """Monte-Carlo residual-current analysis of the MCML buffer.

    For each sample: draw one mismatched buffer, solve DC with the input
    high and with the input low (same devices!), and record the supply
    current difference.  All 2 x ``n_samples`` solves are one
    :func:`~repro.spice.solve_dc_batch`.
    """
    if n_samples < 2:
        raise CharacterizationError("need at least two Monte-Carlo samples")
    sizing = sizing or McmlSizing()
    hi, lo = sizing.input_high(tech), sizing.input_low(tech)
    circuits, systems = [], []
    for k in range(n_samples):
        cell, ckt = _die(k, sizing, tech, avt, akp, seed)
        # Drive with time-selectable levels: t=0 -> input 1, t=1 -> input 0.
        in_p, in_n = cell.input_nets["A"]
        ckt.v("vin_p", in_p, PWL([(0.0, hi), (1.0, lo)]))
        ckt.v("vin_n", in_n, PWL([(0.0, lo), (1.0, hi)]))
        system = System(ckt)
        circuits += [ckt, ckt]
        systems += [system, system]
    ops = solve_dc_batch(circuits, [0.0, 1.0] * n_samples, systems=systems)
    residuals: List[float] = []
    means: List[float] = []
    for one, zero in zip(ops[0::2], ops[1::2]):
        i_one, i_zero = one.current("vdd"), zero.current("vdd")
        residuals.append(i_one - i_zero)
        means.append(0.5 * (i_one + i_zero))
    return McmlMonteCarloResult(n_samples=n_samples,
                                residual_currents=residuals,
                                mean_currents=means)


def mc_input_offset(n_samples: int = 12,
                    sizing: Optional[McmlSizing] = None,
                    tech: Technology = TECH90, avt: float = 3.5e-9,
                    akp: float = 1.0e-9, seed: int = 0) -> List[float]:
    """Input-referred offset of mismatch-sampled buffers, volts.

    Bisects the differential input voltage at which the differential
    output crosses zero; matched cells cross at exactly 0 V.  All dies
    bisect in lockstep: one :func:`~repro.spice.solve_dc_batch` per
    step, each die at its own probe time, on its own ``System``.
    """
    if n_samples < 1:
        raise CharacterizationError("need at least one Monte-Carlo sample")
    sizing = sizing or McmlSizing()
    common = tech.vdd - sizing.swing / 2.0
    # Parameterise the differential drive by time: vd = t - 0.05 V.
    span = 0.05
    circuits, outputs = [], []
    for k in range(n_samples):
        cell, ckt = _die(k, sizing, tech, avt, akp, seed)
        in_p, in_n = cell.input_nets["A"]
        ckt.v("vin_p", in_p, PWL([(0.0, common - span),
                                  (2 * span, common + span)]))
        ckt.v("vin_n", in_n, PWL([(0.0, common + span),
                                  (2 * span, common - span)]))
        circuits.append(ckt)
        outputs.append(cell.output_nets["Y"])
    systems = [System(ckt) for ckt in circuits]

    def diffs_at(times: List[float]) -> List[float]:
        ops = solve_dc_batch(circuits, times, systems=systems)
        return [op[out_p] - op[out_n]
                for op, (out_p, out_n) in zip(ops, outputs)]

    lo_t, hi_t = [0.0] * n_samples, [2 * span] * n_samples
    d_lo = diffs_at(lo_t)
    for _ in range(24):
        mid = [0.5 * (lo + hi) for lo, hi in zip(lo_t, hi_t)]
        d_mid = diffs_at(mid)
        for k in range(n_samples):
            if d_lo[k] * d_mid[k] <= 0.0:
                hi_t[k] = mid[k]
            else:
                lo_t[k], d_lo[k] = mid[k], d_mid[k]
    offsets: List[float] = []
    for lo, hi in zip(lo_t, hi_t):
        crossing_t = 0.5 * (lo + hi)
        vd_at_crossing = 2.0 * (crossing_t - span)  # input diff voltage
        offsets.append(-vd_at_crossing)
    return offsets
