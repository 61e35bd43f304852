"""Serial references for the lockstep DC callers.

:func:`repro.cells.solve_biases` runs bias searches as generators whose
rounds go through one :func:`repro.spice.solve_dc_batch` each, and the
Monte Carlo analyses solve all dies in lockstep.  The references here
are the serial loops those replaced: one :func:`repro.spice.solve_dc`
after another, the search over closures that measure one replica per
call.  The contract between the two is equality: ``repr``-identical
bias points with the same operating-point cache hits and misses per
target, and float-equal Monte Carlo results.
"""

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.cells.bias import BiasPoint, _replica
from repro.cells.functions import function
from repro.cells.mcml import McmlCellGenerator, McmlSizing
from repro.cells.montecarlo import McmlMonteCarloResult
from repro.errors import CharacterizationError
from repro.spice import PWL, OperatingPointCache, solve_dc
from repro.tech import MismatchModel, Technology, TECH90


def _measure(sizing: McmlSizing, tech: Technology, gated: bool,
             op_cache: OperatingPointCache) -> Tuple[float, float]:
    """(supply current, output swing) of the replica at DC."""
    ckt, out_p, out_n = _replica(sizing, tech, gated)
    op = solve_dc(ckt, op_cache=op_cache)
    return op.current("vdd"), abs(op[out_p] - op[out_n])


def _scan_bisect(candidates, err, tol: float) -> float:
    values = list(candidates)
    errors = [err(v) for v in values]
    for (v0, e0), (v1, e1) in zip(zip(values, errors),
                                  zip(values[1:], errors[1:])):
        if e0 == 0.0:
            return v0
        if e0 * e1 <= 0.0:
            return _bisect(v0, v1, err, tol)
    best = min(range(len(values)), key=lambda i: abs(errors[i]))
    return values[best]


def _bisect(lo: float, hi: float, err, tol: float, iters: int = 28) -> float:
    f_lo = err(lo)
    f_hi = err(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        return lo if abs(f_lo) < abs(f_hi) else hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = err(mid)
        if abs(f_mid) < tol:
            return mid
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def serial_solve_bias(iss: float, swing: float = 0.40,
                      tech: Technology = TECH90, gated: bool = False,
                      outer_iterations: int = 3,
                      op_cache: Optional[OperatingPointCache] = None
                      ) -> BiasPoint:
    """The bias search, one replica solve at a time (uncached: pass
    ``op_cache`` to read its hit and miss counts afterwards)."""
    if iss <= 0.0:
        raise CharacterizationError("target tail current must be positive")
    if not 0.0 < swing < tech.vdd:
        raise CharacterizationError("target swing must be within the supply")
    op_cache = op_cache if op_cache is not None else OperatingPointCache()
    sizing = McmlSizing.for_current(iss, swing, tech)
    tail = tech.flavor(sizing.tail_flavor)
    vn_lo, vn_hi = tail.vt0 + 0.02, min(tech.vdd, tail.vt0 + 0.75)
    w_lo = tech.flavor(sizing.load_flavor).wmin
    w_hi = max(sizing.w_load * 20.0, w_lo * 40.0)

    for _ in range(outer_iterations):
        def current_error(vn: float) -> float:
            test = replace(sizing, vn=vn)
            measured, _ = _measure(test, tech, gated, op_cache)
            return measured - iss

        vn = _bisect(vn_lo, vn_hi, current_error, tol=iss * 1e-3)
        sizing = replace(sizing, vn=vn)

        def swing_error(w_load: float) -> float:
            test = replace(sizing, w_load=w_load)
            _, measured = _measure(test, tech, gated, op_cache)
            return swing - measured

        n_scan = 17
        widths = [w_hi * (w_lo / w_hi) ** (k / (n_scan - 1))
                  for k in range(n_scan)]
        w_load = _scan_bisect(widths, swing_error, tol=swing * 1e-3)
        sizing = replace(sizing, w_load=w_load)

        _, swing_now = _measure(sizing, tech, gated, op_cache)
        if swing_now < 0.9 * swing and w_load <= w_lo * 1.01:
            def swing_error_vp(vp: float) -> float:
                test = replace(sizing, vp=vp)
                _, measured = _measure(test, tech, gated, op_cache)
                return swing - measured

            vp = _scan_bisect([0.1 * k for k in range(9)], swing_error_vp,
                              tol=swing * 1e-3)
            sizing = replace(sizing, vp=vp)

    iss_measured, swing_measured = _measure(sizing, tech, gated, op_cache)
    if abs(iss_measured - iss) > 0.15 * iss:
        raise CharacterizationError(
            f"bias solve missed the current target: wanted {iss:.3g} A, "
            f"got {iss_measured:.3g} A")
    if abs(swing_measured - swing) > 0.15 * swing:
        raise CharacterizationError(
            f"bias solve missed the swing target: wanted {swing:.3g} V, "
            f"got {swing_measured:.3g} V")
    return BiasPoint(sizing=sizing, iss_target=iss, swing_target=swing,
                     iss_measured=iss_measured,
                     swing_measured=swing_measured, gated=gated)


def _die(k: int, sizing: McmlSizing, tech: Technology, avt: float,
         akp: float, seed: int):
    """Monte Carlo die ``k``: its biased buffer cell."""
    mismatch = MismatchModel(avt=avt, akp=akp, seed=seed + 1000 * k)
    cell = McmlCellGenerator(tech, sizing, mismatch=mismatch).build(
        function("BUF"))
    ckt = cell.circuit
    ckt.v("vdd", cell.vdd_net, tech.vdd)
    ckt.v("vvn", cell.vn_net, sizing.vn)
    ckt.v("vvp", cell.vp_net, sizing.vp)
    return cell, ckt


def serial_mc_buffer_residual(n_samples: int = 16,
                              sizing: Optional[McmlSizing] = None,
                              tech: Technology = TECH90,
                              avt: float = 3.5e-9, akp: float = 1.0e-9,
                              seed: int = 0) -> McmlMonteCarloResult:
    """Each die solved with the input high (t=0) and low (t=1)."""
    sizing = sizing or McmlSizing()
    residuals: List[float] = []
    means: List[float] = []
    for k in range(n_samples):
        cell, ckt = _die(k, sizing, tech, avt, akp, seed)
        hi, lo = sizing.input_high(tech), sizing.input_low(tech)
        in_p, in_n = cell.input_nets["A"]
        ckt.v("vin_p", in_p, PWL([(0.0, hi), (1.0, lo)]))
        ckt.v("vin_n", in_n, PWL([(0.0, lo), (1.0, hi)]))
        i_one = solve_dc(ckt, t=0.0).current("vdd")
        i_zero = solve_dc(ckt, t=1.0).current("vdd")
        residuals.append(i_one - i_zero)
        means.append(0.5 * (i_one + i_zero))
    return McmlMonteCarloResult(n_samples=n_samples,
                                residual_currents=residuals,
                                mean_currents=means)


def serial_mc_input_offset(n_samples: int = 12,
                           sizing: Optional[McmlSizing] = None,
                           tech: Technology = TECH90, avt: float = 3.5e-9,
                           akp: float = 1.0e-9, seed: int = 0) -> List[float]:
    """Each die's zero crossing bisected over the time-parameterised
    differential drive, one fresh ``solve_dc`` per probe."""
    sizing = sizing or McmlSizing()
    offsets: List[float] = []
    for k in range(n_samples):
        cell, ckt = _die(k, sizing, tech, avt, akp, seed)
        common = tech.vdd - sizing.swing / 2.0
        span = 0.05
        in_p, in_n = cell.input_nets["A"]
        ckt.v("vin_p", in_p, PWL([(0.0, common - span),
                                  (2 * span, common + span)]))
        ckt.v("vin_n", in_n, PWL([(0.0, common + span),
                                  (2 * span, common - span)]))
        out_p, out_n = cell.output_nets["Y"]

        def diff_at(t: float) -> float:
            op = solve_dc(ckt, t=t)
            return op[out_p] - op[out_n]

        lo_t, hi_t = 0.0, 2 * span
        d_lo = diff_at(lo_t)
        for _ in range(24):
            mid = 0.5 * (lo_t + hi_t)
            d_mid = diff_at(mid)
            if d_lo * d_mid <= 0.0:
                hi_t = mid
            else:
                lo_t, d_lo = mid, d_mid
        crossing_t = 0.5 * (lo_t + hi_t)
        vd_at_crossing = 2.0 * (crossing_t - span)
        offsets.append(-vd_at_crossing)
    return offsets
