"""Bias-point solving for MCML cells.

§3: "Vp, Vn, and sizing are the design parameters which determine the
performances of MCML circuits."  Given a target tail current and output
swing, this module finds the Vn bias voltage and the PMOS load width by
bisection against DC solves of a replica buffer cell — the software
equivalent of the bias-generation loop an MCML chip carries on-die.

Solutions are cached per (Iss, swing, technology, gated) so repeated
characterisation runs pay the cost once.  Within one search, the scan
and the bisections re-measure points they have already solved; a
per-call :class:`~repro.spice.OperatingPointCache` answers those
repeats with the stored operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..errors import CharacterizationError
from ..spice import Circuit, OperatingPointCache, solve_dc
from ..tech import Technology, TECH90
from .functions import function
from .mcml import McmlCellGenerator, McmlSizing
from .pgmcml import PgMcmlCellGenerator


@dataclass(frozen=True)
class BiasPoint:
    """A solved MCML bias point."""

    sizing: McmlSizing
    iss_target: float
    swing_target: float
    iss_measured: float
    swing_measured: float
    gated: bool

    @property
    def load_resistance(self) -> float:
        """Effective load resistance at the solved point."""
        return self.swing_measured / max(self.iss_measured, 1e-12)


_CACHE: Dict[Tuple[float, float, str, bool], BiasPoint] = {}


def _replica(sizing: McmlSizing, tech: Technology, gated: bool) -> Tuple[
        Circuit, str, str]:
    """A steered buffer replica: inp high, inn low; returns (ckt, outp, outn)."""
    gen_cls = PgMcmlCellGenerator if gated else McmlCellGenerator
    gen = gen_cls(tech, sizing)
    cell = gen.build(function("BUF"))
    ckt = cell.circuit
    ckt.v("vdd", cell.vdd_net, tech.vdd)
    ckt.v("vvn", cell.vn_net, sizing.vn)
    ckt.v("vvp", cell.vp_net, sizing.vp)
    inp, inn = cell.input_nets["A"]
    ckt.v("vinp", inp, sizing.input_high(tech))
    ckt.v("vinn", inn, sizing.input_low(tech))
    if gated:
        ckt.v("vsleep", cell.sleep_net, tech.vdd)  # active
    out_p, out_n = cell.output_nets["Y"]
    return ckt, out_p, out_n


def _measure(sizing: McmlSizing, tech: Technology, gated: bool,
             op_cache: OperatingPointCache) -> Tuple[float, float]:
    """(supply current, output swing) of the replica at DC."""
    ckt, out_p, out_n = _replica(sizing, tech, gated)
    op = solve_dc(ckt, op_cache=op_cache)
    iss = op.current("vdd")
    swing = abs(op[out_p] - op[out_n])
    return iss, swing


def _scan_bisect(candidates, err, tol: float) -> float:
    """Find a zero of ``err`` along a 1-D sweep that may be non-monotonic.

    Evaluates the candidates in order, bisects inside the first
    sign-change bracket; falls back to the candidate with the smallest
    |error| when no bracket exists.
    """
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
    """Find a zero of the monotonic function ``err`` on [lo, hi]."""
    f_lo = err(lo)
    f_hi = err(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        # No bracket: return the endpoint with the smaller error.
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


def solve_bias(iss: float, swing: float = 0.40, tech: Technology = TECH90,
               gated: bool = False, outer_iterations: int = 3) -> BiasPoint:
    """Solve Vn and load width for a target (Iss, swing).

    Alternates two bisections: Vn against the measured supply current
    (tail in saturation -> monotonic) and the load width against the
    measured swing (wider load -> lower resistance -> smaller swing).
    """
    if iss <= 0.0:
        raise CharacterizationError("target tail current must be positive")
    if not 0.0 < swing < tech.vdd:
        raise CharacterizationError("target swing must be within the supply")
    key = (round(iss, 12), round(swing, 6), tech.name, gated)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    op_cache = OperatingPointCache()
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

        # Swing vs load strength is non-monotonic: a too-resistive load
        # lets even the quiet rail collapse, so a plain bisection can
        # miss its bracket.  Scan from the widest (stiffest) load toward
        # the narrowest and bisect inside the first sign change.
        def swing_error(w_load: float) -> float:
            test = replace(sizing, w_load=w_load)
            _, measured = _measure(test, tech, gated, op_cache)
            # Narrower load -> larger swing; scanning wide->narrow makes
            # the error start positive and fall through zero.
            return swing - measured

        n_scan = 17
        widths = [w_hi * (w_lo / w_hi) ** (k / (n_scan - 1))
                  for k in range(n_scan)]
        w_load = _scan_bisect(widths, swing_error, tol=swing * 1e-3)
        sizing = replace(sizing, w_load=w_load)

        # At small tail currents even the minimum-width load is too
        # conductive: weaken it by raising the load gate bias Vp (the
        # second MCML design knob of §3) instead.
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
    point = BiasPoint(sizing=sizing, iss_target=iss, swing_target=swing,
                      iss_measured=iss_measured,
                      swing_measured=swing_measured, gated=gated)
    _CACHE[key] = point
    return point
