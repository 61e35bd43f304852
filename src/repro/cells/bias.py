"""Bias-point solving for MCML cells.

§3: "Vp, Vn, and sizing are the design parameters which determine the
performances of MCML circuits."  Given a target tail current and output
swing, this module finds the Vn bias voltage and the PMOS load width by
bisection against DC solves of a replica buffer cell — the software
equivalent of the bias-generation loop an MCML chip carries on-die.

Each target's search is a generator (:func:`_search`) that yields the
replica sizings it needs measured — a scan yields all of its widths, or
all of its Vp values, at once — and :func:`solve_biases` runs any number
of targets round by round, every round's replicas in one lockstep
:func:`~repro.spice.batch.solve_dc_batch`, so each measurement is the
one :func:`~repro.spice.solve_dc` gives (``tests/dc_oracle.py`` keeps
the serial search).  Solutions are cached per (Iss, swing, technology,
gated, outer iterations) so repeated characterisation runs pay the cost
once.  Within one search, the scan and the bisections re-measure points
they have already solved; each target's own
:class:`~repro.spice.OperatingPointCache` answers those repeats with the
stored operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Sequence, Tuple

from ..errors import CharacterizationError
from ..spice import Circuit, OperatingPointCache, solve_dc_batch
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


#: Solved points by (Iss, swing, technology content, gated, outer
#: iterations): the technology's ``repr`` names every parameter, so a
#: modified technology under the same name is another key.
_CACHE: Dict[Tuple[float, float, str, bool, int], BiasPoint] = {}

#: A search step: the replica sizings to measure next; the driver sends
#: back their (supply current, output swing) measurements.
_Search = Generator[List[McmlSizing], List[Tuple[float, float]], BiasPoint]


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


def _errors(values, probe, error):
    """Measure ``probe(v)`` for every value in one round; their errors."""
    measured = yield [probe(v) for v in values]
    return [error(m) for m in measured]


def _scan_bisect(candidates, probe, error, tol: float):
    """Find a zero of the error along a 1-D sweep that may be
    non-monotonic.

    Measures every candidate in one round, bisects inside the first
    sign-change bracket; falls back to the candidate with the smallest
    |error| when no bracket exists.
    """
    values = list(candidates)
    errors = yield from _errors(values, probe, error)
    for (v0, e0), (v1, e1) in zip(zip(values, errors),
                                  zip(values[1:], errors[1:])):
        if e0 == 0.0:
            return v0
        if e0 * e1 <= 0.0:
            return (yield from _bisect(v0, v1, probe, error, tol))
    best = min(range(len(values)), key=lambda i: abs(errors[i]))
    return values[best]


def _bisect(lo: float, hi: float, probe, error, tol: float,
            iters: int = 28):
    """Find a zero of the monotonic error on [lo, hi]."""
    f_lo, f_hi = yield from _errors([lo, hi], probe, error)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        # No bracket: return the endpoint with the smaller error.
        return lo if abs(f_lo) < abs(f_hi) else hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid, = yield from _errors([mid], probe, error)
        if abs(f_mid) < tol:
            return mid
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _search(iss: float, swing: float, tech: Technology, gated: bool,
            outer_iterations: int) -> _Search:
    """Solve Vn and load width for a target (Iss, swing), yielding the
    replica sizings each step measures.

    Alternates two bisections: Vn against the measured supply current
    (tail in saturation -> monotonic) and the load width against the
    measured swing (wider load -> lower resistance -> smaller swing).
    """
    sizing = McmlSizing.for_current(iss, swing, tech)
    tail = tech.flavor(sizing.tail_flavor)
    vn_lo, vn_hi = tail.vt0 + 0.02, min(tech.vdd, tail.vt0 + 0.75)
    w_lo = tech.flavor(sizing.load_flavor).wmin
    w_hi = max(sizing.w_load * 20.0, w_lo * 40.0)

    def current_error(measured: Tuple[float, float]) -> float:
        return measured[0] - iss

    def swing_error(measured: Tuple[float, float]) -> float:
        # Narrower load -> larger swing; scanning wide->narrow makes
        # the error start positive and fall through zero.
        return swing - measured[1]

    for _ in range(outer_iterations):
        base = sizing
        vn = yield from _bisect(vn_lo, vn_hi,
                                lambda vn: replace(base, vn=vn),
                                current_error, tol=iss * 1e-3)
        sizing = replace(sizing, vn=vn)

        # Swing vs load strength is non-monotonic: a too-resistive load
        # lets even the quiet rail collapse, so a plain bisection can
        # miss its bracket.  Scan from the widest (stiffest) load toward
        # the narrowest and bisect inside the first sign change.
        base = sizing
        n_scan = 17
        widths = [w_hi * (w_lo / w_hi) ** (k / (n_scan - 1))
                  for k in range(n_scan)]
        w_load = yield from _scan_bisect(
            widths, lambda w: replace(base, w_load=w), swing_error,
            tol=swing * 1e-3)
        sizing = replace(sizing, w_load=w_load)

        # At small tail currents even the minimum-width load is too
        # conductive: weaken it by raising the load gate bias Vp (the
        # second MCML design knob of §3) instead.
        (_, swing_now), = yield [sizing]
        if swing_now < 0.9 * swing and w_load <= w_lo * 1.01:
            base = sizing
            vp = yield from _scan_bisect(
                [0.1 * k for k in range(9)],
                lambda vp: replace(base, vp=vp), swing_error,
                tol=swing * 1e-3)
            sizing = replace(sizing, vp=vp)

    (iss_measured, swing_measured), = yield [sizing]
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


def solve_biases(targets: Sequence[float], swing: float = 0.40,
                 tech: Technology = TECH90, gated: bool = False,
                 outer_iterations: int = 3) -> List[BiasPoint]:
    """:func:`solve_bias` for every tail current in ``targets``, the
    searches in lockstep.

    Each round gathers every unfinished search's next replicas and
    solves them with one :func:`~repro.spice.batch.solve_dc_batch`, each
    through its own target's operating-point cache, so every search
    walks the serial search's steps and returns its point.  A target
    already solved (or repeated in ``targets``) is not searched again:
    equal targets get one :class:`BiasPoint` object.
    """
    if any(iss <= 0.0 for iss in targets):
        raise CharacterizationError("target tail current must be positive")
    if not 0.0 < swing < tech.vdd:
        raise CharacterizationError("target swing must be within the supply")
    tech_key = repr(tech)
    keys = [(round(iss, 12), round(swing, 6), tech_key, gated,
             outer_iterations) for iss in targets]
    searches: Dict[tuple, list] = {}
    for iss, key in zip(targets, keys):
        if key not in _CACHE and key not in searches:
            search = _search(iss, swing, tech, gated, outer_iterations)
            searches[key] = [search, OperatingPointCache(), next(search)]
    while searches:
        lanes = [(key, sizing) for key, (_, _, wanted) in searches.items()
                 for sizing in wanted]
        replicas = [_replica(sizing, tech, gated) for _, sizing in lanes]
        points = solve_dc_batch(
            [ckt for ckt, _, _ in replicas],
            op_cache=[searches[key][1] for key, _ in lanes])
        measured: Dict[tuple, list] = {key: [] for key in searches}
        for (key, _), (_, out_p, out_n), op in zip(lanes, replicas, points):
            measured[key].append((op.current("vdd"),
                                  abs(op[out_p] - op[out_n])))
        for key, values in measured.items():
            state = searches[key]
            try:
                state[2] = state[0].send(values)
            except StopIteration as done:
                _CACHE[key] = done.value
                del searches[key]
    return [_CACHE[key] for key in keys]


def solve_bias(iss: float, swing: float = 0.40, tech: Technology = TECH90,
               gated: bool = False, outer_iterations: int = 3) -> BiasPoint:
    """Solve Vn and load width for a target (Iss, swing).

    Alternates two bisections: Vn against the measured supply current
    (tail in saturation -> monotonic) and the load width against the
    measured swing (wider load -> lower resistance -> smaller swing).
    The one-target case of :func:`solve_biases`.
    """
    return solve_biases([iss], swing, tech, gated, outer_iterations)[0]
