"""Lockstep batched transient analysis across independent circuits.

A CPA/TVLA campaign re-solves the *same* topology thousands of times
with only the stimulus (and possibly device parameters) differing.  This
module extends the device banks (:mod:`repro.spice.banks`) with a batch
axis: B circuits sharing one topology are evaluated as ``(B, M)`` device
stacks, their residuals and Jacobians assembled into ``(B, n)`` /
``(B, n, n)`` stacks, and every Newton iteration factors all lanes with
a single batched :func:`numpy.linalg.solve`.

Lockstep semantics
------------------

The serial engine (:func:`~repro.spice.transient.run_transient`) is the
normative oracle — the batched engine reproduces its *per-lane* control
flow exactly and only shares the dispatch:

* Newton iterations carry a per-lane convergence mask: a converged lane
  freezes (its iterate never moves again) while the rest keep stepping,
  so each lane walks the same damped-Newton trajectory it would walk
  alone.
* Step-halving state is per lane: a lane that rejects a step subdivides
  its own pending stack without affecting its batch mates.
* :class:`~repro.spice.recovery.SolveBudget` accounting is per lane
  (per-lane :class:`~repro.spice.transient.TransientStats` counted
  against the shared limits).
* A lane that fails — Newton divergence, budget exhaustion, anything —
  *falls out of the batch* and is retried serially with the full
  recovery ladder at the end of the run, instead of poisoning the other
  lanes.  Only if the serial retry also fails does the error propagate,
  which makes batched failure semantics identical to serial ones.

Whole-batch serial fallback (with a ``spice.batch.fallback`` telemetry
event) happens when the batch axis cannot apply at all: un-banked custom
device classes (fault-injection proxies), an ``on_step`` hook, no
unknowns, or lanes whose topologies do not actually match.

Lanes follow their template's :class:`~repro.spice.dc.System`: the
assembly (dense banks or sparse CSC) is the one its unknown count
selects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import BudgetExhaustedError, CircuitError, ConvergenceError
from ..obs import NULL_TELEMETRY
from .banks import FD_STEP
from .circuit import Circuit, canonical_node
from .dc import _DAMP_LIMIT, OperatingPoint, System, _initial_guess, \
    solve_dc
from .recovery import _ATTEMPT_MAXITER, SolveBudget
from .transient import TransientResult, TransientStats, _CompanionCaps, \
    _ringing_mask, _time_grid, run_transient

class BatchSystem:
    """Bank-indexed view of B circuits sharing one topology.

    The first circuit is the *template*: its :class:`System` supplies the
    node indices, scatter plans, packed-voltage layout, and assembly for
    every lane.  Construction validates that all lanes really are the same
    topology (device classes and terminals, node sets, source names,
    stimulus breakpoints) and harvests per-lane device parameters, which
    are collapsed back to the template's shared vectors when no lane
    differs (the common case — only the stimulus varies).
    """

    def __init__(self, circuits: Sequence[Circuit], telemetry=None):
        if not circuits:
            raise CircuitError("BatchSystem needs at least one circuit")
        self.circuits = list(circuits)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.system = System(self.circuits[0], telemetry=self.telemetry)
        self._validate_lockstep()
        self.banks = self.system.bank_assembly()
        if self.banks.loop is not None:
            kinds = sorted({type(d).__name__
                            for d, _, _ in self.banks.loop.entries})
            raise CircuitError(
                f"batch assembly does not support un-banked device classes "
                f"{kinds}; run these circuits serially",
                context={"classes": kinds})
        self.params = self._harvest_params()

    # -- construction --------------------------------------------------------

    def _validate_lockstep(self) -> None:
        tpl = self.circuits[0]
        tpl_devs = [(type(d), tuple(d.terminals)) for d in tpl.devices]
        tpl_unknowns = tpl.unknown_nodes()
        tpl_fixed = list(tpl.fixed_nodes())
        tpl_sources = [(s.name, s.node) for s in tpl.vsources]
        tpl_breaks = tuple(tpl.stimulus_breakpoints())
        tpl_caps = [(a, b) for a, b, _ in tpl.linear_capacitances()]
        for i, ckt in enumerate(self.circuits[1:], start=1):
            ckt.validate()
            lane_devs = [(type(d), tuple(d.terminals)) for d in ckt.devices]
            if lane_devs != tpl_devs:
                raise CircuitError(
                    f"batch lane {i} ({ckt.name!r}) differs from the "
                    f"template topology: device classes/terminals do not "
                    f"match", context={"lane": i})
            if ckt.unknown_nodes() != tpl_unknowns \
                    or list(ckt.fixed_nodes()) != tpl_fixed:
                raise CircuitError(
                    f"batch lane {i} ({ckt.name!r}) has a different node "
                    f"partition than the template", context={"lane": i})
            if [(s.name, s.node) for s in ckt.vsources] != tpl_sources:
                raise CircuitError(
                    f"batch lane {i} ({ckt.name!r}) has different sources "
                    f"than the template", context={"lane": i})
            if tuple(ckt.stimulus_breakpoints()) != tpl_breaks:
                raise CircuitError(
                    f"batch lane {i} ({ckt.name!r}) has different stimulus "
                    f"breakpoints than the template; lockstep marching "
                    f"needs one shared time grid", context={"lane": i})
            if [(a, b) for a, b, _ in ckt.linear_capacitances()] != tpl_caps:
                raise CircuitError(
                    f"batch lane {i} ({ckt.name!r}) has different "
                    f"capacitor connectivity than the template",
                    context={"lane": i})

    def _harvest_params(self) -> Optional[list]:
        """Per-bank parameter stacks, or ``None`` when all lanes match."""
        per_lane = [self.banks.lane_params(ckt) for ckt in self.circuits]
        stacked, any_differ = [], False
        for k in range(len(self.banks.banks)):
            cols = [lane[k] for lane in per_lane]
            if isinstance(cols[0], tuple):
                parts = []
                for j in range(len(cols[0])):
                    vals = [c[j] for c in cols]
                    if all(np.array_equal(v, vals[0]) for v in vals[1:]):
                        parts.append(vals[0])
                    else:
                        parts.append(np.stack(vals))
                        any_differ = True
                stacked.append(tuple(parts))
            else:
                if all(np.array_equal(c, cols[0]) for c in cols[1:]):
                    stacked.append(cols[0])
                else:
                    stacked.append(np.stack(cols))
                    any_differ = True
        return stacked if any_differ else None

    def params_for(self, lane_ids: np.ndarray) -> Optional[list]:
        """The per-bank parameter view for a subset of lanes."""
        if self.params is None:
            return None
        out = []
        for p in self.params:
            if isinstance(p, tuple):
                out.append(tuple(q if q.ndim == 1 else q[lane_ids]
                                 for q in p))
            else:
                out.append(p if p.ndim == 1 else p[lane_ids])
        return out

    # -- assembly ------------------------------------------------------------

    def residual_and_jacobian_batch(self, xs: np.ndarray, tails: np.ndarray,
                                    gmin: float, lane_ids: np.ndarray,
                                    with_jac: bool = True):
        """Stacked KCL residuals (and Jacobians) for a subset of lanes.

        ``xs`` is ``(A, n)``, ``tails`` is ``(A, F)``; returns
        ``((A, n), (A, n, n))``.
        """
        n = self.system.n
        volts_full = np.concatenate([xs, tails], axis=1)
        f = np.zeros((xs.shape[0], n))
        if self.system.assembly == "sparse":
            sp_asm = self.system.sparse_assembly()
            data = np.zeros((xs.shape[0], sp_asm.nnz)) if with_jac else None
            sp_asm.accumulate_batch(f, data, volts_full, FD_STEP,
                                    self.params_for(lane_ids))
            if gmin > 0.0:
                f += gmin * xs
                if data is not None:
                    data[:, sp_asm.diag_pos] += gmin
            return f, data
        jac = np.zeros((xs.shape[0], n, n)) if with_jac else None
        self.banks.accumulate_batch(f, jac, volts_full, FD_STEP,
                                    self.params_for(lane_ids))
        if gmin > 0.0:
            f += gmin * xs
            if jac is not None:
                jac[:, np.arange(n), np.arange(n)] += gmin
        return f, jac

    def fixed_totals_batch(self, xs: np.ndarray, tails: np.ndarray,
                           lane_ids: np.ndarray) -> np.ndarray:
        """Per-source device currents, ``(A, F)``."""
        volts_full = np.concatenate([xs, tails], axis=1)
        return self.banks.fixed_totals_batch(volts_full,
                                             self.params_for(lane_ids))

    # -- lockstep Newton -----------------------------------------------------

    def newton_batch(self, tails: np.ndarray, x0s: np.ndarray,
                     gmin: float, lane_ids: np.ndarray, extra=None,
                     abstol: float = 1e-11, steptol: float = 1e-8,
                     maxiter: int = _ATTEMPT_MAXITER):
        """Damped Newton over all lanes at once with per-lane freezing.

        Mirrors :meth:`System.newton` lane for lane: per-lane damping,
        per-lane rail clipping, the same convergence test — but every
        iteration assembles and factors the still-active lanes together.
        A lane whose residual or update goes non-finite is marked failed
        and frozen (serial raises there; the batch equivalent is falling
        out).  Returns ``(xs, converged, iters, resid, singular)``.
        """
        nb, n = x0s.shape
        converged = np.zeros(nb, bool)
        failed = np.zeros(nb, bool)
        iters = np.zeros(nb, int)
        resid = np.full(nb, np.inf)
        singular = np.zeros(nb, int)
        xs = x0s.copy()
        if n == 0:
            converged[:] = True
            resid[:] = 0.0
            return xs, converged, iters, resid, singular
        if tails.shape[1]:
            vmax = np.maximum(tails.max(axis=1), 0.0) + 1.0
            vmin = np.minimum(tails.min(axis=1), 0.0) - 1.0
        else:
            vmax = np.full(nb, 1.0)
            vmin = np.full(nb, -1.0)
        tele = self.telemetry
        for iteration in range(maxiter):
            idx = np.flatnonzero(~converged & ~failed)
            if idx.size == 0:
                break
            tele.counter("spice.batch.lockstep_iterations").inc()
            f, jac = self.residual_and_jacobian_batch(xs[idx], tails[idx],
                                                      gmin, lane_ids[idx])
            if extra is not None:
                f_extra, j_extra = extra(xs[idx], idx)
                f = f + f_extra
                jac = jac + j_extra
            res = np.abs(f).max(axis=1)
            iters[idx] = iteration + 1
            resid[idx] = res
            bad = ~np.isfinite(res)
            if bad.any():
                # A NaN/Inf residual can never recover (serial fails
                # fast there); freeze those lanes and keep the rest.
                failed[idx[bad]] = True
                good = ~bad
                idx, f, jac, res = idx[good], f[good], jac[good], res[good]
                if idx.size == 0:
                    continue
            if self.system.assembly == "sparse":
                # Per-lane splu over the shared canonical pattern: the
                # one-time ordering amortises across lanes and steps.
                dx, sing = self.system.sparse_assembly().solve_batch(
                    jac, -f)
                if sing.any():
                    singular[idx] += sing
                    self.system.singular_jacobian_events += int(sing.sum())
            else:
                try:
                    dx = np.linalg.solve(jac, -f[..., None])[..., 0]
                except np.linalg.LinAlgError:
                    # One singular lane poisons the stacked factorization:
                    # redo lane by lane with the serial solver's exact
                    # Tikhonov-lstsq fallback so healthy lanes stay on the
                    # fast path next iteration.
                    dx = np.empty_like(f)
                    for a in range(idx.size):
                        try:
                            dx[a] = np.linalg.solve(jac[a], -f[a])
                        except np.linalg.LinAlgError:
                            singular[idx[a]] += 1
                            self.system.singular_jacobian_events += 1
                            jac_reg = jac[a].copy()
                            jac_reg.flat[::n + 1] += 1e-12
                            dx[a], *_ = np.linalg.lstsq(jac_reg, -f[a],
                                                        rcond=None)
            bad = ~np.all(np.isfinite(dx), axis=1)
            if bad.any():
                failed[idx[bad]] = True
                good = ~bad
                idx, dx, res = idx[good], dx[good], res[good]
                if idx.size == 0:
                    continue
            step = np.abs(dx).max(axis=1)
            over = step > _DAMP_LIMIT
            if over.any():
                dx[over] *= (_DAMP_LIMIT / step[over])[:, None]
                step[over] = _DAMP_LIMIT
            xs[idx] = np.minimum(np.maximum(xs[idx] + dx,
                                            vmin[idx, None]),
                                 vmax[idx, None])
            converged[idx] = (res < abstol) & (step < steptol)
        tele.counter("spice.batch.lockstep_solves").inc()
        return xs, converged, iters, resid, singular


class _BatchCaps:
    """Per-lane capacitor companion state over one shared incidence.

    The template's :class:`~repro.spice.transient._CompanionCaps` supplies
    the entry list and packed indices; this class stacks the per-lane
    capacitance values and trapezoidal history currents ``(B, E)`` and
    precomputes dense deposit operators so a whole batch's companion
    residual and Jacobian are two matmuls.
    """

    def __init__(self, system: System, circuits: Sequence[Circuit]):
        tpl = _CompanionCaps(system, circuits[0])
        self.entries = tpl.entries
        self.ja, self.jb = tpl.ja, tpl.jb
        self._s_extra = tpl._s_extra            # (n, E) residual incidence
        n = system.n
        e = len(self.entries)
        self._sparse = system.assembly == "sparse"
        if self._s_extra is None:
            # Sparse mode skips the serial (n, E) incidence at full-core
            # scale; batch lanes are per-trace testbenches, where it is
            # affordable and keeps the batched residual a single dgemm.
            self._s_extra = np.zeros((n, e))
            for k, (ia, _, ib, _, _) in enumerate(self.entries):
                if ia >= 0:
                    self._s_extra[ia, k] += 1.0
                if ib >= 0:
                    self._s_extra[ib, k] -= 1.0
        if self._sparse:
            self._sp_pos = tpl._sparse_positions()
            self._sp_ua, self._sp_ub = tpl._ua, tpl._ub
            self._sp_both = tpl._both
            self._nnz = system.sparse_assembly().nnz
        cvecs = []
        for ckt in circuits:
            vals = [c for a, b, c in ckt.linear_capacitances()
                    if system.index.get(a, -1) >= 0
                    or system.index.get(b, -1) >= 0]
            cvecs.append(np.array(vals) if vals else np.zeros(0))
        self.cvec = cvecs[0] if all(np.array_equal(v, cvecs[0])
                                    for v in cvecs[1:]) else np.stack(cvecs)
        # Jacobian incidence (n*n, E): geq @ s_jac.T stamps all lanes.
        # In sparse mode the stamps land in (A, nnz) data stacks through
        # the canonical positions instead.
        self._s_jac = None
        if not self._sparse:
            self._s_jac = np.zeros((n * n, e))
            for k, (ia, _, ib, _, _) in enumerate(self.entries):
                if ia >= 0:
                    self._s_jac[ia * n + ia, k] += 1.0
                if ib >= 0:
                    self._s_jac[ib * n + ib, k] += 1.0
                if ia >= 0 and ib >= 0:
                    self._s_jac[ia * n + ib, k] -= 1.0
                    self._s_jac[ib * n + ia, k] -= 1.0
        # Fixed-node incidence (F, E) for source-current snapshots.
        nf = len(system.fixed_pos)
        self._s_fixed = np.zeros((nf, e))
        for k, (ia, na, ib, nb, _) in enumerate(self.entries):
            if ia < 0 and na in system.fixed_pos:
                self._s_fixed[system.fixed_pos[na], k] += 1.0
            if ib < 0 and nb in system.fixed_pos:
                self._s_fixed[system.fixed_pos[nb], k] -= 1.0
        self.i_prev = np.zeros((len(circuits), e))
        self.n = n

    def lane_cvec(self, lane_ids: np.ndarray) -> np.ndarray:
        return self.cvec if self.cvec.ndim == 1 else self.cvec[lane_ids]

    def v_diff(self, xs: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Per-entry voltage across each capacitor, ``(A, E)``."""
        v = np.concatenate([xs, tails], axis=1)
        return v[:, self.ja] - v[:, self.jb]

    def geq(self, factors: np.ndarray, dts: np.ndarray,
            lane_ids: np.ndarray) -> np.ndarray:
        """Companion conductances ``factor * c / dt``, ``(A, E)``."""
        return (factors[:, None] * self.lane_cvec(lane_ids)) / dts[:, None]

    def make_extra(self, xs_prev: np.ndarray, tails_prev: np.ndarray,
                   tails_now: np.ndarray, dts: np.ndarray,
                   factors: np.ndarray, lane_ids: np.ndarray):
        """Batched Newton ``extra`` for one lockstep step.

        ``factors`` is 1.0 (BE) or 2.0 (trap) per lane; the returned
        closure takes the active-subset iterate plus its index into the
        round's lane arrays.
        """
        a, n = xs_prev.shape[0], self.n
        if not self.entries:
            if self._sparse:
                return lambda xs, sel: (np.zeros((xs.shape[0], n)),
                                        np.zeros((xs.shape[0], self._nnz)))
            return lambda xs, sel: (np.zeros((xs.shape[0], n)),
                                    np.zeros((xs.shape[0], n, n)))
        v_prev = self.v_diff(xs_prev, tails_prev)
        i_prev = self.i_prev[lane_ids]
        geq = self.geq(factors, dts, lane_ids)
        if self._sparse:
            w = np.concatenate([geq[:, self._sp_ua], geq[:, self._sp_ub],
                                -geq[:, self._sp_both],
                                -geq[:, self._sp_both]], axis=1)
            rows = np.arange(a)[:, None] * self._nnz + self._sp_pos
            jac = np.bincount(rows.ravel(), weights=w.ravel(),
                              minlength=a * self._nnz).reshape(a, self._nnz)
        else:
            jac = (geq @ self._s_jac.T).reshape(a, n, n)
        trap = factors == 2.0
        ja, jb = self.ja, self.jb
        s_extra_t = self._s_extra.T

        def extra(xs: np.ndarray, sel: np.ndarray):
            v = np.concatenate([xs, tails_now[sel]], axis=1)
            i_now = geq[sel] * ((v[:, ja] - v[:, jb]) - v_prev[sel])
            i_now = np.where(trap[sel, None], i_now - i_prev[sel], i_now)
            return i_now @ s_extra_t, jac[sel]

        return extra

    def step_currents(self, xs: np.ndarray, tails_now: np.ndarray,
                      xs_prev: np.ndarray, tails_prev: np.ndarray,
                      dts: np.ndarray, factors: np.ndarray,
                      lane_ids: np.ndarray) -> np.ndarray:
        """Candidate companion currents of an accepted step, ``(A, E)``.

        Pure (like the serial ``step_currents``): reads the trapezoidal
        history, never writes it.
        """
        if not self.entries:
            return np.zeros((xs.shape[0], 0))
        geq = self.geq(factors, dts, lane_ids)
        i_new = geq * (self.v_diff(xs, tails_now)
                       - self.v_diff(xs_prev, tails_prev))
        trap = factors == 2.0
        return np.where(trap[:, None], i_new - self.i_prev[lane_ids], i_new)

    def commit_currents(self, lane_ids: np.ndarray,
                        i_new: np.ndarray) -> None:
        """Store accepted currents; exactly once per accepted lane step."""
        self.i_prev[lane_ids] = i_new

    def fixed_totals(self) -> np.ndarray:
        """Capacitor current drawn out of each fixed node, ``(B, F)``."""
        return self.i_prev @ self._s_fixed.T


class _Lane:
    """Marching state of one batch lane (mirrors the serial locals)."""

    __slots__ = ("idx", "circuit", "x", "fixed", "tail", "t_cur", "pending",
                 "min_sub", "interval_retried", "fallback", "redo", "failed",
                 "stats", "round_method", "round_t_next", "round_sub",
                 "round_fixed", "round_tail")

    def __init__(self, idx: int, circuit: Circuit, stats: TransientStats):
        self.idx = idx
        self.circuit = circuit
        self.x: Optional[np.ndarray] = None
        self.fixed: Dict[str, float] = {}
        self.tail: Optional[np.ndarray] = None
        self.t_cur = 0.0
        self.pending: List[float] = []
        self.min_sub = 0.0
        self.interval_retried = False
        self.fallback = False           # BE fallback pending at min step
        self.redo = None                # (x_trap, i_cand) awaiting BE redo
        self.failed: Optional[str] = None
        self.stats = stats


def run_transient_batch(circuits: Sequence[Circuit], tstop: float, dt: float,
                        record: Optional[Sequence[str]] = None,
                        method: str = "be",
                        ics: Optional[Sequence[OperatingPoint]] = None,
                        max_step_halvings: int = 8,
                        be_fallback: bool = True,
                        detect_ringing: bool = False,
                        on_step=None,
                        telemetry=None,
                        budget: Optional[SolveBudget] = None,
                        ) -> List[TransientResult]:
    """Simulate B same-topology circuits in lockstep; serial-equivalent.

    Parameters match :func:`~repro.spice.transient.run_transient` with a
    list of circuits (and optionally a list of initial operating points)
    in place of one.  Returns one :class:`TransientResult` per lane, in
    input order, equal to the serial engine's output to batched-BLAS
    rounding (≤1e-12; see ``tests/test_spice_batch.py``).

    Falls back to per-lane serial runs — with a ``spice.batch.fallback``
    telemetry event — whenever the batch axis cannot apply: un-banked
    custom device classes, an ``on_step`` hook, mismatched topologies,
    or a circuit with no unknowns.  A lane that fails mid-flight falls
    out of the batch and is retried serially
    (``spice.batch.lane_isolated`` event); its error propagates only if
    the serial retry fails too.
    """
    circuits = list(circuits)
    if not circuits:
        return []
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    budget = budget if budget is not None else SolveBudget.from_env()

    def serial_all(reason: str) -> List[TransientResult]:
        tele.counter("spice.batch.serial_fallbacks").inc()
        tele.event("spice.batch.fallback", reason=reason,
                   lanes=len(circuits))
        return [run_transient(ckt, tstop, dt, record=record, method=method,
                              ic=None if ics is None else ics[i],
                              max_step_halvings=max_step_halvings,
                              be_fallback=be_fallback,
                              detect_ringing=detect_ringing,
                              on_step=on_step, telemetry=telemetry,
                              budget=budget)
                for i, ckt in enumerate(circuits)]

    if on_step is not None:
        return serial_all("on_step-hook")
    if ics is not None and len(ics) != len(circuits):
        raise CircuitError(
            f"ics has {len(ics)} entries for {len(circuits)} circuits")
    try:
        bs = BatchSystem(circuits, telemetry=tele)
    except CircuitError as err:
        return serial_all(f"unbatchable: {err.args[0][:120]}")
    if bs.system.n == 0:
        return serial_all("no-unknowns")
    if tstop <= 0.0 or dt <= 0.0:
        raise CircuitError("tstop and dt must be positive")
    if method not in ("be", "trap"):
        raise CircuitError(f"unknown integration method {method!r}")
    if max_step_halvings < 0:
        raise CircuitError("max_step_halvings must be >= 0")

    nb = len(circuits)
    system = bs.system
    with tele.span("spice.transient.batch_run", circuit=circuits[0].name,
                   lanes=nb, tstop=tstop, dt=dt, method=method) as span:
        tele.counter("spice.batch.runs").inc()
        tele.counter("spice.batch.lanes").inc(nb)
        results = _march(bs, tstop, dt, record, method, ics,
                         max_step_halvings, be_fallback, detect_ringing,
                         tele, budget)
        failed = [i for i, r in enumerate(results) if r is None]
        span.set("lane_retries", len(failed))
        for i in failed:
            tele.counter("spice.batch.lane_retries").inc()
            tele.event("spice.batch.lane_isolated", lane=i,
                       circuit=circuits[i].name)
            # Serial retry with the full recovery ladder: the serial
            # path is normative, so whatever it produces — result or
            # error — is the lane's outcome.
            results[i] = run_transient(
                circuits[i], tstop, dt, record=record, method=method,
                ic=None if ics is None else ics[i],
                max_step_halvings=max_step_halvings,
                be_fallback=be_fallback, detect_ringing=detect_ringing,
                telemetry=telemetry, budget=budget)
    return results


def _march(bs: BatchSystem, tstop: float, dt: float,
           record: Optional[Sequence[str]], method: str,
           ics: Optional[Sequence[OperatingPoint]], max_step_halvings: int,
           be_fallback: bool, detect_ringing: bool, tele,
           budget: SolveBudget) -> List[Optional[TransientResult]]:
    """Lockstep marching core; ``None`` marks a lane needing serial retry."""
    system = bs.system
    circuits = bs.circuits
    nb = len(circuits)
    n = system.n

    template = circuits[0]
    if record is not None:
        known = set(template.all_nodes())
        record_nodes = list(dict.fromkeys(record))
        canon_of = {node: canonical_node(node) for node in record_nodes}
        bad = sorted(node for node, canon in canon_of.items()
                     if canon not in known)
        if bad:
            raise CircuitError(
                f"record names {bad} are not nodes of circuit "
                f"{template.name!r}; known nodes: {sorted(known)}")
    else:
        record_nodes = template.all_nodes()
        canon_of = {node: node for node in record_nodes}
    grid = _time_grid(tstop, dt, template.stimulus_breakpoints())

    lanes = [_Lane(i, ckt, TransientStats(grid_points=len(grid)))
             for i, ckt in enumerate(circuits)]
    all_ids = np.arange(nb)

    # -- initial operating points (batched plain Newton, serial ladder
    # for the stragglers — the ladder is exactly what serial would run).
    fixed0 = [ckt.fixed_nodes(0.0) for ckt in circuits]
    tails0 = np.stack([system.fixed_tail(f) for f in fixed0])
    if ics is not None:
        xs = np.stack([
            np.array([op.voltages[u] for u in system.unknowns])
            for op in ics])
    else:
        if budget.max_ladder_attempts is not None \
                and budget.max_ladder_attempts < 1:
            return [None] * nb  # serial raises before its first rung
        x0s = np.stack([_initial_guess(system, f) for f in fixed0])
        maxiter0 = _ATTEMPT_MAXITER
        if budget.max_newton_iterations is not None:
            maxiter0 = min(maxiter0, budget.max_newton_iterations)
        xs, converged, _, _, _ = bs.newton_batch(tails0, x0s, 0.0, all_ids,
                                                 maxiter=maxiter0)
        for i in np.flatnonzero(~converged):
            try:
                op = solve_dc(circuits[i], t=0.0, budget=budget)
            except ConvergenceError:
                lanes[i].failed = "dc"
                continue
            xs[i] = [op.voltages[u] for u in system.unknowns]

    caps = _BatchCaps(system, circuits)
    for lane, f0, t0 in zip(lanes, fixed0, tails0):
        lane.x = xs[lane.idx].copy()
        lane.fixed = f0
        lane.tail = t0

    fixed_names = list(fixed0[0])
    src_pos = {s.name: system.fixed_pos[s.node] for s in template.vsources}
    rec_unknown = {node: system.index[c] for node, c in canon_of.items()
                   if c in system.index}
    rec_fixed = {node: system.fixed_pos[c] for node, c in canon_of.items()
                 if c not in system.index}

    snap_x: List[np.ndarray] = []
    snap_tail: List[np.ndarray] = []
    snap_src: List[np.ndarray] = []

    def snapshot() -> None:
        xs_now = np.stack([lane.x for lane in lanes])
        tails_now = np.stack([lane.tail for lane in lanes])
        dev = bs.fixed_totals_batch(xs_now, tails_now, all_ids)
        totals = dev + caps.fixed_totals()
        snap_x.append(xs_now)
        snap_tail.append(tails_now)
        snap_src.append(totals)

    snapshot()
    for gi in range(1, len(grid)):
        t0, t1 = float(grid[gi - 1]), float(grid[gi])
        live = [lane for lane in lanes if lane.failed is None]
        if not live:
            break
        for lane in live:
            lane.pending = [t1]
            lane.t_cur = t0
            lane.min_sub = (t1 - t0) / (2 ** max_step_halvings)
            lane.interval_retried = False
            lane.fallback = False
            lane.redo = None
        while True:
            round_lanes = [lane for lane in live
                           if lane.failed is None and lane.pending]
            if not round_lanes:
                break
            _lockstep_round(bs, caps, round_lanes, method, be_fallback,
                            detect_ringing, max_step_halvings, budget, tele)
        snapshot()

    # -- per-lane results ----------------------------------------------------
    x_series = np.stack(snap_x)          # (T, B, n)
    tail_series = np.stack(snap_tail)    # (T, B, F)
    src_series = np.stack(snap_src)      # (T, B, F)
    results: List[Optional[TransientResult]] = []
    for lane in lanes:
        if lane.failed is not None:
            results.append(None)
            continue
        i = lane.idx
        voltages = {}
        for node in record_nodes:
            if node in rec_unknown:
                voltages[node] = x_series[:, i, rec_unknown[node]].copy()
            else:
                voltages[node] = tail_series[:, i, rec_fixed[node]].copy()
        currents = {name: src_series[:, i, pos].copy()
                    for name, pos in src_pos.items()}
        results.append(TransientResult(grid, voltages, currents,
                                       stats=lane.stats))
    return results


def _lockstep_round(bs: BatchSystem, caps: _BatchCaps,
                    round_lanes: List[_Lane], method: str, be_fallback: bool,
                    detect_ringing: bool, max_step_halvings: int,
                    budget: SolveBudget, tele) -> None:
    """One batched solve round: each unfinished lane attempts its next
    substep, then accepts / halves / falls back exactly as serial would."""
    system = bs.system
    for lane in round_lanes:
        lane.round_t_next = lane.pending[-1]
        lane.round_sub = lane.round_t_next - lane.t_cur
        lane.round_fixed = lane.circuit.fixed_nodes(lane.round_t_next)
        lane.round_tail = system.fixed_tail(lane.round_fixed)
        lane.round_method = "be" if (method == "be" or lane.fallback
                                     or lane.redo is not None) else "trap"

    lane_ids = np.array([lane.idx for lane in round_lanes])
    xs_prev = np.stack([lane.x for lane in round_lanes])
    tails_prev = np.stack([lane.tail for lane in round_lanes])
    tails_next = np.stack([lane.round_tail for lane in round_lanes])
    dts = np.array([lane.round_sub for lane in round_lanes])
    factors = np.array([1.0 if lane.round_method == "be" else 2.0
                        for lane in round_lanes])

    extra = caps.make_extra(xs_prev, tails_prev, tails_next, dts, factors,
                            lane_ids)
    xs_new, converged, iters, resid, _ = bs.newton_batch(
        tails_next, xs_prev, 0.0, lane_ids, extra=extra)

    # Candidate companion currents for every converged lane in one call.
    i_cand = caps.step_currents(xs_new, tails_next, xs_prev, tails_prev,
                                dts, factors, lane_ids)
    ringing = np.zeros(len(round_lanes), bool)
    if detect_ringing and i_cand.shape[1]:
        i_old = caps.i_prev[lane_ids]
        ringing = np.any(_ringing_mask(i_cand, i_old), axis=-1)

    for a, lane in enumerate(round_lanes):
        stats = lane.stats
        if not converged[a]:
            if lane.redo is not None:
                # BE redo of a ringing trap step failed: keep the
                # converged trap solution (serial does the same).
                x_trap, i_trap = lane.redo
                lane.redo = None
                caps.commit_currents(np.array([lane.idx]), i_trap[None, :])
                _accept(lane, x_trap, budget, tele)
                continue
            if lane.fallback:
                # The BE fallback itself failed: serial raises here.
                lane.failed = "be-fallback"
                tele.counter("spice.batch.lane_failures").inc()
                continue
            stats.newton_failures += 1
            if budget.max_transient_rejections is not None \
                    and stats.newton_failures \
                    > budget.max_transient_rejections:
                lane.failed = "budget:max_transient_rejections"
                tele.counter("spice.batch.lane_failures").inc()
                continue
            if not lane.interval_retried:
                lane.interval_retried = True
                stats.retried_intervals += 1
            if lane.round_sub / 2.0 >= lane.min_sub * (1.0 - 1e-12):
                stats.halvings += 1
                lane.pending.append(lane.t_cur + lane.round_sub / 2.0)
                stats.max_subdivision_depth = max(
                    stats.max_subdivision_depth, len(lane.pending))
            elif method == "trap" and be_fallback:
                lane.fallback = True
            else:
                lane.failed = "newton"
                tele.counter("spice.batch.lane_failures").inc()
            continue
        # Converged.
        if lane.redo is not None:
            # This round WAS the BE redo: commit its currents, accept.
            lane.redo = None
            stats.ringing_fallback_steps += 1
            caps.commit_currents(np.array([lane.idx]), i_cand[a][None, :])
            _accept(lane, xs_new[a], budget, tele)
            continue
        if ringing[a] and lane.round_method == "trap":
            # Converged trap step rings: stash it and redo with BE next
            # round (the serial engine solves the BE redo inline; the
            # inputs are identical so the trajectory is too).
            lane.redo = (xs_new[a].copy(), i_cand[a].copy())
            continue
        if lane.fallback:
            lane.fallback = False
            stats.be_fallback_steps += 1
        caps.commit_currents(np.array([lane.idx]), i_cand[a][None, :])
        _accept(lane, xs_new[a], budget, tele)


def _accept(lane: _Lane, x_new: np.ndarray, budget: SolveBudget,
            tele) -> None:
    """Commit one lane's accepted substep (serial's post-solve block)."""
    lane.pending.pop()
    lane.t_cur = lane.round_t_next
    lane.x = np.asarray(x_new).copy()
    lane.fixed = lane.round_fixed
    lane.tail = lane.round_tail
    lane.stats.steps_taken += 1
    if budget.max_transient_steps is not None \
            and lane.stats.steps_taken > budget.max_transient_steps:
        lane.failed = "budget:max_transient_steps"
        tele.counter("spice.batch.lane_failures").inc()
