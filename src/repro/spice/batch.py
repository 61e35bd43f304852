"""Lockstep batched transient analysis over lanes of any dense topology.

Fig. 3 simulates one MCML buffer at nine tail currents, each at FO1 and
FO4; Table 2 characterises twelve PG-MCML cells, twelve topologies.
Each hands its testbenches to :func:`run_transient_batch` in one call
(through :func:`repro.spice.backend.dispatch.run_transient_batch`),
which marches every circuit — a *lane* — through one backward-Euler
transient in lockstep and returns, for each, the bytes
:func:`~repro.spice.transient.run_transient` returns.

What is shared, and what keeps its serial shape
-----------------------------------------------

Each lane keeps what the serial engine builds for it: its
:class:`~repro.spice.dc.System` with its device banks and scatter
plans, its :class:`~repro.spice.transient._CompanionCaps`, its t=0
:func:`~repro.spice.dc.solve_dc` operating point and its grid-point
records (:class:`~repro.spice.transient._GridRecord`, flushed a block
at a time).  Per Newton iteration, the elementwise work runs once over
the active lanes' concatenated arrays: each bank class's device
evaluation, the companion currents, damping, rail clipping, and each
lane's residual and step maxima (``np.maximum.reduceat``; a maximum is
exact in any order).  Every reduction keeps its serial call and shape:
the flow, Jacobian and companion deposits are stacked ``np.matmul`` of
each lane's own operators, and the LU a stacked ``np.linalg.solve``,
each over the lanes of one *shape* (unknowns, bank sizes, Newton
capacitors).  Each slice of a stacked call is the ``gemv`` or
``dgesv`` the serial engine makes for that lane, so every lane gets the
serial bits.  A deposit through one operator shared by all lanes (a
``dgemm``), or a zero-padded common size, would round differently.

Lockstep semantics
------------------

The serial engine is normative; the lockstep reproduces each lane's
control flow and only shares the dispatch:

* Newton iterations carry a per-lane mask: a converged lane freezes
  while the rest keep iterating, so each lane walks its serial
  damped-Newton trajectory.
* Step halving is per lane: a lane that rejects a step subdivides its
  own pending stack, and the next rounds take only the lanes with a
  pending substep.
* :class:`~repro.spice.recovery.SolveBudget` accounting is per lane
  (per-lane :class:`~repro.spice.transient.TransientStats`).
* A lane that fails (its t=0 operating point, Newton at the smallest
  substep, a budget) falls out of the march and is retried serially at
  the end; whatever the serial engine produces is the lane's outcome.

A lane the march cannot take runs serially, with one
``spice.batch.fallback`` event per reason naming its lanes: un-banked
device classes (fault-injection proxies), a size whose ``System``
selects the sparse assembly, no unknowns, or another time grid than
the first marched lane's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import CircuitError, ConvergenceError
from ..obs import NULL_TELEMETRY
from .banks import _DENSE_LIMIT, FD_STEP
from .circuit import Circuit
from .dc import NEWTON_ABSTOL, NEWTON_MAXITER, NEWTON_STEPTOL, \
    _DAMP_LIMIT, System, solve_dc
from .recovery import SolveBudget
from .stimulus import DC
from .transient import TransientResult, TransientStats, _CompanionCaps, \
    _GridRecord, _note_transient, _record_columns, _time_grid, \
    run_transient


def lane_records(circuits: Sequence[Circuit],
                 record: Optional[Sequence[Optional[Sequence[str]]]]
                 ) -> List[Optional[Sequence[str]]]:
    """One ``record`` per lane: ``None`` (every node, every lane) or a
    sequence with one entry per circuit, each ``None`` or node names."""
    if record is None:
        return [None] * len(circuits)
    records = list(record)
    if len(records) != len(circuits):
        raise CircuitError(
            f"record has {len(records)} entries for {len(circuits)} "
            f"circuits; pass one sequence of node names (or None) per "
            f"circuit")
    bad = [i for i, names in enumerate(records) if isinstance(names, str)]
    if bad:
        raise CircuitError(
            f"record entries {bad} are strings; each lane's record is a "
            f"sequence of node names")
    return records


def _unbatchable(system: System) -> Optional[str]:
    """Why the lockstep cannot take this lane, or ``None``."""
    if system.n == 0:
        return "no-unknowns"
    if system.assembly != "bank":
        return f"{system.assembly} assembly"
    loop = system.bank_assembly().loop
    if loop is not None:
        kinds = sorted({type(d).__name__ for d, _, _ in loop.entries})
        return f"un-banked devices {kinds}"
    return None


class _Lane:
    """One circuit's serial objects and step-loop locals.

    Inside a march its accepted unknowns and source tail live in the
    lockstep's packed vector (``x_slice``, ``tail_slice``); ``x`` and
    ``tail`` are views of the copy taken when its last step was accepted.
    """

    def __init__(self, idx: int, circuit: Circuit, system: System,
                 columns: Dict[str, int]):
        self.idx = idx
        self.circuit = circuit
        self.system = system
        self.columns = columns
        self.failed: Optional[str] = None

    def start(self, grid: np.ndarray, budget: SolveBudget) -> None:
        """The serial engine's set-up: t=0 operating point, companion
        capacitors, the first grid point's record."""
        try:
            op = solve_dc(self.circuit, t=0.0, system=self.system,
                          budget=budget)
        except ConvergenceError:
            self.failed = "dc"
            return
        system = self.system
        self.caps = _CompanionCaps(system, self.circuit)
        self.stats = TransientStats(grid_points=len(grid))
        self.x = np.array([op.voltages[n] for n in system.unknowns])
        self.tail = system.fixed_tail(self.circuit.fixed_nodes(0.0))
        self.vcap = self.caps.volts_across(self.x, self.tail)
        self.record = _GridRecord(system, self.caps, self.circuit,
                                  self.columns, len(grid))
        self.record_point()
        self.sub = 1.0  # the last attempt's step (a placeholder until then)

    def record_point(self) -> None:
        self.record.add(self.x, self.tail, self.caps._i_prev)

    def begin_interval(self, t0: float, t1: float,
                       max_step_halvings: int) -> None:
        self.pending = [t1]
        self.t_cur = t0
        self.min_sub = (t1 - t0) / (2 ** max_step_halvings)
        self.interval_retried = False

    def prepare(self, v: np.ndarray) -> None:
        """The serial step's set-up for its next substep: its source
        values (``Circuit.fixed_nodes``) go straight into the packed
        vector ``v``, where the constant ones already are."""
        self.t_next = t = self.pending[-1]
        self.sub = t - self.t_cur
        for pos, source in self.timed:
            v[pos] = source.value(t)

    def accept(self, state: np.ndarray, i_new: np.ndarray,
               budget: SolveBudget, tele) -> None:
        """The serial post-solve block of an accepted substep."""
        self.caps.commit_currents(i_new)
        self.pending.pop()
        self.t_cur = self.t_next
        self.x, self.tail = state[self.x_slice], state[self.tail_slice]
        self.stats.steps_taken += 1
        if budget.max_transient_steps is not None \
                and self.stats.steps_taken > budget.max_transient_steps:
            self.fail("budget:max_transient_steps", tele)

    def reject(self, budget: SolveBudget, tele) -> None:
        """The serial engine's handling of a failed Newton solve."""
        stats = self.stats
        stats.newton_failures += 1
        if budget.max_transient_rejections is not None \
                and stats.newton_failures > budget.max_transient_rejections:
            self.fail("budget:max_transient_rejections", tele)
            return
        if not self.interval_retried:
            self.interval_retried = True
            stats.retried_intervals += 1
        if self.sub / 2.0 >= self.min_sub * (1.0 - 1e-12):
            stats.halvings += 1
            self.pending.append(self.t_cur + self.sub / 2.0)
            stats.max_subdivision_depth = max(stats.max_subdivision_depth,
                                              len(self.pending))
        else:
            self.fail("newton", tele)

    def fail(self, reason: str, tele) -> None:
        self.failed = reason
        tele.counter("spice.batch.lane_failures").inc()

    def result(self, grid: np.ndarray) -> TransientResult:
        voltages, currents = self.record.finish()
        return TransientResult(grid, voltages, currents, stats=self.stats)


def _stacked(ops: list) -> Optional[np.ndarray]:
    """The lanes' dense operators as one stack (``None``: the plans
    deposit with bincounts, lane by lane)."""
    return None if ops[0] is None else np.stack(ops)


class _Shape:
    """The lanes of one shape — unknowns, bank sizes, Newton capacitors —
    and their operators stacked, so each deposit is one ``np.matmul``
    whose slices are the lanes' serial ``gemv`` calls."""

    def __init__(self, lanes: List[_Lane], start: int):
        self.lanes = lanes
        self.start, self.stop = start, start + len(lanes)
        first = lanes[0]
        self.n = first.system.n
        self.e = first.caps.n_newton
        banks = [lane.system.bank_assembly().banks for lane in lanes]
        self.banks = [(type(bank), bank.tidx.shape[0], len(bank.deriv_cols))
                      for bank in banks[0]]
        self.plans = [[bank.plan for bank in lane_banks]
                      for lane_banks in banks]
        self.s_f = [_stacked([plans[k].s_f for plans in self.plans])
                    for k in range(len(self.banks))]
        self.s_j = [_stacked([plans[k].s_j for plans in self.plans])
                    for k in range(len(self.banks))]
        self.s_extra = np.stack([lane.caps._s_extra for lane in lanes]) \
            if self.e else None
        # Companion stamps and conductances by the lanes' step sizes,
        # kept while they total at most _DENSE_LIMIT elements (each
        # lane's own _CompanionCaps caches the same way).
        self._stamps: Dict[tuple, tuple] = {}
        self._stamped = 0

    def load_steps(self) -> np.ndarray:
        """Stack the lanes' companion stamps for their current steps;
        returns their Newton conductances, concatenated."""
        key = tuple(lane.sub for lane in self.lanes)
        hit = self._stamps.get(key)
        if hit is None:
            stamps = [lane.caps._stamp(sub)
                      for lane, sub in zip(self.lanes, key)]
            hit = (np.concatenate([geq for geq, _ in stamps]),
                   np.stack([jac for _, jac in stamps]))
            if self._stamped + hit[1].size <= _DENSE_LIMIT:
                self._stamps[key] = hit
                self._stamped += hit[1].size
        self.stamps = hit[1]
        return hit[0]

    def _rows(self, sel: Optional[np.ndarray]):
        return range(self.stop - self.start) if sel is None \
            else np.flatnonzero(sel).tolist()

    def deposit(self, a: int, sel: Optional[np.ndarray], flows, derivs,
                offsets: Dict[type, int], i_now: np.ndarray):
        """Residuals ``(a, n)`` and Jacobians ``(a, n, n)`` of the ``a``
        active lanes (``sel`` marks them, ``None`` meaning all), each
        built with its serial engine's operations in their order."""
        n = self.n
        f = np.zeros((a, n))
        jac = np.zeros((a, n, n))
        for k, (cls, m, t) in enumerate(self.banks):
            o = offsets[cls]
            offsets[cls] = o + a * m
            lane_flows = flows[cls][o:o + a * m].reshape(a, m)
            if self.s_f[k] is not None:
                op = self.s_f[k] if sel is None else self.s_f[k][sel]
                f += np.matmul(op, lane_flows[..., None])[..., 0]
            else:
                for r, lane in enumerate(self._rows(sel)):
                    self.plans[lane][k].add_flows(f[r], lane_flows[r])
            if not t:
                continue
            lane_derivs = derivs[cls][o:o + a * m].reshape(a, m * t)
            if self.s_j[k] is not None:
                op = self.s_j[k] if sel is None else self.s_j[k][sel]
                jac += np.matmul(op, lane_derivs[..., None]).reshape(a, n, n)
            else:
                for r, lane in enumerate(self._rows(sel)):
                    self.plans[lane][k].add_derivs(jac[r], lane_derivs[r])
        if self.e:
            op = self.s_extra if sel is None else self.s_extra[sel]
            f = f + np.matmul(op, i_now.reshape(a, self.e, 1))[..., 0]
        else:
            f = f + 0.0
        jac = jac + (self.stamps if sel is None else self.stamps[sel])
        return f, jac

    def solve(self, sel: Optional[np.ndarray], f: np.ndarray,
              jac: np.ndarray) -> np.ndarray:
        """Newton updates of the active lanes: one stacked ``dgesv``,
        or lane by lane with the serial engine's singular fallback."""
        try:
            return np.linalg.solve(jac, (-f)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            pass
        dx = np.full_like(f, np.nan)
        for r, lane in enumerate(self._rows(sel)):
            if not np.all(np.isfinite(f[r])):
                continue  # the serial engine stops before solving
            try:
                dx[r] = np.linalg.solve(jac[r], -f[r])
            except np.linalg.LinAlgError:
                self.lanes[lane].system.singular_jacobian_events += 1
                jac_reg = jac[r].copy()
                jac_reg.flat[::self.n + 1] += 1e-12
                dx[r], *_ = np.linalg.lstsq(jac_reg, -f[r], rcond=None)
        return dx


class _Lockstep:
    """One march's lanes in shape order, with the concatenated index
    arrays every Newton iteration gathers through.

    Lane ``p`` (layout order) owns ``v[off_p : off_p + n_p + F_p]`` of
    the packed vector ``v``: its unknowns, then its source tail, as its
    own ``System`` packs them — so a bank's terminal indices, shifted by
    ``off_p``, index ``v``.  Outside a round, ``v`` holds every lane's
    accepted state.
    """

    def __init__(self, lanes: List[_Lane], tele):
        shapes: Dict[tuple, List[_Lane]] = {}
        for lane in lanes:
            key = (lane.system.n, lane.caps.n_newton,
                   tuple((type(bank), bank.tidx.shape[0])
                         for bank in lane.system.bank_assembly().banks))
            shapes.setdefault(key, []).append(lane)
        self.tele = tele
        self.lanes = [lane for members in shapes.values()
                      for lane in members]
        self.shapes: List[_Shape] = []
        for members in shapes.values():
            start = self.shapes[-1].stop if self.shapes else 0
            self.shapes.append(_Shape(members, start))
        self.shape_starts = np.array([shape.start for shape in self.shapes])
        self.shape_sizes = [shape.stop - shape.start for shape in self.shapes]
        count = len(self.lanes)
        self.n = np.array([lane.system.n for lane in self.lanes])
        fixed = np.array([len(lane.system.fixed_pos) for lane in self.lanes])
        offs = np.cumsum(self.n + fixed) - self.n - fixed
        self.v = np.zeros(int(np.sum(self.n + fixed)))
        for p, lane in enumerate(self.lanes):
            lane.pos = p
            lane.x_slice = slice(offs[p], offs[p] + self.n[p])
            lane.tail_slice = slice(offs[p] + self.n[p],
                                    offs[p] + self.n[p] + fixed[p])
            self.v[lane.x_slice] = lane.x
            self.v[lane.tail_slice] = lane.tail
            lane.timed = [(lane.tail_slice.start
                           + lane.system.fixed_pos[source.node], source)
                          for source in lane.circuit.vsources
                          if type(source.stimulus) is not DC]
        self.xpos = np.concatenate([np.arange(o, o + n)
                                    for o, n in zip(offs, self.n)])
        self.tailpos = np.concatenate([np.arange(o + n, o + n + k)
                                       for o, n, k in zip(offs, self.n,
                                                          fixed)])
        self.tail_starts = np.cumsum(fixed) - fixed
        self.lane_of_x = np.repeat(np.arange(count), self.n)
        self.x_starts = np.cumsum(self.n) - self.n
        self.classes = []
        members: Dict[type, list] = {}
        for p, lane in enumerate(self.lanes):
            for bank in lane.system.bank_assembly().banks:
                members.setdefault(type(bank), []).append((p, bank))
        for cls, banks in members.items():
            self.classes.append((
                cls,
                np.concatenate([bank.tidx + offs[p] for p, bank in banks]),
                np.array([np.concatenate(column) for column
                          in zip(*(bank.params for _, bank in banks))]),
                np.concatenate([np.full(bank.tidx.shape[0], p)
                                for p, bank in banks])))
        caps = [lane.caps for lane in self.lanes]
        e = [c.n_newton for c in caps]
        self.ja = np.concatenate([c.ja[:k] + o
                                  for c, k, o in zip(caps, e, offs)])
        self.jb = np.concatenate([c.jb[:k] + o
                                  for c, k, o in zip(caps, e, offs)])
        self.lane_of_cap = np.repeat(np.arange(count), e)
        # Every capacitor entry (the supply-only ones too), for commits.
        self.entries = np.array([len(c.entries) for c in caps])
        ends = np.cumsum(self.entries)
        self.entry_slices = [slice(end - k, end)
                             for end, k in zip(ends, self.entries)]
        self.newton_entries = np.concatenate([
            np.arange(end - k, end - k + k_newton)
            for end, k, k_newton in zip(ends, self.entries, e)])
        self.ja_all = np.concatenate([c.ja + o for c, o in zip(caps, offs)])
        self.jb_all = np.concatenate([c.jb + o for c, o in zip(caps, offs)])
        self.cvec = np.concatenate([c.cvec for c in caps])
        self.vcap = np.concatenate([lane.vcap for lane in self.lanes])

    def round(self, round_lanes: List[_Lane], budget: SolveBudget) -> None:
        """Each lane in ``round_lanes`` attempts its next substep, then
        accepts or halves exactly as the serial engine would."""
        v = self.v
        for lane in round_lanes:
            lane.prepare(v)
        # System.newton's rails, max/min([0.0] + sources) ± 1 (the tail
        # holds ground's 0.0; a maximum is exact in any order).
        tails = v[self.tailpos]
        self.vmax = np.repeat(np.maximum(np.maximum.reduceat(
            tails, self.tail_starts), 0.0) + 1.0, self.n)
        self.vmin = np.repeat(np.minimum(np.minimum.reduceat(
            tails, self.tail_starts), 0.0) - 1.0, self.n)
        geqs = [shape.load_steps() for shape in self.shapes]
        self.geq = np.concatenate(geqs) if len(geqs) > 1 else geqs[0]
        self.vprev = self.vcap[self.newton_entries]
        act = np.zeros(len(self.lanes), bool)
        act[[lane.pos for lane in round_lanes]] = True
        converged = self.newton(act)
        if converged.any():
            # Companion currents of the accepted steps, elementwise over
            # every lane (serial step_currents: (c/dt) * (v_new - v_prev)).
            state = v.copy()
            across = state[self.ja_all] - state[self.jb_all]
            subs = np.repeat([lane.sub for lane in self.lanes], self.entries)
            i_new = (self.cvec / subs) * (across - self.vcap)
            self.vcap = np.where(np.repeat(converged, self.entries), across,
                                 self.vcap)
        for lane in round_lanes:
            if converged[lane.pos]:
                lane.accept(state, i_new[self.entry_slices[lane.pos]],
                            budget, self.tele)
            else:
                v[lane.x_slice] = lane.x  # back to the accepted state
                lane.reject(budget, self.tele)

    def newton(self, act: np.ndarray) -> np.ndarray:
        """:meth:`System.newton` (gmin 0, the transient step's limits)
        for the lanes marked in ``act``, from the iterates in ``v``;
        returns which lanes converged.  A lane whose residual or update
        goes non-finite stops (the serial engine raises there)."""
        converged = np.zeros(len(self.lanes), bool)
        act = act.copy()
        counter = self.tele.counter("spice.batch.lockstep_iterations")
        for _ in range(NEWTON_MAXITER):
            if not act.any():
                break
            counter.inc()
            pos = np.flatnonzero(act)
            done, conv = self._iterate(act)
            converged[pos[conv]] = True
            act[pos[done]] = False
        self.tele.counter("spice.batch.lockstep_solves").inc()
        return converged

    def _iterate(self, act: np.ndarray):
        """One damped Newton iteration of the active lanes; returns, per
        active lane, whether it stops (converged or non-finite) and
        whether it converged."""
        v = self.v
        full = bool(act.all())
        if full:
            xpos, vmin, vmax = self.xpos, self.vmin, self.vmax
            n_act, x_starts = self.n, self.x_starts
            ja, jb, geq, vprev = self.ja, self.jb, self.geq, self.vprev
            counts = self.shape_sizes
        else:
            in_x = act[self.lane_of_x]
            xpos, vmin, vmax = self.xpos[in_x], self.vmin[in_x], \
                self.vmax[in_x]
            n_act = self.n[act]
            x_starts = np.cumsum(n_act) - n_act
            in_caps = act[self.lane_of_cap]
            ja, jb = self.ja[in_caps], self.jb[in_caps]
            geq, vprev = self.geq[in_caps], self.vprev[in_caps]
            counts = np.add.reduceat(act.astype(np.intp),
                                     self.shape_starts).tolist()
        flows, derivs = {}, {}
        for cls, tidx, params, lane_of in self.classes:
            if not full:
                mine = act[lane_of]
                tidx, params = tidx[mine], params[:, mine]
            flows[cls], derivs[cls] = cls.evaluate(v, tidx, FD_STEP,
                                                   tuple(params))
        i_now = geq * ((v[ja] - v[jb]) - vprev)

        offsets = dict.fromkeys(flows, 0)
        e_off = 0
        parts = []
        for shape, a, size in zip(self.shapes, counts, self.shape_sizes):
            if not a:
                continue
            sel = None if a == size else act[shape.start:shape.stop]
            f, jac = shape.deposit(a, sel, flows, derivs, offsets,
                                   i_now[e_off:e_off + a * shape.e])
            e_off += a * shape.e
            parts.append((shape, sel, f, jac))
        f_all = np.concatenate([f.ravel() for _, _, f, _ in parts])
        res = np.maximum.reduceat(np.abs(f_all), x_starts)
        dx = np.concatenate([shape.solve(sel, f, jac).ravel()
                             for shape, sel, f, jac in parts])
        step = np.maximum.reduceat(np.abs(dx), x_starts)
        ok = np.isfinite(res) & np.isfinite(step)
        if not ok.all():
            keep = np.repeat(ok, n_act)
            xpos, vmin, vmax, dx = xpos[keep], vmin[keep], vmax[keep], \
                dx[keep]
            n_act, step_ok = n_act[ok], step[ok]
        else:
            step_ok = step
        # `dx *= limit / step` where the step is over the limit; times
        # exactly 1.0 elsewhere, which leaves dx as it is.
        dx = dx * np.repeat(_DAMP_LIMIT / np.maximum(step_ok, _DAMP_LIMIT),
                            n_act)
        v[xpos] = np.minimum(np.maximum(v[xpos] + dx, vmin), vmax)
        step = np.minimum(step, _DAMP_LIMIT)
        conv = ok & (res < NEWTON_ABSTOL) & (step < NEWTON_STEPTOL)
        return conv | ~ok, conv


def run_transient_batch(circuits: Sequence[Circuit], tstop: float, dt: float,
                        record: Optional[Sequence[Optional[Sequence[str]]]]
                        = None,
                        max_step_halvings: int = 8,
                        telemetry=None,
                        budget: Optional[SolveBudget] = None,
                        ) -> List[TransientResult]:
    """Simulate every circuit in lockstep; each result is the serial one.

    Parameters match :func:`~repro.spice.transient.run_transient` with a
    list of circuits in place of one, and ``record`` per lane: ``None``
    records every node of every lane, otherwise it has one entry per
    circuit (``None`` or node names).  Returns one
    :class:`TransientResult` per lane, in input order, byte-identical to
    the serial engine's (``tests/test_spice_batch.py``).  Each lane that
    finishes in the march counts as one ``spice.transient.runs``.

    A lane the march cannot take — un-banked device classes, a sparse
    size, no unknowns, another time grid — runs serially, and one
    ``spice.batch.fallback`` event per reason names those lanes.  A lane
    that fails mid-flight falls out of the march and is retried serially
    (``spice.batch.lane_isolated`` event); its error propagates only if
    the serial retry fails too.
    """
    circuits = list(circuits)
    if not circuits:
        return []
    if tstop <= 0.0 or dt <= 0.0:
        raise CircuitError("tstop and dt must be positive")
    if max_step_halvings < 0:
        raise CircuitError("max_step_halvings must be >= 0")
    records = lane_records(circuits, record)
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    budget = budget if budget is not None else SolveBudget.from_env()

    def serial(i: int) -> TransientResult:
        return run_transient(circuits[i], tstop, dt, record=records[i],
                             max_step_halvings=max_step_halvings,
                             telemetry=telemetry, budget=budget)

    lanes: List[_Lane] = []
    unbatched: Dict[str, List[int]] = {}
    grid = None
    for i, circuit in enumerate(circuits):
        system = System(circuit, telemetry=tele)
        columns = _record_columns(circuit, system, records[i])
        reason = _unbatchable(system)
        if reason is None:
            lane_grid = _time_grid(tstop, dt, circuit.stimulus_breakpoints())
            if grid is None:
                grid = lane_grid
            elif not np.array_equal(lane_grid, grid):
                reason = "another time grid"
        if reason is None:
            lanes.append(_Lane(i, circuit, system, columns))
        else:
            unbatched.setdefault(reason, []).append(i)

    results: List[Optional[TransientResult]] = [None] * len(circuits)
    for reason, idx in unbatched.items():
        tele.counter("spice.batch.serial_fallbacks").inc(len(idx))
        tele.event("spice.batch.fallback", reason=reason, lanes=idx,
                   circuits=[circuits[i].name for i in idx])
        for i in idx:
            results[i] = serial(i)
    if not lanes:
        return results
    with tele.span("spice.transient.batch_run", circuit=circuits[0].name,
                   lanes=len(lanes), tstop=tstop, dt=dt) as span:
        tele.counter("spice.batch.runs").inc()
        tele.counter("spice.batch.lanes").inc(len(lanes))
        marched = _march(lanes, grid, max_step_halvings, tele, budget)
        for result in marched:
            if result is not None:
                _note_transient(tele, result.stats)
        retried = 0
        for lane, result in zip(lanes, marched):
            if result is None:
                retried += 1
                tele.counter("spice.batch.lane_retries").inc()
                tele.event("spice.batch.lane_isolated", lane=lane.idx,
                           circuit=lane.circuit.name)
                # The serial path is normative: whatever it produces —
                # result or error — is the lane's outcome, and
                # run_transient counts it.
                result = serial(lane.idx)
            results[lane.idx] = result
        span.set("lane_retries", retried)
    return results


def _march(lanes: List[_Lane], grid: np.ndarray, max_step_halvings: int,
           tele, budget: SolveBudget) -> List[Optional[TransientResult]]:
    """The lockstep march; one result per lane, ``None`` for a lane that
    needs the serial retry."""
    for lane in lanes:
        lane.start(grid, budget)
    live = [lane for lane in lanes if lane.failed is None]
    if live:
        lockstep = _Lockstep(live, tele)
        for gi in range(1, len(grid)):
            live = [lane for lane in live if lane.failed is None]
            if not live:
                break
            for lane in live:
                lane.begin_interval(float(grid[gi - 1]), float(grid[gi]),
                                    max_step_halvings)
            while True:
                round_lanes = [lane for lane in live
                               if lane.failed is None and lane.pending]
                if not round_lanes:
                    break
                lockstep.round(round_lanes, budget)
            for lane in live:
                if lane.failed is None:
                    lane.record_point()
    return [None if lane.failed is not None else lane.result(grid)
            for lane in lanes]
