"""Lockstep batched transient and DC analysis over lanes of any dense
topology.

Fig. 3 simulates one MCML buffer at nine tail currents, each at FO1 and
FO4; Table 2 characterises twelve PG-MCML cells, twelve topologies.
Each hands its testbenches to :func:`run_transient_batch` in one call
(through :func:`repro.spice.backend.dispatch.run_transient_batch`),
which marches every circuit — a *lane* — through one backward-Euler
transient in lockstep and returns, for each, the bytes
:func:`~repro.spice.transient.run_transient` returns.

:func:`solve_dc_batch` runs the same lockstep Newton without companion
capacitors: the first rung of the recovery ladder (plain Newton from
the midpoint guess, gmin 0) for every lane at once, each lane getting
the :class:`~repro.spice.dc.OperatingPoint` :func:`~repro.spice.dc.solve_dc`
returns.  The bias search's rounds, the Monte Carlo dies and every
transient lane's t=0 point go through it.

What is shared, and what keeps its serial shape
-----------------------------------------------

Each lane keeps what the serial engine builds for it: its
:class:`~repro.spice.dc.System` with its device banks and scatter
plans, its :class:`~repro.spice.transient._CompanionCaps`, its t=0
operating point (all lanes' from one :func:`solve_dc_batch`) and its
grid-point records (:class:`~repro.spice.transient._GridRecord`,
flushed a block at a time).  Per Newton iteration, the elementwise
work runs once over the active lanes' concatenated arrays: each bank
class's device evaluation, the companion currents, damping, rail
clipping, and each lane's residual and step maxima
(``np.maximum.reduceat``; a maximum is exact in any order).  Every
reduction keeps its serial call and shape: the flow, Jacobian and
companion deposits are stacked ``np.matmul`` of each lane's own
operators, and the LU a stacked ``np.linalg.solve``, each over the
lanes of one *shape* (unknowns, bank sizes, Newton capacitors).  Each
slice of a stacked call is the ``gemv`` or ``dgesv`` the serial engine
makes for that lane, so every lane gets the serial bits.  A deposit through one operator shared by all lanes (a
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
the first marched lane's.  A DC lane also goes to ``solve_dc`` when the
budget forbids the first rung; one whose first rung does not converge
climbs the rest of the recovery ladder serially, its first attempt being
the lockstep's.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import BudgetExhaustedError, CircuitError, ConvergenceError
from ..obs import NULL_TELEMETRY
from .banks import _DENSE_LIMIT, FD_STEP
from .circuit import Circuit
from .dc import NEWTON_ABSTOL, NEWTON_MAXITER, NEWTON_STEPTOL, \
    _DAMP_LIMIT, OperatingPoint, System, _cache_lookup, _initial_guess, \
    _operating_point, solve_dc
from .opcache import OperatingPointCache
from .recovery import NewtonStats, SolveBudget, SolverDiagnostics, \
    _budget_maxiter, climb_ladder
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
    A DC lane has no companion capacitors (``caps`` stays ``None``):
    ``x`` is its initial guess and ``tail`` its sources at the solve time.
    """

    caps: Optional[_CompanionCaps] = None

    def __init__(self, idx: int, circuit: Circuit, system: System,
                 columns: Optional[Dict[str, int]] = None):
        self.idx = idx
        self.circuit = circuit
        self.system = system
        self.columns = columns
        self.failed: Optional[str] = None
        #: Singular-Jacobian (lstsq) events of the lockstep solves.
        self.singular = 0

    def start(self, op: OperatingPoint, grid: np.ndarray) -> None:
        """The serial engine's set-up from the t=0 operating point:
        companion capacitors, the first grid point's record."""
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
        #: Whether the lanes carry companion capacitors (transient) or
        #: none at all (DC, where System.newton adds no ``extra`` term).
        self.companion = first.caps is not None
        self.e = first.caps.n_newton if self.companion else 0
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
        self.stamps: Optional[np.ndarray] = None

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

    def select(self, sel: Optional[np.ndarray]) -> "_Picked":
        """The active lanes' rows and operators (``sel`` marks them,
        ``None`` meaning all), gathered once per active set."""
        if sel is None:
            return _Picked(self.stop - self.start,
                           range(self.stop - self.start), self.s_f,
                           self.s_j, self.s_extra, self.stamps)

        def pick(op):
            return None if op is None else op[sel]

        return _Picked(int(np.count_nonzero(sel)),
                       np.flatnonzero(sel).tolist(),
                       [pick(op) for op in self.s_f],
                       [pick(op) for op in self.s_j],
                       pick(self.s_extra), pick(self.stamps))

    def deposit(self, ops: "_Picked", flows, derivs,
                offsets: Dict[type, int], i_now: Optional[np.ndarray]):
        """Residuals ``(a, n)`` and Jacobians ``(a, n, n)`` of the ``a``
        active lanes, each built with its serial engine's operations in
        their order."""
        n, a = self.n, ops.a
        f = np.zeros((a, n))
        jac = np.zeros((a, n, n))
        for k, (cls, m, t) in enumerate(self.banks):
            o = offsets[cls]
            offsets[cls] = o + a * m
            lane_flows = flows[cls][o:o + a * m].reshape(a, m)
            if ops.s_f[k] is not None:
                f += np.matmul(ops.s_f[k], lane_flows[..., None])[..., 0]
            else:
                for r, lane in enumerate(ops.rows):
                    self.plans[lane][k].add_flows(f[r], lane_flows[r])
            if not t:
                continue
            lane_derivs = derivs[cls][o:o + a * m].reshape(a, m * t)
            if ops.s_j[k] is not None:
                jac += np.matmul(ops.s_j[k],
                                 lane_derivs[..., None]).reshape(a, n, n)
            else:
                for r, lane in enumerate(ops.rows):
                    self.plans[lane][k].add_derivs(jac[r], lane_derivs[r])
        if not self.companion:
            return f, jac
        if self.e:
            f = f + np.matmul(ops.s_extra,
                              i_now.reshape(a, self.e, 1))[..., 0]
        else:
            f = f + 0.0
        return f, jac + ops.stamps

    def solve(self, ops: "_Picked", f: np.ndarray,
              jac: np.ndarray) -> np.ndarray:
        """Newton updates of the active lanes: one stacked ``dgesv``,
        or lane by lane with the serial engine's singular fallback."""
        try:
            return np.linalg.solve(jac, (-f)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            pass
        dx = np.full_like(f, np.nan)
        for r, lane in enumerate(ops.rows):
            if not np.all(np.isfinite(f[r])):
                continue  # the serial engine stops before solving
            try:
                dx[r] = np.linalg.solve(jac[r], -f[r])
            except np.linalg.LinAlgError:
                self.lanes[lane].singular += 1
                self.lanes[lane].system.singular_jacobian_events += 1
                jac_reg = jac[r].copy()
                jac_reg.flat[::self.n + 1] += 1e-12
                dx[r], *_ = np.linalg.lstsq(jac_reg, -f[r], rcond=None)
        return dx


#: One shape's active lanes: their count, their rows in the shape, and
#: their stacked operators (see :meth:`_Shape.select`).
_Picked = namedtuple("_Picked", "a rows s_f s_j s_extra stamps")


class _Active:
    """Everything a Newton iteration gathers for one set of active
    lanes, built when the set changes and reused until it does again."""

    def __init__(self, ls: "_Lockstep", act: np.ndarray):
        if act.all():
            self.xpos, self.vmin, self.vmax = ls.xpos, ls.vmin, ls.vmax
            self.n_act, self.x_starts = ls.n, ls.x_starts
            self.classes = [(cls, tidx, tuple(params))
                            for cls, tidx, params, _ in ls.classes]
            self.shapes = [(shape, shape.select(None))
                           for shape in ls.shapes]
            if ls.companion:
                self.ja, self.jb = ls.ja, ls.jb
                self.geq, self.vprev = ls.geq, ls.vprev
            return
        in_x = act[ls.lane_of_x]
        self.xpos, self.vmin, self.vmax = ls.xpos[in_x], ls.vmin[in_x], \
            ls.vmax[in_x]
        self.n_act = ls.n[act]
        self.x_starts = np.cumsum(self.n_act) - self.n_act
        self.classes = []
        for cls, tidx, params, lane_of in ls.classes:
            mine = act[lane_of]
            self.classes.append((cls, tidx[mine], tuple(params[:, mine])))
        self.shapes = []
        for shape in ls.shapes:
            sel = act[shape.start:shape.stop]
            if sel.any():
                self.shapes.append(
                    (shape, shape.select(None if sel.all() else sel)))
        if ls.companion:
            in_caps = act[ls.lane_of_cap]
            self.ja, self.jb = ls.ja[in_caps], ls.jb[in_caps]
            self.geq, self.vprev = ls.geq[in_caps], ls.vprev[in_caps]


class _Lockstep:
    """One march's lanes in shape order, with the concatenated index
    arrays every Newton iteration gathers through.

    Lane ``p`` (layout order) owns ``v[off_p : off_p + n_p + F_p]`` of
    the packed vector ``v``: its unknowns, then its source tail, as its
    own ``System`` packs them — so a bank's terminal indices, shifted by
    ``off_p``, index ``v``.  Outside a round, ``v`` holds every lane's
    accepted state.  Transient lanes carry companion capacitors; DC lanes
    (``caps`` ``None``) carry none, and all lanes of one march are of one
    kind.
    """

    def __init__(self, lanes: List[_Lane], tele):
        self.companion = lanes[0].caps is not None
        shapes: Dict[tuple, List[_Lane]] = {}
        for lane in lanes:
            key = (lane.system.n,
                   lane.caps.n_newton if self.companion else 0,
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
        if self.companion:
            self._companion_arrays(offs)

    def _companion_arrays(self, offs: np.ndarray) -> None:
        """Timed sources and capacitor index arrays of transient lanes."""
        for lane in self.lanes:
            lane.timed = [(lane.tail_slice.start
                           + lane.system.fixed_pos[source.node], source)
                          for source in lane.circuit.vsources
                          if type(source.stimulus) is not DC]
        caps = [lane.caps for lane in self.lanes]
        e = [c.n_newton for c in caps]
        self.ja = np.concatenate([c.ja[:k] + o
                                  for c, k, o in zip(caps, e, offs)])
        self.jb = np.concatenate([c.jb[:k] + o
                                  for c, k, o in zip(caps, e, offs)])
        self.lane_of_cap = np.repeat(np.arange(len(caps)), e)
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

    def _rails(self) -> None:
        """System.newton's rails, max/min([0.0] + sources) ± 1, from the
        tails in ``v`` (each holds ground's 0.0; a maximum is exact in
        any order)."""
        tails = self.v[self.tailpos]
        self.vmax = np.repeat(np.maximum(np.maximum.reduceat(
            tails, self.tail_starts), 0.0) + 1.0, self.n)
        self.vmin = np.repeat(np.minimum(np.minimum.reduceat(
            tails, self.tail_starts), 0.0) - 1.0, self.n)

    def round(self, round_lanes: List[_Lane], budget: SolveBudget) -> None:
        """Each lane in ``round_lanes`` attempts its next substep, then
        accepts or halves exactly as the serial engine would."""
        v = self.v
        for lane in round_lanes:
            lane.prepare(v)
        self._rails()
        geqs = [shape.load_steps() for shape in self.shapes]
        self.geq = np.concatenate(geqs) if len(geqs) > 1 else geqs[0]
        self.vprev = self.vcap[self.newton_entries]
        act = np.zeros(len(self.lanes), bool)
        act[[lane.pos for lane in round_lanes]] = True
        converged = self.newton(act, NEWTON_MAXITER)
        self.tele.counter("spice.batch.lockstep_solves").inc()
        self.tele.counter("spice.batch.lockstep_iterations").inc(
            self.iterations_run)
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

    def solve_dc(self, maxiter: int) -> np.ndarray:
        """The recovery ladder's first rung for every DC lane: plain
        Newton (gmin 0) from the guesses in ``v``; returns which lanes
        converged, their solutions left in ``v``."""
        self._rails()
        return self.newton(np.ones(len(self.lanes), bool), maxiter)

    def newton(self, act: np.ndarray, maxiter: int) -> np.ndarray:
        """:meth:`System.newton` (gmin 0; with the transient step's
        companion term for transient lanes) for the lanes marked in
        ``act``, from the iterates in ``v``; returns which lanes
        converged.  A lane whose residual or update goes non-finite stops
        (the serial engine raises there).  Per lane, ``iterations`` and
        ``residuals`` keep what :class:`NewtonStats` would record."""
        count = len(self.lanes)
        converged = np.zeros(count, bool)
        self.iterations = np.full(count, maxiter)
        self.residuals = np.zeros(count)
        act = act.copy()
        pos = np.flatnonzero(act)
        active = _Active(self, act)
        self.iterations_run = 0
        for it in range(maxiter):
            if not pos.size:
                break
            self.iterations_run = it + 1
            done, conv, res = self._iterate(active)
            self.residuals[pos] = res
            converged[pos[conv]] = True
            if done.any():
                act[pos[done]] = False
                self.iterations[pos[done]] = it + 1
                pos = pos[~done]
                if pos.size:
                    active = _Active(self, act)
        return converged

    def _iterate(self, active: _Active):
        """One damped Newton iteration of the active lanes; returns, per
        active lane, whether it stops (converged or non-finite), whether
        it converged, and its residual."""
        v = self.v
        flows, derivs = {}, {}
        for cls, tidx, params in active.classes:
            flows[cls], derivs[cls] = cls.evaluate(v, tidx, FD_STEP, params)
        i_now = active.geq * ((v[active.ja] - v[active.jb]) - active.vprev) \
            if self.companion else None

        offsets = dict.fromkeys(flows, 0)
        e_off = 0
        parts = []
        for shape, ops in active.shapes:
            e = ops.a * shape.e
            f, jac = shape.deposit(ops, flows, derivs, offsets,
                                   i_now[e_off:e_off + e] if e else None)
            e_off += e
            parts.append((shape, ops, f, jac))
        x_starts, n_act = active.x_starts, active.n_act
        f_all = np.concatenate([f.ravel() for _, _, f, _ in parts])
        res = np.maximum.reduceat(np.abs(f_all), x_starts)
        dx = np.concatenate([shape.solve(ops, f, jac).ravel()
                             for shape, ops, f, jac in parts])
        step = np.maximum.reduceat(np.abs(dx), x_starts)
        ok = np.isfinite(res) & np.isfinite(step)
        xpos, vmin, vmax = active.xpos, active.vmin, active.vmax
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
        return conv | ~ok, conv, res


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
    points = _solve_dc_lanes([lane.circuit for lane in lanes],
                             [0.0] * len(lanes),
                             [lane.system for lane in lanes],
                             [None] * len(lanes), budget, tele)
    for lane, op in zip(lanes, points):
        if isinstance(op, ConvergenceError):
            lane.failed = "dc"
        else:
            lane.start(op, grid)
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


def solve_dc_batch(circuits: Sequence[Circuit],
                   t: Union[float, Sequence[float]] = 0.0,
                   systems: Optional[Sequence[System]] = None,
                   op_cache: Union[None, OperatingPointCache,
                                   Sequence[Optional[OperatingPointCache]]]
                   = None,
                   budget: Optional[SolveBudget] = None,
                   telemetry=None) -> List[OperatingPoint]:
    """Every circuit's DC operating point; each is :func:`solve_dc`'s.

    The recovery ladder's first rung — plain Newton from the midpoint
    guess, gmin 0, the budget's iteration cap — runs for every lane in
    one lockstep, and each lane gets back the :class:`OperatingPoint`
    :func:`solve_dc` returns, byte for byte: voltages, source currents
    and diagnostics (``tests/test_spice_batch.py``).  A lane the first
    rung does not converge goes on serially with the ladder's second rung
    (:func:`~repro.spice.recovery.climb_ladder`, its first attempt being
    the lockstep's).  A lane the march cannot take (sparse or loop
    assembly, un-banked devices, no unknowns, a budget that forbids the
    attempt) goes to :func:`solve_dc` itself, and so does a batch with
    one lane to solve.  One ``spice.batch.fallback`` event (``scope``
    ``"dc"``) per reason names the lanes that leave the lockstep.

    ``t`` is one source time for every lane or one per lane.
    ``systems``, when given, holds each circuit's :class:`System` (a
    Monte Carlo die solved at several times keeps one).  ``op_cache`` is
    one cache for every lane or one (or ``None``) per lane, used as
    :func:`solve_dc` uses it; a lane whose key an earlier lane of the
    same cache missed is answered from that lane's stored point, as its
    serial lookup would be.  Raises the error of the first lane (input
    order) whose :func:`solve_dc` raises.
    """
    circuits = list(circuits)
    count = len(circuits)
    times = [t] * count if np.ndim(t) == 0 else _per_lane(t, count, "t")
    if systems is not None:
        systems = _per_lane(systems, count, "systems")
    if op_cache is None or isinstance(op_cache, OperatingPointCache):
        caches = [op_cache] * count
    else:
        caches = _per_lane(op_cache, count, "op_cache")
    points = _solve_dc_lanes(circuits, times, systems, caches, budget,
                             telemetry)
    for op in points:
        if isinstance(op, ConvergenceError):
            raise op
    return points


def _per_lane(values, count: int, name: str) -> list:
    values = list(values)
    if len(values) != count:
        raise CircuitError(f"{name} has {len(values)} entries for {count} "
                           f"circuits; pass one per circuit")
    return values


def _solve_dc_lanes(circuits: List[Circuit], times: list,
                    systems: Optional[list], caches: list,
                    budget: Optional[SolveBudget], telemetry
                    ) -> List[Union[OperatingPoint, ConvergenceError]]:
    """:func:`solve_dc_batch` with each lane's outcome: its operating
    point, or the :class:`ConvergenceError` its :func:`solve_dc` raised
    (the transient march retries such lanes serially)."""
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    budget = budget if budget is not None else SolveBudget.from_env()
    try:
        maxiter: Optional[int] = _budget_maxiter(
            budget, SolverDiagnostics(), NULL_TELEMETRY)
    except BudgetExhaustedError:
        maxiter = None  # solve_dc raises it, and counts it
    count = len(circuits)
    systems = list(systems) if systems is not None else [None] * count

    def serial(i: int, cache: Optional[OperatingPointCache] = None):
        try:
            return solve_dc(circuits[i], t=times[i], system=systems[i],
                            telemetry=telemetry, budget=budget,
                            op_cache=cache)
        except ConvergenceError as err:
            return err

    teles = [None] * count
    outcomes: list = [None] * count
    keys: List[Optional[str]] = [None] * count
    missed = set()
    repeats = []
    lanes: List[_Lane] = []
    unbatched: Dict[str, List[int]] = {}
    for i, circuit in enumerate(circuits):
        if systems[i] is None:
            systems[i] = System(circuit, telemetry=telemetry)
        system = systems[i]
        teles[i] = lane_tele = telemetry if telemetry is not None \
            else system.telemetry
        cache = caches[i]
        if cache is not None:
            key = cache.fingerprint(circuit, times[i], None, system.assembly)
            if key is not None and (id(cache), key) in missed:
                repeats.append(i)
                continue
            outcomes[i] = _cache_lookup(cache, key, lane_tele)
            if outcomes[i] is not None:
                continue
            if key is not None:
                missed.add((id(cache), key))
                keys[i] = key
        reason = _unbatchable(system)
        if reason is None and maxiter is None:
            reason = "budget forbids the first rung"
        if reason is not None:
            unbatched.setdefault(reason, []).append(i)
            continue
        lane = _Lane(i, circuit, system)
        lane.fixed = circuit.fixed_nodes(times[i])
        lane.x = _initial_guess(system, lane.fixed)
        lane.tail = system.fixed_tail(lane.fixed)
        lanes.append(lane)

    # One lane shares no dispatch: its lockstep is solve_dc itself.
    alone = [lanes.pop().idx] if len(lanes) == 1 else []
    for reason, idx in unbatched.items():
        tele.counter("spice.batch.dc_fallbacks").inc(len(idx))
        tele.event("spice.batch.fallback", scope="dc", reason=reason,
                   lanes=idx, circuits=[circuits[i].name for i in idx])
        alone += idx
    for i in sorted(alone):
        outcomes[i] = serial(i)
    if lanes:
        with tele.span("spice.dc.batch_solve", lanes=len(lanes)):
            lockstep = _Lockstep(lanes, tele)
            converged = lockstep.solve_dc(maxiter)
        tele.counter("spice.batch.dc_rounds").inc()
        tele.counter("spice.batch.dc_lanes").inc(len(lanes))
        failed = [lane.idx for lane in lanes if not converged[lane.pos]]
        if failed:
            tele.counter("spice.batch.dc_fallbacks").inc(len(failed))
            tele.event("spice.batch.fallback", scope="dc",
                       reason="first rung did not converge", lanes=failed,
                       circuits=[circuits[i].name for i in failed])
        for lane in lanes:
            try:
                outcomes[lane.idx] = _lane_point(
                    lane, lockstep, bool(converged[lane.pos]),
                    teles[lane.idx], budget)
            except ConvergenceError as err:
                outcomes[lane.idx] = err
    for i, key in enumerate(keys):
        if key is not None and isinstance(outcomes[i], OperatingPoint):
            caches[i].store(key, outcomes[i])
            teles[i].counter("spice.opcache.stores").inc()
    for i in repeats:
        # A key an earlier lane missed: now stored, so the serial path
        # (lookup, then hit) is this lane's whole solve.
        outcomes[i] = serial(i, caches[i])
    return outcomes


def _lane_point(lane: _Lane, lockstep: _Lockstep, converged: bool, tele,
                budget: SolveBudget) -> OperatingPoint:
    """A DC lane's operating point after the lockstep's first rung,
    counted as :func:`solve_dc` counts its solve.  A lane the rung did
    not converge goes on with the ladder's second rung, its first
    attempt being the lockstep's, so no attempt runs twice."""
    system = lane.system
    stats = NewtonStats(iterations=int(lockstep.iterations[lane.pos]),
                        residual=float(lockstep.residuals[lane.pos]),
                        singular_jacobian_events=lane.singular,
                        converged=converged)
    system._note_solve(stats)
    tele.counter("spice.dc.ladder_attempts").inc()
    diagnostics = SolverDiagnostics()
    diagnostics.record("newton", stats)
    if converged:
        diagnostics.converged_by = "newton"
        x = lockstep.v[lane.x_slice]
    else:
        x, diagnostics = climb_ladder(system, lane.fixed, lane.x,
                                      diagnostics, None, tele, budget)
    return _operating_point(lane.circuit, system, lane.fixed, x,
                            diagnostics)
