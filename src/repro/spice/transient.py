"""Fixed-step transient analysis.

Capacitors (explicit and MOSFET parasitics) are handled by backward-Euler
companion models, the one integration method.  The time grid
is a regular ``dt`` grid augmented with every stimulus breakpoint so sharp
source edges land exactly on a step.

The engine reuses the DC :class:`~repro.spice.dc.System` indices across
steps and warm-starts every Newton solve from the previous solution, so a
cell-level transient (tens of devices, hundreds of steps) completes in
well under a second.  An accepted step carries what the next one reads
of it (the packed source tail and every capacitor's voltage), and the
step loop records only each grid point's state; the source currents are
computed from those records a block of grid points at a time
(:class:`_GridRecord`), with the bits a per-point evaluation gives.
:mod:`repro.spice.batch` marches many circuits through this engine's
arithmetic in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BudgetExhaustedError, CircuitError, ConvergenceError
from ..obs import NULL_TELEMETRY
from .banks import _DENSE_LIMIT, _SERIES_BLOCK
from .circuit import Circuit, canonical_node
from .dc import OperatingPoint, System, solve_dc
from .recovery import SolveBudget
from .waveform import Waveform


@dataclass
class TransientStats:
    """Retry/step bookkeeping for one transient run.

    ``steps_taken`` counts accepted Newton solves (base grid intervals
    plus any recovery substeps); the remaining counters describe how
    hard the engine had to fight to finish.
    """

    grid_points: int = 0
    steps_taken: int = 0
    newton_failures: int = 0
    retried_intervals: int = 0
    halvings: int = 0
    max_subdivision_depth: int = 0


class TransientResult:
    """Node voltages and source currents over time."""

    def __init__(self, time: np.ndarray, voltages: Dict[str, np.ndarray],
                 source_currents: Dict[str, np.ndarray],
                 stats: Optional[TransientStats] = None):
        self.time = time
        self.voltages = voltages
        self.source_currents = source_currents
        self.stats = stats if stats is not None else TransientStats(
            grid_points=len(time))

    def wave(self, node: str) -> Waveform:
        """Voltage waveform of ``node``."""
        try:
            return Waveform(self.time, self.voltages[node])
        except KeyError:
            known = ", ".join(sorted(self.voltages))
            raise CircuitError(
                f"node {node!r} was not recorded; recorded: {known}") from None

    def current(self, source_name: str) -> Waveform:
        """Current delivered by the named source (positive = sourcing)."""
        try:
            return Waveform(self.time, self.source_currents[source_name])
        except KeyError:
            known = ", ".join(sorted(self.source_currents))
            raise CircuitError(
                f"source {source_name!r} not recorded; recorded: {known}"
            ) from None

    def differential(self, node_p: str, node_n: str) -> Waveform:
        """Differential voltage ``v(node_p) - v(node_n)``."""
        return self.wave(node_p) - self.wave(node_n)


class _CompanionCaps:
    """Capacitor companion-model bookkeeping for one circuit.

    Vectorized like the device banks (:mod:`repro.spice.banks`): the
    capacitor list is flattened to index arrays into the packed voltage
    vector ``System.full_volts`` builds, so each Newton ``extra`` call is
    a handful of array operations instead of a Python loop over entries.

    ``entries`` lists every linear capacitance: first the
    ``n_newton`` with at least one unknown end, which enter Newton, then
    those between two source-driven nodes, which only reach the supply
    currents (their companion current is ``C·ΔV/Δt`` of the sources).
    The companion Jacobian depends only on ``geq = c/dt`` and the node
    incidence, so :meth:`_stamp` builds it once per distinct step size
    (per sparse pattern, in sparse mode) and every Newton iteration of
    every step of that size reuses it.

    Commit discipline: :meth:`step_currents` computes the per-entry
    companion currents of an accepted step *without* touching state;
    :meth:`commit_currents` stores exactly one such vector as the new
    ``_i_prev``, which the transient engine records at each grid point
    and :meth:`fixed_node_currents` folds into source currents after the
    march.  The engine calls ``commit_currents`` exactly once per
    accepted step.
    """

    def __init__(self, system: System, circuit: Circuit):
        self.system = system
        newton: List[Tuple[int, Optional[str], int, Optional[str], float]] = []
        sources_only: list = []
        for a, b, c in circuit.linear_capacitances():
            ia = system.index.get(a, -1)
            ib = system.index.get(b, -1)
            (newton if ia >= 0 or ib >= 0 else sources_only).append(
                (ia, a if ia < 0 else None, ib, b if ib < 0 else None, c))
        self.entries = newton + sources_only
        self.n_newton = len(newton)
        self._i_prev = np.zeros(len(self.entries))  # last step's currents
        # Flat packed-vector indices: unknown -> its row, fixed -> n + pos.
        n = system.n

        def packed(idx: int, name: Optional[str]) -> int:
            return idx if idx >= 0 else n + system.fixed_pos[name]

        self.ja = np.array([packed(ia, na) for ia, na, _, _, _ in self.entries],
                           dtype=int)
        self.jb = np.array([packed(ib, nb) for _, _, ib, nb, _ in self.entries],
                           dtype=int)
        self.cvec = np.array([c for *_, c in self.entries])
        ia_arr = np.array([e[0] for e in newton], dtype=int)
        ib_arr = np.array([e[2] for e in newton], dtype=int)
        self._ua = ia_arr >= 0
        self._ub = ib_arr >= 0
        self._rows_a = ia_arr[self._ua]
        self._rows_b = ib_arr[self._ub]
        both = self._ua & self._ub
        self._rows_ab = ia_arr[both]
        self._cols_ab = ib_arr[both]
        self._both = both
        # Dense incidence (n, E): the residual deposit collapses to one
        # matrix-vector product per Newton iteration.  Never built in
        # sparse mode — at full-core scale an (n, E) dense operator is
        # exactly the footprint the sparse assembly exists to avoid.
        self._s_extra: Optional[np.ndarray] = None
        if system.assembly != "sparse":
            self._s_extra = np.zeros((n, len(newton)))
            for k, (ia, _, ib, _, _) in enumerate(newton):
                if ia >= 0:
                    self._s_extra[ia, k] += 1.0
                if ib >= 0:
                    self._s_extra[ib, k] -= 1.0
        # Stamps by step size, for one sparse pattern object (a device
        # swap rebuilds the pattern and invalidates every cached
        # position and stamp — see _stamp).
        self._stamps: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        self._stamped_elems = 0
        self._sp_for = None
        self._sp_pos: Optional[np.ndarray] = None

    def _stamp(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Companion conductances and Jacobian for step size ``dt``.

        The Jacobian is the dense ``(n, n)`` stamp, or in sparse mode
        the nnz data vector over the canonical pattern (the four stamp
        groups — (a,a) +geq, (b,b) +geq, (a,b) -geq, (b,a) -geq —
        deposited at their canonical positions).  Cached per exact
        ``dt`` while the cached stamps total at most ``_DENSE_LIMIT``
        elements (the scatter plans' dense-operator ceiling); a stamp
        past that is built for its step alone, as every stamp was
        before, so a full-core pattern costs no more memory than it did.
        ``swap_device`` (fault injection) rebuilds the sparse pattern,
        which drops the positions and every stamp.
        """
        n = self.system.n
        if self.system.assembly == "sparse":
            sp_asm = self.system.sparse_assembly()
            if self._sp_for is not sp_asm:
                self._sp_pos = np.concatenate([
                    sp_asm.positions(self._rows_a, self._rows_a),
                    sp_asm.positions(self._rows_b, self._rows_b),
                    sp_asm.positions(self._rows_ab, self._cols_ab),
                    sp_asm.positions(self._cols_ab, self._rows_ab),
                ]) if self.n_newton else np.zeros(0, dtype=np.int64)
                self._sp_for = sp_asm
                self._stamps, self._stamped_elems = {}, 0
        hit = self._stamps.get(dt)
        if hit is not None:
            return hit
        geq = self.cvec[:self.n_newton] / dt
        if self.system.assembly == "sparse":
            stamp = np.concatenate([geq[self._ua], geq[self._ub],
                                    -geq[self._both], -geq[self._both]])
            jac = np.bincount(self._sp_pos, weights=stamp,
                              minlength=self._sp_for.nnz)
        else:
            jac = np.zeros((n, n))
            np.add.at(jac, (self._rows_a, self._rows_a), geq[self._ua])
            np.add.at(jac, (self._rows_b, self._rows_b), geq[self._ub])
            np.add.at(jac, (self._rows_ab, self._cols_ab), -geq[self._both])
            np.add.at(jac, (self._cols_ab, self._rows_ab), -geq[self._both])
        if self._stamped_elems + jac.size <= _DENSE_LIMIT:
            self._stamps[dt] = (geq, jac)
            self._stamped_elems += jac.size
        return geq, jac

    def volts_across(self, x: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """Voltage across every capacitor (a minus b) at unknowns ``x``
        and packed source tail ``tail`` (:meth:`System.fixed_tail`)."""
        v = np.concatenate((x, tail))
        return v[self.ja] - v[self.jb]

    def make_extra(self, v_prev: np.ndarray, tail_now: np.ndarray,
                   dt: float):
        """Build the Newton ``extra`` callback for one step of size
        ``dt`` from the accepted state whose capacitor voltages are
        ``v_prev`` (:meth:`volts_across`) to the sources ``tail_now``."""
        n = self.system.n
        if not self.n_newton:
            f0 = np.zeros(n)
            j0 = np.zeros(self.system.sparse_assembly().nnz) \
                if self.system.assembly == "sparse" else np.zeros((n, n))
            return lambda x: (f0, j0)
        v_prev = v_prev[:self.n_newton]
        # `newton` adds the stamp to the device Jacobian without mutating
        # it, so every iteration of every step of this size shares it.
        geq, jac = self._stamp(dt)
        ja, jb = self.ja[:self.n_newton], self.jb[:self.n_newton]
        s_extra = self._s_extra
        if s_extra is not None:
            def extra(x: np.ndarray):
                v = np.concatenate((x, tail_now))
                i_now = geq * ((v[ja] - v[jb]) - v_prev)
                return s_extra @ i_now, jac

            return extra
        # Sparse: the residual deposits with bincounts — no (n, E) or
        # (n, n) dense arrays anywhere.
        rows_a, rows_b = self._rows_a, self._rows_b
        ua, ub = self._ua, self._ub

        def extra_sparse(x: np.ndarray):
            v = np.concatenate((x, tail_now))
            i_now = geq * ((v[ja] - v[jb]) - v_prev)
            f = np.bincount(rows_a, weights=i_now[ua], minlength=n)
            f -= np.bincount(rows_b, weights=i_now[ub], minlength=n)
            return f, jac

        return extra_sparse

    def make_extra_loop(self, x_prev: np.ndarray,
                        fixed_prev: Dict[str, float],
                        fixed_now: Dict[str, float], dt: float):
        """Reference per-entry ``extra`` (``assembly="loop"``), kept
        verbatim from the pre-bank engine."""
        n = self.system.n
        newton = self.entries[:self.n_newton]

        def volt(idx, name, x, fixed):
            return x[idx] if idx >= 0 else fixed[name]

        v_prev = np.array([
            volt(ia, na, x_prev, fixed_prev) - volt(ib, nb, x_prev, fixed_prev)
            for ia, na, ib, nb, _ in newton
        ])

        def extra(x: np.ndarray):
            f = np.zeros(n)
            jac = np.zeros((n, n))
            for k, (ia, na, ib, nb, c) in enumerate(newton):
                geq = c / dt
                v_now = (volt(ia, na, x, fixed_now)
                         - volt(ib, nb, x, fixed_now))
                i_now = geq * (v_now - v_prev[k])
                if ia >= 0:
                    f[ia] += i_now
                    jac[ia, ia] += geq
                    if ib >= 0:
                        jac[ia, ib] -= geq
                if ib >= 0:
                    f[ib] -= i_now
                    jac[ib, ib] += geq
                    if ia >= 0:
                        jac[ib, ia] -= geq
            return f, jac

        return extra

    def step_currents(self, v_now: np.ndarray, v_prev: np.ndarray,
                      dt: float) -> np.ndarray:
        """Per-entry companion currents of an accepted step of size
        ``dt`` between capacitor voltages ``v_prev`` and ``v_now``.

        Pure: never writes ``_i_prev`` — pass the result to
        :meth:`commit_currents`.
        """
        return (self.cvec / dt) * (v_now - v_prev)

    def commit_currents(self, i_new: np.ndarray) -> None:
        """Store the accepted step's currents; call exactly once per step."""
        self._i_prev = i_new

    def fixed_node_currents(self, committed: np.ndarray,
                            nodes: Sequence[str]) -> Dict[str, np.ndarray]:
        """Capacitor current drawn out of each of ``nodes`` per grid point.

        ``committed`` ``(T, E)`` holds the committed currents at each
        grid point; every node's total starts at 0.0 and takes the
        entries in entry order, which is the sum a per-point fold over
        the entries makes, element for element.
        """
        totals = {node: np.zeros(len(committed)) for node in nodes}
        for k, (ia, na, ib, nb, _) in enumerate(self.entries):
            if ia < 0 and na in totals:
                totals[na] += committed[:, k]
            if ib < 0 and nb in totals:
                totals[nb] -= committed[:, k]
        return totals


def _record_columns(circuit: Circuit, system: System,
                    record: Optional[Sequence[str]]) -> Dict[str, int]:
    """Each recorded node's column in the packed ``[x | tail]`` vector.

    Names are canonicalised (ground aliases fold to ``"0"``); ``None``
    records every node.  A name that is not a node raises
    :class:`CircuitError` (it used to record 0.0 silently).
    """
    if record is not None:
        known = set(circuit.all_nodes())
        record_nodes = list(dict.fromkeys(record))
        canon_of = {node: canonical_node(node) for node in record_nodes}
        bad = sorted(node for node, canon in canon_of.items()
                     if canon not in known)
        if bad:
            raise CircuitError(
                f"record names {bad} are not nodes of circuit "
                f"{circuit.name!r}; known nodes: {sorted(known)}")
    else:
        canon_of = {node: node for node in circuit.all_nodes()}
    return {node: system.index[canon] if canon in system.index
            else system.n + system.fixed_pos[canon]
            for node, canon in canon_of.items()}


class _GridRecord:
    """A transient's grid-point records, turned into node voltages and
    source currents a block of points at a time.

    A point's record is references to its unknowns, its packed source
    tail and the committed companion currents, plus the currents of what
    must be evaluated at the point itself (``at_point``): the ``loop``
    oracle's whole assembly, or the un-banked devices (fault proxies
    count their calls and read the injector's clock).  A block holds at
    most :data:`_SERIES_BLOCK` values (one point for a full core), so
    memory stays that of a few rows.  The banks are the ones the run
    started with: arm faults before it.
    """

    def __init__(self, system: System, caps: _CompanionCaps,
                 circuit: Circuit, columns: Dict[str, int], points: int):
        self.voltages = {node: np.empty(points) for node in columns}
        self.currents = {source.name: np.empty(points)
                         for source in circuit.vsources}
        self._columns = columns
        self._sources = [(source.name, source.node,
                          system.fixed_pos[source.node])
                         for source in circuit.vsources]
        self._banks = None if system.assembly == "loop" \
            else system.bank_assembly()
        self._caps = caps
        self._block = max(1, _SERIES_BLOCK // (
            system.n + len(system.fixed_pos) + len(caps.entries)))
        self._xs: List[np.ndarray] = []
        self._tails: List[np.ndarray] = []
        self._commits: List[np.ndarray] = []
        self._at: list = []
        self._done = 0

    def add(self, x: np.ndarray, tail: np.ndarray, commit: np.ndarray,
            at_point: Optional[Sequence[float]] = None) -> None:
        """Record one grid point.  The engines never write into these
        arrays afterwards (each step makes new ones): keep references."""
        self._xs.append(x)
        self._tails.append(tail)
        self._commits.append(commit)
        if at_point is not None:
            self._at.append(at_point)
        if len(self._xs) == self._block:
            self._flush()

    def _flush(self) -> None:
        rows = slice(self._done, self._done + len(self._xs))
        volts = np.concatenate([np.stack(self._xs), np.stack(self._tails)],
                               axis=1)
        for node, col in self._columns.items():
            self.voltages[node][rows] = volts[:, col]
        points = np.array(self._at) if self._at else None
        dev = points if self._banks is None \
            else self._banks.fixed_totals_series(volts, points)
        cap = self._caps.fixed_node_currents(
            np.stack(self._commits), [node for _, node, _ in self._sources])
        for name, node, pos in self._sources:
            self.currents[name][rows] = dev[:, pos] + cap[node]
        self._done = rows.stop
        for part in (self._xs, self._tails, self._commits, self._at):
            part.clear()

    def finish(self) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Flush what is left; the voltages and source currents."""
        if self._xs:
            self._flush()
        return self.voltages, self.currents


def _time_grid(tstop: float, dt: float, breakpoints: Sequence[float]) -> np.ndarray:
    # Integer-indexed construction: each base point is the single product
    # k * dt, and the point count comes from one guarded division — not
    # from float range arithmetic, whose accumulated representation error
    # for non-binary dt/tstop ratios (dt=1e-11, tstop=1e-9) can land the
    # final point short of or past tstop and shift the sample count.
    n_steps = int(np.floor(tstop / dt * (1.0 + 1e-12)))
    base = np.arange(n_steps + 1, dtype=float) * dt
    base = base[base <= tstop]
    extra = [t for t in breakpoints if 0.0 < t < tstop]
    grid = np.unique(np.concatenate([base, np.asarray(extra, dtype=float),
                                     np.asarray([tstop])]))
    # Drop points closer than dt/1000 to avoid degenerate steps.
    keep = [0]
    for i in range(1, len(grid)):
        if grid[i] - grid[keep[-1]] > dt * 1e-3:
            keep.append(i)
    # tstop must survive dedup exactly: when a stimulus breakpoint lands
    # within dt/1000 of it, drop the breakpoint and keep tstop instead.
    last = len(grid) - 1
    if keep[-1] != last:
        if len(keep) == 1:
            keep.append(last)
        else:
            keep[-1] = last
    return grid[keep]


def run_transient(circuit: Circuit, tstop: float, dt: float,
                  record: Optional[Sequence[str]] = None,
                  ic: Optional[OperatingPoint] = None,
                  max_step_halvings: int = 8,
                  on_step: Optional[Callable[[float], None]] = None,
                  telemetry=None,
                  budget: Optional[SolveBudget] = None) -> TransientResult:
    """Simulate ``circuit`` from 0 to ``tstop`` with base step ``dt``.

    Parameters
    ----------
    record:
        Node names to record (default: every node).  Names are
        canonicalised (ground aliases fold to ``"0"``); a name that is
        not a node of the circuit raises :class:`CircuitError` instead
        of silently recording 0.0.
    ic:
        Initial operating point; computed with :func:`solve_dc` at t=0
        when omitted.
    max_step_halvings:
        On a failed Newton step the engine locally halves the step and
        retries, down to ``dt / 2**max_step_halvings``.  Substeps are
        internal: results stay aligned to the base grid.
    on_step:
        Callback invoked with the target time before every Newton solve
        attempt (including retries) — the fault-injection hook.  Arm
        faults before the run: the supply currents are computed from
        the device list the run started with.
    telemetry:
        Observability handle; the run is wrapped in a
        ``spice.transient.run`` span and the per-run
        :class:`TransientStats` are folded into the metrics registry
        once at the end (no per-step telemetry cost).
    budget:
        Deterministic :class:`~repro.spice.recovery.SolveBudget`
        (default: ``REPRO_SOLVE_BUDGET`` via
        :meth:`SolveBudget.from_env`).  ``max_transient_rejections``
        bounds failed Newton solves across all step-halving retries,
        ``max_transient_steps`` bounds accepted steps; its DC limits
        apply to the initial operating-point solve.  Exhaustion raises
        :class:`~repro.errors.BudgetExhaustedError` carrying the
        :class:`TransientStats` so far.
    """
    if tstop <= 0.0 or dt <= 0.0:
        raise CircuitError("tstop and dt must be positive")
    if max_step_halvings < 0:
        raise CircuitError("max_step_halvings must be >= 0")
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    budget = budget if budget is not None else SolveBudget.from_env()
    with tele.span("spice.transient.run", circuit=circuit.name,
                   tstop=tstop, dt=dt) as span:
        system = System(circuit, telemetry=tele)
        op = ic if ic is not None else solve_dc(circuit, t=0.0, system=system,
                                                budget=budget)
        caps = _CompanionCaps(system, circuit)

        columns = _record_columns(circuit, system, record)
        grid = _time_grid(tstop, dt, circuit.stimulus_breakpoints())
        stats = TransientStats(grid_points=len(grid))

        missing = [node for node in system.unknowns
                   if node not in op.voltages]
        if missing:
            raise CircuitError(
                f"ic lacks unknown nodes {missing} of circuit "
                f"{circuit.name!r}; pass an operating point of this circuit")
        x = np.array([op.voltages[n] for n in system.unknowns]) if system.n else \
            np.zeros(0)
        fixed = circuit.fixed_nodes(0.0)
        # The accepted state carries what every later step reads of it:
        # the packed source tail and every capacitor's voltage.
        state = (x, fixed, system.fixed_tail(fixed))
        v_caps = caps.volts_across(x, state[2])

        recording = _GridRecord(system, caps, circuit, columns, len(grid))
        if system.assembly == "loop":
            fixed_order = system.fixed_names_order

            def point_currents(x_now, fixed_now):
                cur = system.fixed_node_currents(x_now, fixed_now)
                return [cur[name] for name in fixed_order]
        else:
            loop = system.bank_assembly().loop
            point_currents = None if loop is None else loop.fixed_currents

        def record_point(x_now, fixed_now, tail_now) -> None:
            recording.add(x_now, tail_now, caps._i_prev,
                          None if point_currents is None
                          else point_currents(x_now, fixed_now))

        def solve_substep(t_next: float, sub: float, x_cur: np.ndarray,
                          fixed_cur: Dict[str, float], v_cur: np.ndarray,
                          fixed_next: Dict[str, float],
                          tail_next: np.ndarray):
            if on_step is not None:
                on_step(t_next)
            if system.assembly == "loop":
                extra = caps.make_extra_loop(x_cur, fixed_cur, fixed_next,
                                             sub)
            else:
                extra = caps.make_extra(v_cur, tail_next, sub)
            return system.newton(fixed_next, x_cur, gmin=0.0, extra=extra,
                                 tail=tail_next)

        def exhaust(limit: str, t_next: float) -> None:
            """Record and raise a transient budget exhaustion."""
            tele.counter("spice.budget.transient_exhausted").inc()
            tele.event("spice.budget.exhausted", scope="transient",
                       limit=limit, t=t_next,
                       steps_taken=stats.steps_taken,
                       newton_failures=stats.newton_failures)
            raise BudgetExhaustedError(
                f"transient budget exhausted at t={t_next:.6g} s "
                f"({limit}={getattr(budget, limit)}): "
                f"{stats.steps_taken} steps accepted, "
                f"{stats.newton_failures} Newton rejections",
                iterations=stats.newton_failures,
                context={"scope": "transient", "limit": limit, "t": t_next,
                         "budget": budget.to_dict(),
                         "steps_taken": stats.steps_taken,
                         "newton_failures": stats.newton_failures,
                         "halvings": stats.halvings})

        def advance_interval(t0: float, t1: float, state, v_cur):
            """March from t0 to t1, subdividing locally on Newton failures."""
            x_cur, fixed_cur, tail_cur = state
            min_sub = (t1 - t0) / (2 ** max_step_halvings)
            pending = [t1]
            interval_retried = False
            t_cur = t0
            while pending:
                t_next = pending[-1]
                sub = t_next - t_cur
                fixed_next = circuit.fixed_nodes(t_next)
                tail_next = system.fixed_tail(fixed_next)
                try:
                    x_new = solve_substep(t_next, sub, x_cur, fixed_cur,
                                          v_cur, fixed_next, tail_next)
                except BudgetExhaustedError:
                    raise
                except ConvergenceError as err:
                    stats.newton_failures += 1
                    if budget.max_transient_rejections is not None \
                            and stats.newton_failures \
                            > budget.max_transient_rejections:
                        exhaust("max_transient_rejections", t_next)
                    if not interval_retried:
                        interval_retried = True
                        stats.retried_intervals += 1
                    if sub / 2.0 >= min_sub * (1.0 - 1e-12):
                        stats.halvings += 1
                        pending.append(t_cur + sub / 2.0)
                        stats.max_subdivision_depth = max(
                            stats.max_subdivision_depth, len(pending))
                        continue
                    raise ConvergenceError(
                        f"transient step to t={t_next:.6g} s failed after "
                        f"{max_step_halvings} halvings "
                        f"(smallest step {sub:.3g} s)",
                        iterations=err.iterations,
                        residual=err.residual) from err
                v_new = caps.volts_across(x_new, tail_next)
                caps.commit_currents(caps.step_currents(v_new, v_cur, sub))
                pending.pop()
                t_cur, x_cur, fixed_cur, tail_cur, v_cur = \
                    t_next, x_new, fixed_next, tail_next, v_new
                stats.steps_taken += 1
                if budget.max_transient_steps is not None \
                        and stats.steps_taken > budget.max_transient_steps:
                    exhaust("max_transient_steps", t_next)
            return (x_cur, fixed_cur, tail_cur), v_cur

        record_point(*state)
        for i in range(1, len(grid)):
            state, v_caps = advance_interval(float(grid[i - 1]),
                                             float(grid[i]), state, v_caps)
            record_point(*state)
        voltages, currents = recording.finish()
        span.set("grid_points", stats.grid_points)
        span.set("steps_taken", stats.steps_taken)
        span.set("newton_failures", stats.newton_failures)
        span.set("halvings", stats.halvings)
        _note_transient(tele, stats)
    return TransientResult(grid, voltages, currents, stats=stats)


def _note_transient(tele, stats: TransientStats) -> None:
    """Fold one finished transient run into the metrics registry."""
    tele.counter("spice.transient.runs").inc()
    tele.counter("spice.transient.steps_accepted").inc(stats.steps_taken)
    if stats.newton_failures:
        tele.counter("spice.transient.step_rejections").inc(
            stats.newton_failures)
    if stats.halvings:
        tele.counter("spice.transient.halvings").inc(stats.halvings)
