"""Newton-Raphson DC operating-point solver.

The solver is purely nodal: source-driven nodes are known voltages, every
other node is an unknown, and the residual is KCL (sum of device currents
leaving the node).  The Jacobian is assembled from per-device forward
differences, which keeps device models trivially extensible.  Robustness
measures are the SPICE classics: per-iteration voltage-step damping and
gmin continuation when plain Newton fails.

Assembly is chosen from the circuit's size, never by the caller: below
:data:`SPARSE_MIN_UNKNOWNS` unknowns the dense device banks
(:mod:`repro.spice.banks`) win, from there on the sparse CSC path
(:mod:`repro.spice.sparse`) does.  The per-device ``"loop"`` reference
assembly is only reachable by replacing :func:`_select_assembly`,
which the equivalence tests and ``benchmarks/bench_spice.py`` do.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..errors import CircuitError, ConvergenceError
from ..obs import NULL_TELEMETRY
from .banks import FD_STEP, BankAssembly
from .circuit import Circuit, canonical_node
from .sparse import SparseAssembly
from .recovery import (
    GMIN_LADDER,
    NewtonStats,
    RecoveryPolicy,
    SolveBudget,
    SolverDiagnostics,
    solve_with_recovery,
)

#: Forward-difference step for device Jacobians, volts (shared with the
#: banked assembly so both walk the same Newton trajectory).
_FD_STEP = FD_STEP

#: Unknown count from which :class:`System` assembles sparse.  Measured
#: on PG-MCML buffer chains (256-step transients, 2-vCPU host): sparse
#: over bank time is 1.53 at 4 unknowns, 1.17 at 94, 0.77 at 190 and
#: 0.43 at 382 (``crossover`` in ``BENCH_spice.json``).
SPARSE_MIN_UNKNOWNS = 128

#: Largest allowed Newton voltage update, volts.
_DAMP_LIMIT = 0.3

_GMIN_LADDER = GMIN_LADDER


def _select_assembly(n: int) -> str:
    """The assembly for a :class:`System` with ``n`` unknowns."""
    return "bank" if n < SPARSE_MIN_UNKNOWNS else "sparse"


class System:
    """Index structures for repeated solves of one circuit.

    Building the node indices once and reusing them across transient steps
    is the main performance lever of the engine.  ``assembly`` names the
    residual/Jacobian strategy, picked by :func:`_select_assembly` from
    the unknown count: ``"bank"`` evaluates devices in vectorized class
    banks (:mod:`repro.spice.banks`) into a dense Jacobian; ``"sparse"``
    assembles the same bank deposits into a canonical CSC pattern and
    factors with SuperLU (:mod:`repro.spice.sparse`) — the only mode
    that scales to a full synthesized core; ``"loop"`` is the reference
    per-device Python loop the tests compare both against.
    """

    def __init__(self, circuit: Circuit, telemetry=None):
        circuit.validate()
        self.circuit = circuit
        #: Observability handle; the shared no-op when not provided.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Cumulative count of singular-Jacobian (lstsq fallback) events.
        self.singular_jacobian_events = 0
        self.fixed_set = set(circuit.fixed_nodes())
        self.unknowns: List[str] = circuit.unknown_nodes()
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.unknowns)}
        self.n = len(self.unknowns)
        self.assembly = _select_assembly(self.n)
        # Packed-voltage layout: V = [x | fixed values in fixed_nodes()
        # key order].  The key set is stable across t and across the
        # scaled dicts source stepping builds, so the positions hold for
        # every solve of this System.
        self.fixed_names_order: List[str] = list(circuit.fixed_nodes())
        self.fixed_pos: Dict[str, int] = {
            n: i for i, n in enumerate(self.fixed_names_order)}
        # Per-device terminal classification: unknown index or -1 (fixed).
        self.dev_terms: List[List[int]] = []
        self.dev_fixed_names: List[List[Optional[str]]] = []
        for device in circuit.devices:
            idxs: List[int] = []
            fixed_names: List[Optional[str]] = []
            for node in device.terminals:
                if node in self.index:
                    idxs.append(self.index[node])
                    fixed_names.append(None)
                else:
                    idxs.append(-1)
                    fixed_names.append(node)
            self.dev_terms.append(idxs)
            self.dev_fixed_names.append(fixed_names)
        self._banks: Optional[BankAssembly] = None
        self._bank_sig = None
        self._sparse: Optional[SparseAssembly] = None

    # -- assembly ------------------------------------------------------------

    def bank_assembly(self) -> BankAssembly:
        """The banked device view, rebuilt if the device list changed.

        Fault injection arms by ``swap_device`` *after* System
        construction; the identity signature catches that (and any
        device added to the list) and rebuilds the flat arrays.  Swaps
        preserve terminals by contract, so node indexing never changes.
        """
        sig = tuple(map(id, self.circuit.devices))
        if sig != self._bank_sig:
            self._banks = BankAssembly(self.circuit, self.index, self.n,
                                       self.fixed_pos)
            self._bank_sig = sig
        return self._banks

    def sparse_assembly(self) -> SparseAssembly:
        """The sparse pattern view, rebuilt alongside the banks.

        Follows :meth:`bank_assembly`'s identity signature: a
        ``swap_device`` (fault-injection arming) rebuilds the banks,
        which invalidates the pattern and its deposit positions here.
        """
        banks = self.bank_assembly()
        if self._sparse is None or self._sparse.banks is not banks:
            self._sparse = SparseAssembly(self.circuit, banks, self.index,
                                          self.n)
        return self._sparse

    def fixed_tail(self, fixed: Dict[str, float]) -> np.ndarray:
        """Fixed node voltages in bank order (the tail of ``full_volts``).

        Constant across the Newton iterations of one solve — hoist it
        with this and pass it as ``tail`` to the residual methods.
        """
        return np.array([fixed[name] for name in self.fixed_names_order])

    def full_volts(self, x: np.ndarray, fixed: Dict[str, float],
                   tail: Optional[np.ndarray] = None) -> np.ndarray:
        """Pack unknown and fixed node voltages into one bank-indexed vector."""
        v = np.empty(self.n + len(self.fixed_names_order))
        v[:self.n] = x
        v[self.n:] = self.fixed_tail(fixed) if tail is None else tail
        return v

    def device_volts(self, dev_idx: int, x: np.ndarray,
                     fixed: Dict[str, float]) -> List[float]:
        idxs = self.dev_terms[dev_idx]
        names = self.dev_fixed_names[dev_idx]
        return [x[i] if i >= 0 else fixed[names[k]]
                for k, i in enumerate(idxs)]

    def residual_and_jacobian(self, x: np.ndarray, fixed: Dict[str, float],
                              gmin: float,
                              tail: Optional[np.ndarray] = None):
        """KCL residual and its Jacobian at ``x``.

        ``tail`` optionally carries :meth:`fixed_tail`'s result so
        repeated solves against the same ``fixed`` dict skip the
        dict-to-array packing (the ``newton`` loop hoists it).
        """
        if self.assembly == "loop":
            return self._residual_and_jacobian_loop(x, fixed, gmin)
        if self.assembly == "sparse":
            sp_asm = self.sparse_assembly()
            f = np.zeros(self.n)
            data = np.zeros(sp_asm.nnz)
            volts_full = self.full_volts(x, fixed, tail)
            sp_asm.accumulate(f, data, volts_full, x, fixed, _FD_STEP)
            if gmin > 0.0:
                f += gmin * x
                data[sp_asm.diag_pos] += gmin
            return f, data
        f = np.zeros(self.n)
        jac = np.zeros((self.n, self.n))
        volts_full = self.full_volts(x, fixed, tail)
        self.bank_assembly().accumulate(f, jac, volts_full, x, fixed,
                                        _FD_STEP)
        if gmin > 0.0:
            f += gmin * x
            jac[np.diag_indices(self.n)] += gmin
        return f, jac

    def _residual_and_jacobian_loop(self, x: np.ndarray,
                                    fixed: Dict[str, float], gmin: float):
        """Reference per-device assembly loop (the test oracle)."""
        f = np.zeros(self.n)
        jac = np.zeros((self.n, self.n))
        for d, device in enumerate(self.circuit.devices):
            idxs = self.dev_terms[d]
            volts = self.device_volts(d, x, fixed)
            base = device.currents(volts)
            for k, i in enumerate(idxs):
                if i >= 0:
                    f[i] += base[k]
            for k, j in enumerate(idxs):
                if j < 0:
                    continue
                volts_p = list(volts)
                volts_p[k] += _FD_STEP
                pert = device.currents(volts_p)
                for m, i in enumerate(idxs):
                    if i >= 0:
                        jac[i, j] += (pert[m] - base[m]) / _FD_STEP
        if gmin > 0.0:
            f += gmin * x
            jac[np.diag_indices(self.n)] += gmin
        return f, jac

    def residual_only(self, x: np.ndarray, fixed: Dict[str, float],
                      gmin: float,
                      tail: Optional[np.ndarray] = None) -> np.ndarray:
        if self.assembly == "loop":
            return self._residual_only_loop(x, fixed, gmin)
        f = np.zeros(self.n)
        volts_full = self.full_volts(x, fixed, tail)
        self.bank_assembly().accumulate(f, None, volts_full, x, fixed,
                                        _FD_STEP)
        if gmin > 0.0:
            f += gmin * x
        return f

    def _residual_only_loop(self, x: np.ndarray, fixed: Dict[str, float],
                            gmin: float) -> np.ndarray:
        f = np.zeros(self.n)
        for d, device in enumerate(self.circuit.devices):
            idxs = self.dev_terms[d]
            volts = self.device_volts(d, x, fixed)
            base = device.currents(volts)
            for k, i in enumerate(idxs):
                if i >= 0:
                    f[i] += base[k]
        if gmin > 0.0:
            f += gmin * x
        return f

    def fixed_node_currents(self, x: np.ndarray,
                            fixed: Dict[str, float]) -> Dict[str, float]:
        """Total device current drawn out of each fixed node."""
        if self.assembly == "loop":
            return self._fixed_node_currents_loop(x, fixed)
        volts_full = self.full_volts(x, fixed)
        totals = self.bank_assembly().fixed_totals(volts_full, x, fixed)
        out: Dict[str, float] = {node: 0.0 for node in fixed}
        for name, pos in self.fixed_pos.items():
            out[name] = float(totals[pos])
        return out

    def _fixed_node_currents_loop(self, x: np.ndarray,
                                  fixed: Dict[str, float]) -> Dict[str, float]:
        totals: Dict[str, float] = {node: 0.0 for node in fixed}
        for d, device in enumerate(self.circuit.devices):
            idxs = self.dev_terms[d]
            names = self.dev_fixed_names[d]
            volts = self.device_volts(d, x, fixed)
            cur = device.currents(volts)
            for k, i in enumerate(idxs):
                if i < 0:
                    totals[names[k]] += cur[k]
        return totals

    # -- Newton --------------------------------------------------------------

    def newton(self, fixed: Dict[str, float], x0: np.ndarray, gmin: float,
               extra=None, abstol: float = 1e-11, steptol: float = 1e-8,
               maxiter: int = 120,
               stats: Optional[NewtonStats] = None) -> np.ndarray:
        """Damped Newton iteration.

        ``extra`` is an optional callable ``extra(x) -> (f_extra, J_extra)``
        used by the transient engine to inject capacitor companion models.
        ``stats``, when given, is filled with iteration count, final
        residual, and singular-Jacobian (lstsq fallback) events.
        """
        if stats is None:
            stats = NewtonStats()
        if self.n == 0:
            stats.converged = True
            stats.residual = 0.0
            self._note_solve(stats)
            return x0.copy()
        x = x0.copy()
        vmax = max([0.0] + list(fixed.values())) + 1.0
        vmin = min([0.0] + list(fixed.values())) - 1.0
        tail = self.fixed_tail(fixed) if self.assembly != "loop" else None
        last_res = np.inf
        for iteration in range(maxiter):
            f, jac = self.residual_and_jacobian(x, fixed, gmin, tail=tail)
            if extra is not None:
                f_extra, j_extra = extra(x)
                f = f + f_extra
                jac = jac + j_extra
            last_res = float(abs(f).max()) if f.size else 0.0
            stats.iterations = iteration + 1
            stats.residual = last_res
            if not np.isfinite(last_res):
                # A NaN/Inf residual can never recover: x would only fill
                # with NaN.  Fail fast so retry ladders get their turn.
                self._note_solve(stats)
                raise ConvergenceError(
                    f"Newton hit a non-finite residual at iteration "
                    f"{iteration + 1}", iterations=iteration + 1,
                    residual=last_res)
            if self.assembly == "sparse":
                # `jac` is the canonical nnz data vector here; splu with
                # the precomputed ordering, Tikhonov retry inside.
                dx, singular = self.sparse_assembly().solve(jac, -f)
                if singular:
                    stats.singular_jacobian_events += singular
                    self.singular_jacobian_events += singular
            else:
                try:
                    dx = np.linalg.solve(jac, -f)
                except np.linalg.LinAlgError:
                    stats.singular_jacobian_events += 1
                    self.singular_jacobian_events += 1
                    # Tikhonov term added in place on a copy: same
                    # regularised matrix as `jac + 1e-12*eye(n)` without
                    # materialising an n*n identity per singular event.
                    jac_reg = jac.copy()
                    jac_reg.flat[::self.n + 1] += 1e-12
                    dx, *_ = np.linalg.lstsq(jac_reg, -f, rcond=None)
            if not np.all(np.isfinite(dx)):
                self._note_solve(stats)
                raise ConvergenceError(
                    f"Newton produced a non-finite update at iteration "
                    f"{iteration + 1}", iterations=iteration + 1,
                    residual=last_res)
            step = float(abs(dx).max()) if dx.size else 0.0
            if step > _DAMP_LIMIT:
                dx *= _DAMP_LIMIT / step
                step = _DAMP_LIMIT
            x = np.minimum(np.maximum(x + dx, vmin), vmax)
            if last_res < abstol and step < steptol:
                stats.converged = True
                self._note_solve(stats)
                return x
        self._note_solve(stats)
        raise ConvergenceError(
            f"Newton failed after {maxiter} iterations "
            f"(residual {last_res:.3g} A)", iterations=maxiter,
            residual=last_res)

    def _note_solve(self, stats: NewtonStats) -> None:
        """Fold one finished Newton attempt into the metrics registry.

        Called once per solve (never per iteration), so the disabled
        path costs four no-op method calls — measured under 2 % on the
        acquisition benchmark's serial path.
        """
        tele = self.telemetry
        tele.counter("spice.newton.solves").inc()
        tele.counter("spice.newton.iterations").inc(stats.iterations)
        if stats.singular_jacobian_events:
            tele.counter("spice.newton.singular_jacobian_events").inc(
                stats.singular_jacobian_events)
        if not stats.converged:
            tele.counter("spice.newton.failures").inc()


class OperatingPoint:
    """Result of a DC solve: node voltages and source currents.

    ``diagnostics`` records the recovery-ladder attempts that produced
    the solve (None for legacy construction paths).
    """

    def __init__(self, voltages: Dict[str, float],
                 source_currents: Dict[str, float],
                 diagnostics: Optional[SolverDiagnostics] = None):
        self.voltages = voltages
        self.source_currents = source_currents
        self.diagnostics = diagnostics

    def __getitem__(self, node: str) -> float:
        return self.voltages[node]

    def current(self, source_name: str) -> float:
        """Current drawn from the named source (positive = delivering)."""
        return self.source_currents[source_name]

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v:.4g}" for n, v in sorted(self.voltages.items()))
        return f"OperatingPoint({pairs})"


def _initial_guess(system: System, fixed: Dict[str, float]) -> np.ndarray:
    """Seed all unknowns midway between the extreme rails.

    With only positive supplies this is the classic Vdd/2 start; when
    rails straddle 0 V (split-supply biasing) the midpoint keeps the
    guess centred instead of biased toward the positive rail.
    """
    vals = list(fixed.values()) + [0.0]
    level = (max(vals) + min(vals)) / 2.0
    return np.full(system.n, level)


def solve_dc(circuit: Circuit, t: float = 0.0,
             guess: Optional[Dict[str, float]] = None,
             system: Optional[System] = None,
             policy: Optional[RecoveryPolicy] = None,
             telemetry=None,
             budget: Optional[SolveBudget] = None,
             op_cache=None) -> OperatingPoint:
    """Find the DC operating point of ``circuit`` at source time ``t``.

    Tries plain Newton from a midpoint guess first, then climbs the
    recovery ladder (gmin stepping, source stepping, pseudo-transient —
    see :mod:`repro.spice.recovery`).  The returned operating point
    carries a :class:`SolverDiagnostics`; so does the
    :class:`ConvergenceError` raised when every strategy fails.

    ``telemetry`` wraps the solve in a ``spice.dc.solve`` span; when
    omitted, a reused ``system``'s handle applies (the transient engine
    threads its handle through the shared :class:`System`).

    ``budget`` (default: ``REPRO_SOLVE_BUDGET`` via
    :meth:`SolveBudget.from_env`, unlimited when unset) deterministically
    bounds the solve; exhaustion raises
    :class:`~repro.errors.BudgetExhaustedError` instead of spinning on a
    stiff circuit.

    ``op_cache`` (off when omitted; :func:`repro.cells.bias.solve_bias`
    passes one per call) short-circuits repeated solves of
    content-identical circuits at the same bias — see
    :mod:`repro.spice.opcache` for the fingerprint and invalidation
    contract.  Solves under a custom recovery ``policy`` bypass the
    cache (the policy steers the trajectory but is not part of the key).
    """
    sys_ = system if system is not None else System(circuit,
                                                    telemetry=telemetry)
    tele = telemetry if telemetry is not None else sys_.telemetry
    cache_key = None
    if op_cache is not None:
        if policy is not None:
            op_cache.bypasses += 1
            tele.counter("spice.opcache.bypasses").inc()
        else:
            cache_key = op_cache.fingerprint(circuit, t, guess,
                                             sys_.assembly)
            if cache_key is None:
                op_cache.bypasses += 1
                tele.counter("spice.opcache.bypasses").inc()
            else:
                hit = op_cache.lookup(cache_key)
                if hit is not None:
                    tele.counter("spice.opcache.hits").inc()
                    return hit
                tele.counter("spice.opcache.misses").inc()
    fixed = circuit.fixed_nodes(t)
    x0 = _initial_guess(sys_, fixed)
    if guess:
        bad = []
        for node, volt in guess.items():
            canon = canonical_node(node)
            if canon in sys_.index:
                x0[sys_.index[canon]] = volt
            elif canon not in fixed:
                # A typo here used to silently degrade the warm start;
                # fixed-node entries stay tolerated (their value is pinned
                # by the source anyway), anything else is an error.
                bad.append(node)
        if bad:
            raise CircuitError(
                f"guess names {sorted(bad)} are not nodes of circuit "
                f"{circuit.name!r} (unknowns: {sorted(sys_.index)})")
    with tele.span("spice.dc.solve", circuit=circuit.name, t=t,
                   unknowns=sys_.n) as span:
        x, diagnostics = solve_with_recovery(sys_, fixed, x0, policy=policy,
                                             telemetry=tele, budget=budget)
        span.set("converged_by", diagnostics.converged_by)
        span.set("attempts", len(diagnostics.attempts))
        span.set("newton_iterations", diagnostics.total_iterations)
        span.set("singular_jacobian_events",
                 diagnostics.singular_jacobian_events)
    voltages = dict(fixed)
    for node, idx in sys_.index.items():
        voltages[node] = float(x[idx])
    node_currents = sys_.fixed_node_currents(x, fixed)
    source_currents = {
        source.name: node_currents.get(source.node, 0.0)
        for source in circuit.vsources
    }
    op = OperatingPoint(voltages, source_currents,
                        diagnostics=diagnostics)
    if cache_key is not None:
        op_cache.store(cache_key, op)
        tele.counter("spice.opcache.stores").inc()
    return op
