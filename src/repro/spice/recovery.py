"""Convergence-recovery strategies for the DC solver.

Plain damped Newton fails on stiff or multi-stable circuits: the iterate
limit-cycles between solution basins, or the Jacobian goes singular in a
flat region.  Real SPICE engines survive these cases with a *ladder* of
continuation methods, each cheaper than the next is desperate:

1. **plain Newton** from the midpoint guess;
2. **gmin stepping** — a shrinking shunt conductance to ground convexifies
   the problem, each rung warm-starting the next;
3. **source stepping** — ramp every fixed source from 0 to its target
   value, tracking the solution branch continuously (the textbook cure
   for bistable circuits whose midpoint guess sits in no-man's land);
4. **pseudo-transient** — a dynamic gmin ramp that mimics integrating the
   circuit to steady state: start with a huge conductance (trivially
   solvable), shrink it geometrically on success, grow it back on
   failure.  This walks through folds that defeat source stepping.

The :class:`RecoveryPolicy` configures the ladder; every attempt is
recorded in a :class:`SolverDiagnostics` that is attached to the
resulting :class:`~repro.spice.dc.OperatingPoint` on success and to the
:class:`~repro.errors.ConvergenceError` on failure — a failed solve is
never silent about what was tried.

The ladder is assembly-agnostic: it drives ``System.newton`` through the
same interface whether the system assembles residuals with the
vectorized device banks (:mod:`repro.spice.banks`, the default) or the
reference per-device loop, and the diagnostics it records (attempts,
iterations, residuals, singular-Jacobian events) carry identical
semantics under either strategy.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BudgetExhaustedError, CircuitError, ConvergenceError
from ..obs import NULL_TELEMETRY

#: The classic shrinking-gmin ladder (finishing with a clean gmin=0 solve).
GMIN_LADDER = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0)

#: Environment override for the default solve budget (see
#: :meth:`SolveBudget.from_env`).
_BUDGET_ENV = "REPRO_SOLVE_BUDGET"

#: Per-attempt Newton iteration ceiling (the historical ``maxiter``).
_ATTEMPT_MAXITER = 120


@dataclass(frozen=True)
class SolveBudget:
    """Deterministic runaway-solve limits.

    All counters are pure functions of the work performed — no
    wall-clock — so a budgeted run is exactly reproducible.  ``None``
    means unlimited (the default: behaviour is identical to the
    pre-budget engine).

    ``max_newton_iterations`` and ``max_ladder_attempts`` bound one DC
    solve (cumulative Newton iterations across every recovery rung, and
    the number of rungs); ``max_transient_rejections`` and
    ``max_transient_steps`` bound one transient run (failed Newton
    solves across all step-halving retries, and accepted steps).  When a
    limit trips, the engine raises
    :class:`~repro.errors.BudgetExhaustedError` carrying the
    :class:`SolverDiagnostics` accumulated so far instead of spinning.
    """

    max_newton_iterations: Optional[int] = None
    max_ladder_attempts: Optional[int] = None
    max_transient_rejections: Optional[int] = None
    max_transient_steps: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_newton_iterations", "max_ladder_attempts",
                     "max_transient_rejections", "max_transient_steps"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise CircuitError(f"budget field {name} must be >= 0 or "
                                   f"None: {value}")

    def to_dict(self) -> Dict[str, Optional[int]]:
        return asdict(self)

    @classmethod
    def from_env(cls) -> "SolveBudget":
        """Budget from ``REPRO_SOLVE_BUDGET`` (unlimited when unset).

        Accepted forms: a bare integer (cumulative Newton iterations
        per DC solve, e.g. ``600``) or comma-separated ``key=value``
        pairs with keys ``iters``, ``attempts``, ``rejections``,
        ``steps`` (e.g. ``iters=600,rejections=64``).
        """
        raw = os.environ.get(_BUDGET_ENV, "").strip()
        if not raw:
            return UNLIMITED_BUDGET
        if raw not in _ENV_CACHE:
            _ENV_CACHE.clear()
            _ENV_CACHE[raw] = cls._parse(raw)
        return _ENV_CACHE[raw]

    @classmethod
    def _parse(cls, raw: str) -> "SolveBudget":
        keys = {"iters": "max_newton_iterations",
                "attempts": "max_ladder_attempts",
                "rejections": "max_transient_rejections",
                "steps": "max_transient_steps"}
        try:
            if "=" not in raw:
                return cls(max_newton_iterations=int(raw))
            fields: Dict[str, int] = {}
            for pair in raw.split(","):
                key, _, value = pair.partition("=")
                fields[keys[key.strip()]] = int(value)
            return cls(**fields)
        except (KeyError, ValueError) as err:
            raise CircuitError(
                f"cannot parse {_BUDGET_ENV}={raw!r}: {err} (expected an "
                f"integer or key=value pairs with keys {sorted(keys)})",
                context={"env": _BUDGET_ENV, "value": raw}) from err


#: The default budget: every limit off.
UNLIMITED_BUDGET = SolveBudget()

_ENV_CACHE: Dict[str, SolveBudget] = {}


@dataclass
class NewtonStats:
    """Per-solve bookkeeping filled in by :meth:`System.newton`."""

    iterations: int = 0
    residual: float = math.nan
    singular_jacobian_events: int = 0
    converged: bool = False


@dataclass
class StrategyAttempt:
    """One rung of the recovery ladder: what ran and how it ended."""

    strategy: str
    converged: bool
    iterations: int
    residual: float
    singular_jacobian_events: int = 0

    def __repr__(self) -> str:
        verdict = "ok" if self.converged else "failed"
        return (f"StrategyAttempt({self.strategy}: {verdict}, "
                f"{self.iterations} iters, residual {self.residual:.3g})")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe record (NaN residuals become ``None``)."""
        return {"strategy": self.strategy, "converged": self.converged,
                "iterations": self.iterations,
                "residual": self.residual
                if math.isfinite(self.residual) else None,
                "singular_jacobian_events": self.singular_jacobian_events}


@dataclass
class SolverDiagnostics:
    """The full story of one DC solve: every strategy, every outcome.

    ``budget_exhausted`` names the :class:`SolveBudget` limit that cut
    the solve short, or ``None`` when the ladder ran to its natural end.
    """

    attempts: List[StrategyAttempt] = field(default_factory=list)
    converged_by: Optional[str] = None
    budget_exhausted: Optional[str] = None

    @property
    def singular_jacobian_events(self) -> int:
        """Total silent-``lstsq`` fallbacks across all attempts."""
        return sum(a.singular_jacobian_events for a in self.attempts)

    @property
    def total_iterations(self) -> int:
        return sum(a.iterations for a in self.attempts)

    def strategies(self) -> List[str]:
        return [a.strategy for a in self.attempts]

    def record(self, strategy: str, stats: NewtonStats) -> StrategyAttempt:
        attempt = StrategyAttempt(
            strategy=strategy, converged=stats.converged,
            iterations=stats.iterations, residual=stats.residual,
            singular_jacobian_events=stats.singular_jacobian_events)
        self.attempts.append(attempt)
        return attempt

    def to_dict(self) -> Dict[str, object]:
        """JSONL-serializable post-mortem of the solve."""
        return {"attempts": [a.to_dict() for a in self.attempts],
                "converged_by": self.converged_by,
                "budget_exhausted": self.budget_exhausted,
                "total_iterations": self.total_iterations,
                "singular_jacobian_events": self.singular_jacobian_events}

    def summary(self) -> str:
        lines = [f"{len(self.attempts)} strategy attempts, "
                 f"{self.total_iterations} Newton iterations, "
                 f"{self.singular_jacobian_events} singular-Jacobian events"]
        for a in self.attempts:
            verdict = "converged" if a.converged else "failed"
            lines.append(f"  {a.strategy:24s} {verdict:10s} "
                         f"iters={a.iterations:<4d} "
                         f"residual={a.residual:.3g}")
        if self.converged_by is not None:
            lines.append(f"solved by: {self.converged_by}")
        return "\n".join(lines)


@dataclass
class RecoveryPolicy:
    """Configuration of the DC recovery ladder.

    Strategies run in order — gmin stepping, then source stepping, then
    pseudo-transient — each only if the previous ones failed.  Disabling
    a strategy removes its rungs but keeps the rest of the ladder.
    """

    gmin_ladder: Sequence[float] = GMIN_LADDER
    source_stepping: bool = True
    #: Initial (and maximum) source-ramp increment.
    source_step_initial: float = 0.25
    #: Give up on source stepping below this increment (a fold point).
    source_step_min: float = 1.0 / 4096.0
    pseudo_transient: bool = True
    ptran_gmin_start: float = 1.0
    #: Shrink factor applied to gmin after an accepted rung.
    ptran_shrink: float = 0.1
    #: Growth factor applied to gmin after a rejected rung.
    ptran_grow: float = 3.0
    #: Abandon pseudo-transient when gmin grows past this.
    ptran_gmin_max: float = 1e3
    #: A rung below this gmin is followed by one clean gmin=0 solve.
    ptran_gmin_floor: float = 1e-14
    ptran_max_rungs: int = 80


def _exhaust_dc(budget: SolveBudget, diag: SolverDiagnostics, limit: str,
                telemetry) -> None:
    """Record and raise a DC budget exhaustion."""
    diag.budget_exhausted = limit
    telemetry.counter("spice.budget.dc_exhausted").inc()
    telemetry.event("spice.budget.exhausted", scope="dc", limit=limit,
                    attempts=len(diag.attempts),
                    newton_iterations=diag.total_iterations)
    failures = [a for a in diag.attempts if not a.converged]
    last = failures[-1] if failures else None
    raise BudgetExhaustedError(
        f"DC solve budget exhausted ({limit}={getattr(budget, limit)}) "
        f"after {len(diag.attempts)} ladder attempts and "
        f"{diag.total_iterations} Newton iterations\n{diag.summary()}",
        iterations=diag.total_iterations,
        residual=last.residual if last is not None else math.nan,
        diagnostics=diag,
        context={"scope": "dc", "limit": limit,
                 "budget": budget.to_dict(),
                 "attempts": len(diag.attempts),
                 "newton_iterations": diag.total_iterations})


def _budget_maxiter(budget: SolveBudget, diag: SolverDiagnostics,
                    telemetry) -> int:
    """Per-attempt iteration cap; raises when the budget is spent."""
    if budget.max_ladder_attempts is not None \
            and len(diag.attempts) >= budget.max_ladder_attempts:
        _exhaust_dc(budget, diag, "max_ladder_attempts", telemetry)
    maxiter = _ATTEMPT_MAXITER
    if budget.max_newton_iterations is not None:
        remaining = budget.max_newton_iterations - diag.total_iterations
        if remaining <= 0:
            _exhaust_dc(budget, diag, "max_newton_iterations", telemetry)
        maxiter = min(maxiter, remaining)
    return maxiter


def _attempt(system, diagnostics: SolverDiagnostics, strategy: str,
             fixed: Dict[str, float], x: np.ndarray,
             gmin: float, telemetry=NULL_TELEMETRY,
             maxiter: int = _ATTEMPT_MAXITER) -> Optional[np.ndarray]:
    """One recorded Newton attempt; ``None`` on non-convergence."""
    stats = NewtonStats()
    try:
        result = system.newton(fixed, x, gmin=gmin, stats=stats,
                               maxiter=maxiter)
    except ConvergenceError:
        result = None
    attempt = diagnostics.record(strategy, stats)
    telemetry.counter("spice.dc.ladder_attempts").inc()
    if len(diagnostics.attempts) > 1:
        # Rung 2 onward means plain Newton did not carry the solve.
        telemetry.event("spice.dc.attempt", strategy=strategy,
                        converged=attempt.converged,
                        iterations=attempt.iterations,
                        singular_jacobian_events=
                        attempt.singular_jacobian_events)
    return result


def solve_with_recovery(system, fixed: Dict[str, float], x0: np.ndarray,
                        policy: Optional[RecoveryPolicy] = None,
                        telemetry=None,
                        budget: Optional[SolveBudget] = None,
                        ) -> Tuple[np.ndarray, SolverDiagnostics]:
    """Run the recovery ladder until one strategy produces a gmin=0 solve.

    Returns the solution and the diagnostics; raises
    :class:`ConvergenceError` (with the diagnostics attached) only after
    every enabled strategy has failed.  Every ladder rung past plain
    Newton is recorded as a ``spice.dc.attempt`` event on ``telemetry``
    (defaulting to the system's own handle), so a struggling solve is
    visible in traces without any per-iteration cost on healthy ones.

    ``budget`` (default: :meth:`SolveBudget.from_env`) bounds the whole
    solve deterministically; when a limit trips the ladder stops with a
    :class:`~repro.errors.BudgetExhaustedError` carrying the
    diagnostics accumulated so far.
    """
    if telemetry is None:
        telemetry = getattr(system, "telemetry", NULL_TELEMETRY)
    budget = budget if budget is not None else SolveBudget.from_env()
    diag = SolverDiagnostics()

    # 1. Plain Newton from the caller's guess.
    x = _attempt(system, diag, "newton", fixed, x0, 0.0,
                 telemetry=telemetry,
                 maxiter=_budget_maxiter(budget, diag, telemetry))
    if x is not None:
        diag.converged_by = "newton"
        return x, diag
    return climb_ladder(system, fixed, x0, diag, policy, telemetry, budget)


def climb_ladder(system, fixed: Dict[str, float], x0: np.ndarray,
                 diag: SolverDiagnostics,
                 policy: Optional[RecoveryPolicy], telemetry,
                 budget: SolveBudget
                 ) -> Tuple[np.ndarray, SolverDiagnostics]:
    """The ladder after a plain-Newton first rung from ``x0`` that did
    not converge, recorded in ``diag``: gmin stepping, source stepping,
    pseudo-transient.  :func:`solve_with_recovery` goes on here, and so
    does a lane of the lockstep DC (:mod:`repro.spice.batch`) whose
    first rung ran in the lockstep."""
    policy = policy if policy is not None else RecoveryPolicy()

    def attempt(strategy: str, fixed_a: Dict[str, float], x_a: np.ndarray,
                gmin_a: float) -> Optional[np.ndarray]:
        maxiter = _budget_maxiter(budget, diag, telemetry)
        return _attempt(system, diag, strategy, fixed_a, x_a, gmin_a,
                        telemetry=telemetry, maxiter=maxiter)

    # 2. Gmin stepping, warm-starting each rung from the previous one.
    x = x0.copy()
    solved = False
    for gmin in policy.gmin_ladder:
        result = attempt(f"gmin:{gmin:g}", fixed, x, gmin)
        if result is not None:
            x = result
            solved = gmin == 0.0
    if not solved:
        # Final plain attempt warm-started from wherever the ladder got.
        result = attempt("gmin:final", fixed, x, 0.0)
        solved = result is not None
        if solved:
            x = result
    if solved:
        diag.converged_by = diag.attempts[-1].strategy
        return x, diag

    # 3. Source stepping: ramp all sources from zero, tracking the branch.
    if policy.source_stepping:
        x = np.zeros(system.n)
        alpha, step = 0.0, policy.source_step_initial
        while alpha < 1.0:
            target = min(1.0, alpha + step)
            scaled = {node: value * target for node, value in fixed.items()}
            result = attempt(f"source-step:{target:.4g}", scaled, x, 0.0)
            if result is not None:
                x, alpha = result, target
                step = min(step * 2.0, policy.source_step_initial)
            else:
                step /= 2.0
                if step < policy.source_step_min:
                    break  # fold point: this branch ends before alpha=1
        if alpha >= 1.0:
            diag.converged_by = diag.attempts[-1].strategy
            return x, diag

    # 4. Pseudo-transient: dynamic gmin ramp through folds.
    if policy.pseudo_transient:
        x = x0.copy()
        gmin = policy.ptran_gmin_start
        for _ in range(policy.ptran_max_rungs):
            if gmin > policy.ptran_gmin_max:
                break
            result = attempt(f"ptran:gmin={gmin:.2g}", fixed, x, gmin)
            if result is not None:
                x = result
                gmin *= policy.ptran_shrink
                if gmin < policy.ptran_gmin_floor:
                    final = attempt("ptran:final", fixed, x, 0.0)
                    if final is not None:
                        diag.converged_by = "ptran:final"
                        return final, diag
                    break
            else:
                gmin *= policy.ptran_grow

    failures = [a for a in diag.attempts if not a.converged]
    last = failures[-1] if failures else None
    raise ConvergenceError(
        "DC solve failed after exhausting the recovery ladder "
        f"({len(diag.attempts)} attempts: "
        f"{', '.join(sorted(set(a.strategy.split(':')[0] for a in diag.attempts)))})"
        f"\n{diag.summary()}",
        iterations=diag.total_iterations,
        residual=last.residual if last is not None else math.nan,
        diagnostics=diag,
        context={"scope": "dc", "attempts": len(diag.attempts),
                 "strategies": sorted(set(
                     a.strategy.split(":")[0] for a in diag.attempts)),
                 "newton_iterations": diag.total_iterations})
