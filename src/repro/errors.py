"""Exception taxonomy for the PG-MCML reproduction.

Every package raises exceptions derived from :class:`ReproError` so that
callers can distinguish library failures from programming errors.  The
hierarchy mirrors the package structure: circuit-simulation problems,
cell-generation problems, synthesis problems, and so on.

Every error carries a stable machine-readable ``error_code`` (one per
class, overridable per raise) and an optional ``context`` dict with the
structured facts of the failure — device names, node names, budget
counters, checkpoint paths.  :meth:`ReproError.to_dict` renders both as
a JSON-safe record, so a failed campaign can log its post-mortem to the
same JSONL stream as its telemetry (see ``DESIGN.md`` §10 for the error
code table).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional


def _json_safe(value: Any) -> Any:
    """Best-effort conversion of a context value to JSON-safe types."""
    if isinstance(value, float):
        # NaN/Inf serialize as bare literals that strict JSON parsers
        # reject; null is the convention (see ConvergenceError.residual).
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    # NumPy scalars (np.int64 trace indices, np.float64 residuals) and
    # arrays land in error contexts constantly; ``json.dumps`` refuses
    # both, which used to crash JSONL sinks mid-post-mortem.  Duck-typed
    # so this module stays import-light: ``item()`` is the NumPy scalar
    # unwrap, ``tolist()`` the array one.
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        try:
            return _json_safe(item())
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist) and hasattr(value, "shape"):
        try:
            return _json_safe(tolist())
        except (TypeError, ValueError):
            pass
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        try:
            return _json_safe(to_dict())
        except Exception:
            pass
    return repr(value)


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library.

    Parameters
    ----------
    message:
        Human-readable description (the classic exception string).
    error_code:
        Stable machine-readable code; defaults to the class's
        ``default_error_code``.
    context:
        Structured facts of the failure (device/node names, counters).
        Values are made JSON-safe by :meth:`to_dict`.
    """

    #: Per-class stable code; subclasses override.
    default_error_code = "E_REPRO"

    def __init__(self, message: str = "", *args,
                 error_code: Optional[str] = None,
                 context: Optional[Dict[str, Any]] = None):
        super().__init__(message, *args)
        self.error_code = error_code if error_code is not None else \
            self.default_error_code
        self.context: Dict[str, Any] = dict(context) if context else {}

    @property
    def message(self) -> str:
        return str(self.args[0]) if self.args else ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe post-mortem record of this failure."""
        return {
            "error": type(self).__name__,
            "error_code": self.error_code,
            "message": self.message,
            "context": _json_safe(self.context),
        }


class UnitsError(ReproError):
    """An engineering-unit string or value could not be interpreted."""

    default_error_code = "E_UNITS"


class CircuitError(ReproError):
    """A circuit netlist is malformed (unknown node, duplicate device...)."""

    default_error_code = "E_CIRCUIT"


class ConvergenceError(CircuitError):
    """The nonlinear solver failed to converge on an operating point.

    ``diagnostics``, when present, is a
    :class:`repro.spice.recovery.SolverDiagnostics` describing every
    recovery strategy that was attempted before giving up.
    """

    default_error_code = "E_CONVERGENCE"

    def __init__(self, message: str, iterations: int = 0,
                 residual: float = float("nan"), diagnostics=None,
                 error_code: Optional[str] = None,
                 context: Optional[Dict[str, Any]] = None):
        super().__init__(message, error_code=error_code, context=context)
        self.iterations = iterations
        self.residual = residual
        self.diagnostics = diagnostics

    def to_dict(self) -> Dict[str, Any]:
        record = super().to_dict()
        record["iterations"] = self.iterations
        record["residual"] = self.residual if self.residual == self.residual \
            else None  # NaN is not JSON
        if self.diagnostics is not None:
            record["diagnostics"] = _json_safe(self.diagnostics)
        return record


class BudgetExhaustedError(ConvergenceError):
    """A solve exceeded its deterministic :class:`~repro.spice.SolveBudget`.

    Raised instead of spinning forever on a stiff circuit: the budget
    bounds Newton iterations, recovery-ladder rungs, and transient
    retries.  ``context`` names the limit that tripped and the counters
    at the moment of exhaustion; ``diagnostics`` (when the exhaustion
    happened inside a DC solve) carries the full attempt history.
    """

    default_error_code = "E_BUDGET_EXHAUSTED"


class ErcError(CircuitError):
    """Electrical-rule-check preflight rejected a circuit.

    ``report`` is the :class:`repro.spice.erc.ErcReport` with every
    structured finding; ``context`` summarises the violated rules so the
    error is JSONL-serializable on its own.
    """

    default_error_code = "E_ERC"

    def __init__(self, message: str, report=None,
                 error_code: Optional[str] = None,
                 context: Optional[Dict[str, Any]] = None):
        super().__init__(message, error_code=error_code, context=context)
        self.report = report

    def to_dict(self) -> Dict[str, Any]:
        record = super().to_dict()
        if self.report is not None:
            record["report"] = _json_safe(self.report)
        return record


class DeviceError(CircuitError):
    """A device was constructed with invalid parameters."""

    default_error_code = "E_DEVICE"


class BackendError(ReproError):
    """An external-simulator backend failed.

    Base of the backend sub-taxonomy (:mod:`repro.spice.backend`): the
    subprocess died with a non-zero status after its retry budget, the
    binary produced output we refuse to trust, or a backend was asked
    for something it cannot do.  ``context`` carries the facts needed
    for a post-mortem from the JSONL stream alone — argv, attempt
    counts, exit status, stderr tail.
    """

    default_error_code = "E_BACKEND"


class BackendUnavailableError(BackendError):
    """The requested simulator backend cannot run on this machine.

    Raised by :meth:`~repro.spice.backend.SimulatorBackend.probe` when
    the binary is missing or refuses to identify itself.  Callers that
    pass ``fallback=True`` degrade to the internal engine instead of
    propagating this (with a telemetry event marking the degradation).
    """

    default_error_code = "E_BACKEND_UNAVAILABLE"


class BackendTimeoutError(BackendError):
    """A supervised backend subprocess exceeded its wall-clock budget.

    The supervisor has already escalated SIGTERM → SIGKILL and reaped
    the process by the time this is raised; ``context`` records the
    timeout, the escalation path taken, and the captured output tails.
    """

    default_error_code = "E_BACKEND_TIMEOUT"


class BackendProtocolError(BackendError):
    """External simulator output failed validation.

    External output is never trusted: missing vectors, point-count
    mismatches, non-finite samples, or an unparsable rawfile raise this
    instead of propagating garbage into a :class:`Waveform`.
    """

    default_error_code = "E_BACKEND_PROTOCOL"


class BDDError(ReproError):
    """Invalid BDD operation (unknown variable, ordering violation...)."""

    default_error_code = "E_BDD"


class CellError(ReproError):
    """A standard cell definition or generation step is invalid."""

    default_error_code = "E_CELL"


class CharacterizationError(CellError):
    """Cell characterisation failed (no switching observed, bad bias...)."""

    default_error_code = "E_CHARACTERIZATION"


class NetlistError(ReproError):
    """A gate-level netlist is malformed."""

    default_error_code = "E_NETLIST"


class SimulationError(ReproError):
    """Event-driven logic simulation failed."""

    default_error_code = "E_SIMULATION"


class SynthesisError(ReproError):
    """Technology mapping or sleep-insertion failed."""

    default_error_code = "E_SYNTHESIS"


class AssemblerError(ReproError):
    """Assembly source could not be assembled."""

    default_error_code = "E_ASSEMBLER"


class CPUError(ReproError):
    """The processor simulator hit an illegal state."""

    default_error_code = "E_CPU"


class TraceError(ReproError):
    """Power-trace generation or manipulation failed."""

    default_error_code = "E_TRACE"


class AttackError(ReproError):
    """A side-channel attack was configured inconsistently."""

    default_error_code = "E_ATTACK"


class CheckpointError(ReproError):
    """A checkpointed experiment run was misconfigured or got a malformed
    chunk result."""

    default_error_code = "E_CHECKPOINT"


class JobError(ReproError):
    """The campaign job service failed.

    Base of the job sub-taxonomy (:mod:`repro.service`): ledger
    corruption that cannot be recovered from, invalid job specs, lease
    protocol violations, and chunks that exhausted their attempt budget.
    ``context`` carries the job id / chunk index / attempt counters so a
    wedged queue can be diagnosed from the JSONL stream alone.
    """

    default_error_code = "E_JOB"


class JobSpecError(JobError):
    """A submitted campaign job spec failed validation.

    Raised before anything is written to the ledger: a rejected spec
    must leave no trace in the durable store.
    """

    default_error_code = "E_JOB_SPEC"


class JobLedgerError(JobError):
    """The durable job ledger is unusable.

    Individual corrupt records are *recovered from* (the replay skips
    them, conservatively demoting the affected chunk to ``pending`` so
    it is recomputed — the content-addressed result store turns the
    recompute into a cache hit).  This error is for damage replay cannot
    absorb: an unreadable file, or a chunk record naming a job the
    ledger never registered.
    """

    default_error_code = "E_JOB_LEDGER"


class JobLeaseError(JobError):
    """A lease operation was invalid.

    A worker heartbeating or completing a chunk it no longer holds
    (its lease expired and was requeued to another worker) raises this
    instead of silently double-writing; the job's durable state is
    owned by whoever holds the live lease.
    """

    default_error_code = "E_JOB_LEASE"


class JobPoisonedError(JobError):
    """A chunk failed on every attempt and was quarantined.

    Raised when gathering a job with quarantined chunks: the queue
    stopped retrying after ``max_attempts`` bounded-backoff attempts
    instead of looping forever, and the chunk needs operator attention
    (``tools/ledgerctl.py requeue``) or a fixed spec.  ``context``
    carries the per-chunk attempt histories and last errors.
    """

    default_error_code = "E_JOB_POISONED"
