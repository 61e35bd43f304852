"""Backend selection and graceful degradation.

The rest of the system asks for simulation through functions with the
internal engine's exact signatures (:func:`solve_dc`,
:func:`run_transient`, :func:`run_transient_batch`); *which* engine
answers is decided here, once per process, from (in priority order):

1. an explicit :func:`set_default_backend` call (the CLI's
   ``--backend`` flag, tests);
2. the ``REPRO_SPICE_BACKEND`` environment variable;
3. the internal engine.

A requested external backend that fails its probe **degrades
gracefully**: the resolution emits a
``spice.backend.unavailable`` telemetry event (with the probe error's
``to_dict()`` post-mortem) plus a counter, and returns the internal
backend — so campaigns, tests, and CI on machines without ngspice keep
working, loudly.  Pass ``strict=True`` (or set
``REPRO_SPICE_BACKEND_STRICT=1``) to propagate the structured
``E_BACKEND_UNAVAILABLE`` error instead, for jobs whose whole point is
the external engine (the CI oracle job).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

from ...errors import BackendUnavailableError
from ...obs import NULL_TELEMETRY
from ..circuit import Circuit
from ..dc import OperatingPoint
from ..transient import TransientResult
from .base import InternalBackend, SimulatorBackend, get_backend

#: Environment variable naming the default backend.
BACKEND_ENV = "REPRO_SPICE_BACKEND"
#: When truthy, an unavailable requested backend raises instead of
#: degrading to the internal engine.
STRICT_ENV = "REPRO_SPICE_BACKEND_STRICT"

#: Explicit override (highest priority); None defers to the env.
_EXPLICIT: Optional[SimulatorBackend] = None
#: Cache of the last env-driven resolution: (env value, backend).
_RESOLVED: Optional[Tuple[str, SimulatorBackend]] = None

_INTERNAL = InternalBackend()


def set_default_backend(
        backend: Union[SimulatorBackend, str, None]) -> None:
    """Pin the process-wide default backend (None reverts to the env).

    A string is resolved through :func:`get_backend` immediately, so a
    typo fails here rather than deep inside a campaign.
    """
    global _EXPLICIT, _RESOLVED
    if isinstance(backend, str):
        backend = get_backend(backend)
    _EXPLICIT = backend
    _RESOLVED = None


def reset_default_backend() -> None:
    """Forget every cached resolution (tests, env changes)."""
    set_default_backend(None)


def _strict_env() -> bool:
    return os.environ.get(STRICT_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


def default_backend(telemetry=None,
                    strict: Optional[bool] = None) -> SimulatorBackend:
    """The backend simulation goes through when none is passed.

    Probes a non-internal choice on first use; an unavailable backend
    degrades to the internal engine with a telemetry post-mortem
    (unless strict — see module docstring).  The resolution is cached
    against the env value, so steady-state cost is a dict lookup.
    """
    if _EXPLICIT is not None:
        return _EXPLICIT
    global _RESOLVED
    wanted = os.environ.get(BACKEND_ENV, "").strip() or InternalBackend.name
    if _RESOLVED is not None and _RESOLVED[0] == wanted:
        return _RESOLVED[1]
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    if wanted == InternalBackend.name:
        _RESOLVED = (wanted, _INTERNAL)
        return _INTERNAL
    backend = get_backend(wanted)
    strict = _strict_env() if strict is None else strict
    try:
        probe = backend.probe()
    except BackendUnavailableError as err:
        tele.counter("spice.backend.unavailable").inc()
        tele.event("spice.backend.unavailable", backend=wanted,
                   fallback=InternalBackend.name, strict=strict,
                   error=err.to_dict())
        if strict:
            raise
        _RESOLVED = (wanted, _INTERNAL)
        return _INTERNAL
    tele.event("spice.backend.selected", backend=wanted,
               version=probe.version, binary=probe.binary)
    _RESOLVED = (wanted, backend)
    return backend


def solve_dc(circuit: Circuit, t: float = 0.0, telemetry=None,
             backend: Optional[SimulatorBackend] = None,
             **kwargs) -> OperatingPoint:
    """Backend-routed DC solve (internal-engine signature)."""
    chosen = backend if backend is not None else default_backend(telemetry)
    return chosen.solve_dc(circuit, t=t, telemetry=telemetry, **kwargs)


def run_transient(circuit: Circuit, tstop: float, dt: float,
                  record: Optional[Sequence[str]] = None, telemetry=None,
                  backend: Optional[SimulatorBackend] = None,
                  **kwargs) -> TransientResult:
    """Backend-routed transient run (internal-engine signature)."""
    chosen = backend if backend is not None else default_backend(telemetry)
    return chosen.run_transient(circuit, tstop, dt, record=record,
                                telemetry=telemetry, **kwargs)


def run_transient_batch(circuits: Sequence[Circuit], tstop: float, dt: float,
                        record: Optional[Sequence[Optional[Sequence[str]]]]
                        = None,
                        telemetry=None) -> List[TransientResult]:
    """Backend-routed transients of any topologies sharing ``tstop`` and
    ``dt``, ``record`` per lane: one lockstep call on the internal
    engine, one run per circuit on an external simulator."""
    return default_backend(telemetry).run_transient_batch(
        circuits, tstop, dt, record=record, telemetry=telemetry)
