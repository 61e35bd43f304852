"""The simulator-backend seam.

Every figure in the reproduction rests on the internal EKV engine; this
module turns "which engine" into a parameter.  A
:class:`SimulatorBackend` answers the two questions the rest of the
system asks of a circuit simulator — *what is the DC operating point*
and *what happens over time* — with the exact result types the internal
engine already returns (:class:`~repro.spice.dc.OperatingPoint`,
:class:`~repro.spice.transient.TransientResult`), so callers cannot tell
backends apart by shape.

:class:`InternalBackend` wraps the in-process engine and is always
available.  External backends (:class:`~repro.spice.backend.ngspice.
NgspiceBackend`) must first pass :meth:`SimulatorBackend.probe`, which
raises a structured
:class:`~repro.errors.BackendUnavailableError` (``E_BACKEND_UNAVAILABLE``)
on machines without the binary — callers that can degrade do so through
:func:`repro.spice.backend.dispatch.default_backend`, never by guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ...errors import BackendError
from ..batch import lane_records
from ..batch import run_transient_batch as _internal_run_transient_batch
from ..circuit import Circuit
from ..dc import OperatingPoint
from ..dc import solve_dc as _internal_solve_dc
from ..transient import TransientResult
from ..transient import run_transient as _internal_run_transient


@dataclass(frozen=True)
class BackendProbe:
    """What probing a backend established about this machine."""

    name: str
    available: bool
    version: str = ""
    binary: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "available": self.available,
                "version": self.version, "binary": self.binary,
                "detail": dict(self.detail)}


class SimulatorBackend:
    """Abstract circuit-simulator backend.

    Implementations must keep the *internal engine's* conventions:

    * ``solve_dc`` returns an :class:`OperatingPoint` whose voltages
      cover every node (fixed nodes included) and whose
      ``source_currents`` are positive when the source delivers
      current;
    * ``run_transient`` returns a :class:`TransientResult` whose
      ``source_currents`` follow the same sign convention, on whatever
      time grid the engine produced (callers resample when comparing);
    * ``run_transient_batch`` returns one such result per circuit, in
      order, with ``record`` per circuit.  The default runs
      :meth:`run_transient` once per circuit.

    Extra keyword arguments beyond this contract (``guess``, recovery
    ``policy``, solve ``budget`` …) are internal-engine specifics;
    external backends ignore what they can and raise
    :class:`BackendError` for requests they cannot honour silently.
    """

    #: Stable backend identifier (``"internal"``, ``"ngspice"``).
    name: str = "abstract"

    def probe(self) -> BackendProbe:
        """Establish that this backend can run here.

        Returns a :class:`BackendProbe` on success; raises
        :class:`~repro.errors.BackendUnavailableError` with machine
        context otherwise.  Must be cheap to call repeatedly
        (implementations cache).
        """
        raise NotImplementedError

    def solve_dc(self, circuit: Circuit, t: float = 0.0,
                 telemetry=None, **kwargs) -> OperatingPoint:
        raise NotImplementedError

    def run_transient(self, circuit: Circuit, tstop: float, dt: float,
                      record: Optional[Sequence[str]] = None,
                      telemetry=None, **kwargs) -> TransientResult:
        raise NotImplementedError

    def run_transient_batch(self, circuits: Sequence[Circuit], tstop: float,
                            dt: float,
                            record: Optional[Sequence[Optional[Sequence[str]]]]
                            = None,
                            telemetry=None) -> List[TransientResult]:
        """Transients sharing ``tstop`` and ``dt``, ``record`` holding
        one entry per circuit (``None`` records every node of every
        circuit): one :meth:`run_transient` per circuit, in order."""
        records = lane_records(circuits, record)
        return [self.run_transient(circuit, tstop, dt, record=lane_record,
                                   telemetry=telemetry)
                for circuit, lane_record in zip(circuits, records)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class InternalBackend(SimulatorBackend):
    """The in-process EKV engine behind the backend interface.

    A thin delegation layer: same functions, same defaults, same
    telemetry threading — byte-identical to calling
    :func:`repro.spice.solve_dc` / :func:`repro.spice.run_transient` /
    :func:`repro.spice.run_transient_batch` directly, which is what the
    dispatch seam's equivalence tests pin.  Batches go through the
    lockstep engine.
    """

    name = "internal"

    def probe(self) -> BackendProbe:
        return BackendProbe(name=self.name, available=True,
                            version="repro-ekv")

    def solve_dc(self, circuit: Circuit, t: float = 0.0,
                 telemetry=None, **kwargs) -> OperatingPoint:
        return _internal_solve_dc(circuit, t=t, telemetry=telemetry,
                                  **kwargs)

    def run_transient(self, circuit: Circuit, tstop: float, dt: float,
                      record: Optional[Sequence[str]] = None,
                      telemetry=None, **kwargs) -> TransientResult:
        return _internal_run_transient(circuit, tstop, dt, record=record,
                                       telemetry=telemetry, **kwargs)

    def run_transient_batch(self, circuits: Sequence[Circuit], tstop: float,
                            dt: float,
                            record: Optional[Sequence[Optional[Sequence[str]]]]
                            = None,
                            telemetry=None) -> List[TransientResult]:
        return _internal_run_transient_batch(circuits, tstop, dt,
                                             record=record,
                                             telemetry=telemetry)


def get_backend(name: str, **options) -> SimulatorBackend:
    """Construct a backend by stable name.

    ``options`` are forwarded to the backend constructor (e.g.
    ``binary=`` / ``policy=`` for ngspice).  Unknown names raise
    :class:`BackendError` listing the registry — a typo in
    ``REPRO_SPICE_BACKEND`` or ``--backend`` must fail fast, not fall
    back silently.
    """
    from .ngspice import NgspiceBackend  # local import avoids a cycle

    registry = {
        InternalBackend.name: InternalBackend,
        NgspiceBackend.name: NgspiceBackend,
    }
    try:
        factory = registry[name]
    except KeyError:
        raise BackendError(
            f"unknown simulator backend {name!r}; available: "
            f"{sorted(registry)}",
            context={"backend": name,
                     "available": sorted(registry)}) from None
    return factory(**options)


def available_backends() -> Sequence[str]:
    """Stable names accepted by :func:`get_backend`."""
    return ("internal", "ngspice")
