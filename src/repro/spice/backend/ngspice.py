"""ngspice as a supervised external-simulator backend.

The backend turns one :class:`~repro.spice.Circuit` into a batch-mode
ngspice run:

1. export the circuit through :func:`repro.spice.deck.write_spice_deck`
   (``.options filetype=ascii``, ``.save all``, and the analysis card),
   keeping the :class:`~repro.spice.deck.DeckInfo` manifest;
2. run ``ngspice -b -r out.raw deck.sp`` under
   :func:`~repro.spice.backend.supervise.run_supervised` — hard
   wall-clock timeout with SIGTERM→SIGKILL escalation, bounded retries
   with backoff, stdout/stderr captured into the obs stream;
3. parse the ASCII rawfile with the validating parser
   (:mod:`repro.spice.backend.rawfile`) and translate vectors back onto
   circuit node and source names via the manifest — node coverage,
   point counts, and finiteness are all checked before a
   :class:`~repro.spice.Waveform` is built from external data.

Sign convention: ngspice's ``i(vxx)`` is the current flowing *into* the
source's positive terminal, so a delivering supply reads negative; the
internal engine counts delivery as positive.  The backend negates, so
``OperatingPoint.current("vdd")`` means the same thing for every
backend.

The deck's MOS cards are a LEVEL=1 approximation of our EKV model, so
agreement with the internal engine is a *calibration* question, not a
bit-exactness one — see ``tests/test_backend_oracle.py`` for the
documented tolerances.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict, Optional, Sequence

import numpy as np

from ...errors import (
    BackendError,
    BackendProtocolError,
    BackendUnavailableError,
)
from ...obs import NULL_TELEMETRY
from ..circuit import Circuit, GROUND, canonical_node
from ..dc import OperatingPoint
from ..deck import DeckInfo, write_spice_deck
from ..transient import TransientResult, TransientStats
from .base import BackendProbe, SimulatorBackend
from .rawfile import RawPlot, parse_ascii_rawfile
from .supervise import SupervisorPolicy, run_supervised

#: Environment override for the ngspice binary path.
NGSPICE_ENV = "REPRO_NGSPICE"

_PROBE_POLICY = SupervisorPolicy(timeout=10.0, retries=1, backoff=0.2)


class NgspiceBackend(SimulatorBackend):
    """Run DC and transient analyses through a supervised ngspice.

    Parameters
    ----------
    binary:
        ngspice executable; default is ``$REPRO_NGSPICE`` or
        ``"ngspice"`` on the PATH.
    policy:
        :class:`SupervisorPolicy` for simulation runs (probe runs use a
        short fixed policy).
    keep_artifacts:
        Keep each run's scratch directory (deck, rawfile, logs) instead
        of deleting it — post-mortem debugging.
    """

    name = "ngspice"

    def __init__(self, binary: Optional[str] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 keep_artifacts: bool = False):
        self.binary = binary or os.environ.get(NGSPICE_ENV) or "ngspice"
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.keep_artifacts = keep_artifacts
        self._probe: Optional[BackendProbe] = None

    # -- probing -------------------------------------------------------------

    def probe(self, telemetry=None) -> BackendProbe:
        """Locate and identify the binary (cached after first success)."""
        if self._probe is not None:
            return self._probe
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        resolved = shutil.which(self.binary)
        if resolved is None:
            raise BackendUnavailableError(
                f"ngspice binary {self.binary!r} not found on PATH",
                context={"backend": self.name, "binary": self.binary,
                         "env": NGSPICE_ENV})
        run = run_supervised([resolved, "--version"],
                             policy=_PROBE_POLICY, telemetry=tele,
                             what="ngspice probe")
        version = ""
        for line in run.stdout.splitlines():
            line = line.strip()
            if "ngspice" in line.lower():
                version = line
                break
        self._probe = BackendProbe(
            name=self.name, available=True, version=version,
            binary=resolved,
            detail={"probe_attempts": len(run.attempts)})
        return self._probe

    # -- shared plumbing -----------------------------------------------------

    def _run_deck(self, deck_text: str, telemetry, what: str) -> str:
        """Run one deck in a scratch dir; return the rawfile text."""
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        probe = self.probe(telemetry=tele)
        workdir = tempfile.mkdtemp(prefix="repro-ngspice-")
        deck_path = os.path.join(workdir, "deck.sp")
        raw_path = os.path.join(workdir, "out.raw")
        log_path = os.path.join(workdir, "ngspice.log")
        try:
            with open(deck_path, "w", encoding="utf-8") as stream:
                stream.write(deck_text)
            run_supervised(
                [probe.binary, "-b", "-o", log_path, "-r", raw_path,
                 deck_path],
                policy=self.policy, cwd=workdir, telemetry=tele, what=what)
            if not os.path.exists(raw_path):
                log_tail = _read_tail(log_path, self.policy.capture_bytes)
                raise BackendProtocolError(
                    f"{what}: ngspice exited 0 but wrote no rawfile",
                    context={"deck": deck_path, "log_tail": log_tail})
            with open(raw_path, "r", encoding="utf-8",
                      errors="replace") as stream:
                return stream.read()
        finally:
            if not self.keep_artifacts:
                shutil.rmtree(workdir, ignore_errors=True)
            else:
                tele.event("spice.backend.ngspice.artifacts",
                           workdir=workdir)

    def _voltages_from_plot(self, plot: RawPlot, circuit: Circuit,
                            point: int = -1) -> Dict[str, float]:
        """All node voltages at one plot point, validated for coverage."""
        voltages: Dict[str, float] = {}
        missing = []
        for node in circuit.all_nodes():
            if node == GROUND:
                voltages[node] = 0.0
                continue
            idx = plot.index_of(node)
            if idx is None:
                missing.append(node)
            else:
                voltages[node] = float(plot.values[idx, point])
        if missing:
            raise BackendProtocolError(
                f"ngspice output is missing node(s) {sorted(missing)} of "
                f"circuit {circuit.name!r}",
                context={"circuit": circuit.name, "missing": sorted(missing),
                         "available": plot.names()})
        return voltages

    def _source_currents(self, plot: RawPlot, circuit: Circuit,
                         info: DeckInfo) -> Dict[str, np.ndarray]:
        """Per-source delivered-current vectors (internal sign)."""
        currents: Dict[str, np.ndarray] = {}
        by_source: Dict[str, int] = {}
        for idx, variable in enumerate(plot.variables):
            source = info.source_for_vector(variable.name)
            if source is not None:
                by_source[source] = idx
        missing = [s.name for s in circuit.vsources
                   if s.name not in by_source]
        if missing:
            raise BackendProtocolError(
                f"ngspice output is missing branch current(s) for "
                f"source(s) {sorted(missing)}",
                context={"circuit": circuit.name, "missing": sorted(missing),
                         "available": plot.names()})
        for source in circuit.vsources:
            # ngspice: positive into the + terminal; internal engine:
            # positive = delivering.  Negate to unify.
            currents[source.name] = -plot.values[by_source[source.name]]
        return currents

    def _single_plot(self, raw_text: str, want: str) -> RawPlot:
        plots = parse_ascii_rawfile(raw_text)
        matches = [p for p in plots
                   if (want == "op" and p.is_op())
                   or (want == "tran" and p.is_transient())]
        if len(matches) != 1:
            raise BackendProtocolError(
                f"expected exactly one {want} plot, found "
                f"{[p.plotname for p in plots]}",
                context={"wanted": want,
                         "plots": [p.plotname for p in plots]})
        return matches[0]

    # -- the backend interface -----------------------------------------------

    def solve_dc(self, circuit: Circuit, t: float = 0.0,
                 telemetry=None, **kwargs) -> OperatingPoint:
        """DC operating point via a batch ``.op`` run.

        Sources are frozen at their ``t`` values in the exported deck
        (``dc_snapshot``), matching the internal engine's
        ``solve_dc(t=...)`` semantics.  Internal-solver keywords
        (``guess``/``system``/``policy``/``budget``) are ignored: the
        supervision policy is the external engine's budget.
        """
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        _reject_unknown(kwargs, ("guess", "system", "policy", "budget"))
        circuit.validate()
        import io

        buffer = io.StringIO()
        info = write_spice_deck(
            buffer, circuit, title=f"{circuit.name} (repro ngspice op)",
            op=True, dc_snapshot=t, save=["all"],
            options={"filetype": "ascii"})
        with tele.span("spice.backend.ngspice.solve_dc",
                       circuit=circuit.name, t=t):
            raw_text = self._run_deck(buffer.getvalue(), tele,
                                      what=f"ngspice op ({circuit.name})")
            plot = self._single_plot(raw_text, "op")
            if plot.n_points != 1:
                raise BackendProtocolError(
                    f"operating-point plot has {plot.n_points} points, "
                    f"expected 1", context={"circuit": circuit.name})
            voltages = self._voltages_from_plot(plot, circuit)
            currents = self._source_currents(plot, circuit, info)
        return OperatingPoint(
            voltages,
            {name: float(vec[-1]) for name, vec in currents.items()},
            diagnostics=None)

    def run_transient(self, circuit: Circuit, tstop: float, dt: float,
                      record: Optional[Sequence[str]] = None,
                      telemetry=None, **kwargs) -> TransientResult:
        """Transient analysis via a batch ``.tran`` run.

        The result lives on ngspice's own time grid (validated strictly
        increasing, spanning ``[0, ~tstop]``); callers resample when
        comparing against the internal engine's grid.  ``record``
        filters the returned voltages exactly like the internal engine
        (unknown names raise :class:`~repro.errors.CircuitError`-class
        errors rather than recording zeros).
        """
        from ...errors import CircuitError

        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        _reject_unknown(kwargs, ("ic", "max_step_halvings", "on_step",
                                 "budget"))
        if tstop <= 0.0 or dt <= 0.0:
            raise CircuitError("tstop and dt must be positive")
        circuit.validate()
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
            record_nodes = circuit.all_nodes()
            canon_of = {node: node for node in record_nodes}
        import io

        buffer = io.StringIO()
        info = write_spice_deck(
            buffer, circuit, title=f"{circuit.name} (repro ngspice tran)",
            tran={"tstep": dt, "tstop": tstop}, save=["all"],
            options={"filetype": "ascii"})
        with tele.span("spice.backend.ngspice.run_transient",
                       circuit=circuit.name, tstop=tstop, dt=dt):
            raw_text = self._run_deck(buffer.getvalue(), tele,
                                      what=f"ngspice tran ({circuit.name})")
            plot = self._single_plot(raw_text, "tran")
            time_idx = plot.index_of("time")
            if time_idx is None:
                raise BackendProtocolError(
                    "transient plot has no time vector",
                    context={"available": plot.names()})
            time = plot.values[time_idx]
            if plot.n_points < 2:
                raise BackendProtocolError(
                    f"transient plot has only {plot.n_points} point(s)",
                    context={"circuit": circuit.name, "tstop": tstop})
            if not np.all(np.diff(time) > 0):
                raise BackendProtocolError(
                    "transient time vector is not strictly increasing",
                    context={"circuit": circuit.name,
                             "n_points": plot.n_points})
            if time[-1] < tstop * (1.0 - 1e-6):
                raise BackendProtocolError(
                    f"transient run stopped early: reached "
                    f"{time[-1]:.6g} s of {tstop:.6g} s",
                    context={"circuit": circuit.name, "tstop": tstop,
                             "reached": float(time[-1])})
            voltages: Dict[str, np.ndarray] = {}
            for node in record_nodes:
                canon = canon_of[node]
                if canon == GROUND:
                    voltages[node] = np.zeros_like(time)
                    continue
                voltages[node] = np.array(plot.vector(canon), dtype=float)
            currents = self._source_currents(plot, circuit, info)
        stats = TransientStats(grid_points=len(time),
                               steps_taken=len(time) - 1)
        return TransientResult(time, voltages,
                               {n: np.asarray(v) for n, v in
                                currents.items()},
                               stats=stats)


def _reject_unknown(kwargs: Dict[str, object],
                    ignorable: Sequence[str]) -> None:
    """Internal-engine keywords are ignored; anything else is a typo."""
    unknown = sorted(set(kwargs) - set(ignorable))
    if unknown:
        raise BackendError(
            f"ngspice backend got unsupported option(s) {unknown}",
            context={"unknown": unknown, "ignorable": list(ignorable)})


def _read_tail(path: str, limit: int) -> str:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as stream:
            text = stream.read()
    except OSError:
        return ""
    return text[-limit:]
