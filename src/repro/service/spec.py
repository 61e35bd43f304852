"""Campaign job specs: the unit of work the service schedules.

A :class:`CampaignJobSpec` is a fully self-describing, JSON-round-
trippable recipe for one traceset campaign.  Workers are stateless —
every process that holds a spec (and the repo's code) reconstructs the
same netlist, the same measurement chain, the same plaintext schedule
and the same mismatch die, so a chunk computed on any host at any time
is byte-identical to the serial oracle.

The derivations are shared with :mod:`repro.sca.matrix`
(:func:`~repro.sca.matrix.derive_plaintexts` and friends), which is
what lets :func:`expand_matrix` shard a whole attack × countermeasure
grid's acquisitions across hosts while every cell still consumes the
exact bytes an in-process :func:`~repro.sca.matrix.run_matrix` would
have composed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import JobSpecError, ReproError
from ..power import MeasurementChain
from ..sca.matrix import (
    MatrixSpec,
    STYLE_BUILDERS,
    derive_chain_seed,
    derive_mismatch_seed,
    derive_plaintexts,
)
from ..tech import corner as lookup_corner

#: Plaintext disciplines a job may request (mirrors the matrix).
SCHEDULES = ("random", "tvla")

#: Fingerprint format version: bump when anything about how a spec maps
#: to trace bytes changes, so stale result-store entries can never be
#: mistaken for current ones.
FINGERPRINT_KIND = "campaign-traceset-v1"

#: Default traces per chunk (the lease/checkpoint granularity).
DEFAULT_CHUNK_SIZE = 32


def canonical_json(payload) -> str:
    """The one serialisation both job ids and store keys hash."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CampaignJobSpec:
    """One traceset campaign, chunked for distribution.

    Parameters mirror one :class:`~repro.sca.matrix.MatrixCell`
    traceset coordinate plus the chunking discipline.  ``repeat`` is
    the die index: it selects the Pelgrom mismatch sample and the noise
    entropy, exactly as a grid repeat does.
    """

    style: str
    budget: int
    key: int = 0x3C
    noise: float = 5e-7
    corner: str = "tt"
    schedule: str = "random"
    repeat: int = 0
    base_seed: int = 1234
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        if self.style not in STYLE_BUILDERS:
            known = ", ".join(sorted(STYLE_BUILDERS))
            raise JobSpecError(
                f"unknown style {self.style!r}; known: {known}")
        if self.schedule not in SCHEDULES:
            raise JobSpecError(
                f"unknown schedule {self.schedule!r}; "
                f"choose from {SCHEDULES}")
        try:
            lookup_corner(self.corner)
        except ReproError as exc:
            raise JobSpecError(f"unknown corner {self.corner!r}: {exc}")
        if not isinstance(self.budget, int) or self.budget < 8:
            raise JobSpecError(f"trace budget too small: {self.budget}")
        if self.schedule == "tvla" and self.budget % 2 != 0:
            raise JobSpecError(
                f"TVLA budget must be even; got {self.budget}")
        if not 0 <= self.key <= 0xFF:
            raise JobSpecError(f"key byte out of range: {self.key}")
        if self.noise < 0.0:
            raise JobSpecError("noise sigma must be non-negative")
        if self.repeat < 0:
            raise JobSpecError(f"repeat must be >= 0: {self.repeat}")
        if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
            raise JobSpecError(f"chunk_size must be >= 1: {self.chunk_size}")

    # -- derivations (shared with the matrix grid) ------------------------

    def trace_key(self) -> Tuple:
        """The matrix dedupe coordinate this spec corresponds to."""
        return (self.style, self.corner, self.noise, self.budget,
                self.schedule, self.repeat)

    def plaintexts(self) -> List[int]:
        return derive_plaintexts(self.base_seed, self.style, self.corner,
                                 self.budget, self.schedule, self.repeat)

    def chain(self) -> MeasurementChain:
        return MeasurementChain(
            noise_sigma=self.noise,
            seed=derive_chain_seed(self.base_seed, self.trace_key()))

    def mismatch_seed(self) -> int:
        return derive_mismatch_seed(self.base_seed, self.style,
                                    self.corner, self.repeat)

    # -- chunking ---------------------------------------------------------

    @property
    def n_chunks(self) -> int:
        return -(-self.budget // self.chunk_size)

    def chunk_bounds(self, index: int) -> Tuple[int, int]:
        """Campaign-global ``[start, stop)`` trace indices of a chunk."""
        if not 0 <= index < self.n_chunks:
            raise JobSpecError(
                f"chunk index {index} out of range for {self.n_chunks} "
                f"chunks", context={"chunk": index,
                                    "n_chunks": self.n_chunks})
        start = index * self.chunk_size
        return start, min(start + self.chunk_size, self.budget)

    def chunk_plaintexts(self, index: int) -> List[int]:
        start, stop = self.chunk_bounds(index)
        return self.plaintexts()[start:stop]

    # -- identity ---------------------------------------------------------

    def fingerprint(self) -> Dict:
        """Everything that determines the trace bytes of every chunk.

        The content-addressed result store keys on
        ``(fingerprint, chunk index)``; two specs with equal
        fingerprints are the *same work*, which is what makes duplicate
        submission and crash replay dedupe to cache hits.
        """
        return {
            "kind": FINGERPRINT_KIND,
            "style": self.style,
            "corner": self.corner,
            "noise": float(self.noise),
            "budget": self.budget,
            "key": self.key,
            "schedule": self.schedule,
            "repeat": self.repeat,
            "base_seed": self.base_seed,
            "chunk_size": self.chunk_size,
            "noise_scheme": MeasurementChain.SCHEME,
        }

    @property
    def job_id(self) -> str:
        """Stable id derived from the fingerprint: resubmitting an
        identical spec addresses the same job (submission dedupe)."""
        digest = hashlib.sha256(
            canonical_json(self.fingerprint()).encode()).hexdigest()
        return f"job-{digest[:16]}"

    # -- worker-side construction ----------------------------------------

    def build_acquirer(self, telemetry=None, activity=None):
        """The heavy part: library → netlist → acquirer.

        Runs on the worker (stateless: nothing but the spec crosses the
        process/host boundary).  Imported lazily so holding a spec —
        submitting, listing, gathering — never elaborates a netlist.
        ``activity`` is an :class:`~repro.sca.acquisition.ActivityMemo`
        of an earlier job on the same (style, corner, key): its netlist
        and simulated activity serve this job's die too, so nothing is
        rebuilt.
        """
        from ..cells import library_at_corner, preflight_library
        from ..spice.erc import erc_enabled
        from ..sca.acquisition import ActivityMemo, TraceAcquirer
        from ..sca.attack import build_reduced_aes

        if activity is None:
            base = STYLE_BUILDERS[self.style]()
            if erc_enabled():
                preflight_library(base, telemetry=telemetry)
            library = library_at_corner(base, lookup_corner(self.corner))
            netlist, _outputs = build_reduced_aes(library)
            activity = ActivityMemo(netlist, self.key)
        return TraceAcquirer(activity.netlist, self.key, chain=self.chain(),
                             mismatch_seed=self.mismatch_seed(),
                             activity=activity)

    # -- (de)serialisation ------------------------------------------------

    def to_dict(self) -> Dict:
        return {"style": self.style, "budget": self.budget,
                "key": self.key, "noise": self.noise,
                "corner": self.corner, "schedule": self.schedule,
                "repeat": self.repeat, "base_seed": self.base_seed,
                "chunk_size": self.chunk_size}

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignJobSpec":
        if not isinstance(data, dict):
            raise JobSpecError("job spec must be a JSON object")
        known = {"style", "budget", "key", "noise", "corner", "schedule",
                 "repeat", "base_seed", "chunk_size"}
        extra = set(data) - known
        if extra:
            raise JobSpecError(
                f"unknown job spec keys: {', '.join(sorted(extra))}")
        if "style" not in data or "budget" not in data:
            missing = {"style", "budget"} - set(data)
            raise JobSpecError(
                f"job spec missing keys: {', '.join(sorted(missing))}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise JobSpecError(f"bad job spec: {exc}")

    @classmethod
    def from_json(cls, path: str) -> "CampaignJobSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise JobSpecError(f"cannot load job spec {path!r}: {exc}")
        return cls.from_dict(data)


def expand_matrix(spec: MatrixSpec,
                  chunk_size: int = DEFAULT_CHUNK_SIZE
                  ) -> List[CampaignJobSpec]:
    """One campaign job per unique traceset of a grid.

    The expansion applies the same dedupe the in-process grid runner
    does — cells sharing ``(style, corner, noise, budget, schedule,
    repeat)`` share one acquisition — so an N-attack grid submits one
    job per physical trace set, not per cell.  Gathered job results are
    byte-identical to what :func:`~repro.sca.matrix.run_matrix` would
    have acquired for the same spec.
    """
    jobs: List[CampaignJobSpec] = []
    seen = set()
    for cell in spec.expand():
        for repeat in range(spec.repeats):
            key = cell.trace_key(repeat)
            if key in seen:
                continue
            seen.add(key)
            jobs.append(CampaignJobSpec(
                style=cell.style, budget=cell.budget, key=spec.key,
                noise=cell.noise, corner=cell.corner,
                schedule=cell.schedule, repeat=repeat,
                base_seed=spec.base_seed, chunk_size=chunk_size))
    return jobs
