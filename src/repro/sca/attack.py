"""End-to-end attack campaigns (the Fig. 6 pipeline).

One :class:`AttackCampaign` owns the full chain for one logic style:

1. synthesise the reduced AES (8 XOR2 key-addition gates feeding the
   S-box LUT) onto the style's library;
2. for each plaintext, reset the netlist to the discharged state, apply
   the key and plaintext bits, and event-simulate;
3. compose the supply-current trace for the style's power physics and
   push it through the measurement chain (noise + 1 µA quantisation);
4. run CPA (and optionally classic DPA) with the Hamming-weight-of-
   S-box-output model over all 256 guesses.

Trace acquisition goes through :mod:`repro.sca.acquisition`: noise is
keyed by campaign-global trace index, so campaigns checkpoint and
resume without changing a byte of the result.

The paper's outcome to reproduce: **CMOS breaks, MCML and PG-MCML do
not** — the black line of Fig. 6 stays inside the grey cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cells import Library, preflight_library
from ..errors import AttackError
from ..spice.erc import erc_enabled
from ..netlist import GateNetlist
from ..obs import NULL_TELEMETRY
from ..power import MeasurementChain, TraceGrid
from ..synth import map_lut, sbox_truth_tables
from ..synth.buffering import buffer_high_fanout
from ..power.preprocess import standardize
from .acquisition import AcquisitionPool, TraceAcquirer
from .cpa import CPAResult, cpa_attack
from .dpa import DPAResult, multibit_dpa_attack


def build_reduced_aes(library: Library,
                      share_outputs: Optional[bool] = None) -> Tuple[
                          GateNetlist, List[str]]:
    """Key addition + S-box on one byte, mapped onto ``library``.

    Inputs are ``p0..p7`` (plaintext, MSB first) and ``k0..k7`` (key);
    returns the netlist and the 8 output net names.
    """
    if share_outputs is None:
        share_outputs = library.style in ("mcml", "pgmcml", "wddl")
    nl = GateNetlist(f"reduced_aes_{library.style}", library)
    xored: Dict[str, str] = {}
    for bit in range(8):
        p, k = f"p{bit}", f"k{bit}"
        nl.add_primary_input(p)
        nl.add_primary_input(k)
        out = nl.new_net(f"ark{bit}_")
        nl.add_instance("XOR2", {"A": p, "B": k, "Y": out.name},
                        name=f"uark{bit}")
        xored[f"x{bit}"] = out.name
    block = map_lut(library, sbox_truth_tables(),
                    [f"x{i}" for i in range(8)], netlist=nl,
                    input_nets=xored, share_outputs=share_outputs)
    outputs = [block.outputs[f"y{b}"] for b in range(8)]
    for net in outputs:
        nl.add_primary_output(net)
    buffer_high_fanout(nl, max_fanout=6)
    return nl, outputs


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    style: str
    key: int
    plaintexts: List[int]
    traces: np.ndarray
    cpa: CPAResult
    dpa: Optional[DPAResult] = None

    @property
    def succeeded(self) -> bool:
        return bool(self.cpa.succeeded)

    @property
    def rank(self) -> float:
        return self.cpa.rank_of_true_key()

    def summary(self) -> str:
        outcome = "KEY RECOVERED" if self.succeeded else "attack failed"
        return (f"{self.style.upper()}: {outcome} "
                f"(true-key rank {self.rank}, "
                f"peak rho {self.cpa.peak_per_guess[self.key]:.4f}, "
                f"best wrong "
                f"{np.delete(self.cpa.peak_per_guess, self.key).max():.4f})")


class AttackCampaign:
    """A reusable attack pipeline for one library."""

    def __init__(self, library: Library, key: int,
                 chain: Optional[MeasurementChain] = None,
                 mismatch_seed: int = 0, telemetry=None,
                 erc: Optional[bool] = None):
        if not 0 <= key <= 0xFF:
            raise AttackError(f"key byte out of range: {key}")
        self.library = library
        self.key = key
        self.chain = chain if chain is not None else MeasurementChain()
        self.mismatch_seed = mismatch_seed
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # ERC preflight of the library's transistor templates: reject a
        # mis-generated netlist in milliseconds, not hours into the
        # acquisition.  `erc=False` or REPRO_ERC=off opts out.
        if erc if erc is not None else erc_enabled():
            preflight_library(library, telemetry=self.telemetry)
        self.netlist, self.output_nets = build_reduced_aes(library)

    def fingerprint(self) -> Dict[str, object]:
        """JSON-serialisable identity of this campaign's trace function.

        Keys the stored chunks of a :meth:`run` given a ``runner``:
        equal fingerprints guarantee byte-identical traces for equal
        plaintext slices.  The library digest tells corners and tail
        currents apart, which share a style and may share a name.
        """
        return {"experiment": "cpa-campaign",
                "style": self.library.style,
                "library": self.library.digest(),
                "key": self.key,
                "mismatch_seed": self.mismatch_seed,
                "noise": self.chain.fingerprint()}

    def run(self, plaintexts: Optional[Sequence[int]] = None,
            with_dpa: bool = False,
            grid: Optional[TraceGrid] = None,
            runner=None) -> CampaignResult:
        """Collect traces and attack.

        Defaults to all 256 plaintexts — the exhaustive enumeration the
        paper uses.

        ``runner``, when given, is a
        :class:`repro.experiments.runner.CheckpointedRun` (duck-typed to
        keep this layer free of experiment imports): each acquired chunk
        is stored under this campaign's fingerprint, and a killed
        campaign restarted on the same store acquires only the chunks it
        lacks.  Noise is keyed by trace index, so resumed acquisition
        is byte-identical to an uninterrupted run; a different library,
        seeding scheme, entropy or grid keys different chunks and reuses
        nothing.
        """
        pts = list(plaintexts) if plaintexts is not None else list(range(256))
        tele = self.telemetry
        with tele.span("sca.campaign", style=self.library.style,
                       key=self.key, n_traces=len(pts),
                       checkpointed=runner is not None):
            pool = AcquisitionPool(
                TraceAcquirer(self.netlist, self.key, chain=self.chain,
                              grid=grid, mismatch_seed=self.mismatch_seed),
                telemetry=tele)
            if runner is None:
                traces = pool.acquire(pts)
            else:
                fingerprint = self.fingerprint()
                if grid is not None:
                    fingerprint["grid"] = [grid.t0, grid.t1, grid.dt]
                traces = runner.run(pts, pool.acquire,
                                    fingerprint=fingerprint)
            return self._attack(pts, traces, with_dpa)

    def _attack(self, pts: List[int], traces: np.ndarray,
                with_dpa: bool) -> CampaignResult:
        with self.telemetry.span("sca.cpa", n_traces=len(pts),
                                 with_dpa=with_dpa) as span:
            cpa = cpa_attack(traces, pts, true_key=self.key)
            dpa = None
            if with_dpa:
                # Classic DoM needs per-sample standardisation on targets
                # with nonuniform switching variance; the multi-bit variant
                # is the strongest DoM form (see repro.sca.dpa).
                dpa = multibit_dpa_attack(standardize(traces), pts,
                                          true_key=self.key)
            span.set("succeeded", bool(cpa.succeeded))
            span.set("rank", float(cpa.rank_of_true_key()))
            span.set("tie_width", cpa.best_guess_tie_width())
        return CampaignResult(style=self.library.style, key=self.key,
                              plaintexts=pts, traces=traces, cpa=cpa,
                              dpa=dpa)
