"""The measurement chain: noise and amplitude quantisation.

§6 records SPICE currents "using very high resolution both for current
(1 µA) and time (1 ps)".  A 1 µA amplitude floor is a *lot* of dynamic
range for a 30 mA block — but it is six orders of magnitude above the
sub-nA per-sample information carried by MCML mismatch residuals, so the
instrument itself is part of why the differential styles resist attack.
The chain applies, in order: additive Gaussian noise (probe/supply),
then uniform quantisation to the amplitude resolution.

Noise is **counter-based**: every trace's noise is drawn from its own
Philox generator keyed by ``(chain entropy, trace index)`` via
``np.random.SeedSequence(entropy, spawn_key=(index,))``.  Trace *i*
therefore sees the same noise whether the campaign runs serially,
split across worker processes, chunked for checkpointing, or resumed
after a kill — there is no shared mutable RNG state whose consumption
order could change the measured traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Union

import numpy as np

from ..errors import TraceError
from ..units import uA


@dataclass
class MeasurementChain:
    """A current probe with noise and finite resolution.

    Parameters
    ----------
    noise_sigma:
        RMS additive noise per sample, amperes.  Even a lab-grade setup
        shows µA-level supply noise on a multi-mA rail.
    resolution:
        Amplitude quantisation step, amperes (paper: 1 µA).  ``0``
        disables quantisation (an ideal probe).
    seed:
        Campaign entropy for the per-trace noise generators.  ``None``
        draws fresh entropy once at construction — the chain is still
        internally consistent (trace *i* always gets the same noise for
        this chain object) but cannot be reproduced by a new chain.
    """

    noise_sigma: float = uA(0.5)
    resolution: float = uA(1.0)
    seed: Optional[int] = 1234

    #: Identifies the per-trace seeding scheme.  Stored-chunk
    #: fingerprints embed it so chunks taken under one scheme are never
    #: served to a campaign under another.
    SCHEME: ClassVar[str] = "philox-per-trace-v1"

    def __post_init__(self) -> None:
        if self.noise_sigma < 0.0 or self.resolution < 0.0:
            raise TraceError("noise and resolution must be non-negative")
        entropy = self.seed if self.seed is not None else \
            np.random.SeedSequence().entropy
        self._entropy = int(entropy)
        self._next_index = 0

    def trace_rng(self, trace_index: int) -> np.random.Generator:
        """The noise generator for one trace, by campaign-global index.

        Deriving the generator from ``(entropy, trace_index)`` rather
        than from consumed stream position makes the noise a pure
        function of the index: any worker, in any order, reproduces it.
        """
        if trace_index < 0:
            raise TraceError(f"trace index must be >= 0: {trace_index}")
        sequence = np.random.SeedSequence(
            entropy=self._entropy, spawn_key=(int(trace_index),))
        return np.random.Generator(np.random.Philox(sequence))

    def measure(self, samples: np.ndarray,
                trace_index: Optional[int] = None) -> np.ndarray:
        """Push ideal current samples through the instrument.

        ``trace_index`` selects the counter-based noise generator; when
        omitted the chain's internal counter supplies the next index, so
        a plain sequential loop of ``measure`` calls is byte-identical
        to indexed acquisition of the same traces.  Indexed calls do not
        advance the counter (parallel workers never perturb each other).
        """
        measured = np.asarray(samples, dtype=float)
        if trace_index is None:
            trace_index = self._next_index
            self._next_index += 1
        if self.noise_sigma > 0.0:
            rng = self.trace_rng(trace_index)
            measured = measured + rng.normal(
                0.0, self.noise_sigma, size=measured.shape)
        if self.resolution > 0.0:
            measured = np.round(measured / self.resolution) * self.resolution
        return measured

    def measure_block(self, samples: np.ndarray,
                      first_index: int = 0) -> np.ndarray:
        """Measure a ``(B, n)`` block of traces at consecutive indices.

        Row ``i`` is byte-identical to ``measure(samples[i],
        trace_index=first_index + i)``: the noise stays per-trace
        (each row draws from its own Philox generator, exactly the
        draws the serial call would make), and only the instrument
        arithmetic — noise addition and amplitude quantisation — runs
        vectorised over the block.  Like indexed :meth:`measure` calls,
        a block does not advance the chain's internal counter.
        """
        measured = np.asarray(samples, dtype=float)
        if measured.ndim != 2:
            raise TraceError(
                f"measure_block expects a (traces, samples) block, "
                f"got shape {measured.shape}")
        if first_index < 0:
            raise TraceError(f"trace index must be >= 0: {first_index}")
        if self.noise_sigma > 0.0 and measured.shape[0]:
            noise = np.stack([
                self.trace_rng(first_index + i).normal(
                    0.0, self.noise_sigma, size=measured.shape[1])
                for i in range(measured.shape[0])])
            measured = measured + noise
        if self.resolution > 0.0:
            measured = np.round(measured / self.resolution) * self.resolution
        return measured

    def fingerprint(self) -> Dict[str, Union[str, float]]:
        """JSON-serialisable identity of the noise process.

        Checkpointed campaigns embed this in the key of every stored
        chunk: a different entropy, noise configuration or seeding
        scheme addresses different chunks, so two noise streams are
        never spliced.  The per-trace derivation makes any *state*
        round-trip unnecessary — the index alone reconstructs the
        stream.
        """
        return {"scheme": self.SCHEME, "entropy": str(self._entropy),
                "noise_sigma": float(self.noise_sigma),
                "resolution": float(self.resolution)}

    def ideal(self) -> "MeasurementChain":
        """The same chain with a perfect probe (for ablations)."""
        return MeasurementChain(noise_sigma=0.0, resolution=0.0,
                                seed=self.seed)
