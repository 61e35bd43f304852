"""Correlation power analysis (Brier, Clavier, Olivier — CHES 2004).

For every key guess, Pearson-correlate the hypothesis vector (one value
per trace) against every time sample of the trace matrix; the correct
key shows the largest |rho| at the samples where the predicted
intermediate is being computed.  Fig. 6 of the paper plots exactly these
per-guess correlation traces.

The hypothesis is a function of the plaintext byte alone, so
:func:`cpa_attack` gathers its (256, n) matrix from one precomputed
256 x 256 Hamming-weight table
(:func:`~repro.sca.leakage.all_guess_hypotheses`) instead of calling
the model once per guess on every MTD or evolution prefix.  The
gathered matrix equals the stack of 256
:func:`~repro.sca.leakage.hw_model` rows byte for byte, so ``rho``
does too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import AttackError
from .leakage import all_guess_hypotheses, flat_columns
from .ranking import KeyRanking


def correlation_matrix(traces: np.ndarray,
                       hypotheses: np.ndarray) -> np.ndarray:
    """Pearson correlation of each hypothesis row with each time sample.

    ``traces`` is (n_traces, n_samples); ``hypotheses`` is
    (n_guesses, n_traces).  Returns (n_guesses, n_samples).  Constant
    columns yield zero correlation rather than NaN or a score of their
    rounding residue (see :func:`~repro.sca.leakage.flat_columns`) — a
    quantised flat trace must read as "no information", not an error.
    """
    traces = np.asarray(traces, dtype=float)
    hypotheses = np.asarray(hypotheses, dtype=float)
    if traces.ndim != 2 or hypotheses.ndim != 2:
        raise AttackError("traces and hypotheses must be 2-D")
    if traces.shape[0] != hypotheses.shape[1]:
        raise AttackError(
            f"trace count mismatch: {traces.shape[0]} traces vs "
            f"{hypotheses.shape[1]} hypothesis entries")
    t_centered = traces - traces.mean(axis=0, keepdims=True)
    h_centered = hypotheses - hypotheses.mean(axis=1, keepdims=True)
    t_norm = np.sqrt((t_centered ** 2).sum(axis=0))
    t_norm[flat_columns(traces)] = 0.0
    h_norm = np.sqrt((h_centered ** 2).sum(axis=1))
    cov = h_centered @ t_centered  # (guesses, samples)
    denom = np.outer(h_norm, t_norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(denom > 0.0, cov / denom, 0.0)
    return rho


@dataclass(repr=False)
class CPAResult(KeyRanking):
    """Outcome of one CPA attack."""

    rho: np.ndarray            # (256, n_samples)
    true_key: Optional[int] = None

    @property
    def peak_per_guess(self) -> np.ndarray:
        """max |rho| over time for each guess — the Fig. 6 ranking."""
        return np.abs(self.rho).max(axis=1)

    def distinguishability(self) -> float:
        """Peak margin of the true key over the best wrong guess.

        > 1 means the black line of Fig. 6 stands above the grey cloud;
        <= 1 means it is buried (the paper's MCML/PG-MCML picture).
        """
        if self.true_key is None:
            raise AttackError("true key unknown")
        peaks = self.peak_per_guess
        others = np.delete(peaks, self.true_key)
        best_other = float(others.max())
        if best_other == 0.0:
            return float("inf") if peaks[self.true_key] > 0 else 1.0
        return float(peaks[self.true_key] / best_other)


def cpa_attack(traces: np.ndarray, plaintexts: Sequence[int],
               true_key: Optional[int] = None) -> CPAResult:
    """Run CPA with the Hamming-weight model over all 256 key guesses."""
    rho = correlation_matrix(traces, all_guess_hypotheses(plaintexts))
    return CPAResult(rho=rho, true_key=true_key)
