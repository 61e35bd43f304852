"""Classic difference-of-means DPA (Kocher, Jaffe, Jun — CRYPTO '99).

The attack the paper's title is named after: partition traces by one
predicted bit of the S-box output and subtract the partition means; the
correct key guess shows a bias spike where wrong guesses average out.
Kept alongside CPA because the two attacks have different statistical
power — the resistance claim should (and does) hold for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..aes.sbox import SBOX
from ..errors import AttackError
from .leakage import check_bytes
from .ranking import tie_aware_rank, tie_width


@dataclass
class DPAResult:
    """Outcome of one difference-of-means attack."""

    differentials: np.ndarray   # (256, n_samples)
    best_guess: int
    target_bit: int
    true_key: Optional[int] = None

    @property
    def peak_per_guess(self) -> np.ndarray:
        return np.abs(self.differentials).max(axis=1)

    @property
    def succeeded(self) -> Optional[bool]:
        if self.true_key is None:
            return None
        return self.best_guess == self.true_key

    def rank_of_true_key(self) -> float:
        """Tie-aware rank: ties count at their midpoint, so a flat
        differential set ranks 127.5 regardless of the key byte."""
        if self.true_key is None:
            raise AttackError("true key unknown")
        return tie_aware_rank(self.peak_per_guess, self.true_key)

    def best_guess_tie_width(self) -> int:
        """Guesses sharing the winning differential peak (argmax ties)."""
        return tie_width(self.peak_per_guess)

    def __repr__(self) -> str:
        status = ""
        if self.true_key is not None:
            status = (", SUCCESS" if self.succeeded
                      else f", rank {self.rank_of_true_key()}")
        return f"DPAResult(best={self.best_guess:#04x}{status})"


def dpa_attack(traces: np.ndarray, plaintexts: Sequence[int],
               target_bit: int = 0,
               true_key: Optional[int] = None) -> DPAResult:
    """Single-bit difference-of-means over all 256 guesses."""
    if not 0 <= target_bit <= 7:
        raise AttackError(f"target bit out of range: {target_bit}")
    traces = np.asarray(traces, dtype=float)
    pts = check_bytes(plaintexts)
    if traces.shape[0] != pts.size:
        raise AttackError("trace/plaintext count mismatch")
    sbox = np.asarray(SBOX, dtype=np.int64)
    n_samples = traces.shape[1]
    differentials = np.zeros((256, n_samples))
    for guess in range(256):
        bit = (sbox[pts ^ guess] >> target_bit) & 1
        ones = bit == 1
        zeros = ~ones
        if not ones.any() or not zeros.any():
            continue  # degenerate partition: no information from this guess
        differentials[guess] = traces[ones].mean(axis=0) - \
            traces[zeros].mean(axis=0)
    best = int(np.abs(differentials).max(axis=1).argmax())
    return DPAResult(differentials=differentials, best_guess=best,
                     target_bit=target_bit, true_key=true_key)


def multibit_dpa_attack(traces: np.ndarray, plaintexts: Sequence[int],
                        true_key: Optional[int] = None) -> DPAResult:
    """Generalised (all-bits) difference-of-means.

    Messerges' multi-bit DPA: run the single-bit partition for every
    S-box output bit and accumulate the *signed* differentials.  In a
    charge-per-one CMOS target every bit's differential points the same
    way at the leak sample, so the eight weak distinguishers add
    coherently while partition noise cancels — this is what lifts
    classic DoM from "marginal at 256 traces" to a clean break, while
    MCML/PG-MCML still give it nothing to vote on.
    """
    traces = np.asarray(traces, dtype=float)
    pts = check_bytes(plaintexts)
    if traces.shape[0] != pts.size:
        raise AttackError("trace/plaintext count mismatch")
    sbox = np.asarray(SBOX, dtype=np.int64)
    accumulated = np.zeros((256, traces.shape[1]))
    for guess in range(256):
        hyp = sbox[pts ^ guess]
        for bit in range(8):
            mask = ((hyp >> bit) & 1) == 1
            if not mask.any() or mask.all():
                continue
            accumulated[guess] += (traces[mask].mean(axis=0)
                                   - traces[~mask].mean(axis=0))
    best = int(np.abs(accumulated).max(axis=1).argmax())
    return DPAResult(differentials=accumulated, best_guess=best,
                     target_bit=-1, true_key=true_key)
