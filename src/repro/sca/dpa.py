"""Classic difference-of-means DPA (Kocher, Jaffe, Jun — CRYPTO '99).

The attack the paper's title is named after: partition traces by one
predicted bit of the S-box output and subtract the partition means; the
correct key guess shows a bias spike where wrong guesses average out.
Kept alongside CPA because the two attacks have different statistical
power — the resistance claim should (and does) hold for both.

Both attacks here are one difference-of-means kernel: the classic
single-bit DPA partitions on ``target_bit`` alone, Messerges' multi-bit
DPA sums the signed differentials of all eight S-box output bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..aes.sbox import SBOX
from ..errors import AttackError
from .leakage import check_traces, flat_columns
from .ranking import KeyRanking


@dataclass(repr=False)
class DPAResult(KeyRanking):
    """Outcome of one difference-of-means attack (``target_bit`` -1 for
    the multi-bit form)."""

    differentials: np.ndarray   # (256, n_samples)
    target_bit: int
    true_key: Optional[int] = None

    @property
    def peak_per_guess(self) -> np.ndarray:
        return np.abs(self.differentials).max(axis=1)


def _difference_of_means(traces: np.ndarray, plaintexts: Sequence[int],
                         bits: Iterable[int]) -> np.ndarray:
    """(256, n_samples) sum over ``bits`` of the per-guess differential
    ``mean(traces | bit set) - mean(traces | bit clear)``.

    ``np.mean`` sums from +0.0, so a differential is never -0.0 and the
    one-bit sum equals the differential itself byte for byte.  A
    column every trace holds at one level scores 0.0 (see
    :func:`~repro.sca.leakage.flat_columns`).
    """
    traces, pts = check_traces(traces, plaintexts)
    sbox = np.asarray(SBOX, dtype=np.int64)
    accumulated = np.zeros((256, traces.shape[1]))
    for guess in range(256):
        hyp = sbox[pts ^ guess]
        for bit in bits:
            mask = ((hyp >> bit) & 1) == 1
            if not mask.any() or mask.all():
                continue  # degenerate partition: no information from it
            accumulated[guess] += (traces[mask].mean(axis=0)
                                   - traces[~mask].mean(axis=0))
    accumulated[:, flat_columns(traces)] = 0.0
    return accumulated


def dpa_attack(traces: np.ndarray, plaintexts: Sequence[int],
               target_bit: int = 0,
               true_key: Optional[int] = None) -> DPAResult:
    """Single-bit difference-of-means over all 256 guesses."""
    if not 0 <= target_bit <= 7:
        raise AttackError(f"target bit out of range: {target_bit}")
    return DPAResult(
        differentials=_difference_of_means(traces, plaintexts,
                                           (target_bit,)),
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
    return DPAResult(
        differentials=_difference_of_means(traces, plaintexts, range(8)),
        target_bit=-1, true_key=true_key)
