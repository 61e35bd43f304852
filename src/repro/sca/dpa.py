"""Classic difference-of-means DPA (Kocher, Jaffe, Jun — CRYPTO '99).

The attack the paper's title is named after: partition traces by one
predicted bit of the S-box output and subtract the partition means; the
correct key guess shows a bias spike where wrong guesses average out.
Kept alongside CPA because the two attacks have different statistical
power — the resistance claim should (and does) hold for both.

Both attacks here are one difference-of-means kernel: the classic
single-bit DPA partitions on ``target_bit`` alone, Messerges' multi-bit
DPA sums the signed differentials of all eight S-box output bits.  A
partition is a function of the plaintext byte, so the kernel works on
per-byte counts and sums (at most 256 rows) instead of the trace matrix
once per guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import AttackError
from .leakage import SBOX_OUTPUTS, check_traces, class_sums, flat_columns
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

    A guess's partition depends on the plaintext byte alone, so the
    kernel reads :func:`~repro.sca.leakage.class_sums` once and gets,
    per bit, every guess's set count and set sum as products of that
    bit of :data:`~repro.sca.leakage.SBOX_OUTPUTS` (guesses x present
    bytes) with the class counts and sums; the clear side is the total
    minus the set side.  A degenerate partition (no trace set, or every
    trace) adds exactly 0, and a column every trace holds at one level
    scores 0.0 (see :func:`~repro.sca.leakage.flat_columns`).  The
    accumulation starts from +0.0, so no score is -0.0.
    """
    traces, pts = check_traces(traces, plaintexts)
    present, counts, sums = class_sums(traces, pts)
    n = pts.size
    total = sums.sum(axis=0)
    predicted = SBOX_OUTPUTS[:, present]
    accumulated = np.zeros((256, traces.shape[1]))
    for bit in bits:
        table = ((predicted >> bit) & 1).astype(float)
        n_set = (table @ counts)[:, None]
        set_mean = table @ sums
        clear_mean = total - set_mean
        # In place, so a bit holds two (256, n_samples) temporaries.
        with np.errstate(divide="ignore", invalid="ignore"):
            set_mean /= n_set
            clear_mean /= n - n_set
        set_mean -= clear_mean
        set_mean[((n_set == 0) | (n_set == n))[:, 0]] = 0.0
        accumulated += set_mean
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
