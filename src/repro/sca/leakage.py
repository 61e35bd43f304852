"""Leakage models.

The attacker's hypothesis function: given a plaintext byte and a key
guess, predict a number proportional to the power the device should
draw.  §6 uses "the Hamming weight of the S-box output" (after Brier et
al.); the Hamming-distance variant is provided for register-based
targets and for the ablation studies.

Every model and attack checks its bytes through :func:`check_bytes`:
an index outside 0..255 would otherwise wrap around the S-box (a
negative byte) or escape as a bare ``IndexError``.  Attacks that take a
trace matrix check it against its plaintexts through
:func:`check_traces`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..aes.sbox import SBOX
from ..errors import AttackError

_HW_TABLE = np.array([bin(x).count("1") for x in range(256)], dtype=np.int64)
_SBOX = np.asarray(SBOX, dtype=np.int64)
_BYTES = np.arange(256, dtype=np.int64)

#: ``SBOX[p ^ k]`` at ``[k, p]``: row ``k`` is key guess ``k``'s
#: predicted S-box output for every plaintext byte.
SBOX_OUTPUTS = _SBOX[_BYTES[:, None] ^ _BYTES].astype(np.uint8)

#: HW(SBOX[p ^ k]) at ``[k, p]``: row ``k`` is key guess ``k``'s
#: hypothesis for every plaintext byte.  Equal to :func:`hw_model`
#: entry for entry (both are small integers in float64).
_HW_HYPOTHESES = _HW_TABLE[SBOX_OUTPUTS].astype(float)


def check_bytes(plaintexts: Sequence[int], key_guess: int = 0) -> np.ndarray:
    """Plaintext bytes as an int64 array, checked for a byte-wide attack.

    Raises :class:`AttackError` for an empty batch, a plaintext byte
    outside 0..255, or a key guess outside 0..255.  Attacks that try
    every guess leave ``key_guess`` at its in-range default.
    """
    if not 0 <= key_guess <= 0xFF:
        raise AttackError(f"key guess out of range: {key_guess}")
    pts = np.asarray(plaintexts, dtype=np.int64)
    if pts.size == 0:
        raise AttackError("no plaintexts")
    if pts.min() < 0 or pts.max() > 0xFF:
        raise AttackError("plaintext bytes out of range")
    return pts


def check_traces(traces: np.ndarray, plaintexts: Sequence[int],
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Traces as a float (n_traces, n_samples) matrix and their
    :func:`check_bytes`-checked plaintexts, one byte per trace row."""
    traces = np.asarray(traces, dtype=float)
    pts = check_bytes(plaintexts)
    if traces.ndim != 2:
        raise AttackError("traces must be 2-D (n_traces, n_samples)")
    if traces.shape[0] != pts.size:
        raise AttackError(
            f"trace/plaintext count mismatch: {traces.shape[0]} traces vs "
            f"{pts.size} plaintexts")
    return traces, pts


def class_sums(traces: np.ndarray, pts: np.ndarray,
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-plaintext-byte sufficient statistics of a trace matrix.

    Returns ``(present, counts, sums)``: the plaintext bytes that occur
    (ascending), how many traces carry each, and the column sums of
    those traces, one row per present byte.  Every first-order
    hypothesis is a function of the byte alone, so an attack that needs
    only per-class means reads them from here: at most 256 rows,
    whatever the trace count.  The rows of one class are added in trace
    order, so integer-valued traces sum exactly.
    """
    counts = np.bincount(pts, minlength=256)
    present = np.flatnonzero(counts)
    counts = counts[present]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    order = np.argsort(pts, kind="stable")
    return present, counts, np.add.reduceat(traces[order], starts, axis=0)


def flat_columns(traces: np.ndarray) -> np.ndarray:
    """Per sample, whether every trace holds the same value there.

    Such a column carries no information about any key, whatever its
    level.  Its computed variance need not be zero: the mean of 37
    copies of 0.1 misses 0.1 by an ulp, so centring leaves rounding
    residue that an attack would rank.  The attacks score these
    columns zero by this mask instead.
    """
    return (traces == traces[:1]).all(axis=0)


def hamming_weight(value: int) -> int:
    """Number of set bits of a byte (or any non-negative int)."""
    if value < 0:
        raise AttackError("Hamming weight of a negative value")
    return int(bin(value).count("1"))


def hamming_distance(a: int, b: int) -> int:
    """Bits that differ between two values."""
    return hamming_weight(a ^ b)


def hw_model(plaintexts: Sequence[int], key_guess: int) -> np.ndarray:
    """HW(SBOX[p ^ k]) for every plaintext — the paper's power model."""
    pts = check_bytes(plaintexts, key_guess)
    return _HW_TABLE[_SBOX[pts ^ key_guess]].astype(float)


def hd_model(plaintexts: Sequence[int], key_guess: int,
             reference: int = 0x00) -> np.ndarray:
    """HD(SBOX[p ^ k], reference) — register-overwrite leakage."""
    if not 0 <= reference <= 0xFF:
        raise AttackError(f"reference byte out of range: {reference}")
    pts = check_bytes(plaintexts, key_guess)
    return _HW_TABLE[_SBOX[pts ^ key_guess] ^ reference].astype(float)


def all_guess_hypotheses(plaintexts: Sequence[int]) -> np.ndarray:
    """(256, n_traces) Hamming-weight hypothesis matrix over every key
    guess, gathered from the precomputed table.

    ``np.take`` returns it in C order, as a ``np.vstack`` of per-guess
    :func:`hw_model` rows is; a ``[:, pts]`` gather would come out
    Fortran-ordered, which changes the summation order, and so the
    bytes, of the correlations computed from it.
    """
    return np.take(_HW_HYPOTHESES, check_bytes(plaintexts), axis=1)
