"""Attack-evaluation metrics.

The community-standard quantities for comparing countermeasures: key
rank after N traces, guessing entropy (average rank over campaigns),
success rate, and measurements-to-disclosure (MTD) — the smallest trace
count at which the attack stabilises on the correct key.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import AttackError
from .cpa import cpa_attack
from .ranking import tie_aware_rank


def key_rank(peaks: Sequence[float], true_key: int) -> float:
    """Rank of the true key in a per-guess score vector (0.0 = best).

    Tied scores rank at the midpoint of their tie class, so the flat
    all-equal vector a protected library produces ranks every guess —
    including the true key — at 127.5 instead of at its own byte value
    (a stable argsort would report ``true_key`` itself there, biasing
    guessing entropy by the key).
    """
    scores = np.asarray(peaks, dtype=float)
    if scores.size != 256:
        raise AttackError("expected one score per key guess (256)")
    if not 0 <= true_key <= 0xFF:
        raise AttackError("true key out of range")
    return tie_aware_rank(scores, true_key)


def guessing_entropy(ranks: Sequence[float]) -> float:
    """Average rank over repeated attack campaigns."""
    ranks_arr = np.asarray(ranks, dtype=float)
    if ranks_arr.size == 0:
        raise AttackError("no ranks supplied")
    return float(ranks_arr.mean())


def success_rate(ranks: Sequence[float], order: int = 1) -> float:
    """Fraction of campaigns where the true key ranks within ``order``."""
    ranks_arr = np.asarray(ranks, dtype=float)
    if ranks_arr.size == 0:
        raise AttackError("no ranks supplied")
    if order < 1:
        raise AttackError("order must be >= 1")
    return float((ranks_arr < order).mean())


def mtd(traces: np.ndarray, plaintexts: Sequence[int], true_key: int,
        step: int = 16, stable_windows: int = 3) -> Optional[int]:
    """Measurements to disclosure.

    Re-runs CPA on growing prefixes of the trace set (every ``step``
    traces) and returns the smallest count from which the true key stays
    rank 0 for ``stable_windows`` consecutive evaluations — or ``None``
    if the attack never stabilises within the available traces (the
    protected-logic outcome).
    """
    traces = np.asarray(traces, dtype=float)
    pts = list(plaintexts)
    if traces.shape[0] != len(pts):
        raise AttackError("trace/plaintext count mismatch")
    if step < 1:
        raise AttackError("step must be positive")
    counts = list(range(step, traces.shape[0] + 1, step))
    if not counts or counts[-1] != traces.shape[0]:
        # Always evaluate the full trace set: fewer traces than one step
        # must still run CPA once, not silently report "never disclosed".
        counts.append(traces.shape[0])
    streak = 0
    candidate: Optional[int] = None
    for n in counts:
        result = cpa_attack(traces[:n], pts[:n], true_key=true_key)
        if result.best_guess == true_key:
            if streak == 0:
                candidate = n
            streak += 1
            if streak >= stable_windows:
                return candidate
        else:
            streak = 0
            candidate = None
    return None
