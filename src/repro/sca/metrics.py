"""Attack-evaluation metrics.

The community-standard quantities for comparing countermeasures: key
rank after N traces, guessing entropy (average rank over campaigns),
success rate, and measurements-to-disclosure (MTD) — the smallest trace
count at which the attack stabilises on the correct key.

Every verdict here uses the one success rule of
:class:`repro.sca.ranking.KeyRanking`: the true key must hold the top
score alone (tie-aware rank 0.0), so a flat or tied score vector never
counts as a recovery, whatever the key byte.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import AttackError
from .cpa import CPAResult, cpa_attack
from .leakage import check_traces
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
    """Fraction of campaigns where the true key ranks within ``order``.

    A campaign counts at order ``o`` only when its tie-aware rank is at
    most ``o - 1``.  At order 1 that is the success rule of
    :class:`~repro.sca.ranking.KeyRanking`: a true key tied with one
    other guess at the top (rank 0.5) has not been recovered.
    """
    ranks_arr = np.asarray(ranks, dtype=float)
    if ranks_arr.size == 0:
        raise AttackError("no ranks supplied")
    if order < 1:
        raise AttackError("order must be >= 1")
    return float((ranks_arr <= order - 1).mean())


def prefix_cpa(traces: np.ndarray, plaintexts: Sequence[int],
               true_key: int, step: int) -> Iterator[Tuple[int, CPAResult]]:
    """``(n, CPA on the first n traces)`` every ``step`` traces.

    The full trace set is always evaluated last, even when it is not a
    multiple of ``step``: fewer traces than one step must still run CPA
    once, not silently report "never disclosed".
    """
    traces, pts = check_traces(traces, plaintexts)
    total = traces.shape[0]
    counts = list(range(step, total + 1, step))
    if not counts or counts[-1] != total:
        counts.append(total)
    for n in counts:
        yield n, cpa_attack(traces[:n], pts[:n], true_key=true_key)


def mtd(traces: np.ndarray, plaintexts: Sequence[int], true_key: int,
        step: int = 16, stable_windows: int = 3) -> Optional[int]:
    """Measurements to disclosure.

    Re-runs CPA on growing prefixes of the trace set (every ``step``
    traces, see :func:`prefix_cpa`) and returns the smallest count from
    which the attack succeeds — the true key alone at rank 0 — for
    ``stable_windows`` consecutive evaluations, or ``None`` if it never
    stabilises within the available traces (the protected-logic
    outcome).
    """
    if step < 1:
        raise AttackError("step must be positive")
    streak = 0
    candidate: Optional[int] = None
    for n, result in prefix_cpa(traces, plaintexts, true_key, step):
        if result.succeeded:
            if streak == 0:
                candidate = n
            streak += 1
            if streak >= stable_windows:
                return candidate
        else:
            streak = 0
            candidate = None
    return None
