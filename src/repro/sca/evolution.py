"""CPA evolution: correlation vs trace count.

The classic convergence plot of a CPA campaign — how the true key's
correlation and the wrong-key envelope evolve as traces accumulate.  On
a leaky target the true key escapes the envelope (which shrinks as
``~4/sqrt(N)``); on a protected one it never does.  Complements Fig. 6
(which fixes N = 256 and plots over time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import AttackError
from .metrics import prefix_cpa


@dataclass
class EvolutionPoint:
    n_traces: int
    true_peak: float
    wrong_envelope: float
    rank: float      # tie-aware: 127.5 on a flat trace set

    @property
    def escaped(self) -> bool:
        return self.true_peak > self.wrong_envelope


@dataclass
class CPAEvolution:
    points: List[EvolutionPoint]
    true_key: int

    def escape_count(self) -> Optional[int]:
        """Smallest N from which the true key stays outside the
        wrong-key envelope for the rest of the curve, or None."""
        escape = None
        for point in self.points:
            if point.escaped:
                if escape is None:
                    escape = point.n_traces
            else:
                escape = None
        return escape

    def final_rank(self) -> float:
        return self.points[-1].rank

    def series(self):
        """(n, true_peak, envelope) arrays for plotting/CSV."""
        n = np.array([p.n_traces for p in self.points], dtype=float)
        true = np.array([p.true_peak for p in self.points])
        env = np.array([p.wrong_envelope for p in self.points])
        return n, true, env


def cpa_evolution(traces: np.ndarray, plaintexts: Sequence[int],
                  true_key: int, step: int = 32) -> CPAEvolution:
    """Re-run CPA on growing prefixes of the campaign
    (:func:`~repro.sca.metrics.prefix_cpa`)."""
    if step < 2:
        raise AttackError("step must be at least 2")
    points: List[EvolutionPoint] = []
    for n, result in prefix_cpa(traces, plaintexts, true_key, step):
        peaks = result.peak_per_guess
        wrong = float(np.delete(peaks, true_key).max())
        points.append(EvolutionPoint(
            n_traces=n, true_peak=float(peaks[true_key]),
            wrong_envelope=wrong, rank=result.rank_of_true_key()))
    return CPAEvolution(points=points, true_key=true_key)
