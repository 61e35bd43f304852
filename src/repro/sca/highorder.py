"""Higher-order and multi-linear attacks.

Two attack families beyond first-order CPA/DPA, closing ROADMAP item 3's
attack axis:

* **Second-order CPA** — the classic countermeasure-bypass: combine
  pairs of time samples with the *centered product* (Chari et al.'s
  preprocessing as analysed by Prouff, Rivain & Bévan), then run plain
  CPA on the combined samples.  A leakage split across two samples
  (masking shares, or a dual-rail pair's two arrival instants) is
  invisible to first-order CPA but reappears in the product's mean.

* **MLPA** — multi-linear power analysis (Roche & Tavernier): instead
  of assuming one scalar leakage model (Hamming weight), regress each
  time sample on a per-guess *basis* of S-box output bit monomials.
  The right guess makes the predicted bits line up with the physical
  register bits, so the regression explains significantly more variance
  (R²) than any wrong guess — even when the per-bit weights are
  arbitrary, unequal, or of mixed sign (exactly the per-die residual
  pattern MCML mismatch and WDDL rail imbalance produce).

Both return results that share :class:`repro.sca.ranking.KeyRanking`
with :class:`repro.sca.cpa.CPAResult` (tie-aware rank, one success
rule), so campaign metrics treat every attack uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..aes.sbox import SBOX
from ..errors import AttackError
from .cpa import CPAResult, cpa_attack
from .leakage import check_traces, flat_columns
from .ranking import KeyRanking

#: Cap on samples entering the pairwise product (O(k^2) combined width).
DEFAULT_COMBINE_SAMPLES = 48


def centered_product(traces: np.ndarray,
                     max_samples: int = DEFAULT_COMBINE_SAMPLES,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Centered-product sample combination for second-order CPA.

    Selects the ``max_samples`` highest-variance time samples (the only
    ones that can carry leakage), centers each across traces, and forms
    every unordered pair product — ``k*(k+1)//2`` combined samples.
    Returns ``(combined, pairs)`` where ``pairs[j] = (s_a, s_b)`` maps
    combined column ``j`` back to the original sample indices.
    """
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 2:
        raise AttackError("traces must be 2-D (n_traces, n_samples)")
    if traces.shape[0] < 2:
        raise AttackError("need at least two traces to center")
    if max_samples < 1:
        raise AttackError("max_samples must be >= 1")
    variances = traces.var(axis=0)
    k = min(max_samples, traces.shape[1])
    keep = np.sort(np.argsort(-variances, kind="stable")[:k])
    centered = traces[:, keep] - traces[:, keep].mean(axis=0, keepdims=True)
    ia, ib = np.triu_indices(k)
    combined = centered[:, ia] * centered[:, ib]
    pairs = np.stack([keep[ia], keep[ib]], axis=1)
    return combined, pairs


def second_order_cpa(traces: np.ndarray, plaintexts: Sequence[int],
                     true_key: Optional[int] = None,
                     max_samples: int = DEFAULT_COMBINE_SAMPLES,
                     ) -> CPAResult:
    """CPA on centered-product combined samples.

    The returned :class:`CPAResult`'s ``rho`` is indexed by *combined*
    sample — use :func:`centered_product` directly if the winning pair's
    original time indices are needed.
    """
    combined, _ = centered_product(traces, max_samples=max_samples)
    return cpa_attack(combined, plaintexts, true_key=true_key)


@dataclass(repr=False)
class MlpaResult(KeyRanking):
    """Outcome of one multi-linear regression attack."""

    r2: np.ndarray             # (256, n_samples) explained-variance ratio
    degree: int
    true_key: Optional[int] = None

    @property
    def peak_per_guess(self) -> np.ndarray:
        """max R² over time for each guess — the MLPA ranking."""
        return self.r2.max(axis=1)


def _mlpa_basis(pts: np.ndarray, guess: int, degree: int) -> np.ndarray:
    """Centered monomial basis of the predicted S-box output bits.

    Degree 1: the 8 output bits; degree 2 adds all pairwise products —
    the multi-linear combinations of register leakages the attack is
    named after.
    """
    sbox = np.asarray(SBOX, dtype=np.int64)
    hyp = sbox[pts ^ guess]
    bits = ((hyp[:, None] >> np.arange(8)[None, :]) & 1).astype(float)
    cols = [bits]
    if degree >= 2:
        ia, ib = np.triu_indices(8, k=1)
        cols.append(bits[:, ia] * bits[:, ib])
    basis = np.concatenate(cols, axis=1)
    return basis - basis.mean(axis=0, keepdims=True)


def mlpa_attack(traces: np.ndarray, plaintexts: Sequence[int],
                true_key: Optional[int] = None,
                degree: int = 2) -> MlpaResult:
    """Multi-linear power analysis over all 256 key guesses.

    Per guess, project the (centered) traces onto the orthonormalised
    bit-monomial basis and score each time sample by the explained
    variance ratio R²; the guess whose basis explains the most variance
    anywhere in time wins.  With too few traces to fit the degree-2
    basis the attack degrades to degree 1 rather than overfitting
    (36 regressors on 40 traces would "explain" pure noise).
    """
    traces, pts = check_traces(traces, plaintexts)
    if degree not in (1, 2):
        raise AttackError(f"MLPA degree must be 1 or 2: {degree}")
    n = traces.shape[0]
    width = {1: 8, 2: 8 + 28}[degree]
    while degree > 1 and n < 2 * width + 2:
        degree -= 1
        width = 8
    if n < 2 * width + 2:
        raise AttackError(
            f"MLPA needs at least {2 * width + 2} traces for a degree-"
            f"{degree} basis; got {n}")
    t_centered = traces - traces.mean(axis=0, keepdims=True)
    total = (t_centered ** 2).sum(axis=0)
    total[flat_columns(traces)] = 0.0  # no variance to explain
    r2 = np.zeros((256, traces.shape[1]))
    safe_total = np.where(total > 0.0, total, 1.0)
    for guess in range(256):
        basis = _mlpa_basis(pts, guess, degree)
        # Orthonormal column space; rank-deficient bases (degenerate
        # plaintext sets) drop their null directions via the R diagonal.
        q, r = np.linalg.qr(basis)
        keep = np.abs(np.diag(r)) > 1e-9 * max(1.0, np.abs(r).max())
        q = q[:, keep]
        explained = ((q.T @ t_centered) ** 2).sum(axis=0)
        r2[guess] = np.where(total > 0.0, explained / safe_total, 0.0)
    return MlpaResult(r2=r2, degree=degree, true_key=true_key)
