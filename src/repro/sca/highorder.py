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
  pattern MCML mismatch and WDDL rail imbalance produce).  The basis is
  a function of the plaintext byte, so the regression is fitted on
  per-byte class means, weighted by their counts.

Both return results that share :class:`repro.sca.ranking.KeyRanking`
with :class:`repro.sca.cpa.CPAResult` (tie-aware rank, one success
rule), so campaign metrics treat every attack uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgeqp3, dorgqr

from ..errors import AttackError
from .cpa import CPAResult, cpa_attack
from .leakage import SBOX_OUTPUTS, check_traces, class_sums, flat_columns
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


#: Monomials of the eight bits of a byte ``v`` at row ``v``: the bits
#: themselves, then their 28 pairwise products (``triu_indices`` order).
#: The first 8 columns are the degree-1 basis, all 36 the degree-2 one.
_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(float)
_PAIRS = np.triu_indices(8, k=1)
_MONOMIALS = np.concatenate(
    [_BITS, _BITS[:, _PAIRS[0]] * _BITS[:, _PAIRS[1]]], axis=1)


def _column_space(basis: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning ``basis``, from its column-pivoted
    QR (LAPACK ``dgeqp3``).

    Pivoting orders ``|R[i, i]|`` downwards, so the rank is the count
    above ``1e-9 * max(1, |R[0, 0]|)`` and the first that many columns
    of Q span the basis; an unpivoted QR can meet a dependent column
    early and build its Householder step from rounding noise.  Only
    those reflectors are expanded (``dorgqr``); a zero basis (one
    plaintext byte) spans nothing and is never passed to ``dorgqr``.
    With that, both routines only ever get legal arguments, the one
    thing their ``info`` reports.
    """
    factored, _, tau, _, _ = dgeqp3(basis)
    diagonal = np.abs(np.diag(factored))
    rank = np.count_nonzero(diagonal > 1e-9 * max(1.0, diagonal[0]))
    if rank == 0:
        return np.empty((basis.shape[0], 0))
    return dorgqr(factored[:, :rank], tau[:rank])[0]


def mlpa_attack(traces: np.ndarray, plaintexts: Sequence[int],
                true_key: Optional[int] = None,
                degree: int = 2) -> MlpaResult:
    """Multi-linear power analysis over all 256 key guesses.

    Per guess, project the (centered) traces onto the column space of
    the centered bit-monomial basis of the predicted S-box output and
    score each time sample by the explained variance ratio R²; the
    guess whose basis explains the most variance anywhere in time wins.
    With too few traces to fit the degree-2 basis the attack degrades
    to degree 1 rather than overfitting (36 regressors on 40 traces
    would "explain" pure noise).

    The basis rows depend on the plaintext byte alone, so the fit runs
    on :func:`~repro.sca.leakage.class_sums` as a count-weighted
    regression on class means: with ``w`` the class counts, the
    ``<= 256``-row basis ``sqrt(w) * (F - weighted mean)`` has the
    Gram matrix of the per-trace one, and the class sums scaled by
    ``1 / sqrt(w)`` have its products with the traces, so their
    projection explains the same variance.  A column-pivoted QR of that
    basis orders its diagonal by size, so the columns kept above
    ``1e-9 * max(1, |R[0, 0]|)`` span it even when it is rank-deficient
    (few distinct plaintexts).
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
    present, counts, sums = class_sums(t_centered, pts)
    root = np.sqrt(counts)[:, None]
    scaled_sums = sums / root
    monomials = _MONOMIALS[:, :width]
    explained = np.empty((256, traces.shape[1]))
    for guess in range(256):
        basis = monomials[SBOX_OUTPUTS[guess, present]]
        basis = root * (basis - counts @ basis / n)
        q = _column_space(basis)
        explained[guess] = ((q.T @ scaled_sums) ** 2).sum(axis=0)
    explained /= np.where(total > 0.0, total, 1.0)
    explained[:, ~(total > 0.0)] = 0.0
    return MlpaResult(r2=explained, degree=degree, true_key=true_key)
