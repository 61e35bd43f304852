"""Per-guess loop references for the class-sum attack kernels.

:func:`repro.sca.dpa._difference_of_means` and
:func:`repro.sca.mlpa_attack` compute every guess at once from
per-plaintext class sums.  The references here do it the textbook way:
one guess at a time on the full trace matrix.  They sum in another
order, so the contract between the two is a tolerance relative to the
largest reference score (:func:`max_relative_delta`), not byte
equality; integer-valued traces sum exactly on both sides and stay
byte-identical.

The MLPA reference projects onto the column space of each guess's
basis through an SVD, which keeps exactly the directions the basis
spans even when it is rank-deficient.
"""

import numpy as np

from repro.aes import SBOX

_SBOX = np.asarray(SBOX, dtype=np.int64)

#: Scores of the class-sum kernels stay within this of the loop
#: references, relative to the largest reference score.
REL_TOL = 1e-12


def per_bit_differentials(traces, pts, bits):
    """Difference of means guess by guess: one bit assigns the
    differential, several bits add their differentials to zero."""
    pts = np.asarray(pts)
    out = np.zeros((256, traces.shape[1]))
    for guess in range(256):
        for bit in bits:
            ones = ((_SBOX[pts ^ guess] >> bit) & 1) == 1
            if not ones.any() or ones.all():
                continue
            diff = traces[ones].mean(axis=0) - traces[~ones].mean(axis=0)
            if len(bits) == 1:
                out[guess] = diff
            else:
                out[guess] += diff
    return out


def monomial_basis(pts, guess, degree):
    """Per-trace centered basis of the predicted S-box output bits:
    the 8 bits, and for degree 2 their 28 pairwise products."""
    hyp = _SBOX[np.asarray(pts) ^ guess]
    bits = ((hyp[:, None] >> np.arange(8)[None, :]) & 1).astype(float)
    if degree == 2:
        ia, ib = np.triu_indices(8, k=1)
        bits = np.concatenate([bits, bits[:, ia] * bits[:, ib]], axis=1)
    return bits - bits.mean(axis=0, keepdims=True)


def svd_projection(basis):
    """Orthonormal columns spanning ``basis``: the left singular vectors
    whose singular values exceed ``1e-9 * max(1, s_max)``."""
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    return u[:, s > 1e-9 * max(1.0, s.max(initial=0.0))]


def mlpa_r2_loop(traces, pts, degree):
    """MLPA's (256, n_samples) R², one per-trace regression per guess.

    A column every trace holds at one level explains nothing, whatever
    rounding residue its centring leaves."""
    t_centered = traces - traces.mean(axis=0, keepdims=True)
    total = (t_centered ** 2).sum(axis=0)
    total[(traces == traces[0]).all(axis=0)] = 0.0
    r2 = np.zeros((256, traces.shape[1]))
    for guess in range(256):
        q = svd_projection(monomial_basis(pts, guess, degree))
        explained = ((q.T @ t_centered) ** 2).sum(axis=0)
        r2[guess] = np.where(
            total > 0.0, explained / np.where(total > 0.0, total, 1.0), 0.0)
    return r2


def max_relative_delta(got, reference):
    """Largest ``|got - reference|`` over the largest ``|reference|``
    (absolute when every reference score is zero)."""
    scale = float(np.abs(reference).max(initial=0.0))
    delta = float(np.abs(got - reference).max(initial=0.0))
    return delta / scale if scale > 0.0 else delta
