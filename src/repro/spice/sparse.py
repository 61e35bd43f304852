"""Sparse MNA assembly over the device-bank scatter plans.

Dense ``(n, n)`` Jacobians cap the engine at S-box-unit scale: a
synthesized AES core elaborates to ~10^5 devices and ~10^4..10^5
unknowns, where a dense Jacobian would need tens of gigabytes per
Newton iteration.  This module extends the PR 4 bank scatter plans
(:mod:`repro.spice.banks`) to a compressed-sparse assembly:

* The *pattern* — the set of ``(row, col)`` Jacobian coordinates any
  device can ever touch — is computed once per
  :class:`~repro.spice.dc.System` from the bank plans' flat coordinates,
  the full diagonal (gmin / Tikhonov terms), every linear capacitor's
  companion incidence, and every loop-entry terminal pair.  It is
  permuted once with reverse Cuthill-McKee and frozen as a canonical
  CSC structure.
* Each Newton iteration assembles only the ``nnz`` *data vector* over
  that fixed pattern (one ``np.bincount`` per bank, exactly mirroring
  the dense deposits), so ``jac + j_extra`` in ``System.newton`` stays
  plain 1-D array addition.
* The solve factors with :func:`scipy.sparse.linalg.splu` under
  ``permc_spec="COLAMD"``.  The cross-iteration reuse lives in the
  frozen pattern and index plans: pattern construction, RCM bandwidth
  permutation, coordinate canonicalisation, and every deposit-position
  plan are computed once per circuit and shared by all Newton
  iterations and time steps.  The COLAMD fill-reducing
  ordering itself is recomputed inside each factorization — it is
  linear-ish in ``nnz`` and measured to be negligible next to the
  numeric factor, whereas a bandwidth (RCM) ordering alone produces
  catastrophic fill on circuit graphs at 10^4-10^5 unknowns.  SuperLU's
  symbolic-only refactor is not exposed by scipy, and this module does
  not pretend otherwise (see DESIGN.md §13).

Equivalence contract: the residual and every Jacobian *entry* are the
same floating-point sums the bank assembly deposits (same bincount
ordering, same FD step), so sparse and dense-bank differ only through
the linear solver (LAPACK ``getrf`` vs SuperLU).  The proof burden
lives in ``tests/test_spice_sparse.py`` (≤1e-9 on every waveform).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from ..errors import CircuitError, ConvergenceError
from .banks import BankAssembly

#: Tikhonov term added to the diagonal when the factorization reports a
#: singular matrix — the same value the dense path adds before lstsq.
_TIKHONOV = 1e-12

#: Below this many unknowns a doubly-singular sparse system densifies
#: and takes the dense path's exact lstsq fallback; above it the solve
#: fails loudly instead of materialising an (n, n) array.
_DENSE_LSTSQ_LIMIT = 4096


class SparseAssembly:
    """Canonical CSC pattern + deposit positions for one circuit.

    Wraps a :class:`~repro.spice.banks.BankAssembly` (sharing its banks,
    flows, and scatter plans) and precomputes, for every possible
    Jacobian contribution, its position in the canonical ``nnz``-long
    data vector.  Rebuilt alongside the banks whenever the device-list
    identity changes (``swap_device``).
    """

    def __init__(self, circuit, banks: BankAssembly, index: Dict[str, int],
                 n_unknowns: int):
        self.banks = banks
        self.n = n_unknowns
        n = n_unknowns
        if n == 0:
            self.nnz = 0
            self.diag_pos = np.zeros(0, dtype=np.int64)
            self._bank_pos: List[np.ndarray] = [
                np.zeros(0, dtype=np.int64) for _ in banks.banks]
            self._loop_pos: List[List[List[int]]] = []
            return
        rows: List[np.ndarray] = [np.arange(n, dtype=np.int64)]
        cols: List[np.ndarray] = [np.arange(n, dtype=np.int64)]
        for bank in banks.banks:
            flat = bank.plan.j_flat.astype(np.int64)
            rows.append(flat // n)
            cols.append(flat % n)
        # Companion-capacitor incidence: the transient engine stamps
        # (a,a), (b,b), (a,b), (b,a) for every linear capacitance with
        # at least one unknown end.  Included up front so the pattern
        # holds for DC and every transient step alike.
        cap_r: List[int] = []
        cap_c: List[int] = []
        for a, b, _ in circuit.linear_capacitances():
            ia = index.get(a, -1)
            ib = index.get(b, -1)
            if ia >= 0:
                cap_r.append(ia)
                cap_c.append(ia)
            if ib >= 0:
                cap_r.append(ib)
                cap_c.append(ib)
            if ia >= 0 and ib >= 0:
                cap_r.extend((ia, ib))
                cap_c.extend((ib, ia))
        rows.append(np.asarray(cap_r, dtype=np.int64))
        cols.append(np.asarray(cap_c, dtype=np.int64))
        # Loop entries (custom Device subclasses, fault proxies): every
        # unknown-terminal pair can receive an FD Jacobian entry.
        loop_r: List[int] = []
        loop_c: List[int] = []
        if banks.loop is not None:
            for _, idxs, _ in banks.loop.entries:
                unk = [i for i in idxs if i >= 0]
                for i in unk:
                    for j in unk:
                        loop_r.append(i)
                        loop_c.append(j)
        rows.append(np.asarray(loop_r, dtype=np.int64))
        cols.append(np.asarray(loop_c, dtype=np.int64))

        rows_all = np.concatenate(rows)
        cols_all = np.concatenate(cols)
        # One-time bandwidth (RCM) permutation on the symmetrized
        # pattern, baked into the canonical coordinates.  It keeps the
        # canonical layout deterministic and cache-friendly; the
        # fill-reducing ordering for the factorization itself is COLAMD
        # inside splu (RCM alone fills in catastrophically at scale).
        ones = np.ones(rows_all.size)
        pattern = sp.coo_matrix((ones, (rows_all, cols_all)),
                                shape=(n, n)).tocsc()
        perm = np.asarray(
            reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True),
            dtype=np.int64)
        invperm = np.empty(n, dtype=np.int64)
        invperm[perm] = np.arange(n, dtype=np.int64)
        self._perm = perm
        self._invperm = invperm
        # Canonical CSC order over permuted coordinates: flat key is
        # col * n + row so np.unique yields column-major sorted entries.
        flat_all = invperm[cols_all] * n + invperm[rows_all]
        uniq, inverse = np.unique(flat_all, return_inverse=True)
        self._uniq = uniq
        self.nnz = int(uniq.size)
        self._csc_rows = (uniq % n).astype(np.int32)
        counts = np.bincount(uniq // n, minlength=n)
        self._csc_indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=self._csc_indptr[1:])
        # Slice the canonical positions back out per contributor.
        offset = 0
        self.diag_pos = inverse[offset:offset + n].copy()
        offset += n
        self._bank_pos = []
        for bank in banks.banks:
            size = bank.plan.j_flat.size
            self._bank_pos.append(inverse[offset:offset + size].copy())
            offset += size
        offset += len(cap_r)  # capacitor coords resolve via positions()
        self._loop_pos = []
        if banks.loop is not None:
            for _, idxs, _ in banks.loop.entries:
                unk = [i for i in idxs if i >= 0]
                posmat = [[-1] * len(idxs) for _ in idxs]
                k = offset
                for mi, i in enumerate(idxs):
                    if i < 0:
                        continue
                    for mj, j in enumerate(idxs):
                        if j < 0:
                            continue
                        posmat[mi][mj] = int(inverse[k])
                        k += 1
                offset += len(unk) * len(unk)
                self._loop_pos.append(posmat)

    # -- pattern queries -----------------------------------------------------

    def positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Canonical data positions of ``(rows, cols)`` coordinates.

        The coordinates must be part of the pattern (bank deposits,
        the diagonal, capacitor incidence, or loop-entry pairs) —
        anything else raises :class:`CircuitError` rather than silently
        scattering into the wrong entry.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        flat = self._invperm[cols] * self.n + self._invperm[rows]
        pos = np.searchsorted(self._uniq, flat)
        pos = np.minimum(pos, self.nnz - 1) if self.nnz else pos
        if self.nnz == 0 or not np.array_equal(self._uniq[pos], flat):
            raise CircuitError(
                "coordinates outside the sparse assembly pattern; the "
                "pattern is stale (rebuild the System's sparse assembly)")
        return pos

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The permuted CSC matrix over one assembled data vector."""
        return sp.csc_matrix((data, self._csc_rows, self._csc_indptr),
                             shape=(self.n, self.n))

    # -- assembly ------------------------------------------------------------

    def accumulate(self, f: np.ndarray, data: Optional[np.ndarray],
                   volts_full: np.ndarray, x: np.ndarray,
                   fixed: Dict[str, float], h: float) -> None:
        """Deposit every device's residual (and Jacobian data) contribution.

        Mirrors :meth:`BankAssembly.accumulate` entry for entry: the
        residual deposits are the banks' own, the Jacobian deposits land
        in the canonical data vector through the precomputed positions.
        """
        for bank, jpos in zip(self.banks.banks, self._bank_pos):
            plan = bank.plan
            if data is None:
                plan.add_flows(f, bank.flows(volts_full))
                continue
            flows, derivs = bank.flows_and_derivs(volts_full, h)
            plan.add_flows(f, flows)
            if derivs is not None and jpos.size:
                flat = derivs.ravel()
                data += np.bincount(jpos,
                                    weights=plan.j_sgn * flat[plan.j_col],
                                    minlength=data.size)
        if self.banks.loop is not None:
            self._accumulate_loop(f, data, x, fixed, h)

    def _accumulate_loop(self, f: np.ndarray, data: Optional[np.ndarray],
                         x: np.ndarray, fixed: Dict[str, float],
                         h: float) -> None:
        """Reference per-device loop with sparse Jacobian positions."""
        loop = self.banks.loop
        for (device, idxs, names), posmat in zip(loop.entries,
                                                 self._loop_pos):
            volts = loop._volts(idxs, names, x, fixed)
            base = device.currents(volts)
            for k, i in enumerate(idxs):
                if i >= 0:
                    f[i] += base[k]
            if data is None:
                continue
            for k, j in enumerate(idxs):
                if j < 0:
                    continue
                volts_p = list(volts)
                volts_p[k] += h
                pert = device.currents(volts_p)
                for m, i in enumerate(idxs):
                    if i >= 0:
                        data[posmat[m][k]] += (pert[m] - base[m]) / h

    # -- solve ---------------------------------------------------------------

    def solve(self, data: np.ndarray,
              rhs: np.ndarray) -> Tuple[np.ndarray, int]:
        """Solve ``A dx = rhs`` for one assembled data vector.

        Returns ``(dx, singular_events)``.  A singular factorization
        retries once with the dense path's Tikhonov diagonal; if that is
        still singular, small systems densify into the dense path's
        exact lstsq fallback and large ones fail loudly.
        """
        try:
            lu = splu(self.matrix(data), permc_spec="COLAMD")
            return self._unpermute(lu.solve(rhs[self._perm])), 0
        except RuntimeError:
            # Exactly singular — the sparse analogue of LinAlgError; a
            # non-finite solution instead propagates to Newton's own
            # finiteness check, exactly like the dense path.
            pass
        data_reg = data.copy()
        data_reg[self.diag_pos] += _TIKHONOV
        try:
            lu = splu(self.matrix(data_reg), permc_spec="COLAMD")
            return self._unpermute(lu.solve(rhs[self._perm])), 1
        except RuntimeError:
            if self.n > _DENSE_LSTSQ_LIMIT:
                raise ConvergenceError(
                    f"sparse factorization is singular even with a "
                    f"Tikhonov diagonal ({self.n} unknowns; too large "
                    f"for the dense lstsq fallback)") from None
            dense = self.matrix(data_reg).toarray()
            y, *_ = np.linalg.lstsq(dense, rhs[self._perm], rcond=None)
            return self._unpermute(y), 1

    def _unpermute(self, y: np.ndarray) -> np.ndarray:
        dx = np.empty_like(y)
        dx[self._perm] = y
        return dx
