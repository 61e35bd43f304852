"""Vectorized device-bank MNA assembly.

The reference solver walks a Python loop over devices, calling each
device's ``currents`` ~5 times per MOSFET per Newton iteration to build
the KCL residual and its forward-difference Jacobian.  This module
replaces that hot path with *device banks*: at
:class:`~repro.spice.dc.System` construction, devices are grouped by
concrete class into flat NumPy structures and every bank is evaluated
with one batched model call across the device axis.

Bank layout
-----------

All banks index a single packed voltage vector

    ``V = [x (unknown nodes, System order) | fixed (ground + sources,
    fixed_nodes() order)]``

so a terminal is one integer: ``index[node]`` when unknown, ``n +
fixed_pos[node]`` when source-driven.  Each bank holds:

* ``tidx`` — ``(M, T)`` terminal index matrix into ``V``;
* per-device parameter vectors (resistances, EKV parameters, source
  values);
* a :class:`_ScatterPlan` — precomputed flattened ``(row, col, device,
  terminal, sign)`` index arrays so residual and Jacobian contributions
  deposit with ``np.add.at`` instead of nested Python loops.

A device's contribution is expressed as one *flow* per device (channel
current, resistor current, source value) plus signed deposits into its
terminals — exactly the ``[i, 0, -i, 0]``-shaped vectors the device
classes return, minus the zeros.  Jacobian values are the same forward
differences the reference loop computes (step
:data:`FD_STEP`), evaluated as one batched call per terminal, so the
Newton trajectory is preserved up to batched-libm rounding (≤1e-12;
see ``tests/test_spice_banks.py``).

Device classes without a bank — custom :class:`Device` subclasses such
as the fault-injection proxies — fall back to :class:`LoopBlock`, which
reproduces the reference per-device arithmetic verbatim.  The reference
loop for *all* devices stays in :class:`~repro.spice.dc.System` as the
test oracle, reached by replacing ``repro.spice.dc._select_assembly``.

Banks snapshot device parameters; :class:`~repro.spice.dc.System`
rebuilds them whenever the identity of the circuit's device list
changes (``swap_device`` — fault-injection arming/disarming — or
devices added after construction).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .devices import Capacitor, Device, ISource, Mosfet, Resistor
from .mosfet import batched_currents_and_derivs, batched_ids

#: Forward-difference step for device Jacobians, volts (shared with the
#: reference loop so both assemblies walk the same Newton trajectory).
FD_STEP = 1e-6


#: Entry-count ceiling for the dense scatter operators: below it each
#: deposit is one precomputed matrix-vector product (a single dispatch
#: into BLAS, which is what cell-sized circuits are bound by); above it
#: the plan falls back to index-based ``np.bincount`` accumulation so
#: memory stays linear in the number of deposits.
_DENSE_LIMIT = 1 << 18


class _ScatterPlan:
    """Precomputed deposit operators for one bank.

    ``flow_terms`` lists ``(terminal, sign)`` pairs describing where the
    device's flow enters KCL (e.g. drain ``+``, source ``-``);
    ``deriv_cols`` lists the terminals the flow is differentiated
    against (``derivs`` arrives as an ``(M, len(deriv_cols))`` matrix in
    that column order).  Terminals landing on unknown nodes feed the
    residual and Jacobian; terminals landing on fixed nodes feed the
    per-source current totals.
    """

    def __init__(self, tidx: np.ndarray, n_unknowns: int, n_fixed: int,
                 flow_terms: Sequence[Tuple[int, float]],
                 deriv_cols: Sequence[int]):
        m = tidx.shape[0]
        t = len(deriv_cols)
        dev = np.arange(m)
        f_rows, f_dev, f_sgn = [], [], []
        fx_rows, fx_dev, fx_sgn = [], [], []
        j_flat, j_col, j_sgn = [], [], []
        for term, sgn in flow_terms:
            col = tidx[:, term]
            unk = col < n_unknowns
            f_rows.append(col[unk])
            f_dev.append(dev[unk])
            f_sgn.append(np.full(int(unk.sum()), sgn))
            fx_rows.append(col[~unk] - n_unknowns)
            fx_dev.append(dev[~unk])
            fx_sgn.append(np.full(int((~unk).sum()), sgn))
            for pos, k in enumerate(deriv_cols):
                colk = tidx[:, k]
                mask = unk & (colk < n_unknowns)
                j_flat.append(col[mask] * n_unknowns + colk[mask])
                j_col.append(dev[mask] * t + pos)
                j_sgn.append(np.full(int(mask.sum()), sgn))
        self.n = n_unknowns
        self.f_rows = np.concatenate(f_rows)
        self.f_dev = np.concatenate(f_dev)
        self.f_sgn = np.concatenate(f_sgn)
        self.fx_rows = np.concatenate(fx_rows)
        self.fx_dev = np.concatenate(fx_dev)
        self.fx_sgn = np.concatenate(fx_sgn)
        self.j_flat = np.concatenate(j_flat) if j_flat else np.zeros(0, int)
        self.j_col = np.concatenate(j_col) if j_col else np.zeros(0, int)
        self.j_sgn = np.concatenate(j_sgn) if j_sgn else np.zeros(0)
        # Dense operators where the footprint allows: one dgemv beats a
        # gather + multiply + bincount chain by several dispatches.
        self.s_f = self.s_fx = self.s_j = None
        if n_unknowns * m <= _DENSE_LIMIT:
            self.s_f = np.zeros((n_unknowns, m))
            np.add.at(self.s_f, (self.f_rows, self.f_dev), self.f_sgn)
        if n_fixed * m <= _DENSE_LIMIT:
            self.s_fx = np.zeros((n_fixed, m))
            np.add.at(self.s_fx, (self.fx_rows, self.fx_dev), self.fx_sgn)
        if t and n_unknowns * n_unknowns * m * t <= _DENSE_LIMIT:
            self.s_j = np.zeros((n_unknowns * n_unknowns, m * t))
            np.add.at(self.s_j, (self.j_flat, self.j_col), self.j_sgn)

    def add_flows(self, f: np.ndarray, flows: np.ndarray) -> None:
        if self.s_f is not None:
            f += self.s_f @ flows
        elif self.f_rows.size:
            f += np.bincount(self.f_rows,
                             weights=self.f_sgn * flows[self.f_dev],
                             minlength=f.size)

    def add_derivs(self, jac: np.ndarray, derivs: np.ndarray) -> None:
        if self.s_j is not None:
            jac += (self.s_j @ derivs.ravel()).reshape(jac.shape)
        elif self.j_flat.size:
            flat = derivs.ravel()
            jac += np.bincount(self.j_flat,
                               weights=self.j_sgn * flat[self.j_col],
                               minlength=jac.size).reshape(jac.shape)

    def add_fixed_flows(self, totals: np.ndarray,
                        flows: np.ndarray) -> None:
        if self.s_fx is not None:
            totals += self.s_fx @ flows
        elif self.fx_rows.size:
            totals += np.bincount(self.fx_rows,
                                  weights=self.fx_sgn * flows[self.fx_dev],
                                  minlength=totals.size)

    # -- batch-axis deposits (B independent circuits, one topology) ---------
    #
    # The dense operators are shared across lanes, so a whole batch
    # deposits with a single dgemm: ``(B, m) @ (m, n)``.  The bincount
    # fallbacks flatten the lane axis into the row index so the deposit
    # stays a single call as well.

    def add_flows_batch(self, f: np.ndarray, flows: np.ndarray) -> None:
        """``f`` is ``(B, n)``; ``flows`` is ``(B, m)`` (or ``(m,)``)."""
        if self.s_f is not None:
            f += flows @ self.s_f.T
        elif self.f_rows.size:
            nb, n = f.shape
            w = np.broadcast_to(self.f_sgn * flows[..., self.f_dev],
                                (nb, self.f_dev.size))
            rows = np.arange(nb)[:, None] * n + self.f_rows
            f += np.bincount(rows.ravel(), weights=w.ravel(),
                             minlength=f.size).reshape(f.shape)

    def add_derivs_batch(self, jac: np.ndarray, derivs: np.ndarray) -> None:
        """``jac`` is ``(B, n, n)``; ``derivs`` is ``(B, m, t)``."""
        nb = jac.shape[0]
        if self.s_j is not None:
            jac += (derivs.reshape(nb, -1) @ self.s_j.T).reshape(jac.shape)
        elif self.j_flat.size:
            flat = derivs.reshape(nb, -1)
            w = self.j_sgn * flat[:, self.j_col]
            cells = jac.shape[1] * jac.shape[2]
            rows = np.arange(nb)[:, None] * cells + self.j_flat
            jac += np.bincount(rows.ravel(), weights=w.ravel(),
                               minlength=jac.size).reshape(jac.shape)

    def add_fixed_flows_batch(self, totals: np.ndarray,
                              flows: np.ndarray) -> None:
        """``totals`` is ``(B, F)``; ``flows`` is ``(B, m)`` (or ``(m,)``)."""
        if self.s_fx is not None:
            totals += flows @ self.s_fx.T
        elif self.fx_rows.size:
            nb, nf = totals.shape
            w = np.broadcast_to(self.fx_sgn * flows[..., self.fx_dev],
                                (nb, self.fx_dev.size))
            rows = np.arange(nb)[:, None] * nf + self.fx_rows
            totals += np.bincount(rows.ravel(), weights=w.ravel(),
                                  minlength=totals.size).reshape(totals.shape)


class MosfetBank:
    """All :class:`Mosfet` devices as flat EKV parameter vectors."""

    flow_terms = ((0, 1.0), (2, -1.0))     # drain +ids, source -ids
    deriv_cols = (0, 1, 2, 3)

    def __init__(self, devices: Sequence[Mosfet], tidx: np.ndarray,
                 n_unknowns: int, n_fixed: int):
        self.tidx = tidx
        keys = ("sign", "vt0", "gamma_b", "vp_den", "ispec", "ut", "lam")
        per_dev = [d.model.bank_params() for d in devices]
        self.params = tuple(np.array([p[k] for p in per_dev]) for k in keys)
        self.plan = _ScatterPlan(tidx, n_unknowns, n_fixed, self.flow_terms,
                                 self.deriv_cols)

    def flows(self, volts_full: np.ndarray, params=None) -> np.ndarray:
        """Channel currents; ``volts_full`` may carry leading batch axes.

        ``params`` overrides the snapshotted EKV vectors (the batch
        engine passes ``(B, M)`` stacks when lanes differ, e.g. under
        per-trace mismatch).
        """
        v = volts_full[..., self.tidx]
        p = self.params if params is None else params
        return batched_ids(v[..., 0], v[..., 1], v[..., 2], v[..., 3], *p)

    def flows_and_derivs(self, volts_full: np.ndarray, h: float,
                         params=None):
        p = self.params if params is None else params
        return batched_currents_and_derivs(volts_full[..., self.tidx], h, *p)

    def lane_params(self, devices: Sequence[Mosfet]) -> tuple:
        """Parameter vectors for one batch lane's devices (bank order)."""
        keys = ("sign", "vt0", "gamma_b", "vp_den", "ispec", "ut", "lam")
        per_dev = [d.model.bank_params() for d in devices]
        return tuple(np.array([p[k] for p in per_dev]) for k in keys)


class ResistorBank:
    """All :class:`Resistor` devices as one resistance vector."""

    flow_terms = ((0, 1.0), (1, -1.0))
    deriv_cols = (0, 1)

    def __init__(self, devices: Sequence[Resistor], tidx: np.ndarray,
                 n_unknowns: int, n_fixed: int):
        self.tidx = tidx
        self.res = np.array([d.resistance for d in devices])
        self.plan = _ScatterPlan(tidx, n_unknowns, n_fixed, self.flow_terms,
                                 self.deriv_cols)

    def flows(self, volts_full: np.ndarray, params=None) -> np.ndarray:
        v = volts_full[..., self.tidx]
        res = self.res if params is None else params
        return (v[..., 0] - v[..., 1]) / res

    def flows_and_derivs(self, volts_full: np.ndarray, h: float,
                         params=None):
        v = volts_full[..., self.tidx]
        res = self.res if params is None else params
        base = (v[..., 0] - v[..., 1]) / res
        # The same forward differences the reference loop computes (not
        # the analytic ±1/R), so both assemblies agree to rounding.
        d0 = ((v[..., 0] + h - v[..., 1]) / res - base) / h
        d1 = ((v[..., 0] - (v[..., 1] + h)) / res - base) / h
        return base, np.stack((d0, d1), axis=-1)

    def lane_params(self, devices: Sequence[Resistor]) -> np.ndarray:
        return np.array([d.resistance for d in devices])


class ISourceBank:
    """All :class:`ISource` devices; constant flows, no Jacobian."""

    flow_terms = ((0, 1.0), (1, -1.0))
    deriv_cols = ()

    def __init__(self, devices: Sequence[ISource], tidx: np.ndarray,
                 n_unknowns: int, n_fixed: int):
        self.tidx = tidx
        self.val = np.array([d.value for d in devices])
        self.plan = _ScatterPlan(tidx, n_unknowns, n_fixed, self.flow_terms,
                                 self.deriv_cols)

    def flows(self, volts_full: np.ndarray, params=None) -> np.ndarray:
        return self.val if params is None else params

    def flows_and_derivs(self, volts_full: np.ndarray, h: float,
                         params=None):
        return (self.val if params is None else params), None

    def lane_params(self, devices: Sequence[ISource]) -> np.ndarray:
        return np.array([d.value for d in devices])


class LoopBlock:
    """Reference per-device assembly for un-banked device classes.

    Mirrors the original ``System`` loop verbatim: custom
    :class:`Device` subclasses (fault-injection proxies, test doubles)
    keep their exact call pattern and arithmetic, including dynamic
    behaviour between calls.
    """

    def __init__(self, entries: Sequence[Tuple[Device, List[int],
                                               List[Optional[str]]]],
                 fixed_pos: Dict[str, int]):
        self.entries = list(entries)
        self.fixed_pos = fixed_pos

    @staticmethod
    def _volts(idxs, names, x, fixed):
        return [x[i] if i >= 0 else fixed[names[k]]
                for k, i in enumerate(idxs)]

    def accumulate(self, f: np.ndarray, jac: Optional[np.ndarray],
                   x: np.ndarray, fixed: Dict[str, float],
                   h: float) -> None:
        for device, idxs, names in self.entries:
            volts = self._volts(idxs, names, x, fixed)
            base = device.currents(volts)
            for k, i in enumerate(idxs):
                if i >= 0:
                    f[i] += base[k]
            if jac is None:
                continue
            for k, j in enumerate(idxs):
                if j < 0:
                    continue
                volts_p = list(volts)
                volts_p[k] += h
                pert = device.currents(volts_p)
                for m, i in enumerate(idxs):
                    if i >= 0:
                        jac[i, j] += (pert[m] - base[m]) / h

    def fixed_totals(self, totals: np.ndarray, x: np.ndarray,
                     fixed: Dict[str, float]) -> None:
        for device, idxs, names in self.entries:
            volts = self._volts(idxs, names, x, fixed)
            cur = device.currents(volts)
            for k, i in enumerate(idxs):
                if i < 0:
                    totals[self.fixed_pos[names[k]]] += cur[k]


class BankAssembly:
    """The full banked view of one circuit's devices.

    Built once per :class:`~repro.spice.dc.System` (and rebuilt on
    device-list identity changes).  Capacitors carry no DC current and
    are dropped entirely; exact :class:`Mosfet` / :class:`Resistor` /
    :class:`ISource` instances go to their banks; every other device —
    including *subclasses* of the banked types, which may override
    ``currents`` — takes the reference loop.
    """

    def __init__(self, circuit, index: Dict[str, int], n_unknowns: int,
                 fixed_pos: Dict[str, int]):
        self.n = n_unknowns
        self.fixed_pos = fixed_pos
        grouped = {Mosfet: [], Resistor: [], ISource: []}
        loop_entries = []
        for device in circuit.devices:
            cls = type(device)
            if cls is Capacitor:
                continue  # open at DC: zero current, zero derivatives
            if cls in grouped:
                row = [index[node] if node in index
                       else n_unknowns + fixed_pos[node]
                       for node in device.terminals]
                grouped[cls].append((device, row))
            else:
                idxs = [index.get(node, -1) for node in device.terminals]
                names = [None if node in index else node
                         for node in device.terminals]
                loop_entries.append((device, idxs, names))
        self.banks = []
        self.bank_classes = []
        for cls, bank_cls in ((Mosfet, MosfetBank), (Resistor, ResistorBank),
                              (ISource, ISourceBank)):
            if grouped[cls]:
                devs = [d for d, _ in grouped[cls]]
                tidx = np.array([row for _, row in grouped[cls]], dtype=int)
                self.banks.append(bank_cls(devs, tidx, n_unknowns,
                                           len(fixed_pos)))
                self.bank_classes.append(cls)
        self.loop = LoopBlock(loop_entries, fixed_pos) if loop_entries \
            else None

    def accumulate(self, f: np.ndarray, jac: Optional[np.ndarray],
                   volts_full: np.ndarray, x: np.ndarray,
                   fixed: Dict[str, float], h: float) -> None:
        """Deposit every device's residual (and Jacobian) contribution."""
        for bank in self.banks:
            if jac is None:
                bank.plan.add_flows(f, bank.flows(volts_full))
            else:
                flows, derivs = bank.flows_and_derivs(volts_full, h)
                bank.plan.add_flows(f, flows)
                if derivs is not None:
                    bank.plan.add_derivs(jac, derivs)
        if self.loop is not None:
            self.loop.accumulate(f, jac, x, fixed, h)

    def fixed_totals(self, volts_full: np.ndarray, x: np.ndarray,
                     fixed: Dict[str, float]) -> np.ndarray:
        """Device current drawn out of each fixed node (bank order)."""
        totals = np.zeros(len(self.fixed_pos))
        for bank in self.banks:
            bank.plan.add_fixed_flows(totals, bank.flows(volts_full))
        if self.loop is not None:
            self.loop.fixed_totals(totals, x, fixed)
        return totals

    # -- batch axis ----------------------------------------------------------

    def lane_params(self, circuit) -> list:
        """Per-bank parameter vectors harvested from one lane's circuit.

        The lane must share the template's topology (same device classes
        in the same order — validated by ``BatchSystem``), so grouping
        by class reproduces the template's bank order exactly.
        """
        grouped = {cls: [] for cls in self.bank_classes}
        for device in circuit.devices:
            cls = type(device)
            if cls in grouped:
                grouped[cls].append(device)
        return [bank.lane_params(grouped[cls])
                for cls, bank in zip(self.bank_classes, self.banks)]

    def accumulate_batch(self, f: np.ndarray, jac: Optional[np.ndarray],
                         volts_full: np.ndarray, h: float,
                         params: Optional[list] = None) -> None:
        """Batched :meth:`accumulate` over ``(B, n + F)`` packed voltages.

        ``params`` is a per-bank list of lane-stacked parameter arrays
        (or ``None`` to reuse the template's snapshot).  Loop entries
        are not supported on the batch axis — the batch engine falls
        back to the serial path when any are present.
        """
        for k, bank in enumerate(self.banks):
            p = None if params is None else params[k]
            if jac is None:
                bank.plan.add_flows_batch(f, bank.flows(volts_full, p))
            else:
                flows, derivs = bank.flows_and_derivs(volts_full, h, p)
                bank.plan.add_flows_batch(f, flows)
                if derivs is not None:
                    bank.plan.add_derivs_batch(jac, derivs)

    def fixed_totals_batch(self, volts_full: np.ndarray,
                           params: Optional[list] = None) -> np.ndarray:
        """Batched :meth:`fixed_totals`: ``(B, F)`` per-source currents."""
        totals = np.zeros((volts_full.shape[0], len(self.fixed_pos)))
        for k, bank in enumerate(self.banks):
            p = None if params is None else params[k]
            bank.plan.add_fixed_flows_batch(totals, bank.flows(volts_full, p))
        return totals
