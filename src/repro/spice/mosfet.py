"""Smooth EKV-style MOSFET model.

The model interpolates continuously between the subthreshold exponential
and the square-law strong-inversion regimes using the classic EKV
interpolation function ``F(x) = ln(1 + exp(x/2))**2``:

    ids = Ispec * (F(xf) - F(xr)) * (1 + lambda * vds)

    Ispec = 2 * n * kp * (W/L) * Ut**2
    vp    = (vgb - vt_eff) / n          (pinch-off voltage)
    xf    = (vp - vsb) / Ut             (forward normalised voltage)
    xr    = (vp - vdb) / Ut             (reverse normalised voltage)

with the threshold adjusted for body effect,
``vt_eff = vt0 + gamma*(sqrt(phi + vsb) - sqrt(phi))``.

This captures every first-order effect the paper relies on:

* a tail transistor in saturation delivers a bias current set by Vn and
  (W/L), nearly independent of the drain voltage (constant-current MCML
  operation);
* a PMOS load biased in triode behaves as a tunable resistor set by Vp;
* subthreshold conduction decays exponentially below Vt with slope
  ``n·Ut·ln10`` per decade, so a high-Vt sleep transistor with negative
  VGS reduces sleep-mode leakage by orders of magnitude (§4: topology (d)
  gives the sleep device negative VGS during power-down);
* body bias modulates the threshold (topology (c) of Fig. 2).

PMOS devices are evaluated by polarity mirroring of the NMOS equations.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DeviceError
from ..tech.params import MosParams, VT_THERMAL

#: Surface potential used by the body-effect expression, volts.
BULK_PHI = 0.7

#: Floor for the body-effect square root argument (forward-bias clamp).
_PHI_FLOOR = 0.05


def softplus(x: float) -> float:
    """Numerically stable ``ln(1 + exp(x))``."""
    if x > 35.0:
        return x
    if x < -35.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def ekv_interp(x: float) -> float:
    """EKV interpolation function ``ln(1 + exp(x/2))**2``."""
    s = softplus(0.5 * x)
    return s * s


def softplus_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`softplus` with the same branch structure.

    The clamp keeps ``exp`` from overflowing on entries the branches
    replace anyway, so the piecewise result matches the scalar function
    branch for branch.
    """
    clipped = np.minimum(np.maximum(x, -35.0), 35.0)
    mid = np.log1p(np.exp(clipped))
    out = np.where(x > 35.0, x, mid)
    return np.where(x < -35.0, np.exp(np.minimum(x, 0.0)), out)


def ekv_interp_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`ekv_interp` over a device-axis array."""
    s = softplus_vec(0.5 * x)
    return s * s


def batched_ids(vd, vg, vs, vb, sign, vt0, gamma_b, vp_den, ispec, ut,
                lam) -> np.ndarray:
    """Drain currents of a whole MOSFET bank in one vectorized call.

    All arguments are arrays over the device axis: terminal voltages in
    the :class:`~repro.spice.devices.Mosfet` convention plus the
    per-device parameter vectors from :meth:`MosfetModel.bank_params`.
    PMOS devices are mirrored through ``sign = -1`` exactly as the
    scalar :meth:`MosfetModel.ids` does, so the arithmetic (and hence
    the Newton trajectory built on it) follows the scalar model
    operation for operation.
    """
    # sign is exactly +-1.0, so sign*(a-b) == sign*a - sign*b bit for
    # bit; folding the mirror into the differences saves dispatches.
    vgb = (vg - vb) * sign
    vsb = (vs - vb) * sign
    vdb = (vd - vb) * sign
    vds = (vd - vs) * sign
    arg = np.maximum(BULK_PHI + vsb, _PHI_FLOOR)
    vt_eff = vt0 + gamma_b * (np.sqrt(arg) - math.sqrt(BULK_PHI))
    vp = (vgb - vt_eff) * vp_den
    xf = (vp - vsb) / ut
    xr = (vp - vdb) / ut
    both = np.empty((2,) + np.shape(xf))
    both[0] = xf
    both[1] = xr
    interp = ekv_interp_vec(both)
    current = ispec * (interp[0] - interp[1])
    current = current * (1.0 + lam * vds)
    return sign * current


def batched_currents_and_derivs(volts: np.ndarray, h: float, sign, vt0,
                                gamma_b, vp_den, ispec, ut, lam):
    """Channel currents and forward-difference partials for a bank.

    ``volts`` is ``(..., M, 4)`` in terminal order ``(d, g, s, b)`` —
    ``(M, 4)`` for one circuit's bank, or for the lockstep transient's
    concatenation of many circuits' banks (every operation is
    elementwise, so each device gets the bits its own bank gives it).
    Returns ``(ids, derivs)`` with
    ``derivs[..., k] = d(ids)/d(v_k)`` computed by the same forward
    difference (step ``h``) the reference per-device loop uses.  The
    base point and the four perturbed points are stacked on a leading
    axis and evaluated in a *single* :func:`batched_ids` call — for
    cell-sized banks the cost is ufunc dispatch, not floating point, so
    one call over ``(5, ..., M)`` beats five calls over ``(..., M)``.
    ``derivs`` is a transposed view of the ``(4, ..., M)`` difference
    stack, not a copy.
    """
    key = (h, volts.ndim)
    try:
        pert = _PERT_CACHE[key]
    except KeyError:
        pert = np.zeros((5,) + (1,) * (volts.ndim - 1) + (4,))
        for k in range(4):
            pert[(k + 1,) + (0,) * (volts.ndim - 1) + (k,)] = h
        _PERT_CACHE[key] = pert
    stacked = volts + pert  # (5, ..., M, 4): base + one step per terminal
    ids = batched_ids(stacked[..., 0], stacked[..., 1], stacked[..., 2],
                      stacked[..., 3], sign, vt0, gamma_b, vp_den, ispec,
                      ut, lam)
    base = ids[0]
    derivs = (ids[1:] - base) / h
    return base, derivs.transpose(tuple(range(1, derivs.ndim)) + (0,))


#: (5, 1, ..., 4) perturbation tensors keyed by (FD step, volts.ndim)
#: (see :func:`batched_currents_and_derivs`).
_PERT_CACHE: dict = {}


class MosfetModel:
    """A sized instance of a MOSFET flavour.

    Parameters
    ----------
    params:
        The flavour (possibly corner-shifted or mismatch-sampled).
    w, l:
        Channel width and length, metres.
    temp_vt:
        Thermal voltage, volts (defaults to 300 K).
    """

    __slots__ = ("params", "w", "l", "ut", "ispec", "_vp_den")

    def __init__(self, params: MosParams, w: float, l: float,
                 temp_vt: float = VT_THERMAL):
        if w < params.wmin * 0.999:
            raise DeviceError(
                f"width {w:.3g} below minimum {params.wmin:.3g} for {params.name}")
        if l < params.lmin * 0.999:
            raise DeviceError(
                f"length {l:.3g} below minimum {params.lmin:.3g} for {params.name}")
        self.params = params
        self.w = float(w)
        self.l = float(l)
        self.ut = float(temp_vt)
        self.ispec = 2.0 * params.nsub * params.kp * (w / l) * self.ut ** 2
        self._vp_den = 1.0 / params.nsub

    # -- threshold ----------------------------------------------------------

    def vt_eff(self, vsb: float) -> float:
        """Body-effect-adjusted threshold magnitude for source-bulk bias."""
        p = self.params
        arg = max(BULK_PHI + vsb, _PHI_FLOOR)
        return p.vt0 + p.gamma_b * (math.sqrt(arg) - math.sqrt(BULK_PHI))

    # -- current ------------------------------------------------------------

    def ids(self, vg: float, vd: float, vs: float, vb: float = 0.0) -> float:
        """Drain-to-source channel current.

        Sign convention: positive current flows *into* the drain terminal
        and *out of* the source terminal.  For a PMOS device conducting
        normally (source high), the returned value is negative.
        """
        if self.params.is_nmos:
            return self._core(vg, vd, vs, vb)
        return -self._core(-vg, -vd, -vs, -vb)

    def _core(self, vg: float, vd: float, vs: float, vb: float) -> float:
        """NMOS-convention EKV current."""
        vgb = vg - vb
        vsb = vs - vb
        vdb = vd - vb
        vt_eff = self.vt_eff(vsb)
        vp = (vgb - vt_eff) * self._vp_den
        xf = (vp - vsb) / self.ut
        xr = (vp - vdb) / self.ut
        current = self.ispec * (ekv_interp(xf) - ekv_interp(xr))
        # Channel-length modulation on the net current; smooth everywhere
        # and negligible for the small |vds| excursions of MCML internals.
        current *= 1.0 + self.params.lam * (vd - vs)
        return current

    # -- bank evaluation ------------------------------------------------------

    def bank_params(self) -> dict:
        """Scalar parameters for the batched bank path, keyed like the
        keyword arguments of :func:`batched_ids`."""
        p = self.params
        return {
            "sign": 1.0 if p.is_nmos else -1.0,
            "vt0": p.vt0,
            "gamma_b": p.gamma_b,
            "vp_den": self._vp_den,
            "ispec": self.ispec,
            "ut": self.ut,
            "lam": p.lam,
        }

    # -- small-signal conveniences (used by bias solvers and tests) ---------

    def gm(self, vg: float, vd: float, vs: float, vb: float = 0.0,
           h: float = 1e-6) -> float:
        """Transconductance dIds/dVg by central difference."""
        return (self.ids(vg + h, vd, vs, vb) - self.ids(vg - h, vd, vs, vb)) / (2 * h)

    def gds(self, vg: float, vd: float, vs: float, vb: float = 0.0,
            h: float = 1e-6) -> float:
        """Output conductance dIds/dVd by central difference."""
        return (self.ids(vg, vd + h, vs, vb) - self.ids(vg, vd - h, vs, vb)) / (2 * h)

    # -- capacitances ---------------------------------------------------------

    @property
    def cgs(self) -> float:
        """Gate-source capacitance (2/3 channel + overlap), farads."""
        p = self.params
        return (2.0 / 3.0) * p.cox * self.w * self.l + p.cov * self.w

    @property
    def cgd(self) -> float:
        """Gate-drain overlap capacitance, farads."""
        return self.params.cov * self.w

    @property
    def cdb(self) -> float:
        """Drain-bulk junction capacitance, farads."""
        return self.params.cj * self.w

    @property
    def csb(self) -> float:
        """Source-bulk junction capacitance, farads."""
        return self.params.cj * self.w

    @property
    def cin(self) -> float:
        """Total gate input capacitance (for fanout loading), farads."""
        p = self.params
        return p.cox * self.w * self.l + 2.0 * p.cov * self.w

    def __repr__(self) -> str:
        return (f"MosfetModel({self.params.name}, W={self.w * 1e6:.3g}u, "
                f"L={self.l * 1e6:.3g}u)")
