"""TVLA: Welch's t-test leakage assessment.

The now-standard *non-specific* leakage test (Goodwill et al., the
"Test Vector Leakage Assessment" methodology): split traces into a
fixed-plaintext class and a random-plaintext class, compute Welch's t
statistic per time sample, and flag leakage wherever |t| exceeds 4.5.
Unlike CPA this needs no key hypothesis — it detects *any* first-order
data dependence, making it the stronger referee for a claim like
"MCML's power consumption is independent of the processed data".

The paper predates TVLA (2011 vs. its adoption around 2011-2013), so
this is an extension: the reproduction's libraries are evaluated with
the tool a modern reviewer would reach for first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import AttackError

#: The community-standard TVLA detection threshold.
TVLA_THRESHOLD = 4.5


def welch_t(group_a: np.ndarray, group_b: np.ndarray) -> np.ndarray:
    """Welch's t statistic per column of two (n_traces, n_samples) sets.

    Zero-variance columns in both groups yield t = 0 (no evidence), not
    NaN — quantised flat traces are the expected MCML picture.
    """
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise AttackError("trace groups must be 2-D")
    if a.shape[1] != b.shape[1]:
        raise AttackError("sample-count mismatch between groups")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise AttackError("each group needs at least two traces")
    mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
    var_a = a.var(axis=0, ddof=1) / a.shape[0]
    var_b = b.var(axis=0, ddof=1) / b.shape[0]
    denom = np.sqrt(var_a + var_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > 0.0, (mean_a - mean_b) / denom, 0.0)
    return t


@dataclass
class TVLAResult:
    """Outcome of a fixed-vs-random campaign.

    ``t_values`` answers "is there statistically detectable leakage?";
    ``mean_deltas`` (the raw class-mean difference per sample, amperes)
    answers "how *big* is it?".  The two rank styles differently: MCML's
    deterministic mismatch residual separates cleanly (large t, tiny
    amplitude) while CMOS leaks hugely but over a noisy algorithmic
    background (large amplitude, diluted t).  Exploitability tracks the
    amplitude, which is why Fig. 6's CPA breaks only CMOS.
    """

    t_values: np.ndarray
    n_fixed: int
    n_random: int
    threshold: float = TVLA_THRESHOLD
    mean_deltas: Optional[np.ndarray] = None

    @property
    def max_abs_t(self) -> float:
        return float(np.abs(self.t_values).max())

    @property
    def max_abs_delta(self) -> float:
        """Largest class-mean difference, amperes (leakage amplitude)."""
        if self.mean_deltas is None:
            raise AttackError("campaign did not record mean deltas")
        return float(np.abs(self.mean_deltas).max())

    @property
    def leaks(self) -> bool:
        return self.max_abs_t > self.threshold

    def leaking_samples(self) -> List[int]:
        return [int(i) for i in
                np.flatnonzero(np.abs(self.t_values) > self.threshold)]

    def __repr__(self) -> str:
        verdict = "LEAKS" if self.leaks else "passes"
        return (f"TVLAResult(max |t| = {self.max_abs_t:.2f} over "
                f"{self.t_values.size} samples -> {verdict})")


def fixed_vs_random_tvla(netlist, key: int, n_traces: int = 128,
                         fixed_plaintext: int = 0x00,
                         chain=None, grid=None, mismatch_seed: int = 0,
                         seed: int = 99, runner=None,
                         telemetry=None) -> TVLAResult:
    """Run a fixed-vs-random TVLA campaign against a reduced-AES netlist.

    Interleaves fixed and random plaintexts (the standard acquisition
    discipline) and compares the two trace populations.  ``runner``, when
    given, is a :class:`repro.experiments.runner.CheckpointedRun`: each
    acquired chunk is stored, and a killed campaign restarted on the
    same store acquires only the missing chunks, byte-identically.
    The chunks are keyed by a digest of the netlist's library, so
    corners and tail currents never share them.
    """
    from ..obs import NULL_TELEMETRY
    from ..power import MeasurementChain
    from .acquisition import AcquisitionPool, TraceAcquirer

    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    if n_traces < 4:
        raise AttackError("need at least 4 traces (2 per class)")
    if n_traces % 2 != 0:
        # An odd count would silently acquire n_traces - 1 while the
        # chunk fingerprint records the requested count — reject it up
        # front instead of fingerprinting traces that don't exist.
        raise AttackError(
            f"n_traces must be even (fixed/random classes are "
            f"interleaved pairwise); got {n_traces}")
    rng = np.random.default_rng(seed)
    half = n_traces // 2
    fixed_pts = [fixed_plaintext] * half
    random_pts = [int(x) for x in rng.integers(0, 256, size=half)]
    # One interleaved acquisition so both classes see identical
    # instrument state.
    interleaved: List[int] = []
    for f, r in zip(fixed_pts, random_pts):
        interleaved.extend((f, r))
    chain = chain if chain is not None else MeasurementChain()

    with tele.span("sca.tvla", key=key, n_traces=n_traces,
                   fixed_plaintext=fixed_plaintext,
                   checkpointed=runner is not None) as span:
        pool = AcquisitionPool(
            TraceAcquirer(netlist, key, chain=chain, grid=grid,
                          mismatch_seed=mismatch_seed),
            telemetry=tele)
        if runner is None:
            traces = pool.acquire(interleaved)
        else:
            fingerprint = {"experiment": "tvla",
                           "netlist": netlist.name,
                           "library": netlist.library.digest(),
                           "key": key,
                           "n_traces": n_traces,
                           "fixed_plaintext": fixed_plaintext,
                           "mismatch_seed": mismatch_seed,
                           "seed": seed,
                           "noise": chain.fingerprint()}
            if grid is not None:
                fingerprint["grid"] = [grid.t0, grid.t1, grid.dt]
            traces = runner.run(interleaved, pool.acquire,
                                fingerprint=fingerprint)
        fixed_traces = traces[0::2]
        random_traces = traces[1::2]
        t = welch_t(fixed_traces, random_traces)
        deltas = fixed_traces.mean(axis=0) - random_traces.mean(axis=0)
        span.set("max_abs_t", float(np.abs(t).max()))
    return TVLAResult(t_values=t, n_fixed=half, n_random=half,
                      mean_deltas=deltas)
