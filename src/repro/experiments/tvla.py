"""Extension experiment: TVLA leakage assessment of the three styles.

The paper demonstrates resistance by showing a *specific* attack (CPA)
fails.  Modern evaluation practice adds the non-specific fixed-vs-random
Welch t-test, which detects any first-order dependence without needing a
key hypothesis.  The expected (and obtained) nuance:

* CMOS fails TVLA immediately and by a wide margin;
* MCML and PG-MCML also exceed the 4.5 threshold at a few hundred
  traces — their mismatch residual *is* first-order leakage, just a
  thousandfold smaller — while the CPA of Fig. 6 still cannot turn it
  into a key.  This matches the later literature's consensus that MCML
  reduces, but does not eliminate, information leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cells import (
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
)
from ..power import MeasurementChain
from ..sca import TVLA_THRESHOLD, fixed_vs_random_tvla
from ..sca.attack import build_reduced_aes
from ..obs import default_telemetry
from .runner import CheckpointedRun, print_table


@dataclass
class TVLAStyleRow:
    style: str
    n_traces: int
    max_abs_t: float
    leaks: bool
    n_leaking_samples: int
    max_abs_delta: float = 0.0


@dataclass
class TVLAExperiment:
    rows: List[TVLAStyleRow]
    key: int

    def row(self, style: str) -> TVLAStyleRow:
        for r in self.rows:
            if r.style == style:
                return r
        raise KeyError(style)

    def cmos_margin_over_mcml(self) -> float:
        """Amplitude ratio: how much larger the exploitable CMOS signal
        is than the MCML mismatch residual."""
        return self.row("cmos").max_abs_delta / max(
            self.row("mcml").max_abs_delta, 1e-15)


def run(key: int = 0x2B, n_traces: int = 128,
        chain: Optional[MeasurementChain] = None,
        checkpoint_dir: Optional[str] = None,
        chunk_size: int = 32,
        telemetry=None) -> TVLAExperiment:
    """Assess all three styles with fixed-vs-random TVLA.

    ``checkpoint_dir`` makes each per-style acquisition resumable (one
    result-store entry per ``chunk_size`` traces); a killed assessment
    restarted with the same directory acquires only the missing chunks
    and yields identical t statistics.
    """
    rows: List[TVLAStyleRow] = []
    for build in (build_cmos_library, build_mcml_library,
                  build_pg_mcml_library):
        library = build()
        netlist, _ = build_reduced_aes(library)
        runner = None
        if checkpoint_dir is not None:
            runner = CheckpointedRun(checkpoint_dir, chunk_size=chunk_size,
                                     telemetry=telemetry)
        result = fixed_vs_random_tvla(netlist, key=key, n_traces=n_traces,
                                      chain=chain, runner=runner,
                                      telemetry=telemetry)
        rows.append(TVLAStyleRow(
            style=library.style, n_traces=n_traces,
            max_abs_t=result.max_abs_t, leaks=result.leaks,
            n_leaking_samples=len(result.leaking_samples()),
            max_abs_delta=result.max_abs_delta))
    return TVLAExperiment(rows=rows, key=key)


def detection_threshold(style_builder, key: int = 0x2B,
                        counts=(16, 32, 64, 128, 256),
                        chain: Optional[MeasurementChain] = None
                        ) -> Optional[int]:
    """Smallest trace count at which TVLA first flags the style."""
    library = style_builder()
    netlist, _ = build_reduced_aes(library)
    for n in counts:
        result = fixed_vs_random_tvla(netlist, key=key, n_traces=n,
                                      chain=chain)
        if result.leaks:
            return n
    return None


def main(key: int = 0x2B, n_traces: int = 128,
         telemetry=None) -> TVLAExperiment:
    tele = telemetry if telemetry is not None else default_telemetry()
    experiment = run(key=key, n_traces=n_traces, telemetry=telemetry)
    tele.progress(f"TVLA (fixed-vs-random Welch t-test), {n_traces} traces, "
                  f"threshold |t| > {TVLA_THRESHOLD}")
    print_table(
        [[r.style.upper(), f"{r.max_abs_t:.2f}",
          "LEAKS" if r.leaks else "passes",
          str(r.n_leaking_samples),
          f"{r.max_abs_delta * 1e6:.3g}"] for r in experiment.rows],
        ["Style", "max |t|", "verdict", "leaking samples",
         "amplitude [uA]"], emit=tele.progress)
    tele.progress("\ndetection thresholds (traces to first |t| > 4.5):")
    for build in (build_cmos_library, build_mcml_library,
                  build_pg_mcml_library):
        n = detection_threshold(build, key=key)
        name = build().style.upper()
        tele.progress(f"  {name:8s}: {n if n is not None else '>256'}")
    tele.progress("\nnon-specific leakage exists in every style (mismatch "
                  "is physics); only the CMOS leakage is large enough for "
                  "the Fig. 6 CPA to exploit.")
    return experiment


if __name__ == "__main__":
    main()
