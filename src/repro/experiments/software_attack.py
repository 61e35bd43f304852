"""System-level study: attacking the software AES around the ISE.

Fig. 6 proves the *block* resists: traces measured on the protected
unit's own supply reveal nothing.  A system-level adversary, however,
probes the whole processor.  Using the instruction-level leakage model
(:mod:`repro.power.cpu_power`) this experiment attacks the complete
firmware execution in four scenarios:

========================================  ==================  =========
scenario                                  measured window     outcome
========================================  ==================  =========
software table lookup on the CMOS core    full trace          broken
ISE, result written to CMOS reg file      ``l.sbox`` cycles   broken
ISE incl. protected result path           ``l.sbox`` cycles   resists
ISE incl. protected result path           full trace          broken
========================================  ==================  =========

The last row is the important nuance: even a perfectly protected S-box
unit cannot hide state that the surrounding *software* then moves
through CMOS memory during ShiftRows/MixColumns.  Protecting the
critical operation secures the operation (rows 2-3, matching Fig. 6's
block-level claim); securing the *cipher* needs the whole datapath in
protected logic — which is what the full PG-MCML core of
:mod:`repro.experiments.scope` provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..cpu import aes_firmware
from ..power.cpu_power import CpuLeakageModel, software_aes_traces
from ..sca import CPAResult, cpa_attack
from ..obs import default_telemetry
from .runner import print_table

DEFAULT_KEY_BYTE = 0x2B
DEFAULT_TRACES = 120


@dataclass
class ScenarioResult:
    name: str
    window: str
    rank: float
    peak_rho: float
    #: The attack's own verdict: ``CPAResult.succeeded``.
    broken: bool

    @classmethod
    def from_attack(cls, name: str, window: str,
                    attack: CPAResult) -> "ScenarioResult":
        """Record one scenario's CPA outcome against its true key."""
        return cls(name=name, window=window,
                   rank=attack.rank_of_true_key(),
                   peak_rho=float(attack.peak_per_guess[attack.true_key]),
                   broken=bool(attack.succeeded))


@dataclass
class SoftwareAttackResult:
    scenarios: List[ScenarioResult]
    key_byte: int
    n_traces: int

    def scenario(self, name: str, window: str) -> ScenarioResult:
        for s in self.scenarios:
            if s.name == name and s.window == window:
                return s
        raise KeyError((name, window))

    def matches_expectation(self) -> bool:
        return (self.scenario("software lookup", "full").broken
                and self.scenario("ISE, CMOS writeback", "sbox").broken
                and not self.scenario("ISE, protected path", "sbox").broken
                and self.scenario("ISE, protected path", "full").broken)


def _sbox_cycles() -> List[int]:
    """Exact cycle indices of the ``l.sbox`` executions.

    The firmware's control flow is data-independent, so the cycle
    numbers from one reference run hold for every plaintext.  Measuring
    *only* these cycles isolates the protected unit's own contribution
    — the neighbouring load/store instructions move the state through
    CMOS memory and belong to the surrounding-software channel, which
    the full-trace rows quantify.
    """
    firmware = aes_firmware(n_blocks=1, use_ise=True)
    _, stats = firmware.run(bytes(16), [bytes(16)])
    return [c for c, _, _ in stats.sbox_events]


def run(key_byte: int = DEFAULT_KEY_BYTE,
        n_traces: int = DEFAULT_TRACES, seed: int = 0
        ) -> SoftwareAttackResult:
    rng = np.random.default_rng(seed)
    key = bytes([key_byte]) + bytes(range(1, 16))
    pt_bytes = [int(b) for b in rng.integers(0, 256, size=n_traces)]
    plaintexts = [bytes([p]) + bytes(15) for p in pt_bytes]

    sbox_cycles = _sbox_cycles()
    cases = [
        ("software lookup", "full", False, CpuLeakageModel(), None),
        ("ISE, CMOS writeback", "sbox", True,
         CpuLeakageModel(protected_sbox=True, protected_writeback=False),
         sbox_cycles),
        ("ISE, protected path", "sbox", True,
         CpuLeakageModel(protected_sbox=True, protected_writeback=True),
         sbox_cycles),
        ("ISE, protected path", "full", True,
         CpuLeakageModel(protected_sbox=True, protected_writeback=True),
         None),
    ]
    scenarios: List[ScenarioResult] = []
    for name, window_name, use_ise, model, cycles in cases:
        traces = software_aes_traces(
            lambda u=use_ise: aes_firmware(1, use_ise=u), key, plaintexts,
            model=model, cycles=cycles)
        scenarios.append(ScenarioResult.from_attack(
            name, window_name,
            cpa_attack(traces, pt_bytes, true_key=key_byte)))
    return SoftwareAttackResult(scenarios=scenarios, key_byte=key_byte,
                                n_traces=n_traces)


def main(n_traces: int = DEFAULT_TRACES,
         telemetry=None) -> SoftwareAttackResult:
    tele = telemetry if telemetry is not None else default_telemetry()
    result = run(n_traces=n_traces)
    tele.progress(f"System-level CPA on the firmware "
                  f"({result.n_traces} traces, "
                  f"instruction-level leakage model)")
    print_table(
        [[s.name, s.window, "BROKEN" if s.broken else "resists",
          str(s.rank), f"{s.peak_rho:.3f}"] for s in result.scenarios],
        ["scenario", "window", "outcome", "true-key rank", "peak rho"],
        emit=tele.progress)
    tele.progress("\nthe protected unit hides its own computation "
                  "(Fig. 6's block-level claim holds at system level "
                  "too), but software that moves the S-box output "
                  "through CMOS memory re-exposes it: full-cipher "
                  "protection (see `python -m repro scope`) is what "
                  "closes the system-level channel.")
    return result


if __name__ == "__main__":
    main()
