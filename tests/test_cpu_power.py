"""Tests for the instruction-level leakage model and system-level study."""

import numpy as np
import pytest

from repro.cpu import CPU, aes_firmware, assemble
from repro.cpu.isa import Instruction
from repro.errors import TraceError
from repro.power.cpu_power import (
    ALPHA_WRITEBACK,
    BASE_CURRENT,
    CpuLeakageModel,
    software_aes_traces,
)
from repro.sca import CPAResult, cpa_attack


def run_snippet(source, model=None):
    model = model or CpuLeakageModel(noise_sigma=0.0)
    cpu = CPU(memory_size=1 << 16)
    cpu.load_image(assemble(source))
    cpu.pc = 0
    return model.trace_program(cpu), cpu


class TestInstructionLeak:
    def test_one_sample_per_instruction(self):
        trace, cpu = run_snippet("l.addi r1, r0, 1\nl.nop 1\n")
        assert trace.size == cpu.stats.instructions == 2

    def test_writeback_hw_leaks(self):
        t_zero, _ = run_snippet("l.addi r1, r0, 0\nl.nop 1\n")
        t_ones, _ = run_snippet("l.addi r1, r0, 0xFF\nl.nop 1\n")
        delta = t_ones[0] - t_zero[0]
        assert delta == pytest.approx(8 * ALPHA_WRITEBACK, rel=1e-6)

    def test_r0_writes_do_not_leak(self):
        t, _ = run_snippet("l.addi r0, r0, 0xFF\nl.nop 1\n")
        assert t[0] == pytest.approx(BASE_CURRENT, rel=1e-6)

    def test_store_leaks_data_hw(self):
        base = ("l.addi r2, r0, 0x100\n"
                "l.addi r1, r0, {val}\n"
                "l.sw 0(r2), r1\n"
                "l.nop 1\n")
        t_zero, _ = run_snippet(base.format(val=0))
        t_ones, _ = run_snippet(base.format(val=0xFF))
        assert t_ones[2] > t_zero[2]

    def test_protected_sbox_suppresses_lookup_leak(self):
        src = "l.addi r1, r0, 0xFF\nl.sbox r2, r1\nl.nop 1\n"
        unprot = CpuLeakageModel(noise_sigma=0.0)
        prot = CpuLeakageModel(noise_sigma=0.0, protected_sbox=True,
                               protected_writeback=True)
        t_u, _ = run_snippet(src, unprot)
        t_p, _ = run_snippet(src, prot)
        # Compare the data-dependent part above the base current.
        assert (t_p[1] - BASE_CURRENT) < 0.2 * (t_u[1] - BASE_CURRENT)

    def test_noise_differs_across_traces(self):
        model = CpuLeakageModel(noise_sigma=1e-6)
        t1, _ = run_snippet("l.nop\nl.nop 1\n", model)
        t2, _ = run_snippet("l.nop\nl.nop 1\n", model)
        assert not np.array_equal(t1, t2)

    def test_runaway_detected(self):
        model = CpuLeakageModel(noise_sigma=0.0)
        cpu = CPU(memory_size=1 << 12)
        cpu.load_image(assemble("loop: l.j loop\n"))
        with pytest.raises(TraceError):
            model.trace_program(cpu, max_instructions=100)


class TestSoftwareTraces:
    KEY = bytes([0x2B]) + bytes(range(1, 16))

    def make_traces(self, n=48, **model_kwargs):
        rng = np.random.default_rng(7)
        pts = [int(x) for x in rng.integers(0, 256, size=n)]
        blocks = [bytes([p]) + bytes(15) for p in pts]
        model = CpuLeakageModel(**model_kwargs)
        traces = software_aes_traces(
            lambda: aes_firmware(1, use_ise=False), self.KEY, blocks,
            model=model)
        return traces, pts

    def test_aligned_by_cycle(self):
        traces, _ = self.make_traces(n=4)
        assert traces.ndim == 2
        assert traces.shape[0] == 4

    def test_software_aes_is_breakable(self):
        traces, pts = self.make_traces(n=64)
        result = cpa_attack(traces, pts, true_key=0x2B)
        assert result.rank_of_true_key() == 0

    def test_window_and_cycles_exclusive(self):
        with pytest.raises(TraceError):
            software_aes_traces(
                lambda: aes_firmware(1), self.KEY,
                [bytes(16)], window=(0, 5), cycles=[1, 2])

    def test_cycle_selection(self):
        blocks = [bytes(16), bytes([1] + [0] * 15)]
        traces = software_aes_traces(
            lambda: aes_firmware(1), self.KEY, blocks, cycles=[5, 10, 15])
        assert traces.shape == (2, 3)

    def test_bad_cycles_rejected(self):
        with pytest.raises(TraceError):
            software_aes_traces(
                lambda: aes_firmware(1), self.KEY, [bytes(16)],
                cycles=[10 ** 9])


class TestSystemStudy:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import software_attack
        return software_attack.run(n_traces=80)

    def test_expected_pattern(self, result):
        assert result.matches_expectation()

    def test_software_lookup_broken(self, result):
        assert result.scenario("software lookup", "full").broken

    def test_protected_unit_resists_at_its_cycles(self, result):
        row = result.scenario("ISE, protected path", "sbox")
        assert not row.broken
        assert row.rank > 10

    def test_cmos_writeback_leaks(self, result):
        assert result.scenario("ISE, CMOS writeback", "sbox").broken

    def test_surrounding_software_still_leaks(self, result):
        assert result.scenario("ISE, protected path", "full").broken

    def test_shared_top_score_is_not_broken(self):
        from repro.experiments.software_attack import ScenarioResult

        rho = np.zeros((256, 3))
        rho[[0x2B, 0x11], 1] = 0.7
        scenario = ScenarioResult.from_attack(
            "tie", "full", CPAResult(rho=rho, true_key=0x2B))
        assert scenario.rank == 0.5
        assert scenario.peak_rho == 0.7
        assert not scenario.broken
        rho[0x11, 1] = 0.6
        assert ScenarioResult.from_attack(
            "unique", "full", CPAResult(rho=rho, true_key=0x2B)).broken
