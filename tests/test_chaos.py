"""Chaos tests: runaway-solve budgets, ERC preflight, and crash-durable
result-store puts.

The fault-tolerance contract under test:

* runaway DC/transient solves stop at deterministic budgets with a
  structured :class:`BudgetExhaustedError` carrying diagnostics, and
  the exhaustion is visible in telemetry;
* the ERC rejects each class of malformed circuit with structured
  findings before any Newton iteration;
* result-store puts, which hold every checkpointed chunk, survive
  crashes (fsync before rename, directory fsync after), and a failed
  put leaves no temp file and never damages earlier entries.

Killed worker processes are the job service's to survive; its chaos
tests live in ``tests/test_service.py``.

Set ``REPRO_CHAOS_ARTIFACT=/path/out.jsonl`` to have the budget-exhaustion
run leave its validated failure-telemetry JSONL behind (CI uploads it).
"""

import json
import math
import os
import stat

import numpy as np
import pytest

from repro.cells import build_pg_mcml_library, preflight_library
from repro.cells.functions import function
from repro.cells.pgmcml import PgMcmlCellGenerator
from repro.errors import (
    BudgetExhaustedError,
    ConvergenceError,
    ErcError,
    ReproError,
)
from repro.faultinject import Fault, FaultInjector
from repro.obs import MemorySink, Telemetry, validate_stream
from repro.sca import AttackCampaign
from repro.service.store import ResultStore, chunk_key
from repro.spice import Circuit, DC, SolveBudget, UNLIMITED_BUDGET, \
    check_circuit, erc_preflight, run_transient, solve_dc
from repro.spice.devices import Mosfet, Resistor
from repro.spice.erc import erc_enabled
from repro.spice.recovery import _ENV_CACHE
from repro.synth import build_sbox_ise
from repro.units import ns, ps

KEY = 0x2B


@pytest.fixture(scope="module")
def library():
    """The PG-MCML library the campaign-start ERC tests build on."""
    return build_pg_mcml_library()


def _events(tele, name=None):
    records = [r for r in tele.sinks[0].records if r["kind"] == "event"]
    if name is None:
        return records
    return [r for r in records if r["name"] == name]


# -- solve budgets ------------------------------------------------------------


def _oscillating_divider(magnitude=5e-3):
    """A trivially solvable divider made unsolvable by an oscillate
    fault (residual inconsistent with Jacobian — no Newton converges)."""
    c = Circuit("osc")
    c.v("vdd", "vdd", 1.0)
    c.resistor("r1", "vdd", "n1", 1e3)
    c.resistor("r2", "n1", "0", 1e3)
    injector = FaultInjector(c, [Fault("r2", "oscillate",
                                       magnitude=magnitude)])
    injector.arm()
    return c, injector


class TestSolveBudgets:
    """Tentpole part 2: deterministic budgets on DC and transient."""

    def test_dc_newton_iteration_budget(self):
        circuit, _ = _oscillating_divider()
        with pytest.raises(BudgetExhaustedError) as info:
            solve_dc(circuit, budget=SolveBudget(max_newton_iterations=10))
        err = info.value
        assert err.error_code == "E_BUDGET_EXHAUSTED"
        assert err.context["scope"] == "dc"
        assert err.context["limit"] == "max_newton_iterations"
        assert err.diagnostics is not None
        assert err.diagnostics.budget_exhausted == "max_newton_iterations"
        json.dumps(err.to_dict())  # structured and serializable

    def test_dc_ladder_attempt_budget(self):
        circuit, _ = _oscillating_divider()
        with pytest.raises(BudgetExhaustedError) as info:
            solve_dc(circuit, budget=SolveBudget(max_ladder_attempts=2))
        assert info.value.context["limit"] == "max_ladder_attempts"
        assert len(info.value.diagnostics.attempts) == 2

    def test_unlimited_budget_still_plain_convergence_error(self):
        circuit, _ = _oscillating_divider()
        with pytest.raises(ConvergenceError) as info:
            solve_dc(circuit)
        assert not isinstance(info.value, BudgetExhaustedError)
        assert info.value.context.get("scope") == "dc"

    def test_budget_does_not_change_a_converging_solve(self):
        c = Circuit("div")
        c.v("vdd", "vdd", 1.0)
        c.resistor("r1", "vdd", "n1", 1e3)
        c.resistor("r2", "n1", "0", 1e3)
        free = solve_dc(c)
        capped = solve_dc(c, budget=SolveBudget(max_newton_iterations=100,
                                                max_ladder_attempts=4))
        assert free["n1"] == capped["n1"]

    def test_transient_step_budget(self):
        c = Circuit("rc")
        c.v("vin", "a", DC(1.0))
        c.resistor("r", "a", "b", 1e3)
        c.capacitor("cl", "b", "0", 1e-12)
        with pytest.raises(BudgetExhaustedError) as info:
            run_transient(c, tstop=ns(10), dt=ps(100),
                          budget=SolveBudget(max_transient_steps=5))
        err = info.value
        assert err.context["scope"] == "transient"
        assert err.context["limit"] == "max_transient_steps"
        assert err.context["steps_taken"] > 0

    def test_transient_rejection_budget(self):
        c = Circuit("rc")
        c.v("vin", "a", DC(1.0))
        c.resistor("r", "a", "b", 1e3)
        c.capacitor("cl", "b", "0", 1e-12)
        injector = FaultInjector(c, [
            Fault("r", "oscillate", t_start=ns(0.2), magnitude=5e-3)])
        with injector, pytest.raises(BudgetExhaustedError) as info:
            run_transient(c, tstop=ns(10), dt=ps(100),
                          on_step=injector.set_time,
                          budget=SolveBudget(max_transient_rejections=2))
        assert info.value.context["limit"] == "max_transient_rejections"

    def test_budget_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVE_BUDGET", raising=False)
        assert SolveBudget.from_env() is UNLIMITED_BUDGET
        monkeypatch.setenv("REPRO_SOLVE_BUDGET", "500")
        assert SolveBudget.from_env() == SolveBudget(
            max_newton_iterations=500)
        monkeypatch.setenv("REPRO_SOLVE_BUDGET",
                           "iters=50,attempts=2,rejections=3,steps=1000")
        assert SolveBudget.from_env() == SolveBudget(
            max_newton_iterations=50, max_ladder_attempts=2,
            max_transient_rejections=3, max_transient_steps=1000)

    def test_budget_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_BUDGET", "iters=-1")
        _ENV_CACHE.clear()
        with pytest.raises(ReproError):
            SolveBudget.from_env()
        _ENV_CACHE.clear()

    def test_budget_exhaustion_is_counted(self):
        circuit, _ = _oscillating_divider()
        tele = Telemetry(sinks=[MemorySink()])
        with pytest.raises(BudgetExhaustedError):
            solve_dc(circuit, budget=SolveBudget(max_newton_iterations=10),
                     telemetry=tele)
        assert tele.registry.counter("spice.budget.dc_exhausted").value == 1
        assert _events(tele, "spice.budget.exhausted")
        tele.emit_metrics()
        validate_stream(tele.sinks[0].records)

        artifact = os.environ.get("REPRO_CHAOS_ARTIFACT")
        if artifact:
            os.makedirs(os.path.dirname(artifact) or ".", exist_ok=True)
            with open(artifact, "w") as handle:
                for record in tele.sinks[0].records:
                    handle.write(json.dumps(record) + "\n")


# -- ERC ----------------------------------------------------------------------


class TestErcRules:
    """Tentpole part 3: every rule class catches its malformation."""

    def test_floating_node(self):
        c = Circuit("float")
        c.v("vs", "a", 1.0)
        c.resistor("r1", "a", "0", 1e3)
        c.capacitor("cf", "dangle", "a", 1e-15)
        report = check_circuit(c)
        assert [f.rule for f in report.findings] == ["floating-node"]
        assert report.findings[0].nodes == ("dangle",)
        assert "cf" in report.findings[0].devices

    def test_no_dc_path(self):
        c = Circuit("island")
        c.v("vs", "a", 1.0)
        c.resistor("r1", "a", "0", 1e3)
        c.capacitor("c1", "a", "x", 1e-15)
        c.resistor("r2", "x", "y", 1e3)
        c.capacitor("c2", "y", "0", 1e-15)
        report = check_circuit(c)
        assert [f.rule for f in report.findings] == ["no-dc-path"]
        assert report.findings[0].nodes == ("x", "y")

    def test_shorted_supply(self):
        c = Circuit("short")
        c.v("v1", "vdd", 1.2)
        c.resistor("rs", "vdd", "0", 1e-3)
        report = check_circuit(c)
        assert [f.rule for f in report.findings] == ["shorted-supply"]
        assert "rs" in report.findings[0].devices

    def test_rail_tie_resistor_is_not_a_short(self):
        # Constant cells tie an output leg to a rail through 1 Ω:
        # legal, and pinned here so SHORT_RESISTANCE stays below it.
        c = Circuit("tie")
        c.v("v1", "vdd", 1.2)
        c.resistor("rtie", "vdd", "0", 1.0)
        assert check_circuit(c).ok

    def test_duplicate_names(self):
        # The Circuit builder rejects duplicates eagerly, so the ERC
        # rule guards netlists assembled by direct list manipulation
        # (deserializers, generated code).
        c = Circuit("dup")
        c.v("vs", "a", 1.0)
        c.resistor("r1", "a", "0", 1e3)
        c.devices.append(Resistor("r1", "a", "0", 2e3))
        c.devices.append(Resistor("vs", "a", "0", 3e3))
        report = check_circuit(c)
        rules = [f.rule for f in report.findings]
        assert rules.count("duplicate-name") == 2

    def test_ungated_tail_and_missing_sleep(self):
        generator = PgMcmlCellGenerator()
        cell = generator.build(function("BUF"), erc=False)
        cell.circuit.devices[:] = [d for d in cell.circuit.devices
                                   if not d.name.endswith("_sleep")]
        with pytest.raises(ErcError) as info:
            generator.erc_check(cell)
        assert set(info.value.context["rules"]) == \
            {"missing-sleep", "ungated-tail"}
        assert info.value.error_code == "E_ERC"
        json.dumps(info.value.to_dict())

    def test_sleep_gate_tied_to_ground(self):
        generator = PgMcmlCellGenerator()
        cell = generator.build(function("BUF"), erc=False)
        devices = cell.circuit.devices
        for i, device in enumerate(devices):
            if device.name.endswith("_sleep"):
                # swap_device enforces identical terminals, so rewire
                # the gate by list surgery (what a buggy generator or
                # netlist deserializer would effectively do).
                devices[i] = Mosfet(device.name, device.drain, "0",
                                    device.source, device.bulk,
                                    device.model)
        with pytest.raises(ErcError) as info:
            generator.erc_check(cell)
        assert "missing-sleep" in info.value.context["rules"]

    def test_generator_build_runs_preflight_by_default(self):
        assert erc_enabled()
        cell = PgMcmlCellGenerator().build(function("NAND2"))
        assert cell.sleep_net is not None  # built and checked

    def test_env_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_ERC", "off")
        assert not erc_enabled()
        monkeypatch.setenv("REPRO_ERC", "on")
        assert erc_enabled()

    def test_campaign_start_runs_preflight(self, library):
        tele = Telemetry(sinks=[MemorySink()])
        AttackCampaign(library, KEY, telemetry=tele)
        assert tele.registry.counter("spice.erc.checks").value >= 3

    def test_campaign_erc_opt_out(self, library):
        tele = Telemetry(sinks=[MemorySink()])
        AttackCampaign(library, KEY, telemetry=tele, erc=False)
        assert tele.registry.counter("spice.erc.checks").value == 0

    def test_synthesis_runs_preflight(self, library, monkeypatch):
        calls = []
        monkeypatch.setattr("repro.synth.sbox_unit.preflight_library",
                            lambda lib, **kw: calls.append(lib))
        build_sbox_ise(library, n_sboxes=1)
        assert calls == [library]
        build_sbox_ise(library, n_sboxes=1, erc=False)
        assert calls == [library]

    def test_preflight_telemetry_on_failure(self):
        c = Circuit("bad")
        c.v("vs", "a", 1.0)
        c.resistor("r1", "a", "0", 1e3)
        c.capacitor("cf", "dangle", "a", 1e-15)
        tele = Telemetry(sinks=[MemorySink()])
        with pytest.raises(ErcError):
            erc_preflight(c, telemetry=tele)
        assert tele.registry.counter("spice.erc.failures").value == 1
        findings = _events(tele, "spice.erc.finding")
        assert findings and findings[0]["attrs"]["rule"] == "floating-node"

    def test_library_preflight_all_styles_clean(self):
        from repro.cells import build_cmos_library, build_mcml_library
        for build in (build_pg_mcml_library, build_mcml_library,
                      build_cmos_library):
            for report in preflight_library(build()):
                assert report.ok


# -- durable checkpoints ------------------------------------------------------


class TestDurableCheckpoint:
    """Every checkpointed chunk is one :class:`ResultStore` put."""

    def test_save_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        key = chunk_key({"k": 1}, 0)
        final = store._path(key)
        fsynced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            mode = os.fstat(fd).st_mode
            fsynced.append(("dir" if stat.S_ISDIR(mode) else "file",
                            os.path.exists(final)))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store.put(key, np.ones((2, 3)))
        # The temp file is flushed before the rename publishes it, then
        # the directory is flushed so the rename itself survives.
        assert fsynced == [("file", False), ("dir", True)]
        monkeypatch.undo()
        assert np.array_equal(store.get(key), np.ones((2, 3)))

    def test_failed_save_preserves_previous_checkpoint(self, tmp_path,
                                                       monkeypatch):
        store = ResultStore(tmp_path / "store")
        earlier = chunk_key({"k": 1}, 0)
        store.put(earlier, np.ones((2, 3)))

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", explode)
        with pytest.raises(OSError):
            store.put(chunk_key({"k": 1}, 1), np.ones((4, 3)))
        monkeypatch.undo()
        files = [os.path.join(root, name)
                 for root, _, names in os.walk(store.root)
                 for name in names]
        assert files == [store._path(earlier)]  # no temp file, no entry
        assert np.array_equal(store.get(earlier), np.ones((2, 3)))


# -- failure taxonomy ---------------------------------------------------------


def _all_subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out.add(sub)
        out |= _all_subclasses(sub)
    return out


class TestFailureTaxonomy:
    """Tentpole part 4: structured, serializable error codes everywhere."""

    def test_every_repro_error_has_a_code(self):
        import repro.errors  # noqa: F401 - registers the subclasses
        for cls in _all_subclasses(ReproError) | {ReproError}:
            code = cls.default_error_code
            assert code.startswith("E_"), cls

    def test_context_survives_to_dict(self):
        err = ConvergenceError("no luck", iterations=7,
                               residual=math.nan,
                               context={"scope": "dc", "arr": (1, 2)})
        payload = err.to_dict()
        assert payload["error_code"] == "E_CONVERGENCE"
        assert payload["iterations"] == 7
        assert payload["residual"] is None  # NaN is not JSON
        assert payload["context"]["arr"] == [1, 2]
        json.dumps(payload)

    def test_numpy_context_values_serialize(self):
        # Regression: np scalars/arrays land in contexts constantly
        # (trace indices, residuals) and json.dumps refuses both, which
        # used to crash JSONL sinks mid-post-mortem.
        err = ReproError("numpy-laden failure", context={
            "index": np.int64(7),
            "residual": np.float64(1.5),
            "nan": np.float64("nan"),
            "flag": np.bool_(True),
            "rows": np.arange(4.0).reshape(2, 2),
            "nested": {"worst": np.float32(2.5), "ranks": [np.int32(3)]},
        })
        payload = err.to_dict()
        json.dumps(payload)  # must not raise
        ctx = payload["context"]
        assert ctx["index"] == 7 and isinstance(ctx["index"], int)
        assert ctx["residual"] == 1.5 and isinstance(ctx["residual"], float)
        assert ctx["nan"] is None  # NaN is not JSON
        assert ctx["flag"] is True
        assert ctx["rows"] == [[0.0, 1.0], [2.0, 3.0]]
        assert ctx["nested"] == {"worst": 2.5, "ranks": [3]}

    def test_erc_report_round_trips_jsonl(self):
        c = Circuit("bad")
        c.v("vs", "a", 1.0)
        c.resistor("r1", "a", "0", 1e3)
        c.capacitor("cf", "dangle", "a", 1e-15)
        report = check_circuit(c)
        line = json.dumps(report.to_dict())
        back = json.loads(line)
        assert back["ok"] is False
        assert back["findings"][0]["rule"] == "floating-node"


class TestOpCacheFaultInjection:
    """The operating-point cache must never serve a faulted circuit.

    Content addressing is the invalidation mechanism: arming a
    :class:`FaultInjector` swaps real devices for :class:`FaultyDevice`
    proxies, whose class the fingerprint does not recognise — so an
    armed circuit bypasses the cache entirely (no stale hit, no
    poisoned store), and disarming restores the original content key.
    """

    def _bench(self):
        ckt = Circuit("opcache_fault")
        ckt.v("vs", "a", 1.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.resistor("r2", "b", "0", 1e3)
        return ckt

    def test_armed_faults_bypass_disarm_restores(self):
        from repro.spice import OperatingPointCache
        cache = OperatingPointCache()
        ckt = self._bench()
        baseline = solve_dc(ckt, op_cache=cache)
        assert cache.counters()["stores"] == 1

        injector = FaultInjector(ckt, [Fault("r2", "perturb",
                                             magnitude=1e-4)])
        with injector:
            faulted = solve_dc(ckt, op_cache=cache)
            # The proxy cannot be fingerprinted: bypass, not hit/store.
            assert cache.bypasses == 1
            assert cache.hits == 0
            assert len(cache) == 1
        assert faulted.voltages["b"] != pytest.approx(
            baseline.voltages["b"], rel=1e-6)

        restored = solve_dc(ckt, op_cache=cache)
        assert cache.hits == 1
        assert restored.voltages == baseline.voltages

    def test_swap_survivor_is_a_different_key(self):
        """A fault that permanently swaps a device value must miss."""
        from repro.spice import OperatingPointCache
        from repro.spice.devices import Resistor as R
        cache = OperatingPointCache()
        ckt = self._bench()
        solve_dc(ckt, op_cache=cache)
        ckt.swap_device("r2", R("r2", "b", "0", 2e3))
        solve_dc(ckt, op_cache=cache)
        assert cache.hits == 0 and cache.misses == 2 and len(cache) == 2
