"""Outside-in per-layer tracing for the benchmark's traced mode.

The traced run wraps the public entry points of each ``repro`` layer
from here, with no edits under ``src/``: every module attribute (and
``STYLE_BUILDERS`` entry) that is one of the wrapped functions is
swapped for a wrapper, and wrapped methods are swapped on their class.
Each wrapper opens a span on one :class:`repro.obs.Telemetry` handle, so
the program's own spans (``sca.campaign``, ``spice.dc.solve``, ...) —
which see the same handle where an API accepts ``telemetry=`` — nest
inside them and the whole stream validates against
:mod:`repro.obs.schema`.

Spans stay in memory; :func:`fold` turns them into self seconds per
layer.  Only the benchmark's own spans (names starting ``perfbench.``)
belong to a layer.  Program spans are transparent: their time counts
toward the nearest enclosing benchmark span.  Time inside a
``perfbench.bench.*`` span that no layer span covers is the
unattributed remainder.  The wrappers' count hooks run inside their
layer span and time themselves; the fold moves that time out of the
layer into ``obs.hook_s``, so layer seconds hold program time only.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import weakref
from collections import Counter
from typing import Callable, Dict, List, Optional

PREFIX = "perfbench."

#: Benchmark span name (without PREFIX) -> per-layer self-time metric.
LAYER_SELF = {
    "netlist.sim": "netlist.sim_s",
    "power.compose": "power.compose_s",
    "power.measure": "power.measure_s",
    "power.model": "power.model_s",
    "acquisition.init": "acquisition.init_s",
    "acquisition.acquire": "acquisition.self_s",
    "acquisition.pool": "acquisition.self_s",
    "sca.cpa": "sca.cpa_s",
    "sca.mtd": "sca.mtd_s",
    "sca.evolution": "sca.evolution_s",
    "sca.tvla": "sca.tvla_s",
    "sca.dpa": "sca.dpa_s",
    "sca.cpa2": "sca.cpa2_s",
    "sca.mlpa": "sca.mlpa_s",
    "matrix.run": "matrix.self_s",
    "cells.library": "cells.library_s",
    "cells.preflight": "cells.preflight_s",
    "synth.reduced_aes": "synth.reduced_aes_s",
    "cells.bias": "cells.bias_s",
    "cells.characterize": "cells.characterize_s",
    "cells.montecarlo": "cells.montecarlo_s",
    "service.ledger": "service.ledger_s",
    "service.fsync": "service.fsync_s",
    "service.store_put": "service.store_put_s",
    "service.store_get": "service.store_get_s",
    "service.build_acquirer": "service.build_acquirer_s",
    "service.gather": "service.gather_s",
    "service.queue": "service.self_s",
    "spice.dc": "spice.dc_s",
    "spice.transient": "spice.transient_s",
}

#: Benchmark-only spans (roots, phases, campaigns): their self time is
#: the part of the run no layer span covers.
UNATTRIBUTED = "obs.unattributed_s"
#: The count hooks' own seconds, carved out of the layer spans they ran
#: in; each hooked span records its hook time under HOOK_ATTR.
HOOKS = "obs.hook_s"
HOOK_ATTR = "perfbench_hook_s"

#: Counters the wrappers maintain (every one is reported, zero or not).
COUNTS = (
    "netlist.sim_calls", "power.compose_calls", "power.measure_traces",
    "acquisition.traces", "acquisition.distinct_inputs",
    "sca.cpa_calls", "sca.cpa_rows",
    "matrix.acquisitions", "matrix.reused",
    "cells.characterize_calls",
    "service.ledger_appends", "service.store_puts", "service.store_gets",
    "service.store_hits",
    "spice.dc_solves", "spice.newton_iters", "spice.transients",
    "spice.transient_steps", "spice.step_rejections",
)


def _layer(name: str) -> Optional[str]:
    if not name.startswith(PREFIX):
        return None
    return LAYER_SELF.get(name[len(PREFIX):], UNATTRIBUTED)


class Tracer:
    """Installs the layer wrappers and records spans and counts."""

    def __init__(self):
        from repro.obs import MemorySink, Telemetry

        self.sink = MemorySink()
        self.telemetry = Telemetry(sinks=[self.sink], progress=None)
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self._inputs: Dict[int, set] = {}
        self._dc_keys: set = set()
        self._dc_repeats = 0
        self._topologies: set = set()
        self._undo: List[Callable[[], None]] = []

    def span(self, name: str, **attrs):
        return self.telemetry.span(PREFIX + name, **attrs)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        span = self.telemetry.span
        full = PREFIX + name
        clock = time.monotonic  # the clock spans are stamped with

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(full) as sp:
                result = fn(*args, **kwargs)
                if after is not None:
                    t0 = clock()
                    after(sp, args, kwargs, result)
                    sp.set(HOOK_ATTR, clock() - t0)
            return result

        return wrapper

    def _patch_function(self, fn, name: str, after=None) -> None:
        """Swap ``fn`` everywhere a ``repro`` module holds it."""
        wrapper = self._wrap(fn, name, after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                elif isinstance(value, dict) and attr.isupper():
                    for key, item in list(value.items()):
                        if item is fn:
                            self._set_item(value, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, self._wrap(vars(cls)[attr], name, after))

    def _set(self, owner, attr, value) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _set_item(self, mapping, key, value) -> None:
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- count hooks -------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] += int(n)

    def _after_acquire(self, sp, args, kwargs, rows) -> None:
        acquirer, plaintexts = args[0], list(args[1])
        self._count("acquisition.traces", len(plaintexts))
        key = id(acquirer)
        seen = self._inputs.get(key)
        if seen is None:
            # Dropped when the acquirer dies: a later acquirer may reuse
            # its id, and its inputs must count as new.
            seen = self._inputs[key] = set()
            weakref.finalize(acquirer, self._inputs.pop, key, None)
        before = len(seen)
        seen.update(int(p) for p in plaintexts)
        self._count("acquisition.distinct_inputs", len(seen) - before)
        sp.set("traces", len(plaintexts))

    def _after_cpa(self, sp, args, kwargs, result) -> None:
        rows = len(args[0])
        self._count("sca.cpa_calls")
        self._count("sca.cpa_rows", rows)
        sp.set("rows", rows)

    def _after_characterize(self, sp, args, kwargs, result) -> None:
        self._count("cells.characterize_calls")
        sp.set("characterisation", args[0].name)

    def _after_matrix(self, sp, args, kwargs, report) -> None:
        self._count("matrix.acquisitions", report.acquisitions)
        self._count("matrix.reused", report.acquisitions_reused)

    def _after_store_get(self, sp, args, kwargs, rows) -> None:
        self._count("service.store_gets")
        if rows is not None:
            self._count("service.store_hits")
        sp.set("hit", rows is not None)

    def _after_claim(self, sp, args, kwargs, lease) -> None:
        if lease is not None:
            sp.set("job", lease.job_id)
            sp.set("chunk", lease.chunk)

    def _after_dc(self, signature, opcache):
        def after(sp, args, kwargs, op) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = bound.arguments
            system = values.get("system")
            key = opcache.fingerprint(
                values["circuit"], values["t"], values.get("guess"),
                system.assembly if system is not None else "default")
            self._count("spice.dc_solves")
            diagnostics = getattr(op, "diagnostics", None)
            if diagnostics is not None:
                self._count("spice.newton_iters",
                            diagnostics.total_iterations)
            if key is not None:
                if key in self._dc_keys:
                    self._dc_repeats += 1
                self._dc_keys.add(key)
        return after

    def _after_transient(self, sp, args, kwargs, result) -> None:
        circuit = args[0] if args else kwargs["circuit"]
        topology = (
            tuple((type(d).__name__, tuple(d.terminals))
                  for d in circuit.devices),
            tuple(sorted(s.node for s in circuit.vsources)))
        self._topologies.add(hash(topology))
        stats = result.stats
        self._count("spice.transients")
        self._count("spice.transient_steps", stats.steps_taken)
        self._count("spice.step_rejections", stats.newton_failures)
        sp.set("steps", stats.steps_taken)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import repro.cells as cells
        import repro.cells.characterize as characterize
        import repro.cells.montecarlo as montecarlo
        import repro.netlist.logicsim as logicsim
        import repro.power as power
        import repro.power.preprocess as preprocess
        import repro.sca.acquisition as acquisition
        import repro.sca.attack as attack
        import repro.sca.cpa as cpa
        import repro.sca.dpa as dpa
        import repro.sca.evolution as evolution
        import repro.sca.highorder as highorder
        import repro.sca.matrix as matrix
        import repro.sca.metrics as metrics
        import repro.sca.ttest as ttest
        import repro.service as service
        import repro.spice.dc as dc
        import repro.spice.transient as transient
        from repro.spice.opcache import OperatingPointCache

        count = self._count
        for attr in ("run", "initialize"):
            self._patch_method(logicsim.LogicSimulator, attr, "netlist.sim",
                               lambda *a: count("netlist.sim_calls"))
        for fn in (power.activity_current, power.wddl_current):
            self._patch_function(fn, "power.compose",
                                 lambda *a: count("power.compose_calls"))
        self._patch_method(power.MeasurementChain, "measure",
                           "power.measure",
                           lambda *a: count("power.measure_traces"))
        self._patch_method(
            power.MeasurementChain, "measure_block", "power.measure",
            lambda sp, args, kw, rows: count("power.measure_traces",
                                             len(rows)))
        self._patch_method(power.BlockPowerModel, "__init__", "power.model")
        for fn in (power.differential_baseline, power.wddl_baseline):
            self._patch_function(fn, "power.model")

        self._patch_method(acquisition.TraceAcquirer, "__init__",
                           "acquisition.init")
        self._patch_method(acquisition.TraceAcquirer, "acquire",
                           "acquisition.acquire", self._after_acquire)
        self._patch_method(acquisition.AcquisitionPool, "acquire",
                           "acquisition.pool")

        self._patch_function(cpa.cpa_attack, "sca.cpa", self._after_cpa)
        self._patch_function(metrics.mtd, "sca.mtd")
        self._patch_function(evolution.cpa_evolution, "sca.evolution")
        self._patch_function(ttest.fixed_vs_random_tvla, "sca.tvla")
        self._patch_function(ttest.welch_t, "sca.tvla")
        self._patch_function(dpa.multibit_dpa_attack, "sca.dpa")
        self._patch_function(preprocess.standardize, "sca.dpa")
        self._patch_function(highorder.second_order_cpa, "sca.cpa2")
        self._patch_function(highorder.mlpa_attack, "sca.mlpa")
        self._patch_function(matrix.run_matrix, "matrix.run",
                             self._after_matrix)

        for fn in (cells.build_cmos_library, cells.build_mcml_library,
                   cells.build_pg_mcml_library, cells.build_wddl_library,
                   cells.library_at_corner):
            self._patch_function(fn, "cells.library")
        self._patch_function(cells.preflight_library, "cells.preflight")
        self._patch_function(attack.build_reduced_aes, "synth.reduced_aes")
        self._patch_function(cells.solve_bias, "cells.bias")
        for fn in (characterize.characterize_mcml_cell,
                   characterize.measure_leakage):
            self._patch_function(fn, "cells.characterize",
                                 self._after_characterize)
        for fn in (montecarlo.mc_buffer_residual,
                   montecarlo.mc_input_offset):
            self._patch_function(fn, "cells.montecarlo")

        self._patch_method(service.JobLedger, "append", "service.ledger",
                           lambda *a: count("service.ledger_appends"))
        self._patch_method(service.JobLedger, "refresh", "service.ledger")
        self._patch_method(service.ResultStore, "put", "service.store_put",
                           lambda *a: count("service.store_puts"))
        self._patch_method(service.ResultStore, "get", "service.store_get",
                           self._after_store_get)
        self._patch_method(service.CampaignJobSpec, "build_acquirer",
                           "service.build_acquirer")
        self._patch_method(service.JobQueue, "gather", "service.gather")
        self._patch_method(service.JobQueue, "claim", "service.queue",
                           self._after_claim)
        for attr in ("submit", "complete", "heartbeat", "jobs"):
            self._patch_method(service.JobQueue, attr, "service.queue")
        self._patch_method(service.ServiceWorker, "run_once",
                           "service.queue")
        # Only the service fsyncs (ledger appends, store puts), so the
        # process-wide os.fsync is its boundary.
        self._set(os, "fsync", self._wrap(os.fsync, "service.fsync"))

        self._patch_function(
            dc.solve_dc, "spice.dc",
            self._after_dc(inspect.signature(dc.solve_dc),
                           OperatingPointCache()))
        self._patch_function(transient.run_transient, "spice.transient",
                             self._after_transient)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Counts plus folded self seconds, keyed by metric name."""
        values: Dict[str, float] = dict(self.counts)
        values["spice.transient_topologies"] = len(self._topologies)
        traces = values["acquisition.traces"]
        values["acquisition.repeat_share"] = (
            1.0 - values["acquisition.distinct_inputs"] / traces
            if traces else 0.0)
        solves = values["spice.dc_solves"]
        values["spice.dc_repeat_share"] = (
            self._dc_repeats / solves if solves else 0.0)
        values.update(fold(self.sink.records))
        return values

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.sink.records:
                fh.write(json.dumps(record, sort_keys=True, default=str))
                fh.write("\n")


def fold(records) -> Dict[str, float]:
    """Self seconds per layer metric, the hooks' seconds, and the
    unattributed remainder.

    A benchmark span's self time is its duration minus the durations of
    its nearest benchmark-span descendants (program spans in between
    are skipped over) and minus its count hook's time, which goes to
    ``obs.hook_s``.  Every layer metric is present, zero or not.
    """
    spans = {r["span_id"]: r for r in records if r.get("kind") == "span"}
    totals = dict.fromkeys(
        set(LAYER_SELF.values()) | {UNATTRIBUTED, HOOKS}, 0.0)
    for span in spans.values():
        layer = _layer(span["name"])
        if layer is None:
            continue
        duration = span["t_end"] - span["t_start"]
        hook = span["attrs"].get(HOOK_ATTR, 0.0)
        totals[layer] += duration - hook
        totals[HOOKS] += hook
        parent = span.get("parent_id")
        while parent is not None and _layer(spans[parent]["name"]) is None:
            parent = spans[parent].get("parent_id")
        if parent is not None:
            totals[_layer(spans[parent]["name"])] -= duration
    return {name: max(0.0, value) for name, value in totals.items()}
