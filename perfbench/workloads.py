"""The benchmark's two workloads, their parts, set-up and gates.

A workload is two parts run one after the other in one process:
``paper-long`` is the paper's own evaluation (long Fig. 6 CPA and TVLA
campaigns, then the SPICE characterisation behind Fig. 3 and Table 2),
``grid-service`` is many fresh dies (a ``run_matrix`` grid, then a job
set drained through the job service and replayed).  Every part turns
``(seed, seconds)`` into a plan of inputs, warms up on throwaway inputs,
times its set-up calls (several times between its timed blocks, keeping
the median) apart from its timed items, and checks its outputs outside
the timed region.  The work a plan asks for is sized so that one run
measures about ``seconds`` of items on a 2-vCPU host; the same
``(seed, seconds)`` always asks for the same work, so per-layer counts
repeat exactly.

Each part drives the public entry points the real targets call
(``AttackCampaign``, ``run_matrix``, the job service, the
characterisation experiments), always with the serial acquisition
backend.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
import zlib
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Seconds the full-size part plans are calibrated for; a workload runs
#: each of its two parts at half its ``--seconds``.
PART_SECONDS = 20.0
#: ``--seconds`` of a nominal run, the length ``BENCHMARK.json`` names.
NOMINAL_SECONDS = 40.0
#: The default seed and the held-out seed (used for no tuning); the
#: reference commits each workload's result digest for both.
DEFAULT_SEED = 0
HELD_OUT_SEED = 4242
#: Key bytes stay fixed across seeds: a TVLA fixed class simulates
#: S-box input = key on half its traces, and that event cost varies 5x
#: with the key, so a seed-drawn key would move ``items_per_s`` alone.
FIG6_KEY = 0x2B  # the paper's Fig. 6 key
GRID_KEY = 0x3C  # the MatrixSpec and CampaignJobSpec default

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def derive_rng(seed: int, *parts) -> np.random.Generator:
    """A generator keyed by the benchmark seed and a label path."""
    words = [int(seed) & 0xFFFFFFFF]
    words += [zlib.crc32(repr(p).encode("utf-8")) for p in parts]
    return np.random.default_rng(words)


def scaled(full: int, seconds: float, minimum: int = 1) -> int:
    """``full`` units at the nominal part length, scaled to ``seconds``."""
    return max(minimum, int(round(full * seconds / PART_SECONDS)))


def load_reference() -> Dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def committed_digest(workload: str, seed: int,
                     seconds: float) -> Optional[str]:
    """The committed result digest of a nominal-length run, if any."""
    if seconds != NOMINAL_SECONDS:
        return None
    return load_reference().get("digests", {}).get(workload, {}).get(
        str(seed))


class Clock:
    """Timed-item seconds plus the set-up samples of one run.

    Each set-up step runs ``setup_repeats`` times where the workload
    sets it up, and as many times again at every :meth:`resample`, which
    the workloads call between their timed blocks and after the last.
    A step's median thus samples the host across the whole run, as the
    items do, instead of at one or two moments.  A clock with one repeat
    (traced runs, warm-ups) sets up once and never resamples.
    """

    def __init__(self, setup_repeats: int):
        self.setup_repeats = setup_repeats
        self.timed_s = 0.0
        self.setup_samples: List[List[float]] = []
        self._builds: List[Tuple] = []

    @contextmanager
    def timed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timed_s += time.perf_counter() - t0

    def setup(self, build):
        """Time ``build`` ``setup_repeats`` times; keep the last result."""
        samples: List[float] = []
        self.setup_samples.append(samples)
        self._builds.append((build, samples))
        return self._sample(build, samples)

    def resample(self) -> None:
        """Time every set-up step so far again, between timed blocks."""
        if self.setup_repeats > 1:
            for build, samples in self._builds:
                self._sample(build, samples)

    def _sample(self, build, samples: List[float]):
        result = None
        for _ in range(self.setup_repeats):
            gc.collect()
            t0 = time.perf_counter()
            result = build()
            samples.append(time.perf_counter() - t0)
        return result

    @property
    def setup_s(self) -> float:
        """Sum over set-up steps of each step's median sample."""
        return sum(statistics.median(s) for s in self.setup_samples)


class Gate:
    """Operations attempted and the ids of those that failed a check."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failures: List[str] = []

    def fail(self, op_id: str) -> None:
        if op_id not in self.failures:
            self.failures.append(op_id)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _span(tracer, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


def _telemetry(tracer):
    return tracer.telemetry if tracer is not None else None


def _resample(clock: Clock, tracer, workload: str) -> None:
    with _span(tracer, "bench.setup", workload=workload):
        clock.resample()


def clear_program_caches() -> None:
    """Empty the program's process-wide memo of bias solves (keyed by
    tail current), so one measured pass cannot speed up the next."""
    from repro.cells import bias

    bias._CACHE.clear()


def _rows_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row byte equality of two float matrices (none if shapes differ)."""
    if a.shape != b.shape:
        return np.zeros(len(a), dtype=bool)
    a = np.ascontiguousarray(a).view(np.uint8)
    b = np.ascontiguousarray(b).view(np.uint8)
    return (a == b).all(axis=1)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- fig6-long ----------------------------------------------------------------

class Fig6Long:
    """Long Fig. 6 CPA campaigns plus equally long TVLA, one die a style."""

    name = "fig6-long"
    styles = ("cmos", "mcml", "pgmcml")
    #: Traces per style per campaign at the nominal run length: 3.5
    #: traces per plaintext byte on average.  Short runs keep at least
    #: 512, enough for CMOS to be recovered and TVLA to flag every style.
    full_traces = 896
    min_traces = 512
    step = 32
    sample = 16
    #: A protected style counts as recovered only when its true-key peak
    #: clears the best wrong guess by this factor: a buried key still
    #: ranks first by chance once in 256 dies, and that must not fail.
    recovery_margin = 1.25

    def plan(self, seed: int, seconds: float, pass_index: int = 0) -> Dict:
        rng = derive_rng(seed, self.name, pass_index)
        n = 64 * scaled(self.full_traces // 64, seconds,
                        minimum=self.min_traces // 64)
        per_style = {}
        for style in self.styles:
            per_style[style] = {
                "die": int(rng.integers(2 ** 31)),
                "chain_seed": int(rng.integers(2 ** 31)),
                "tvla_seed": int(rng.integers(2 ** 31)),
                "plaintexts": [int(x) for x in rng.integers(0, 256, n)],
                "sample_at": self.sample * int(rng.integers(n // self.sample)),
            }
        return {"seed": seed, "n": n, "key": FIG6_KEY, "styles": per_style}

    def warmup(self) -> None:
        plan = self.plan(0x5EED, 0.0, pass_index=-1)
        plan["n"] = 32
        for entry in plan["styles"].values():
            entry["plaintexts"] = entry["plaintexts"][:32]
            entry["sample_at"] = 0
        self.execute(plan, Clock(1), None)

    def execute(self, plan: Dict, clock: Clock, tracer) -> Tuple[Dict, int]:
        from repro.power import MeasurementChain
        from repro.sca import AttackCampaign, cpa_evolution, \
            fixed_vs_random_tvla, mtd
        from repro.sca.attack import build_reduced_aes
        from repro.sca.matrix import STYLE_BUILDERS

        tele = _telemetry(tracer)
        key, n = plan["key"], plan["n"]

        def build():
            made = {}
            for style, entry in plan["styles"].items():
                chain = MeasurementChain(seed=entry["chain_seed"])
                campaign = AttackCampaign(STYLE_BUILDERS[style](), key,
                                          chain=chain,
                                          mismatch_seed=entry["die"],
                                          telemetry=tele)
                netlist, _ = build_reduced_aes(STYLE_BUILDERS[style]())
                made[style] = (campaign, netlist, chain)
            return made

        with _span(tracer, "bench.setup", workload=self.name):
            made = clock.setup(build)
        outputs: Dict[str, Dict] = {}
        items = 0
        for style, entry in plan["styles"].items():
            campaign, netlist, chain = made[style]
            pts = entry["plaintexts"]
            with _span(tracer, "bench.campaign",
                       campaign=f"{self.name}/{plan['seed']}/{style}/cpa"):
                with clock.timed():
                    result = campaign.run(pts, with_dpa=True)
                    disclosed = mtd(result.traces, result.plaintexts, key,
                                    step=self.step)
                    evolution = cpa_evolution(result.traces,
                                              result.plaintexts, key,
                                              step=self.step)
            _resample(clock, tracer, self.name)
            with _span(tracer, "bench.campaign",
                       campaign=f"{self.name}/{plan['seed']}/{style}/tvla"):
                with clock.timed():
                    tvla = fixed_vs_random_tvla(
                        netlist, key, n_traces=n, chain=chain,
                        mismatch_seed=entry["die"], seed=entry["tvla_seed"],
                        telemetry=tele)
            _resample(clock, tracer, self.name)
            items += 2 * n
            at = entry["sample_at"]
            outputs[style] = {
                "netlist": campaign.netlist, "chain": chain,
                "sampled": result.traces[at:at + self.sample].copy(),
                "rank": float(result.rank),
                "tie_width": result.cpa.best_guess_tie_width(),
                "margin": result.cpa.distinguishability(),
                "mtd": disclosed,
                "evolution_rank": float(evolution.final_rank()),
                "tvla_leaks": bool(tvla.leaks),
            }
        return outputs, items

    def checked_arrays(self, plan: Dict, outputs: Dict) -> List[np.ndarray]:
        """Outputs the gate compares byte for byte (self-test hook)."""
        return [outputs[style]["sampled"] for style in self.styles]

    def check(self, plan: Dict, outputs: Dict) -> Gate:
        from repro.sca.acquisition import acquire_traces

        gate = Gate(attempted=2 * plan["n"] * len(self.styles))
        for style, entry in plan["styles"].items():
            out = outputs[style]
            at = entry["sample_at"]
            pts = entry["plaintexts"][at:at + self.sample]
            oracle = acquire_traces(out["netlist"], plan["key"], pts,
                                    chain=out["chain"],
                                    mismatch_seed=entry["die"],
                                    trace_offset=at)
            for row in np.flatnonzero(~_rows_equal(out["sampled"], oracle)):
                gate.fail(f"{style}/trace/{at + int(row)}")
            if style == "cmos":
                as_paper = out["rank"] == 0.0 and out["tie_width"] == 1
            else:
                as_paper = out["margin"] < self.recovery_margin
            if not as_paper:
                gate.fail(f"{style}/cpa-verdict")
            if not out["tvla_leaks"]:
                gate.fail(f"{style}/tvla-verdict")
        return gate

    def digest(self, outputs: Dict) -> str:
        return _digest({s: [o["rank"], o["tie_width"], o["mtd"],
                            o["evolution_rank"], o["tvla_leaks"]]
                        for s, o in outputs.items()})


# -- grid-many-dies -----------------------------------------------------------

class GridManyDies:
    """All four styles x four attacks x two corners over many dies."""

    name = "grid-many-dies"
    styles = ("cmos", "mcml", "pgmcml", "wddl")
    attacks = ("cpa", "dpa", "cpa2", "mlpa")
    corners = ("tt", "ff")
    budget = 128
    full_repeats = 4

    def plan(self, seed: int, seconds: float, pass_index: int = 0) -> Dict:
        rng = derive_rng(seed, self.name, pass_index)
        return {
            "spec": {"styles": list(self.styles),
                     "attacks": list(self.attacks),
                     "corners": list(self.corners),
                     "budgets": [self.budget],
                     "repeats": scaled(self.full_repeats, seconds),
                     "key": GRID_KEY,
                     "base_seed": int(rng.integers(2 ** 31))},
            "oracle": (self.styles[int(rng.integers(len(self.styles)))],
                       self.corners[int(rng.integers(len(self.corners)))]),
        }

    def warmup(self) -> None:
        plan = self.plan(0x5EED, 0.0, pass_index=-1)
        plan["spec"]["budgets"] = [16]
        self.execute(plan, Clock(1), None)

    def execute(self, plan: Dict, clock: Clock, tracer) -> Tuple[Dict, int]:
        from repro.cells import library_at_corner, preflight_library
        from repro.sca.attack import build_reduced_aes
        from repro.sca.matrix import STYLE_BUILDERS, MatrixSpec, run_matrix
        from repro.tech import corner

        # run_matrix takes no pre-built library, so this set-up is a
        # proxy: it times the builds run_matrix then repeats lazily inside
        # the timed region, and throws its own results away.
        def build():
            spec = MatrixSpec.from_dict(plan["spec"])
            for style in spec.styles:
                base = STYLE_BUILDERS[style]()
                preflight_library(base, telemetry=_telemetry(tracer))
                for name in spec.corners:
                    build_reduced_aes(library_at_corner(base, corner(name)))
            return spec

        with _span(tracer, "bench.setup", workload=self.name):
            spec = clock.setup(build)
        with _span(tracer, "bench.campaign",
                   campaign=f"{self.name}/{spec.base_seed}"):
            with clock.timed():
                report = run_matrix(spec, telemetry=_telemetry(tracer),
                                    workers=1, backend="serial")
        _resample(clock, tracer, self.name)
        cells = {f"{c.cell.style}/{c.cell.attack}/{c.cell.corner}": c
                 for c in report.cells}
        outputs = {
            "cells": cells,
            "ranks": {name: np.array(c.ranks, dtype=float)
                      for name, c in cells.items()},
        }
        return outputs, report.acquisitions * spec.budgets[0]

    def checked_arrays(self, plan: Dict, outputs: Dict) -> List[np.ndarray]:
        style, corner_name = plan["oracle"]
        return [outputs["ranks"][f"{style}/{attack}/{corner_name}"]
                for attack in self.attacks]

    def check(self, plan: Dict, outputs: Dict) -> Gate:
        from repro.cells import library_at_corner
        from repro.power import MeasurementChain
        from repro.power.preprocess import standardize
        from repro.sca.acquisition import acquire_traces
        from repro.sca.attack import build_reduced_aes
        from repro.sca.cpa import cpa_attack
        from repro.sca.dpa import multibit_dpa_attack
        from repro.sca.highorder import mlpa_attack, second_order_cpa
        from repro.sca.matrix import (STYLE_BUILDERS, derive_chain_seed,
                                      derive_mismatch_seed, derive_plaintexts)
        from repro.tech import corner

        spec = plan["spec"]
        gate = Gate(attempted=len(outputs["cells"]))
        for name, cell in outputs["cells"].items():
            if cell.error_code is not None or not cell.ok:
                gate.fail(name)
        # Oracle: die 0 of one (style, corner), acquired in-process from
        # the public derivations and attacked by every grid attack.
        style, corner_name = plan["oracle"]
        base_seed, key = spec["base_seed"], spec["key"]
        cell = outputs["cells"][f"{style}/cpa/{corner_name}"].cell
        pts = derive_plaintexts(base_seed, style, corner_name, cell.budget,
                                cell.schedule, 0)
        netlist, _ = build_reduced_aes(library_at_corner(
            STYLE_BUILDERS[style](), corner(corner_name)))
        traces = acquire_traces(
            netlist, key, pts,
            chain=MeasurementChain(
                noise_sigma=cell.noise,
                seed=derive_chain_seed(base_seed, cell.trace_key(0))),
            mismatch_seed=derive_mismatch_seed(base_seed, style,
                                               corner_name, 0))
        attacks = {
            "cpa": lambda: cpa_attack(traces, pts, true_key=key),
            "dpa": lambda: multibit_dpa_attack(standardize(traces), pts,
                                               true_key=key),
            "cpa2": lambda: second_order_cpa(traces, pts, true_key=key),
            "mlpa": lambda: mlpa_attack(traces, pts, true_key=key),
        }
        for attack, run in attacks.items():
            name = f"{style}/{attack}/{corner_name}"
            ranks = outputs["ranks"][name]
            if not len(ranks) or ranks[0] != float(run().rank_of_true_key()):
                gate.fail(name)
        return gate

    def digest(self, outputs: Dict) -> str:
        return _digest({name: [c.guessing_entropy, c.success_rate, c.mtd]
                        for name, c in outputs["cells"].items()})


# -- service-drain ------------------------------------------------------------

class ServiceDrain:
    """Cold drain of a job set through one in-process worker, then a
    crash-replay pass served entirely from the result store."""

    name = "service-drain"
    styles = ("cmos", "pgmcml")
    budget = 128
    #: Small enough that fsync'd ledger appends and NPZ puts are a visible
    #: share of the cold pass; 8-trace chunks doubled the fsyncs and made
    #: every run hostage to the host's I/O steal.
    chunk_size = 16
    full_repeats = 11

    def __init__(self, workdir: str):
        self.workdir = workdir

    def plan(self, seed: int, seconds: float, pass_index: int = 0) -> Dict:
        rng = derive_rng(seed, self.name, pass_index)
        repeats = scaled(self.full_repeats, seconds)
        n_jobs = 2 * len(self.styles) * repeats
        n_chunks = self.budget // self.chunk_size
        return {
            "grid": {"styles": list(self.styles),
                     "attacks": ["cpa", "tvla"], "budgets": [self.budget],
                     "repeats": repeats, "key": GRID_KEY,
                     "base_seed": int(rng.integers(2 ** 31))},
            "sampled_chunks": [int(c) for c in
                               rng.integers(0, n_chunks, n_jobs)],
        }

    def warmup(self) -> None:
        plan = self.plan(0x5EED, 0.0, pass_index=-1)
        plan["grid"]["budgets"] = [16]
        plan["grid"]["styles"] = ["cmos"]
        self.execute(plan, Clock(1), None)

    def execute(self, plan: Dict, clock: Clock, tracer) -> Tuple[Dict, int]:
        from repro.sca.cpa import cpa_attack
        from repro.sca.matrix import MatrixSpec
        from repro.sca.ttest import welch_t
        from repro.service import (JobLedger, JobQueue, ResultStore,
                                   ServiceWorker, expand_matrix)

        tele = _telemetry(tracer)
        os.makedirs(self.workdir, exist_ok=True)
        run_dir = tempfile.mkdtemp(prefix="drain-", dir=self.workdir)
        store_root = os.path.join(run_dir, "store")
        ledgers: List = []

        def open_queue(specs):
            ledger = JobLedger(os.path.join(
                tempfile.mkdtemp(prefix="ledger-", dir=run_dir),
                "ledger.jsonl"))
            ledgers.append(ledger)
            queue = JobQueue(ledger, ResultStore(store_root), telemetry=tele)
            return queue, [queue.submit(spec)[0] for spec in specs]

        def build_cold():
            specs = expand_matrix(MatrixSpec.from_dict(plan["grid"]),
                                  chunk_size=self.chunk_size)
            return specs, open_queue(specs)

        try:
            with _span(tracer, "bench.setup", workload=self.name,
                       phase="cold"):
                specs, (queue, job_ids) = clock.setup(build_cold)
            outputs = {"specs": specs, "cold": [], "replay": []}
            job_set = f"{self.name}/{plan['grid']['base_seed']}"
            with _span(tracer, "bench.campaign", campaign=f"{job_set}/cold"):
                with clock.timed():
                    ServiceWorker(queue, worker_id="cold",
                                  telemetry=tele).run(drain=True)
                    for spec, job_id in zip(specs, job_ids):
                        traces = queue.gather(job_id)
                        if spec.schedule == "tvla":
                            welch_t(traces[0::2], traces[1::2])
                        else:
                            cpa_attack(traces, spec.plaintexts(),
                                       true_key=spec.key)
                        outputs["cold"].append(traces)
            _resample(clock, tracer, self.name)
            with _span(tracer, "bench.setup", workload=self.name,
                       phase="replay"):
                queue, job_ids = clock.setup(lambda: open_queue(specs))
            with _span(tracer, "bench.campaign",
                       campaign=f"{job_set}/replay"):
                with clock.timed():
                    ServiceWorker(queue, worker_id="replay",
                                  telemetry=tele).run(drain=True)
                    outputs["replay"] = [queue.gather(job_id)
                                         for job_id in job_ids]
            _resample(clock, tracer, self.name)
        finally:
            for ledger in ledgers:
                ledger.close()
            shutil.rmtree(run_dir, ignore_errors=True)
        items = sum(len(t) for t in outputs["cold"] + outputs["replay"])
        return outputs, items

    def checked_arrays(self, plan: Dict, outputs: Dict) -> List[np.ndarray]:
        return outputs["cold"] + outputs["replay"]

    def check(self, plan: Dict, outputs: Dict) -> Gate:
        from repro.cells import library_at_corner
        from repro.sca.acquisition import TraceAcquirer
        from repro.sca.attack import build_reduced_aes
        from repro.sca.matrix import STYLE_BUILDERS
        from repro.tech import corner

        specs = outputs["specs"]
        gate = Gate(attempted=2 * sum(s.n_chunks for s in specs))
        netlists: Dict[Tuple[str, str], object] = {}
        for j, spec in enumerate(specs):
            cold, replay = outputs["cold"][j], outputs["replay"][j]
            where = (spec.style, spec.corner)
            if where not in netlists:
                netlists[where], _ = build_reduced_aes(library_at_corner(
                    STYLE_BUILDERS[spec.style](), corner(spec.corner)))
            chunk = plan["sampled_chunks"][j]
            start, stop = spec.chunk_bounds(chunk)
            oracle = TraceAcquirer(
                netlists[where], spec.key, chain=spec.chain(),
                mismatch_seed=spec.mismatch_seed()).acquire(
                    spec.chunk_plaintexts(chunk), trace_offset=start)
            if not _rows_equal(cold[start:stop], oracle).all():
                gate.fail(f"{spec.job_id}/{chunk}")
            same = _rows_equal(cold, replay)
            for index in range(spec.n_chunks):
                lo, hi = spec.chunk_bounds(index)
                if not same[lo:hi].all():
                    gate.fail(f"{spec.job_id}/{index}")
        return gate

    def digest(self, outputs: Dict) -> str:
        h = hashlib.sha256()
        for traces in outputs["cold"]:
            h.update(np.ascontiguousarray(traces).tobytes())
        return h.hexdigest()[:16]


# -- characterize-spice -------------------------------------------------------

#: Fig. 3 tail currents a plan draws from (µA); the reference holds all.
ISS_POOL_UA = (10, 20, 35, 50, 75, 100, 150, 250, 400)
#: Combinational PG-MCML cells characterised for Table 2.
TABLE2_CELLS = ("BUF", "DIFF2SINGLE", "AND2", "AND3", "AND4", "MUX2",
                "MUX4", "MAJ32", "XOR2", "XOR3", "XOR4", "FA")
#: Monte Carlo base seeds a plan draws from; the reference holds all.
MC_POOL = tuple(range(16))
MC_RESIDUALS = 48
MC_OFFSETS = 24
#: ``|value - reference| <= max(REL_TOL * |reference|, ABS_TOL[unit])``:
#: tight enough that a changed model or stimulus fails, loose enough for
#: a solver that reaches the same answer in a different summation order.
#: The ampere floor is twice the Newton residual tolerance (1e-11 A).
REL_TOL = 1e-6
ABS_TOL = {"s": 1e-18, "V": 1e-6, "A": 2e-11}


class CharacterizeSpice:
    """Transistor-level characterisation behind Table 2 and Fig. 3."""

    name = "characterize-spice"

    def plan(self, seed: int, seconds: float, pass_index: int = 0) -> Dict:
        # A full-size plan runs every pooled tail current and cell: the
        # cost of one Fig. 3 point varies 1.5x with its current, so a
        # seed-drawn subset would move items_per_s from seed to seed.
        # Shorter plans draw their subset from the seed alone, so the
        # traced run's comparison pass (another pass_index) solves the
        # same bias points on other Monte Carlo dies.
        n_points = min(len(ISS_POOL_UA), scaled(len(ISS_POOL_UA), seconds))
        points = derive_rng(seed, self.name).choice(
            len(ISS_POOL_UA), size=n_points, replace=False)
        n_cells = min(len(TABLE2_CELLS), scaled(len(TABLE2_CELLS), seconds))
        rng = derive_rng(seed, self.name, pass_index)
        return {
            "iss_ua": [ISS_POOL_UA[int(i)] for i in sorted(points)],
            "cells": list(TABLE2_CELLS[:n_cells]),
            "mc_seed": MC_POOL[int(rng.integers(len(MC_POOL)))],
            "mc_residuals": scaled(MC_RESIDUALS, seconds, minimum=2),
            "mc_offsets": scaled(MC_OFFSETS, seconds),
        }

    def warmup(self) -> None:
        # Throwaway bias point and die: nothing here is one of the pooled
        # inputs, so the bias-solve cache the timed work would hit stays
        # empty.
        from repro.cells import (McmlCellGenerator, characterize_mcml_cell,
                                 function, solve_bias)
        from repro.cells.characterize import measure_leakage
        from repro.cells.montecarlo import mc_buffer_residual, \
            mc_input_offset
        from repro.units import uA

        generator = McmlCellGenerator(sizing=solve_bias(uA(42)).sizing)
        characterize_mcml_cell(function("BUF"), generator)
        measure_leakage(function("BUF"), generator, asleep=False)
        mc_buffer_residual(n_samples=2, seed=99991)
        mc_input_offset(n_samples=1, seed=99991)

    def execute(self, plan: Dict, clock: Clock, tracer) -> Tuple[Dict, int]:
        from repro.cells import (PgMcmlCellGenerator, build_cmos_library,
                                 build_mcml_library, build_pg_mcml_library,
                                 function, preflight_library, solve_bias)
        from repro.cells.characterize import measure_leakage
        from repro.cells.montecarlo import mc_buffer_residual, \
            mc_input_offset
        from repro.experiments import fig3, table2
        from repro.units import uA

        # A proxy set-up, as in the grid: fig3.run and table2.run build
        # their libraries themselves, so these builds are thrown away.
        def build():
            for builder in (build_pg_mcml_library, build_mcml_library):
                preflight_library(builder(), telemetry=_telemetry(tracer))
            build_cmos_library()

        with _span(tracer, "bench.setup", workload=self.name):
            clock.setup(build)
        records: Dict[str, Tuple[str, np.ndarray]] = {}
        with _span(tracer, "bench.campaign", campaign="fig3"):
            with clock.timed():
                sweep = fig3.run([uA(x) for x in plan["iss_ua"]])
        _resample(clock, tracer, self.name)
        with _span(tracer, "bench.campaign", campaign="table2"):
            with clock.timed():
                rows = table2.run(spice_cells=tuple(plan["cells"]),
                                  iss=uA(50))
                generator = PgMcmlCellGenerator(
                    sizing=solve_bias(uA(50), gated=True).sizing)
                leaks = {name: measure_leakage(function(name), generator,
                                               asleep=True)
                         for name in plan["cells"]}
        _resample(clock, tracer, self.name)
        with _span(tracer, "bench.campaign",
                   campaign=f"mc/{plan['mc_seed']}"):
            with clock.timed():
                residual = mc_buffer_residual(
                    n_samples=plan["mc_residuals"], seed=plan["mc_seed"])
                offsets = mc_input_offset(n_samples=plan["mc_offsets"],
                                          seed=plan["mc_seed"])
        _resample(clock, tracer, self.name)
        for ua, point in zip(plan["iss_ua"], sweep.points):
            records[f"fig3/{ua}/fo1"] = ("s", np.array([point.delay_fo1]))
            records[f"fig3/{ua}/fo4"] = ("sV", np.array([point.delay_fo4,
                                                         point.swing]))
        for name in plan["cells"]:
            row = rows.row_for(name)
            records[f"table2/{name}/transient"] = ("sVA", np.array([
                row.spice_delay_ps * 1e-12, row.spice_swing_v,
                row.spice_iss_ua * 1e-6]))
            records[f"table2/{name}/sleep"] = ("A", np.array([leaks[name]]))
        for k, value in enumerate(residual.residual_currents):
            records[f"mc/{plan['mc_seed']}/residual/{k}"] = (
                "A", np.array([value]))
        for k, value in enumerate(offsets):
            records[f"mc/{plan['mc_seed']}/offset/{k}"] = (
                "V", np.array([value]))
        return {"records": records}, len(records)

    def checked_arrays(self, plan: Dict, outputs: Dict) -> List[np.ndarray]:
        return [values for _, values in outputs["records"].values()]

    def check(self, plan: Dict, outputs: Dict) -> Gate:
        reference = load_reference()["records"]
        records = outputs["records"]
        gate = Gate(attempted=len(records))
        for op_id, (units, values) in records.items():
            want = reference.get(op_id)
            if want is None or len(want) != len(values):
                gate.fail(op_id)
                continue
            for unit, got, ref in zip(units, values, want):
                if not abs(got - ref) <= max(REL_TOL * abs(ref),
                                             ABS_TOL[unit]):
                    gate.fail(op_id)
        return gate

    def digest(self, outputs: Dict) -> str:
        return _digest({k: [float(x) for x in v]
                        for k, (_, v) in outputs["records"].items()})


# -- workloads ----------------------------------------------------------------

class Workload:
    """Two or more parts run one after the other in one process.

    A workload's plan gives each part an equal share of ``seconds``; its
    items, set-up steps and checked operations are the parts' added up,
    and a failed operation is named by its part.
    """

    def __init__(self, name: str, parts: Tuple, setup_repeats: int):
        self.name = name
        self.parts = parts
        self.setup_repeats = setup_repeats

    def plan(self, seed: int, seconds: float, pass_index: int = 0) -> Dict:
        share = seconds / len(self.parts)
        return {part.name: part.plan(seed, share, pass_index)
                for part in self.parts}

    def warmup(self) -> None:
        for part in self.parts:
            part.warmup()

    def execute(self, plan: Dict, clock: Clock, tracer) -> Tuple[Dict, int]:
        outputs: Dict[str, Dict] = {}
        items = 0
        for part in self.parts:
            outputs[part.name], n = part.execute(plan[part.name], clock,
                                                 tracer)
            items += n
        return outputs, items

    def checked_arrays(self, plan: Dict, outputs: Dict) -> List[np.ndarray]:
        return [array for part in self.parts
                for array in part.checked_arrays(plan[part.name],
                                                 outputs[part.name])]

    def check(self, plan: Dict, outputs: Dict) -> Gate:
        gate = Gate(attempted=0)
        for part in self.parts:
            done = part.check(plan[part.name], outputs[part.name])
            gate.attempted += done.attempted
            for op_id in done.failures:
                gate.fail(f"{part.name}/{op_id}")
        return gate

    def digest(self, outputs: Dict) -> str:
        return _digest({part.name: part.digest(outputs[part.name])
                        for part in self.parts})


#: Workload name -> its parts and set-up repeats.  ``paper-long`` loads
#: event simulation on long campaigns where every plaintext recurs, and
#: SPICE; ``grid-service`` loads per-die set-up and the higher-order
#: attacks on short campaigns that a memo has little to reuse in, and
#: the job service's durable ledger and result store.
WORKLOADS = {
    "paper-long": (lambda workdir: (Fig6Long(), CharacterizeSpice()), 3),
    "grid-service": (lambda workdir: (GridManyDies(), ServiceDrain(workdir)),
                     5),
}
WORKLOAD_NAMES = tuple(WORKLOADS)


def workload(name: str, workdir: str) -> Workload:
    """The workload named ``name``; ``workdir`` holds on-disk state."""
    parts, setup_repeats = WORKLOADS[name]
    return Workload(name, parts(workdir), setup_repeats)
