"""Tests for the die-independent activity memo and array composition.

The contract under test: the event simulation depends on (netlist, key,
``t_apply``, window, plaintext) and never on the die, so many dies can
share one :class:`~repro.sca.acquisition.ActivityMemo`, and composing a
die from its compact arrays gives the bytes of the per-``Transition``
composition it replaced.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cells import library_at_corner
from repro.errors import AttackError, TraceError
from repro.netlist import LogicSimulator
from repro.obs import NULL_TELEMETRY, MemorySink, Telemetry
from repro.power import (
    BlockPowerModel,
    SettledActivity,
    TraceGrid,
    differential_baseline,
    wddl_baseline,
    wddl_current,
)
from repro.power.models import CMOS_PULSE_WIDTH
from repro.power.trace import _deposit_triangles
from repro.sca import AcquisitionPool, TraceAcquirer
from repro.sca.acquisition import DEFAULT_DT, DEFAULT_WINDOW, ActivityMemo
from repro.sca.attack import build_reduced_aes
from repro.sca.matrix import STYLE_BUILDERS
from repro.service import JobLedger, JobQueue, ResultStore, ServiceWorker, \
    CampaignJobSpec
from repro.tech import corner
from repro.units import ns

KEY = 0x3C
STYLES = ("cmos", "mcml", "pgmcml", "wddl")
CORNERS = ("tt", "ff")
DIES = (0, 1, 2)

_NETLISTS = {}


def netlist_for(style, corner_name):
    """One reduced-AES netlist per (style, corner) for the whole module."""
    where = (style, corner_name)
    if where not in _NETLISTS:
        library = library_at_corner(STYLE_BUILDERS[style](),
                                    corner(corner_name))
        _NETLISTS[where], _ = build_reduced_aes(library)
    return _NETLISTS[where]


# -- the per-Transition composition, kept as the oracle -----------------------

def _oracle_activity_current(model, trace, grid, baseline):
    """Per-``Transition`` loop composition (CMOS and MCML styles)."""
    netlist = model.netlist
    if model.style == "cmos":
        samples = np.zeros(grid.n)
        samples += model.static_current()
        times, charges = [], []
        for tr in trace.transitions:
            if tr.instance is None:
                continue
            ip = model.instances.get(tr.instance)
            if ip is None:
                continue
            inst = netlist.instances[tr.instance]
            load = netlist.load_cap(tr.net)
            ref = max(inst.cell.input_cap, 1e-18)
            times.append(tr.time)
            charges.append(ip.toggle_charge * max(load / ref, 0.25))
        _deposit_triangles(samples, grid, np.asarray(times),
                           np.asarray(charges), CMOS_PULSE_WIDTH)
        return samples
    samples = baseline.copy()
    events = []
    for tr in trace.transitions:
        if tr.instance is None:
            continue
        ip = model.instances.get(tr.instance)
        if ip is None or ip.residual == 0.0:
            continue
        events.append((tr.time, ip.residual if tr.value else -ip.residual))
    if events:
        events.sort()
        event_times = np.array([t for t, _ in events])
        cumulative = np.cumsum([d for _, d in events])
        idx = np.searchsorted(event_times, grid.times(), side="right")
        samples += np.where(idx > 0, cumulative[np.maximum(idx - 1, 0)],
                            0.0)
    return samples


def _oracle_wddl_current(model, values, grid, baseline):
    """Values-dict composition of one WDDL evaluate phase."""
    samples = baseline.copy()
    times, charges = [], []
    for inst_name, arrival in model.arrival_times().items():
        ip = model.instances.get(inst_name)
        if ip is None or ip.residual == 0.0:
            continue
        v = values[inst_name]
        times.append(arrival)
        charges.append(ip.residual if v else -ip.residual)
    _deposit_triangles(samples, grid, np.asarray(times),
                       np.asarray(charges), CMOS_PULSE_WIDTH)
    return samples


def _oracle_cycles(netlist, key, grid):
    """Each plaintext's simulation, run directly on a
    :class:`LogicSimulator`: the ``SimulationTrace`` (transition styles)
    or the settled values dict (WDDL)."""
    sim = LogicSimulator(netlist)
    wddl = netlist.library.style == "wddl"
    key_bits = {f"k{b}": bool((key >> (7 - b)) & 1) for b in range(8)}
    cycles = []
    for plaintext in range(256):
        bits = dict(key_bits)
        bits.update({f"p{b}": bool((plaintext >> (7 - b)) & 1)
                     for b in range(8)})
        sim.reset()
        if wddl:
            sim.initialize(bits)
            cycles.append({
                inst.name: sim.values[inst.pins[inst.cell.outputs[0]]]
                for inst in netlist.instances.values()
                if not inst.cell.pseudo})
        else:
            cycles.append(sim.run([(0.0, net, value)
                                   for net, value in bits.items()],
                                  duration=grid.t1))
    return cycles


@pytest.mark.parametrize("corner_name", CORNERS)
@pytest.mark.parametrize("style", STYLES)
def test_array_composition_matches_transition_loop(style, corner_name):
    """Every plaintext on three dies: byte for byte the loop oracle."""
    netlist = netlist_for(style, corner_name)
    grid = TraceGrid(0.0, DEFAULT_WINDOW, DEFAULT_DT)
    cycles = _oracle_cycles(netlist, KEY, grid)
    memo = ActivityMemo(netlist, KEY)
    for die in DIES:
        acquirer = TraceAcquirer(netlist, KEY, mismatch_seed=die,
                                 activity=memo)
        model = BlockPowerModel(netlist, seed=die)
        if style == "wddl":
            baseline = wddl_baseline(model, grid)
            oracle = [_oracle_wddl_current(model, values, grid, baseline)
                      for values in cycles]
        else:
            baseline = (None if style == "cmos"
                        else differential_baseline(model, grid))
            oracle = [_oracle_activity_current(model, trace, grid,
                                               baseline)
                      for trace in cycles]
        for plaintext, expected in enumerate(oracle):
            assert acquirer.ideal_samples(plaintext).tobytes() == \
                expected.tobytes(), (die, plaintext)
    assert acquirer.simulated == 0  # the first die simulated them all


def test_settled_activity_length_checked():
    netlist = netlist_for("wddl", "tt")
    model = BlockPowerModel(netlist)
    grid = TraceGrid(0.0, DEFAULT_WINDOW, DEFAULT_DT)
    short = SettledActivity(values=np.zeros(3, dtype=bool))
    with pytest.raises(TraceError, match="settled values"):
        wddl_current(model, short, grid)


# -- inputs applied later -----------------------------------------------------

def test_arrival_profile_follows_its_apply_time():
    """A model asked for two apply times answers each as a fresh one."""
    netlist = netlist_for("mcml", "tt")
    model = BlockPowerModel(netlist)
    at_zero = dict(model.arrival_times(0.0))
    later = model.arrival_times(1e-9)
    assert later == BlockPowerModel(netlist).arrival_times(1e-9)
    assert later["uark0"] == pytest.approx(at_zero["uark0"] + 1e-9,
                                           rel=1e-12)
    assert model.arrival_times(0.0) == at_zero
    assert model.evaluation_terms(1e-9)[0] == pytest.approx(
        model.evaluation_terms(0.0)[0] + 1e-9, rel=1e-12)


@pytest.mark.parametrize("style", ["mcml", "wddl"])
def test_baseline_moves_with_the_apply_time(style):
    """Inputs applied 0.25 ns (10 samples) later put the evaluation hum,
    and for WDDL each rail-imbalance packet, 10 samples later."""
    netlist = netlist_for(style, "tt")
    early = TraceAcquirer(netlist, KEY)
    late = TraceAcquirer(netlist, KEY, t_apply=ns(0.25))
    shift = round(ns(0.25) / DEFAULT_DT)
    assert shift == 10
    pairs = [(early._baseline, late._baseline)]
    if style == "wddl":
        pairs += [(early.ideal_samples(p), late.ideal_samples(p))
                  for p in (0x00, 0x5A)]
    for at_zero, shifted in pairs:
        scale = np.abs(at_zero).max()
        assert np.abs(shifted[shift:] - at_zero[:-shift]).max() <= \
            1e-12 * scale
        assert not np.array_equal(shifted, at_zero)


# -- one memo, many dies ------------------------------------------------------

@pytest.mark.parametrize("corner_name", CORNERS)
@pytest.mark.parametrize("style", STYLES)
def test_dies_on_one_memo_match_fresh_acquirers(style, corner_name,
                                                simulated_bytes):
    netlist = netlist_for(style, corner_name)
    rng = np.random.default_rng(11)
    plaintexts = {die: [int(p) for p in rng.integers(0, 64, 40)]
                  for die in DIES}
    fresh = {die: TraceAcquirer(netlist, KEY, mismatch_seed=die)
             .acquire(pts, trace_offset=die) for die, pts in
             plaintexts.items()}
    simulated_bytes.clear()
    memo = ActivityMemo(netlist, KEY)
    for die, pts in plaintexts.items():
        shared = TraceAcquirer(netlist, KEY, mismatch_seed=die,
                               activity=memo).acquire(pts, trace_offset=die)
        assert shared.tobytes() == fresh[die].tobytes(), die
    # Each distinct byte once over all dies: a lane of a pass, or a heap
    # fallback.
    assert simulated_bytes == Counter(set().union(*plaintexts.values()))


#: Each byte fills one 16-trace chunk.
DIE_PTS = sorted(list(range(16)) * 4)


def _die_traces(memo):
    """Four dies' traces through campaign pools that all share ``memo``."""
    tele = Telemetry(sinks=[MemorySink()])
    rows = [AcquisitionPool(TraceAcquirer(memo.netlist, KEY,
                                          mismatch_seed=die, activity=memo),
                            telemetry=tele).acquire(DIE_PTS)
            for die in range(4)]
    return np.vstack(rows), tele.registry


def test_counters_split_simulation_from_composition():
    """4 dies x 64 traces over 16 bytes on one memo: 16 simulations,
    64 compositions."""
    memo = ActivityMemo(netlist_for("cmos", "tt"), KEY)
    _, registry = _die_traces(memo)
    assert registry.counter("sca.acquisition.traces").value == 256
    assert registry.counter("sca.acquisition.simulated").value == 16
    assert registry.counter("sca.acquisition.composed").value == 64


@pytest.mark.parametrize("style", ["pgmcml", "wddl"])
def test_backends_agree_on_a_shared_memo(style):
    """The campaign path on one shared memo gives the bytes of bare
    acquirers that each simulate on their own memo."""
    netlist = netlist_for(style, "ff")
    shared, _ = _die_traces(ActivityMemo(netlist, KEY))
    fresh = np.vstack([TraceAcquirer(netlist, KEY, mismatch_seed=die)
                       .acquire(DIE_PTS) for die in range(4)])
    assert shared.tobytes() == fresh.tobytes()


class TestMemoIdentity:
    """A memo serves only the acquisition it was built for."""

    @pytest.mark.parametrize("other", ["netlist", "key", "t_apply",
                                       "window"])
    def test_foreign_memo_rejected(self, other):
        netlist = netlist_for("cmos", "tt")
        memo = ActivityMemo(netlist, KEY, t_apply=ns(0.1))
        kwargs = {"t_apply": ns(0.1)}
        if other == "netlist":
            args = (netlist_for("cmos", "ff"), KEY)
        elif other == "key":
            args = (netlist, KEY ^ 1)
        elif other == "t_apply":
            args, kwargs = (netlist, KEY), {"t_apply": 0.0}
        else:
            args = (netlist, KEY)
            kwargs["grid"] = TraceGrid(0.0, ns(3.0), DEFAULT_DT)
        with pytest.raises(AttackError, match="activity memo"):
            TraceAcquirer(*args, activity=memo, **kwargs)
        TraceAcquirer(netlist, KEY, activity=memo, t_apply=ns(0.1))

    def test_memo_validates_its_key_and_window(self):
        netlist = netlist_for("cmos", "tt")
        with pytest.raises(AttackError, match="key byte"):
            ActivityMemo(netlist, 0x100)
        with pytest.raises(AttackError, match="t_apply"):
            ActivityMemo(netlist, KEY, t_apply=ns(2.0), window=ns(2.0))


def test_grid_builds_one_memo_per_netlist_and_frees_it(monkeypatch):
    import repro.sca.matrix as matrix

    built = []

    class Counted(ActivityMemo):
        def __init__(self, netlist, key, **kwargs):
            super().__init__(netlist, key, **kwargs)
            built.append(netlist)

    monkeypatch.setattr(matrix, "ActivityMemo", Counted)
    spec = matrix.MatrixSpec(styles=("pgmcml",), attacks=("cpa", "tvla"),
                             corners=("tt", "ff"), budgets=(16,),
                             repeats=2, key=KEY)
    runner = matrix._GridRunner(spec, NULL_TELEMETRY, erc=False)
    for cell in spec.expand():
        assert runner.run_cell(cell).ok
    assert [nl.library.name.split("@")[1] for nl in built] == ["tt", "ff"]
    assert runner.acquired == 8 and runner._activities == {}


def test_service_worker_builds_one_netlist_per_style_corner_key(
        tmp_path, monkeypatch):
    import repro.sca.attack as attack

    builds = []
    original = attack.build_reduced_aes

    def counted(library):
        builds.append(library.style)
        return original(library)

    monkeypatch.setattr(attack, "build_reduced_aes", counted)
    specs = [CampaignJobSpec(style="pgmcml", budget=16, key=KEY,
                             repeat=repeat, chunk_size=8)
             for repeat in range(3)]
    ledger = JobLedger(str(tmp_path / "ledger.jsonl"))
    queue = JobQueue(ledger, ResultStore(str(tmp_path / "store")))
    try:
        job_ids = [queue.submit(spec)[0] for spec in specs]
        ServiceWorker(queue, worker_id="w").run(drain=True)
        assert builds == ["pgmcml"]
        for spec, job_id in zip(specs, job_ids):
            alone = spec.build_acquirer().acquire(spec.plaintexts())
            assert queue.gather(job_id).tobytes() == alone.tobytes()
    finally:
        ledger.close()
