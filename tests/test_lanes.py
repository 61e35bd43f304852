"""Tests for the lane-parallel event simulation.

The contract under test: every lane a :class:`LaneSimulator` pass does
not flag holds exactly the transitions the heap simulator records for
that input vector, and :meth:`ActivityMemo.prefetch` (the pass plus its
per-lane heap fallback) gives the arrays of
:meth:`ActivityMemo.simulate` byte for byte.
"""

import dataclasses
import random

import pytest

from repro.cells import build_mcml_library
from repro.cells.cell import DelayModel
from repro.cells.functions import FUNCTIONS
from repro.cells.library import Library
from repro.errors import SimulationError
from repro.netlist import GateNetlist, LaneSimulator, LogicSimulator
from repro.netlist.lanes import compile_table
from repro.obs import MemorySink, Telemetry
from repro.power import TransitionActivity, driven_nets
from repro.sca import AcquisitionPool, TraceAcquirer
from repro.sca.acquisition import ActivityMemo
from repro.units import ns

from .test_activity import KEY, STYLES, netlist_for

CORNERS = ("tt", "ff", "ss")
#: A dyadic time unit (about 14.6 ps): sums of its multiples are exact,
#: so hand-built events meet at the same float instant.
U = 2.0 ** -36


def same_arrays(a, b):
    fields = ("values",) if not hasattr(a, "times") else \
        ("times", "nets", "values")
    return all(getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).shape == getattr(b, f).shape
               and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in fields)


def lane_inputs(names, lanes):
    """Lane ``c`` drives ``names[k]`` high where bit ``k`` of ``c`` is
    set: every input combination, one per lane."""
    return {name: sum(1 << c for c in range(lanes) if (c >> k) & 1)
            for k, name in enumerate(names)}


def heap_activity(netlist, high, t_apply, duration):
    sim = LogicSimulator(netlist)
    sim.reset()
    trace = sim.run([(t_apply, name, True) for name in high],
                    duration=duration)
    return TransitionActivity.from_trace(trace, driven_nets(netlist))


def flagged(trace, lanes):
    return [c for c in range(lanes) if (trace.fallback >> c) & 1]


# -- compiled truth tables ----------------------------------------------------

@pytest.mark.parametrize("name", sorted(
    name for name, fn in FUNCTIONS.items() if not fn.sequential))
def test_compiled_table_matches_truth_table(name):
    """Lane ``code`` carries input row ``code``: the evaluator's mask is
    the packed truth table itself."""
    fn = FUNCTIONS[name]
    n = len(fn.inputs)
    rows = 1 << n
    masks = [sum(1 << code for code in range(rows)
                 if (code >> (n - 1 - k)) & 1) for k in range(n)]
    for out in fn.outputs:
        table = sum(bit << code
                    for code, bit in enumerate(fn.truth_table(out)))
        assert compile_table(table, n)(*masks) & ((1 << rows) - 1) == table


def test_wide_table_compiles_every_row():
    rng = random.Random(3)
    for _ in range(20):
        table = rng.getrandbits(256)
        masks = [sum(1 << code for code in range(256)
                     if (code >> (7 - k)) & 1) for k in range(8)]
        assert compile_table(table, 8)(*masks) & ((1 << 256) - 1) == table


# -- the reduced AES against the heap ----------------------------------------

@pytest.mark.parametrize("corner_name", CORNERS)
@pytest.mark.parametrize("style", STYLES)
def test_prefetch_matches_heap_on_every_plaintext(style, corner_name):
    """All 256 plaintexts in one pass plus its fallback: byte for byte
    :meth:`ActivityMemo.simulate`.  Only CMOS meets the order hazard."""
    netlist = netlist_for(style, corner_name)
    memo = ActivityMemo(netlist, KEY)
    assert memo.prefetch(range(256)) == 256
    oracle = ActivityMemo(netlist, KEY)
    for plaintext in range(256):
        activity, simulated = memo.get(plaintext)
        assert not simulated
        assert same_arrays(activity, oracle.simulate(plaintext)), plaintext
    if style == "cmos":
        assert 0 < memo.fallbacks < 32
    else:
        assert memo.fallbacks == 0


@pytest.mark.parametrize("style", ["cmos", "wddl"])
def test_prefetch_matches_heap_with_later_inputs(style):
    netlist = netlist_for(style, "tt")
    memo = ActivityMemo(netlist, KEY, t_apply=ns(0.25))
    oracle = ActivityMemo(netlist, KEY, t_apply=ns(0.25))
    memo.prefetch(range(256))
    for plaintext in range(256):
        assert same_arrays(memo.get(plaintext)[0],
                           oracle.simulate(plaintext)), plaintext


def test_pass_without_fallback_differs_only_in_flagged_lanes():
    """The flag is needed: some flagged CMOS lanes differ from the heap
    when read from the pass, and no unflagged lane does."""
    netlist = netlist_for("cmos", "tt")
    inputs = lane_inputs([f"p{b}" for b in reversed(range(8))], 256)
    inputs.update({f"k{b}": (1 << 256) - 1 if (KEY >> (7 - b)) & 1 else 0
                   for b in range(8)})
    trace = LaneSimulator(netlist).run(inputs, 256, 0.0, ns(2.0),
                                       driven_nets(netlist))
    oracle = ActivityMemo(netlist, KEY)
    differ = set()
    for plaintext in range(256):
        lane = TransitionActivity(*trace.lane(plaintext))
        if not same_arrays(lane, oracle.simulate(plaintext)):
            differ.add(plaintext)
    assert differ and differ <= set(flagged(trace, 256))


# -- hand-built netlists: the order hazard and generations -------------------

def hand_library(delays):
    """MCML cells whose delay ignores the load: ``delays`` maps a cell
    name to its delay in units of :data:`U`.  ``BUF0`` is a zero-delay
    pseudo buffer."""
    base = build_mcml_library()
    cells = {name: dataclasses.replace(
        base.cells[name], delay_model=DelayModel(d * U, 0.0))
        for name, d in delays.items()}
    cells["BUF0"] = dataclasses.replace(
        base.cells["BUF"], name="BUF0", pseudo=True,
        delay_model=DelayModel(0.0, 0.0))
    cells["RAILSWAP"] = base.cells["RAILSWAP"]
    return Library(name="hand", style="mcml", cells=cells)


def hazard_netlist():
    """Three gates whose pending output matures at the instant one of
    their inputs changes.

    * ``y1 = XOR2(a1, h1)`` (delay 2U): ``a1`` schedules y1's rise at
      2U from t=0; ``h1`` (two U buffers from ``b1``) is scheduled at U,
      later than that rise, so the heap pops the rise first.
    * ``y2 = OR2(a2', h2)`` (delay 1U): ``a2'`` (one U buffer) schedules
      y2's rise at 2U from t=U; ``h2`` (a 2U buffer from ``b2``) was
      scheduled at t=0, earlier, so the heap pops it first, and its
      reaction replaces the rise at 2U by one at 3U.
    * ``y3 = XOR2(a3, z)`` (delay 2U): ``z`` ends a chain of three
      zero-delay pseudo buffers behind a 2U buffer from ``b3``, so it
      changes at 2U three generations after y3's rise: not a hazard.
      A RAILSWAP on ``y3`` adds one more generation.
    """
    lib = hand_library({"XOR2": 2, "OR2": 1, "BUF": 1, "BUFX4": 2})
    nl = GateNetlist("hazards", lib)
    for name in ("a1", "b1", "a2", "b2", "a3", "b3"):
        nl.add_primary_input(name)
    nl.add_instance("XOR2", {"A": "a1", "B": "h1", "Y": "y1"}, name="g1")
    nl.add_instance("BUF", {"A": "b1", "Y": "m1"}, name="m1")
    nl.add_instance("BUF", {"A": "m1", "Y": "h1"}, name="h1")
    nl.add_instance("BUF", {"A": "a2", "Y": "d2"}, name="d2")
    nl.add_instance("BUFX4", {"A": "b2", "Y": "h2"}, name="h2")
    nl.add_instance("OR2", {"A": "d2", "B": "h2", "Y": "y2"}, name="g2")
    nl.add_instance("BUFX4", {"A": "b3", "Y": "h3"}, name="h3")
    nl.add_instance("BUF0", {"A": "h3", "Y": "z1"}, name="z1")
    nl.add_instance("BUF0", {"A": "z1", "Y": "z2"}, name="z2")
    nl.add_instance("BUF0", {"A": "z2", "Y": "z"}, name="z3")
    nl.add_instance("XOR2", {"A": "a3", "B": "z", "Y": "y3"}, name="g3")
    nl.add_instance("RAILSWAP", {"A": "y3", "Y": "y3n"}, name="r3")
    nl.add_instance("BUF", {"A": "y3n", "Y": "o3"}, name="o3")
    return nl


def test_hand_built_delays_meet_exactly():
    nl = hazard_netlist()
    delay = {name: nl.instance_delay(inst)
             for name, inst in nl.instances.items()}
    assert delay["g2"] == delay["m1"] == U
    assert delay["g1"] == delay["h2"] == 2 * U
    assert delay["z1"] == 0.0
    # g2's own delay is shorter than h2's: it is scheduled later, but
    # at the same float instant.
    assert 0.0 + delay["m1"] + delay["h1"] == 0.0 + delay["g1"]
    assert U + delay["g2"] == 0.0 + delay["h2"]


HAZARD_INPUTS = ("a1", "b1", "a2", "b2", "a3", "b3")


def test_hazard_lanes_flagged_and_the_rest_match_the_heap():
    nl = hazard_netlist()
    lanes = 1 << len(HAZARD_INPUTS)
    trace = LaneSimulator(nl).run(lane_inputs(HAZARD_INPUTS, lanes), lanes,
                                  0.0, ns(2.0), driven_nets(nl))
    both = {c for c in range(lanes)
            if (c & 0b11) == 0b11 or (c & 0b1100) == 0b1100}
    assert set(flagged(trace, lanes)) == both
    net_y1 = driven_nets(nl)["y1"]
    net_y2 = driven_nets(nl)["y2"]
    for c in range(lanes):
        high = [n for k, n in enumerate(HAZARD_INPUTS) if (c >> k) & 1]
        heap = heap_activity(nl, high, 0.0, ns(2.0))
        lane = TransitionActivity(*trace.lane(c))
        if c not in both:
            assert same_arrays(lane, heap), c
            continue
        # Pending first (y1): the pass's order, so y1 agrees; input
        # first (y2): the heap moves y2's rise to 3U, the pass keeps 2U.
        y1 = lambda a: a.times[a.nets == net_y1].tolist()
        y2 = lambda a: a.times[a.nets == net_y2].tolist()
        if (c & 0b11) == 0b11:
            assert y1(lane) == y1(heap) == [2 * U, 4 * U]
        if (c & 0b1100) == 0b1100:
            assert y2(heap) == [3 * U] and y2(lane) == [2 * U]


def test_generations_keep_the_heap_order():
    """y3 rises at 2U (generation 0) before the chain's z flips there
    (generation 3), then falls at 4U; o3 follows y3's RAILSWAP."""
    nl = hazard_netlist()
    trace = LaneSimulator(nl).run({"a3": 1, "b3": 1}, 1, 0.0, ns(2.0),
                                  driven_nets(nl))
    assert trace.fallback == 0
    times, nets, values = trace.lane(0)
    heap = heap_activity(nl, ["a3", "b3"], 0.0, ns(2.0))
    assert same_arrays(TransitionActivity(times, nets, values), heap)
    y3 = driven_nets(nl)["y3"]
    assert times[nets == y3].tolist() == [2 * U, 4 * U]
    assert values[nets == y3].tolist() == [True, False]


def test_memo_falls_back_on_flagged_lanes():
    """Named p0..p7, the hand-built inputs run through the memo: its
    fallback lanes re-run on the heap and every byte matches."""
    nl = hazard_netlist()
    renamed = dict(zip(HAZARD_INPUTS, [f"p{7 - k}" for k in range(6)]))
    lib = nl.library
    memo_nl = GateNetlist("hazards-p", lib)
    for name in [f"k{b}" for b in range(8)] + [f"p{b}" for b in range(8)]:
        memo_nl.add_primary_input(name)
    for inst in nl.instances.values():
        memo_nl.add_instance(inst.cell.name,
                             {pin: renamed.get(net, net)
                              for pin, net in inst.pins.items()},
                             name=inst.name)
    memo = ActivityMemo(memo_nl, KEY)
    oracle = ActivityMemo(memo_nl, KEY)
    memo.prefetch(range(64))
    assert memo.fallbacks == 28  # 64 - 6 x 6 lanes meet either hazard
    for plaintext in range(64):
        assert same_arrays(memo.get(plaintext)[0],
                           oracle.simulate(plaintext)), plaintext


def test_activity_past_the_horizon_goes_to_the_heap():
    """A window so short that events land past 5x it: the pass flags
    the lanes and the heap raises, as it did on its own."""
    nl = hazard_netlist()
    trace = LaneSimulator(nl).run({"a1": 1, "b1": 0}, 2, 0.0, U / 10,
                                  driven_nets(nl))
    assert flagged(trace, 2) == [0]
    with pytest.raises(SimulationError, match="oscillating"):
        heap_activity(nl, ["a1"], 0.0, U / 10)


def test_settle_matches_initialize_on_every_vector():
    nl = hazard_netlist()
    lanes = 1 << len(HAZARD_INPUTS)
    nets = list(nl.nets)
    settled = LaneSimulator(nl).settle(lane_inputs(HAZARD_INPUTS, lanes),
                                       lanes, nets)
    for c in range(lanes):
        sim = LogicSimulator(nl)
        sim.reset()
        sim.initialize({n: bool((c >> k) & 1)
                        for k, n in enumerate(HAZARD_INPUTS)})
        assert settled[c].tolist() == [sim.values[n] for n in nets], c


def test_random_netlists_match_the_heap_outside_flagged_lanes():
    """Seeded random netlists over few dyadic delays, so events meet
    often, with multi-output and zero-delay cells."""
    base = build_mcml_library()
    names = ("AND2", "XOR2", "MUX2", "FA", "RAILSWAP", "BUF", "MAJ32",
             "XOR3", "MUX4", "TIEH")
    rng = random.Random(1)
    checked = 0
    for trial in range(40):
        cells = {n: dataclasses.replace(base.cells[n], delay_model=DelayModel(
            0.0 if base.cells[n].pseudo else rng.choice((1, 2, 3)) * U,
            0.0)) for n in names}
        nl = GateNetlist(f"random{trial}", Library("random", "mcml", cells))
        nets = [nl.add_primary_input(f"i{k}").name for k in range(4)]
        for g in range(rng.randint(3, 30)):
            cell = cells[rng.choice(names)]
            pins = {p: rng.choice(nets) for p in cell.inputs}
            pins.update({o: f"g{g}{o}" for o in cell.outputs})
            nl.add_instance(cell.name, pins, name=f"u{g}")
            nets += [f"g{g}{o}" for o in cell.outputs]
        inputs = [f"i{k}" for k in range(4)]
        trace = LaneSimulator(nl).run(lane_inputs(inputs, 16), 16, U, ns(1),
                                      driven_nets(nl))
        for c in range(16):
            if (trace.fallback >> c) & 1:
                continue
            high = [n for k, n in enumerate(inputs) if (c >> k) & 1]
            assert same_arrays(TransitionActivity(*trace.lane(c)),
                               heap_activity(nl, high, U, ns(1))), (trial, c)
            checked += 1
    assert checked > 300


# -- plan limits --------------------------------------------------------------

def test_sequential_netlists_keep_the_heap_path():
    lib = build_mcml_library()
    nl = GateNetlist("seq", lib)
    for name in ("p0", "k0"):
        nl.add_primary_input(name)
    nl.add_instance("DFF", {"D": "p0", "CK": "k0", "Q": "q"}, name="ff")
    assert not LaneSimulator.supports(nl)
    with pytest.raises(SimulationError, match="combinational"):
        LaneSimulator(nl)
    assert not LaneSimulator.supports(hazard_netlist(), ["nope"])
    with pytest.raises(SimulationError, match="primary input"):
        LaneSimulator(hazard_netlist()).run({"y1": 1}, 1, 0.0, ns(1), {})


# -- the fallback counter -----------------------------------------------------

@pytest.mark.parametrize("style", ["cmos", "mcml"])
def test_heap_fallbacks_counted_per_campaign(style):
    """A 256-byte campaign counts its flagged lanes once: CMOS meets the
    hazard, MCML never does."""
    netlist = netlist_for(style, "tt")
    tele = Telemetry(sinks=[MemorySink()])
    acquirer = TraceAcquirer(netlist, KEY)
    AcquisitionPool(acquirer, telemetry=tele).acquire(list(range(256)) * 2)
    registry = tele.registry
    fallbacks = registry.counter("sca.acquisition.heap_fallbacks").value
    assert fallbacks == acquirer.activity.fallbacks
    assert registry.counter("sca.acquisition.simulated").value == 256
    assert (fallbacks > 0) == (style == "cmos")
