"""Shared fixtures for the test suite."""

import pytest


@pytest.fixture
def kill_after_puts():
    """Arm a :class:`CheckpointedRun` to die after its N-th store put.

    ``kill_after_puts(runner, n)`` wraps the runner's result store so
    that the n-th put commits its entry and then raises
    ``KeyboardInterrupt`` — a process killed right after a chunk
    became durable.  Returns the runner.
    """
    def arm(runner, puts):
        real_put = runner.store.put
        done = []

        def put(key, rows):
            path = real_put(key, rows)
            done.append(key)
            if len(done) >= puts:
                raise KeyboardInterrupt
            return path

        runner.store.put = put
        return runner

    return arm


@pytest.fixture
def simulated_bytes(monkeypatch):
    """Count the plaintext bytes each event simulation covers.

    Returns a ``Counter`` that grows by one per byte of every lane a
    ``LaneSimulator`` pass keeps (every ``settle`` lane; every ``run``
    lane it does not flag for the heap) and per heap simulation
    (``LogicSimulator.run`` or ``initialize``), reading the byte from
    the ``p0``..``p7`` stimulus bits, ``p0`` the most significant.
    """
    from collections import Counter

    from repro.netlist import LaneSimulator, LogicSimulator

    counts = Counter()

    def byte_of(high):
        return sum(bool(high(f"p{b}")) << (7 - b) for b in range(8))

    def lane_bytes(inputs, lanes, fallback=0):
        for i in range(lanes):
            if not (fallback >> i) & 1:
                counts[byte_of(lambda n: (inputs.get(n, 0) >> i) & 1)] += 1

    lane_run, lane_settle = LaneSimulator.run, LaneSimulator.settle
    heap_run, heap_settle = LogicSimulator.run, LogicSimulator.initialize

    def run(sim, inputs, lanes, *args, **kwargs):
        trace = lane_run(sim, inputs, lanes, *args, **kwargs)
        lane_bytes(inputs, lanes, trace.fallback)
        return trace

    def settle(sim, inputs, lanes, *args, **kwargs):
        lane_bytes(inputs, lanes)
        return lane_settle(sim, inputs, lanes, *args, **kwargs)

    def run_heap(sim, stimuli, *args, **kwargs):
        values = {net: value for _, net, value in stimuli}
        counts[byte_of(lambda n: values.get(n, False))] += 1
        return heap_run(sim, stimuli, *args, **kwargs)

    def settle_heap(sim, inputs, *args, **kwargs):
        counts[byte_of(lambda n: inputs.get(n, False))] += 1
        return heap_settle(sim, inputs, *args, **kwargs)

    monkeypatch.setattr(LaneSimulator, "run", run)
    monkeypatch.setattr(LaneSimulator, "settle", settle)
    monkeypatch.setattr(LogicSimulator, "run", run_heap)
    monkeypatch.setattr(LogicSimulator, "initialize", settle_heap)
    return counts
