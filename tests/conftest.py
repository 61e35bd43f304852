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
