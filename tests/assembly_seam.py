"""The one seam to a chosen MNA assembly, for equivalence tests.

:class:`repro.spice.dc.System` picks ``"bank"`` or ``"sparse"`` from
its unknown count; the per-device ``"loop"`` reference is the oracle
both are compared against.  ``forced_assembly`` replaces the selector
for the duration of a ``with`` block, so every ``System`` built inside
it — directly, or by ``solve_dc`` / ``run_transient`` /
``run_transient_batch`` — uses the named assembly.  Batch lanes are
dense banks only: under ``"sparse"`` or ``"loop"`` a
``run_transient_batch`` call falls back to serial runs on that
assembly.
"""

from unittest import mock

import repro.spice.dc as dc
from repro.spice import Circuit

ASSEMBLIES = ("bank", "loop", "sparse")


def forced_assembly(name: str):
    """Context manager: every ``System`` built inside uses ``name``."""
    if name not in ASSEMBLIES:
        raise ValueError(f"unknown assembly {name!r}")
    return mock.patch.object(dc, "_select_assembly", lambda n: name)


def forced_system(circuit: Circuit, name: str) -> dc.System:
    """A ``System`` for ``circuit`` on the named assembly."""
    with forced_assembly(name):
        return dc.System(circuit)
