"""Regenerate ``reference.json``: the committed characterisation values.

The ``characterize-spice`` part's gate compares every delay, swing,
current and Monte Carlo result a run produces with the value stored
here under the same operation id.  Plans draw their inputs from fixed
pools (Fig. 3 tail currents, the combinational PG-MCML cells, Monte
Carlo base seeds), and the values here come from running the part itself
over every pooled input, so this file covers every seed.  It also holds
each workload's result digest of a nominal-length run on the default
and the held-out seed.  Regenerate it only when the simulated physics or
a plan is meant to change (it takes a few minutes)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, pin_environment

pin_environment(os.path.join(ROOT, "src"))

from workloads import (DEFAULT_SEED, HELD_OUT_SEED,  # noqa: E402
                       ISS_POOL_UA, MC_OFFSETS, MC_POOL, MC_RESIDUALS,
                       NOMINAL_SECONDS, REFERENCE_PATH, TABLE2_CELLS,
                       WORKLOAD_NAMES, CharacterizeSpice, Clock,
                       clear_program_caches, workload)


def pool_plans():
    """``characterize-spice`` plans that together cover every pool: the
    first runs every tail current and cell, each runs one Monte Carlo
    base seed at the full sample counts (a run's draws are a prefix)."""
    for k, mc_seed in enumerate(MC_POOL):
        yield {"iss_ua": list(ISS_POOL_UA) if k == 0 else [],
               "cells": list(TABLE2_CELLS) if k == 0 else [],
               "mc_seed": mc_seed,
               "mc_residuals": MC_RESIDUALS, "mc_offsets": MC_OFFSETS}


def main() -> int:
    spice = CharacterizeSpice()
    records = {}
    clear_program_caches()
    for plan in pool_plans():
        outputs, _ = spice.execute(plan, Clock(1), None)
        records.update({op_id: [float(x) for x in values]
                        for op_id, (_, values) in outputs["records"].items()})
    reference = {"records": records, "digests": {}}
    workdir = os.path.join(ROOT, ".perfbench", "tmp",
                           f"reference-{os.getpid()}")
    for name in WORKLOAD_NAMES:
        wl = workload(name, workdir)
        reference["digests"][name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            clear_program_caches()
            outputs, _ = wl.execute(wl.plan(seed, NOMINAL_SECONDS),
                                    Clock(1), None)
            reference["digests"][name][str(seed)] = wl.digest(outputs)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
