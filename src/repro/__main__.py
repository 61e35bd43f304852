"""Command-line entry point: regenerate any of the paper's artefacts.

Usage::

    python -m repro list                  # what can be regenerated
    python -m repro table1                # print Table 1 vs the paper
    python -m repro fig6                  # run the CPA study + ASCII plot
    python -m repro all                   # everything (several minutes)
    python -m repro fig3 --csv fig3.csv   # also export the series as CSV
    python -m repro fig6 --trace t.jsonl  # record a structured trace
    python -m repro fig6 --no-erc         # skip the ERC preflight
    python -m repro all --solve-budget iters=2000,attempts=3
    python -m repro table1 --backend ngspice   # external simulator

Job-service verbs (see repro.service.cli)::

    python -m repro serve  --dir runs/svc --workers 2
    python -m repro submit --dir runs/svc --style pgmcml --budget 96
    python -m repro jobs   --dir runs/svc
    python -m repro worker --dir runs/svc --once
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict


def _csv_writer(name: str, result, path: str) -> bool:
    from .experiments import plotting

    writers: Dict[str, Callable] = {
        "fig3": plotting.fig3_csv,
        "fig5": plotting.fig5_csv,
        "fig6": plotting.fig6_csv,
    }
    writer = writers.get(name)
    if writer is None:
        return False
    with open(path, "w", encoding="utf-8") as stream:
        writer(result, stream)
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in ("serve", "submit", "jobs", "worker"):
        # The service verbs have their own subcommand grammar; hand the
        # whole line to repro.service.cli before the artefact parser.
        from .service.cli import main as service_main
        return service_main(argv)

    from . import experiments

    targets: Dict[str, Callable] = {
        "table1": experiments.table1.main,
        "table2": experiments.table2.main,
        "table3": experiments.table3.main,
        "fig3": experiments.fig3.main,
        "fig5": experiments.fig5.main,
        "fig6": experiments.fig6.main,
        "ablation": experiments.ablation.main,
        "tvla": experiments.tvla.main,
        "matrix": experiments.matrix.main,
        "related": experiments.related.main,
        "scope": experiments.scope.main,
        "software": experiments.software_attack.main,
    }

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the PG-MCML "
                    "paper (DAC 2011).")
    parser.add_argument("target", choices=[*targets, "all", "list"],
                        help="which artefact to regenerate")
    parser.add_argument("--csv", metavar="PATH",
                        help="also export the figure's data series as CSV "
                             "(fig3/fig5/fig6 only)")
    parser.add_argument("--trace", metavar="PATH",
                        help="record spans, progress, and a final metrics "
                             "snapshot to a JSONL trace file (see "
                             "repro.obs); stdout output is unchanged")
    parser.add_argument("--grid", metavar="PATH",
                        help="JSON campaign-grid spec for the matrix "
                             "target (styles/attacks/noises/corners/"
                             "budgets; see examples/matrix_smoke.json)")
    parser.add_argument("--report", metavar="PATH",
                        help="write the matrix target's full report "
                             "(cells + frontier) as JSON")
    parser.add_argument("--no-erc", action="store_true",
                        help="skip the electrical-rule preflight at cell "
                             "build / synthesis / campaign start "
                             "(sets REPRO_ERC=off)")
    parser.add_argument("--solve-budget", metavar="SPEC",
                        help="deterministic runaway-solve caps, e.g. "
                             "'2000' (Newton iterations) or "
                             "'iters=2000,attempts=3,rejections=64,"
                             "steps=200000' (sets REPRO_SOLVE_BUDGET)")
    from .spice.backend import available_backends
    parser.add_argument("--backend", choices=available_backends(),
                        help="simulator backend for DC/transient runs "
                             "(sets REPRO_SPICE_BACKEND); an unavailable "
                             "external backend degrades to the internal "
                             "engine with a note, or fails when "
                             "REPRO_SPICE_BACKEND_STRICT is set")
    args = parser.parse_args(argv)

    if (args.grid or args.report) and args.target not in ("matrix", "all"):
        parser.error("--grid/--report only apply to the matrix target")

    if args.no_erc:
        os.environ["REPRO_ERC"] = "off"
    if args.solve_budget:
        from .spice import SolveBudget
        os.environ["REPRO_SOLVE_BUDGET"] = args.solve_budget
        SolveBudget.from_env()  # fail fast on an unparsable spec
    if args.backend:
        from .spice.backend import dispatch
        os.environ[dispatch.BACKEND_ENV] = args.backend
        dispatch.reset_default_backend()
        chosen = dispatch.default_backend()
        if chosen.name != args.backend:
            print(f"note: backend '{args.backend}' unavailable; "
                  f"using '{chosen.name}' (set "
                  f"{dispatch.STRICT_ENV}=1 to fail instead)",
                  file=sys.stderr)

    if args.target == "list":
        print("available targets:")
        for name, fn in targets.items():
            doc = (sys.modules[fn.__module__].__doc__ or "").strip()
            headline = doc.splitlines()[0] if doc else ""
            print(f"  {name:10s} {headline}")
        print("  all        run every target in sequence")
        return 0

    telemetry = None
    if args.trace:
        from .obs import JsonlSink, Telemetry
        telemetry = Telemetry(sinks=[JsonlSink(args.trace)], progress=print)

    names = list(targets) if args.target == "all" else [args.target]
    try:
        for name in names:
            if len(names) > 1:
                print(f"\n{'=' * 72}\n== {name}\n{'=' * 72}")
            if name == "matrix":
                result = targets[name](grid=args.grid, report=args.report,
                                       telemetry=telemetry)
            else:
                result = targets[name](telemetry=telemetry)
            if args.csv and len(names) == 1:
                if _csv_writer(name, result, args.csv):
                    print(f"\nwrote {args.csv}")
                else:
                    print(f"\nno CSV exporter for {name}", file=sys.stderr)
                    return 2
    finally:
        if telemetry is not None:
            telemetry.emit_metrics()
            telemetry.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
