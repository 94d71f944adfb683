"""Command line: ``python -m benchmarks.e2e {run,compare,manifest}``.

``run`` without ``--trace`` is the whole benchmark: every selected
workload, untraced then traced, every metric printed by name, results in
``benchmarks/e2e/results/latest.json``.  ``run --workload W --seed S
--seconds T --trace 0|1`` is one run of one workload in one mode and ends
with the one-line JSON result (the form ``BENCHMARK.json`` names).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalogue import RUN_SECONDS, WORKLOAD_NAMES, manifest


def _run(args) -> int:
    from . import harness

    if not (harness.SRC / "repro").is_dir():
        print(f"error: nothing to measure, {harness.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))  # the parent computes the oracles
    names = args.workload or WORKLOAD_NAMES
    modes = [args.trace] if args.trace is not None else [0, 1]
    records = {}
    try:
        for name in names:
            for trace in modes:
                record = harness.run_workload(name, args.seed, args.seconds, trace)
                harness.print_record(record)
                records[name, trace] = record
    except harness.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = sum(r["failed"] for r in records.values())
    if args.trace is None:
        doc = {
            "schema": 1,
            "claim": None,
            "seconds": args.seconds,
            "provenance": harness.provenance(args.seed),
            "workloads": {
                name: {
                    "end_to_end": records[name, 0]["metrics"],
                    "per_layer": records[name, 1]["layer"],
                    "layer_self_s": records[name, 1]["layer_self_s"],
                    "attempted": sum(records[name, t]["attempted"] for t in modes),
                    "failed": sum(records[name, t]["failed"] for t in modes),
                }
                for name in names
            },
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}  ({failed} failed op(s))")
    elif len(records) == 1:
        print(harness.contract_line(next(iter(records.values()))))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads and report every metric")
    run.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                     help="run only this workload (repeatable; default: all eight)")
    run.add_argument("--seed", type=int, default=0,
                     help="drives every generator and query/update stream")
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="how long one run measures")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: end-to-end metrics only; 1: per-layer metrics only; "
                          "omitted: both, and write --out")
    run.add_argument("--out", type=Path,
                     default=Path(__file__).resolve().parent / "results" / "latest.json")

    cmp_ = sub.add_parser("compare", help="judge B against A, one row per (workload, metric)")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)

    sub.add_parser("manifest", help="print BENCHMARK.json as generated from the catalogue")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "compare":
        from .compare import compare

        return compare(args.a, args.b)
    print(json.dumps(manifest(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
