"""One child process: set up one workload from scratch, run its rounds.

Spawned by :mod:`benchmarks.e2e.harness` with single-thread BLAS/OpenMP
settings, its own temp directory and its own ``REPRO_CNATIVE_CACHE``, so
``setup_s`` and ``peak_rss_mb`` do not depend on what ran before.

Untraced run: timed rounds for ``--seconds``.  Traced run: traced rounds
first (they start from the freshly set-up state, so their exact counts
repeat), then untraced rounds to price the tracer, then the extra
per-layer runs.  End-to-end numbers only ever come from untraced rounds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

#: Spans of the first traced round kept in ``trace-<workload>.json``.
TRACE_SPAN_LIMIT = 20000


def peak_rss_mb() -> float:
    """High-water resident set of *this* process image (``VmHWM``).

    Not ``ru_maxrss``: on Linux that counter survives ``exec``, so a
    child would report its parent's size at the time of the fork.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_rounds(workload, budget_s: float, tracer=None) -> list[dict]:
    """Identical rounds until ``budget_s`` has passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.next_round(tracer))
        if time.perf_counter() - start >= budget_s:
            return rounds


def merge_layer_rounds(layer_rounds: list[dict]) -> dict:
    """Exact counts from the first traced round (it starts from the
    canonical state); every timing as the median over traced rounds."""
    from .catalogue import METRICS

    merged = {}
    for name in layer_rounds[0]:
        if name == "round_wall_s":
            continue
        if METRICS[name].exact:
            merged[name] = layer_rounds[0][name]
        else:
            merged[name] = float(np.median([r[name] for r in layer_rounds]))
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, required=True,
                        help="where a traced run writes the spans of its first round")
    args = parser.parse_args(argv)

    from .catalogue import workload as lookup
    from .tracing import Tracer
    from .workloads import FAMILIES

    workload = FAMILIES[lookup(args.workload).family](
        args.workload, args.seed, args.child, args.workdir)
    workload.setup()
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading
    # and this one are comparable.
    setup_s = time.monotonic() - args.spawned_at

    layer: dict = {}
    layer_self_s: dict = {}
    if args.trace:
        traced = run_rounds(workload, args.seconds / 3, Tracer())
        layer = merge_layer_rounds(traced)
        table = workload.first_table
        layer_self_s = table.layer_self_times()
        layer_self_s["root"] = table.root_duration()
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps(table.to_json(TRACE_SPAN_LIMIT)))
    rounds = run_rounds(workload, args.seconds / 3 if args.trace else args.seconds)
    rss_mb = peak_rss_mb()

    if args.trace:
        def median_of(key, among):
            return float(np.median([r[key] for r in among]))

        layer.update(workload.layer_from_setup)
        layer.update(workload.extras(median_of("call_p50_ms", rounds) / 1e3))
        layer["obs.bench_trace_overhead_ratio"] = (
            median_of("round_wall_s", traced) / median_of("round_wall_s", rounds))
        if layer.get("core.phase_ops"):
            layer["sim.us_per_phase_op"] = (
                layer["sim.run_self_s"] / layer["core.phase_ops"] * 1e6)
        if layer.get("semiring.peak_outer_gflops"):
            layer["semiring.efficiency"] = (
                layer["semiring.achieved_gflops"] / layer["semiring.peak_outer_gflops"])

    workload.verify()
    workload.close()
    tally = workload.tally
    args.out.write_text(json.dumps({
        "setup_s": setup_s,
        "setup_detail": workload.setup_times.sections,
        "peak_rss_mb": rss_mb,
        "ops_per_round": workload.ops_per_round,
        "rounds": [{k: v for k, v in r.items() if k != "round_wall_s"} for r in rounds],
        "layer": layer,
        "layer_self_s": layer_self_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_messages": tally.messages,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
