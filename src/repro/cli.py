"""Command-line interface: ``repro-apsp``.

Run a simulated distributed APSP from the shell::

    repro-apsp solve --n 128 --block 16 --variant async --nodes 4 \
        --ranks-per-node 4 --validate
    repro-apsp solve --n 128 --kernel-backend tiled
    repro-apsp solve --n 128 --metrics-out metrics.json --trace-out trace.json
    repro-apsp profile --n 96 --nodes 2 --report-json report.json \
        --trace-out trace.json
    repro-apsp tune --n 300000 --nodes 64 --ranks-per-node 12
    repro-apsp variants
    repro-apsp backends

Solve once, then answer distance queries from the persisted artifact
(the serving layer, docs/SERVING.md)::

    repro-apsp serve build runs/road.apsp --n 256 --nodes 4
    repro-apsp serve info runs/road.apsp
    repro-apsp serve update runs/road.apsp --edge 4,7,0.25
    repro-apsp query runs/road.apsp --pair 0,255 --pair 3,9 \
        --nearest 0,5 --cache-bytes 268435456

All solver paths route through :func:`repro.solve` /
:class:`repro.SolveConfig`; ``--metrics-out``/``--trace-out`` sinks are
validated *before* solving and an unusable path exits with code 12
(:class:`~repro.errors.SinkError`).  An unusable or corrupt artifact
exits 17 (:class:`~repro.errors.ArtifactError`), a malformed query 18
(:class:`~repro.errors.QueryError`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the run's metrics catalog as JSON (path validated before solving; "
        "profile writes one file per variant, suffixed .<variant>.json)",
    )
    p.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON openable in Perfetto/about:tracing "
        "(profile writes one file per variant, suffixed .<variant>.json)",
    )


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    from .machine import MACHINES

    p.add_argument("--nodes", type=int, default=1, help="number of simulated nodes")
    p.add_argument(
        "--ranks-per-node", type=int, default=4, help="MPI ranks per node (paper: 12)"
    )
    p.add_argument(
        "--machine",
        default="summit",
        choices=list(MACHINES),
        help="machine preset (hardware constants)",
    )


def build_parser() -> argparse.ArgumentParser:
    from .core.variants import Variant

    variants = [v.value for v in Variant]
    parser = argparse.ArgumentParser(
        prog="repro-apsp",
        description="Distributed multi-GPU Floyd-Warshall APSP on a simulated cluster "
        "(reproduction of Sao et al., HPDC '21)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one APSP and report performance")
    solve.add_argument("--n", type=int, default=128, help="number of vertices")
    solve.add_argument("--input", type=str, default=None, help=".npz weight matrix (overrides --n)")
    solve.add_argument("--block", type=int, default=None, help="block size b")
    solve.add_argument(
        "--variant",
        default="async",
        choices=variants,
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--density", type=float, default=1.0, help="edge probability")
    solve.add_argument("--scale", type=float, default=1.0, help="virtual/physical dim scale")
    solve.add_argument("--validate", action="store_true",
                       help="compare the result with the unblocked Floyd-Warshall oracle "
                            "(an O(n^3) NumPy pass whatever the kernel backend)")
    solve.add_argument("--trace", action="store_true", help="print a per-category time breakdown")
    solve.add_argument("--output", type=str, default=None, help="save distances to .npz")
    solve.add_argument("--paths", action="store_true",
                       help="track next-hop pointers (distributed path generation)")
    solve.add_argument("--sparse", action="store_true",
                       help="exploit block sparsity (skip all-infinite blocks)")
    solve.add_argument(
        "--kernel-backend",
        type=str,
        default=None,
        metavar="NAME",
        help="SrGemm kernel backend: cnative, tiled or tiled-f32 "
        "(see `repro-apsp backends`); default: $REPRO_SRGEMM_BACKEND, else "
        "'cnative', else 'tiled'",
    )
    solve.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject a fault, e.g. 'drop:src=0,dst=3,nth=1', "
        "'nic:node=0,factor=4,t0=0,t1=1e-3', 'crash:rank=2,at=1e-4', "
        "'policy:timeout=1e-3,ckpt=4'; repeatable (see docs/FAULTS.md)",
    )
    solve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="C",
        help="snapshot rank state every C outer iterations (arms fault tolerance)",
    )
    solve.add_argument(
        "--recv-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulated receive deadline inside broadcasts, with bounded "
        "retry-and-retransmit on expiry (arms fault tolerance)",
    )
    solve.add_argument(
        "--fault-seed", type=int, default=0, help="seed for probabilistic fault selection"
    )
    solve.add_argument(
        "--verify",
        default="off",
        choices=["off", "checksum", "full"],
        help="ABFT verification: 'checksum' guards every SrGemm with "
        "(min,+) checksums and repairs corrupted tiles in place; 'full' "
        "adds a per-iteration monotonicity sentinel and a sampled "
        "triangle-inequality audit; a certificate is printed and a "
        "failing one exits with a distinct code (see docs/FAULTS.md)",
    )
    _add_obs_args(solve)
    _add_cluster_args(solve)

    profile = sub.add_parser(
        "profile",
        help="instrumented runs per variant + perf-model validation report",
    )
    profile.add_argument("--n", type=int, default=96, help="number of vertices")
    profile.add_argument("--input", type=str, default=None, help=".npz weight matrix (overrides --n)")
    profile.add_argument("--block", type=int, default=None, help="block size b")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--density", type=float, default=1.0, help="edge probability")
    profile.add_argument("--scale", type=float, default=1.0, help="virtual/physical dim scale")
    profile.add_argument(
        "--variants",
        default="baseline,pipelined,offload",
        metavar="LIST",
        help="comma-separated variants to instrument (default: baseline,pipelined,offload)",
    )
    profile.add_argument(
        "--report-json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the validation report (constants + predicted-vs-measured rows) as JSON",
    )
    profile.add_argument(
        "--kernel-backend",
        type=str,
        default=None,
        metavar="NAME[,NAME...]",
        help="SrGemm backend for the instrumented runs; a comma-separated "
        "list or 'all' enters sweep mode, profiling each available "
        "backend and printing a fitted-t_f / wall-clock comparison table",
    )
    _add_obs_args(profile)
    _add_cluster_args(profile)

    tune = sub.add_parser("tune", help="model-driven parameter recommendation")
    tune.add_argument("--n", type=float, required=True, help="virtual vertex count")
    tune.add_argument("--offload", action="store_true")
    _add_cluster_args(tune)

    sub.add_parser("variants", help="list solver variants")

    sub.add_parser("backends", help="list SrGemm kernel backends and availability")

    analyze = sub.add_parser("analyze", help="graph analytics on a saved distance matrix")
    analyze.add_argument("input", type=str, help=".npz produced by solve --output")
    analyze.add_argument("--top", type=int, default=5, help="how many central vertices to list")

    placement = sub.add_parser("placement", help="show a rank placement diagram (paper Fig. 1)")
    placement.add_argument("--pr", type=int, required=True)
    placement.add_argument("--pc", type=int, required=True)
    placement.add_argument("--qr", type=int, required=True)
    placement.add_argument("--qc", type=int, required=True)

    sched = sub.add_parser(
        "sched",
        help="run a multi-tenant job mix on one shared cluster (see docs/SCHEDULING.md)",
    )
    sched.add_argument(
        "spec", type=str,
        help="job-mix JSON: machine/n_nodes plus a 'jobs' array "
        "(graph, config, priority, weight, arrival per job)",
    )
    sched.add_argument(
        "--report-json", type=str, default=None, metavar="PATH",
        help="write per-job reports + fleet metrics as JSON",
    )
    sched.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the fleet metrics catalog as JSON",
    )
    sched.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write a job-tagged Chrome trace_event JSON of the whole fleet "
        "(per-job Perfetto lanes; forces fleet tracing on)",
    )
    sched.add_argument(
        "--no-resilience", action="store_true",
        help="strip the spec's 'resilience' policy and per-job "
        "retry/deadline fields: jobs fail terminally on first error "
        "(the PR-8 exact baseline; see docs/RESILIENCE.md)",
    )

    fuzz = sub.add_parser(
        "fuzz", help="coverage-driven scenario fuzzer (see docs/FUZZING.md)"
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    frun = fuzz_sub.add_parser("run", help="run a budgeted fuzzing session")
    frun.add_argument("--budget", type=int, default=50, help="number of scenarios")
    frun.add_argument("--seed", type=int, default=0, help="generator seed")
    frun.add_argument(
        "--jobs", type=int, default=1,
        help="concurrent sandboxed scenarios (implies --isolate when > 1)",
    )
    frun.add_argument(
        "--corpus", type=str, default=None, metavar="PATH",
        help="append every scenario+outcome to this JSONL scenario database",
    )
    frun.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-scenario wall-clock timeout (implies --isolate)",
    )
    frun.add_argument(
        "--isolate", action="store_true",
        help="fork a sandbox child per scenario (hangs/hard crashes become findings)",
    )
    frun.add_argument(
        "--no-autopilot", action="store_true",
        help="uniform sampling instead of coverage-biased generation",
    )
    frun.add_argument(
        "--no-shrink", action="store_true", help="skip delta-debugging of findings"
    )
    frun.add_argument(
        "--max-findings", type=int, default=0,
        help="stop after this many findings (0 = exhaust the budget)",
    )
    frun.add_argument(
        "--report-json", type=str, default=None, metavar="PATH",
        help="write the machine-readable session report",
    )

    freplay = fuzz_sub.add_parser(
        "replay", help="re-run a corpus scenario and byte-compare digests"
    )
    freplay.add_argument("id", type=str, help="scenario id (or unambiguous prefix)")
    freplay.add_argument(
        "--corpus", type=str, required=True, metavar="PATH", help="JSONL scenario database"
    )

    fcorpus = fuzz_sub.add_parser("corpus", help="inspect or maintain a corpus")
    fcorpus_sub = fcorpus.add_subparsers(dest="corpus_command", required=True)
    fls = fcorpus_sub.add_parser("ls", help="list corpus records")
    fls.add_argument("--corpus", type=str, required=True, metavar="PATH")
    fls.add_argument(
        "--findings", action="store_true", help="only records with oracle violations"
    )
    fmin = fcorpus_sub.add_parser(
        "minimize", help="rewrite keeping only findings and minimized repros"
    )
    fmin.add_argument("--corpus", type=str, required=True, metavar="PATH")
    fmin.add_argument(
        "--output", type=str, default=None, metavar="PATH",
        help="write here instead of rewriting in place",
    )

    serve = sub.add_parser(
        "serve", help="persist and manage solve artifacts (see docs/SERVING.md)"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    sbuild = serve_sub.add_parser(
        "build", help="solve and persist a query-ready artifact directory"
    )
    sbuild.add_argument("artifact", type=str, help="artifact directory to create")
    sbuild.add_argument("--n", type=int, default=128, help="number of vertices")
    sbuild.add_argument("--input", type=str, default=None,
                        help=".npz weight matrix (overrides --n)")
    sbuild.add_argument("--block", type=int, default=None, help="solver block size b")
    sbuild.add_argument(
        "--artifact-block", type=int, default=None, metavar="B",
        help="artifact tile size (default: min(n, 128); independent of --block)",
    )
    sbuild.add_argument(
        "--variant",
        default="async",
        choices=variants,
    )
    sbuild.add_argument("--seed", type=int, default=0)
    sbuild.add_argument("--density", type=float, default=1.0, help="edge probability")
    sbuild.add_argument(
        "--kernel-backend", type=str, default=None, metavar="NAME",
        help="SrGemm kernel backend for the solve (default: "
        "$REPRO_SRGEMM_BACKEND, else 'cnative', else 'tiled')",
    )
    sbuild.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing artifact directory at the target path",
    )
    sbuild.add_argument(
        "--no-graph", action="store_true",
        help="omit the weight matrix from the artifact "
        "(smaller, but disables `serve update`)",
    )
    _add_cluster_args(sbuild)

    sinfo = serve_sub.add_parser("info", help="describe an artifact")
    sinfo.add_argument("artifact", type=str, help="artifact directory")

    supdate = serve_sub.add_parser(
        "update", help="apply edge updates, rewriting only dirtied tiles"
    )
    supdate.add_argument("artifact", type=str, help="artifact directory")
    supdate.add_argument(
        "--edge", action="append", required=True, metavar="U,V,W",
        help="set edge (u, v) to weight w ('inf' removes it); repeatable",
    )
    supdate.add_argument(
        "--kernel-backend", type=str, default=None, metavar="NAME",
        help="SrGemm backend for any escalated re-solve (default: "
        "$REPRO_SRGEMM_BACKEND, else 'cnative', else 'tiled')",
    )
    supdate.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write serve.* metrics (incl. incremental counters) as JSON",
    )

    query = sub.add_parser(
        "query", help="answer distance queries from a solve artifact"
    )
    query.add_argument("artifact", type=str, help="artifact directory")
    query.add_argument(
        "--pair", action="append", default=None, metavar="S,T",
        help="print d(s, t); repeatable (all pairs answered as one batch)",
    )
    query.add_argument(
        "--nearest", type=str, default=None, metavar="S,K",
        help="print the k nearest reachable vertices to s",
    )
    query.add_argument(
        "--submatrix", type=str, default=None, metavar="ROWS:COLS",
        help="print a dense submatrix; ROWS and COLS are comma lists, "
        "e.g. '0,1,2:5,9'",
    )
    query.add_argument(
        "--cache-bytes", type=int, default=None, metavar="BYTES",
        help="block-cache budget (default: $REPRO_SERVE_CACHE_BYTES or 64 MiB)",
    )
    query.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write serve.* metrics (cache hits/misses, query counts) as JSON",
    )

    return parser


def _load_graph(args: argparse.Namespace):
    from .graphs import erdos_renyi, load_matrix, uniform_random_dense

    if args.input:
        return load_matrix(args.input)
    if args.density >= 1.0:
        return uniform_random_dense(args.n, seed=args.seed)
    return erdos_renyi(args.n, args.density, seed=args.seed)


def cmd_solve(args: argparse.Namespace) -> int:
    from .api import ObsSinks, SolveConfig, solve
    from .graphs import save_matrix

    config = SolveConfig.from_env(
        variant=args.variant,
        block_size=args.block,
        n_nodes=args.nodes,
        ranks_per_node=args.ranks_per_node,
        machine=args.machine,
        dim_scale=args.scale,
        validate=args.validate,
        trace=args.trace,
        track_paths=args.paths,
        exploit_sparsity=args.sparse,
        kernel_backend=args.kernel_backend,
        fault_plan=args.faults,
        checkpoint_interval=args.checkpoint_interval,
        recv_timeout=args.recv_timeout,
        fault_seed=args.fault_seed,
        verify=args.verify,
        obs=ObsSinks(metrics_out=args.metrics_out, trace_out=args.trace_out),
    )
    # Sinks fail fast (exit 12) before the graph is even built.
    config.obs.validate()
    w = _load_graph(args)
    result = solve(w, config)
    print(result.report.summary())
    if result.fault_counters:
        print("\nfault injection / recovery:")
        for name, value in sorted(result.fault_counters.items()):
            print(f"  {name:<28s} {value:g}")
    if result.verification is not None:
        print("\nverification certificate:")
        for key, value in result.verification.items():
            print(f"  {key:<20s} {value}")
    if args.validate:
        hops = "; next hops start shortest paths" if args.paths else ""
        print(f"validation: OK (certified against an independent oracle{hops})")
    if args.trace and result.tracer is not None:
        print("\nper-category busy time:")
        cats = sorted({s.category for s in result.tracer.spans})
        for c in cats:
            print(f"  {c:<14s} {result.tracer.total_time(c):.6f} s total across actors")
    if args.output:
        save_matrix(args.output, result.dist)
        print(f"distances written to {args.output}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out:
        print(f"Chrome trace written to {args.trace_out} (open in Perfetto)")
    return 0


def _variant_sink(path: str, variant: str) -> str:
    """Derive the per-variant sink file: trace.json -> trace.offload.json."""
    import os

    root, ext = os.path.splitext(path)
    return f"{root}.{variant}{ext or '.json'}"


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .api import ObsSinks
    from .obs.export import write_chrome_trace
    from .obs.validation import run_profile

    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    if not variants:
        from .errors import ConfigurationError

        raise ConfigurationError("--variants must name at least one variant")
    # Validate every sink (including derived per-variant files) before
    # spending any time solving.
    sinks = [args.report_json] if args.report_json else []
    for path in (args.metrics_out, args.trace_out):
        if path:
            sinks.extend(_variant_sink(path, v) for v in variants)
    for path in sinks:
        ObsSinks(metrics_out=path).validate()

    w = _load_graph(args)
    backends = _profile_backends(args.kernel_backend)
    if len(backends) > 1:
        return _profile_backend_sweep(args, w, variants, backends)
    prof = run_profile(
        w,
        variants=variants,
        block_size=args.block,
        machine=args.machine,
        n_nodes=args.nodes,
        ranks_per_node=args.ranks_per_node,
        dim_scale=args.scale,
        kernel_backend=backends[0],
    )
    print(prof.report.summary())
    if args.report_json:
        with open(args.report_json, "w") as f:
            json.dump(prof.report.to_dict(), f, indent=2)
        print(f"\nvalidation report written to {args.report_json}")
    for variant, result in prof.results.items():
        if args.metrics_out:
            path = _variant_sink(args.metrics_out, variant)
            with open(path, "w") as f:
                json.dump(result.metrics.as_dict(), f, indent=2)
            print(f"metrics[{variant}] written to {path}")
        if args.trace_out:
            path = _variant_sink(args.trace_out, variant)
            write_chrome_trace(result.tracer, path, run_name=f"repro profile {variant}")
            print(f"trace[{variant}] written to {path} (open in Perfetto)")
    return 0


def _profile_backends(spec) -> list:
    """Resolve the profile --kernel-backend spec to a backend list.

    ``None`` → [None] (the default backend, single-backend mode); a single
    name → [name]; a comma list or ``all`` → sweep over the named /
    every available backend.
    """
    if spec is None:
        return [None]
    if spec.strip().lower() == "all":
        from .semiring.backends import available_backends

        return sorted(available_backends())
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        from .errors import ConfigurationError

        raise ConfigurationError("--kernel-backend must name at least one backend")
    from .semiring.backends import get_backend

    for name in names:  # fail fast on unknown/unavailable names
        get_backend(name)
    return names


def _profile_backend_sweep(args: argparse.Namespace, w, variants, backends) -> int:
    """Sweep mode: one instrumented profile per backend, then a
    comparison table of fitted t_f (simulated; backend-invariant by
    design) against the physical wall-clock rate each backend achieved
    (from the ``kernel.wall_seconds`` meter)."""
    import json

    from .obs.validation import run_profile

    rows = []
    reports = {}
    for name in backends:
        prof = run_profile(
            w,
            variants=variants,
            block_size=args.block,
            machine=args.machine,
            n_nodes=args.nodes,
            ranks_per_node=args.ranks_per_node,
            dim_scale=args.scale,
            kernel_backend=name,
        )
        reports[name] = prof.report.to_dict()
        flops = sum(
            r.metrics.value("kernel.flops", 0.0) for r in prof.results.values()
        )
        wall = sum(
            r.metrics.value("kernel.wall_seconds", 0.0) for r in prof.results.values()
        )
        rows.append(
            {
                "backend": name,
                "t_f_fitted": prof.report.constants.t_f,
                "kernel_flops": flops,
                "kernel_wall_seconds": wall,
                "wall_t_f": (wall / flops) if flops else float("nan"),
                "wall_gflops": (flops / wall / 1e9) if wall else float("nan"),
            }
        )
    print(f"kernel-backend sweep over {len(rows)} backends "
          f"(variants: {', '.join(variants)})")
    print(f"{'backend':<12s} {'fitted t_f':>12s} {'wall t_f':>12s} {'wall GF/s':>10s}")
    for r in rows:
        print(
            f"{r['backend']:<12s} {r['t_f_fitted']:>12.3e} "
            f"{r['wall_t_f']:>12.3e} {r['wall_gflops']:>10.3f}"
        )
    print(
        "\nfitted t_f is derived from simulated kernel-busy time and is "
        "backend-invariant by design; wall t_f / GF/s measure the physical "
        "kernel speed of each backend on this host."
    )
    if args.report_json:
        with open(args.report_json, "w") as f:
            json.dump({"sweep": rows, "reports": reports}, f, indent=2)
        print(f"\nsweep report written to {args.report_json}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    import numpy as np

    from .machine import MACHINES, CostModel
    from .perfmodel import min_offload_block_size, tune
    from .semiring.backends import tune_kernel_tiling

    cost = CostModel(MACHINES[args.machine])
    report = tune(cost, args.n, args.nodes, args.ranks_per_node, offload=args.offload)
    print(report.summary())
    if args.offload:
        print(f"Eq. 5 minimum offload block size: {min_offload_block_size(cost):.0f}")
    b = report.block_size
    kt = tune_kernel_tiling(b, b, b, np.dtype(np.float64).itemsize)
    print(
        f"kernel tiling at b={b} (float64): tile {kt.tile_m}x{kt.tile_n}, "
        f"k-chunk {kt.k_chunk}, byte budget {kt.byte_budget}"
    )
    return 0


def cmd_backends(_: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .semiring.backends import ENV_BACKEND, default_backend_name, registered_backends

    default = default_backend_name()
    registry = registered_backends()
    for name, backend in sorted(registry.items()):
        marker = "*" if name == default else " "
        print(f"{marker} {name:<12s} {backend.describe()}")
    print("\n* = default (override with --kernel-backend or $REPRO_SRGEMM_BACKEND)")
    if default not in registry:
        # Every row is printed first: this listing is what one reads to
        # fix the variable.  The exit code is the one `solve` would give.
        raise ConfigurationError(
            f"${ENV_BACKEND}={default!r} names no registered backend; "
            f"registered: {sorted(registry)}"
        )
    return 0


def cmd_variants(_: argparse.Namespace) -> int:
    from .core.variants import VARIANTS

    for v, row in VARIANTS.items():
        print(f"{v.value:<18s} {row.schedule.name:<11s} {row.residency.name:<5s} "
              f"{row.bcast.name:<5s} {row.placement:<11s} {row.description}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import closeness_centrality, summarize
    from .graphs import load_matrix

    dist = load_matrix(args.input)
    s = summarize(dist)
    print(f"vertices:          {s.n}")
    print(f"reachable pairs:   {s.reachable_pairs} of {s.n * (s.n - 1)}")
    print(f"strongly connected components: {s.components}")
    print(f"diameter / radius: {s.diameter:.4g} / {s.radius:.4g}")
    print(f"mean distance:     {s.average_distance:.4g}")
    print(f"center vertices:   {list(s.center)[:args.top]}")
    print(f"periphery:         {list(s.periphery)[:args.top]}")
    closeness = closeness_centrality(dist)
    order = np.argsort(closeness)[::-1][: args.top]
    print("top closeness:     " + ", ".join(f"v{int(v)}={closeness[v]:.4f}" for v in order))
    return 0


def cmd_placement(args: argparse.Namespace) -> int:
    from .core import ProcessGrid, tiled_placement

    p = tiled_placement(ProcessGrid(args.pr, args.pc), args.qr, args.qc)
    print(p.describe())
    print(p.ascii_diagram())
    return 0


def cmd_sched(args: argparse.Namespace) -> int:
    import json

    from .obs.sinks import check_sink_path
    from .sched import load_job_mix, run_job_mix

    for path in (args.report_json, args.metrics_out, args.trace_out):
        if path is not None:
            check_sink_path(path)
    spec = load_job_mix(args.spec)
    if args.no_resilience:
        spec = dict(spec)
        spec.pop("resilience", None)
        spec["jobs"] = [
            {k: v for k, v in job.items() if k not in ("retry", "deadline")}
            for job in spec.get("jobs", [])
        ]
    scheduler, reports = run_job_mix(
        spec, trace=True if args.trace_out else None
    )

    print(
        f"{'job':<16s} {'status':<9s} {'prio':>4s} {'queued':>10s} "
        f"{'elapsed':>10s} {'latency':>10s} {'exit':>4s}"
    )
    for r in reports:
        print(
            f"{r.name:<16s} {r.status:<9s} {r.priority:>4d} "
            f"{r.queue_wait:>10.6f} {r.elapsed:>10.6f} {r.latency:>10.6f} "
            f"{r.exit_code:>4d}"
        )
        if r.error:
            print(f"  {r.name}: {r.error}")
    flat = scheduler.fleet_metrics().flat()
    print("\nfleet:")
    for key in sorted(flat):
        if key.startswith("fleet."):
            print(f"  {key:<28s} {flat[key]:g}")

    if args.report_json:
        payload = {
            "spec": args.spec,
            "jobs": [r.as_dict() for r in reports],
            "fleet": {k: v for k, v in sorted(flat.items()) if k.startswith("fleet.")},
        }
        with open(args.report_json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"report written to {args.report_json}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(scheduler.fleet_metrics().as_dict(), fh, indent=2)
        print(f"fleet metrics written to {args.metrics_out}")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(scheduler.chrome_trace(run_name=f"repro sched {args.spec}"), fh)
        print(f"Chrome trace written to {args.trace_out} (open in Perfetto)")
    # A failed tenant fails the mix with its own class's exit code.
    return max((r.exit_code for r in reports), default=0)


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.fuzz_command == "run":
        return _cmd_fuzz_run(args)
    if args.fuzz_command == "replay":
        return _cmd_fuzz_replay(args)
    return _cmd_fuzz_corpus(args)


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from .fuzz import FuzzSession

    isolate = args.isolate or args.jobs > 1 or args.timeout is not None
    session = FuzzSession(
        budget=args.budget,
        seed=args.seed,
        corpus_path=args.corpus,
        autopilot=not args.no_autopilot,
        timeout=args.timeout,
        isolate=isolate,
        jobs=args.jobs,
        shrink_findings=not args.no_shrink,
        max_findings=args.max_findings,
        log=lambda msg: print(f"  {msg}"),
    )
    report = session.run()
    print(report.summary())
    if args.report_json:
        import json

        with open(args.report_json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.report_json}")
    # Exit 0 only on a clean sweep: findings fail CI smoke jobs loudly.
    return 0 if report.ok else 1


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from .fuzz import Corpus

    replay = Corpus(args.corpus).replay(args.id)
    print(replay.record.scenario.describe())
    print(
        f"replay: {replay.outcome.status} (exit {replay.outcome.exit_code}) - "
        f"{'BIT-EXACT' if replay.bit_exact else 'DIGEST DRIFT'}: {replay.detail}"
    )
    return 0 if replay.bit_exact else 1


def _cmd_fuzz_corpus(args: argparse.Namespace) -> int:
    from .fuzz import Corpus

    corpus = Corpus(args.corpus)
    if args.corpus_command == "minimize":
        kept = corpus.minimize(args.output)
        print(f"kept {kept} record(s) in {args.output or args.corpus}")
        return 0
    shown = 0
    for record in corpus:
        if args.findings and not record.is_finding:
            continue
        flags = []
        if record.is_finding:
            flags.append("FINDING:" + ",".join(sorted({v.family for v in record.violations})))
        if record.shrunk_from:
            flags.append(f"shrunk-from:{record.shrunk_from}")
        status = record.outcome.status if record.outcome else "?"
        print(f"{record.scenario.describe()} [{status}]" + (f" {' '.join(flags)}" if flags else ""))
        shown += 1
    print(f"{shown} record(s)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.serve_command == "build":
        return _cmd_serve_build(args)
    if args.serve_command == "info":
        return _cmd_serve_info(args)
    return _cmd_serve_update(args)


def _cmd_serve_build(args: argparse.Namespace) -> int:
    from .api import SolveConfig, solve

    config = SolveConfig.from_env(
        variant=args.variant,
        block_size=args.block,
        n_nodes=args.nodes,
        ranks_per_node=args.ranks_per_node,
        machine=args.machine,
        kernel_backend=args.kernel_backend,
    )
    w = _load_graph(args)
    result = solve(w, config)
    print(result.report.summary())
    artifact = result.save(
        args.artifact,
        block_size=args.artifact_block,
        graph=None if args.no_graph else w,
        overwrite=args.overwrite,
    )
    print()
    print(artifact.describe())
    return 0


def _cmd_serve_info(args: argparse.Namespace) -> int:
    from .serve import load_artifact

    print(load_artifact(args.artifact).describe())
    return 0


def _cmd_serve_update(args: argparse.Namespace) -> int:
    from .errors import QueryError
    from .obs.sinks import ObsSinks
    from .serve import ServeConfig, serve

    def parse_edge(spec: str):
        parts = spec.split(",")
        if len(parts) != 3:
            raise QueryError(f"--edge wants U,V,W, got {spec!r}")
        try:
            return int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise QueryError(f"--edge wants U,V,W, got {spec!r}") from None

    updates = [parse_edge(spec) for spec in args.edge]
    config = ServeConfig.from_env(
        kernel_backend=args.kernel_backend,
        obs=ObsSinks(metrics_out=args.metrics_out),
    )
    with serve(args.artifact, config) as server:
        expensive = server.batch_update(updates)
        stats = server.stats()["incremental"]
    fast = stats["fast_updates"]
    print(
        f"{len(updates)} update(s): {fast} fast (O(n^2) patch, "
        f"{stats['dirty_blocks']} tile(s) rewritten), "
        f"{stats['recomputes']} re-solve(s) covering {expensive} update(s)"
    )
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .errors import QueryError
    from .obs.sinks import ObsSinks
    from .serve import ServeConfig, serve

    def parse_ints(spec: str, what: str, want: int):
        parts = spec.split(",")
        if len(parts) != want:
            raise QueryError(f"{what} wants {want} comma-separated ints, got {spec!r}")
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise QueryError(f"{what} wants integers, got {spec!r}") from None

    config = ServeConfig.from_env(
        cache_bytes=args.cache_bytes,
        obs=ObsSinks(metrics_out=args.metrics_out),
    )
    did_anything = False
    with serve(args.artifact, config) as server:
        if args.pair:
            pairs = [parse_ints(spec, "--pair", 2) for spec in args.pair]
            dists = server.batch(pairs)
            for (s, t), d in zip(pairs, dists):
                print(f"d({s}, {t}) = {d:g}")
            did_anything = True
        if args.nearest:
            s, k = parse_ints(args.nearest, "--nearest", 2)
            print(f"{min(k, server.n - 1)} nearest to {s}:")
            for v, d in server.k_nearest(s, k):
                print(f"  v{v:<6d} {d:g}")
            did_anything = True
        if args.submatrix:
            halves = args.submatrix.split(":")
            if len(halves) != 2:
                raise QueryError(
                    f"--submatrix wants ROWS:COLS, got {args.submatrix!r}"
                )
            try:
                rows = [int(p) for p in halves[0].split(",") if p.strip()]
                cols = [int(p) for p in halves[1].split(",") if p.strip()]
            except ValueError:
                raise QueryError(
                    f"--submatrix wants comma-separated ints on each side "
                    f"of ':', got {args.submatrix!r}"
                ) from None
            sub = server.submatrix(rows, cols)
            header = "        " + " ".join(f"{c:>10d}" for c in cols)
            print(header)
            for r, line in zip(rows, sub):
                print(f"{r:>7d} " + " ".join(f"{v:>10.4g}" for v in line))
            did_anything = True
        if not did_anything:
            print(server.describe())
        stats = server.cache_stats()
    print(
        f"cache: {stats['hits']} hit(s) / {stats['misses']} miss(es), "
        f"{stats['resident_blocks']} block(s) "
        f"({stats['resident_bytes']} bytes) resident"
    )
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .errors import ReproError, exit_code_for

    args = build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "profile": cmd_profile,
        "tune": cmd_tune,
        "variants": cmd_variants,
        "backends": cmd_backends,
        "placement": cmd_placement,
        "analyze": cmd_analyze,
        "sched": cmd_sched,
        "fuzz": cmd_fuzz,
        "serve": cmd_serve,
        "query": cmd_query,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
