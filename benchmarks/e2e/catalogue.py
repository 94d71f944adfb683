"""The benchmark's vocabulary: workloads and metrics, in one place.

``BENCHMARK.json`` at the repo root is generated from this module
(``python -m benchmarks.e2e manifest``), ``run`` refuses to emit a metric
that is not listed here, and ``compare`` takes every direction and bound
from here.

Three groups of metrics:

* :data:`END_TO_END` - reported by **every** workload from untraced
  rounds, never zero, each with the bound by which it may worsen.  These
  are the four the driver gates on.
* :data:`WORKLOAD_METRICS` - the user-visible numbers that only exist on
  some workloads (GF/s of a solve, p99 of a point query, ...).  Same
  untraced rounds, same bounds, used by ``compare``.
* :data:`PER_LAYER` - attribution from the traced round; layer = module
  under ``src/repro/``.  A layer metric reads 0 on a workload that does
  not exercise (or did not measure) that layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Seconds one run measures for (``--seconds`` default; BENCHMARK.json).
RUN_SECONDS = 6
#: Bound of every host-time metric.  Set from measured run-to-run spread
#: on the 2-core sandbox, not from hope: over several sets of ten runs the
#: inter-quartile range of ``ops_per_s`` was 1.5-10.3 % of its median
#: depending on the period (a bare kernel loop drifts by as much), and the
#: bound should be about three times that.  See README "Noise".
HOST_TIME_BOUND = 0.25
#: Child processes per untraced run: each sets up from scratch, so one
#: run yields this many ``setup_s`` / ``peak_rss_mb`` samples, and the
#: timed rounds are pooled over them.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # solve | fleet | serve
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline median the metric may worsen by; None for
    #: layer metrics (no bound).
    bound: Optional[float] = None
    #: Deterministic for a given seed: two run sets must agree exactly.
    exact: bool = False
    doc: str = ""


WORKLOADS = [
    Workload("solve-kernel-bound", "solve",
             "n=1536 b=128 async: ~1.7k large kernel calls, semiring arithmetic is ~95% of "
             "wall; a kernel or threading change shows here and nowhere else"),
    Workload("solve-overhead-bound", "solve",
             "n=512 b=16 async: 32.7k tiny kernel calls, per-call Python/ctypes marshalling "
             "dominates; batching or pointer caching shows here, not on solve-kernel-bound"),
    Workload("solve-offload", "solve",
             "n=1024 b=32 offload: host-resident matrix and ooGSrGemm stream pipeline, the "
             "largest share of wall outside kernels; event-engine and lowering trims show here"),
    Workload("solve-armed", "solve",
             "solve-overhead-bound with verify=checksum, checkpoints and metrics on: the guard "
             "layers do most of the extra work, so a guard-layer change moves only this one"),
    Workload("fleet-mixed", "fleet",
             "16 mixed jobs (six variants, priorities, staggered arrivals) on one shared "
             "ClusterScheduler: admission, fair share and the sched epoch loop are on the path"),
    Workload("serve-warm", "serve",
             "n=1536 artifact fully cache-resident, hot-set endpoints: every read is a cache "
             "hit, serve.query index arithmetic does all the work"),
    Workload("serve-evicting", "serve",
             "same artifact, 2 MiB cache, uniform endpoints: ~90% misses, each one memmap "
             "open + CRC + LRU eviction; a query-path gain predicts no change here"),
    Workload("serve-update", "serve",
             "edge decreases and one re-solving increase beside reads on a private artifact: "
             "a read gain paid for by costlier invalidation or rewrite shows as a loss here"),
]

END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25,
           doc="child start -> first timed op: import, cnative compile into a fresh cache, "
               "input generation; serve: + solve, save, open, warm-up"),
    Metric("ops_per_s", "1/s", "higher", HOST_TIME_BOUND,
           doc="work items per host second: solve() calls / fleet jobs / read queries / "
               "(serve-update) reads+updates over the whole round"),
    Metric("call_p50_ms", "ms", "lower", HOST_TIME_BOUND,
           doc="median latency of the workload's blocking call: one solve() / one fleet "
               "(16 submits + run) / one distance() / (serve-update) one decreasing update_edge"),
    # Not tighter: identical work lands on either of two resident sizes
    # ~13 % apart, depending on where glibc happens to trim its heap.
    Metric("peak_rss_mb", "MiB", "lower", 0.25,
           doc="VmHWM (peak resident set) of the child after its timed rounds"),
]

WORKLOAD_METRICS = [
    Metric("solve_gflops", "GF/s", "higher", HOST_TIME_BOUND,
           doc="2n^3 / wall of one whole repro.solve() (fleet: sum 2n^3 / fleet wall)"),
    Metric("sim_makespan_s", "s", "lower", 0.0, exact=True,
           doc="simulated seconds (ApspResult.makespan / fleet.makespan)"),
    Metric("jobs_per_s", "1/s", "higher", HOST_TIME_BOUND,
           doc="fleet jobs completed per host second, submit -> run() returns"),
    Metric("qps", "1/s", "higher", HOST_TIME_BOUND,
           doc="read queries (point+batch+k_nearest+submatrix) per host second"),
    Metric("point_p50_us", "us", "lower", HOST_TIME_BOUND,
           doc="median QueryServer.distance latency"),
    Metric("point_p99_us", "us", "lower", HOST_TIME_BOUND, doc="per-round p99 of the same"),
    Metric("batch_pairs_per_s", "1/s", "higher", HOST_TIME_BOUND,
           doc="pairs answered per second by QueryServer.batch (256-pair batches)"),
    Metric("update_p50_ms", "ms", "lower", HOST_TIME_BOUND,
           doc="median update_edge latency on the decrease (rank-1 patch) path"),
    Metric("resolve_s", "s", "lower", HOST_TIME_BOUND,
           doc="update_edge latency on the increase (scheduled re-solve) path"),
    Metric("failed_ratio", "ratio", "lower", 0.0, exact=True,
           doc="ops that failed their oracle, raised or were refused / ops attempted"),
    Metric("ops_per_round", "count", "higher", 0.0, exact=True,
           doc="ops in one timed round; guards against a speed-up that does less work"),
]


def _layer(name, unit, better, exact=False, doc=""):
    return Metric(name, unit, better, None, exact, doc)


PER_LAYER = [
    # -- semiring (the kernel backend, via the benchmark's proxy backend) ----
    _layer("semiring.calls", "count", "lower", True, "kernel entry-point calls per round"),
    _layer("semiring.flops", "count", "lower", True, "2mnk summed over those calls"),
    _layer("semiring.busy_s", "s", "lower", doc="summed kernel spans per round"),
    _layer("semiring.share", "ratio", "higher", doc="busy_s / root span of the round"),
    _layer("semiring.us_per_call", "us", "lower", doc="busy_s / calls"),
    _layer("semiring.achieved_gflops", "GF/s", "higher", doc="flops / busy_s"),
    _layer("semiring.peak_outer_gflops", "GF/s", "higher",
           doc="same-run probe: srgemm_outer on 256^2 float64 (the kernel's own "
               "large-block rate, not a machine roofline)"),
    _layer("semiring.efficiency", "ratio", "higher", doc="achieved / peak_outer"),
    _layer("semiring.flops_per_byte_computed", "flop/B", "higher", True,
           doc="from operand shapes; ignores cache misses"),
    _layer("semiring.compile_load_s", "s", "lower",
           doc="first cnative use with a fresh cache directory"),
    # -- core (driver stages, wrapped by the tracer) --------------------------
    _layer("core.hollow_s", "s", "lower",
           doc="same config with numerics off: lowering + engine + MPI + machine model"),
    _layer("core.hollow_share", "ratio", "lower", doc="hollow_s / untraced wall"),
    _layer("core.plan_s", "s", "lower", doc="self time of core.driver.plan_run per round"),
    _layer("core.distribute_s", "s", "lower", doc="self time of RunPlan.distribute"),
    _layer("core.collect_s", "s", "lower", doc="self time of core.collect"),
    _layer("core.build_result_s", "s", "lower", doc="self time of core.driver.build_result"),
    _layer("core.phase_ops", "count", "lower", True,
           doc="sum of phase.*.count from a metrics-armed solve"),
    # -- sim ------------------------------------------------------------------
    _layer("sim.makespan_s", "s", "lower", True, "simulated makespan of one solve / fleet"),
    _layer("sim.run_self_s", "s", "lower",
           doc="Environment.run minus the kernel spans inside it (covers core.executor, "
               "mpi and machine generators)"),
    _layer("sim.us_per_phase_op", "us", "lower", doc="run_self_s / core.phase_ops"),
    _layer("sim.events_per_s", "1/s", "higher",
           doc="probe: 64 generator processes x 500 timeouts on a bare Environment"),
    # -- mpi / machine / perfmodel -------------------------------------------
    _layer("mpi.messages", "count", "lower", True, "PerfReport.messages"),
    _layer("mpi.internode_bytes", "B", "lower", True, "PerfReport.internode_bytes (computed)"),
    _layer("mpi.bcast_tree_us", "us", "lower", doc="probe: host us per rank-collective, P=4"),
    _layer("mpi.bcast_ring_us", "us", "lower", doc="probe: same for the ring broadcast"),
    _layer("machine.stream_op_us", "us", "lower",
           doc="probe: host us per stream op (kernel/h2d/d2h) + one transfer"),
    _layer("machine.gpu_peak_bytes", "B", "lower", True, "PerfReport.gpu_peak_bytes"),
    _layer("perfmodel.makespan_rel_err", "ratio", "lower", True,
           doc="|sim makespan - Eq.1 prediction| / sim makespan"),
    # -- guard layers (solve-armed only) --------------------------------------
    _layer("verify.overhead_ratio", "ratio", "lower", doc="wall(all guards) / wall(verify off)"),
    _layer("faults.checkpoint_overhead_ratio", "ratio", "lower",
           doc="wall(all guards) / wall(checkpoints off)"),
    _layer("obs.metrics_overhead_ratio", "ratio", "lower",
           doc="wall(all guards) / wall(metrics off)"),
    _layer("obs.trace_overhead_ratio", "ratio", "lower",
           doc="wall(all guards + SolveConfig.trace) / wall(all guards)"),
    _layer("obs.bench_trace_overhead_ratio", "ratio", "lower",
           doc="traced round wall / median untraced round wall (this benchmark's tracer)"),
    # -- sched ----------------------------------------------------------------
    _layer("sched.submit_s", "s", "lower", doc="ClusterScheduler.submit spans per round"),
    _layer("sched.run_s", "s", "lower", doc="ClusterScheduler.run span per round"),
    _layer("sched.overhead_ratio", "ratio", "lower",
           doc="fleet wall / sum of the same jobs as solo repro.solve"),
    _layer("sched.sim_gpu_utilization", "ratio", "higher", True, "fleet.gpu.utilization"),
    _layer("sched.sim_queue_wait_p99_s", "s", "lower", True, "fleet.job.queue_wait.p99"),
    _layer("sched.sim_latency_p99_s", "s", "lower", True, "fleet.job.latency.p99"),
    _layer("sched.jobs_done", "count", "higher", True),
    _layer("sched.jobs_failed", "count", "lower", True),
    # -- serve.artifact -------------------------------------------------------
    _layer("serve.artifact.save_s", "s", "lower", doc="ApspResult.save in set-up"),
    _layer("serve.artifact.save_bytes", "B", "lower", True, "bytes on disk after save"),
    _layer("serve.artifact.open_s", "s", "lower", doc="repro.serve(path) in set-up"),
    _layer("serve.artifact.load_block_us", "us", "lower", doc="p50 of Artifact.load_block"),
    _layer("serve.artifact.load_block_calls", "count", "lower", True),
    _layer("serve.artifact.rewrite_block_calls", "count", "lower", True),
    _layer("serve.artifact.rewritten_bytes", "B", "lower", True),
    _layer("serve.artifact.rewrite_graph_s", "s", "lower",
           doc="Artifact.rewrite_graph spans per round (the graph payload, per update)"),
    _layer("serve.artifact.flush_s", "s", "lower", doc="Artifact.flush spans per round"),
    # -- serve.cache ----------------------------------------------------------
    _layer("serve.cache.hits", "count", "higher", True),
    _layer("serve.cache.misses", "count", "lower", True),
    _layer("serve.cache.evictions", "count", "lower", True),
    _layer("serve.cache.hit_rate", "ratio", "higher", True),
    _layer("serve.cache.get_self_us", "us", "lower",
           doc="p50 self time of BlockCache.get (loader excluded)"),
    # -- serve.query ----------------------------------------------------------
    _layer("serve.query.point_self_us", "us", "lower",
           doc="p50 self time of QueryEngine.distance (cache/artifact excluded)"),
    _layer("serve.query.point_p99_us", "us", "lower", doc="p99 of the same span's duration"),
    _layer("serve.query.batch_p50_us", "us", "lower"),
    _layer("serve.query.k_nearest_p50_us", "us", "lower"),
    _layer("serve.query.submatrix_p50_us", "us", "lower"),
    _layer("serve.query.cold_first_touch_us", "us", "lower",
           doc="first distance() on a freshly opened server (one tile load)"),
    # -- serve.incremental ----------------------------------------------------
    _layer("serve.incremental.fast_updates", "count", "higher", True),
    _layer("serve.incremental.recomputes", "count", "lower", True),
    _layer("serve.incremental.dirty_blocks", "count", "lower", True),
    _layer("serve.incremental.patch_self_ms", "ms", "lower",
           doc="p50 self time of ArtifactPatcher.update_edge on decreases"),
    _layer("serve.incremental.resolve_sched_s", "s", "lower",
           doc="ClusterScheduler.run span inside an increase"),
    # -- graphs ---------------------------------------------------------------
    _layer("graphs.generate_s", "s", "lower", doc="the generator call in set-up"),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]
END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
METRICS = {m.name: m for m in END_TO_END + WORKLOAD_METRICS + PER_LAYER}


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; known: {WORKLOAD_NAMES}")


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e", "run"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
