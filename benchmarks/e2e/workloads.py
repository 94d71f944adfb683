"""The eight workloads, as run inside one child process.

A workload is set up once, then asked for identical *rounds*: a fixed
list of operations, each checked against an oracle.  ``round()`` returns
the round's user-visible numbers; with a tracer it also returns the
round's per-layer numbers.  Every input comes from ``--seed``; the
program under test only ever sees the generated arrays.

All loops are closed, one caller: this is an in-process library whose
callers wait for the reply, and there is no network front end to drive
open-loop.
"""

from __future__ import annotations

import os
import time
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from .tracing import SpanTable, Tracer, tracing_backend

CLUSTER = dict(n_nodes=2, ranks_per_node=2)


class Tally:
    """Ops attempted / failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.messages) < 10:
            self.messages.append(message)

    def check(self, good: bool, message: str, count: int = 1) -> None:
        if good:
            self.ok(count)
        else:
            self.fail(message, count)


class Stopwatch:
    """Named wall-clock sections of set-up."""

    def __init__(self):
        self.sections: dict[str, float] = {}

    def time(self, name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.sections[name] = self.sections.get(name, 0.0) + time.perf_counter() - t0
        return out


def load_native_backend(cache_dir: str):
    """First use of ``cnative`` against a fresh cache directory.

    The backend silently degrades to the tiled NumPy path when the
    compile fails; that would measure the wrong program, so the warning
    it emits is turned into an error and the shared object must exist.
    """
    from repro.semiring.backends import get_backend

    if os.path.isdir(cache_dir) and os.listdir(cache_dir):
        raise RuntimeError(f"cnative cache {cache_dir} is not fresh")
    backend = get_backend("cnative")
    tile = np.ones((8, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        backend.srgemm_outer(np.full((8, 8), 3.0), tile, tile)
    if not list(Path(cache_dir).glob("*.so")):
        raise RuntimeError("cnative did not build a native kernel; refusing to measure")


class Workload:
    """Base: set-up bookkeeping shared by the three families."""

    family = ""
    ops_per_round = 0

    def __init__(self, name: str, seed: int, child: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.child = child
        self.workdir = workdir
        self.tally = Tally()
        self.setup_times = Stopwatch()
        #: Layer metrics that are known once set-up is done.
        self.layer_from_setup: dict[str, float] = {}
        self.tracer: Optional[Tracer] = None
        #: Spans of the first traced round (written out as the trace file).
        self.first_table: Optional[SpanTable] = None
        self._round_index = 0

    # -- set-up -------------------------------------------------------------
    def setup(self) -> None:
        clock = self.setup_times
        clock.time("import_s", self._import)
        clock.time(
            "compile_load_s", lambda: load_native_backend(os.environ["REPRO_CNATIVE_CACHE"])
        )
        clock.time("generate_s", self.generate)
        clock.time("prepare_s", self.prepare)
        self.layer_from_setup["semiring.compile_load_s"] = clock.sections["compile_load_s"]
        self.layer_from_setup["graphs.generate_s"] = clock.sections["generate_s"]

    def _import(self) -> None:
        # `import repro` is lazy; pull in what a first call would import,
        # so no round pays for it.
        import repro.api  # noqa: F401
        import repro.core.driver  # noqa: F401
        import repro.graphs  # noqa: F401
        import repro.sched  # noqa: F401
        import repro.serve  # noqa: F401

    @staticmethod
    def oracle_graphs(name: str, seed: int) -> list[np.ndarray]:
        """Inputs whose SciPy Floyd-Warshall the parent computes once per
        run and leaves in the work directory as ``oracle-<i>.npy``."""
        return []

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Whatever else a user pays before the first timed op."""

    def rng(self, traced: bool, index: int) -> np.random.Generator:
        """The generator of one round's stream for this (seed, child)."""
        return np.random.default_rng([self.seed, self.child, int(traced), index])

    # -- rounds -------------------------------------------------------------
    def next_round(self, tracer: Optional[Tracer] = None) -> dict:
        """One round.  Untraced: the user-visible numbers.  Traced: the
        same operations under the tracer, returning per-layer numbers.
        Either way ``round_wall_s`` is the wall of the whole round."""
        index = self._round_index
        self._round_index += 1
        if tracer is None:
            t0 = time.perf_counter()
            out = self.round(index)
            out["round_wall_s"] = time.perf_counter() - t0
            return out
        self.tracer = tracer
        self.patch(tracer)
        try:
            with tracer.span("round", "bench"):
                counters = self.traced_round(index)
        finally:
            tracer.unpatch()
            self.tracer = None
        table = SpanTable(tracer.drain())
        if self.first_table is None:
            self.first_table = table
        layer = self.layer_metrics(table, counters)
        layer["round_wall_s"] = table.root_duration()
        return layer

    def round(self, index: int) -> dict:
        raise NotImplementedError

    def traced_round(self, index: int) -> dict:
        raise NotImplementedError

    def patch(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def layer_metrics(self, table: SpanTable, counters: dict) -> dict:
        raise NotImplementedError

    def extras(self, untraced_wall_s: float) -> dict:
        """Per-layer numbers that need runs of their own (traced pass)."""
        return {}

    def verify(self) -> None:
        """Oracle checks that are too slow to run between rounds."""

    def close(self) -> None:
        pass


def kernel_layer_metrics(table: SpanTable, proxy) -> dict:
    busy = table.layer_total("semiring")
    root = table.root_duration()
    return {
        "semiring.calls": proxy.calls,
        "semiring.flops": proxy.flops,
        "semiring.busy_s": busy,
        "semiring.share": busy / root if root else 0.0,
        "semiring.us_per_call": busy / proxy.calls * 1e6 if proxy.calls else 0.0,
        "semiring.achieved_gflops": proxy.flops / busy / 1e9 if busy else 0.0,
        "semiring.flops_per_byte_computed":
            proxy.flops / proxy.bytes_computed if proxy.bytes_computed else 0.0,
    }


def driver_layer_metrics(table: SpanTable) -> dict:
    return {
        "core.plan_s": table.total("plan_run"),
        "core.distribute_s": table.total("RunPlan.distribute"),
        "core.collect_s": table.total("collect"),
        "core.build_result_s": table.total("build_result"),
        "sim.run_self_s": table.total("Environment.run"),
    }


def report_metrics(report) -> dict:
    """Exact simulated-side numbers of one solve, and how far the Eq. 1
    prediction is from the simulated makespan."""
    from repro.machine import MACHINES
    from repro.machine.cost import CostModel
    from repro.perfmodel import predict_runtime

    cost = CostModel(MACHINES[report.machine], dim_scale=report.dim_scale)
    predicted = predict_runtime(
        cost, report.n_virtual, report.block_size, report.grid_pr, report.grid_pc,
        q_r=report.placement_qr, q_c=report.placement_qc,
        gpus_share=max(1, int(report.gpus_share)),
    ).total
    return {
        "sim.makespan_s": report.makespan,
        "mpi.messages": report.messages,
        "mpi.internode_bytes": report.internode_bytes,
        "machine.gpu_peak_bytes": report.gpu_peak_bytes,
        "perfmodel.makespan_rel_err": abs(report.makespan - predicted) / report.makespan,
    }


# =============================================================================
# solve-*
# =============================================================================

SOLVE_SHAPES = {
    "solve-kernel-bound": dict(n=1536, variant="async", block_size=128),
    "solve-overhead-bound": dict(n=512, variant="async", block_size=16),
    "solve-offload": dict(n=1024, variant="offload", block_size=32),
    "solve-armed": dict(n=512, variant="async", block_size=16),
}


def solve_inputs(name: str, seed: int) -> np.ndarray:
    from repro.graphs import uniform_random_dense

    return uniform_random_dense(SOLVE_SHAPES[name]["n"], seed=seed)


class SolveWorkload(Workload):
    family = "solve"
    ops_per_round = 1

    @staticmethod
    def oracle_graphs(name: str, seed: int) -> list[np.ndarray]:
        return [solve_inputs(name, seed)]

    def generate(self) -> None:
        self.w = solve_inputs(self.name, self.seed)

    def prepare(self) -> None:
        import repro

        shape = SOLVE_SHAPES[self.name]
        self.n = shape["n"]
        self.base = repro.SolveConfig(
            variant=shape["variant"], block_size=shape["block_size"],
            kernel_backend="cnative", **CLUSTER,
        )
        self.config = self.base
        if self.name == "solve-armed":
            self.config = self.base.replace(
                verify="checksum", checkpoint_interval=8, obs=repro.ObsSinks(metrics=True)
            )
        self.first = None
        # A toy solve pulls in the modules the configuration imports lazily.
        repro.solve(self.w[:32, :32], self.config.replace(block_size=8))

    def _solve(self, config):
        import repro

        t0 = time.perf_counter()
        try:
            result = repro.solve(self.w, config)
        except Exception as exc:  # a failed op is a counted outcome, not a crash
            self.tally.fail(f"solve raised {exc!r}")
            return None, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        good = result.dist is not None
        if good and result.certificate is not None:
            good = bool(result.certificate["passed"])
        if good and self.first is not None:
            good = (np.array_equal(result.dist, self.first.dist)
                    and result.makespan == self.first.makespan)
        self.tally.check(good, "solve differs from the first round's result")
        if self.first is None and good:
            self.first = result
        return result, wall

    def round(self, index: int) -> dict:
        result, wall = self._solve(self.config)
        return {
            "ops_per_s": 1.0 / wall,
            "call_p50_ms": wall * 1e3,
            "solve_gflops": 2.0 * self.n**3 / wall / 1e9,
            "sim_makespan_s": result.makespan if result is not None else 0.0,
        }

    # -- traced ---------------------------------------------------------------
    def patch(self, tracer: Tracer) -> None:
        from .tracing import patch_solve_layers

        patch_solve_layers(tracer)
        self.proxy = tracing_backend(tracer)

    def traced_round(self, index: int) -> dict:
        with self.tracer.span("repro.solve", "api", new_op=True):
            result, _ = self._solve(self.config.replace(kernel_backend=self.proxy))
        return {"result": result}

    def layer_metrics(self, table: SpanTable, counters: dict) -> dict:
        out = kernel_layer_metrics(table, self.proxy)
        out.update(driver_layer_metrics(table))
        result = counters["result"]
        if result is not None:
            out.update(report_metrics(result.report))
        return out

    def _wall(self, config, graph=None) -> float:
        import repro

        t0 = time.perf_counter()
        repro.solve(self.w if graph is None else graph, config)
        return time.perf_counter() - t0

    def extras(self, untraced_wall_s: float) -> dict:
        import repro

        from . import probes

        hollow = self.base.replace(
            compute_numerics=False, collect=False, check_negative_cycles=False
        )
        hollow_s = float(np.median([self._wall(hollow) for _ in range(3)]))
        # Phase counts come from a hollow metrics-armed run: same schedule,
        # same counts, no kernels to pay for.
        counted = repro.solve(self.w, hollow.replace(obs=repro.ObsSinks(metrics=True)))
        phase_ops = sum(
            v for k, v in counted.report.metrics.items()
            if k.startswith("phase.") and k.endswith(".count")
        )
        out = {
            "core.hollow_s": hollow_s,
            "core.hollow_share": hollow_s / untraced_wall_s,
            "core.phase_ops": phase_ops,
        }
        if self.name == "solve-armed":
            out.update(self._guard_overheads())
        out.update(probes.run_all(self.base.block_size))
        return out

    def _guard_overheads(self) -> dict:
        """Wall with all guards on, over wall with one guard toggled.

        Measured on the leading 256 x 256 of the input (same block size,
        a sixth of the wall) so that the five configurations can be run
        interleaved five times within the budget: interleaving puts a
        slow spell of the machine on all of them alike.
        """
        import repro

        armed = self.config
        variants = {
            "all": armed,
            "verify": armed.replace(verify="off"),
            "checkpoint": armed.replace(checkpoint_interval=None),
            "metrics": armed.replace(obs=repro.ObsSinks()),
            "trace": armed.replace(trace=True),
        }
        corner = self.w[:256, :256]
        walls = {key: [] for key in variants}
        for _ in range(5):
            for key, config in variants.items():
                walls[key].append(self._wall(config, corner))
        wall = {key: float(np.median(v)) for key, v in walls.items()}
        return {
            "verify.overhead_ratio": wall["all"] / wall["verify"],
            "faults.checkpoint_overhead_ratio": wall["all"] / wall["checkpoint"],
            "obs.metrics_overhead_ratio": wall["all"] / wall["metrics"],
            "obs.trace_overhead_ratio": wall["trace"] / wall["all"],
        }

    def verify(self) -> None:
        oracle = np.load(self.workdir / "oracle-0.npy")
        good = self.first is not None and np.allclose(
            self.first.dist, oracle, rtol=1e-12, atol=0.0
        )
        self.tally.check(good, "solve disagrees with scipy floyd_warshall")


# =============================================================================
# fleet-mixed
# =============================================================================

FLEET_VARIANTS = ("baseline", "pipelined", "reordering", "async", "offload",
                  "offload-pipelined")
#: Job shapes are fixed (only weights, priorities and arrivals follow the
#: seed) so that two seeds do the same amount of work.
FLEET_SHAPES = [
    dict(n=(128, 192, 256, 384)[i % 4], block_size=(16, 32)[(i // 4) % 2],
         variant=FLEET_VARIANTS[i % 6], n_nodes=1 + (i // 2) % 2)
    for i in range(16)
]


def fleet_inputs(seed: int) -> list[np.ndarray]:
    from repro.graphs import uniform_random_dense

    return [
        uniform_random_dense(shape["n"], seed=[seed, i]) for i, shape in enumerate(FLEET_SHAPES)
    ]


class FleetWorkload(Workload):
    family = "fleet"
    ops_per_round = len(FLEET_SHAPES)

    @staticmethod
    def oracle_graphs(name: str, seed: int) -> list[np.ndarray]:
        return fleet_inputs(seed)

    def generate(self) -> None:
        self.graphs = fleet_inputs(self.seed)
        rng = np.random.default_rng([self.seed, 1 << 20])
        self.priorities = rng.integers(0, 3, len(FLEET_SHAPES)).tolist()
        self.arrivals = rng.uniform(0.0, 2e-3, len(FLEET_SHAPES)).tolist()

    def prepare(self) -> None:
        import repro

        self.configs = [
            repro.SolveConfig(
                variant=s["variant"], block_size=s["block_size"], n_nodes=s["n_nodes"],
                ranks_per_node=2, kernel_backend="cnative",
            )
            for s in FLEET_SHAPES
        ]
        self.flops = sum(2.0 * s["n"] ** 3 for s in FLEET_SHAPES)
        self.first = None
        for variant in FLEET_VARIANTS:  # lazy imports, as in SolveWorkload
            repro.solve(self.graphs[0][:32, :32],
                        self.configs[0].replace(variant=variant, block_size=8))

    def _fleet(self, configs):
        from repro.sched import ClusterScheduler

        t0 = time.perf_counter()
        try:
            sched = ClusterScheduler(n_nodes=2)
            handles = [
                sched.submit(g, c, name=f"job{i}", priority=p, arrival=a)
                for i, (g, c, p, a) in enumerate(
                    zip(self.graphs, configs, self.priorities, self.arrivals))
            ]
            reports = sched.run()
        except Exception as exc:
            self.tally.fail(f"fleet raised {exc!r}", len(configs))
            return None, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        makespan = sched.fleet_metrics().flat()["fleet.makespan"]
        dists = []
        for i, (handle, report) in enumerate(zip(handles, reports)):
            dist = handle.result().dist if report.status == "done" else None
            good = dist is not None
            if good and self.first is not None:
                good = np.array_equal(dist, self.first["dists"][i]) \
                    and makespan == self.first["makespan"]
            self.tally.check(good, f"job{i} {report.status}: {report.error}")
            dists.append(dist)
        if self.first is None and all(d is not None for d in dists):
            self.first = {"dists": dists, "makespan": makespan}
        return sched, wall

    def round(self, index: int) -> dict:
        sched, wall = self._fleet(self.configs)
        jobs = len(self.configs)
        return {
            "ops_per_s": jobs / wall,
            "call_p50_ms": wall * 1e3,
            "jobs_per_s": jobs / wall,
            "solve_gflops": self.flops / wall / 1e9,
            "sim_makespan_s":
                sched.fleet_metrics().flat()["fleet.makespan"] if sched is not None else 0.0,
        }

    def patch(self, tracer: Tracer) -> None:
        from .tracing import patch_sched_layers, patch_solve_layers

        patch_solve_layers(tracer)
        patch_sched_layers(tracer)
        self.proxy = tracing_backend(tracer)

    def traced_round(self, index: int) -> dict:
        configs = [c.replace(kernel_backend=self.proxy) for c in self.configs]
        with self.tracer.span("fleet", "bench", new_op=True):
            sched, _ = self._fleet(configs)
        return {"sched": sched}

    def layer_metrics(self, table: SpanTable, counters: dict) -> dict:
        out = kernel_layer_metrics(table, self.proxy)
        out.update(driver_layer_metrics(table))
        out["sched.submit_s"] = table.total("ClusterScheduler.submit", self_only=False)
        out["sched.run_s"] = table.total("ClusterScheduler.run", self_only=False)
        sched = counters["sched"]
        if sched is not None:
            flat = sched.fleet_metrics().flat()
            reports = sched.reports()
            out.update({
                "sim.makespan_s": flat["fleet.makespan"],
                "sched.sim_gpu_utilization": flat["fleet.gpu.utilization"],
                "sched.sim_queue_wait_p99_s": flat["fleet.job.queue_wait.p99"],
                "sched.sim_latency_p99_s": flat["fleet.job.latency.p99"],
                "sched.jobs_done": sum(r.status == "done" for r in reports),
                "sched.jobs_failed": sum(r.status != "done" for r in reports),
            })
        return out

    def extras(self, untraced_wall_s: float) -> dict:
        import repro

        from . import probes

        t0 = time.perf_counter()
        for graph, config in zip(self.graphs, self.configs):
            repro.solve(graph, config)
        solo = time.perf_counter() - t0
        out = {"sched.overhead_ratio": untraced_wall_s / solo}
        out.update(probes.run_all(16))
        return out

    def verify(self) -> None:
        for i in range(len(self.configs)):
            oracle = np.load(self.workdir / f"oracle-{i}.npy")
            good = self.first is not None and np.allclose(
                self.first["dists"][i], oracle, rtol=1e-12, atol=0.0
            )
            self.tally.check(good, f"job{i} disagrees with scipy floyd_warshall")


# =============================================================================
# serve-*
# =============================================================================

#: serve-update runs on a smaller private artifact: at n=1536 one round
#: (eight patches and a re-solve) takes ~2 s, which leaves three rounds
#: in a run - too few for a steady median.
SERVE_N = {"serve-warm": 1536, "serve-evicting": 1536, "serve-update": 768}
SERVE_SOLVE = dict(variant="async", block_size=128, kernel_backend="cnative", **CLUSTER)
SERVE_TILE = 64
SERVE_CACHE_BYTES = {
    "serve-warm": 64 << 20,     # whole artifact (18.9 MB) resident
    "serve-evicting": 2 << 20,  # 64 tiles of 576
    "serve-update": 64 << 20,   # whole artifact (4.7 MB) resident
}
N_POINT, N_BATCH, BATCH_PAIRS, N_NEAREST, NEAREST_K, N_SUB, SUB_SIDE = 5000, 10, 256, 25, 10, 5, 32
N_DECREASE = 8
#: serve-update: ten slots of (one update, then reads); slot 4 is the
#: increase, which reverts slot 3's decrease and so must re-solve.
UPDATE_SLOTS = 10
INCREASE_SLOT = 4


def sampled_dijkstra(graph: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Independent oracle rows: SciPy's Dijkstra from a few sources."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra

    finite = np.isfinite(graph)
    np.fill_diagonal(finite, False)
    rows, cols = np.nonzero(finite)
    matrix = sp.csr_matrix((graph[rows, cols], (rows, cols)), shape=graph.shape)
    return dijkstra(matrix, directed=True, indices=sources)


def nearest_oracle(row: np.ndarray, s: int, k: int) -> list[tuple[int, float]]:
    vals = row.astype(np.float64, copy=True)
    vals[s] = np.inf
    order = np.lexsort((np.arange(len(vals)), vals))[:k]
    return [(int(v), float(vals[v])) for v in order if np.isfinite(vals[v])]


class ServeWorkload(Workload):
    family = "serve"

    def __init__(self, *args):
        super().__init__(*args)
        self.updating = self.name == "serve-update"
        reads = N_POINT + N_BATCH + (0 if self.updating else N_NEAREST + N_SUB)
        self.ops_per_round = reads + (UPDATE_SLOTS - 1 if self.updating else 0)

    def generate(self) -> None:
        from repro.graphs import erdos_renyi

        self.n = SERVE_N[self.name]
        self.graph = erdos_renyi(self.n, 0.05, seed=self.seed)

    def prepare(self) -> None:
        import repro

        clock = self.setup_times
        config = repro.SolveConfig(**SERVE_SOLVE)
        result = clock.time("solve_s", lambda: repro.solve(self.graph, config))
        self.path = self.workdir / f"child-{self.child}" / "artifact.apsp"
        clock.time("save_s", lambda: result.save(
            self.path, block_size=SERVE_TILE, graph=self.graph if self.updating else None))
        self.server = clock.time("open_s", self._open)
        self.layer_from_setup.update({
            "serve.artifact.save_s": clock.sections["save_s"],
            "serve.artifact.save_bytes": sum(
                f.stat().st_size for f in self.path.rglob("*") if f.is_file()),
            "serve.artifact.open_s": clock.sections["open_s"],
        })
        self.expected = result.dist
        self.hot = np.random.default_rng([self.seed, 7]).choice(
            self.n, self.n // 8, replace=False)
        everything = np.arange(self.n)
        # Warm-up pass: touches every tile once (fills the cache, or
        # brings the LRU to its steady state when it cannot hold them).
        clock.time("warmup_s", lambda: self.server.submatrix(everything, everything))

    def _open(self):
        import repro

        return repro.serve(
            self.path, cache_bytes=SERVE_CACHE_BYTES[self.name], kernel_backend="cnative")

    def close(self) -> None:
        self.server.close()

    # -- query streams --------------------------------------------------------
    def _endpoints(self, rng, count: int) -> np.ndarray:
        uniform = rng.integers(0, self.n, count)
        if self.name == "serve-evicting":
            return uniform
        hot = self.hot[rng.integers(0, len(self.hot), count)]
        return np.where(rng.random(count) < 0.8, hot, uniform)

    def _stream(self, index: int, traced: bool) -> dict:
        rng = self.rng(traced, index)
        stream = {
            "src": self._endpoints(rng, N_POINT), "dst": self._endpoints(rng, N_POINT),
            "batches": [np.stack([self._endpoints(rng, BATCH_PAIRS),
                                  self._endpoints(rng, BATCH_PAIRS)], axis=1)
                        for _ in range(N_BATCH)],
            "nearest": self._endpoints(rng, N_NEAREST).tolist(),
            "subs": [(self._endpoints(rng, SUB_SIDE), self._endpoints(rng, SUB_SIDE))
                     for _ in range(N_SUB)],
        }
        if self.updating:
            edges = []
            while len(edges) < N_DECREASE:
                u, v = (int(x) for x in rng.integers(0, self.n, 2))
                if u != v:
                    edges.append((u, v))
            stream["edges"] = edges
        return stream

    # -- timed sections -------------------------------------------------------
    def _points(self, src, dst, lat: Optional[list]) -> float:
        """Point queries, one at a time; answers checked after the loop.
        ``lat`` collects per-call latencies (untraced rounds); traced
        rounds leave timing to the spans and only advance ``op_id``."""
        distance = self.server.distance
        clock = time.perf_counter
        answers = np.empty(len(src))
        pairs = list(zip(src.tolist(), dst.tolist()))
        done = 0
        t0 = clock()
        try:
            if lat is not None:
                for i, (s, t) in enumerate(pairs):
                    a = clock()
                    answers[i] = distance(s, t)
                    lat.append(clock() - a)
                    done += 1
            else:
                next_op = self.tracer.next_op
                for i, (s, t) in enumerate(pairs):
                    next_op()
                    answers[i] = distance(s, t)
                    done += 1
        except Exception as exc:
            self.tally.fail(f"distance raised {exc!r}", len(pairs) - done)
        wall = clock() - t0
        wrong = int(np.sum(answers[:done] != self.expected[src[:done], dst[:done]]))
        self.tally.ok(done - wrong)
        if wrong:
            self.tally.fail("distance() differs from the served matrix", wrong)
        return wall

    def _timed_op(self, label: str, call, expect) -> float:
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                self.tracer.next_op()
            got = call()
        except Exception as exc:
            self.tally.fail(f"{label} raised {exc!r}")
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        self.tally.check(np.array_equal(got, expect()), f"{label} differs from its oracle")
        return wall

    def _batches(self, batches) -> float:
        return sum(
            self._timed_op("batch", lambda p=p: self.server.batch(p),
                           lambda p=p: self.expected[p[:, 0], p[:, 1]])
            for p in batches)

    def _read_mix(self, stream: dict, lat: Optional[list]) -> dict:
        walls = {"point": self._points(stream["src"], stream["dst"], lat)}
        walls["batch"] = self._batches(stream["batches"])
        walls["nearest"] = sum(
            self._timed_op("k_nearest", lambda s=s: self.server.k_nearest(s, NEAREST_K),
                           lambda s=s: nearest_oracle(self.expected[s], s, NEAREST_K))
            for s in stream["nearest"])
        walls["sub"] = sum(
            self._timed_op("submatrix", lambda r=r, c=c: self.server.submatrix(r, c),
                           lambda r=r, c=c: self.expected[np.ix_(r, c)])
            for r, c in stream["subs"])
        return walls

    def _update(self, u: int, v: int, weight: float, patched: bool) -> float:
        """One ``update_edge``; keeps the benchmark's own copy of the
        graph and of the matrix the server must now be serving."""
        wall = self._timed_op(
            "update_edge", lambda: self.server.update_edge(u, v, weight), lambda: patched)
        self.graph[u, v] = weight
        if patched:
            # The rank-1 (min,+) patch, done here independently.
            via = self.expected[:, u, None] + (weight + self.expected[None, v, :])
            self.expected = np.minimum(self.expected, via)
        else:
            # After a re-solve the served matrix is taken on trust until
            # verify() compares it with a fresh solve of the final graph.
            self.expected = self.server.artifact.dist()
        return wall

    def _update_mix(self, stream: dict, lat: Optional[list]) -> dict:
        walls = {"point": 0.0, "batch": 0.0, "decrease": [], "resolve": 0.0}
        per_slot = N_POINT // UPDATE_SLOTS
        edges = iter(stream["edges"])
        reverted = None
        for slot in range(UPDATE_SLOTS):
            if slot == INCREASE_SLOT:
                u, v, old = reverted
                walls["resolve"] = self._update(u, v, old, patched=False)
            elif slot < UPDATE_SLOTS - 1:
                u, v = next(edges)
                reverted = (u, v, float(self.graph[u, v]))
                walls["decrease"].append(
                    self._update(u, v, 0.5 * float(self.expected[u, v]), patched=True))
            lo = slot * per_slot
            walls["point"] += self._points(
                stream["src"][lo:lo + per_slot], stream["dst"][lo:lo + per_slot], lat)
            walls["batch"] += self._batches(stream["batches"][slot:slot + 1])
        return walls

    def round(self, index: int) -> dict:
        stream = self._stream(index, traced=False)
        lat: list[float] = []
        if self.updating:
            walls = self._update_mix(stream, lat)
            read_wall = walls["point"] + walls["batch"]
            total = read_wall + sum(walls["decrease"]) + walls["resolve"]
            decrease_ms = float(np.median(walls["decrease"])) * 1e3
            out = {
                "ops_per_s": self.ops_per_round / total,
                "call_p50_ms": decrease_ms,
                "update_p50_ms": decrease_ms,
                "resolve_s": walls["resolve"],
                "qps": (N_POINT + N_BATCH) / read_wall,
            }
        else:
            walls = self._read_mix(stream, lat)
            qps = self.ops_per_round / sum(walls.values())
            out = {
                "ops_per_s": qps,
                "call_p50_ms": float(np.median(lat)) * 1e3,
                "qps": qps,
                "batch_pairs_per_s": N_BATCH * BATCH_PAIRS / walls["batch"],
            }
        out["point_p50_us"] = float(np.median(lat)) * 1e6
        if self.name != "serve-warm":
            # On serve-warm the p99 of a 1.3 us call is timer jitter (IQR
            # 20-30 % between rounds); there it is only the layer metric
            # serve.query.point_p99_us.
            out["point_p99_us"] = float(np.percentile(lat, 99)) * 1e6
        return out

    # -- traced ---------------------------------------------------------------
    def patch(self, tracer: Tracer) -> None:
        from .tracing import patch_sched_layers, patch_serve_layers, patch_solve_layers

        patch_serve_layers(tracer)
        self.proxy = tracing_backend(tracer)
        if self.updating:
            patch_solve_layers(tracer)
            patch_sched_layers(tracer)

    def traced_round(self, index: int) -> dict:
        before = self.server.stats()
        stream = self._stream(index, traced=True)
        if self.updating:
            self.server.patcher.kernel_backend = self.proxy
            try:
                self._update_mix(stream, None)
            finally:
                self.server.patcher.kernel_backend = "cnative"
        else:
            self._read_mix(stream, None)
        after = self.server.stats()
        delta = {
            f"serve.cache.{k}": after["cache"][k] - before["cache"][k]
            for k in ("hits", "misses", "evictions")
        }
        delta.update({
            f"serve.incremental.{k}": after["incremental"][k] - before["incremental"][k]
            for k in ("fast_updates", "recomputes", "dirty_blocks")
        })
        return delta

    def layer_metrics(self, table: SpanTable, counters: dict) -> dict:
        us = 1e6
        out = dict(counters)
        gets = counters["serve.cache.hits"] + counters["serve.cache.misses"]
        out["serve.cache.hit_rate"] = counters["serve.cache.hits"] / gets if gets else 0.0
        out.update({
            "serve.cache.get_self_us": table.percentile("BlockCache.get", 50) * us,
            "serve.query.point_self_us": table.percentile("QueryEngine.distance", 50) * us,
            "serve.query.point_p99_us":
                table.percentile("QueryEngine.distance", 99, self_only=False) * us,
            "serve.query.batch_p50_us":
                table.percentile("QueryEngine.batch", 50, self_only=False) * us,
            "serve.query.k_nearest_p50_us":
                table.percentile("QueryEngine.k_nearest", 50, self_only=False) * us,
            "serve.query.submatrix_p50_us":
                table.percentile("QueryEngine.submatrix", 50, self_only=False) * us,
            "serve.artifact.load_block_us":
                table.percentile("Artifact.load_block", 50, self_only=False) * us,
            "serve.artifact.load_block_calls": table.count("Artifact.load_block"),
        })
        if self.updating:
            rewrites = table.count("Artifact.rewrite_block")
            out.update(kernel_layer_metrics(table, self.proxy))
            out.update(driver_layer_metrics(table))
            out.update({
                "serve.artifact.rewrite_block_calls": rewrites,
                "serve.artifact.rewritten_bytes": rewrites * SERVE_TILE * SERVE_TILE * 8,
                "serve.artifact.rewrite_graph_s": table.total("Artifact.rewrite_graph"),
                "serve.artifact.flush_s": table.total("Artifact.flush"),
                # The increase is the slowest update_edge of the round by
                # an order of magnitude; the median is a decrease.
                "serve.incremental.patch_self_ms":
                    table.percentile("ArtifactPatcher.update_edge", 50) * 1e3,
                "serve.incremental.resolve_sched_s": table.child_total(
                    "ArtifactPatcher.update_edge", "ClusterScheduler.run"),
                "sched.run_s": table.total("ClusterScheduler.run", self_only=False),
                "sched.submit_s": table.total("ClusterScheduler.submit", self_only=False),
            })
        return out

    def extras(self, untraced_wall_s: float) -> dict:
        cold = self._open()
        try:
            t0 = time.perf_counter()
            cold.distance(0, self.n - 1)
            first_touch = time.perf_counter() - t0
        finally:
            cold.close()
        return {"serve.query.cold_first_touch_us": first_touch * 1e6}

    def verify(self) -> None:
        import repro

        everything = np.arange(self.n)
        served = self.server.submatrix(everything, everything)
        self.tally.check(np.array_equal(served, self.expected),
                         "served matrix differs from the expected matrix")
        sources = np.random.default_rng([self.seed, 11]).choice(self.n, 64, replace=False)
        self.tally.check(
            np.allclose(served[sources], sampled_dijkstra(self.graph, sources),
                        rtol=1e-12, atol=0.0),
            "served rows disagree with scipy dijkstra")
        if self.updating:
            fresh = repro.solve(self.graph, repro.SolveConfig(**SERVE_SOLVE)).dist
            self.tally.check(np.allclose(served, fresh, rtol=1e-12, atol=0.0),
                             "served matrix differs from a fresh solve of the final graph")


FAMILIES = {"solve": SolveWorkload, "fleet": FleetWorkload, "serve": ServeWorkload}
