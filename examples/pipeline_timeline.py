"""Visualize the schedules that make the paper's optimizations work.

Two text Gantt charts straight from the simulator's tracer:

1. the ooGSrGemm offload pipeline (paper Figure 2): SrGemm / d2hXfer /
   hostUpdate overlapping across cudaStreams;
2. one rank's view of baseline vs pipelined distributed Floyd-Warshall:
   in the pipelined schedule the NIC transfers ride under the
   OuterUpdate kernels instead of alternating with them.

Run:  python examples/pipeline_timeline.py
"""

from __future__ import annotations

import numpy as np

from repro import solve
from repro.core import oog_srgemm_plan, run_oog_pipeline
from repro.machine import SUMMIT, CostModel, SimCluster
from repro.semiring import INF
from repro.sim import Environment, Tracer, render_gantt


def show_offload_pipeline() -> None:
    print("=" * 72)
    print("1. ooGSrGemm pipeline on one GPU (paper Figure 2), 3 streams")
    print("=" * 72)
    env = Environment()
    tracer = Tracer()
    cost = CostModel(SUMMIT, dim_scale=768.0)
    cluster = SimCluster(env, SUMMIT, 1, cost, tracer)
    gpu, host = cluster.nodes[0].gpus[0], cluster.nodes[0].host
    a = np.zeros((16, 1), dtype=np.float32)
    b = np.zeros((1, 16), dtype=np.float32)
    c = np.full((16, 16), INF, dtype=np.float32)
    tiles = oog_srgemm_plan(a, b, c, 4, 4)
    stats = env.run(env.process(run_oog_pipeline(env, gpu, host, tiles, 3)))
    print(render_gantt(
        tracer,
        width=100,
        actors=["node0.gpu0.h2d", "node0.gpu0.kernel", "node0.gpu0.d2h", "node0.host"],
        glyphs={"SrGemm": "S", "d2hXfer": "D", "h2dXfer": "H", "hostUpdate": "U"},
    ))
    print(f"\n{stats.tiles} tiles, {stats.flop_rate() / 1e9:.0f} GFLOP/s "
          f"(kernel sustained: {cost.srgemm_rate(768) / 1e9:.0f})")
    print(f"SrGemm||d2hXfer overlap: "
          f"{tracer.overlap_time('SrGemm', 'd2hXfer') / stats.elapsed * 100:.0f}% "
          "of the run\n")


def show_distributed_schedules() -> None:
    print("=" * 72)
    print("2. Baseline (Alg. 3) vs Pipelined (Alg. 4): does communication")
    print("   hide under the outer product?")
    print("=" * 72)
    w = np.zeros((24, 24), dtype=np.float32)
    for variant in ("baseline", "pipelined"):
        res = solve(
            w,
            variant=variant,
            block_size=1,
            n_nodes=4,
            ranks_per_node=2,
            dim_scale=768.0,
            compute_numerics=False,
            collect=False,
            trace=True,
        )
        tr = res.tracer
        print(f"\n--- {variant}: one node's GPU vs its NIC ---")
        print(render_gantt(
            tr,
            width=100,
            actors=["node0.gpu0.kernel", "node0.nic"],
            glyphs={"SrGemm": "S", "nic_xfer": "N"},
        ))
        overlap = tr.overlap_time("SrGemm", "nic_xfer")
        print(f"total time {res.report.elapsed:.3f}s; "
              f"SrGemm||NIC overlap {overlap:.3f}s")


def main() -> None:
    show_offload_pipeline()
    show_distributed_schedules()


if __name__ == "__main__":
    main()
