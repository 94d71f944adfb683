"""Ablation: the cost of distributed shortest-path generation.

The paper plans "distributed shortest path generation" as future work;
this reproduction implements it (``track_paths=True``): next-hop
pointer blocks ride with the *column* panels and the diagonal (the
left operands of every min-plus product), while row panels stay
distance-only.  This ablation quantifies what that asymmetric extra
traffic and the pointer-carrying kernels cost end to end.
"""

from __future__ import annotations

import numpy as np
from common import write_table

from repro import solve


def run_one(track):
    w = np.zeros((48, 48), dtype=np.float32)
    # Path tracking needs real numerics; keep the physical size tiny.
    return solve(
        w,
        variant="async",
        block_size=1,
        n_nodes=4,
        ranks_per_node=4,
        dim_scale=768.0,
        track_paths=track,
        collect=False,
    ).report


def run_sweep():
    return {"distances only": run_one(False), "with path generation": run_one(True)}


def test_ablation_path_tracking(benchmark):
    table = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for name, rep in table.items():
        comm = rep.internode_bytes + rep.intranode_bytes
        rows.append(
            [name, f"{rep.elapsed:.3f}", f"{comm / 1e9:.2f}",
             f"{rep.gpu_peak_bytes / 1e9:.2f}"]
        )
    write_table(
        "ablation_path_tracking",
        "Ablation: distributed path generation (async, n=36,864 virtual, "
        "4 nodes x 4 ranks; pointer blocks ride with column panels only)",
        ["mode", "time (s)", "comm (GB)", "GPU peak (GB)"],
        rows,
    )

    plain = table["distances only"]
    tracked = table["with path generation"]
    comm_plain = plain.internode_bytes + plain.intranode_bytes
    comm_tracked = tracked.internode_bytes + tracked.intranode_bytes
    # Column panels (half the panel traffic) double: total grows by
    # roughly a third, but never doubles (row panels are untouched).
    assert 1.2 * comm_plain < comm_tracked < 2.0 * comm_plain
    # Runtime premium is bounded (the extra traffic mostly hides under
    # the outer product like everything else).
    assert tracked.elapsed < 1.5 * plain.elapsed
    # Pointer blocks triple the HBM footprint (int64 next to float32).
    assert tracked.gpu_peak_bytes > 2 * plain.gpu_peak_bytes