"""Ablation: pipelined Me-ParallelFw (the combination the paper never ran).

The paper evaluates the look-ahead pipeline (Algorithm 4) only for
GPU-resident runs and Me-ParallelFw only under the bulk-synchronous
schedule - its implementation could not compose them.  The schedule IR
makes ``offload-pipelined`` a policy pairing, so this ablation can ask
the question the paper could not: how much of the offload variant's
broadcast time hides under the ooGSrGemm tile pipeline?

Sweep: paper-scale hollow runs (nb = 24 block rows of b = 768, 4 nodes
x 4 ranks) across three GPU tile-buffer sizes (mx = nx blocks).  For
every buffer size the pipelined flavor must be no slower than plain
offload, and its SrGemm/NIC overlap strictly larger - the comm/compute
overlap is the whole point of the variant.
"""

from __future__ import annotations

import numpy as np

from common import B_VIRT, write_table

from repro import solve

NB = 24
NODES, RPN = 4, 4
#: GPU tile buffer, in blocks per dimension (buffer edge = mx * 768).
BUFFER_BLOCKS = (1, 2, 4)


def run_one(variant: str, mx: int):
    w = np.zeros((NB, NB), dtype=np.float32)
    res = solve(
        w,
        variant=variant,
        block_size=1,
        n_nodes=NODES,
        ranks_per_node=RPN,
        dim_scale=B_VIRT,
        compute_numerics=False,
        collect=False,
        check_negative_cycles=False,
        mx_blocks=mx,
        nx_blocks=mx,
        trace=True,
    )
    return res.report.elapsed, res.tracer.overlap_time("SrGemm", "nic_xfer")


def run_sweep():
    return {
        (variant, mx): run_one(variant, mx)
        for variant in ("offload", "offload-pipelined")
        for mx in BUFFER_BLOCKS
    }


def test_ablation_offload_pipelined(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for mx in BUFFER_BLOCKS:
        plain_t, plain_ov = results[("offload", mx)]
        piped_t, piped_ov = results[("offload-pipelined", mx)]
        rows.append(
            [
                f"{mx * 768}",
                f"{plain_t:.4f}",
                f"{piped_t:.4f}",
                f"{plain_t / piped_t:.2f}x",
                f"{plain_ov * 1e3:.3f}",
                f"{piped_ov * 1e3:.3f}",
            ]
        )
    write_table(
        "ablation_offload_pipelined",
        f"Ablation: offload vs offload-pipelined, {NB} block rows of "
        f"b=768 on {NODES} nodes x {RPN} ranks (hollow).  The look-ahead "
        "schedule rides PanelBcast(k+1) under the ooGSrGemm tile "
        "pipeline; 'overlap' is simulated time SrGemm runs concurrently "
        "with NIC transfers.",
        ["buffer mx", "offload s", "offl-pipe s", "speedup",
         "offl overlap ms", "pipe overlap ms"],
        rows,
    )

    for mx in BUFFER_BLOCKS:
        plain_t, plain_ov = results[("offload", mx)]
        piped_t, piped_ov = results[("offload-pipelined", mx)]
        # The pipelined flavor never loses, and at paper scale the win
        # is substantial (>15% at every buffer size here).
        assert piped_t < plain_t
        assert plain_t / piped_t > 1.15
        # ...because communication actually hides under compute.
        assert piped_ov > plain_ov
