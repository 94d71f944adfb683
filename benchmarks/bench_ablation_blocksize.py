"""Ablation: block size in the end-to-end solver.

DESIGN.md calls out the block-size trade: small blocks keep the
DiagUpdate chain cheap but pay per-kernel overhead and low SrGemm
efficiency (paper Figure 5) plus more latency-bound iterations
(Eq. 1's 2(n/b) t_l term); huge blocks push the log2(b)-squaring
DiagUpdate onto the critical path.  The paper settles on b = 768.
This ablation holds the virtual problem fixed and sweeps the virtual
block size; the optimum should sit in the 512-1536 plateau, agreeing
with the model in repro.perfmodel.tuning.recommend_block_size.
"""

from __future__ import annotations

import numpy as np
from common import write_table

from repro import solve
from repro.machine import SUMMIT, CostModel
from repro.perfmodel import recommend_block_size

N_VIRT = 36_864
BLOCKS = (128, 256, 512, 768, 1536)
NODES = 4
RPN = 8


def run_one(b_virt: int) -> float:
    nb = round(N_VIRT / b_virt)
    w = np.zeros((nb, nb), dtype=np.float32)
    res = solve(
        w,
        variant="async",
        block_size=1,
        n_nodes=NODES,
        ranks_per_node=RPN,
        dim_scale=float(b_virt),
        compute_numerics=False,
        collect=False,
    )
    return res.report.elapsed


def run_sweep():
    return {b: run_one(b) for b in BLOCKS}


def test_ablation_block_size(benchmark):
    times = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = [[b, f"{times[b]:.3f}"] for b in BLOCKS]
    write_table(
        "ablation_blocksize",
        f"Ablation: end-to-end time vs virtual block size "
        f"(n={N_VIRT:,}, {NODES} nodes x {RPN} ranks; paper uses b=768)",
        ["block", "time (s)"],
        rows,
    )

    best = min(BLOCKS, key=lambda b: times[b])
    # The optimum sits in the paper's plateau, not at either extreme.
    assert best in (512, 768, 1536)
    # Tiny blocks pay for it.
    assert times[128] > 1.2 * times[best]

    # The analytic recommendation agrees with the simulated optimum to
    # within the plateau.
    cost = CostModel(SUMMIT)
    rec = recommend_block_size(
        cost, N_VIRT, 4, 8, candidates=BLOCKS, gpus_share=2
    )
    assert times[rec] <= 1.2 * times[best]
