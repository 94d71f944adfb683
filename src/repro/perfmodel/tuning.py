"""Model-driven parameter tuning (the paper's §3.4.2 / §5.3 guidance).

Everything here optimizes the *analytic* models of
:mod:`repro.perfmodel.costs` - no simulation - and is what a user
would run before committing node-hours:

* :func:`best_grid` - choose P_r x P_c (Eq. 3: near-square).
* :func:`best_node_grid` - choose K_r x K_c / Q_r x Q_c (Eq. 2).
* :func:`recommend_block_size` - trade DiagUpdate overhead against
  latency and pipeline depth, with the Eq. 5 offload floor.
* :func:`recommend_streams` - smallest stream count achieving the
  full-overlap bound.
* :func:`predict_runtime` - Eq. 1 end-to-end prediction for a config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.grid import factor_pairs, near_square_factors
from ..machine.cost import CostModel
from .costs import (
    FwCostBreakdown,
    min_offload_block_size,
    oog_pipeline_cost,
    oog_stage_costs,
    parallel_fw_cost,
    refined_comm_cost,
)

__all__ = [
    "best_grid",
    "best_node_grid",
    "recommend_block_size",
    "recommend_streams",
    "predict_runtime",
    "compute_bound_threshold",
    "TuningReport",
    "tune",
]


def best_grid(n_ranks: int) -> tuple[int, int]:
    """Near-square P_r x P_c (Eq. 3 minimizes the latency term)."""
    return near_square_factors(n_ranks)


def best_node_grid(
    cost: CostModel, n: float, p_r: int, p_c: int, ranks_per_node: int
) -> tuple[int, int, float]:
    """The (Q_r, Q_c) minimizing the §3.4.1 refined communication cost;
    returns (q_r, q_c, predicted_comm_seconds)."""
    best: Optional[tuple[int, int, float]] = None
    for q_r, q_c in factor_pairs(ranks_per_node):
        if p_r % q_r or p_c % q_c:
            continue
        t = refined_comm_cost(cost, n, p_r, p_c, q_r, q_c)
        if best is None or t < best[2]:
            best = (q_r, q_c, t)
    if best is None:
        raise ValueError(
            f"no {ranks_per_node}-rank tile divides the {p_r}x{p_c} grid"
        )
    return best


def recommend_block_size(
    cost: CostModel,
    n: float,
    p_r: int,
    p_c: int,
    offload: bool = False,
    candidates: tuple[int, ...] = (128, 256, 512, 768, 1024, 2048),
    gpus_share: int = 2,
) -> int:
    """Pick b among candidates minimizing modeled total time.

    The model charges Eq. 1 plus the DiagUpdate critical-path term
    ``(n/b) · log2(b) · 2b³/rate`` that Eq. 1 drops (it matters exactly
    when b is pushed large).  For offload runs, candidates below the
    Eq. 5 floor are discarded first.
    """
    floor = min_offload_block_size(cost) if offload else 0.0
    viable = [b for b in candidates if b >= floor] or [max(candidates)]
    best_b, best_t = viable[0], float("inf")
    for b in viable:
        base = parallel_fw_cost(cost, n, b, p_r, p_c, gpus_share).total
        diag_chain = (n / b) * _diag_time(cost, b)
        t = base + diag_chain
        if t < best_t:
            best_b, best_t = b, t
    return best_b


def _diag_time(cost: CostModel, b: float) -> float:
    import math

    steps = max(1, math.ceil(math.log2(max(b - 1, 2))))
    return steps * 2.0 * b**3 / cost.srgemm_rate(b)


def recommend_streams(cost: CostModel, m: float, n: float, k: float) -> int:
    """Smallest stream count whose §4.5 pipeline cost reaches the
    3-stream bound (within 1%)."""
    stages = oog_stage_costs(cost, m, n, k)
    target = oog_pipeline_cost(stages, 3)
    for s in (1, 2, 3):
        if oog_pipeline_cost(stages, s) <= target * 1.01:
            return s
    return 3


def predict_runtime(
    cost: CostModel,
    n: float,
    b: float,
    p_r: int,
    p_c: int,
    q_r: int = 1,
    q_c: int = 1,
    gpus_share: int = 2,
    overlap: bool = True,
) -> FwCostBreakdown:
    """Eq. 1 with the §3.4.1 bandwidth refinement.

    ``overlap=True`` models a perfectly pipelined run (communication
    hidden under compute: total = max of terms + latency); ``False``
    models the bulk-synchronous baseline (sum of terms).
    """
    base = parallel_fw_cost(cost, n, b, p_r, p_c, gpus_share)
    bw = refined_comm_cost(cost, n, p_r, p_c, q_r, q_c)
    if overlap:
        total_compute = max(base.compute, bw)
        return FwCostBreakdown(compute=total_compute, latency=base.latency, bandwidth=0.0)
    return FwCostBreakdown(compute=base.compute, latency=base.latency, bandwidth=bw)


def compute_bound_threshold(
    cost: CostModel,
    n_nodes: int,
    ranks_per_node: int,
    b: float = 768.0,
    q_r: Optional[int] = None,
    q_c: Optional[int] = None,
) -> float:
    """Smallest vertex count at which the sweep turns compute-bound.

    Setting Eq. 1's compute term equal to the §3.4.1 bandwidth term and
    solving for n:

        2 n³ / (G · rate(b))  =  t_w · n² · itemsize · (Q_r/P_r + Q_c/P_c)
        n*  =  t_w · itemsize · (Q_r/P_r + Q_c/P_c) · G · rate(b) / 2

    with G the GPU count.  The paper's §5.2.2 quotes ~120k vertices for
    64 Summit nodes; this function reproduces that estimate's *logic*
    (the exact number depends on the placement and the effective
    broadcast bandwidth assumed).  Below n* communication dominates and
    the Figure 4 optimizations pay off; above it the variants converge.
    """
    n_ranks = n_nodes * ranks_per_node
    p_r, p_c = best_grid(n_ranks)
    if q_r is None or q_c is None:
        q_r, q_c, _ = best_node_grid(cost, 1.0, p_r, p_c, ranks_per_node)
    gpus = n_nodes * min(ranks_per_node, cost.machine.node.gpus_per_node)
    volume_factor = q_r / p_r + q_c / p_c
    return (
        cost.t_w_internode
        * cost.itemsize
        * volume_factor
        * gpus
        * cost.srgemm_rate(b)
        / 2.0
    )


@dataclass(frozen=True)
class TuningReport:
    """Output of :func:`tune`: a ready-to-use launch configuration."""

    p_r: int
    p_c: int
    q_r: int
    q_c: int
    block_size: int
    n_streams: int
    predicted: FwCostBreakdown

    def summary(self) -> str:
        t = self.predicted
        return (
            f"grid {self.p_r}x{self.p_c}, node tile {self.q_r}x{self.q_c}, "
            f"b={self.block_size}, streams={self.n_streams}; predicted "
            f"{t.total:.3f}s (compute {t.compute:.3f}s, latency {t.latency:.3f}s, "
            f"bandwidth {t.bandwidth:.3f}s)"
        )


def tune(
    cost: CostModel,
    n: float,
    n_nodes: int,
    ranks_per_node: int,
    offload: bool = False,
    gpus_per_node: Optional[int] = None,
) -> TuningReport:
    """One-call tuning: grid, placement, block size, stream count."""
    n_ranks = n_nodes * ranks_per_node
    p_r, p_c = best_grid(n_ranks)
    q_r, q_c, _ = best_node_grid(cost, n, p_r, p_c, ranks_per_node)
    gshare = max(1, ranks_per_node // (gpus_per_node or cost.machine.node.gpus_per_node))
    b = recommend_block_size(cost, n, p_r, p_c, offload=offload, gpus_share=gshare)
    local = n / max(p_r, p_c)
    streams = recommend_streams(cost, local, local, b) if offload else 1
    predicted = predict_runtime(cost, n, b, p_r, p_c, q_r, q_c, gshare, overlap=True)
    return TuningReport(p_r, p_c, q_r, q_c, b, streams, predicted)
