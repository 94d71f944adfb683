"""Analytic performance models (Eq. 1, §3.4.1, §4.5, Eq. 5) + tuning."""

from .costs import (
    FwCostBreakdown,
    OffloadStageCosts,
    min_offload_block_size,
    oog_pipeline_cost,
    oog_stage_costs,
    parallel_fw_cost,
    refined_comm_cost,
)
from .tuning import (
    TuningReport,
    best_grid,
    compute_bound_threshold,
    best_node_grid,
    predict_runtime,
    recommend_block_size,
    recommend_streams,
    tune,
)

__all__ = [
    "FwCostBreakdown",
    "OffloadStageCosts",
    "parallel_fw_cost",
    "refined_comm_cost",
    "oog_stage_costs",
    "oog_pipeline_cost",
    "min_offload_block_size",
    "best_grid",
    "best_node_grid",
    "recommend_block_size",
    "recommend_streams",
    "predict_runtime",
    "compute_bound_threshold",
    "tune",
    "TuningReport",
]
