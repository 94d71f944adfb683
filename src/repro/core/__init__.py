"""Distributed Floyd-Warshall variants and the public APSP driver."""

from .blocked import blocked_fw, blocked_fw_inplace
from .context import FwContext, RankState
from .distribution import (
    LocalBlocks,
    block_slice,
    collect,
    distribute,
    local_matrix_elems,
    pad_to_blocks,
)
from .driver import ApspResult, default_block_size, placement_for_variant
from .executor import (
    GpuResident,
    HostResident,
    ResidencyPolicy,
    execute_schedule,
)
from .grid import ProcessGrid, factor_pairs, near_square_factors
from .oog_srgemm import OogStats, TileTask, oog_srgemm_plan, run_oog_pipeline
from .schedule import (
    BulkSyncSchedule,
    LookaheadSchedule,
    SchedulePolicy,
    ScheduleOp,
)
from .placement import (
    RankPlacement,
    contiguous_placement,
    enumerate_placements,
    optimal_placement,
    tiled_placement,
)
from .report import PerfReport, min_pernode_volume_bytes
from .variants import VARIANTS, Variant

__all__ = [
    "ApspResult",
    "Variant",
    "VARIANTS",
    "FwContext",
    "RankState",
    "blocked_fw",
    "blocked_fw_inplace",
    "execute_schedule",
    "ScheduleOp",
    "SchedulePolicy",
    "BulkSyncSchedule",
    "LookaheadSchedule",
    "ResidencyPolicy",
    "GpuResident",
    "HostResident",
    "run_oog_pipeline",
    "oog_srgemm_plan",
    "TileTask",
    "OogStats",
    "ProcessGrid",
    "factor_pairs",
    "near_square_factors",
    "RankPlacement",
    "tiled_placement",
    "contiguous_placement",
    "optimal_placement",
    "enumerate_placements",
    "LocalBlocks",
    "distribute",
    "collect",
    "pad_to_blocks",
    "block_slice",
    "local_matrix_elems",
    "PerfReport",
    "min_pernode_volume_bytes",
    "default_block_size",
    "placement_for_variant",
]
