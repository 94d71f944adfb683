"""Extensions implementing the paper's stated future work:
distributed shortest-path generation and incremental Floyd-Warshall.
Their oracle is :mod:`repro.graphs.oracle`."""

from .incremental import IncrementalApsp
from .paths import (
    NO_HOP,
    next_hop_from_distances,
    path_length,
    reconstruct_path,
)

__all__ = [
    "IncrementalApsp",
    "next_hop_from_distances",
    "reconstruct_path",
    "path_length",
    "NO_HOP",
]
