"""Graph generators, IO, input checking, and the APSP oracles
(:mod:`repro.graphs.oracle`: unblocked Floyd-Warshall, Johnson, and the
certificate ``validate=True`` runs)."""

from .generators import (
    banded_graph,
    erdos_renyi,
    from_edge_list,
    grid_road_network,
    power_law_graph,
    ring_of_cliques,
    uniform_random_dense,
)
from .io import load_edge_list, load_matrix, save_edge_list, save_matrix
from .oracle import (
    assert_matches_oracle,
    bellman_ford,
    certify,
    check_next_hops,
    dijkstra,
    estimated_fw_ops,
    estimated_johnson_ops,
    floyd_warshall,
    johnson,
)
from .validation import validate_weights

__all__ = [
    "uniform_random_dense",
    "erdos_renyi",
    "grid_road_network",
    "ring_of_cliques",
    "power_law_graph",
    "banded_graph",
    "from_edge_list",
    "save_matrix",
    "load_matrix",
    "save_edge_list",
    "load_edge_list",
    "floyd_warshall",
    "dijkstra",
    "bellman_ford",
    "johnson",
    "estimated_johnson_ops",
    "estimated_fw_ops",
    "certify",
    "assert_matches_oracle",
    "check_next_hops",
    "validate_weights",
]
