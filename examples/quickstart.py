"""Quickstart: all-pairs shortest paths on a simulated multi-GPU cluster.

Generates the paper's workload (a dense uniform random graph), solves
APSP with every solver variant through the public ``repro.solve()``
facade on a small simulated cluster, verifies the answers against the
unblocked Floyd-Warshall oracle (``repro.graphs.floyd_warshall``, which
shares no code with the solver), and prints each run's
performance report.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core import Variant
from repro.graphs import floyd_warshall, uniform_random_dense


def main() -> None:
    n = 96
    print(f"Dense uniform random graph, n = {n} (the paper's §5.1.4 input)\n")
    weights = uniform_random_dense(n, seed=42)

    oracle = floyd_warshall(weights)

    config = repro.SolveConfig(block_size=16, n_nodes=2, ranks_per_node=4)
    for variant in Variant:
        result = repro.solve(weights, config.replace(variant=variant.value))
        assert np.allclose(result.dist, oracle), f"{variant} diverged from oracle!"
        print(f"--- {variant.value} ---")
        print(result.report.summary())
        print()

    # The distances are real: query a few.
    result = repro.solve(weights, config.replace(variant="async"))
    print("sample shortest distances:")
    for src, dst in ((0, 1), (0, n - 1), (n // 2, 3)):
        print(f"  dist({src:3d} -> {dst:3d}) = {result.dist[src, dst]:.3f}")
    print("\nAll variants match the unblocked Floyd-Warshall oracle.")


if __name__ == "__main__":
    main()
