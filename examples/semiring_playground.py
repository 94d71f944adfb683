"""One distributed engine, many path problems: the semiring view.

The paper frames APSP algebraically (§2.3): Floyd-Warshall is matrix
closure over the tropical (min,+) semiring, and the cuASR kernels it
builds on support other semirings.  Because this reproduction's
kernels, blocked FW, and all five distributed variants are generic
over :class:`repro.semiring.Semiring`, the *same* simulated cluster
solves:

* shortest paths            - (min, +)
* widest paths / bottleneck - (max, min): maximum deliverable flow
* reachability              - (or, and): boolean transitive closure
* minimax paths             - (min, max): smallest worst edge

Run:  python examples/semiring_playground.py
"""

from __future__ import annotations

import numpy as np

from repro import solve
from repro.graphs import erdos_renyi, floyd_warshall
from repro.semiring import INF, MAX_MIN, MIN_MAX, MIN_PLUS, OR_AND


def distributed(matrix, semiring):
    return solve(
        matrix,
        variant="async",
        block_size=8,
        n_nodes=2,
        ranks_per_node=2,
        semiring=semiring,
        check_negative_cycles=False,
    ).dist


def main() -> None:
    n = 32
    rng = np.random.default_rng(4)

    # --- shortest paths (the paper's problem) -----------------------------
    w = erdos_renyi(n, 0.25, seed=4)
    dist = distributed(w, MIN_PLUS)
    assert np.allclose(dist, floyd_warshall(w), equal_nan=True)
    print(f"(min,+)  shortest:   dist(0, {n - 1}) = {dist[0, n - 1]:.3f}")

    # --- widest paths over link capacities --------------------------------
    cap = np.full((n, n), -INF)
    np.fill_diagonal(cap, INF)
    mask = np.isfinite(w) & ~np.eye(n, dtype=bool)
    cap[mask] = rng.uniform(1, 100, mask.sum())  # Mbps per link
    widest = distributed(cap, MAX_MIN)
    ref = floyd_warshall(cap, MAX_MIN)
    assert np.allclose(widest, ref)
    print(f"(max,min) widest:    capacity(0 -> {n - 1}) = {widest[0, n - 1]:.1f} Mbps")

    # --- boolean reachability ----------------------------------------------
    adj = np.isfinite(w) & ~np.eye(n, dtype=bool)
    np.fill_diagonal(adj, True)
    reach = distributed(adj, OR_AND)
    ref = floyd_warshall(adj, OR_AND)
    assert np.array_equal(reach, ref)
    print(f"(or,and)  reach:     {int(reach.sum())} of {n * n} pairs connected")

    # --- minimax: smallest worst edge on any path --------------------------
    risk = np.full((n, n), INF)
    np.fill_diagonal(risk, -INF)
    risk[mask] = rng.uniform(0, 1, mask.sum())  # per-link failure risk
    minimax = distributed(risk, MIN_MAX)
    ref = floyd_warshall(risk, MIN_MAX)
    assert np.allclose(minimax, ref)
    print(f"(min,max) minimax:   safest route 0 -> {n - 1} worst-link risk = "
          f"{minimax[0, n - 1]:.3f}")

    # --- consistency: widest path is achievable per min-plus graph ---------
    # (On the same topology, a pair reachable by (min,+) must be
    # reachable by (or,and), and vice versa.)
    assert np.array_equal(np.isfinite(dist), reach)
    print("\ncross-semiring consistency checks passed; every result verified "
          "against the unblocked Floyd-Warshall oracle.")


if __name__ == "__main__":
    main()
