"""Graph analytics on APSP output.

The paper's motivation is analytics ("relationship mining problems
become computing Apsp in a large and dense graph"); this module is the
consumer side: metrics computed from a distance matrix (as returned by
:func:`repro.solve`), vectorized and oracle-tested against networkx.

All functions take the dense ``dist`` matrix (``inf`` = unreachable,
zero diagonal) and treat the graph as directed unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .semiring.minplus import INF

__all__ = [
    "eccentricity",
    "diameter",
    "radius",
    "graph_center",
    "graph_periphery",
    "closeness_centrality",
    "harmonic_centrality",
    "average_path_length",
    "reachability_components",
    "hop_counts",
    "DistanceSummary",
    "summarize",
]


def _check(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValidationError(f"distance matrix must be square, got {dist.shape}")
    return dist


def eccentricity(dist: np.ndarray) -> np.ndarray:
    """Per-vertex eccentricity: the farthest *reachable* vertex's
    distance (inf if the vertex reaches nothing but itself)."""
    dist = _check(dist)
    n = dist.shape[0]
    masked = np.where(np.isfinite(dist), dist, -np.inf)
    np.fill_diagonal(masked, -np.inf)
    ecc = masked.max(axis=1)
    return np.where(np.isneginf(ecc), INF, ecc)


def diameter(dist: np.ndarray, require_connected: bool = False) -> float:
    """Largest finite shortest-path distance.

    With ``require_connected`` the presence of any unreachable pair
    raises instead (networkx semantics for disconnected graphs)."""
    dist = _check(dist)
    off = ~np.eye(dist.shape[0], dtype=bool)
    if require_connected and not np.isfinite(dist[off]).all():
        raise ValidationError("graph is not strongly connected; diameter is infinite")
    finite = dist[off & np.isfinite(dist)]
    return float(finite.max()) if finite.size else 0.0


def radius(dist: np.ndarray) -> float:
    """Minimum eccentricity over vertices with finite eccentricity."""
    ecc = eccentricity(dist)
    finite = ecc[np.isfinite(ecc)]
    return float(finite.min()) if finite.size else INF


def graph_center(dist: np.ndarray) -> np.ndarray:
    """Vertices whose eccentricity equals the radius."""
    ecc = eccentricity(dist)
    r = radius(dist)
    if np.isinf(r):
        return np.array([], dtype=np.int64)
    return np.flatnonzero(np.isclose(ecc, r))


def graph_periphery(dist: np.ndarray) -> np.ndarray:
    """Vertices whose eccentricity equals the (finite) diameter."""
    ecc = eccentricity(dist)
    d = diameter(dist)
    return np.flatnonzero(np.isclose(ecc, d))


def closeness_centrality(dist: np.ndarray, wf_improved: bool = True) -> np.ndarray:
    """Closeness centrality of each vertex from *incoming* distances,
    matching ``networkx.closeness_centrality`` on the same digraph
    (networkx uses distances *to* the node; Wasserman-Faust scaling by
    the reachable fraction when ``wf_improved``)."""
    dist = _check(dist)
    n = dist.shape[0]
    incoming = dist.T  # incoming[v, u] = d(u -> v)
    finite = np.isfinite(incoming) & ~np.eye(n, dtype=bool)
    reach = finite.sum(axis=1)
    totals = np.where(finite, incoming, 0.0).sum(axis=1)
    out = np.zeros(n)
    nonzero = totals > 0
    out[nonzero] = reach[nonzero] / totals[nonzero]
    if wf_improved and n > 1:
        out *= reach / (n - 1)
    return out


def harmonic_centrality(dist: np.ndarray) -> np.ndarray:
    """Harmonic centrality from incoming distances: Σ 1/d(u, v) over
    u ≠ v (unreachable pairs contribute 0), as in networkx."""
    dist = _check(dist)
    n = dist.shape[0]
    incoming = dist.T
    with np.errstate(divide="ignore"):
        inv = np.where(
            np.isfinite(incoming) & (incoming > 0), 1.0 / incoming, 0.0
        )
    np.fill_diagonal(inv, 0.0)
    return inv.sum(axis=1)


def average_path_length(dist: np.ndarray) -> float:
    """Mean finite shortest-path distance over ordered pairs u ≠ v."""
    dist = _check(dist)
    off = ~np.eye(dist.shape[0], dtype=bool)
    finite = dist[off & np.isfinite(dist)]
    return float(finite.mean()) if finite.size else 0.0


def reachability_components(dist: np.ndarray) -> np.ndarray:
    """Strongly connected component labels from mutual reachability
    (u, v in one SCC iff d(u,v) and d(v,u) both finite).  Labels are
    dense ints ordered by smallest member."""
    dist = _check(dist)
    n = dist.shape[0]
    mutual = np.isfinite(dist) & np.isfinite(dist.T)
    np.fill_diagonal(mutual, True)
    labels = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for v in range(n):
        if labels[v] == -1:
            members = np.flatnonzero(mutual[v])
            labels[members] = nxt
            nxt += 1
    return labels


def hop_counts(next_hops: np.ndarray) -> np.ndarray:
    """Edge counts of the shortest paths encoded by a next-hop matrix
    (``result.next_hops`` of ``repro.solve(..., track_paths=True)`` on
    any grid, one rank included, or the unblocked oracle
    ``repro.graphs.floyd_warshall(w, hops=True)``); -1 where
    unreachable, 0 on the diagonal."""
    nxt = np.asarray(next_hops)
    n = nxt.shape[0]
    hops = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(hops, 0)
    # Propagate: hops[i, j] = 1 + hops[nxt[i, j], j]; iterate until
    # fixed point (bounded by the longest path, <= n - 1 edges).
    for _ in range(n):
        unknown = (hops < 0) & (nxt >= 0)
        if not unknown.any():
            break
        rows, cols = np.nonzero(unknown)
        via = nxt[rows, cols]
        known = hops[via, cols] >= 0
        hops[rows[known], cols[known]] = 1 + hops[via[known], cols[known]]
    return hops


@dataclass(frozen=True)
class DistanceSummary:
    """One-call descriptive statistics of an APSP result."""

    n: int
    reachable_pairs: int
    components: int
    diameter: float
    radius: float
    average_distance: float
    center: tuple[int, ...]
    periphery: tuple[int, ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} pairs={self.reachable_pairs} comps={self.components} "
            f"diam={self.diameter:.4g} rad={self.radius:.4g} "
            f"avg={self.average_distance:.4g}"
        )


def summarize(dist: np.ndarray) -> DistanceSummary:
    """Compute the standard descriptive metrics in one pass."""
    dist = _check(dist)
    n = dist.shape[0]
    off = ~np.eye(n, dtype=bool)
    return DistanceSummary(
        n=n,
        reachable_pairs=int((np.isfinite(dist) & off).sum()),
        components=int(reachability_components(dist).max() + 1) if n else 0,
        diameter=diameter(dist),
        radius=radius(dist),
        average_distance=average_path_length(dist),
        center=tuple(int(v) for v in graph_center(dist)),
        periphery=tuple(int(v) for v in graph_periphery(dist)),
    )
