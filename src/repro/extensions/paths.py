"""Shortest-path *generation* (the paper's first future-work item).

The distributed solve carries next hops itself (``track_paths``); the
tools here work from its output:

* :func:`next_hop_from_distances` - rebuild next-hops from *any* valid
  distance matrix plus the weights, so :func:`repro.solve` can produce
  distances alone and paths are generated locally afterwards;
* :func:`reconstruct_path` / :func:`path_length` - walk a next-hop
  matrix and price the walk.

The unblocked Floyd-Warshall-with-hops oracle that ``track_paths`` is
tested against is :func:`repro.graphs.oracle.floyd_warshall`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ValidationError
from ..semiring.path_kernels import NO_HOP
from ..serve.query import check_vertex

__all__ = [
    "next_hop_from_distances",
    "reconstruct_path",
    "path_length",
    "NO_HOP",
]


def next_hop_from_distances(weights: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Recover a next-hop matrix from distances alone.

    ``j'`` is a valid first hop of a shortest i->j path iff
    ``w[i, j'] + dist[j', j] == dist[i, j]``; ties resolve to the
    smallest vertex id (deterministic).
    """
    n = weights.shape[0]
    nxt = np.full((n, n), NO_HOP, dtype=np.int64)
    for i in range(n):
        nbrs = np.flatnonzero(np.isfinite(weights[i]) & (np.arange(n) != i))
        if nbrs.size == 0:
            continue
        # candidate[h, j] = w[i, nbrs[h]] + dist[nbrs[h], j]
        candidate = weights[i, nbrs, None] + dist[nbrs, :]
        ok = np.isclose(candidate, dist[i][None, :]) & np.isfinite(dist[i])[None, :]
        any_ok = ok.any(axis=0)
        first = np.argmax(ok, axis=0)
        nxt[i, any_ok] = nbrs[first[any_ok]]
        nxt[i, i] = NO_HOP
    return nxt


def reconstruct_path(nxt: np.ndarray, src: int, dst: int) -> Optional[list[int]]:
    """Vertex sequence of a shortest src->dst path, or None if
    unreachable.  A vertex that is not an int in ``[0, n)`` is a
    :class:`~repro.errors.QueryError`; a malformed next-hop matrix (a
    cycle, a hop outside the graph) is a :class:`ValidationError`."""
    n = nxt.shape[0]
    src = check_vertex(src, n, "source")
    dst = check_vertex(dst, n, "target")
    if src == dst:
        return [src]
    if nxt[src, dst] == NO_HOP:
        return None
    path = [src]
    cur = src
    for _ in range(n + 1):
        cur = int(nxt[cur, dst])
        if cur == NO_HOP:
            return None
        if not 0 <= cur < n:
            raise ValidationError(f"next-hop matrix names vertex {cur} of {n} while tracing {src}->{dst}")
        path.append(cur)
        if cur == dst:
            return path
    raise ValidationError(f"next-hop matrix cycles while tracing {src}->{dst}")


def path_length(weights: np.ndarray, path: list[int]) -> float:
    """Sum of edge weights along a vertex sequence (each an int in
    ``[0, n)``, else :class:`~repro.errors.QueryError`)."""
    n = weights.shape[0]
    path = [check_vertex(v, n) for v in path]
    if len(path) < 2:
        return 0.0
    total = 0.0
    for u, v in zip(path, path[1:]):
        w = weights[u, v]
        if not np.isfinite(w):
            raise ValidationError(f"path uses missing edge ({u}, {v})")
        total += float(w)
    return total
