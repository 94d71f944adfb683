"""Shortest-path *generation* (the paper's first future-work item).

Two complementary tools:

* :func:`floyd_warshall_with_paths` - Floyd-Warshall that also carries
  a next-hop matrix, so paths come out of the sweep directly.  It is
  unblocked and independent of the kernel backends: the oracle the
  distributed ``track_paths`` solve is tested against.
* :func:`next_hop_from_distances` / :func:`reconstruct_path` - rebuild
  next-hops from *any* valid distance matrix plus the weights.  This is
  the piece that composes with the distributed solver: run
  :func:`repro.solve` for the distances, then generate paths locally
  without having had to carry parent matrices through the cluster.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ValidationError
from ..semiring.path_kernels import NO_HOP
from ..serve.query import check_vertex

__all__ = [
    "floyd_warshall_with_paths",
    "next_hop_from_distances",
    "reconstruct_path",
    "path_length",
    "NO_HOP",
]


def floyd_warshall_with_paths(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floyd-Warshall carrying next-hop pointers.

    Returns ``(dist, nxt)`` where ``nxt[i, j]`` is the vertex following
    ``i`` on a shortest i->j path (or :data:`NO_HOP`).
    """
    n = weights.shape[0]
    dist = np.array(weights, dtype=np.float64, copy=True)
    nxt = np.full((n, n), NO_HOP, dtype=np.int64)
    finite = np.isfinite(dist)
    cols = np.arange(n, dtype=np.int64)
    for i in range(n):
        nxt[i, finite[i]] = cols[finite[i]]
        nxt[i, i] = NO_HOP
    for k in range(n):
        via = dist[:, k, None] + dist[None, k, :]
        better = via < dist
        dist = np.where(better, via, dist)
        # New best path i -> j goes i -> ... -> k -> ... -> j, so the
        # first hop is i's first hop toward k.
        nxt = np.where(better, nxt[:, k, None], nxt)
    return dist, nxt


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
