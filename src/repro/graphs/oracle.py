"""Every APSP oracle, written once and sharing no code with the solver.

The paper's §5.1 correctness claim is that each revised implementation
"matches the sequential Floyd-Warshall baseline".  That check is only
worth something if the answer it compares against cannot inherit the
bug under test, so nothing here imports :mod:`repro.core`, a kernel
backend or the solver's closures.  Three entries answer "is ``dist``
the APSP of ``weights``?":

* :func:`floyd_warshall` - the unblocked k-loop (the paper's
  Algorithm 1) over any semiring's ⊕, optionally carrying next hops;
* :func:`johnson` - one Bellman-Ford reweighting pass plus Dijkstra
  from every source: the sparse / negative-edge oracle, and the
  algorithm the paper's §6 weighs Floyd-Warshall against;
* :func:`certify` - the check ``validate=True`` runs: ``dist`` is
  compared against :func:`floyd_warshall` on every input and every
  semiring (an O(n³) NumPy pass, independent of the kernel backend).
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np

from ..errors import NegativeCycleError, ValidationError
from ..semiring.minplus import INF, MIN_PLUS, Semiring
from ..semiring.path_kernels import NO_HOP
from ..serve.query import check_vertex

__all__ = [
    "floyd_warshall",
    "dijkstra",
    "bellman_ford",
    "johnson",
    "estimated_johnson_ops",
    "estimated_fw_ops",
    "certify",
    "assert_matches_oracle",
    "check_next_hops",
]


def floyd_warshall(weights: np.ndarray, semiring: Semiring = MIN_PLUS, hops: bool = False):
    """Unblocked Floyd-Warshall over ``semiring``.

    Each ``k`` is one vectorised rank-1 update, ``dist ← dist ⊕
    dist[:, k] ⊗ dist[k, :]``, applied in place once the candidates are
    in a scratch buffer (no array is allocated per ``k``).  With
    ``hops=True`` returns ``(dist, nxt)``: where the path through ``k``
    changed ``dist[i, j]``, its first hop is ``i``'s first hop toward
    ``k``; :data:`NO_HOP` marks the diagonal and the pairs without a
    path.  Negative cycles are not detected: they show as a negative
    diagonal.
    """
    dist = np.array(weights, dtype=semiring.dtype, copy=True)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise ValueError(f"weight matrix must be square, got {dist.shape}")
    if hops:
        nxt = np.where(dist != semiring.zero, np.arange(n, dtype=np.int64), NO_HOP)
        np.fill_diagonal(nxt, NO_HOP)
    cand = np.empty_like(dist)
    for k in range(n):
        semiring.times(dist[:, k, None], dist[None, k, :], out=cand)
        if hops:
            nxt = np.where(semiring.plus(dist, cand) != dist, nxt[:, k, None], nxt)
        semiring.plus(dist, cand, out=dist)
    return (dist, nxt) if hops else dist


def _adjacency(weights: np.ndarray) -> list[list[tuple[int, float]]]:
    """Dense matrix -> adjacency lists, skipping inf and self loops."""
    n = weights.shape[0]
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u in range(n):
        row = weights[u]
        for v in np.flatnonzero(np.isfinite(row)):
            if v != u:
                adj[u].append((int(v), float(row[v])))
    return adj


def dijkstra(
    weights: np.ndarray, source: int, adj: Optional[list[list[tuple[int, float]]]] = None
) -> np.ndarray:
    """Single-source shortest paths with a binary heap.

    ``source`` must be an int in ``[0, n)``
    (:class:`~repro.errors.QueryError` otherwise).  Requires
    non-negative weights (checked lazily: a negative edge pop raises
    ``ValueError``).
    """
    n = weights.shape[0]
    source = check_vertex(source, n, "source")
    if adj is None:
        adj = _adjacency(weights)
    dist = np.full(n, INF)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, wuv in adj[u]:
            if wuv < 0:
                raise ValueError("Dijkstra requires non-negative edge weights")
            nd = d + wuv
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def bellman_ford(weights: np.ndarray, source: int) -> np.ndarray:
    """Single-source shortest paths tolerating negative edges.

    Vectorized edge relaxation (one pass = one (min,+) matrix-vector
    product), up to n-1 rounds with early exit; a further improving
    round means a negative cycle.  ``source`` must be an int in
    ``[0, n)`` (:class:`~repro.errors.QueryError` otherwise).
    """
    n = weights.shape[0]
    source = check_vertex(source, n, "source")
    dist = np.full(n, INF)
    dist[source] = 0.0
    wt = weights.T  # wt[v, u] = w(u -> v)
    for _ in range(n - 1):
        relaxed = np.min(wt + dist[None, :], axis=1)
        new = np.minimum(dist, relaxed)
        if np.array_equal(new, dist):
            return new
        dist = new
    final = np.minimum(dist, np.min(wt + dist[None, :], axis=1))
    if not np.array_equal(final, dist):
        v = int(np.flatnonzero(final < dist)[0])
        raise NegativeCycleError(v, float(final[v] - dist[v]))
    return dist


def johnson(weights: np.ndarray) -> np.ndarray:
    """Johnson's APSP: one Bellman-Ford reweighting pass + Dijkstra
    from every source.  O(mn + n² log n) with a binary heap; the
    asymptotically-better choice for sparse graphs (paper §6)."""
    n = weights.shape[0]
    # Virtual source connected to every vertex with weight 0: its
    # Bellman-Ford potentials h (all finite) satisfy h[v] <= h[u] + w(u, v).
    aug = np.full((n + 1, n + 1), INF)
    aug[:n, :n] = weights
    aug[n, :n] = 0.0
    np.fill_diagonal(aug, 0.0)
    h = bellman_ford(aug, n)[:n]
    reweighted = weights + h[:, None] - h[None, :]
    np.fill_diagonal(reweighted, 0.0)
    adj = _adjacency(reweighted)
    out = np.empty((n, n))
    for s in range(n):
        out[s] = dijkstra(reweighted, s, adj=adj) - h[s] + h
    return out


def estimated_johnson_ops(n: int, m: int) -> float:
    """Rough operation count for Johnson's algorithm:
    ``mn + n² log n`` (Fibonacci-heap bound the paper quotes)."""
    return m * n + n * n * max(1.0, math.log2(max(n, 2)))


def estimated_fw_ops(n: int) -> float:
    """Floyd-Warshall operation count, ``2 n³``."""
    return 2.0 * float(n) ** 3


def certify(
    weights: np.ndarray,
    dist: np.ndarray,
    nxt: Optional[np.ndarray] = None,
    semiring: Semiring = MIN_PLUS,
) -> None:
    """Raise :class:`ValidationError` unless ``dist`` is the
    ``semiring`` APSP of ``weights`` and ``nxt`` (if given; (min,+)
    next hops) starts a shortest path for every reachable pair.

    The comparison against :func:`floyd_warshall` accepts
    ``np.isclose``'s default tolerance, which holds for a float32
    kernel.
    """
    w = np.asarray(weights)
    if dist.shape != w.shape:
        raise ValidationError(f"shape mismatch: {dist.shape} vs weights {w.shape}")
    assert_matches_oracle(dist, floyd_warshall(w, semiring), rtol=1e-5, atol=1e-8)
    if nxt is not None:
        check_next_hops(w, dist, nxt)


def assert_matches_oracle(
    dist: np.ndarray, oracle: np.ndarray, rtol: float = 1e-9, atol: float = 1e-9
) -> None:
    """Raise :class:`ValidationError` with a useful diff on mismatch.
    An infinity matches only the same-signed infinity; NaN matches
    nothing."""
    if dist.shape != oracle.shape:
        raise ValidationError(f"shape mismatch: {dist.shape} vs {oracle.shape}")
    close = np.isclose(dist, oracle, rtol=rtol, atol=atol)
    if not close.all():
        bad = np.argwhere(~close)
        i, j = bad[0]
        raise ValidationError(
            f"{len(bad)} mismatching entries; first at ({i}, {j}): "
            f"dist[{i}, {j}] = {dist[i, j]!r} vs oracle {oracle[i, j]!r}"
        )


def check_next_hops(weights: np.ndarray, dist: np.ndarray, nxt: np.ndarray) -> None:
    """Next hops that agree with the distances, in one vectorised pass:

    1. :data:`~repro.semiring.path_kernels.NO_HOP` marks exactly the
       diagonal and the unreachable pairs;
    2. every other ``nxt[i, j] = h`` is an edge out of ``i``
       (``w[i, h]`` finite, ``h != i``) ...
    3. ... that starts a shortest path: ``w[i, h] + dist[h, j]`` is
       close to ``dist[i, j]``.

    Raises :class:`ValidationError` naming the first bad pair.
    """
    n = dist.shape[0]
    if nxt.shape != dist.shape:
        raise ValidationError(f"next-hop shape {nxt.shape} != distance shape {dist.shape}")
    needs_hop = np.isfinite(dist)
    np.fill_diagonal(needs_hop, False)
    misplaced = (nxt == NO_HOP) == needs_hop
    if misplaced.any():
        i, j = np.argwhere(misplaced)[0]
        where = "a reachable pair" if needs_hop[i, j] else "the diagonal or an unreachable pair"
        raise ValidationError(f"next hop of ({i}, {j}) is {nxt[i, j]} on {where}")
    i, j = np.nonzero(needs_hop)
    h = nxt[i, j]
    edge = (h >= 0) & (h < n) & (h != i)
    h_safe = np.where(edge, h, 0)
    first = weights[i, h_safe]
    edge &= np.isfinite(first)
    with np.errstate(invalid="ignore"):
        ok = edge & np.isclose(first + dist[h_safe, j], dist[i, j])
    if not ok.all():
        t = np.flatnonzero(~ok)[0]
        raise ValidationError(
            f"next hop of ({i[t]}, {j[t]}) is {h[t]}, which does not start a "
            f"shortest path (distance {dist[i[t], j[t]]!r})"
        )
