"""Cross-validation of distance matrices against independent oracles.

The paper's §5.1 states "we experimentally confirmed that the output of
our revised implementations match outputs of the sequential
Floyd-Warshall baseline"; these helpers are how the test suite and the
``validate=True`` driver path make the same confirmation, plus checks
against SciPy and structural invariants that hold for any valid APSP
result.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph as csgraph

from ..errors import ValidationError
from ..semiring.path_kernels import NO_HOP

__all__ = [
    "validate_weights",
    "scipy_floyd_warshall",
    "assert_matches_oracle",
    "check_apsp_invariants",
    "check_next_hops",
]


def validate_weights(weights: np.ndarray) -> np.ndarray:
    """Reject weight matrices the (min,+) sweep cannot digest.

    ``NaN`` poisons every min/plus it touches and silently corrupts
    whole panels; ``-inf`` is an instant negative cycle through any
    vertex pair.  Both are input errors, caught at load/generation time
    rather than deep inside a distributed run.  ``+inf`` (no edge) is
    of course fine.  Returns ``weights`` unchanged for chaining.
    """
    if np.isnan(weights).any():
        bad = np.argwhere(np.isnan(weights))[0]
        raise ValidationError(
            f"weight matrix contains NaN (first at ({bad[0]}, {bad[1]})); "
            "NaN propagates through every (min,+) update it touches"
        )
    if np.isneginf(weights).any():
        bad = np.argwhere(np.isneginf(weights))[0]
        raise ValidationError(
            f"weight matrix contains -inf (first at ({bad[0]}, {bad[1]})); "
            "a -inf edge is an immediate negative cycle"
        )
    return weights


def scipy_floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """SciPy's Floyd-Warshall as an independent oracle.

    SciPy encodes "no edge" as an absent entry of a sparse graph, so
    inf weights are translated before the call.
    """
    dense = np.where(np.isinf(weights), 0.0, weights)
    graph = csgraph.csgraph_from_dense(dense, null_value=0.0)
    return csgraph.floyd_warshall(graph, directed=True)


def assert_matches_oracle(
    dist: np.ndarray, oracle: np.ndarray, rtol: float = 1e-9, atol: float = 1e-9
) -> None:
    """Raise :class:`ValidationError` with a useful diff on mismatch."""
    if dist.shape != oracle.shape:
        raise ValidationError(f"shape mismatch: {dist.shape} vs {oracle.shape}")
    close = np.isclose(dist, oracle, rtol=rtol, atol=atol) | (
        np.isinf(dist) & np.isinf(oracle)
    )
    if not close.all():
        bad = np.argwhere(~close)
        i, j = bad[0]
        raise ValidationError(
            f"{len(bad)} mismatching entries; first at ({i}, {j}): "
            f"{dist[i, j]!r} vs oracle {oracle[i, j]!r}"
        )


def check_apsp_invariants(weights: np.ndarray, dist: np.ndarray) -> None:
    """Structural properties any APSP result must satisfy:

    1. ``dist <= weights`` elementwise (a direct edge is a path);
    2. zero diagonal (no negative cycles assumed);
    3. triangle inequality ``dist[i,j] <= dist[i,k] + dist[k,j]``;
    4. idempotence: one more relaxation sweep changes nothing;
    5. the lower bound: ``dist`` is a fixed point of the Bellman
       equation ``D = I ⊕ W' ⊗ D`` over (min,+), ``W'`` being
       ``weights`` without its diagonal - every finite ``dist[i, j]``
       off the diagonal is realised by a first edge ``i -> k`` and
       ``dist[k, j]``, and every unreachable pair stays unreachable.
       Checks 1-4 bound ``dist`` from above only, so ``dist == 0``
       passed them.

    Necessary for a correct result; sufficient only when every cycle
    has positive weight (a zero-weight cycle admits fixed points below
    the true distances).  Raises :class:`ValidationError`.
    """
    if not np.all(dist <= weights + 1e-9):
        raise ValidationError("distance exceeds direct edge weight somewhere")
    if not np.allclose(np.diagonal(dist), 0.0):
        raise ValidationError("diagonal of APSP result is not zero")
    n = dist.shape[0]
    for k in range(n):
        via = dist[:, k, None] + dist[None, k, :]
        if not np.all(dist <= via + 1e-9):
            raise ValidationError(f"triangle inequality violated via vertex {k}")
    relaxed = dist.copy()
    for k in range(n):
        np.minimum(relaxed, relaxed[:, k, None] + relaxed[None, k, :], out=relaxed)
    if not np.allclose(np.where(np.isinf(dist), 0, dist), np.where(np.isinf(relaxed), 0, relaxed)):
        raise ValidationError("APSP result is not a fixed point of relaxation")
    _check_bellman_fixed_point(weights, dist)


def _check_bellman_fixed_point(weights: np.ndarray, dist: np.ndarray) -> None:
    """Check 5 of :func:`check_apsp_invariants`: ``I ⊕ W' ⊗ D``, as ``n``
    rank-1 sweeps in O(n²) memory, has ``dist``'s finite entries and,
    on them, its values."""
    n = dist.shape[0]
    step = np.array(weights, dtype=np.float64)
    np.fill_diagonal(step, np.inf)
    bellman = np.full((n, n), np.inf)
    np.fill_diagonal(bellman, 0.0)
    for k in range(n):
        np.minimum(bellman, step[:, k, None] + dist[None, k, :], out=bellman)
    finite = np.isfinite(dist)
    if not np.array_equal(finite, np.isfinite(bellman)):
        i, j = np.argwhere(finite != np.isfinite(bellman))[0]
        raise ValidationError(
            f"reachability of ({i}, {j}) disagrees with its neighbours': "
            f"dist {dist[i, j]!r}, best first edge gives {bellman[i, j]!r}"
        )
    close = np.isclose(dist, bellman) | ~finite
    if not close.all():
        i, j = np.argwhere(~close)[0]
        raise ValidationError(
            f"dist[{i}, {j}] = {dist[i, j]!r} is not realised by any path: "
            f"the best first edge gives {bellman[i, j]!r}"
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
