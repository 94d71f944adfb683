"""Incremental Floyd-Warshall (the paper's second future-work item).

Maintains an APSP solution under edge updates:

* weight *decreases* and edge insertions are absorbed in O(n²) per
  update: a cheaper edge (u, v, c) can only create paths through it,
  so ``dist' = dist ⊕ dist[:, u] ⊗ (c ⊗ dist[v, :])`` - one rank-1
  (min,+) outer product;
* weight *increases* and deletions may invalidate many paths; the
  pairs they broke are found and repaired by two (min,+) products
  and a closure over the broken columns, and a (blocked) recompute
  answers an increase that broke too much to repair.

The algorithm itself - validation, classification, batch coalescing,
the refuse-before-write negative-cycle check, the counters - is
:class:`repro.serve.incremental.RankOneUpdater`, the same code the
serving layer's :class:`~repro.serve.ArtifactPatcher` runs over tiles
at rest.  :class:`IncrementalApsp` is that updater over an in-memory
store, re-solving with :func:`repro.core.blocked_fw`; the two are
pinned against each other by
``tests/test_serve.py::TestIncremental::test_cross_store_equivalence``
and refusals by ``tests/test_extensions.py::TestIncrementalApsp``.

The class keeps counters so callers can see how many updates took the
fast path - the economics that make incremental APSP attractive for
the paper's knowledge-graph use case.  Pass an
:class:`~repro.obs.metrics.MetricsRegistry` as ``metrics=`` to surface
them as ``serve.incremental.*`` counters.
"""

from __future__ import annotations

import numpy as np

from ..core.blocked import blocked_fw
from ..serve.artifact import MemoryArtifact
from ..serve.cache import BlockCache
from ..serve.incremental import RankOneUpdater
from ..serve.query import QueryEngine

__all__ = ["IncrementalApsp"]


class IncrementalApsp(RankOneUpdater):
    """An APSP solution that tracks a mutating graph.

    ``update_edge`` / ``insert_edge`` / ``remove_edge`` /
    ``batch_update`` and the ``fast_updates`` / ``repairs`` /
    ``recomputes`` counters are the updater's.  Bad vertices or weights raise
    :class:`~repro.errors.QueryError` (a ``ValueError``) and a negative
    cycle :class:`~repro.errors.NegativeCycleError`, both with
    ``weights`` and ``dist`` untouched.

    Parameters
    ----------
    weights:
        Square weight matrix.  Floating dtypes are preserved
        (``float32`` stays ``float32``); everything else is promoted
        to ``float64`` so +inf can mark absent edges.
    block_size:
        Tile size for the store and the blocked recompute path.
    backend:
        SrGemm kernel backend (name or instance) for repairs and
        recomputes (the updater's ``kernel_backend``);
        ``None`` resolves through the :mod:`repro.semiring.backends`
        registry (``REPRO_SRGEMM_BACKEND`` et al.), exactly like
        :func:`repro.core.blocked_fw`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; updates
        increment ``serve.incremental.fast_updates`` / ``.repairs`` /
        ``.recomputes`` / ``.dirty_blocks``.
    """

    def __init__(self, weights: np.ndarray, block_size: int = 64, *,
                 backend=None, metrics=None):
        dtype = np.float64
        if isinstance(weights, np.ndarray) and np.issubdtype(weights.dtype, np.floating):
            dtype = weights.dtype
        w = np.array(weights, dtype=dtype, copy=True)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got {w.shape}")
        self.block_size = block_size
        dist = blocked_fw(w, min(block_size, len(w)), backend=backend)
        store = MemoryArtifact(dist.astype(dtype, copy=False),
                               block_size=min(block_size, len(w)), graph=w)
        super().__init__(store, QueryEngine(store, BlockCache()), metrics=metrics,
                         kernel_backend=backend)

    def _solve(self, graph: np.ndarray) -> np.ndarray:
        """A blocked recompute (the kernels work in the semiring's own
        dtype; callers cast back to the tracked one)."""
        return blocked_fw(graph, min(self.block_size, len(graph)),
                          backend=self.kernel_backend)

    @property
    def n(self) -> int:
        return self.artifact.n

    @property
    def weights(self) -> np.ndarray:
        """The current weight matrix."""
        return self.artifact.load_graph()

    @property
    def dist(self) -> np.ndarray:
        """The maintained distance matrix (a copy: point reads should
        use :meth:`distance`)."""
        return self.artifact.dist()

    def distance(self, src: int, dst: int) -> float:
        return self.engine.distance(src, dst)
