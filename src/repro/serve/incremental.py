"""Incremental APSP under edge updates: one rank-1 (min,+) core.

The paper's knowledge-graph future-work item, written once.
:class:`RankOneUpdater` is the whole algorithm, over any store with the
artifact interface (:class:`~repro.serve.Artifact` on disk,
:class:`~repro.serve.MemoryArtifact` in memory) read through a
:class:`~repro.serve.QueryEngine`:

* a weight *decrease* / insertion is absorbed by one rank-1 (min,+)
  outer product - ``dist' = dist ⊕ dist[:, u] ⊗ (c ⊗ dist[v, :])`` -
  applied tile by tile in the store dtype, and **only dirtied tiles are
  rewritten** (content-addressing makes an unchanged tile a no-op);
* a weight *increase* / deletion first checks, in float64, whether any
  shortest path actually used the edge (one read-only sweep); if none
  did the update is free, otherwise the patch is *invalid* and one
  re-solve replaces every tile;
* an update is **refused before anything is written**: bad vertices or
  weights, or an artifact solved under a semiring other than (min,+)
  (the patch arithmetic below is (min,+) only), raise
  :class:`~repro.errors.QueryError`, a decrease that would
  close a negative cycle raises
  :class:`~repro.errors.NegativeCycleError`, and the store (tiles, graph,
  cached graph array) is exactly what it was.  A refusal inside a batch
  commits the updates before it and applies nothing after;
* a batch **commits once**: each accepted change is logged as one
  ``[u, v, w]`` row (:meth:`~repro.serve.Artifact.log_edit`) and one
  :meth:`~repro.serve.Artifact.flush` at the end of the batch, after
  the re-solve if one ran, commits the rewritten tiles and the rows in
  one manifest rename; nothing re-compresses ``graph.npz`` per update.
  Any failure but a refusal - a failed block write, re-solve or
  flush - discards the whole batch
  (:meth:`~repro.serve.Artifact.discard`) and propagates, so memory
  and disk both keep the last commit.

Two thin subclasses say how a re-solve is obtained:
:class:`ArtifactPatcher` (here) submits one job to a
:class:`~repro.sched.ClusterScheduler` configured from the artifact's
own solve header - a fresh private one per re-solve unless the caller
passed one, so no finished re-solve outlives its update;
:class:`repro.extensions.IncrementalApsp` runs ``blocked_fw`` over an
in-memory store.  Counters surface as
``serve.incremental.*`` metrics, and the two are pinned bit-exact
against each other and against a fresh solve by
``tests/test_serve.py::TestIncremental::test_cross_store_equivalence``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from ..errors import ArtifactError, ConfigurationError, NegativeCycleError, QueryError
from ..semiring.minplus import INF
from .query import check_vertex

__all__ = ["RankOneUpdater", "ArtifactPatcher"]


class RankOneUpdater:
    """Applies edge updates to an artifact through a query engine;
    subclasses provide ``_solve(graph) -> dist`` for invalid patches."""

    def __init__(self, artifact, engine, *, metrics=None):
        self.artifact = artifact
        self.engine = engine
        self.metrics = metrics
        self.fast_updates = 0
        self.recomputes = 0
        self.dirty_blocks = 0

    # -- public update surface --------------------------------------------
    def update_edge(self, u: int, v: int, weight: float) -> bool:
        """Set the weight of edge (u, v); True when the O(n²) tile
        patch sufficed, False when a re-solve ran."""
        return self.batch_update([(u, v, weight)]) == 0

    def insert_edge(self, u: int, v: int, weight: float) -> bool:
        """Add (or cheapen) an edge; always the fast path."""
        u, v, weight = self._check_edge(u, v, weight)
        return self.update_edge(
            u, v, min(weight, float(self.artifact.load_graph()[u, v])))

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete an edge (set to +inf); re-solves if it carried any
        shortest path."""
        return self.update_edge(u, v, INF)

    def batch_update(self, updates: Iterable[tuple[int, int, float]]) -> int:
        """Apply many edge updates, coalescing re-solves: decreases are
        absorbed immediately, increases are staged, and at most *one*
        re-solve runs at the end, before the batch's one commit.
        Returns the number of updates that needed it (0 = everything
        took the fast path).  A refused update raises with every update
        before it committed; any other failure commits none of them."""
        self.engine.require_min_plus("an edge update")
        art = self.artifact
        graph = art.load_graph()
        expensive = 0
        edited = False
        try:
            for u, v, weight in updates:
                u, v, weight = self._check_edge(u, v, weight)
                if u == v:
                    if weight < 0:
                        raise NegativeCycleError(u, weight)
                    continue  # shortens no simple path: a no-op, not counted
                old = float(graph[u, v])
                if weight <= old:
                    self._absorb_decrease(u, v, weight)
                    self._count("fast_updates")
                elif self._edge_on_some_path(u, v, old):
                    expensive += 1
                else:
                    self._count("fast_updates")
                art.log_edit(u, v, weight)  # accepted: only now may the graph change
                edited = True
        except (QueryError, NegativeCycleError):
            # A refusal is raised before its update writes anything, so
            # the prefix before it is whole: commit it.
            if edited:
                self._commit(graph, expensive)
            raise
        except BaseException:
            self._forget()  # a write may have stopped half way through a patch
            raise
        if edited:
            self._commit(graph, expensive)
        return expensive

    # -- internals --------------------------------------------------------
    def _check_edge(self, u, v, weight) -> tuple[int, int, float]:
        u = check_vertex(u, self.engine.n, "edge source")
        v = check_vertex(v, self.engine.n, "edge target")
        try:
            weight = float(weight)
        except (TypeError, ValueError):
            raise QueryError(f"edge weight must be a number, got {weight!r}") from None
        if np.isnan(weight) or weight == -np.inf:
            raise QueryError(f"edge weight must not be NaN or -inf, got {weight}")
        return u, v, weight

    def _count(self, name: str, k: int = 1) -> None:
        setattr(self, name, getattr(self, name) + k)
        if self.metrics is not None and k:
            self.metrics.counter(f"serve.incremental.{name}").inc(k)

    def _tiles(self) -> Iterator[tuple[int, int, slice, slice]]:
        art = self.artifact
        b = art.block_size
        for bi, bj in art.block_keys():
            yield (bi, bj, slice(bi * b, min(art.n, (bi + 1) * b)),
                   slice(bj * b, min(art.n, (bj + 1) * b)))

    def _absorb_decrease(self, u: int, v: int, c: float) -> None:
        """dist ← dist ⊕ (dist[:, u] + c + dist[v, :]), tile by tile,
        rewriting only the tiles the cheaper edge actually changed."""
        art = self.artifact
        col_u = self.engine.col(u).astype(art.dtype, copy=False)  # pre-update snapshots
        row_v = self.engine.row(v).astype(art.dtype, copy=False)
        shifted = (np.asarray(c, dtype=art.dtype) + row_v).astype(art.dtype)
        # The candidate matrix's diagonal: every cycle through the new
        # edge.  A negative one refuses the update before any tile moves.
        cycle = col_u + shifted
        neg = np.flatnonzero(cycle < 0)
        if neg.size:
            raise NegativeCycleError(int(neg[0]), float(cycle[neg[0]]))
        dirtied = 0
        for bi, bj, si, sj in self._tiles():
            candidate = col_u[si, None] + shifted[None, sj]
            tile = self.engine.block(bi, bj)
            if not np.any(candidate < tile):
                continue
            self.engine.write(bi, bj, np.minimum(tile, candidate).astype(art.dtype))
            dirtied += 1
        self._count("dirty_blocks", dirtied)

    def _edge_on_some_path(self, u: int, v: int, old_weight: float) -> bool:
        """Did any pair's shortest distance equal a route through
        (u, v) at its old weight?  Read-only tile sweep."""
        if not np.isfinite(old_weight):
            return False
        col_u = self.engine.col(u).astype(np.float64)
        shifted = old_weight + self.engine.row(v).astype(np.float64)
        for bi, bj, si, sj in self._tiles():
            tile = np.asarray(self.engine.block(bi, bj), dtype=np.float64)
            via = col_u[si, None] + shifted[None, sj]
            if bool(np.any(np.isclose(via, tile) & np.isfinite(tile))):
                return True
        return False

    def _commit(self, graph: np.ndarray, expensive: int) -> None:
        """End a batch: the one re-solve if an increase staged it, then
        one flush.  On any failure nothing of the batch is committed,
        and the store and the cache forget it too."""
        try:
            if expensive:
                self._recompute(graph)
            self.artifact.flush()
        except BaseException:
            self._forget()
            raise

    def _forget(self) -> None:
        """Drop the uncommitted batch from the store and the cache."""
        self.artifact.discard()
        self.engine.cache.clear()

    def _recompute(self, graph: np.ndarray) -> None:
        """The patch is invalid: re-solve the updated graph and rewrite
        every changed tile from the result."""
        art = self.artifact
        dist = np.asarray(self._solve(graph), dtype=art.dtype)
        for bi, bj, si, sj in self._tiles():
            self.engine.write(bi, bj, np.ascontiguousarray(dist[si, sj]))
        self._count("recomputes")

    def _solve(self, graph: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ArtifactPatcher(RankOneUpdater):
    """The updater behind :class:`~repro.serve.QueryServer`: an invalid
    patch is re-solved by one job on the cluster scheduler.

    ``scheduler`` is the caller's to keep, history and all; without
    one, each re-solve builds its own, which (with its job, weights,
    plan and result) is garbage once the re-solve returns.
    """

    def __init__(self, artifact, engine, *, metrics=None,
                 kernel_backend: Optional[str] = None, scheduler=None):
        super().__init__(artifact, engine, metrics=metrics)
        self.kernel_backend = kernel_backend
        self._scheduler = scheduler

    # Bound in this class's own namespace as well: benchmarks/e2e patches
    # ``vars(ArtifactPatcher)["update_edge"]`` to span each update.
    update_edge = RankOneUpdater.update_edge

    def _solve(self, graph: np.ndarray) -> np.ndarray:
        from ..api import SolveConfig
        from ..core.variants import Variant

        header = self.artifact.solve_header
        n = graph.shape[0]
        fields = {"collect": True}
        if header.get("variant"):
            # Artifacts written before the header recorded the landed
            # variant may hold the report's ``planned->landed`` form.
            landed = str(header["variant"]).rpartition("->")[2]
            try:
                fields["variant"] = Variant.parse(landed).value
            except ConfigurationError:
                raise ArtifactError(
                    self.artifact.path,
                    f"solve header field 'variant' names no known variant: "
                    f"{header['variant']!r}",
                ) from None
        if header.get("machine"):
            fields["machine"] = header["machine"]
        if header.get("n_nodes"):
            fields["n_nodes"] = int(header["n_nodes"])
            if header.get("ranks"):
                fields["ranks_per_node"] = max(
                    1, int(header["ranks"]) // int(header["n_nodes"])
                )
        solve_b = header.get("block_size")
        if solve_b:
            fields["block_size"] = min(int(solve_b), n)
        if self.kernel_backend is not None:
            fields["kernel_backend"] = self.kernel_backend
        config = SolveConfig(**fields)
        scheduler = self._scheduler
        if scheduler is None:
            from ..sched import ClusterScheduler

            scheduler = ClusterScheduler(machine=config.machine, n_nodes=config.n_nodes)
        return scheduler.submit(graph, config, name="serve-resolve").result().dist
