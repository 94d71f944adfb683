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
* a weight *increase* / deletion first finds, in float64, the set A of
  pairs some shortest path of which used the edge at its old weight:
  by subpath optimality the candidate rows are the i whose path to v
  runs through it (``d(i,u) + w == d(i,v)``, over one tile column) and
  the candidate columns the j whose path from u does, so only that
  submatrix is tested.  An empty A is free.  Otherwise A is
  *repaired* on the kernel waist: with S and T the rows and columns of
  A, ``R = dist[S, :]`` with the broken entries at +inf and ``W'`` the
  updated graph, ``X = (R ⊗ W'[:, T]) ⊗ closure(W'[T, T])`` is exact at
  every pair of A (the last unbroken vertex on an optimal path seeds
  it, and every vertex after it lies in T), and only those pairs, in
  only the tiles holding them, are written.  Past a fixed share of n³
  (:data:`RESOLVE_SHARE`), or once a re-solve is staged in the batch,
  one re-solve replaces every tile instead;
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
  Any failure but a refusal - a failed block write, repair, re-solve or
  flush - discards the whole batch
  (:meth:`~repro.serve.Artifact.discard`) and propagates, so memory
  and disk both keep the last commit.

Repairs run on the kernel backend the updater names
(``kernel_backend``, resolved by :func:`~repro.semiring.backends.get_backend`).
Two thin subclasses say how a re-solve is obtained:
:class:`ArtifactPatcher` (here) submits one job to a
:class:`~repro.sched.ClusterScheduler` configured from the artifact's
own solve header - a fresh private one per re-solve unless the caller
passed one, so no finished re-solve outlives its update;
:class:`repro.extensions.IncrementalApsp` runs ``blocked_fw`` over an
in-memory store.  Counters surface as
``serve.incremental.*`` metrics, and the two are pinned against each
other and against a fresh solve - bit for bit on dyadic weights - by
``tests/test_serve.py::TestIncremental::test_cross_store_equivalence``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from ..errors import ArtifactError, ConfigurationError, NegativeCycleError, QueryError
from ..semiring.backends import get_backend
from ..semiring.minplus import INF
from .query import check_vertex

__all__ = ["RankOneUpdater", "ArtifactPatcher", "RESOLVE_SHARE"]

#: A repair of the broken set A costs |S|·n·|T| + |T|³ + |S|·|T|²
#: (min,+) operations (S, T: the rows and columns of A); past this share
#: of the n³ of a re-solve, the increase re-solves instead.  Measured on
#: a 2-core Xeon at n = 768 (64-row tiles, cnative), over 20 increases
#: from 0.0005 to 1.3 n³: a repair with its commit took about
#: 5 ms + 88 ms per n³ of work (6 ms at 0.004 n³, 50 ms at 0.55 n³,
#: 117 ms at 1.3 n³) and a re-solve with its commit 49-87 ms, so the two
#: meet near 0.65 n³; at 0.5 a repair is no slower than the fastest
#: re-solve.  Halving an edge and restoring it, as the serve-update
#: workload does, breaks about 0.001 n³.
RESOLVE_SHARE = 0.5


def _empty_path(dist_line: np.ndarray, i: int) -> None:
    """Set entry ``i`` of a row or column of ``dist`` to the empty path
    (at most 0), in place.  A solve keeps ``d(i, i) = min(w[i, i],
    shortest cycle)``, which is positive where the graph's diagonal is,
    but a route that starts or ends at ``i`` may use no edge there."""
    dist_line[i] = min(dist_line[i], 0)


class RankOneUpdater:
    """Applies edge updates to an artifact through a query engine;
    subclasses provide ``_solve(graph) -> dist`` for the increases a
    repair does not cover.  ``kernel_backend`` (a name, an instance or
    None for the default) runs the repairs."""

    def __init__(self, artifact, engine, *, metrics=None, kernel_backend=None):
        self.artifact = artifact
        self.engine = engine
        self.metrics = metrics
        self.kernel_backend = kernel_backend
        self.fast_updates = 0
        self.repairs = 0
        self.recomputes = 0
        self.dirty_blocks = 0

    # -- public update surface --------------------------------------------
    def update_edge(self, u: int, v: int, weight: float) -> bool:
        """Set the weight of edge (u, v); True when no shortest path
        was invalidated (the O(n²) tile patch, or a free increase),
        False when one was and the broken pairs were repaired or the
        graph re-solved."""
        return self.batch_update([(u, v, weight)]) == 0

    def insert_edge(self, u: int, v: int, weight: float) -> bool:
        """Add (or cheapen) an edge; always the fast path."""
        u, v, weight = self._check_edge(u, v, weight)
        return self.update_edge(
            u, v, min(weight, float(self.artifact.load_graph()[u, v])))

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete an edge (set to +inf); repairs the pairs it carried
        (or re-solves, past the crossover) if it carried any."""
        return self.update_edge(u, v, INF)

    def batch_update(self, updates: Iterable[tuple[int, int, float]]) -> int:
        """Apply many edge updates with one commit: decreases are
        absorbed and increases repaired where they occur, and an
        increase past the crossover stages the batch's one re-solve,
        which runs at the end and covers every increase after it.
        Returns the number of updates that invalidated a shortest path
        (0 = everything took the fast path).  A refused update raises
        with every update before it committed; any other failure
        commits none of them."""
        self.engine.require_min_plus("an edge update")
        art = self.artifact
        graph = art.load_graph()
        expensive = 0
        resolve = False
        edited = False
        try:
            for u, v, weight in updates:
                u, v, weight = self._check_edge(u, v, weight)
                if u == v:
                    if weight < 0:
                        raise NegativeCycleError(u, weight)
                    continue  # shortens no simple path: a no-op, not counted
                old = float(graph[u, v])
                broken = None
                if weight <= old:
                    self._absorb_decrease(u, v, weight)
                else:
                    broken = self._broken_pairs(u, v, old)
                if broken is None:
                    self._count("fast_updates")
                else:
                    expensive += 1
                    # Once a re-solve is staged the tiles are stale: it
                    # covers this increase too.
                    resolve = resolve or self._past_crossover(*broken[:2])
                    if not resolve:
                        self._repair(u, v, weight, graph, *broken)
                art.log_edit(u, v, weight)  # accepted: only now may the graph change
                edited = True
        except (QueryError, NegativeCycleError):
            # A refusal is raised before its update writes anything, so
            # the prefix before it is whole: commit it.
            if edited:
                self._commit(graph, resolve)
            raise
        except BaseException:
            self._forget()  # a write may have stopped half way through a patch
            raise
        if edited:
            self._commit(graph, resolve)
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
        _empty_path(col_u, u)
        _empty_path(row_v, v)
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

    def _broken_pairs(self, u: int, v: int, old_weight: float):
        """The pairs (i, j) whose shortest distance equals a route
        through (u, v) at its old weight, tested in float64: ``(S, T,
        mask, dist[S, :])`` - the rows and columns holding them, the
        |S| x |T| mask of the pairs and the rows of the store - or None
        when there are none.  Read-only.

        Such a pair's path to v, and its path from u, run through the
        edge too (subpath optimality), so only rows with
        ``d(i,u) + w == d(i,v)`` and columns with ``w + d(v,j) ==
        d(u,j)`` are tested.  ``isclose`` over-approximates A, which is
        safe: a pair that did not break repairs to its old value.  A
        diagonal pair breaks only where ``w[i, i] > 0``: elsewhere
        ``d(i, i)`` is the empty path, which uses no edge.
        """
        if not np.isfinite(old_weight):
            return None
        eng = self.engine
        col_u, col_v = eng.col(u).astype(np.float64), eng.col(v).astype(np.float64)
        row_u, row_v = eng.row(u).astype(np.float64), eng.row(v).astype(np.float64)
        _empty_path(col_u, u)
        _empty_path(row_v, v)
        rows = np.flatnonzero(np.isclose(col_u + old_weight, col_v) & np.isfinite(col_v))
        cols = np.flatnonzero(np.isclose(old_weight + row_v, row_u) & np.isfinite(row_u))
        if not (rows.size and cols.size):
            return None
        reach = self._dist_rows(rows)
        dist = reach[:, cols].astype(np.float64)
        via = col_u[rows, None] + (old_weight + row_v[None, cols])
        cycles = np.diagonal(self.artifact.load_graph())[rows] > 0
        mask = (np.isclose(via, dist) & np.isfinite(dist)
                & ((rows[:, None] != cols[None, :]) | cycles[:, None]))
        keep_rows, keep_cols = mask.any(axis=1), mask.any(axis=0)
        if not keep_rows.any():
            return None
        return (rows[keep_rows], cols[keep_cols], mask[np.ix_(keep_rows, keep_cols)],
                reach[keep_rows])

    def _dist_rows(self, rows: np.ndarray) -> np.ndarray:
        """dist[rows, :] in the store dtype, gathered one block row at a
        time (``rows`` sorted)."""
        art = self.artifact
        b = art.block_size
        out = np.empty((len(rows), art.n), dtype=art.dtype)
        bounds = np.searchsorted(rows, np.arange(art.nb + 1) * b)
        for bi in range(art.nb):
            lo, hi = bounds[bi], bounds[bi + 1]
            if lo < hi:
                local = rows[lo:hi] - bi * b
                out[lo:hi] = np.concatenate(
                    [self.engine.block(bi, bj)[local] for bj in range(art.nb)], axis=1)
        return out

    def _past_crossover(self, rows: np.ndarray, cols: np.ndarray) -> bool:
        """Would :meth:`_repair` - the seed product, the closure over T
        and the product through it - cost more (min,+) operations than
        :data:`RESOLVE_SHARE` of a re-solve's n³?"""
        n, s, t = self.artifact.n, len(rows), len(cols)
        return s * n * t + t ** 3 + s * t * t > RESOLVE_SHARE * n ** 3

    def _repair(self, u: int, v: int, weight: float, graph: np.ndarray,
                rows: np.ndarray, cols: np.ndarray, mask: np.ndarray,
                reach: np.ndarray) -> None:
        """Recompute the broken pairs ``(rows, cols)[mask]`` of an
        increase of (u, v) to ``weight`` and rewrite the tiles whose
        values changed; ``reach`` is ``dist[rows, :]``, overwritten.

        ``seed = R ⊗ W'[:, T]`` relaxes one edge out of every unbroken
        pair (R: ``reach`` with the broken pairs at +inf) and
        ``seed ⊗ closure(W'[T, T])`` finishes each path inside T.  An
        optimal new path from i to a broken j leaves its last unbroken
        vertex k - whose distance the increase left alone - into
        vertices that all lie in T, so both products together are exact
        at every broken pair.
        """
        art = self.artifact
        backend = get_backend(self.kernel_backend)
        # The byte budget is configuration, as in a solve: a malformed
        # $REPRO_SRGEMM_BYTE_BUDGET is a ConfigurationError here too.
        backend.resolved_byte_budget()
        broken_i, broken_j = np.nonzero(mask)
        reach[broken_i, cols[broken_j]] = INF
        reach[np.arange(len(rows)), rows] = 0  # every route may start empty
        into = graph[:, cols].astype(art.dtype)  # W'[:, T]: the edge at its new weight
        into[u, cols == v] = weight
        inside = into[cols]  # W'[T, T], a fresh array
        np.fill_diagonal(inside, 0)
        backend.fw_closure(inside)
        fixed = backend.srgemm(backend.srgemm(reach, into), inside)
        self._write_pairs(rows[broken_i], cols[broken_j],
                          fixed[broken_i, broken_j].astype(art.dtype))
        self._count("repairs")

    def _write_pairs(self, src: np.ndarray, dst: np.ndarray, values: np.ndarray) -> None:
        """Set dist[src, dst] = values, rewriting only the tiles that
        hold a pair whose value changed."""
        b, nb = self.artifact.block_size, self.artifact.nb
        bi, bj = src // b, dst // b
        tile_id = bi * nb + bj
        order = np.argsort(tile_id, kind="stable")
        ids = tile_id[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        dirtied = 0
        for a, z in zip(starts, np.r_[starts[1:], len(ids)]):
            idx = order[a:z]
            ti, tj = int(bi[idx[0]]), int(bj[idx[0]])
            local = (src[idx] - ti * b, dst[idx] - tj * b)
            tile = self.engine.block(ti, tj)
            if np.array_equal(tile[local], values[idx]):
                continue
            tile = np.array(tile)
            tile[local] = values[idx]
            self.engine.write(ti, tj, tile)
            dirtied += 1
        self._count("dirty_blocks", dirtied)

    def _commit(self, graph: np.ndarray, resolve: bool) -> None:
        """End a batch: the one re-solve if an increase staged it, then
        one flush.  On any failure nothing of the batch is committed,
        and the store and the cache forget it too."""
        try:
            if resolve:
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
        """Too much broke to repair: re-solve the updated graph and
        rewrite every changed tile from the result."""
        art = self.artifact
        dist = np.asarray(self._solve(graph), dtype=art.dtype)
        for bi, bj, si, sj in self._tiles():
            self.engine.write(bi, bj, np.ascontiguousarray(dist[si, sj]))
        self._count("recomputes")

    def _solve(self, graph: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ArtifactPatcher(RankOneUpdater):
    """The updater behind :class:`~repro.serve.QueryServer`: an
    increase past the repair crossover is re-solved by one job on the
    cluster scheduler.

    ``scheduler`` is the caller's to keep, history and all; without
    one, each re-solve builds its own, which (with its job, weights,
    plan and result) is garbage once the re-solve returns.
    """

    def __init__(self, artifact, engine, *, metrics=None,
                 kernel_backend: Optional[str] = None, scheduler=None):
        super().__init__(artifact, engine, metrics=metrics, kernel_backend=kernel_backend)
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
