"""The block-cached query engine: point, batch, k-nearest, submatrix.

Every read decomposes into tiles of the artifact and goes through the
byte-budgeted :class:`~repro.serve.cache.BlockCache`, so a warm point
query is a cache hit plus one scalar index - no solve, no full-matrix
materialization.  Batches are answered tile-by-tile (pairs grouped by
the block they land in), k-nearest scans one block row, and submatrix
extraction touches exactly the tiles covering the requested rows x
columns.

:class:`BatchQuery` is the async form, ``submit()``-consistent with
:class:`~repro.sched.JobHandle`: ``poll()`` advances one configured
chunk of pairs, ``wait()`` drives to completion, ``result()`` returns
the distance vector (re-raising any failure), and the handle is
awaitable.  Progress is cooperative, single-threaded, and
deterministic - the same design as the simulated scheduler.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ArtifactError, QueryError
from ..semiring.minplus import SEMIRINGS

__all__ = ["QueryEngine", "BatchQuery", "check_vertex"]

PairLike = Union[Tuple[int, int], Sequence[int]]


def check_vertex(v, n: int, what: str = "vertex") -> int:
    """``v`` as the int id of a vertex of an ``n``-vertex graph; a
    non-integer (bools included) or a value outside ``[0, n)`` is a
    :class:`~repro.errors.QueryError`."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise QueryError(f"{what} must be an integer vertex id, got {v!r}")
    v = int(v)
    if not (0 <= v < n):
        raise QueryError(f"{what} {v} outside vertex range [0, {n})")
    return v


def _as_index_array(values, n: int, what: str) -> np.ndarray:
    """Validate a 1-D collection of vertex indices (QueryError on any
    non-integral or out-of-range entry)."""
    arr = np.asarray(values)
    if arr.size == 0:
        raise QueryError(f"{what} must name at least one vertex")
    if arr.ndim != 1:
        raise QueryError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise QueryError(f"{what} must hold integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        raise QueryError(
            f"{what} contains vertex {int(arr[bad][0])} outside [0, {n})"
        )
    return arr


class QueryEngine:
    """Tile-decomposed reads over one artifact through one cache."""

    def __init__(self, artifact, cache, *, metrics=None):
        self.artifact = artifact
        self.cache = cache
        self.metrics = metrics
        self.n = artifact.n
        self.block_size = artifact.block_size
        self.nb = artifact.nb
        #: Name of the semiring the artifact is a closure under (its
        #: solve header; manifests written before the key read as
        #: ``min_plus``).
        self.semiring: str = artifact.solve_header.get("semiring", "min_plus")
        if self.semiring not in SEMIRINGS:
            raise ArtifactError(
                artifact.path,
                f"solve header names unknown semiring {self.semiring!r}; "
                f"known: {sorted(SEMIRINGS)}",
            )

    def require_min_plus(self, what: str) -> None:
        """Refuse an operation whose arithmetic is (min,+)-only on an
        artifact solved under another semiring (reads are semiring-
        agnostic and never call this)."""
        if self.semiring != "min_plus":
            raise QueryError(
                f"{what} is only defined for (min,+) distances; this artifact "
                f"was solved under the {self.semiring} semiring"
            )

    # -- tile access ------------------------------------------------------
    def block(self, bi: int, bj: int) -> np.ndarray:
        """Tile (bi, bj) through the cache: one read per miss; only
        tiles a query touches are read, and the byte budget counts the
        bytes each read holds in memory."""
        return self.cache.get((bi, bj), lambda: self._load(bi, bj))

    def _load(self, bi: int, bj: int) -> np.ndarray:
        return self.artifact.load_block(bi, bj)

    def write(self, bi: int, bj: int, tile: np.ndarray) -> None:
        """Rewrite tile (bi, bj) in the artifact and cache the stored
        tile, so the next read of it is a hit, not a read-back."""
        self.cache.put((bi, bj), self.artifact.rewrite_block(bi, bj, tile))

    # -- scalar / vector reads --------------------------------------------
    def distance(self, s, t) -> float:
        """d(s, t): one tile, one scalar."""
        s = check_vertex(s, self.n, "source")
        t = check_vertex(t, self.n, "target")
        b = self.block_size
        tile = self.block(s // b, t // b)
        if self.metrics is not None:
            self.metrics.counter("serve.queries.point").inc()
        return float(tile[s - (s // b) * b, t - (t // b) * b])

    def row(self, s) -> np.ndarray:
        """d(s, :) assembled from one block row."""
        s = check_vertex(s, self.n, "source")
        b = self.block_size
        bi, local = s // b, s % b
        return np.concatenate(
            [np.asarray(self.block(bi, bj)[local, :]) for bj in range(self.nb)]
        )

    def col(self, t) -> np.ndarray:
        """d(:, t) assembled from one block column."""
        t = check_vertex(t, self.n, "target")
        b = self.block_size
        bj, local = t // b, t % b
        return np.concatenate(
            [np.asarray(self.block(bi, bj)[:, local]) for bi in range(self.nb)]
        )

    def batch(self, pairs) -> np.ndarray:
        """Distances for an (m, 2) batch of (source, target) pairs,
        grouped by tile so each touched block loads once."""
        arr = np.asarray(pairs)
        if arr.ndim == 1 and arr.size == 2:
            arr = arr.reshape(1, 2)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.size == 0:
            raise QueryError(
                f"batch must be an (m, 2) array of pairs, got shape {arr.shape}"
            )
        src = _as_index_array(arr[:, 0], self.n, "batch sources")
        dst = _as_index_array(arr[:, 1], self.n, "batch targets")
        out = np.empty(len(src), dtype=self.artifact.dtype)
        self._gather(src, dst, out)
        if self.metrics is not None:
            self.metrics.counter("serve.queries.batch").inc()
            self.metrics.counter("serve.queries.batch_pairs").inc(len(src))
        return out

    def _gather(self, src: np.ndarray, dst: np.ndarray, out: np.ndarray) -> None:
        b = self.block_size
        bi, bj = src // b, dst // b
        block_id = bi * self.nb + bj
        order = np.argsort(block_id, kind="stable")
        sorted_ids = block_id[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        bounds = np.r_[starts, len(sorted_ids)]
        for a, z in zip(bounds[:-1], bounds[1:]):
            idx = order[a:z]
            tile = self.block(int(bi[idx[0]]), int(bj[idx[0]]))
            out[idx] = tile[src[idx] - bi[idx] * b, dst[idx] - bj[idx] * b]

    def k_nearest(self, s, k: int) -> list[tuple[int, float]]:
        """The k nearest vertices to ``s`` (excluding ``s`` itself and
        unreachable vertices), as ``(vertex, distance)`` sorted by
        distance with ties broken by vertex id - deterministic for any
        tie structure.  Returns fewer than k when fewer are reachable."""
        self.require_min_plus("k_nearest")
        s = check_vertex(s, self.n, "source")
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or int(k) < 1:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        k = int(k)
        vals = self.row(s).astype(np.float64, copy=True)
        vals[s] = np.inf  # never "nearest" to itself
        order = np.lexsort((np.arange(self.n), vals))  # distance, then id
        out = []
        for v in order[: k]:
            if not np.isfinite(vals[v]):
                break
            out.append((int(v), float(vals[v])))
        if self.metrics is not None:
            self.metrics.counter("serve.queries.k_nearest").inc()
        return out

    def submatrix(self, rows, cols) -> np.ndarray:
        """The dense ``len(rows) x len(cols)`` distance submatrix,
        assembled from exactly the tiles covering it."""
        rows = _as_index_array(rows, self.n, "rows")
        cols = _as_index_array(cols, self.n, "cols")
        out = np.empty((len(rows), len(cols)), dtype=self.artifact.dtype)
        b = self.block_size
        row_blocks, col_blocks = rows // b, cols // b
        for bi in np.unique(row_blocks):
            ri = np.flatnonzero(row_blocks == bi)
            for bj in np.unique(col_blocks):
                cj = np.flatnonzero(col_blocks == bj)
                tile = self.block(int(bi), int(bj))
                out[np.ix_(ri, cj)] = tile[
                    np.ix_(rows[ri] - bi * b, cols[cj] - bj * b)
                ]
        if self.metrics is not None:
            self.metrics.counter("serve.queries.submatrix").inc()
        return out


class BatchQuery:
    """An asynchronously answered batch: poll / wait / result / await.

    Cooperative and deterministic: each :meth:`poll` answers up to
    ``chunk`` pairs through the engine (cache-grouped), so callers can
    interleave many in-flight batches without threads - the same
    single-driver model as :class:`~repro.sched.JobHandle`.
    """

    def __init__(self, engine: QueryEngine, pairs, chunk: int):
        arr = np.asarray(pairs)
        if arr.ndim == 1 and arr.size == 2:
            arr = arr.reshape(1, 2)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.size == 0:
            raise QueryError(
                f"batch must be an (m, 2) array of pairs, got shape {arr.shape}"
            )
        self._engine = engine
        self._src = _as_index_array(arr[:, 0], engine.n, "batch sources")
        self._dst = _as_index_array(arr[:, 1], engine.n, "batch targets")
        self._out = np.empty(len(self._src), dtype=engine.artifact.dtype)
        self._chunk = int(chunk)
        self._cursor = 0
        self._error: Optional[BaseException] = None
        self.status = "pending"

    def __len__(self) -> int:
        return len(self._src)

    @property
    def answered(self) -> int:
        return self._cursor

    @property
    def done(self) -> bool:
        return self.status in ("done", "failed")

    def poll(self) -> str:
        """Answer up to one chunk of pairs; returns the new status."""
        if self.done:
            return self.status
        self.status = "running"
        stop = min(len(self._src), self._cursor + self._chunk)
        try:
            self._engine._gather(
                self._src[self._cursor : stop],
                self._dst[self._cursor : stop],
                self._out[self._cursor : stop],
            )
        except BaseException as exc:
            self._error = exc
            self.status = "failed"
            return self.status
        self._cursor = stop
        if self._cursor >= len(self._src):
            self.status = "done"
            if self._engine.metrics is not None:
                self._engine.metrics.counter("serve.queries.batch").inc()
                self._engine.metrics.counter("serve.queries.batch_pairs").inc(
                    len(self._src)
                )
        return self.status

    def wait(self) -> str:
        """Drive the batch to a terminal state."""
        while not self.done:
            self.poll()
        return self.status

    def result(self) -> np.ndarray:
        """The distance vector; drives the batch if needed and
        re-raises its failure."""
        self.wait()
        if self._error is not None:
            raise self._error
        return self._out

    def __await__(self):
        self.wait()
        return self.result()
        yield  # pragma: no cover - makes __await__ a generator
