"""The query server: one artifact + one cache + one public surface.

``repro.serve(artifact_or_result)`` builds a :class:`QueryServer` -
the serving sibling of ``repro.solve(...) -> ApspResult``:

* reads: :meth:`~QueryServer.distance`, :meth:`~QueryServer.batch`,
  :meth:`~QueryServer.k_nearest`, :meth:`~QueryServer.submatrix`, and
  the ``submit()``-consistent async :meth:`~QueryServer.submit_batch`;
* writes: :meth:`~QueryServer.update_edge` /
  :meth:`~QueryServer.batch_update` through the incremental patch path
  (only for artifacts saved with their graph);
* observability: ``serve.*`` metrics when the config's
  :class:`~repro.obs.sinks.ObsSinks` is armed, written to
  ``metrics_out`` on :meth:`~QueryServer.close`.

The server is a context manager; closing flushes the artifact manifest
(after incremental rewrites), deletes the artifact's spare block files
and writes the metrics sink.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

import numpy as np

from ..errors import ConfigurationError
from .artifact import Artifact, MemoryArtifact, load_artifact
from .cache import BlockCache
from .config import ServeConfig
from .incremental import ArtifactPatcher
from .query import BatchQuery, QueryEngine

__all__ = ["QueryServer", "serve"]


class QueryServer:
    """Point/batch/k-nearest/submatrix queries over one solve artifact."""

    def __init__(self, artifact, config: Optional[ServeConfig] = None, *,
                 scheduler=None):
        if config is None:
            config = ServeConfig()
        if not isinstance(config, ServeConfig):
            raise ConfigurationError(
                f"config must be a ServeConfig, got {type(config).__name__}"
            )
        config.obs.validate()
        self.artifact = artifact
        self.config = config
        self.metrics = None
        if config.obs.enabled:
            from ..obs.metrics import MetricsRegistry

            self.metrics = MetricsRegistry()
            self.metrics.label("serve.artifact", str(artifact.path))
            self.metrics.label("serve.dtype", artifact.dtype.name)
            self.metrics.gauge("serve.n").set(artifact.n)
            self.metrics.gauge("serve.block_size").set(artifact.block_size)
        self.cache = BlockCache(config.effective_cache_bytes, metrics=self.metrics)
        self.engine = QueryEngine(artifact, self.cache, metrics=self.metrics)
        self.patcher = ArtifactPatcher(
            artifact,
            self.engine,
            metrics=self.metrics,
            kernel_backend=config.kernel_backend,
            scheduler=scheduler,
        )
        self._closed = False

    # -- artifact passthroughs --------------------------------------------
    @property
    def n(self) -> int:
        return self.artifact.n

    @property
    def dtype(self) -> np.dtype:
        return self.artifact.dtype

    @property
    def block_size(self) -> int:
        return self.artifact.block_size

    @property
    def certificate(self) -> Optional[dict]:
        return self.artifact.certificate

    # -- reads ------------------------------------------------------------
    def distance(self, s: int, t: int) -> float:
        """The shortest-path distance d(s, t)."""
        self._check_open()
        return self.engine.distance(s, t)

    def batch(self, pairs) -> np.ndarray:
        """Distances for an (m, 2) batch of (source, target) pairs."""
        self._check_open()
        return self.engine.batch(pairs)

    def submit_batch(self, pairs) -> BatchQuery:
        """Async batch: returns a poll/wait/result/await handle
        (consistent with :func:`repro.submit`)."""
        self._check_open()
        return BatchQuery(self.engine, pairs, self.config.batch_chunk)

    def k_nearest(self, s: int, k: int) -> list[tuple[int, float]]:
        """The k nearest reachable vertices to ``s``; ties break by
        vertex id."""
        self._check_open()
        return self.engine.k_nearest(s, k)

    def submatrix(self, rows, cols) -> np.ndarray:
        """The dense len(rows) x len(cols) distance submatrix."""
        self._check_open()
        return self.engine.submatrix(rows, cols)

    # -- incremental updates ----------------------------------------------
    def update_edge(self, u: int, v: int, weight: float) -> bool:
        """Set edge (u, v) to ``weight``; True when the O(n²) patch
        sufficed, False when a re-solve was scheduled (see
        docs/SERVING.md on the economics)."""
        self._check_open()
        return self.patcher.update_edge(u, v, weight)

    def insert_edge(self, u: int, v: int, weight: float) -> bool:
        self._check_open()
        return self.patcher.insert_edge(u, v, weight)

    def remove_edge(self, u: int, v: int) -> bool:
        self._check_open()
        return self.patcher.remove_edge(u, v)

    def batch_update(self, updates) -> int:
        self._check_open()
        return self.patcher.batch_update(updates)

    # -- introspection ----------------------------------------------------
    def cache_stats(self) -> dict:
        return self.cache.stats()

    def stats(self) -> dict:
        """One dict of everything measurable about this server."""
        return {
            "n": self.n,
            "dtype": self.dtype.name,
            "block_size": self.block_size,
            "cache": self.cache_stats(),
            "incremental": {
                "fast_updates": self.patcher.fast_updates,
                "recomputes": self.patcher.recomputes,
                "dirty_blocks": self.patcher.dirty_blocks,
            },
        }

    def describe(self) -> str:
        return self.artifact.describe()

    # -- lifecycle --------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("query server is closed")

    def close(self) -> None:
        """Flush the artifact manifest, delete its spare block files and
        write the metrics sink."""
        if self._closed:
            return
        self.artifact.close()
        if self.metrics is not None and self.config.obs.metrics_out is not None:
            payload = {"serve": self.stats()}
            payload.update(self.metrics.as_dict())
            with open(self.config.obs.metrics_out, "w") as fh:
                json.dump(payload, fh, indent=2)
        self._closed = True

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(source: Any, config: Optional[ServeConfig] = None, *,
          scheduler=None, graph=None, block_size=None, **overrides) -> QueryServer:
    """Open a :class:`QueryServer` over a solve - the public serving
    entry point (also callable as ``repro.serve(...)``).

    ``source`` may be:

    * a path to an artifact directory (:func:`repro.serve.save_artifact`
      / :meth:`~repro.core.driver.ApspResult.save`) - out-of-core:
      one read per miss; only tiles a query touches are read;
    * an :class:`~repro.serve.Artifact` already loaded;
    * an :class:`~repro.core.driver.ApspResult` or bare distance
      matrix - served from memory, no disk involved (``graph=`` /
      ``block_size=`` apply to this form).

    Keyword overrides derive the config
    (:meth:`ServeConfig.replace`)::

        server = repro.serve("runs/road-net.apsp", cache_bytes=1 << 30)
        d = server.distance(4, 2048)

    ``scheduler`` optionally names the shared
    :class:`~repro.sched.ClusterScheduler` that invalidating edge
    updates re-solve on (otherwise each re-solve builds a private one).
    """
    if config is None:
        config = ServeConfig()
    if not isinstance(config, ServeConfig):
        raise ConfigurationError(
            f"config must be a ServeConfig, got {type(config).__name__}"
        )
    if overrides:
        config = config.replace(**overrides)

    if isinstance(source, (Artifact, MemoryArtifact)):
        artifact = source
    elif isinstance(source, (str, Path)):
        artifact = load_artifact(source)
    elif hasattr(source, "dist") and hasattr(source, "report"):  # ApspResult
        from .artifact import _solve_header_from

        dist = source.dist
        if dist is None:
            raise ConfigurationError(
                "result holds no distance matrix (solve with collect=True)"
            )
        artifact = MemoryArtifact(
            dist,
            block_size=block_size,
            graph=graph,
            certificate=source.certificate,
            solve=_solve_header_from(source),
        )
    elif isinstance(source, np.ndarray):
        artifact = MemoryArtifact(source, block_size=block_size, graph=graph)
    else:
        raise ConfigurationError(
            "serve() wants an artifact path, an Artifact, an ApspResult, or a "
            f"distance matrix; got {type(source).__name__}"
        )
    return QueryServer(artifact, config, scheduler=scheduler)
