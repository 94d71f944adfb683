"""Serving layer: solve once, answer millions of queries.

The north-star workload is not "run one solve" but "answer distance
queries at interactive latency".  This package closes that gap:

* :mod:`~repro.serve.artifact` - persistent solve artifacts: the
  distance matrix at rest as a content-addressed block directory with
  per-block CRC32, one read per cache miss, the run certificate / solve
  provenance in the manifest, and edge updates committed as rows of
  the manifest's edit log;
* :mod:`~repro.serve.cache` - a byte-budgeted LRU block cache
  (``serve.cache.*`` metrics);
* :mod:`~repro.serve.query` - the query engine: ``distance``,
  ``batch``, ``k_nearest``, ``submatrix``, async
  :class:`~repro.serve.query.BatchQuery`;
* :mod:`~repro.serve.incremental` - edge updates that rewrite only
  dirtied tiles, escalating to a scheduled re-solve when the patch
  would be invalid;
* :mod:`~repro.serve.config` - the frozen :class:`ServeConfig`
  (``from_env`` with explicit > env > default precedence);
* :mod:`~repro.serve.server` - :class:`QueryServer`, the public
  surface.

The package itself is callable - ``repro.serve(artifact_or_result)``
*is* the entry point::

    import repro
    result = repro.solve(w, repro.SolveConfig(variant="async"))
    result.save("runs/road.apsp", graph=w)

    server = repro.serve("runs/road.apsp", cache_bytes=1 << 28)
    d = server.distance(3, 99)
    top = server.k_nearest(3, k=10)
    handle = server.submit_batch(pairs)      # poll/wait/result/await
    server.update_edge(4, 7, 0.25)           # patches dirtied tiles only

See docs/SERVING.md for the artifact format, cache tuning, and the
incremental-update economics.
"""

from __future__ import annotations

import sys
import types

from .artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    Artifact,
    MemoryArtifact,
    load_artifact,
    save_artifact,
)
from .cache import DEFAULT_CACHE_BYTES, BlockCache
from .config import ENV_CACHE_BYTES, ServeConfig
from .incremental import ArtifactPatcher
from .query import BatchQuery, QueryEngine
from .server import QueryServer, serve

__all__ = [
    "serve",
    "QueryServer",
    "ServeConfig",
    "Artifact",
    "MemoryArtifact",
    "save_artifact",
    "load_artifact",
    "BlockCache",
    "QueryEngine",
    "BatchQuery",
    "ArtifactPatcher",
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "DEFAULT_CACHE_BYTES",
    "ENV_CACHE_BYTES",
]


class _CallableServeModule(types.ModuleType):
    """Makes ``repro.serve(...)`` the function and ``repro.serve.X``
    the module, so the public verb and the implementation namespace
    share one name (the same surface the ISSUE's API sketch shows)."""

    def __call__(self, source, config=None, **kwargs):
        return serve(source, config, **kwargs)


sys.modules[__name__].__class__ = _CallableServeModule
