"""repro: scalable all-pairs shortest paths for huge graphs on (simulated) multi-GPU clusters.

A from-scratch Python reproduction of Sao et al., "Scalable All-pairs
Shortest Paths for Huge Graphs on Multi-GPU Clusters" (HPDC '21).

Public API highlights
---------------------
- :func:`repro.solve` + :class:`repro.SolveConfig` - the library entry
  point (see README "Library usage" and :mod:`repro.api`).
- :mod:`repro.obs` - zero-cost-when-off observability: metrics,
  Chrome-trace export, perf-model validation.
- :mod:`repro.semiring` - tropical algebra + SrGemm kernels.
- :mod:`repro.core` - blocked / baseline / pipelined / offload Floyd-Warshall.
- :mod:`repro.machine` - Summit-like machine model.
- :mod:`repro.perfmodel` - the paper's analytic performance models.
"""

from .errors import (
    ArtifactError,
    CheckpointError,
    CommTimeoutError,
    ConfigurationError,
    GpuOutOfMemory,
    NegativeCycleError,
    QueryError,
    RankFailure,
    ReproError,
    SilentCorruptionError,
    SinkError,
    ValidationError,
    VerificationError,
)

__version__ = "1.0.0"

__all__ = [
    # the public entry point
    "solve",
    "submit",
    "SolveConfig",
    "ObsSinks",
    "ApspResult",
    "Variant",
    "FaultPlan",
    # the serving surface (repro.serve is callable AND a namespace)
    "serve",
    "ServeConfig",
    "QueryServer",
    "save_artifact",
    "load_artifact",
    # errors
    "ArtifactError",
    "CheckpointError",
    "CommTimeoutError",
    "ConfigurationError",
    "GpuOutOfMemory",
    "NegativeCycleError",
    "QueryError",
    "RankFailure",
    "ReproError",
    "SilentCorruptionError",
    "SinkError",
    "ValidationError",
    "VerificationError",
    "__version__",
]


def __getattr__(name):  # lazy imports keep `import repro` light
    if name in ("solve", "submit", "SolveConfig", "ObsSinks", "resolve_machine"):
        from . import api

        return getattr(api, name)
    if name == "serve":
        # The serve package's module object is callable, so
        # `repro.serve(result)` and `repro.serve.QueryServer` both work.
        import importlib

        return importlib.import_module(".serve", __name__)
    if name in ("ServeConfig", "QueryServer", "save_artifact", "load_artifact"):
        import importlib

        return getattr(importlib.import_module(".serve", __name__), name)
    if name in ("ApspResult", "Variant"):
        from . import core

        return getattr(core, name)
    if name == "FaultPlan":
        from .faults import FaultPlan

        return FaultPlan
    if name in ("semiring", "core", "machine", "mpi", "sim", "graphs", "perfmodel", "extensions", "analysis", "faults", "api", "obs", "verify", "sched"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
