"""Frozen configuration of one query server: :class:`ServeConfig`.

The serving sibling of :class:`~repro.api.SolveConfig`, with the same
contract: construct once, derive variations with :meth:`replace`, and
the same **explicit argument > environment variable > built-in
default** precedence for environment-configurable knobs:

* ``ServeConfig(cache_bytes=...)`` beats ``$REPRO_SERVE_CACHE_BYTES``
  beats the 64 MiB default;
* ``ServeConfig(kernel_backend=...)`` beats ``$REPRO_SRGEMM_BACKEND``
  beats ``"cnative"``, else ``"tiled"`` (used by the incremental
  patch / re-solve path, never by reads).

Observability attaches through the same shared
:class:`~repro.obs.sinks.ObsSinks` as ``SolveConfig`` - one validation
path, one ``SinkError`` exit code (12) - and arms the ``serve.*``
metric family (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..errors import ConfigurationError
from ..obs.sinks import ObsSinks
from .cache import DEFAULT_CACHE_BYTES

__all__ = ["ServeConfig", "ENV_CACHE_BYTES"]

#: Environment variable sizing the block cache (bytes).
ENV_CACHE_BYTES = "REPRO_SERVE_CACHE_BYTES"


@dataclass(frozen=True)
class ServeConfig:
    """Frozen configuration of one :class:`~repro.serve.QueryServer`."""

    # -- cache ------------------------------------------------------------
    #: Block-cache byte budget; None defers to
    #: ``$REPRO_SERVE_CACHE_BYTES`` then 64 MiB.
    cache_bytes: Optional[int] = None

    # -- queries ----------------------------------------------------------
    #: Pairs answered per :meth:`~repro.serve.BatchQuery.poll` step of
    #: an async batch.
    batch_chunk: int = 4096

    # -- incremental updates / re-solve -----------------------------------
    #: SrGemm kernel backend for the patch path and scheduled
    #: re-solves; None defers to ``$REPRO_SRGEMM_BACKEND``.
    kernel_backend: Optional[str] = None

    # -- observability ----------------------------------------------------
    obs: ObsSinks = field(default_factory=ObsSinks)

    def __post_init__(self):
        if self.cache_bytes is not None:
            if isinstance(self.cache_bytes, bool) or not isinstance(self.cache_bytes, int):
                raise ConfigurationError(
                    f"cache_bytes must be an int, got {self.cache_bytes!r}"
                )
            if self.cache_bytes <= 0:
                raise ConfigurationError(
                    f"cache_bytes must be > 0, got {self.cache_bytes}"
                )
        if not isinstance(self.batch_chunk, int) or isinstance(self.batch_chunk, bool) \
                or self.batch_chunk <= 0:
            raise ConfigurationError(
                f"batch_chunk must be a positive int, got {self.batch_chunk!r}"
            )

    def replace(self, **changes) -> "ServeConfig":
        """A copy with the given fields replaced."""
        try:
            return dataclasses.replace(self, **changes)
        except TypeError as exc:
            raise ConfigurationError(f"unknown ServeConfig field: {exc}") from None

    @property
    def effective_cache_bytes(self) -> int:
        """The cache budget after applying env/default precedence (the
        engine applies the same rule when ``cache_bytes`` is None)."""
        if self.cache_bytes is not None:
            return self.cache_bytes
        return _env_cache_bytes(os.environ)

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, **fields
    ) -> "ServeConfig":
        """Build a config with the environment layer materialized.

        Precedence per knob: **explicit field > environment variable >
        default**, mirroring :meth:`repro.SolveConfig.from_env`.
        ``environ`` defaults to ``os.environ`` (injectable for tests).
        """
        from ..semiring.backends import ENV_BACKEND

        env = os.environ if environ is None else environ
        config = cls(**fields)
        if config.cache_bytes is None and env.get(ENV_CACHE_BYTES):
            config = config.replace(cache_bytes=_env_cache_bytes(env))
        if config.kernel_backend is None:
            backend = env.get(ENV_BACKEND)
            if backend:
                config = config.replace(kernel_backend=backend)
        return config


def _env_cache_bytes(env: Mapping[str, str]) -> int:
    raw = env.get(ENV_CACHE_BYTES)
    if not raw:
        return DEFAULT_CACHE_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"${ENV_CACHE_BYTES} must be an integer byte count, got {raw!r}"
        ) from None
    if value <= 0:
        raise ConfigurationError(
            f"${ENV_CACHE_BYTES} must be > 0, got {value}"
        )
    return value
