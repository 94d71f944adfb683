"""Pluggable SrGemm kernel backends and their registry.

Every solver in this repo - :func:`repro.core.blocked.blocked_fw`, the
baseline/pipelined distributed rank programs and the out-of-GPU-memory
ooGSrGemm pipeline - bottoms out in one SrGemm kernel.  This package
makes that kernel a pluggable *backend* (the role the cuASR/CUTLASS
kernel plays for the paper, §2.6/§4.1) so one switch changes it
everywhere.

Shipped backends
----------------
Each one stays for a reason a caller or a test supplies
(docs/KERNELS.md §2 has the measurement).

``cnative``
    Register-blocked C kernel, one translation unit per (semiring,
    dtype) compiled at first use with the system ``cc``/``gcc``/``clang``
    (ctypes); unavailable when no compiler is on PATH.  The fast path
    every benchmark runs, and the default wherever it is available.
``tiled``
    Cache-blocked 2-D tiling with in-place accumulation, bounded by a
    byte budget (the default-budget analogue of CUTLASS tile staging).
    Full width, pure NumPy and always available: the default on a host
    without ``cc``, ``cnative``'s own fallback (``or_and`` /
    ``plus_times``, ragged grids, a failed compile), and the kernel the
    ABFT repair and the fuzzer's reference solve run.
``tiled-f32``
    The tiled kernel with an opt-in float32 compute path (~2x
    memory-bandwidth saving, documented ``rtol = 1e-5``): the one
    backend on the ``rtol != 0`` side of the verify tolerance path.

Selection precedence
--------------------
explicit ``kernel_backend=`` / ``backend=`` argument  >
``REPRO_SRGEMM_BACKEND`` environment variable  >  ``"cnative"`` where
it is available, else ``"tiled"``.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from ...errors import BackendUnavailableError, ConfigurationError
from .base import KernelBackend
from .cnative import CNativeBackend
from .tiled import TiledBackend
from .tuning import (
    DEFAULT_KERNEL_BYTE_BUDGET,
    ENV_BYTE_BUDGET,
    KernelTiling,
    kernel_byte_budget,
    tune_kernel_tiling,
)

__all__ = [
    "KernelBackend",
    "TiledBackend",
    "CNativeBackend",
    "KernelTiling",
    "kernel_byte_budget",
    "tune_kernel_tiling",
    "DEFAULT_KERNEL_BYTE_BUDGET",
    "ENV_BYTE_BUDGET",
    "ENV_BACKEND",
    "register_backend",
    "registered_backends",
    "available_backends",
    "get_backend",
    "default_backend_name",
]

#: Environment variable selecting the default backend by name.
ENV_BACKEND = "REPRO_SRGEMM_BACKEND"

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend, overwrite: bool = False) -> KernelBackend:
    """Add a backend to the registry under ``backend.name``."""
    name = backend.name
    if not name or name == "abstract":
        raise ConfigurationError(f"backend {backend!r} has no registry name")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend
    return backend


def registered_backends() -> dict[str, KernelBackend]:
    """All registered backends by name, including unavailable ones."""
    return dict(_REGISTRY)


def available_backends() -> dict[str, KernelBackend]:
    """The registered backends whose soft dependencies are present."""
    return {name: b for name, b in _REGISTRY.items() if b.available}


def default_backend_name() -> str:
    """The name :func:`get_backend` resolves when given no name:
    ``$REPRO_SRGEMM_BACKEND``, else ``"cnative"`` when it is available
    (a C compiler is on PATH), else ``"tiled"``."""
    return os.environ.get(ENV_BACKEND) or (
        "cnative" if _REGISTRY["cnative"].available else "tiled"
    )


def get_backend(name: Union[str, KernelBackend, None] = None) -> KernelBackend:
    """Resolve a backend by name (or pass an instance through).

    Raises :class:`~repro.errors.ConfigurationError` for unknown names
    and :class:`~repro.errors.BackendUnavailableError` for registered
    backends whose dependency is missing.
    """
    if isinstance(name, KernelBackend):
        backend = name
    else:
        resolved = name or default_backend_name()
        backend = _REGISTRY.get(resolved)
        if backend is None:
            raise ConfigurationError(
                f"unknown SrGemm backend {resolved!r}; registered: {sorted(_REGISTRY)}"
            )
    if not backend.available:
        raise BackendUnavailableError(backend.name, backend.unavailable_reason or "unavailable")
    return backend


# -- built-in registrations --------------------------------------------------
register_backend(TiledBackend())
register_backend(TiledBackend(compute_dtype=np.float32))  # "tiled-f32"
register_backend(CNativeBackend())
