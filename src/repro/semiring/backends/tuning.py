"""Byte-budget tiling auto-tuner for the SrGemm kernel backends.

The paper's GPU kernel (cuASR/CUTLASS, §2.6/§4.1) owes its 6.8 TF/s to
staging fixed-size operand tiles through shared memory; the NumPy
analogue is bounding every kernel temporary by a byte budget sized to
stay cache-resident.  This module is the pure arithmetic that turns a
budget plus problem shape into concrete tile / k-chunk sizes - it has
no dependencies beyond the standard library and :mod:`repro.errors`.
(The model tuner of the paper's §3.4.2, :mod:`repro.perfmodel.tuning`,
picks block sizes and grids for a machine and shares no logic with it.)

The path kernel (``srgemm_accumulate_paths``) derives its k-chunk so
the ``(m, k_chunk, n)`` broadcast temporary stays under the budget, and
the tiled backend derives its ``(m, n)`` tile so the accumulation
scratch stays under half the budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ...errors import ConfigurationError

__all__ = [
    "DEFAULT_KERNEL_BYTE_BUDGET",
    "ENV_BYTE_BUDGET",
    "KernelTiling",
    "kernel_byte_budget",
    "tune_kernel_tiling",
]

#: Default bound on any single kernel temporary: 8 MiB keeps the
#: working set inside a typical L2/L3 slice, and gives the path kernel
#: a k-chunk of 64 at the 128x128 float64 blocks the test suite favours
#: (128 * 64 * 128 * 8 B = 8 MiB).
DEFAULT_KERNEL_BYTE_BUDGET = 8 * 1024 * 1024

#: Environment override for the budget (bytes).
ENV_BYTE_BUDGET = "REPRO_SRGEMM_BYTE_BUDGET"


def kernel_byte_budget(override: Optional[int] = None) -> int:
    """Resolve the kernel temporary byte budget.

    Precedence: explicit ``override`` > ``REPRO_SRGEMM_BYTE_BUDGET``
    environment variable > :data:`DEFAULT_KERNEL_BYTE_BUDGET`.  A
    value that is not a positive integer is a
    :class:`~repro.errors.ConfigurationError` naming where it came from.
    """
    source, raw = "kernel byte budget", override
    if raw is None:
        source, raw = f"${ENV_BYTE_BUDGET}", os.environ.get(ENV_BYTE_BUDGET)
        if not raw:
            return DEFAULT_KERNEL_BYTE_BUDGET
    try:
        budget = int(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{source} must be an integer byte count, got {raw!r}"
        ) from None
    if budget < 1:
        raise ConfigurationError(f"{source} must be positive, got {budget}")
    return budget


@dataclass(frozen=True)
class KernelTiling:
    """Concrete tile sizes for one SrGemm shape under a byte budget.

    Attributes
    ----------
    tile_m, tile_n:
        Output-tile dimensions for 2-D-tiled backends; the ``(tile_m,
        tile_n)`` accumulation scratch occupies at most half the
        budget.
    k_chunk:
        Inner-dimension chunk for backends that materialize an
        ``(m, k_chunk, n)`` broadcast temporary (the path kernel,
        ``srgemm_accumulate_paths``); sized so that temporary stays
        within the budget.
    byte_budget:
        The resolved budget the sizes were derived from.
    """

    tile_m: int
    tile_n: int
    k_chunk: int
    byte_budget: int


def tune_kernel_tiling(
    m: int,
    n: int,
    k: int,
    itemsize: int = 8,
    byte_budget: Optional[int] = None,
) -> KernelTiling:
    """Pick tile / k-chunk sizes for an ``(m, n, k)`` SrGemm.

    Parameters
    ----------
    m, n, k:
        Problem shape: ``C (m x n) ← C ⊕ A (m x k) ⊗ B (k x n)``.
    itemsize:
        Bytes per element of the *compute* dtype (8 for float64, 4 for
        the float32 path - halving it doubles the elements a tile may
        hold, which is where the float32 bandwidth saving comes from).
        Backends resolve this via
        :meth:`repro.semiring.backends.base.KernelBackend.compute_itemsize`
        so a float32 compute path is sized by 4-byte elements even when
        the operands arrive as float64.
    byte_budget:
        Optional budget override; see :func:`kernel_byte_budget`.
    """
    if m < 0 or n < 0 or k < 0:
        raise ValueError(f"negative kernel dimensions: ({m}, {n}, {k})")
    budget = kernel_byte_budget(byte_budget)
    itemsize = max(1, int(itemsize))

    # Output tiles: scratch (tile_m x tile_n) capped at half the budget.
    # Keep tile_n (the contiguous axis of a C-ordered accumulator) as
    # wide as possible for long ufunc inner loops, then grow tile_m.
    cap_elems = max(1, (budget // 2) // itemsize)
    tile_n = max(1, min(n or 1, cap_elems))
    tile_m = max(1, min(m or 1, cap_elems // tile_n))

    # Broadcast chunk: (m, k_chunk, n) temporary within the full budget.
    plane = max(1, (m or 1) * (n or 1) * itemsize)
    k_chunk = max(1, min(k or 1, budget // plane))
    return KernelTiling(tile_m=tile_m, tile_n=tile_n, k_chunk=k_chunk, byte_budget=budget)
