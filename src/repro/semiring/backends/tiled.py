"""Cache-blocked 2-D tiled SrGemm backend (fused, budget-bounded).

The performance lesson of the paper's kernel layer (§2.6/§4.1) and of
the related FW-kernel work (Lund & Smith's multi-stage tiling, Anjary's
blocked-vs-broadcast comparison) applied to NumPy: never materialize
the ``(m, k, n)`` outer-product slab.  The output is cut into
``(tile_m, tile_n)`` tiles sized by the byte-budget auto-tuner; each
tile is accumulated **in place** with rank-1 updates

    scratch ← A[:, t] ⊗ B[t, :]         (one (tile_m, tile_n) broadcast)
    C_tile  ← C_tile ⊕ scratch          (in-place, no reduction pass)

so the only temporary is one scratch tile that stays cache-resident.
Against the reference backend this roughly halves memory traffic and
removes all slab allocation churn (measured ~2-2.5x at b=256 float64;
see ``benchmarks/results/ablation_kernel_backends.txt``).

The optional float32 compute path (registered as ``tiled-f32``) casts
float operands to float32 before the product loop, halving bandwidth
again.  Accumulation still lands in the caller's array dtype; the
documented tolerance versus the float64 reference is ``rtol = 1e-5``
(each candidate ``a + b`` suffers one float32 rounding, and a
comparison-⊕ may then pick a neighbouring near-tie).  Path-tracking
kernels always run in the operand dtype - hop pointers must not depend
on the precision mode.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..minplus import MIN_PLUS, Semiring
from .base import KernelBackend, validate_accumulate

__all__ = ["TiledBackend"]


class TiledBackend(KernelBackend):
    """Budget-bounded (m, n)-tiled kernel with in-place accumulation."""

    def __init__(
        self,
        compute_dtype: Optional[np.dtype] = None,
        byte_budget: Optional[int] = None,
        name: Optional[str] = None,
    ):
        super().__init__(byte_budget=byte_budget)
        self.compute_dtype = np.dtype(compute_dtype) if compute_dtype is not None else None
        if self.compute_dtype is not None and self.compute_dtype.kind != "f":
            raise ValueError(f"compute_dtype must be a float dtype, got {self.compute_dtype}")
        if name is not None:
            self.name = name
        elif self.compute_dtype is None:
            self.name = "tiled"
        else:
            self.name = f"tiled-f{self.compute_dtype.itemsize * 8}"
        self.rtol = 0.0 if self.compute_dtype is None else 1e-5

    def _cast(self, arr: np.ndarray) -> np.ndarray:
        """Cast a float operand to the compute dtype (no-op otherwise;
        bool/int semirings always compute in their own dtype)."""
        if (
            self.compute_dtype is None
            or arr.dtype.kind != "f"
            or arr.dtype == self.compute_dtype
        ):
            return arr
        return arr.astype(self.compute_dtype)

    def srgemm_accumulate(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        validate_accumulate(c, a, b)
        m, k = a.shape
        n = b.shape[1]
        if k == 0 or m == 0 or n == 0:
            return c
        plus, times = semiring.plus, semiring.times
        a = self._cast(np.asarray(a))
        b = self._cast(np.asarray(b))
        scratch_dtype = np.result_type(a.dtype, b.dtype)
        t = self.tiling(m, n, k, scratch_dtype.itemsize)
        scratch = np.empty((min(t.tile_m, m), min(t.tile_n, n)), dtype=scratch_dtype)
        for i0 in range(0, m, t.tile_m):
            i1 = min(i0 + t.tile_m, m)
            for j0 in range(0, n, t.tile_n):
                j1 = min(j0 + t.tile_n, n)
                c_tile = c[i0:i1, j0:j1]
                sv = scratch[: i1 - i0, : j1 - j0]
                for kk in range(k):
                    times(a[i0:i1, kk : kk + 1], b[kk, j0:j1], out=sv)
                    plus(c_tile, sv, out=c_tile)
        return c
