"""The reference SrGemm backend: chunked 3-D broadcast (the oracle).

This is the kernel the repo grew up with: the triple loop
``C[i,j] = ⊕_k A[i,k] ⊗ B[k,j]`` evaluated in k-chunks so the
broadcast temporary stays at ``m * k_chunk * n`` elements - the NumPy
analogue of an *unfused* GPU GEMM that materializes the outer-product
slab before reducing it.  It is memory-bound (the slab is written and
re-read once per chunk), which is exactly the inefficiency the tiled
backend removes; it stays registered as the equivalence oracle every
other backend is tested against.

The k-chunk is auto-tuned from the byte budget (64 at 128x128 float64
blocks under the default 8 MiB); an explicit ``k_chunk`` argument
overrides it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..minplus import MIN_PLUS, Semiring
from .base import KernelBackend, validate_accumulate

__all__ = ["ReferenceBackend"]


class ReferenceBackend(KernelBackend):
    """Chunked broadcast-and-reduce kernel (the original formulation)."""

    name = "reference"

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
        if k == 0:
            return c
        step = k_chunk or self.tiling(m, n, k, self.compute_itemsize(a, b)).k_chunk
        plus, times = semiring.plus, semiring.times
        for k0 in range(0, k, step):
            k1 = min(k0 + step, k)
            # (m, kc, n) broadcast temporary == the "shared memory tile".
            partial = times(a[:, k0:k1, None], b[None, k0:k1, :])
            plus(c, semiring.plus_reduce(partial, axis=1), out=c)
        return c
