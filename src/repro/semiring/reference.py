"""The deliberately-naive product oracle.

A pure triple loop, used only by the test suite to make the vectorized
kernels' semantics unambiguous.  Never call it on anything large.  The
APSP oracles are :mod:`repro.graphs.oracle`.
"""

from __future__ import annotations

import numpy as np

from .minplus import MIN_PLUS, Semiring

__all__ = ["naive_srgemm"]


def naive_srgemm(a: np.ndarray, b: np.ndarray, semiring: Semiring = MIN_PLUS) -> np.ndarray:
    """Triple-loop ``A ⊗ B``; O(mnk) Python-level operations."""
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    out = semiring.zeros((m, n), dtype=np.result_type(a.dtype, b.dtype))
    for i in range(m):
        for j in range(n):
            acc = out[i, j]
            for kk in range(k):
                acc = semiring.plus(acc, semiring.times(a[i, kk], b[kk, j]))
            out[i, j] = acc
    return out
