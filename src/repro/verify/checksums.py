"""Tropical checksum algebra for algorithm-based fault tolerance.

For the comparison-``⊕`` semirings in :mod:`repro.semiring.minplus`
(``⊕`` idempotent selection, ``⊗`` monotone in each argument),
``⊕``-reductions distribute over the SrGemm outer product *exactly*,
bit for bit, in IEEE arithmetic:

    rowsum(C ⊕ A⊗B)[i] = rowsum(C)[i] ⊕ (⊕_k  A[i,k] ⊗ rowsum(B)[k])
    colsum(C ⊕ A⊗B)[j] = colsum(C)[j] ⊕ (⊕_k  colsum(A)[k] ⊗ B[k,j])

``⊕`` never rounds (it selects one of its operands) and ``⊗`` by a
constant is monotone under round-to-nearest, so the ``⊕``-minimiser of
``a ⊗ B[k, :]`` is literally ``a ⊗ (⊕_j B[k, j])`` — the same float,
not an approximation.  A predicted checksum that disagrees with the
recomputed one is therefore *proof* of corruption, never rounding
noise, and comparisons can use exact equality.

Backends with a reduced-precision compute path (``tiled-f32``) cast
the operands — never ``C`` — before forming product terms, then
accumulate at full width.  Predictions replicate that pipeline via the
``compute_dtype`` argument: operands are cast exactly as the backend
casts them, reduced at compute width, and only then ``⊕``-combined
with the full-width pre-checksums (the f32→f64 upcast is exact).

The stacked (grid) forms are the kernel waist's guard entries: one
guarded band is ``KernelBackend.guard_band``, by default
``tile_sums`` / ``predict_sums`` around the product, whose NumPy
defaults live in :mod:`repro.semiring.backends.base` so that a backend
can run them natively (``cnative``: the whole band in one native call);
this module keeps the per-tile forms.

Detection limit: a min-checksum only sees a row/column's *extremal*
entry.  An upward flip of a non-extremal entry leaves every checksum
unchanged; that gap is covered probabilistically by the monotonicity
sentinel in :mod:`repro.verify.runtime` (distances never increase
across FW iterations) and, at the end of the run, by the certificate's
sampled residual audit.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..semiring.backends.base import SlabTiles, predicted_accumulate_grid
from ..semiring.minplus import Semiring

__all__ = [
    "block_checksums",
    "checksums_match",
    "predicted_accumulate",
    "predicted_merge",
    "uniform_tiles",
]

Checksums = Tuple[np.ndarray, np.ndarray]


def block_checksums(blk: np.ndarray, semiring: Semiring) -> Checksums:
    """``(row, col)`` ``⊕``-checksums of a block: ``row[i] = ⊕_j blk[i,j]``
    and ``col[j] = ⊕_i blk[i,j]``."""
    return (
        semiring.plus_reduce(blk, axis=1),
        semiring.plus_reduce(blk, axis=0),
    )


def checksums_match(expected: Checksums, actual: Checksums) -> bool:
    """Exact (bitwise-value) comparison; any disagreement is corruption,
    never rounding (see module docs).  Weights are validated NaN-free at
    load, so ``array_equal``'s NaN semantics never trigger."""
    return np.array_equal(expected[0], actual[0]) and np.array_equal(expected[1], actual[1])


def predicted_accumulate(
    pre: Checksums,
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring,
    compute_dtype: Optional[np.dtype] = None,
) -> Checksums:
    """Checksums of ``C ⊕ A ⊗ B`` given ``C``'s pre-op checksums, without
    forming the product: O(mk + kn + max(mk, kn)) instead of O(mnk).
    The 1 x 1 case of :func:`predicted_accumulate_grid`."""
    row, col = predicted_accumulate_grid(
        (pre[0][None], pre[1][None]), a[None], b[None], semiring, compute_dtype
    )
    return row[0], col[0]


def predicted_merge(pre: Checksums, x: np.ndarray, semiring: Semiring) -> Checksums:
    """Checksums of ``C ⊕ X`` for an elementwise merge (the ooGSrGemm
    apply step): reductions distribute over elementwise ``⊕``."""
    x_row, x_col = block_checksums(x, semiring)
    return semiring.plus(pre[0], x_row), semiring.plus(pre[1], x_col)


# -- stacked (grid) forms ----------------------------------------------------
def uniform_tiles(arrs: Sequence[np.ndarray]) -> bool:
    """True when ``arrs`` are non-empty 2-D arrays of one shape and one
    dtype - what the guard entries (``KernelBackend.tile_sums``) need.
    One slab's tiles are uniform by construction."""
    if isinstance(arrs, SlabTiles):
        return arrs.slab.shape[-1] * arrs.slab.shape[-2] > 0
    first = arrs[0]
    sig = (first.shape, first.dtype)
    return first.ndim == 2 and first.size > 0 and all((x.shape, x.dtype) == sig for x in arrs)
