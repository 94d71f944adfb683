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

from ..semiring.minplus import Semiring

__all__ = [
    "block_checksums",
    "checksums_match",
    "predicted_accumulate",
    "predicted_accumulate_grid",
    "predicted_merge",
    "uniform_tiles",
    "stack_tiles",
    "stack_checksums",
    "checksums_mismatch",
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


def _cast(arr: np.ndarray, compute_dtype: Optional[np.dtype]) -> np.ndarray:
    # Mirror of TiledBackend._cast: only float operands are narrowed.
    if compute_dtype is None:
        return arr
    dt = np.dtype(compute_dtype)
    if arr.dtype.kind == "f" and arr.dtype != dt:
        return arr.astype(dt)
    return arr


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


def predicted_accumulate_grid(
    pre: Checksums,
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring,
    compute_dtype: Optional[np.dtype] = None,
) -> Checksums:
    """Checksums of every tile ``C[i][j] ⊕ A[i] ⊗ B[j]`` of an
    ``nr × nc`` grid, from the stacked operands ``a`` ``(nr, m, k)`` and
    ``b`` ``(nc, k, n)`` and the tiles' stacked pre-op checksums ``pre``
    = ``(rows (nr·nc, m), cols (nr·nc, n))``, tiles in row-major order.

    ``rowsum(B[j])`` is shared by every tile of column ``j`` and
    ``colsum(A[i])`` by every tile of row ``i``, so the whole grid costs
    two skinny ``⊗``-products - the checksum-augmented product of
    classical ABFT.  ``k`` leads the product temporaries: NumPy reduces
    a leading axis in one vectorised sweep, a short trailing one row by
    row."""
    pre_row, pre_col = pre
    if a.shape[2] == 0:
        return pre_row.copy(), pre_col.copy()
    a_k = np.ascontiguousarray(_cast(a, compute_dtype).transpose(2, 0, 1))  # (k, nr, m)
    b_k = np.ascontiguousarray(_cast(b, compute_dtype).transpose(1, 0, 2))  # (k, nc, n)
    c_a = semiring.plus_reduce(a_k, axis=2)  # (k, nr): colsum(A[i])
    r_b = semiring.plus_reduce(b_k, axis=2)  # (k, nc): rowsum(B[j])
    prod_row = semiring.plus_reduce(
        semiring.times(a_k[:, :, None, :], r_b[:, None, :, None]), axis=0
    )  # (nr, nc, m)
    prod_col = semiring.plus_reduce(
        semiring.times(c_a[:, :, None, None], b_k[:, None, :, :]), axis=0
    )  # (nr, nc, n)
    return (
        semiring.plus(pre_row, prod_row.reshape(pre_row.shape)),
        semiring.plus(pre_col, prod_col.reshape(pre_col.shape)),
    )


def predicted_merge(pre: Checksums, x: np.ndarray, semiring: Semiring) -> Checksums:
    """Checksums of ``C ⊕ X`` for an elementwise merge (the ooGSrGemm
    apply step): reductions distribute over elementwise ``⊕``."""
    x_row, x_col = block_checksums(x, semiring)
    return semiring.plus(pre[0], x_row), semiring.plus(pre[1], x_col)


# -- stacked (grid) forms ----------------------------------------------------
def uniform_tiles(arrs: Sequence[np.ndarray]) -> bool:
    """True when ``arrs`` are non-empty 2-D arrays of one shape and one
    dtype - what :func:`stack_tiles` needs."""
    first = arrs[0]
    sig = (first.shape, first.dtype)
    return first.ndim == 2 and first.size > 0 and all((x.shape, x.dtype) == sig for x in arrs)


def stack_tiles(arrs: Sequence[np.ndarray]) -> np.ndarray:
    """A fresh ``(T, *shape)`` copy of ``T`` arrays of one shape and
    dtype (tiles, or their per-tile checksums)."""
    return np.concatenate(arrs).reshape(len(arrs), *arrs[0].shape)


def stack_checksums(stack: np.ndarray, semiring: Semiring) -> Checksums:
    """:func:`block_checksums` of every tile of a ``(T, m, n)`` stack:
    ``(rows (T, m), cols (T, n))``.  Reduces a tile-minor copy so both
    reductions run over non-trailing axes (see
    :func:`predicted_accumulate_grid`)."""
    minor = np.ascontiguousarray(stack.transpose(1, 2, 0))  # (m, n, T)
    rows = semiring.plus_reduce(minor, axis=1)  # (m, T)
    cols = semiring.plus_reduce(minor, axis=0)  # (n, T)
    return np.ascontiguousarray(rows.T), np.ascontiguousarray(cols.T)


def checksums_mismatch(expected: Checksums, actual: Checksums) -> np.ndarray:
    """Per-tile :func:`checksums_match` over stacked checksums: a
    ``(T,)`` mask, True where tile ``t``'s sums disagree (exact
    comparison, as there)."""
    return (expected[0] != actual[0]).any(axis=1) | (expected[1] != actual[1]).any(axis=1)
