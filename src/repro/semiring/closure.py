"""Floyd-Warshall on a single block, and closure by repeated squaring.

Two routines implement the paper's *DiagUpdate*:

* :func:`fw_inplace` - the classic k-loop Floyd-Warshall (vectorized
  over i,j), used on the host and as correctness oracle.
* :func:`closure_by_squaring` - the paper's GPU formulation (its Eq. 4):
  the transitive closure expressed as a ⊕-sum of matrix powers,
  computed with ``ceil(log2 b)`` SrGemm squarings.  Asymptotically more
  flops, but expressed entirely in SrGemm calls - exactly the trade the
  paper makes to keep the DiagUpdate on the GPU.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import NegativeCycleError
from .backends import get_backend
from .minplus import MIN_PLUS, Semiring

__all__ = [
    "fw_inplace",
    "floyd_warshall",
    "closure_by_squaring",
    "squaring_steps",
    "check_no_negative_cycle",
    "dc_floyd_warshall",
]


def fw_inplace(
    dist: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    check_negative_cycles: bool = False,
) -> np.ndarray:
    """Classic Floyd-Warshall, in place, vectorized over (i, j).

    ``dist`` must be square.  After the call, ``dist[i, j]`` is the
    ⊕-optimal path weight from i to j using any intermediate vertices
    of the block.  Returns ``dist`` for chaining.
    """
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    plus, times = semiring.plus, semiring.times
    for k in range(n):
        # dist ← dist ⊕ dist[:, k] ⊗ dist[k, :]  (rank-1 ⊗-outer product)
        plus(dist, times(dist[:, k, None], dist[None, k, :]), out=dist)
    if check_negative_cycles and semiring is MIN_PLUS:
        check_no_negative_cycle(dist)
    return dist


def floyd_warshall(
    weights: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    check_negative_cycles: bool = True,
) -> np.ndarray:
    """Out-of-place Floyd-Warshall on a weight matrix.

    The standard APSP entry point for a single in-memory matrix; the
    distributed drivers in :mod:`repro.core` compute the same result.
    """
    dist = np.array(weights, dtype=semiring.dtype, copy=True)
    return fw_inplace(dist, semiring=semiring, check_negative_cycles=check_negative_cycles)


def squaring_steps(n: int) -> int:
    """Number of squarings so that paths of any length ``< n`` (i.e. up
    to ``n - 1`` edges) are covered: ``ceil(log2(n-1))``, minimum 0."""
    if n <= 2:
        return 0 if n <= 1 else 1
    return math.ceil(math.log2(n - 1))


def closure_by_squaring(
    dist: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    steps: Optional[int] = None,
    backend=None,
) -> np.ndarray:
    """DiagUpdate via repeated squaring (paper Eq. 4).

    Computes ``⊕ Σ_{i=0..n} A^i = (I ⊕ A)^(2^steps)`` - the reflexive
    transitive closure - with ``steps`` SrGemm squarings (default
    :func:`squaring_steps`).  For a distance block with a zero diagonal
    this equals :func:`fw_inplace`'s result; the inclusion of ``I``
    makes the result correct even when the diagonal was not zero.

    Requires an idempotent ``⊕`` (min), otherwise squaring overcounts.
    """
    if not semiring.idempotent_plus:
        raise ValueError(f"closure requires an idempotent ⊕; {semiring.name} is not")
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    kernels = get_backend(backend)
    out = semiring.plus(dist, semiring.eye(n, dtype=dist.dtype))
    if steps is None:
        steps = squaring_steps(n)
    for _ in range(steps):
        # out ← out ⊕ out ⊗ out; with I ⊆ out the ⊕ with the old value
        # is implied, but accumulating keeps the kernel shape uniform.
        # The squaring chain is the DiagUpdate phase.
        square = out.copy()
        kernels.srgemm_grid([[square]], [out], [out], semiring=semiring, phase="diag")
        out = square
    return out


def dc_floyd_warshall(
    weights: np.ndarray,
    base_size: int = 64,
    semiring: Semiring = MIN_PLUS,
    check_negative_cycles: bool = True,
) -> np.ndarray:
    """Divide-and-conquer APSP (R-Kleene), the recursive formulation
    behind the communication-avoiding 2.5D algorithms the paper's
    related work discusses (Solomonik et al.).

    Recursively splits the matrix in two and expresses the closure as
    two half-size closures plus six semiring GEMMs::

        A11 ← closure(A11)
        A12 ← A11 ⊗ A12;          A21 ← A21 ⊗ A11
        A22 ← A22 ⊕ A21 ⊗ A12
        A22 ← closure(A22)
        A12 ← A12 ⊗ A22;          A21 ← A22 ⊗ A21
        A11 ← A11 ⊕ A12 ⊗ A21

    Same O(n³) work as Floyd-Warshall but GEMM-dominated at every
    level - which is why it maps well to fast-matmul hardware, and why
    the paper's blocked FW (its Algorithm 2) keeps the same kernel
    shape while exposing the pipeline structure the DC form lacks.
    """
    dist = np.array(weights, dtype=semiring.dtype, copy=True)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    if base_size < 1:
        raise ValueError(f"base_size must be >= 1, got {base_size}")
    _dc_closure(dist, base_size, semiring, get_backend())
    if check_negative_cycles and semiring is MIN_PLUS:
        check_no_negative_cycle(dist)
    return dist


def _dc_closure(a: np.ndarray, base: int, sr: Semiring, kernels) -> None:
    n = a.shape[0]
    if n <= base:
        fw_inplace(a, semiring=sr)
        return
    h = n // 2
    a11, a12 = a[:h, :h], a[:h, h:]
    a21, a22 = a[h:, :h], a[h:, h:]
    _dc_closure(a11, base, sr, kernels)
    a12[:] = sr.plus(a12, kernels.srgemm(a11, a12, semiring=sr))
    a21[:] = sr.plus(a21, kernels.srgemm(a21, a11, semiring=sr))
    kernels.srgemm_grid([[a22]], [a21], [a12], semiring=sr)
    _dc_closure(a22, base, sr, kernels)
    a12[:] = sr.plus(a12, kernels.srgemm(a12, a22, semiring=sr))
    a21[:] = sr.plus(a21, kernels.srgemm(a22, a21, semiring=sr))
    kernels.srgemm_grid([[a11]], [a12], [a21], semiring=sr)


def check_no_negative_cycle(dist: np.ndarray) -> None:
    """Raise :class:`NegativeCycleError` if any diagonal entry of a
    (min,+) closure is negative."""
    diag = np.diagonal(dist)
    bad = np.flatnonzero(diag < 0)
    if bad.size:
        v = int(bad[0])
        raise NegativeCycleError(v, float(diag[v]))
