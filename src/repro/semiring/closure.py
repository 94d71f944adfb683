"""Floyd-Warshall on a single block, and closure by repeated squaring.

Two routines implement the paper's *DiagUpdate*:

* :func:`fw_inplace` - the classic k-loop Floyd-Warshall (vectorized
  over i,j), the default ``fw_closure`` kernel.
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
    "closure_by_squaring",
    "squaring_steps",
    "check_no_negative_cycle",
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


def check_no_negative_cycle(dist: np.ndarray) -> None:
    """Raise :class:`NegativeCycleError` if any diagonal entry of a
    (min,+) closure is negative."""
    diag = np.diagonal(dist)
    bad = np.flatnonzero(diag < 0)
    if bad.size:
        v = int(bad[0])
        raise NegativeCycleError(v, float(diag[v]))
