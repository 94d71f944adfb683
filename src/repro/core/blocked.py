"""Sequential blocked Floyd-Warshall (paper Algorithm 2).

In-memory, single process, vectorized.  This is simultaneously:

* the oracle every distributed variant is verified against,
* the single-rank fast path of the public :func:`repro.solve` API, and
* the reference structure (DiagUpdate / PanelUpdate / MinPlus outer
  product) that the distributed rank programs mirror step for step.

All SrGemm work dispatches through the pluggable kernel backends of
:mod:`repro.semiring.backends`; pass ``backend=`` to pick one, or rely
on ``REPRO_SRGEMM_BACKEND`` / ``reference``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..semiring.backends import get_backend
from ..semiring.closure import check_no_negative_cycle, closure_by_squaring
from ..semiring.minplus import MIN_PLUS, Semiring
from .distribution import block_slice, pad_to_blocks

__all__ = ["blocked_fw", "blocked_fw_inplace"]


def blocked_fw(
    weights: np.ndarray,
    block_size: int,
    semiring: Semiring = MIN_PLUS,
    diag_via_squaring: bool = False,
    check_negative_cycles: bool = True,
    backend=None,
) -> np.ndarray:
    """Blocked Floyd-Warshall; returns the full APSP distance matrix.

    Parameters
    ----------
    weights:
        Square weight matrix (semiring-zero where no edge; by APSP
        convention its diagonal should be the semiring one).
    block_size:
        Block size ``b``; the input is padded if ``b`` does not divide n.
    diag_via_squaring:
        Use the GPU formulation of the diagonal update (paper Eq. 4,
        ``ceil(log2 b)`` squarings) instead of the classic k-loop.
        Results are identical for zero-diagonal inputs; this flag exists
        so tests can pin that equivalence.
    backend:
        SrGemm kernel backend (name or instance); ``None`` resolves the
        default (``REPRO_SRGEMM_BACKEND`` / ``reference``).
    """
    padded, n = pad_to_blocks(np.asarray(weights), block_size, semiring)
    dist = np.array(padded, dtype=semiring.dtype, copy=True)
    blocked_fw_inplace(dist, block_size, semiring, diag_via_squaring, backend=backend)
    dist = dist[:n, :n]
    if check_negative_cycles and semiring is MIN_PLUS:
        check_no_negative_cycle(dist)
    return dist


def blocked_fw_inplace(
    dist: np.ndarray,
    b: int,
    semiring: Semiring = MIN_PLUS,
    diag_via_squaring: bool = False,
    backend=None,
) -> np.ndarray:
    """Algorithm 2 on a block-divisible matrix, in place."""
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise ConfigurationError(f"distance matrix must be square, got {dist.shape}")
    if n % b:
        raise ConfigurationError(f"block size {b} does not divide n={n}")
    kernels = get_backend(backend)
    nb = n // b
    for k in range(nb):
        kk = block_slice(b, k, k)
        # --- Diagonal update -------------------------------------------
        if diag_via_squaring:
            dist[kk] = closure_by_squaring(dist[kk], semiring=semiring, backend=kernels)
        else:
            kernels.fw_closure(dist[kk], semiring=semiring)
        # The wide panels below include block (k,k) itself, so the
        # closed diagonal is snapshotted once (b x b) to keep the
        # panel-update operands alias-free; updating block (k,k) along
        # with the panel is harmless (⊕ idempotent, diag closed) and
        # matches what a GPU implementation does to stay uniform.
        diag = dist[kk].copy()
        # --- Panel update ----------------------------------------------
        # Row panel: A(k, j) ← A(k, j) ⊕ A(k, k) ⊗ A(k, j), all j at
        # once (one wide fused SrGemm, like the aggregated GPU kernel);
        # the backend owns the panel-aliasing snapshot.
        kernels.panel_row_update(dist[k * b : (k + 1) * b, :], diag, semiring=semiring)
        kernels.panel_col_update(dist[:, k * b : (k + 1) * b], diag, semiring=semiring)
        # --- Min-plus outer product ----------------------------------------
        colk = dist[:, k * b : (k + 1) * b].copy()
        rowk = dist[k * b : (k + 1) * b, :].copy()
        # Zero out the k-th block row/col contribution to itself: the
        # outer product must not re-update the panels with stale data -
        # but since ⊕ is idempotent and the panels are already closed
        # over block k, a full-matrix update is both correct and simpler.
        kernels.srgemm_outer(dist, colk, rowk, semiring=semiring)
    return dist
