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
from ..semiring.closure import check_no_negative_cycle
from ..semiring.minplus import MIN_PLUS, Semiring
from .distribution import block_slice, pad_to_blocks

__all__ = ["blocked_fw", "blocked_fw_inplace"]


def blocked_fw(
    weights: np.ndarray,
    block_size: int,
    semiring: Semiring = MIN_PLUS,
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
    backend:
        SrGemm kernel backend (name or instance); ``None`` resolves the
        default (``REPRO_SRGEMM_BACKEND`` / ``reference``).
    """
    padded, n = pad_to_blocks(np.asarray(weights), block_size, semiring)
    dist = np.array(padded, dtype=semiring.dtype, copy=True)
    blocked_fw_inplace(dist, block_size, semiring, backend=backend)
    dist = dist[:n, :n]
    if check_negative_cycles and semiring is MIN_PLUS:
        check_no_negative_cycle(dist)
    return dist


def blocked_fw_inplace(
    dist: np.ndarray,
    b: int,
    semiring: Semiring = MIN_PLUS,
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
        kernels.fw_closure(dist[kk], semiring=semiring)
        # The wide panels below include block (k,k) itself, so the
        # closed diagonal is snapshotted once (b x b) to keep the
        # panel-update operands alias-free; updating block (k,k) along
        # with the panel is harmless (⊕ idempotent, diag closed) and
        # matches what a GPU implementation does to stay uniform.
        diag = dist[kk].copy()
        row = dist[k * b : (k + 1) * b, :]
        col = dist[:, k * b : (k + 1) * b]
        # --- Panel update ----------------------------------------------
        # Row panel: A(k, j) ← A(k, j) ⊕ A(k, k) ⊗ A(k, j), all j at
        # once (one wide SrGemm, like the aggregated GPU kernel); each
        # panel is also an operand, so a whole-panel copy stands in.
        kernels.srgemm_grid([[row]], [diag], [row.copy()], semiring=semiring, phase="panel")
        kernels.srgemm_grid([[col]], [col.copy()], [diag], semiring=semiring, phase="panel")
        # --- Min-plus outer product ----------------------------------------
        # Zero out the k-th block row/col contribution to itself: the
        # outer product must not re-update the panels with stale data -
        # but since ⊕ is idempotent and the panels are already closed
        # over block k, a full-matrix update is both correct and simpler.
        kernels.srgemm_grid([[dist]], [col.copy()], [row.copy()], semiring=semiring, phase="outer")
    return dist
