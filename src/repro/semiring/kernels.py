"""Semiring matrix-multiplication (SrGemm) kernels - backend facade.

These are the compute kernels the paper offloads to the GPU via
cuASR/CUTLASS (its §2.6/§4.1).  The actual implementations live in the
pluggable backend registry of :mod:`repro.semiring.backends`
(``reference`` broadcast oracle, system-cc ``cnative``, cache-blocked
``tiled``, float32 ``tiled-f32``); the module-level functions here are
the flat API and dispatch to the backend their ``backend=`` argument
selects (``None``: see "Selection precedence" in that package).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .backends import KernelBackend, get_backend
from .minplus import MIN_PLUS, Semiring

__all__ = [
    "srgemm",
    "srgemm_accumulate",
    "srgemm_diag",
    "srgemm_panel",
    "srgemm_outer",
    "srgemm_flops",
    "eltwise_plus",
    "panel_row_update",
    "panel_col_update",
]

BackendArg = Union[str, KernelBackend, None]


def srgemm_flops(m: int, n: int, k: int) -> int:
    """Flop count of one SrGemm, counting ``⊕`` and ``⊗`` as one flop
    each - the ``2mnk`` convention the paper uses throughout §4.5."""
    return 2 * m * n * k


def srgemm(
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    k_chunk: Optional[int] = None,
    backend: BackendArg = None,
) -> np.ndarray:
    """Return ``A ⊗ B`` (the min-plus product for the default semiring).

    Parameters
    ----------
    a, b:
        Operands of shapes ``(m, k)`` and ``(k, n)``.
    semiring:
        Algebra to evaluate over.
    k_chunk:
        Inner-dimension tile override; ``None`` lets the selected
        backend auto-tune it from the byte budget.
    backend:
        Kernel backend name or instance; ``None`` resolves the default.
    """
    return get_backend(backend).srgemm(a, b, semiring=semiring, k_chunk=k_chunk)


def srgemm_accumulate(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    k_chunk: Optional[int] = None,
    backend: BackendArg = None,
) -> np.ndarray:
    """In-place fused update ``C ← C ⊕ (A ⊗ B)``; returns ``c``.

    This is the exact shape of every update in blocked Floyd-Warshall
    (Alg. 2): the outer product, both panel updates and the look-ahead
    updates of the pipelined schedule are all ``C ⊕ A ⊗ B``.  ``a`` and
    ``b`` must not alias ``c`` (see the backend aliasing contract).
    """
    return get_backend(backend).srgemm_accumulate(c, a, b, semiring=semiring, k_chunk=k_chunk)


def srgemm_diag(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    k_chunk: Optional[int] = None,
    backend: BackendArg = None,
) -> np.ndarray:
    """DiagUpdate-phase ``C ← C ⊕ A ⊗ B`` (pivot-block closure steps);
    backends may route this to a k-serial specialized kernel."""
    return get_backend(backend).srgemm_diag(c, a, b, semiring=semiring, k_chunk=k_chunk)


def srgemm_panel(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    k_chunk: Optional[int] = None,
    backend: BackendArg = None,
) -> np.ndarray:
    """PanelUpdate-phase ``C ← C ⊕ A ⊗ B`` (after the aliasing
    snapshot; see the backend contract)."""
    return get_backend(backend).srgemm_panel(c, a, b, semiring=semiring, k_chunk=k_chunk)


def srgemm_outer(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    k_chunk: Optional[int] = None,
    backend: BackendArg = None,
) -> np.ndarray:
    """MinPlus outer-product phase ``C ← C ⊕ A ⊗ B`` - the bulk of the
    flops; backends may route this to their widest-parallel kernel."""
    return get_backend(backend).srgemm_outer(c, a, b, semiring=semiring, k_chunk=k_chunk)


def eltwise_plus(
    a: np.ndarray, b: np.ndarray, semiring: Semiring = MIN_PLUS, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Element-wise ``A ⊕ B`` (min for the tropical semiring)."""
    return semiring.plus(a, b, out=out)


def panel_row_update(
    panel: np.ndarray,
    diag: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    backend: BackendArg = None,
) -> np.ndarray:
    """Row-panel update ``A(k,:) ← A(k,:) ⊕ A(k,k) ⊗ A(k,:)`` in place.

    ``diag`` multiplies from the *left* (paper Alg. 2, PanelUpdate).
    The panel aliases one operand; each backend handles that with the
    narrowest snapshot its tiling needs.
    """
    return get_backend(backend).panel_row_update(panel, diag, semiring=semiring)


def panel_col_update(
    panel: np.ndarray,
    diag: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    backend: BackendArg = None,
) -> np.ndarray:
    """Column-panel update ``A(:,k) ← A(:,k) ⊕ A(:,k) ⊗ A(k,k)`` in place.

    ``diag`` multiplies from the *right* (paper Alg. 2, PanelUpdate).
    """
    return get_backend(backend).panel_col_update(panel, diag, semiring=semiring)
