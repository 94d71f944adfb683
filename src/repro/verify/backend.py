"""Checksummed decorator around any registered SrGemm kernel backend.

Every schedule-IR variant, the ooG tile pipeline, and the lookahead
kernels all route their numerics through ``ctx.backend`` — so wrapping
that one object gives the whole solve checksummed kernels with no
per-variant code.  The wrapper mirrors the inner backend's public
contract (``name``, ``compute_dtype``, ``rtol``, and critically
``modeled_cost_scale``) so modeled kernel times, and therefore
makespans, are bit-identical with verification on or off.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..semiring.backends.base import KernelBackend
from ..semiring.minplus import MIN_PLUS, Semiring
from .runtime import VerifyRuntime

__all__ = ["ChecksummedBackend"]


class ChecksummedBackend(KernelBackend):
    """Delegates every kernel to ``runtime.inner`` inside a guarded
    predict → run → re-checksum → repair cycle (see
    :class:`~repro.verify.runtime.VerifyRuntime`).

    ``srgemm_grid`` runs that cycle over the whole grid at once
    (:meth:`~repro.verify.runtime.VerifyRuntime.accumulate_grid`): the
    tiles' checksums are taken, predicted and compared as stacked
    arrays around **one** ``inner.srgemm_grid`` call, so a verified
    solve keeps the inner backend's one-call grid; a flagged tile is
    still repaired on its own.  A grid that is not uniform in shape and
    dtype takes the loop over the guarded phase entries instead."""

    available = True

    def __init__(self, runtime: VerifyRuntime):
        inner = runtime.inner
        super().__init__(byte_budget=inner.byte_budget)
        self.runtime = runtime
        self.inner = inner
        self.name = f"checksummed({inner.name})"
        self.compute_dtype = inner.compute_dtype
        self.rtol = inner.rtol
        self.modeled_cost_scale = inner.modeled_cost_scale

    def srgemm_accumulate(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        return self.runtime.accumulate(c, a, b, semiring, k_chunk=k_chunk)

    # Phase-specialized entries: same guarded cycle, inner phase kernel.
    def srgemm_diag(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        return self.runtime.accumulate(c, a, b, semiring, k_chunk=k_chunk, entry="srgemm_diag")

    def srgemm_panel(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        return self.runtime.accumulate(c, a, b, semiring, k_chunk=k_chunk, entry="srgemm_panel")

    def srgemm_outer(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        return self.runtime.accumulate(c, a, b, semiring, k_chunk=k_chunk, entry="srgemm_outer")

    def srgemm_grid(
        self,
        c_tiles: Sequence[Sequence[np.ndarray]],
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
        phase: str = "outer",
        hops=None,
    ) -> Sequence[Sequence[np.ndarray]]:
        if hops is not None:  # the default's loop guards each tile's path entry
            return super().srgemm_grid(c_tiles, a_rows, b_cols, semiring, phase, hops)
        return self.runtime.accumulate_grid(c_tiles, a_rows, b_cols, semiring, phase)

    def panel_row_update(
        self, panel: np.ndarray, diag: np.ndarray, semiring: Semiring = MIN_PLUS
    ) -> np.ndarray:
        return self.runtime.panel_update(panel, diag, "row", semiring)

    def panel_col_update(
        self, panel: np.ndarray, diag: np.ndarray, semiring: Semiring = MIN_PLUS
    ) -> np.ndarray:
        return self.runtime.panel_update(panel, diag, "col", semiring)

    def fw_closure(self, blk: np.ndarray, semiring: Semiring = MIN_PLUS, hops=None) -> np.ndarray:
        # Guarded at the call site (VerifyRuntime.wrap_closure): checksums
        # do not distribute over the closure.
        return self.inner.fw_closure(blk, semiring=semiring, hops=hops)

    def srgemm_accumulate_paths(
        self,
        c: np.ndarray,
        c_nxt: np.ndarray,
        a: np.ndarray,
        a_nxt: np.ndarray,
        b: np.ndarray,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        return self.runtime.accumulate_paths(c, c_nxt, a, a_nxt, b, k_chunk=k_chunk)

    def describe(self) -> str:
        return f"ABFT-checksummed wrapper over: {self.inner.describe()}"
