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

from typing import Sequence

import numpy as np

from ..semiring.backends.base import KernelBackend, grid_hop_tiles
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
    dtype takes the guarded cycle tile by tile instead, and a grid with
    next hops runs the guarded path product tile by tile, row-major."""

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

    def srgemm_grid(
        self,
        c_tiles: Sequence[Sequence[np.ndarray]],
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
        phase: str = "outer",
        hops=None,
    ) -> Sequence[Sequence[np.ndarray]]:
        if hops is None:
            return self.runtime.accumulate_grid(c_tiles, a_rows, b_cols, semiring, phase)
        for tile in grid_hop_tiles(c_tiles, a_rows, b_cols, semiring, phase, hops):
            self.runtime.accumulate_paths(*tile)
        return c_tiles

    def fw_closure(self, blk: np.ndarray, semiring: Semiring = MIN_PLUS, hops=None) -> np.ndarray:
        # Guarded at the call site (VerifyRuntime.wrap_closure): checksums
        # do not distribute over the closure.
        return self.inner.fw_closure(blk, semiring=semiring, hops=hops)

    def describe(self) -> str:
        return f"ABFT-checksummed wrapper over: {self.inner.describe()}"
