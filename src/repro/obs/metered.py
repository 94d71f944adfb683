"""Flop/call-metering decorator around any SrGemm kernel backend.

Mirrors :class:`repro.verify.backend.ChecksummedBackend`: every variant
routes its numerics through ``ctx.backend``, so wrapping that one
object meters every kernel of the run - panel updates, outer products,
path kernels, the offload tile pipeline.  The wrapper preserves the
inner backend's public contract (``name``, ``compute_dtype``, ``rtol``,
``byte_budget``, and critically ``modeled_cost_scale``), so modeled
kernel durations - and therefore makespans - are bit-identical with
metering on or off.

Counted flops are *physical* (2mnk per call, from operand shapes);
the driver's finalize step scales them to virtual (paper-scale) flops
through the cost model's ``dim_scale``.  Hollow runs
(``compute_numerics=False``) never invoke kernel closures, so these
counters read zero there - ``repro profile`` always runs real numerics.

Metric families: ``kernel.srgemm`` aggregates every fused/phase
product; the phase-specialized entries additionally count under
``kernel.srgemm_diag`` / ``kernel.srgemm_panel`` /
``kernel.srgemm_outer``, so per-phase flop splits are visible when the
schedule dispatches per phase.  A grid call (``srgemm_grid``) counts as
the ``nr x nc`` per-tile calls it stands for, in the same families.
``kernel.wall_seconds`` accumulates *physical* wall-clock time inside
inner kernel calls - the signal the ``profile --kernel-backend`` sweep
uses to compare real backend speed (simulated time is
backend-invariant by design).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..semiring.backends.base import KernelBackend, validate_grid
from ..semiring.minplus import MIN_PLUS, Semiring
from .metrics import MetricsRegistry

__all__ = ["MeteredBackend"]


class MeteredBackend(KernelBackend):
    """Delegates every kernel to ``inner``, counting calls and 2mnk
    flops per kernel family into the run's metrics registry."""

    available = True

    def __init__(self, registry: MetricsRegistry, inner: KernelBackend):
        super().__init__(byte_budget=inner.byte_budget)
        self.registry = registry
        self.inner = inner
        # Keep the inner backend's identity: metering is transparent.
        self.name = inner.name
        self.compute_dtype = inner.compute_dtype
        self.rtol = inner.rtol
        self.modeled_cost_scale = inner.modeled_cost_scale
        registry.label("kernel.backend", inner.name)

    def _count(self, family: str, m: int, n: int, k: int, calls: int = 1) -> None:
        """``calls`` kernel calls that together perform 2mnk flops."""
        self.registry.counter(f"kernel.{family}.calls").inc(calls)
        self.registry.counter(f"kernel.{family}.flops").inc(2.0 * m * n * k)
        self.registry.counter("kernel.flops").inc(2.0 * m * n * k)

    def _count_product(self, phase: Optional[str], m: int, n: int, k: int, calls: int = 1) -> None:
        """Product calls: always the aggregate ``srgemm`` family, plus
        the phase family when dispatched through a phase entry."""
        self._count("srgemm", m, n, k, calls)
        if phase is not None:
            self.registry.counter(f"kernel.{phase}.calls").inc(calls)
            self.registry.counter(f"kernel.{phase}.flops").inc(2.0 * m * n * k)

    def _timed(self, fn, *args, **kwargs):
        """Run an inner kernel, accruing physical wall time."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.registry.counter("kernel.wall_seconds").inc(time.perf_counter() - t0)

    def srgemm_accumulate(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        self._count_product(None, c.shape[0], c.shape[1], a.shape[1])
        return self._timed(
            self.inner.srgemm_accumulate, c, a, b, semiring=semiring, k_chunk=k_chunk
        )

    def srgemm_diag(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        self._count_product("srgemm_diag", c.shape[0], c.shape[1], a.shape[1])
        return self._timed(self.inner.srgemm_diag, c, a, b, semiring=semiring, k_chunk=k_chunk)

    def srgemm_panel(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        self._count_product("srgemm_panel", c.shape[0], c.shape[1], a.shape[1])
        return self._timed(self.inner.srgemm_panel, c, a, b, semiring=semiring, k_chunk=k_chunk)

    def srgemm_outer(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        self._count_product("srgemm_outer", c.shape[0], c.shape[1], a.shape[1])
        return self._timed(self.inner.srgemm_outer, c, a, b, semiring=semiring, k_chunk=k_chunk)

    def srgemm_grid(
        self,
        c_tiles: Sequence[Sequence[np.ndarray]],
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
        phase: str = "outer",
        hops=None,
    ) -> Sequence[Sequence[np.ndarray]]:
        """Forward the whole grid to ``inner``'s grid entry (so a metered
        run keeps the one-native-call path), counting what the per-tile
        loop would have: one call and 2mnk flops per tile under
        ``kernel.srgemm`` and the phase family, and one wall accrual.
        (Flop counts are integers, so the lump sum is bit-identical to
        the tile-by-tile one.)  A grid with next hops takes the default
        loop, which counts each tile under ``kernel.srgemm_paths``."""
        if hops is not None:
            return super().srgemm_grid(c_tiles, a_rows, b_cols, semiring, phase, hops)
        entry = validate_grid(c_tiles, a_rows, b_cols, phase)
        calls = len(a_rows) * len(b_cols)
        if not calls:
            return c_tiles
        self._count_product(
            entry,
            sum(a.shape[0] for a in a_rows),
            sum(b.shape[1] for b in b_cols),
            a_rows[0].shape[1],
            calls,
        )
        return self._timed(
            self.inner.srgemm_grid, c_tiles, a_rows, b_cols, semiring=semiring, phase=phase
        )

    def fw_closure(self, blk: np.ndarray, semiring: Semiring = MIN_PLUS, hops=None) -> np.ndarray:
        """Forwarded so the inner backend's native closure survives
        metering; the closure is not a product, so no flop family
        counts it - only the wall accrual."""
        return self._timed(self.inner.fw_closure, blk, semiring=semiring, hops=hops)

    def srgemm_accumulate_paths(
        self,
        c: np.ndarray,
        c_nxt: np.ndarray,
        a: np.ndarray,
        a_nxt: np.ndarray,
        b: np.ndarray,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        self._count("srgemm_paths", c.shape[0], c.shape[1], a.shape[1])
        return self._timed(
            self.inner.srgemm_accumulate_paths, c, c_nxt, a, a_nxt, b, k_chunk=k_chunk
        )

    def describe(self) -> str:
        return f"flop-metered wrapper over: {self.inner.describe()}"
