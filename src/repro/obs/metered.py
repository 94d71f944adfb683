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

Metric families: ``kernel.srgemm`` aggregates every product, and each
grid also counts under its phase family, ``kernel.srgemm_{phase}``
(``srgemm_diag`` / ``srgemm_panel`` / ``srgemm_outer``); a grid with the
``hops=`` operand counts under ``kernel.srgemm_paths`` instead.  A grid
counts as the ``nr x nc`` per-tile calls it stands for.
``kernel.wall_seconds`` accumulates *physical* wall-clock time inside
inner kernel calls - the signal the ``profile --kernel-backend`` sweep
uses to compare real backend speed (simulated time is
backend-invariant by design).
"""

from __future__ import annotations

import time
from typing import Sequence

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

    def _timed(self, fn, *args, **kwargs):
        """Run an inner kernel, accruing physical wall time."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.registry.counter("kernel.wall_seconds").inc(time.perf_counter() - t0)

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
        ``kernel.srgemm`` and the phase family (or, with next hops,
        ``kernel.srgemm_paths``), and one wall accrual.  (Flop counts
        are integers, so the lump sum is bit-identical to the
        tile-by-tile one.)"""
        family = validate_grid(c_tiles, a_rows, b_cols, phase)
        calls = len(a_rows) * len(b_cols)
        if not calls:
            return c_tiles
        m = sum(a.shape[0] for a in a_rows)
        n = sum(b.shape[1] for b in b_cols)
        k = a_rows[0].shape[1]
        if hops is None:
            self._count("srgemm", m, n, k, calls)
            self.registry.counter(f"kernel.{family}.calls").inc(calls)
            self.registry.counter(f"kernel.{family}.flops").inc(2.0 * m * n * k)
        else:
            self._count("srgemm_paths", m, n, k, calls)
        return self._timed(
            self.inner.srgemm_grid, c_tiles, a_rows, b_cols, semiring=semiring, phase=phase,
            hops=hops,
        )

    def fw_closure(self, blk: np.ndarray, semiring: Semiring = MIN_PLUS, hops=None) -> np.ndarray:
        """Forwarded so the inner backend's native closure survives
        metering; the closure is not a product, so no flop family
        counts it - only the wall accrual."""
        return self._timed(self.inner.fw_closure, blk, semiring=semiring, hops=hops)

    def describe(self) -> str:
        return f"flop-metered wrapper over: {self.inner.describe()}"
