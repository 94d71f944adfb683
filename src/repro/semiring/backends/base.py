"""The SrGemm kernel-backend contract.

A :class:`KernelBackend` is one interchangeable implementation of the
semiring matrix-product kernels every solver in this repo bottoms out
in - the role cuASR/CUTLASS plays for the paper (§2.6/§4.1).  Backends
are registered with :mod:`repro.semiring.backends` and selected by
name (API argument, ``REPRO_SRGEMM_BACKEND`` environment variable, or
CLI flag), so one switch changes the kernel under ``blocked_fw``, the
distributed rank programs and the ooGSrGemm offload pipeline alike.

The contract
------------
Every caller reaches the kernels through two entries, the *waist*:

* ``srgemm_grid(c_tiles, a_rows, b_cols, semiring, phase, hops=None)``
  - ``C[i][j] ← C[i][j] ⊕ A[i] ⊗ B[j]`` in place over an ``nr × nc``
  grid of independent accumulator tiles: a rank's OuterUpdate or
  look-ahead strip, a PanelUpdate, one ooG tile (a 1 x 1 grid).  The
  paper runs one SrGemm for all three Floyd-Warshall phases, so
  ``phase`` (``"diag"`` / ``"panel"`` / ``"outer"``) is a validated
  label, not a kernel choice: the metered family ``kernel.srgemm_{phase}``
  and the guard's escalation ``op`` are named from it.
* ``fw_closure(blk, semiring, hops=None)`` - DiagUpdate: the in-place
  Floyd-Warshall closure of the pivot block (default:
  ``closure.fw_inplace``).

A backend implements the per-tile ``srgemm_accumulate(c, a, b)``
(fused in-place ``C ← C ⊕ A ⊗ B``).  The default grid loops it per
tile; a backend may override the grid (``cnative``: one native call),
the closure and the two guard entries below.  A wrapper (metering,
checksums) overrides the grid and the closure and nothing else.

``hops=`` makes either entry the (min,+) product that also carries
next-hop pointers: a path-tracking solve makes the same calls as a
distances-only one, with the next-hop blocks beside the distances.  The
default runs ``srgemm_accumulate_paths`` per tile, row-major, and the
closure with next hops.

``srgemm(a, b)`` (the fresh product), ``panel_row_update`` /
``panel_col_update`` (``P ← P ⊕ D ⊗ P`` / ``P ← P ⊕ P ⊗ D`` on a
whole-panel copy) and ``srgemm_diag`` / ``srgemm_panel`` /
``srgemm_outer`` are one-tile grids over the waist, defined here only;
``benchmarks/e2e`` reads the last five names off a backend.

Aliasing contract
-----------------
No operand of a grid may share memory with any of its tiles, and tiles
must be pairwise disjoint; behaviour under overlap is undefined.  That
disjointness, plus the exactness of a comparison ⊕, is why the order
tiles are visited in cannot change the result.  A caller whose
accumulator is also an operand (a PanelUpdate) passes a copy.

Guard entries
-------------
The ABFT guard (:mod:`repro.verify`) checks a grid product by
``⊕``-checksums, and both of its array passes are on the waist so a
backend can run them natively:

* ``tile_sums(tiles, snapshot=...)`` - the stacked row and column
  ``⊕``-sums of uniform tiles, plus (on request) a stacked copy of them,
  the guard's repair pre-image;
* ``predict_sums(pre, a_rows, b_cols)`` - the sums every tile of
  ``C[i][j] ⊕ A[i] ⊗ B[j]`` must have, from the pre-op sums, without
  forming the product (why that is exact: :mod:`repro.verify.checksums`).

The defaults are the NumPy formulation (:func:`stack_checksums`,
:func:`predicted_accumulate_grid`); predictions run at the backend's
``compute_dtype``, as its kernels do.  An override must return values
equal (``==``) to the defaults': a comparison ``⊕`` only ever picks one
of its operands, so any reduction order gives them.

Operand lists
-------------
A caller that hands one list of arrays to several entries in a row -
the guard, within one band: the tiles to ``tile_sums``, ``srgemm_grid``
and ``tile_sums`` again, the operands to ``predict_sums`` and
``srgemm_grid`` - may pass an :class:`OperandList` (for a grid's tiles,
:meth:`OperandList.grid`).  A backend may keep what it derived from the
list on it (``cnative``: the checked pointer array) and reuse it on the
list's next visit.  The list lives no longer than that sequence of
calls, so nothing is cached across them: a checkpoint restore that
replaces block arrays cannot meet a stale pointer.

Equivalence contract
--------------------
For float64 inputs a backend must match the reference backend
*bit-for-bit* on every comparison-⊕ semiring (min/max are exact, and
any association of an exact idempotent reduction yields the same
value).  For non-idempotent ⊕ (``plus_times``) the association order
may differ, so results are only ``allclose``.  A backend with a
reduced-precision compute path advertises its tolerance via ``rtol``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..minplus import MIN_PLUS, Semiring
from .tuning import KernelTiling, kernel_byte_budget, tune_kernel_tiling

__all__ = [
    "KernelBackend",
    "OperandList",
    "GRID_PHASES",
    "srgemm_flops",
    "validate_pair",
    "validate_accumulate",
    "validate_grid",
    "grid_hop_tiles",
    "stack_tiles",
    "stack_checksums",
    "predicted_accumulate_grid",
]

#: Stacked row and column ⊕-sums: ``(rows (T, m), cols (T, n))``.
Sums = Tuple[np.ndarray, np.ndarray]

#: The ``phase`` labels of :meth:`KernelBackend.srgemm_grid`.
GRID_PHASES = ("diag", "panel", "outer")


def srgemm_flops(m: int, n: int, k: int) -> int:
    """Flop count of one SrGemm, counting ``⊕`` and ``⊗`` as one flop
    each - the ``2mnk`` convention the paper uses throughout §4.5."""
    return 2 * m * n * k


def validate_pair(a: np.ndarray, b: np.ndarray) -> None:
    """Shape checks shared by every backend's ``srgemm`` entry."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"srgemm operands must be 2-D, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")


def validate_accumulate(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    validate_pair(a, b)
    m, _ = a.shape
    n = b.shape[1]
    if c.shape != (m, n):
        raise ValueError(f"accumulator shape {c.shape} does not match product shape {(m, n)}")


def validate_grid(c_tiles, a_rows, b_cols, phase: str) -> str:
    """Structure checks shared by every ``srgemm_grid``: a known phase,
    one tile row per row operand, one tile per column operand in each
    row.  Returns the grid's kernel family, ``srgemm_{phase}``.
    (Per-tile shapes are checked by whatever runs the tile.)"""
    if phase not in GRID_PHASES:
        raise ValueError(f"unknown grid phase {phase!r}; expected one of {sorted(GRID_PHASES)}")
    if len(c_tiles) != len(a_rows):
        raise ValueError(f"grid has {len(c_tiles)} tile rows for {len(a_rows)} row operands")
    for i, c_row in enumerate(c_tiles):
        if len(c_row) != len(b_cols):
            raise ValueError(
                f"grid row {i} has {len(c_row)} tiles for {len(b_cols)} column operands"
            )
    return f"srgemm_{phase}"


def grid_hop_tiles(c_tiles, a_rows, b_cols, semiring: Semiring, phase: str, hops):
    """The tiles of a grid with next hops, checked, in row-major order:
    ``(c, c_nxt, a, a_nxt, b)`` per tile, ``hops = (c_hop_tiles,
    a_hop_rows)`` of the grid's shape."""
    c_hops, a_hops = hops
    validate_grid(c_tiles, a_rows, b_cols, phase)
    validate_grid(c_hops, a_hops, b_cols, phase)
    if semiring is not MIN_PLUS:
        raise ValueError(f"next hops need the (min,+) semiring, got {semiring.name}")
    return [
        (c, c_nxt, a, a_nxt, b)
        for a, a_nxt, c_row, c_nxt_row in zip(a_rows, a_hops, c_tiles, c_hops)
        for b, c, c_nxt in zip(b_cols, c_row, c_nxt_row)
    ]


class OperandList(list):
    """A list of arrays its caller hands to several entries in a row and
    leaves unchanged in between (see the module docs); ``bound`` is
    whatever the last backend it visited kept on it."""

    __slots__ = ("bound", "flat")

    @classmethod
    def grid(cls, c_tiles) -> "OperandList":
        """A grid's rows of tiles, whose ``flat`` is its tiles in
        row-major order - itself an operand list, so whatever a backend
        keeps for the grid's tiles serves both forms."""
        rows = cls(c_tiles)
        rows.flat = cls(c for c_row in c_tiles for c in c_row)
        return rows


# -- the guard entries' NumPy formulation -------------------------------------
def stack_tiles(arrs: Sequence[np.ndarray]) -> np.ndarray:
    """A fresh ``(T, *shape)`` copy of ``T`` arrays of one shape and
    dtype (tiles, or their per-tile checksums)."""
    return np.concatenate(arrs).reshape(len(arrs), *arrs[0].shape)


def stack_checksums(stack: np.ndarray, semiring: Semiring) -> Sums:
    """Row and column ⊕-sums of every tile of a ``(T, m, n)`` stack:
    ``(rows (T, m), cols (T, n))``.  Reduces a tile-minor copy so both
    reductions run over non-trailing axes (see
    :func:`predicted_accumulate_grid`)."""
    minor = np.ascontiguousarray(stack.transpose(1, 2, 0))  # (m, n, T)
    rows = semiring.plus_reduce(minor, axis=1)  # (m, T)
    cols = semiring.plus_reduce(minor, axis=0)  # (n, T)
    return np.ascontiguousarray(rows.T), np.ascontiguousarray(cols.T)


def _cast(arr: np.ndarray, compute_dtype: Optional[np.dtype]) -> np.ndarray:
    # Mirror of TiledBackend._cast: only float operands are narrowed.
    if compute_dtype is None:
        return arr
    dt = np.dtype(compute_dtype)
    if arr.dtype.kind == "f" and arr.dtype != dt:
        return arr.astype(dt)
    return arr


def predicted_accumulate_grid(
    pre: Sums,
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring,
    compute_dtype: Optional[np.dtype] = None,
) -> Sums:
    """Checksums of every tile ``C[i][j] ⊕ A[i] ⊗ B[j]`` of an
    ``nr × nc`` grid, from the stacked operands ``a`` ``(nr, m, k)`` and
    ``b`` ``(nc, k, n)`` and the tiles' stacked pre-op checksums ``pre``
    = ``(rows (nr·nc, m), cols (nr·nc, n))``, tiles in row-major order.

    ``rowsum(B[j])`` is shared by every tile of column ``j`` and
    ``colsum(A[i])`` by every tile of row ``i``, so the whole grid costs
    two skinny ``⊗``-products - the checksum-augmented product of
    classical ABFT.  Operands are cast to ``compute_dtype`` exactly as a
    reduced-precision backend casts them.  ``k`` leads the product
    temporaries: NumPy reduces a leading axis in one vectorised sweep, a
    short trailing one row by row."""
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


class KernelBackend:
    """Base class / default implementations for SrGemm backends."""

    #: Registry key; subclasses override.
    name: str = "abstract"
    #: Compute dtype the backend casts float operands to (None keeps
    #: the operand dtype).  Advertised so call sites can reason about
    #: precision and the cost layer about bandwidth.
    compute_dtype: Optional[np.dtype] = None
    #: Relative tolerance versus the reference backend (0.0 = exact on
    #: comparison-⊕ semirings; nonzero for reduced-precision paths).
    rtol: float = 0.0
    #: Multiplier applied to modeled SrGemm kernel durations by the
    #: simulated GPU (see :meth:`repro.machine.gpu.CudaStream.kernel`).
    #: All shipped backends model the *same* paper kernel (the fp32
    #: cuASR SrGemm the cost model is calibrated against), so they keep
    #: the neutral 1.0; the knob exists to model hypothetical kernels
    #: (e.g. a true-fp64 variant at ~2x memory traffic).
    modeled_cost_scale: float = 1.0
    #: False when a soft dependency is missing; the registry then
    #: refuses to hand the backend out and reports ``unavailable_reason``.
    available: bool = True
    unavailable_reason: Optional[str] = None

    def __init__(self, byte_budget: Optional[int] = None):
        #: Per-instance budget override (None = env var / default).
        self.byte_budget = byte_budget

    # -- tiling --------------------------------------------------------------
    def tiling(self, m: int, n: int, k: int, itemsize: int) -> KernelTiling:
        """The auto-tuned tile/k-chunk sizes this backend will use for
        an ``(m, n, k)`` product at the given compute itemsize."""
        return tune_kernel_tiling(m, n, k, itemsize, self.byte_budget)

    def resolved_byte_budget(self) -> int:
        return kernel_byte_budget(self.byte_budget)

    def compute_itemsize(self, *operands: np.ndarray) -> int:
        """Bytes per element of the dtype the kernel actually computes
        in: the advertised ``compute_dtype`` when set, else the
        operands' result dtype.  Tiling must be sized by *this* width -
        a float32 compute path fits twice the elements per byte budget
        even when the operands arrive as float64.  (Path kernels are
        the exception: they always run in operand dtype so next-hop
        choices stay backend-invariant.)
        """
        if self.compute_dtype is not None:
            return np.dtype(self.compute_dtype).itemsize
        if operands:
            return np.result_type(*[o.dtype for o in operands]).itemsize
        return 8

    # -- the kernel waist ----------------------------------------------------
    def srgemm_accumulate(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        """The per-tile kernel: in-place fused ``C ← C ⊕ A ⊗ B``;
        returns ``c``.  What a backend implements and the default grid
        loops over; wrappers do not implement it.

        ``a`` and ``b`` must not alias ``c`` (see the module docs).
        ``k_chunk`` overrides the auto-tuned inner chunk where the
        backend uses one.
        """
        raise NotImplementedError(f"{type(self).__name__} has no per-tile kernel")

    def srgemm_grid(
        self,
        c_tiles: Sequence[Sequence[np.ndarray]],
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
        phase: str = "outer",
        hops: Optional[Tuple[Sequence[Sequence[np.ndarray]], Sequence[np.ndarray]]] = None,
    ) -> Sequence[Sequence[np.ndarray]]:
        """Grid product ``C[i][j] ← C[i][j] ⊕ A[i] ⊗ B[j]`` in place
        over ``nr × nc`` independent tiles; returns ``c_tiles``.

        ``phase`` (``"diag"`` / ``"panel"`` / ``"outer"``) labels the
        Floyd-Warshall phase the grid belongs to.  No operand may alias
        a tile and tiles must be pairwise disjoint (see the module
        docs); under that contract the visiting order is unobservable.
        The default is :meth:`srgemm_accumulate` per tile.

        ``hops = (c_hop_tiles, a_hop_rows)``, of the grid's shape, makes
        it the (min,+) product that also updates each tile's next hops:
        :meth:`srgemm_accumulate_paths` per tile, in row-major order.
        """
        if hops is not None:
            for tile in grid_hop_tiles(c_tiles, a_rows, b_cols, semiring, phase, hops):
                self.srgemm_accumulate_paths(*tile)
            return c_tiles
        validate_grid(c_tiles, a_rows, b_cols, phase)
        for a, c_row in zip(a_rows, c_tiles):
            for b, c in zip(b_cols, c_row):
                self.srgemm_accumulate(c, a, b, semiring=semiring)
        return c_tiles

    # -- one-tile grids --------------------------------------------------------
    def srgemm(self, a: np.ndarray, b: np.ndarray, semiring: Semiring = MIN_PLUS) -> np.ndarray:
        """Return ``A ⊗ B`` as a fresh array."""
        validate_pair(a, b)
        out = semiring.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a.dtype, b.dtype))
        if a.shape[1]:
            self.srgemm_grid([[out]], [a], [b], semiring=semiring)
        return out

    def _one_tile(self, phase: str, c, a, b, semiring: Semiring) -> np.ndarray:
        self.srgemm_grid([[c]], [a], [b], semiring=semiring, phase=phase)
        return c

    # ``benchmarks/e2e`` reads these five names off a backend.
    def srgemm_diag(self, c, a, b, semiring: Semiring = MIN_PLUS) -> np.ndarray:
        return self._one_tile("diag", c, a, b, semiring)

    def srgemm_panel(self, c, a, b, semiring: Semiring = MIN_PLUS) -> np.ndarray:
        return self._one_tile("panel", c, a, b, semiring)

    def srgemm_outer(self, c, a, b, semiring: Semiring = MIN_PLUS) -> np.ndarray:
        return self._one_tile("outer", c, a, b, semiring)

    def panel_row_update(
        self, panel: np.ndarray, diag: np.ndarray, semiring: Semiring = MIN_PLUS
    ) -> np.ndarray:
        """Row-panel update ``P ← P ⊕ D ⊗ P`` in place (``diag``
        multiplies from the left; paper Alg. 2, PanelUpdate)."""
        if diag.shape[0] != diag.shape[1] or diag.shape[1] != panel.shape[0]:
            raise ValueError(f"diag {diag.shape} incompatible with row panel {panel.shape}")
        return self._one_tile("panel", panel, diag, panel.copy(), semiring)

    def panel_col_update(
        self, panel: np.ndarray, diag: np.ndarray, semiring: Semiring = MIN_PLUS
    ) -> np.ndarray:
        """Column-panel update ``P ← P ⊕ P ⊗ D`` in place (``diag``
        multiplies from the right)."""
        if diag.shape[0] != diag.shape[1] or panel.shape[1] != diag.shape[0]:
            raise ValueError(f"diag {diag.shape} incompatible with column panel {panel.shape}")
        return self._one_tile("panel", panel, panel.copy(), diag, semiring)

    # -- DiagUpdate closure -----------------------------------------------------
    def fw_closure(
        self, blk: np.ndarray, semiring: Semiring = MIN_PLUS, hops: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Floyd-Warshall closure of one square block, in place; returns
        ``blk``.  The default *is* :func:`repro.semiring.closure.fw_inplace`
        (``blk ← blk ⊕ blk[:, k] ⊗ blk[k, :]`` for each ``k``, every sweep
        reading the pre-sweep row and column ``k``); an override must
        produce its bits.

        With ``hops`` (the block's next-hop pointers, global vertex ids)
        the closure is (min,+) and carries them: where a sweep strictly
        improves ``blk[r, c]`` through ``k``, ``hops[r, c]`` becomes
        ``hops[r, k]``, the first hop toward ``k``."""
        if hops is None:
            from ..closure import fw_inplace  # closure imports the registry

            return fw_inplace(blk, semiring=semiring)
        n = blk.shape[0]
        if blk.shape != (n, n) or hops.shape != (n, n):
            raise ValueError(f"square blocks required, got {blk.shape} / {hops.shape}")
        if semiring is not MIN_PLUS:
            raise ValueError(f"next hops need the (min,+) semiring, got {semiring.name}")
        for k in range(n):
            via = blk[:, k, None] + blk[None, k, :]
            better = via < blk
            if not better.any():
                continue
            blk[better] = via[better]
            hops[better] = np.broadcast_to(hops[:, k, None], (n, n))[better]
        return blk

    # -- guard entries -------------------------------------------------------
    def tile_sums(
        self,
        tiles: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
        snapshot: bool = False,
    ) -> Tuple[Optional[np.ndarray], Sums]:
        """``(snap, (rows (T, m), cols (T, n)))``: the row and column
        ⊕-sums of ``T`` non-empty 2-D tiles of one shape and dtype, and,
        when ``snapshot`` is set, a fresh ``(T, m, n)`` copy of them
        (else ``snap`` is None)."""
        stack = stack_tiles(tiles)
        return (stack if snapshot else None), stack_checksums(stack, semiring)

    def predict_sums(
        self,
        pre: Sums,
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
    ) -> Sums:
        """The :meth:`tile_sums` every tile of ``C[i][j] ⊕ A[i] ⊗ B[j]``
        must have after this backend's grid product, from the tiles'
        pre-op sums ``pre`` (tiles in row-major order); row and column
        operands are each of one shape and dtype."""
        return predicted_accumulate_grid(
            pre, stack_tiles(a_rows), stack_tiles(b_cols), semiring, self.compute_dtype
        )

    # -- path tracking -------------------------------------------------------
    def srgemm_accumulate_paths(
        self,
        c: np.ndarray,
        c_nxt: np.ndarray,
        a: np.ndarray,
        a_nxt: np.ndarray,
        b: np.ndarray,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        """Fused (min,+) ``C ← C ⊕ A ⊗ B`` updating ``C``'s next hops.

        Wherever the product improves ``C[r, c]`` through intermediate
        ``t``, sets ``c_nxt[r, c] = a_nxt[r, t*]`` for the minimizing
        ``t*``.  Strict improvement only, so equally-good existing
        paths are kept and updates stay idempotent.  Path numerics
        always run in the operand dtype (never the reduced-precision
        compute path), and every backend walks the k-chunks produced by
        the shared tuner in order, so hop choices are backend-invariant.
        """
        m, k = a.shape
        n = b.shape[1]
        if b.shape[0] != k or c.shape != (m, n) or c_nxt.shape != (m, n) or a_nxt.shape != (m, k):
            raise ValueError(
                f"shape mismatch: C{c.shape}/NC{c_nxt.shape} A{a.shape}/NA{a_nxt.shape} B{b.shape}"
            )
        if k == 0:
            return c
        itemsize = np.result_type(a.dtype, b.dtype).itemsize
        step = k_chunk or self.tiling(m, n, k, itemsize).k_chunk
        for k0 in range(0, k, step):
            k1 = min(k0 + step, k)
            cand = a[:, k0:k1, None] + b[None, k0:k1, :]  # (m, kc, n)
            best = cand.min(axis=1)
            arg = cand.argmin(axis=1)  # minimizing t within the chunk
            better = best < c
            if not better.any():
                continue
            c[better] = best[better]
            # c_nxt[r, c] = a_nxt[r, k0 + arg[r, c]] where improved.
            hop = np.take_along_axis(a_nxt, k0 + arg, axis=1)
            c_nxt[better] = hop[better]
        return c

    # -- introspection -------------------------------------------------------
    def describe(self) -> str:
        """One-line human description (CLI ``backends`` listing)."""
        dtype = f"compute {np.dtype(self.compute_dtype).name}" if self.compute_dtype else "operand dtype"
        status = "" if self.available else f"  [unavailable: {self.unavailable_reason}]"
        return f"{dtype}, rtol {self.rtol:g}{status}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name!r})"
