"""Block-cyclic distribution of the distance matrix (paper §2.5.1).

The global ``n x n`` matrix is cut into ``nb x nb`` blocks of size
``b x b``; block (i, j) lives on grid coordinate (i mod P_r, j mod P_c).
Each rank holds its share as one local matrix, as each GPU does in the
paper: a C-contiguous ``(rows, cols, b, b)`` slab whose blocks a
:class:`RankBlocks` maps by global block index.  This module scatters
and gathers between a global array and those per-rank maps, and pads
matrices whose order is not a multiple of the block size (padding
vertices are isolated except for a zero self-loop, so they never affect
real distances).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import ConfigurationError
from ..semiring.backends.base import SlabTiles, TileGrid
from ..semiring.minplus import MIN_PLUS, Semiring
from .grid import ProcessGrid

__all__ = [
    "LocalBlocks",
    "RankBlocks",
    "block_slice",
    "pad_to_blocks",
    "distribute",
    "collect",
    "local_matrix_elems",
]


#: Per-rank storage: block index -> b x b array.
LocalBlocks = dict[tuple[int, int], np.ndarray]


class RankBlocks(Mapping):
    """One rank's blocks as views of its local matrix: block
    ``(rows[p], cols[q])`` is ``slab[p, q]`` of the C-contiguous
    ``(len(rows), len(cols), b, b)`` array ``slab``.

    A lookup always returns the same view object (the ABFT guard keys
    blocks by ``id``), and no block is ever rebound: the map refuses item
    assignment, and a checkpoint restore builds a new slab
    (:meth:`gather`).  ``tiles`` is every block in key order, as
    positional :class:`~repro.semiring.backends.base.SlabTiles`;
    :meth:`grid` names a grid of blocks by position."""

    __slots__ = ("slab", "rows", "cols", "tiles", "_views", "_row_pos", "_col_pos")

    def __init__(self, slab: np.ndarray, rows, cols):
        if slab.shape[:2] != (len(rows), len(cols)) or not slab.flags.c_contiguous:
            raise ConfigurationError(
                f"a {len(rows)} x {len(cols)} rank slab must be C-contiguous of that "
                f"leading shape, got {slab.shape}"
            )
        self.slab = slab
        self.rows, self.cols = list(rows), list(cols)
        keys = [(i, j) for i in self.rows for j in self.cols]
        flat = list(slab.reshape(-1, *slab.shape[2:]))
        self._views = dict(zip(keys, flat))
        self._row_pos = {i: p for p, i in enumerate(self.rows)}
        self._col_pos = {j: q for q, j in enumerate(self.cols)}
        self.tiles = SlabTiles(slab, np.arange(len(keys), dtype=np.uintp), flat)

    @classmethod
    def gather(cls, blocks: Mapping, rows, cols) -> Mapping:
        """``blocks`` (the ``rows x cols`` blocks, one 2-D shape and one
        dtype; a restored checkpoint) copied into a new slab.  A
        ``RankBlocks`` is returned as it is, and so is any other map,
        which then takes the list path."""
        if isinstance(blocks, cls):
            return blocks
        keys = [(i, j) for i in rows for j in cols]
        if not keys or len(blocks) != len(keys) or any(key not in blocks for key in keys):
            return blocks
        arrs = [blocks[key] for key in keys]
        sig = (arrs[0].shape, arrs[0].dtype)
        if arrs[0].ndim != 2 or any((arr.shape, arr.dtype) != sig for arr in arrs):
            return blocks
        return cls(np.stack(arrs).reshape(len(rows), len(cols), *sig[0]), rows, cols)

    def grid(self, keys) -> TileGrid:
        """The blocks ``keys`` as a positional grid.  ``keys`` is an
        outer product, as every grid over a rank's blocks is: row ``i``
        holds the keys ``(rows[i], cols[j])``, so the first key of each
        row and the first row name every position."""
        rows = np.array([self._row_pos[row[0][0]] for row in keys], dtype=np.uintp)
        cols = np.array([self._col_pos[key[1]] for key in keys[0]], dtype=np.uintp)
        index = rows[:, None] * len(self.cols) + cols
        return TileGrid(self.slab, index, self.tiles.tiles)

    def region(self, rows, cols) -> tuple:
        """The blocks ``rows x cols`` (each in the slab's order) as an
        index into ``slab``'s two leading axes: two slices when the
        positions on each axis are one run (``slab[region]`` is then a
        view), else an ``np.ix_`` pair (a gather to read, a scatter to
        write back)."""
        row_pos, col_pos = self._row_pos, self._col_pos
        p0, p1 = row_pos[rows[0]], row_pos[rows[-1]]
        q0, q1 = col_pos[cols[0]], col_pos[cols[-1]]
        if p1 - p0 == len(rows) - 1 and q1 - q0 == len(cols) - 1:
            return slice(p0, p1 + 1), slice(q0, q1 + 1)
        return np.ix_([row_pos[i] for i in rows], [col_pos[j] for j in cols])

    def __getitem__(self, key) -> np.ndarray:
        return self._views[key]

    def __contains__(self, key) -> bool:
        return key in self._views

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def items(self):
        return self._views.items()

    def values(self):
        return self._views.values()

    def __reduce__(self):
        # Copies (deepcopy, pickle) rebuild the views over the copied slab.
        return RankBlocks, (self.slab, self.rows, self.cols)


def block_slice(b: int, bi: int, bj: int) -> tuple[slice, slice]:
    """Global-array slices of block (bi, bj) for block size ``b``."""
    return slice(bi * b, (bi + 1) * b), slice(bj * b, (bj + 1) * b)


def pad_to_blocks(
    weights: np.ndarray, b: int, semiring: Semiring = MIN_PLUS
) -> tuple[np.ndarray, int]:
    """Pad a square matrix so the block size divides its order.

    Padding rows/columns are filled with the semiring zero (no edge)
    except a diagonal of semiring one (zero-length self path), which
    keeps the padded vertices disconnected from the real graph.
    Returns ``(padded, original_n)``.
    """
    n = weights.shape[0]
    if weights.ndim != 2 or weights.shape[1] != n:
        raise ConfigurationError(f"weights must be square, got {weights.shape}")
    if b < 1:
        raise ConfigurationError(f"block size must be >= 1, got {b}")
    rem = n % b
    if rem == 0:
        return weights, n
    m = n + (b - rem)
    out = semiring.zeros((m, m), dtype=weights.dtype)
    out[:n, :n] = weights
    for v in range(n, m):
        out[v, v] = semiring.one
    return out, n


def distribute(
    weights: np.ndarray, b: int, grid: ProcessGrid
) -> list[RankBlocks]:
    """Scatter a (block-divisible) matrix into per-rank local matrices.

    Each rank's slab is one gather of its blocks, a *copy*, so the
    distributed computation never aliases the caller's array.
    """
    n = weights.shape[0]
    if n % b:
        raise ConfigurationError(f"block size {b} does not divide n={n}; pad first")
    nb = n // b
    by_block = weights.reshape(nb, b, nb, b).transpose(0, 2, 1, 3)  # (bi, bj, b, b)
    locals_ = []
    for rank in range(grid.size):
        rows, cols = grid.local_block_rows(rank, nb), grid.local_block_cols(rank, nb)
        slab = np.ascontiguousarray(by_block[np.ix_(rows, cols)])
        locals_.append(RankBlocks(slab, rows, cols))
    return locals_


def collect(
    locals_: list[LocalBlocks] | Mapping[int, LocalBlocks],
    n: int,
    b: int,
    grid: ProcessGrid,
    dtype=None,
) -> np.ndarray:
    """Gather per-rank block dicts back into a global ``n x n`` array.

    ``n`` may be the *original* (pre-padding) order; blocks beyond it
    are cropped.
    """
    if isinstance(locals_, Mapping):
        per_rank = [locals_[r] for r in range(grid.size)]
    else:
        per_rank = list(locals_)
    if len(per_rank) != grid.size:
        raise ConfigurationError(
            f"got {len(per_rank)} rank states for a grid of {grid.size}"
        )
    nb = -(-n // b)  # ceil: covers cropped final blocks
    n_pad = nb * b
    sample = next((blk for blocks in per_rank for blk in blocks.values()), None)
    if sample is None:
        raise ConfigurationError("no blocks to collect")
    out = np.empty((n_pad, n_pad), dtype=dtype or sample.dtype)
    seen = 0
    for rank, blocks in enumerate(per_rank):
        for (bi, bj), blk in blocks.items():
            if grid.owner(bi, bj) != rank:
                raise ConfigurationError(
                    f"rank {rank} holds block {(bi, bj)} owned by {grid.owner(bi, bj)}"
                )
            out[block_slice(b, bi, bj)] = blk
            seen += 1
    if seen != nb * nb:
        raise ConfigurationError(f"collected {seen} blocks, expected {nb * nb}")
    return out[:n, :n]


def local_matrix_elems(rank: int, nb: int, b: int, grid: ProcessGrid) -> int:
    """Number of matrix elements rank holds (for memory accounting)."""
    rows = len(grid.local_block_rows(rank, nb))
    cols = len(grid.local_block_cols(rank, nb))
    return rows * cols * b * b
