"""Out-of-GPU semiring matrix multiplication, ooGSrGemm (paper §4.3-4.5).

Computes ``C ← C ⊕ A ⊗ B`` where C lives in host DRAM and is far larger
than GPU memory.  C is cut into ``mx x nx`` tiles; for each tile the
pipeline runs

    SrGemm (X ← A_i ⊗ B_j)  →  d2hXfer (X to host)  →  hostUpdate (C_ij ⊕= X)

on ``s`` round-robin cudaStreams with ``s`` device buffers, so the three
stages - which use three different pieces of hardware (GPU SMs, the
NVLink copy engine, the CPU/DRAM) - overlap exactly as the paper's
Figure 2 shows.  Panel pieces A_i / B_j are transferred host-to-device
once, on first use, riding under earlier tiles' compute (§4.4).

The cost behaviour (§4.5): with 1 stream the time per tile is
``t0 + t1 + t2``; with 2 streams ``min over pairings``; with >= 3
streams ``max(t0, t1, t2)`` - reproduced by the simulation because the
engine resources serialize exactly those stages.

The pipeline times the tiles and runs whatever numerics a
:class:`TileTask` carries.  The offload OuterUpdate's tasks
(``core/executor.py::_outer_tiles``) share one staging grid: the first
tile's compute runs the whole rank-iteration's product as one
``srgemm_grid`` over b x b tiles, each tile's compute returns its part,
and its apply merges that part with one ⊕.  :func:`oog_srgemm_plan`, the
standalone path behind Figures 5 and 6, computes each tile on its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..machine.gpu import SimGPU
from ..machine.host import HostCpu
from ..semiring.backends import get_backend
from ..semiring.minplus import MIN_PLUS, Semiring
from ..sim.engine import Environment, Event

__all__ = ["TileTask", "run_oog_pipeline", "oog_srgemm_plan", "OogStats"]


@dataclass
class TileTask:
    """One C-tile's worth of work for the offload pipeline."""

    #: Physical tile dims (rows, cols) and inner dimension.
    m: int
    n: int
    k: int
    #: Host-to-device transfers this tile needs; each entry is
    #: (dedup-key, rows, cols).  A transfer happens only on the first
    #: tile that lists its key.
    h2d: list[tuple[object, int, int]] = field(default_factory=list)
    #: Real computation X ← A_i ⊗ B_j; runs at SrGemm completion.
    compute: Optional[Callable[[], np.ndarray]] = None
    #: Real update C_ij ⊕= X; runs at hostUpdate completion.
    apply: Optional[Callable[[np.ndarray], None]] = None
    label: str = "tile"
    #: Modeled-duration multiplier for this tile's kernel (the kernel
    #: backend's ``modeled_cost_scale``).
    cost_scale: float = 1.0


@dataclass
class OogStats:
    """Aggregate accounting of one pipeline run."""

    tiles: int = 0
    flops_virtual: float = 0.0
    h2d_bytes_virtual: float = 0.0
    d2h_bytes_virtual: float = 0.0
    start: float = 0.0
    end: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def flop_rate(self) -> float:
        return self.flops_virtual / self.elapsed if self.elapsed > 0 else 0.0


def run_oog_pipeline(
    env: Environment,
    gpu: SimGPU,
    host: HostCpu,
    tiles: list[TileTask],
    n_streams: int,
    label: str = "ooGSrGemm",
    tracer=None,
):
    """Generator: run the tile pipeline; returns :class:`OogStats`.

    The calling process plays the host thread of §4.4: it waits for
    streams *in the order they were initiated*, performs the
    hostUpdate, and only then reuses that stream's device buffer for
    the next tile.
    """
    if n_streams < 1:
        raise ValueError(f"need at least one stream, got {n_streams}")
    cost = gpu.cost
    stats = OogStats(start=env.now)
    if not tiles:
        stats.end = env.now
        return stats

    streams = [gpu.stream(f"{label}.s{r}", tracer=tracer) for r in range(n_streams)]
    h2d_done: dict[object, Event] = {}
    d2h_events: list[Optional[Event]] = [None] * len(tiles)
    # Virtual sizes, once per distinct shape (a pipeline has a handful);
    # the same values are summed in the same order.
    bytes_of = functools.lru_cache(maxsize=None)(cost.bytes_of)
    flops_of = functools.lru_cache(maxsize=None)(
        lambda m, n, k: 2.0 * cost.v(m) * cost.v(n) * cost.v(k)
    )

    def enqueue(t: int) -> None:
        tile = tiles[t]
        stream = streams[t % n_streams]
        deps: list[Event] = []
        for key, rows, cols in tile.h2d:
            ev = h2d_done.get(key)
            if ev is None:
                ev = stream.h2d(rows, cols, label=f"h2d:{key}")
                h2d_done[key] = ev
                stats.h2d_bytes_virtual += bytes_of(rows, cols)
            deps.append(ev)
        kev = stream.kernel(
            tile.m,
            tile.n,
            tile.k,
            label=tile.label,
            fn=tile.compute,
            after=deps,
            cost_scale=tile.cost_scale,
        )
        stats.flops_virtual += flops_of(tile.m, tile.n, tile.k)
        # The d2h op's value is the kernel's result (the X buffer).
        d2h_events[t] = stream.d2h(
            tile.m, tile.n, label=f"d2h:{tile.label}", fn=lambda kev=kev: kev.value
        )
        stats.d2h_bytes_virtual += bytes_of(tile.m, tile.n)
        stats.tiles += 1

    # Prime one tile per stream, then consume in initiation order,
    # re-arming each stream's buffer after its hostUpdate.
    for t in range(min(n_streams, len(tiles))):
        enqueue(t)
    for t in range(len(tiles)):
        x = yield d2h_events[t]
        tile = tiles[t]
        nxt = t + n_streams
        yield from host.host_update(
            tile.m,
            tile.n,
            label=f"hostUpdate:{tile.label}",
            fn=(lambda x=x, tile=tile: tile.apply(x)) if tile.apply is not None else None,
        )
        if nxt < len(tiles):
            enqueue(nxt)
    stats.end = env.now
    return stats


def oog_srgemm_plan(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    mx: int,
    nx: int,
    semiring: Semiring = MIN_PLUS,
    backend=None,
) -> list[TileTask]:
    """Tile plan for a standalone ``C ← C ⊕ A ⊗ B`` on raw arrays.

    ``A`` is split by rows into mx-chunks, ``B`` by columns into
    nx-chunks (paper §4.3); C tiles are visited row-major, so A_i is
    loaded when its first tile runs and B_j on the top tile row,
    matching the §4.4 panel-pipelining.  This is the micro-benchmark
    path behind Figures 5 and 6.  ``backend`` selects the SrGemm kernel
    backend each tile's compute runs on.
    """
    kernels = get_backend(backend)
    m, kk = a.shape
    k2, n = b.shape
    if kk != k2 or c.shape != (m, n):
        raise ValueError(f"shape mismatch: A{a.shape} B{b.shape} C{c.shape}")
    tiles: list[TileTask] = []
    for i0 in range(0, m, mx):
        i1 = min(i0 + mx, m)
        for j0 in range(0, n, nx):
            j1 = min(j0 + nx, n)
            h2d = []
            if j0 == 0:
                h2d.append((f"A[{i0}:{i1}]", i1 - i0, kk))
            if i0 == 0:
                h2d.append((f"B[{j0}:{j1}]", kk, j1 - j0))

            def compute(i0=i0, i1=i1, j0=j0, j1=j1):
                x = semiring.zeros((i1 - i0, j1 - j0), dtype=c.dtype)
                kernels.srgemm_grid(
                    [[x]], [a[i0:i1]], [b[:, j0:j1]], semiring=semiring, phase="outer"
                )
                return x

            def apply(x, i0=i0, i1=i1, j0=j0, j1=j1):
                semiring.plus(c[i0:i1, j0:j1], x, out=c[i0:i1, j0:j1])

            tiles.append(
                TileTask(
                    m=i1 - i0,
                    n=j1 - j0,
                    k=kk,
                    h2d=h2d,
                    compute=compute,
                    apply=apply,
                    label=f"C[{i0},{j0}]",
                    cost_scale=kernels.modeled_cost_scale,
                )
            )
    return tiles
