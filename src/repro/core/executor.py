"""Single executor: lowers a schedule-IR op stream onto the sim engine.

:func:`execute_schedule` replaces the three hand-written rank programs
(baseline / pipelined / offload).  It walks the op lists emitted by a
:class:`~repro.core.schedule.SchedulePolicy` and dispatches each typed
op to a small handler, which is that op's one body for both
residencies.  Where the distance matrix lives (HBM vs host DRAM) is a
:class:`ResidencyPolicy`: it stages a body's kernel operands
(:meth:`ResidencyPolicy.launch`) and runs OuterUpdate (a stream kernel
or the ooGSrGemm pipeline); ``PanelBcast`` goes through the context's
:class:`~repro.mpi.policy.BcastPolicy`.  The named variants are just
policy combinations (the :data:`repro.core.variants.VARIANTS` table).

Exactness contract: for every pre-refactor variant the executor emits
the *identical* sequence of sim events (kernels, transfers, messages,
waits) the dedicated generator did, so distance matrices are
bit-identical and makespans cost-identical (pinned by
``tests/test_schedule_ir.py`` against recorded pre-refactor runs).

When tracing is enabled the executor also records one ``op:<Name>``
span per op that consumed simulated time, keyed by rank - the
task-level timeline the per-kernel spans are too fine-grained to show
(see :meth:`repro.sim.trace.Tracer.op_spans`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..faults.checkpoint import checkpoint_hook
from ..semiring.backends.base import TileGrid
from ..semiring.closure import squaring_steps
from ..sim.engine import Event
from ..sim.trace import OP_CATEGORY_PREFIX
from . import schedule as ir
from .context import (
    RankState,
    diag_bcast,
    diag_update,
    grid_update,
    is_empty,
    maybe,
    outer_update,
    panel_bcast,
    panel_grid,
    payload,
)
from .oog_srgemm import TileTask, run_oog_pipeline

__all__ = [
    "ResidencyPolicy",
    "GpuResident",
    "HostResident",
    "GPU_RESIDENT",
    "HOST_RESIDENT",
    "execute_schedule",
]


def _observed_oog(obs, pipe):
    """Generator wrapper: run the ooGSrGemm pipeline and fold its
    :class:`~repro.core.oog_srgemm.OogStats` into the metrics registry
    (pure bookkeeping at completion; no simulation events)."""
    stats = yield from pipe
    if stats is not None:
        obs.counter("oog.tiles").inc(stats.tiles)
        obs.counter("oog.flops_virtual").inc(stats.flops_virtual)
        obs.counter("oog.h2d_bytes_virtual").inc(stats.h2d_bytes_virtual)
        obs.counter("oog.d2h_bytes_virtual").inc(stats.d2h_bytes_virtual)
        obs.histogram("oog.pipeline").observe(stats.elapsed)
    return stats


def _outer_tiles(
    state: RankState,
    k: int,
    row_panel: dict,
    col_panel: dict,
    skip_rows: tuple = (),
    skip_cols: tuple = (),
) -> list:
    """The ooGSrGemm tile plan for OuterUpdate(k) on this rank.

    Local block rows/cols (excluding k and already-updated look-ahead
    panels) are grouped into chunks of mx_blocks x nx_blocks; panel
    pieces are h2d'd on first use, keyed per (iteration, side, chunk).

    The product is one grid over a positional staging stack of every
    chunk's b x b tiles, ``(R, C, b, b)`` for the R x C blocks updated,
    with the operands the GPU-resident OuterUpdate takes; the first
    chunk to compute runs it, and each chunk's compute returns its
    ``(nr, nc, b, b)`` part.  A chunk's apply merges that part into the
    rank's local matrix with one ⊕."""
    ctx = state.ctx
    cfg = ctx.config
    b = ctx.b
    semiring = ctx.semiring
    vrt = ctx.verify
    rt = ctx.faults
    # Pending target=oog memflip for this (rank, k): corrupts the first
    # chunk's staged product between compute and apply, modeling an
    # upset during the d2h transfer / host residence of the product.
    oog_bits = 0
    if rt is not None and rt.injector.plan.memory_faults:
        oog_bits = rt.injector.take_oog_flip(state.me, k)
    rows = state.local_rows(exclude=(k, *skip_rows))
    cols = state.local_cols(exclude=(k, *skip_cols))
    blocks = state.blocks
    staged: list = []  # the staging grid, once computed

    def product(grid: TileGrid, grid_rows: list, grid_cols: list) -> None:
        a_rows = [col_panel[i] for i in grid_rows]
        b_cols = [row_panel[j] for j in grid_cols]
        ctx.backend.srgemm_grid(grid, a_rows, b_cols, semiring=semiring, phase="outer")

    def staging() -> TileGrid:
        # Whichever chunk's kernel completes first runs the grid.
        if not staged:
            dtype = col_panel[rows[0]].dtype
            stack = semiring.zeros((len(rows), len(cols), b, b), dtype=dtype)
            index = np.arange(stack.shape[0] * stack.shape[1], dtype=np.uintp)
            grid = TileGrid(stack, index.reshape(stack.shape[:2]), list(stack.reshape(-1, b, b)))
            product(grid, rows, cols)
            staged.append(grid)
        return staged[0]

    def chunk_grid(rs: slice, cs: slice) -> TileGrid:
        grid = staging()
        return TileGrid(grid.slab, grid.index[rs, cs], grid.tiles)

    tiles: list[TileTask] = []
    for ci, r0 in enumerate(range(0, len(rows), cfg.mx_blocks)):
        rs = slice(r0, r0 + cfg.mx_blocks)
        for cj, c0 in enumerate(range(0, len(cols), cfg.nx_blocks)):
            cs = slice(c0, c0 + cfg.nx_blocks)
            chunk_rows, chunk_cols = rows[rs], cols[cs]
            h2d = []
            if cj == 0:
                h2d.append(((k, "A", ci), b * len(chunk_rows), b))
            if ci == 0:
                h2d.append(((k, "B", cj), b, b * len(chunk_cols)))

            def compute(rs=rs, cs=cs):
                return staging().slab[rs, cs]

            if oog_bits:

                def compute(base=compute, bits=oog_bits):
                    x = base()
                    inj = ctx.faults.injector
                    # (nr, b, nc, b) ravels as the chunk's (nr·b, nc·b) product.
                    if inj.flip_entries(x.transpose(0, 2, 1, 3), bits):
                        inj.count("faults.oog_flips")
                    return x

                oog_bits = 0  # one upset per fault, on the first chunk

            if vrt is None:

                def apply(x, chunk_rows=chunk_rows, chunk_cols=chunk_cols):
                    slab, at = blocks.slab, blocks.region(chunk_rows, chunk_cols)
                    if isinstance(at[0], slice):
                        dst = slab[at]
                        semiring.plus(dst, x, out=dst)
                    else:
                        slab[at] = semiring.plus(slab[at], x)

            else:

                def recompute(rs=rs, cs=cs, chunk_rows=chunk_rows, chunk_cols=chunk_cols):
                    # Localized repair: the chunk's tiles re-run as one
                    # guarded grid, in place.
                    chunk = chunk_grid(rs, cs)
                    chunk.slab[rs, cs] = semiring.zero
                    product(chunk, chunk_rows, chunk_cols)

                def apply(x, rs=rs, cs=cs, chunk_rows=chunk_rows, chunk_cols=chunk_cols,
                          recompute=recompute):
                    vrt.verify_staged(chunk_grid(rs, cs).flat, recompute=recompute)
                    for ri, i in enumerate(chunk_rows):
                        for rj, j in enumerate(chunk_cols):
                            vrt.guarded_merge(blocks[(i, j)], x[ri, rj])

            tiles.append(
                TileTask(
                    m=b * len(chunk_rows),
                    n=b * len(chunk_cols),
                    k=b,
                    h2d=h2d,
                    compute=maybe(ctx, compute),
                    apply=maybe(ctx, apply),
                    label=f"outer{k}[{ci},{cj}]",
                    cost_scale=ctx.backend.modeled_cost_scale,
                )
            )
    return tiles


# ---------------------------------------------------------------------------
# Residency policies
# ---------------------------------------------------------------------------


class ResidencyPolicy:
    """Where the local distance matrix lives - and therefore what a
    rank charges for it and how a kernel's operands reach the device.
    A policy stages; it does not lower: each op's body (index set,
    shape, label, numerics) is written once, in its executor handler,
    and hands its kernel to :meth:`launch`."""

    name: str = "abstract"

    def footprint(self, cost, b: int, rows: int, cols: int, config) -> tuple[int, int]:
        """``(hbm_bytes, dram_bytes)`` (virtual) one rank holding
        ``rows x cols`` local blocks of size ``b`` charges at setup -
        the one formula behind the driver's state builders (where
        Figure 7's feasibility wall comes from) and the scheduler's
        admission pricing.  ``config`` is the run's
        :class:`~repro.api.SolveConfig`."""
        raise NotImplementedError

    def launch(self, state: RankState, enqueue, up: list, down: list) -> Event:
        """Run one kernel on the rank's main stream: ``enqueue()``
        submits it and returns its event; ``up`` / ``down`` are the
        ``(rows, cols, label)`` operands it reads and results it writes.
        Returns the event after which the results are where the matrix
        lives."""
        raise NotImplementedError

    def panel_waits(self, wait: bool) -> bool:
        """Does a PanelUpdate block the rank program?  As the schedule
        says (``wait``), unless the residency needs the panel landed
        before its broadcast."""
        return wait

    def outer_update(self, state: RankState, k: int, wait: bool, env):
        raise NotImplementedError


class GpuResident(ResidencyPolicy):
    """Distance matrix in HBM: kernels are plain stream kernels."""

    name = "gpu"

    def footprint(self, cost, b, rows, cols, config):
        hbm = (
            cost.gpu_bytes(rows * b, cols * b)  # local matrix
            + cost.gpu_bytes(b, cols * b)  # received row panel
            + cost.gpu_bytes(rows * b, b)  # received column panel
            + cost.gpu_bytes(b, b)  # diagonal block
        )
        if config.track_paths:
            # int64 pointer blocks cost 2x the float32 distances.
            hbm *= 3
        return hbm, 0

    def launch(self, state, enqueue, up, down):
        return enqueue()

    def outer_update(self, state, k, wait, env):
        ev = outer_update(state, k, env.row_panel, env.col_panel, env.skip_rows, env.skip_cols)
        if wait:
            if ev is not None:
                yield ev
        else:
            env.outer = ev
        yield from ()


class HostResident(ResidencyPolicy):
    """Me-ParallelFw (§4.3): distance matrix in host DRAM.  Every
    kernel stages its operands up and its results back; OuterUpdate
    streams the matrix through the ooGSrGemm pipeline.  Staged
    look-ahead kernels are what let the look-ahead schedule compose
    with offload (pipelined Me-ParallelFw - the combination the paper
    never evaluates)."""

    name = "host"

    def footprint(self, cost, b, rows, cols, config):
        # HBM holds only the two panels, the diagonal block and ``s``
        # ooGSrGemm tile buffers; the matrix itself sits in host DRAM.
        hbm = (
            cost.gpu_bytes(b * rows, b)
            + cost.gpu_bytes(b, b * cols)
            + cost.gpu_bytes(b, b)
            + config.n_streams * cost.gpu_bytes(b * config.mx_blocks, b * config.nx_blocks)
        )
        return hbm, int(cost.bytes_of(rows * b, cols * b))

    def launch(self, state, enqueue, up, down):
        s = state.stream
        for rows, cols, label in up:
            s.h2d(rows, cols, label=label)
        ev = enqueue()
        for rows, cols, label in down:
            ev = s.d2h(rows, cols, label=label)
        return ev

    def panel_waits(self, wait):
        # The updated panel must be back on the host before its bcast.
        return True

    def outer_update(self, state, k, wait, env):
        ctx = state.ctx
        tiles = _outer_tiles(state, k, env.row_panel, env.col_panel,
                             env.skip_rows, env.skip_cols)
        pipe = run_oog_pipeline(
            ctx.env, state.gpu, state.host, tiles, ctx.config.n_streams,
            label=f"r{state.me}.oog{k}", tracer=ctx.tracer,
        )
        if ctx.obs is not None:
            pipe = _observed_oog(ctx.obs, pipe)
        if wait:
            yield from pipe
        else:
            # Launch the tile pipeline as its own process so the rank
            # program can participate in PanelBcast(k+1) while tiles
            # stream - the offload-pipelined overlap.
            env.outer = ctx.env.process(pipe, name=f"r{state.me}.oog{k}")


#: Stateless residency singletons.
GPU_RESIDENT = GpuResident()
HOST_RESIDENT = HostResident()


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


@dataclass
class _IterEnv:
    """Dataflow carried between ops: the executor's registers."""

    diag: Optional[np.ndarray] = None
    row_panel: Optional[dict] = None
    col_panel: Optional[dict] = None
    lookahead_evs: list = field(default_factory=list)
    panel_evs: list = field(default_factory=list)
    skip_rows: tuple = ()
    skip_cols: tuple = ()
    outer: Optional[Event] = None

    def reset_iteration(self) -> None:
        self.lookahead_evs = []
        self.panel_evs = []
        self.skip_rows = ()
        self.skip_cols = ()


def _op_checkpoint(state, residency, env, op):
    yield from checkpoint_hook(state, op.k)
    vrt = state.ctx.verify
    if vrt is not None:
        # Top-of-iteration sampled monotonicity check (full mode); pure
        # bookkeeping, no simulated events, so makespans are untouched.
        vrt.sentinel_check(state.me, op.k)


def _kernel(state: RankState, m: int, n: int, label: str, fn):
    """The enqueue of one SrGemm-shaped ``(m, n, b)`` main-stream kernel
    running ``fn`` (not on a hollow run)."""
    ctx = state.ctx
    return lambda: state.stream.kernel(
        m, n, ctx.b, label, maybe(ctx, fn), cost_scale=ctx.backend.modeled_cost_scale
    )


def _op_diag_update(state, residency, env, op):
    env.diag = None
    if not state.owns_diag(op.k):
        return
    ctx, k, b = state.ctx, op.k, state.ctx.b
    label = f"DiagUpdate({k})"
    fn = maybe(ctx, diag_update(state, k))
    if ctx.config.diag_on_gpu:
        # ceil(log2 b_virtual) SrGemm squarings (§4.2, Eq. 4), charged
        # as kernel time; the numerics are the equivalent closure.
        b_virt = max(2, int(round(ctx.cost.v(b))))
        duration = ctx.cost.diag_update_gpu_time(b, squaring_steps(b_virt))
        yield residency.launch(
            state,
            lambda: state.stream.kernel_time(duration, label, fn),
            up=[(b, b, f"h2d:diag{k}")],
            down=[(b, b, f"d2h:diag{k}")],
        )
    else:
        # The host FW works on the block where it lands, unstaged, and
        # only once the stream work that writes it (a look-ahead fill-in,
        # a staged result) is done.
        yield state.stream.synchronize()
        yield ctx.env.process(
            state.host.fw_diag_host(b, label, fn), name=f"r{state.me}.diag{k}"
        )
    env.diag = payload(state, (k, k))


def _op_diag_bcast(state, residency, env, op):
    if state.in_row(op.k) or state.in_col(op.k):
        env.diag = yield from diag_bcast(state, op.k, env.diag)


def _op_panel_update(state, residency, env, op):
    """``A(k,j) ← A(k,j) ⊕ A(k,k) ⊗ A(k,j)`` over the local j ≠ k (or
    the column form down the pivot column) as one aggregated wide
    kernel (one :func:`panel_grid` call)."""
    ctx, k, axis, b = state.ctx, op.k, op.axis, state.ctx.b
    if axis == "row":
        if not state.in_row(k):
            return
        if op.record_skip:
            env.skip_rows = (k,)
        keys = [(k, j) for j in state.local_cols(exclude=(k,))]
    else:
        if not state.in_col(k):
            return
        if op.record_skip:
            env.skip_cols = (k,)
        keys = [(i, k) for i in state.local_rows(exclude=(k,))]
    if ctx.config.exploit_sparsity:
        keys = [key for key in keys if not is_empty(ctx, state.blocks[key])]
    if not keys:
        return
    m, n = (b, b * len(keys)) if axis == "row" else (b * len(keys), b)
    diag = env.diag
    ev = residency.launch(
        state,
        _kernel(state, m, n, f"PanelUpdate{axis.title()}({k})",
                lambda: panel_grid(state, keys, diag, axis)),
        up=[(b, b, f"h2d:diag{k}"), (m, n, f"h2d:{axis}panel{k}")],
        down=[(m, n, f"d2h:{axis}panel{k}")],
    )
    if residency.panel_waits(op.wait):
        yield ev
    else:
        env.panel_evs.append(ev)


def _op_wait_panel_updates(state, residency, env, op):
    evs, env.panel_evs = env.panel_evs, []
    for ev in evs:
        yield ev


def _op_panel_bcast(state, residency, env, op):
    env.row_panel, env.col_panel = yield from panel_bcast(state, op.k)


def _op_lookahead_diag(state, residency, env, op):
    """Apply OuterUpdate(k) to block (k+1, k+1) only: a 1 x 1 grid in
    the diag phase.  Not waited for - DiagUpdate(k+1) follows it on the
    same stream."""
    k1, b = op.k + 1, state.ctx.b
    row_panel, col_panel = env.row_panel, env.col_panel
    if state.owns_diag(k1) and k1 in col_panel and k1 in row_panel:
        residency.launch(
            state,
            _kernel(state, b, b, f"LookaheadDiag({k1})", lambda: grid_update(
                state, [[(k1, k1)]], [col_panel[k1]], [row_panel[k1]], "diag")),
            up=[(b, 3 * b, f"h2d:lookahead_diag{k1}")],
            down=[(b, b, f"d2h:lookahead_diag{k1}")],
        )
    yield from ()


def _op_lookahead_panel(state, residency, env, op):
    """Apply OuterUpdate(k) to the local (k+1) block row or column
    (local index ∉ {k, k+1}) as one grid in the panel phase:

    * ``axis="row"``: ``A(k+1,j) ⊕= A(k+1,k) ⊗ A(k,j)`` (1 x n)
    * ``axis="col"``: ``A(i,k+1) ⊕= A(i,k) ⊗ A(k,k+1)`` (n x 1)
    """
    ctx, k, axis, b = state.ctx, op.k, op.axis, state.ctx.b
    k1 = k + 1
    row_panel, col_panel = env.row_panel, env.col_panel
    if axis == "row":
        if not (state.in_row(k1) and k1 in col_panel):
            return
        idxs = state.local_cols(exclude=(k, k1))
        if ctx.config.exploit_sparsity:
            idxs = [j for j in idxs if j in row_panel]
        m, n = b, b * len(idxs)

        def fn():
            grid_update(state, [[(k1, j) for j in idxs]], [col_panel[k1]],
                        [row_panel[j] for j in idxs], "panel")

        strip = (2 * b, n)  # the target strip and its A(k, j) operands
    else:
        if not (state.in_col(k1) and k1 in row_panel):
            return
        idxs = state.local_rows(exclude=(k, k1))
        if ctx.config.exploit_sparsity:
            idxs = [i for i in idxs if i in col_panel]
        m, n = b * len(idxs), b

        def fn():
            grid_update(state, [[(i, k1)] for i in idxs], [col_panel[i] for i in idxs],
                        [row_panel[k1]], "panel")

        strip = (m, 2 * b)
    if not idxs:
        return
    env.lookahead_evs.append(residency.launch(
        state,
        _kernel(state, m, n, f"Lookahead{axis.title()}({k1})", fn),
        up=[(b, b, f"h2d:lookahead_diag_piece{k1}"), (*strip, f"h2d:lookahead_{axis}{k1}")],
        down=[(m, n, f"d2h:lookahead_{axis}{k1}")],
    ))
    yield from ()


def _op_wait_lookahead(state, residency, env, op):
    evs, env.lookahead_evs = env.lookahead_evs, []
    if state.ctx.config.exploit_sparsity:
        # The panel updates that follow inspect block emptiness at
        # enqueue time; the look-ahead fill-in must have landed first
        # (stale emptiness would drop blocks).
        for ev in evs:
            yield ev


def _op_outer_update(state, residency, env, op):
    yield from residency.outer_update(state, op.k, op.wait, env)


def _op_wait_outer(state, residency, env, op):
    if env.outer is not None:
        yield env.outer
        env.outer = None


_HANDLERS = {
    ir.Checkpoint: _op_checkpoint,
    ir.DiagUpdate: _op_diag_update,
    ir.DiagBcast: _op_diag_bcast,
    ir.PanelUpdate: _op_panel_update,
    ir.WaitPanelUpdates: _op_wait_panel_updates,
    ir.PanelBcast: _op_panel_bcast,
    ir.LookaheadDiag: _op_lookahead_diag,
    ir.LookaheadPanel: _op_lookahead_panel,
    ir.WaitLookahead: _op_wait_lookahead,
    ir.OuterUpdate: _op_outer_update,
    ir.WaitOuter: _op_wait_outer,
}


def _lower(state: RankState, residency: ResidencyPolicy, env: _IterEnv, op: ir.ScheduleOp):
    """Generator: run one op; with tracing on, record a task-level
    ``op:<Name>`` span when the op consumed simulated time; with
    metrics on, feed the per-phase duration histograms.  Both
    instrumentation paths only read the simulated clock, so makespans
    are identical with them on or off."""
    ctx = state.ctx
    tracer = ctx.tracer
    obs = ctx.obs
    vrt = ctx.verify
    if tracer is None and obs is None:
        yield from _HANDLERS[type(op)](state, residency, env, op)
        if vrt is not None:
            # Op boundary: surface any corruption the guarded kernels
            # could not repair.  Raising here (inside the rank program)
            # reaches the driver's supervisor; raising inside a kernel
            # closure would fail the stream's event and abort the run.
            vrt.raise_pending()
        return
    t0 = ctx.env.now
    yield from _HANDLERS[type(op)](state, residency, env, op)
    t1 = ctx.env.now
    if t1 > t0:
        if tracer is not None:
            k = getattr(op, "k", None)
            label = op.opname if k is None else f"{op.opname}({k})"
            tracer.record(f"rank{state.me}", OP_CATEGORY_PREFIX + op.opname, label, t0, t1)
        if obs is not None:
            obs.histogram(f"phase.{op.opname}").observe(t1 - t0)
    if vrt is not None:
        vrt.raise_pending()


def execute_schedule(
    state: RankState,
    schedule: "ir.SchedulePolicy",
    residency: ResidencyPolicy,
    start_k: int = 0,
):
    """Build the rank program for one (schedule, residency) pair.

    Validates eagerly (so misconfiguration raises at build time, not at
    first resume of the generator) and returns the generator to hand to
    ``env.process``.  ``start_k`` resumes from a checkpoint taken at
    the top of outer iteration ``start_k``; ``start_k == nb`` is a
    completed sweep (the program only drains pending sends).
    """
    nb = state.ctx.nb
    if not isinstance(start_k, int) or isinstance(start_k, bool):
        raise ConfigurationError(f"start_k must be an int, got {start_k!r}")
    if start_k < 0 or start_k > nb:
        raise ConfigurationError(
            f"start_k must be in [0, {nb}] (nb blocks), got {start_k}"
        )
    if state.ctx.verify is not None:
        # (Re)anchor the ABFT guards on this rank's current block
        # arrays: restarts restore fresh copies, and stale guards keyed
        # by the dead arrays' ids must not linger.
        state.ctx.verify.register_rank(state.me, state.blocks)
    return _execute(state, schedule, residency, start_k)


def _execute(state, schedule, residency, start_k):
    nb = state.ctx.nb
    env = _IterEnv()
    for op in schedule.prologue(start_k, nb):
        yield from _lower(state, residency, env, op)
    for k in range(start_k, nb):
        env.reset_iteration()
        for op in schedule.iteration(k, nb):
            yield from _lower(state, residency, env, op)
    yield from state.drain()
    vrt = state.ctx.verify
    if vrt is not None:
        vrt.raise_pending()
    return state.blocks
