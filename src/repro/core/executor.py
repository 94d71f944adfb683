"""Single executor: lowers a schedule-IR op stream onto the sim engine.

:func:`execute_schedule` replaces the three hand-written rank programs
(baseline / pipelined / offload).  It walks the op lists emitted by a
:class:`~repro.core.schedule.SchedulePolicy` and dispatches each typed
op to a small handler; residency-dependent ops (where the distance
matrix lives: HBM vs host DRAM) go through a :class:`ResidencyPolicy`,
and ``PanelBcast`` goes through the context's
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
from ..sim.engine import Event
from ..sim.trace import OP_CATEGORY_PREFIX
from . import schedule as ir
from .context import (
    RankState,
    diag_bcast,
    diag_update,
    grid_update,
    maybe,
    outer_update,
    panel_bcast,
    panel_grid,
    panel_update_col,
    panel_update_row,
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


# ---------------------------------------------------------------------------
# Shared row/col-parameterized kernel helpers
# ---------------------------------------------------------------------------


def _lookahead_fill(state: RankState, k: int, axis: str, row_panel, col_panel, idxs=()):
    """Numerics of a look-ahead kernel (either residency), as one grid
    product: block (k+1, k+1) (``axis="diag"``, a 1 x 1 grid in the diag
    phase), or the (k+1) block row (``"row"``, 1 x nc) or column
    (``"col"``, nr x 1) over local indices ``idxs`` in the panel phase."""
    k1 = k + 1
    if axis == "diag":
        return lambda: grid_update(state, [[(k1, k1)]], [col_panel[k1]], [row_panel[k1]], "diag")
    if axis == "row":
        return lambda: grid_update(
            state, [[(k1, j) for j in idxs]], [col_panel[k1]], [row_panel[j] for j in idxs], "panel"
        )
    return lambda: grid_update(
        state, [[(i, k1)] for i in idxs], [col_panel[i] for i in idxs], [row_panel[k1]], "panel"
    )


def _lookahead_diag(state: RankState, k: int, row_panel, col_panel):
    """Kernel: apply OuterUpdate(k) to block (k+1, k+1) only."""
    ctx = state.ctx
    fn = _lookahead_fill(state, k, "diag", row_panel, col_panel)
    return state.stream.kernel(
        ctx.b,
        ctx.b,
        ctx.b,
        f"LookaheadDiag({k + 1})",
        maybe(ctx, fn),
        cost_scale=ctx.backend.modeled_cost_scale,
    )


def _lookahead_panel(state: RankState, k: int, axis: ir.Axis, row_panel, col_panel):
    """Kernel: apply OuterUpdate(k) to the (k+1) block row or column
    (local index ∉ {k, k+1}):

    * ``axis="row"``: ``A(k+1,j) ⊕= A(k+1,k) ⊗ A(k,j)``
    * ``axis="col"``: ``A(i,k+1) ⊕= A(i,k) ⊗ A(k,k+1)``
    """
    ctx = state.ctx
    b = ctx.b
    if axis == "row":
        idxs = state.local_cols(exclude=(k, k + 1))
        if ctx.config.exploit_sparsity:
            idxs = [j for j in idxs if j in row_panel]
    else:
        idxs = state.local_rows(exclude=(k, k + 1))
        if ctx.config.exploit_sparsity:
            idxs = [i for i in idxs if i in col_panel]
    if not idxs:
        return None

    fn = _lookahead_fill(state, k, axis, row_panel, col_panel, idxs)
    if axis == "row":
        m, n = b, b * len(idxs)
        label = f"LookaheadRow({k + 1})"
    else:
        m, n = b * len(idxs), b
        label = f"LookaheadCol({k + 1})"

    return state.stream.kernel(
        m, n, b, label, maybe(ctx, fn), cost_scale=ctx.backend.modeled_cost_scale
    )


def _staged_panel_update(state: RankState, k: int, axis: ir.Axis, diag: np.ndarray):
    """Generator: PanelUpdate with host<->device staging; completes when
    the updated panel is back on the host (ready to broadcast)."""
    ctx = state.ctx
    b = ctx.b
    idxs = state.local_cols(exclude=(k,)) if axis == "row" else state.local_rows(exclude=(k,))
    if not idxs:
        return
    s = state.stream
    s.h2d(b, b, label=f"h2d:diag{k}")
    if axis == "row":
        s.h2d(b, b * len(idxs), label=f"h2d:rowpanel{k}")

        def fn():
            panel_grid(state, [(k, j) for j in idxs], diag, "row")

        m, n = b, b * len(idxs)
        label = f"PanelUpdateRow({k})"
    else:
        s.h2d(b * len(idxs), b, label=f"h2d:colpanel{k}")

        def fn():
            panel_grid(state, [(i, k) for i in idxs], diag, "col")

        m, n = b * len(idxs), b
        label = f"PanelUpdateCol({k})"
    s.kernel(m, n, b, label, maybe(ctx, fn), cost_scale=ctx.backend.modeled_cost_scale)
    if axis == "row":
        s.d2h(b, b * len(idxs), label=f"d2h:rowpanel{k}")
    else:
        s.d2h(b * len(idxs), b, label=f"d2h:colpanel{k}")
    yield s.synchronize()


def _staged_lookahead_diag(state: RankState, k: int, row_panel, col_panel) -> None:
    """Host-resident look-ahead fill-in of block (k+1, k+1): stage the
    two pivot-panel pieces plus the target block up, run the (b,b,b)
    SrGemm, return the result.  Enqueue-only: the staged DiagUpdate(k+1)
    that always follows synchronizes the stream."""
    ctx = state.ctx
    b = ctx.b
    s = state.stream
    fn = _lookahead_fill(state, k, "diag", row_panel, col_panel)
    s.h2d(b, 3 * b, label=f"h2d:lookahead_diag{k + 1}")
    s.kernel(b, b, b, f"LookaheadDiag({k + 1})", maybe(ctx, fn),
             cost_scale=ctx.backend.modeled_cost_scale)
    s.d2h(b, b, label=f"d2h:lookahead_diag{k + 1}")


def _staged_lookahead_panel(state: RankState, k: int, axis: ir.Axis, row_panel, col_panel):
    """Host-resident look-ahead update of the (k+1) block row/column:
    stage the panel strip and its pivot pieces, run the aggregated
    SrGemm, land the strip back on the host.  Returns the d2h event
    (None if no local blocks)."""
    ctx = state.ctx
    b = ctx.b
    s = state.stream
    if axis == "row":
        idxs = state.local_cols(exclude=(k, k + 1))
        if not idxs:
            return None
        fn = _lookahead_fill(state, k, axis, row_panel, col_panel, idxs)
        # Target strip + the A(k,j) operand strip up; updated strip down.
        s.h2d(b, b, label=f"h2d:lookahead_diag_piece{k + 1}")
        s.h2d(2 * b, b * len(idxs), label=f"h2d:lookahead_row{k + 1}")
        s.kernel(b, b * len(idxs), b, f"LookaheadRow({k + 1})", maybe(ctx, fn),
                 cost_scale=ctx.backend.modeled_cost_scale)
        return s.d2h(b, b * len(idxs), label=f"d2h:lookahead_row{k + 1}")

    idxs = state.local_rows(exclude=(k, k + 1))
    if not idxs:
        return None
    fn = _lookahead_fill(state, k, axis, row_panel, col_panel, idxs)
    s.h2d(b, b, label=f"h2d:lookahead_diag_piece{k + 1}")
    s.h2d(b * len(idxs), 2 * b, label=f"h2d:lookahead_col{k + 1}")
    s.kernel(b * len(idxs), b, b, f"LookaheadCol({k + 1})", maybe(ctx, fn),
             cost_scale=ctx.backend.modeled_cost_scale)
    return s.d2h(b * len(idxs), b, label=f"d2h:lookahead_col{k + 1}")


def _chunks(items: list, size: int) -> list:
    return [items[i : i + size] for i in range(0, len(items), size)]


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
    pieces are h2d'd on first use, keyed per (iteration, side, chunk)."""
    ctx = state.ctx
    cfg = ctx.config
    b = ctx.b
    semiring = ctx.semiring
    vrt = ctx.verify
    rt = ctx.faults
    # Pending target=oog memflip for this (rank, k): corrupts the first
    # tile's staged buffer between compute and apply, modeling an upset
    # during the d2h transfer / host residence of the product.
    oog_bits = 0
    if rt is not None and rt.injector.plan.memory_faults:
        oog_bits = rt.injector.take_oog_flip(state.me, k)
    row_chunks = _chunks(state.local_rows(exclude=(k, *skip_rows)), cfg.mx_blocks)
    col_chunks = _chunks(state.local_cols(exclude=(k, *skip_cols)), cfg.nx_blocks)
    tiles: list[TileTask] = []
    for ci, rows in enumerate(row_chunks):
        for cj, cols in enumerate(col_chunks):
            h2d = []
            if cj == 0:
                h2d.append(((k, "A", ci), b * len(rows), b))
            if ci == 0:
                h2d.append(((k, "B", cj), b, b * len(cols)))

            def compute(rows=rows, cols=cols):
                a = np.vstack([col_panel[i] for i in rows])
                bmat = np.hstack([row_panel[j] for j in cols])
                x = semiring.zeros((a.shape[0], bmat.shape[1]), dtype=a.dtype)
                return ctx.backend.srgemm_outer(x, a, bmat, semiring=semiring)

            clean_compute = compute
            if oog_bits:

                def compute(base=clean_compute, bits=oog_bits):
                    x = base()
                    inj = ctx.faults.injector
                    if inj.flip_entries(x, bits):
                        inj.count("faults.oog_flips")
                    return x

                oog_bits = 0  # one upset per fault, on the first tile

            if vrt is None:

                def apply(x, rows=rows, cols=cols):
                    for ri, i in enumerate(rows):
                        for rj, j in enumerate(cols):
                            blk = state.blocks[(i, j)]
                            semiring.plus(
                                blk, x[ri * b : (ri + 1) * b, rj * b : (rj + 1) * b], out=blk
                            )

            else:
                # The clean compute closure is retained for localized
                # repair: a corrupted staged tile is simply re-executed.

                def apply(x, rows=rows, cols=cols, recompute=clean_compute):
                    x = vrt.verify_staged(x, recompute=recompute)
                    for ri, i in enumerate(rows):
                        for rj, j in enumerate(cols):
                            vrt.guarded_merge(
                                state.blocks[(i, j)],
                                x[ri * b : (ri + 1) * b, rj * b : (rj + 1) * b],
                            )

            tiles.append(
                TileTask(
                    m=b * len(rows),
                    n=b * len(cols),
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
    rank charges for it and how each residency-dependent op lowers.
    The op methods are generators run inside the executor's rank
    program."""

    name: str = "abstract"

    def footprint(self, cost, b: int, rows: int, cols: int, config) -> tuple[int, int]:
        """``(hbm_bytes, dram_bytes)`` (virtual) one rank holding
        ``rows x cols`` local blocks of size ``b`` charges at setup -
        the one formula behind the driver's state builders (where
        Figure 7's feasibility wall comes from) and the scheduler's
        admission pricing.  ``config`` is the run's
        :class:`~repro.api.SolveConfig`."""
        raise NotImplementedError

    def diag_update(self, state: RankState, k: int):
        """DiagUpdate(k) on the owner; completes before returning."""
        raise NotImplementedError

    def panel_update(self, state: RankState, k: int, axis: ir.Axis, diag, wait: bool, env):
        raise NotImplementedError

    def lookahead_diag(self, state: RankState, k: int, env):
        raise NotImplementedError

    def lookahead_panel(self, state: RankState, k: int, axis: ir.Axis, env):
        raise NotImplementedError

    def outer_update(self, state: RankState, k: int, wait: bool, env):
        raise NotImplementedError


class GpuResident(ResidencyPolicy):
    """Distance matrix in HBM: ops are plain stream kernels."""

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

    def diag_update(self, state, k):
        yield diag_update(state, k)

    def panel_update(self, state, k, axis, diag, wait, env):
        ev = (
            panel_update_row(state, k, diag)
            if axis == "row"
            else panel_update_col(state, k, diag)
        )
        if wait:
            if ev is not None:
                yield ev
        else:
            env.panel_evs.append(ev)

    def lookahead_diag(self, state, k, env):
        if (k + 1) in env.col_panel and (k + 1) in env.row_panel:
            _lookahead_diag(state, k, env.row_panel, env.col_panel)
        yield from ()

    def lookahead_panel(self, state, k, axis, env):
        have = (k + 1) in (env.col_panel if axis == "row" else env.row_panel)
        if have:
            env.lookahead_evs.append(
                _lookahead_panel(state, k, axis, env.row_panel, env.col_panel)
            )
        yield from ()

    def outer_update(self, state, k, wait, env):
        ev = outer_update(state, k, env.row_panel, env.col_panel, env.skip_rows, env.skip_cols)
        if wait:
            if ev is not None:
                yield ev
        else:
            env.outer = ev
        yield from ()


class HostResident(ResidencyPolicy):
    """Me-ParallelFw (§4.3): distance matrix in host DRAM.  DiagUpdate
    and PanelUpdate stage operands up and results back; OuterUpdate
    streams the matrix through the ooGSrGemm pipeline.  Look-ahead ops
    stage the (k+1) strips the same way, which is what lets the
    look-ahead schedule compose with offload (pipelined Me-ParallelFw -
    the combination the paper never evaluates)."""

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

    def diag_update(self, state, k):
        b = state.ctx.b
        state.stream.h2d(b, b, label=f"h2d:diag{k}")
        diag_update(state, k)  # enqueues the squaring-chain kernel
        state.stream.d2h(b, b, label=f"d2h:diag{k}")
        yield state.stream.synchronize()

    def panel_update(self, state, k, axis, diag, wait, env):
        # Staging ends in a stream synchronize either way, so the wait
        # flag is moot: the panel must be host-side before its bcast.
        yield from _staged_panel_update(state, k, axis, diag)

    def lookahead_diag(self, state, k, env):
        if (k + 1) in env.col_panel and (k + 1) in env.row_panel:
            _staged_lookahead_diag(state, k, env.row_panel, env.col_panel)
        yield from ()

    def lookahead_panel(self, state, k, axis, env):
        have = (k + 1) in (env.col_panel if axis == "row" else env.row_panel)
        if have:
            env.lookahead_evs.append(
                _staged_lookahead_panel(state, k, axis, env.row_panel, env.col_panel)
            )
        yield from ()

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


def _op_diag_update(state, residency, env, op):
    env.diag = None
    if state.owns_diag(op.k):
        yield from residency.diag_update(state, op.k)
        env.diag = payload(state, (op.k, op.k))


def _op_diag_bcast(state, residency, env, op):
    if state.in_row(op.k) or state.in_col(op.k):
        env.diag = yield from diag_bcast(state, op.k, env.diag)


def _op_panel_update(state, residency, env, op):
    if op.axis == "row":
        if not state.in_row(op.k):
            return
        if op.record_skip:
            env.skip_rows = (op.k,)
    else:
        if not state.in_col(op.k):
            return
        if op.record_skip:
            env.skip_cols = (op.k,)
    yield from residency.panel_update(state, op.k, op.axis, env.diag, op.wait, env)


def _op_wait_panel_updates(state, residency, env, op):
    evs, env.panel_evs = env.panel_evs, []
    for ev in evs:
        if ev is not None:
            yield ev


def _op_panel_bcast(state, residency, env, op):
    env.row_panel, env.col_panel = yield from panel_bcast(state, op.k)


def _op_lookahead_diag(state, residency, env, op):
    if state.owns_diag(op.k + 1):
        yield from residency.lookahead_diag(state, op.k, env)


def _op_lookahead_panel(state, residency, env, op):
    in_panel = state.in_row(op.k + 1) if op.axis == "row" else state.in_col(op.k + 1)
    if in_panel:
        yield from residency.lookahead_panel(state, op.k, op.axis, env)


def _op_wait_lookahead(state, residency, env, op):
    evs, env.lookahead_evs = env.lookahead_evs, []
    if state.ctx.config.exploit_sparsity:
        # The panel updates that follow inspect block emptiness at
        # enqueue time; the look-ahead fill-in must have landed first
        # (stale emptiness would drop blocks).
        for ev in evs:
            if ev is not None:
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
