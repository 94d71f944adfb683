"""Shared solver context and per-rank state for the distributed variants.

A :class:`FwContext` holds everything common to one distributed run
(simulation environment, cluster, MPI world, cost model, and the
:class:`~repro.core.driver.RunPlan`'s grid, placement, policies and
configuration); a :class:`RankState` holds one rank's view
(its communicators, its blocks, its GPU binding).  The actual rank
*programs* are schedule-IR op streams (:mod:`repro.core.schedule`)
lowered by the single executor (:mod:`repro.core.executor`), which
writes each op's body once and lets a residency policy stage it.  The
pieces here are what those bodies compose: the numerics closures
(:func:`diag_update`, :func:`panel_grid`, :func:`grid_update`), the
collectives (:func:`diag_bcast`, :func:`panel_bcast`) and the
GPU-resident :func:`outer_update` kernel, mirroring the paper's kernel
decomposition (its §2.5.2 list).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ConfigurationError
from ..machine.cluster import SimCluster
from ..machine.cost import CostModel
from ..machine.gpu import CudaStream, SimGPU
from ..machine.host import HostCpu
from ..mpi.collectives import bcast_tree
from ..mpi.comm import Comm, SimMPI
from ..mpi.policy import BcastPolicy
from ..semiring.backends import KernelBackend, get_backend
from ..semiring.minplus import Semiring
from ..sim.engine import Environment, Event
from ..sim.trace import Tracer
from .distribution import LocalBlocks, RankBlocks
from .placement import RankPlacement

if TYPE_CHECKING:
    from ..api import SolveConfig
    from .driver import RunPlan
    from .executor import ResidencyPolicy
    from .schedule import SchedulePolicy

__all__ = [
    "FwContext",
    "RankState",
    "Op",
    "payload",
    "grid_update",
    "diag_update",
    "diag_bcast",
    "panel_grid",
    "panel_bcast",
    "outer_update",
]


class Op:
    """Message-tag opcodes; tag = (k << 3) | op."""

    DIAG_ROW = 0
    DIAG_COL = 1
    PANEL_ROW = 2  # row-panel blocks, broadcast down column comms
    PANEL_COL = 3  # column-panel blocks, broadcast across row comms

    @staticmethod
    def tag(k: int, op: int) -> int:
        return (k << 3) | op


class FwContext:
    """Everything shared by the rank programs of one run."""

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        mpi: SimMPI,
        plan: "RunPlan",
        tracer: Optional[Tracer] = None,
    ):
        if plan.grid.size != mpi.size:
            raise ConfigurationError("grid size != MPI world size")
        self.env = env
        self.cluster = cluster
        self.mpi = mpi
        self.grid = grid = plan.grid
        self.placement: RankPlacement = plan.placement
        #: The caller's :class:`~repro.api.SolveConfig`, read for the
        #: pass-through options (``track_paths``, ``n_streams``, ...).
        self.config: "SolveConfig" = plan.config
        self.b: int = plan.b
        self.nb: int = plan.nb
        self.semiring: Semiring = plan.semiring
        #: The plan's resolved policies (one row of
        #: :data:`repro.core.variants.VARIANTS`).  OOM degradation swaps
        #: ``residency`` (and the landed row's ``bcast_policy``) between
        #: epochs; the schedule shape never changes mid-run.
        self.schedule: "SchedulePolicy" = plan.schedule
        self.residency: "ResidencyPolicy" = plan.residency
        self.bcast_policy: BcastPolicy = plan.bcast
        self.tracer = tracer
        self.cost: CostModel = cluster.cost
        #: Resolved SrGemm kernel backend for this run (resolution
        #: happens once, here, so every rank program and the offload
        #: pipeline agree on one kernel).
        self.backend: KernelBackend = get_backend(plan.config.kernel_backend)
        # The byte budget is configuration too: a malformed
        # $REPRO_SRGEMM_BYTE_BUDGET is a ConfigurationError here, whether
        # or not this backend's kernels ever read it (cnative's grids and
        # panel grids do not).
        self.backend.resolved_byte_budget()
        #: Fault-injection runtime
        #: (:class:`~repro.faults.injector.FaultRuntime`) when the run
        #: is armed; None keeps every hook on its zero-cost path.
        self.faults = None
        #: ABFT verification runtime
        #: (:class:`~repro.verify.runtime.VerifyRuntime`) when
        #: ``config.verify != "off"``; None keeps every verification
        #: hook on its zero-cost path, mirroring ``faults``.  Set by the
        #: driver, which also swaps ``backend`` for the checksummed
        #: wrapper.
        self.verify = None
        #: Observability registry
        #: (:class:`~repro.obs.metrics.MetricsRegistry`) when the run
        #: was armed with ``metrics=True``; None keeps every
        #: instrumentation hook on its zero-cost path, mirroring
        #: ``faults`` / ``verify``.  Set by the driver, which also
        #: swaps ``backend`` for the flop-metering wrapper.
        self.obs = None
        #: Logical->physical node remap (list indexed by the
        #: placement's node id); set by the scheduler's resilience
        #: layer so a retried job lands on healthy nodes instead of the
        #: quarantined ones its placement would name.  None = identity
        #: (every unscheduled run, and all of PR 8's behaviour).
        self.node_map = None
        self.world = mpi.world()
        #: Unlocalized row/column communicators, by grid row/col index.
        self.row_comms = [Comm(mpi, grid.row_ranks(r), me=None) for r in range(grid.pr)]
        self.col_comms = [Comm(mpi, grid.col_ranks(c), me=None) for c in range(grid.pc)]

    def node_of(self, rank: int) -> int:
        """The rank's *physical* node: the placement's node id routed
        through ``node_map`` when the scheduler remapped the job."""
        node = self.placement.node_of(rank)
        if self.node_map is not None:
            node = self.node_map[node]
        return node

    def gpu_of(self, rank: int) -> SimGPU:
        """Bind a rank to a GPU of its node (round-robin over the
        node's GPUs, so e.g. 12 ranks on a 6-GPU node pair up 2:1 as
        the paper's runs do)."""
        node = self.cluster.nodes[self.node_of(rank)]
        local = self.placement.local_index(rank)
        return node.gpus[local % len(node.gpus)]

    def host_of(self, rank: int) -> HostCpu:
        return self.cluster.nodes[self.node_of(rank)].host


class RankState:
    """One rank's working state during a run."""

    def __init__(
        self,
        ctx: FwContext,
        me: int,
        blocks: LocalBlocks,
        nxt: Optional[LocalBlocks] = None,
    ):
        self.ctx = ctx
        self.me = me
        self.row, self.col = ctx.grid.coords(me)
        #: The rank's blocks as views of its local matrix, a
        #: :class:`RankBlocks`; a map of block arrays (a restored
        #: checkpoint) is copied into a new one.  A map that is not this
        #: rank's whole set of b x b blocks stays as it is, and its grids
        #: take the list path.
        self.blocks = RankBlocks.gather(blocks, self.local_rows(), self.local_cols())
        #: Next-hop pointer blocks (same keys as ``blocks``) when the
        #: run tracks paths; None otherwise.
        self.nxt = nxt
        self.world = ctx.world.localize(me)
        self.row_comm = ctx.row_comms[self.row].localize(me)
        self.col_comm = ctx.col_comms[self.col].localize(me)
        self.gpu: SimGPU = ctx.gpu_of(me)
        self.stream: CudaStream = self.gpu.stream(f"r{me}.main", tracer=ctx.tracer)
        self.host: HostCpu = ctx.host_of(me)
        #: Outstanding async sends (ring relays) to drain at the end.
        self.pending: list[Event] = []
        #: bytes of HBM charged at setup, to release at teardown.
        self.hbm_charged = 0
        #: bytes of host DRAM charged at setup (offload runs).
        self.dram_charged = 0
        #: Highest outer iteration this rank has entered (maintained by
        #: the checkpoint hook on armed runs; -1 before the first).
        self.cur_k = -1

    # -- local index helpers ------------------------------------------------
    def local_rows(self, exclude: tuple[int, ...] = ()) -> list[int]:
        return [
            i
            for i in self.ctx.grid.local_block_rows(self.me, self.ctx.nb)
            if i not in exclude
        ]

    def local_cols(self, exclude: tuple[int, ...] = ()) -> list[int]:
        return [
            j
            for j in self.ctx.grid.local_block_cols(self.me, self.ctx.nb)
            if j not in exclude
        ]

    def in_row(self, k: int) -> bool:
        """Am I in process row P_r(k)?"""
        return self.row == k % self.ctx.grid.pr

    def in_col(self, k: int) -> bool:
        return self.col == k % self.ctx.grid.pc

    def owns_diag(self, k: int) -> bool:
        return self.in_row(k) and self.in_col(k)

    def drain(self):
        """Generator: wait for outstanding async sends."""
        pending, self.pending = self.pending, []
        for ev in pending:
            yield ev


# ---------------------------------------------------------------------------
# Operation building blocks (generators run inside a rank program)
# ---------------------------------------------------------------------------


def maybe(ctx: FwContext, fn):
    """Return ``fn`` unless the run is hollow (cost-only)."""
    return fn if ctx.config.compute_numerics else None


def is_empty(ctx: FwContext, blk: np.ndarray) -> bool:
    """True when a block carries no information (all entries are the
    semiring ⊕-identity), so products with it are identities and it
    need not travel or be multiplied."""
    return bool(np.all(blk == ctx.semiring.zero))


def payload(state: RankState, key: tuple[int, int]):
    """Block ``key`` as a left operand - the diagonal and column-panel
    broadcast payloads, a grid's row operands: the distance block,
    paired with its next-hop block when the run tracks paths.  (An
    update's new first hop is its left operand's, so right operands -
    row panels - travel as distances only.)"""
    blk = state.blocks[key]
    return blk if state.nxt is None else (blk, state.nxt[key])


def _split(p) -> tuple:
    """``(distances, next hops or None)`` of a :func:`payload`."""
    return p if isinstance(p, tuple) else (p, None)


def _copy(p):
    """A :func:`payload`'s alias-free snapshot."""
    return tuple(x.copy() for x in p) if isinstance(p, tuple) else p.copy()


def _hop_operand(state: RankState, keys: list, a_payloads: list) -> tuple:
    """``(row operands, hops)`` of a grid over this rank's blocks
    ``keys`` with row operands ``a_payloads``: the payloads and None on
    an untracked run; else their distances and the ``hops=`` operand."""
    if state.nxt is None:
        return a_payloads, None
    a_rows, a_hops = zip(*a_payloads)
    return list(a_rows), ([[state.nxt[key] for key in row] for row in keys], list(a_hops))


def grid_update(state: RankState, keys: list, a_payloads: list, b_cols: list, phase: str) -> None:
    """``A(key) ← A(key) ⊕ A_i ⊗ B_j`` over a grid of this rank's blocks
    (``keys``: one row of block keys per row operand, one key per
    column operand in each, an outer product of block rows and block
    columns; each row operand a :func:`payload`) as **one**
    kernel-waist call, next hops included on a tracked run.
    Blocks of a local matrix reach the waist by position, as a
    :class:`~repro.semiring.backends.base.TileGrid`."""
    ctx = state.ctx
    blocks = state.blocks
    a_rows, hops = _hop_operand(state, keys, a_payloads)
    ctx.backend.srgemm_grid(
        blocks.grid(keys) if isinstance(blocks, RankBlocks)
        else [[blocks[key] for key in row] for row in keys],
        a_rows,
        b_cols,
        semiring=ctx.semiring,
        phase=phase,
        hops=hops,
    )


def diag_update(state: RankState, k: int):
    """DiagUpdate(k)'s numerics, as a closure: the in-place
    Floyd-Warshall closure of the owner's block (k, k), next hops
    included on a tracked run.  Caller must own block (k, k)."""
    ctx = state.ctx
    blk, hops = _split(payload(state, (k, k)))

    def fn():
        ctx.backend.fw_closure(blk, semiring=ctx.semiring, hops=hops)

    if ctx.verify is not None:
        # Checksums do not distribute over the O(b³) closure; the guard
        # checks the pivot block's stored sums and monotonicity instead.
        fn = ctx.verify.wrap_closure(blk, fn)
    return fn


def diag_bcast(state: RankState, k: int, diag):
    """Generator: DiagBcast(k) - the owner broadcasts its :func:`payload`
    of A(k,k) along its process row and its process column (binomial
    tree; small message on the critical path, §3.3).  Participants must
    be in P_r(k) or P_c(k); returns the diagonal payload.
    """
    grid = state.ctx.grid
    krow, kcol = k % grid.pr, k % grid.pc
    got = diag
    if state.in_row(k):
        got = yield from bcast_tree(
            state.row_comm, root=kcol, payload=got, tag=Op.tag(k, Op.DIAG_ROW)
        )
    if state.in_col(k):
        got_col = yield from bcast_tree(
            state.col_comm,
            root=krow,
            payload=got if state.owns_diag(k) else None,
            tag=Op.tag(k, Op.DIAG_COL),
        )
        if got is None:
            got = got_col
    return got


def panel_grid(state: RankState, keys: list, diag, axis: str) -> None:
    """PanelUpdate numerics over this rank's panel blocks ``keys`` as
    **one** grid product in the panel phase: ``P ← P ⊕ D ⊗ S`` along the
    pivot row (``axis="row"``, a 1 x n grid) or ``P ← P ⊕ S ⊗ D`` down
    the pivot column (n x 1); ``diag`` is the diagonal :func:`payload`.
    Each block is both accumulator and operand, so a copy ``S`` of each
    (with its next hops, where it is the left operand) is the alias-free
    operand."""
    if axis == "row":
        snaps = [state.blocks[key].copy() for key in keys]
        grid_update(state, [keys], [diag], snaps, "panel")
    else:
        snaps = [_copy(payload(state, key)) for key in keys]
        grid_update(state, [[key] for key in keys], snaps, [_split(diag)[0]], "panel")


def panel_bcast(state: RankState, k: int):
    """Generator: PanelBcast(k).

    Every rank participates in exactly two broadcasts (the two terms of
    the paper's Eq. 1 communication cost):

    * its *column* communicator carries the row-panel blocks
      ``{j ≡ my col : A(k, j)}`` (root: the rank in process row P_r(k));
    * its *row* communicator carries the column-panel blocks
      ``{i ≡ my row : A(i, k)}`` (root: the rank in process col P_c(k)).

    Returns ``(row_panel, col_panel)`` dicts keyed by block index.
    Ring relays (when configured) are parked on ``state.pending``.
    """
    ctx = state.ctx
    grid = ctx.grid
    krow, kcol = k % grid.pr, k % grid.pc

    sparse = ctx.config.exploit_sparsity
    row_payload = None
    if state.in_row(k):
        # Row panels multiply from the *right* in the outer product, so
        # their pointers are never consulted: distances only.
        row_payload = {
            j: state.blocks[(k, j)]
            for j in state.local_cols(exclude=(k,))
            if not (sparse and is_empty(ctx, state.blocks[(k, j)]))
        }
    col_payload = None
    if state.in_col(k):
        # Column panels are the left operand: their next-hop blocks ride
        # along on a tracked run (the communication cost of paths).
        col_payload = {
            i: payload(state, (i, k))
            for i in state.local_rows(exclude=(k,))
            if not (sparse and is_empty(ctx, state.blocks[(i, k)]))
        }

    policy = ctx.bcast_policy
    row_panel, relay1 = yield from policy.bcast(
        state.col_comm, root=krow, payload=row_payload, tag=Op.tag(k, Op.PANEL_ROW)
    )
    col_panel, relay2 = yield from policy.bcast(
        state.row_comm, root=kcol, payload=col_payload, tag=Op.tag(k, Op.PANEL_COL)
    )
    # Asynchronous relays (ring policy) are parked until end-of-program
    # drain; synchronous strategies return None.
    for relay in (relay1, relay2):
        if relay is not None:
            state.pending.append(relay)
    return row_panel, col_panel


def outer_update(
    state: RankState,
    k: int,
    row_panel: dict,
    col_panel: dict,
    skip_rows: tuple[int, ...] = (),
    skip_cols: tuple[int, ...] = (),
) -> Optional[Event]:
    """Enqueue OuterUpdate(k) on this rank's local blocks:
    ``A(i,j) ← A(i,j) ⊕ A(i,k) ⊗ A(k,j)`` for local i, j ∉ {k} ∪ skip.

    Charged as one aggregated SrGemm of shape
    (b·|rows|, b·|cols|, b) - the fat local outer product one kernel
    launch performs.  Returns the completion event (None if nothing to
    do)."""
    ctx = state.ctx
    rows = state.local_rows(exclude=(k, *skip_rows))
    cols = state.local_cols(exclude=(k, *skip_cols))
    if ctx.config.exploit_sparsity:
        # A missing panel block is all-zero (⊕-identity): its products
        # contribute nothing, so the whole row/column of updates drops.
        rows = [i for i in rows if i in col_panel]
        cols = [j for j in cols if j in row_panel]
    if not rows or not cols:
        return None
    b = ctx.b

    def fn():
        # One grid product, as the one kernel launch it is charged as.
        grid_update(
            state,
            [[(i, j) for j in cols] for i in rows],
            [col_panel[i] for i in rows],
            [row_panel[j] for j in cols],
            "outer",
        )

    return state.stream.kernel(
        b * len(rows),
        b * len(cols),
        b,
        f"OuterUpdate({k})",
        maybe(ctx, fn),
        cost_scale=ctx.backend.modeled_cost_scale,
    )
