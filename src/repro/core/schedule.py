"""Schedule IR: typed per-iteration op DAGs built by composable policies.

The paper's solver variants are orthogonal policy choices - schedule
shape (bulk-synchronous Algorithm 3 vs look-ahead Algorithm 4),
broadcast strategy (tree vs ring, §3.3), placement (§3.4), and memory
residency (Me-ParallelFw, §4).  Instead of hand-writing one rank
program per combination, a :class:`SchedulePolicy` emits each outer
iteration as a small list of typed ops and a single executor
(:mod:`repro.core.executor`) lowers them onto the sim engine through a
:class:`~repro.core.executor.ResidencyPolicy`.  The broadcast axis
lives in :mod:`repro.mpi.policy` and is consulted by the ``PanelBcast``
lowering.

The ops are deliberately coarse - one op per paper kernel/collective
(§2.5.2) plus explicit ``Wait*`` barriers - so a schedule reads like
the paper's pseudocode and the dependency structure (what may overlap
what) is visible in the op stream rather than buried in generator
control flow.

Ops are frozen dataclasses: a schedule is pure data, inspectable and
testable without a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal

__all__ = [
    "Axis",
    "ScheduleOp",
    "Checkpoint",
    "DiagUpdate",
    "DiagBcast",
    "PanelUpdate",
    "WaitPanelUpdates",
    "PanelBcast",
    "LookaheadDiag",
    "LookaheadPanel",
    "WaitLookahead",
    "OuterUpdate",
    "WaitOuter",
    "SchedulePolicy",
    "BulkSyncSchedule",
    "LookaheadSchedule",
    "BULK_SYNC",
    "LOOKAHEAD",
]

#: Which side of the cross a panel op works on: the k-th block row
#: ("row") or the k-th block column ("col").
Axis = Literal["row", "col"]


@dataclass(frozen=True)
class ScheduleOp:
    """Base class of all IR ops."""

    @property
    def opname(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Checkpoint(ScheduleOp):
    """Top-of-iteration checkpoint/fault hook (zero-cost unarmed)."""

    k: int


@dataclass(frozen=True)
class DiagUpdate(ScheduleOp):
    """Closure of block (k, k) on its owner; waited for (the bcast
    needs the result)."""

    k: int


@dataclass(frozen=True)
class DiagBcast(ScheduleOp):
    """Owner broadcasts A(k,k) along its process row and column
    (always the binomial tree: small message on the critical path)."""

    k: int


@dataclass(frozen=True)
class PanelUpdate(ScheduleOp):
    """Update the local pieces of the k-th block row or column with the
    diagonal.  ``wait=True`` blocks until the kernel completes
    (bulk-synchronous); ``wait=False`` enqueues and parks the event for
    a later :class:`WaitPanelUpdates`.  ``record_skip`` marks the axis
    as already updated so ``OuterUpdate`` excludes it (the look-ahead
    schedule's k+1 panels)."""

    k: int
    axis: Axis
    wait: bool = True
    record_skip: bool = False


@dataclass(frozen=True)
class WaitPanelUpdates(ScheduleOp):
    """Barrier: wait for every parked ``PanelUpdate(wait=False)``."""


@dataclass(frozen=True)
class PanelBcast(ScheduleOp):
    """Two one-to-all broadcasts (Eq. 1): row panel down the column
    communicator, column panel across the row communicator.  Strategy
    comes from the context's :class:`~repro.mpi.policy.BcastPolicy`."""

    k: int


@dataclass(frozen=True)
class LookaheadDiag(ScheduleOp):
    """Apply OuterUpdate(k) to block (k+1, k+1) only, so DiagUpdate(k+1)
    can run before the bulk outer product (Algorithm 4's look-ahead)."""

    k: int


@dataclass(frozen=True)
class LookaheadPanel(ScheduleOp):
    """Apply OuterUpdate(k) to the local (k+1) block row/column only."""

    k: int
    axis: Axis


@dataclass(frozen=True)
class WaitLookahead(ScheduleOp):
    """Barrier on the parked look-ahead kernels - only enforced under
    ``exploit_sparsity``, where the panel updates inspect block
    emptiness at enqueue time and stale fill-in would drop blocks;
    otherwise stream ordering already serializes them."""


@dataclass(frozen=True)
class OuterUpdate(ScheduleOp):
    """The bulk rank-b update of all remaining local blocks.
    ``wait=True`` is Algorithm 3's bulk-synchronous step; ``wait=False``
    launches asynchronously so PanelBcast(k+1) rides under it, to be
    joined by :class:`WaitOuter`."""

    k: int
    wait: bool = True


@dataclass(frozen=True)
class WaitOuter(ScheduleOp):
    """Barrier: join the asynchronous ``OuterUpdate(wait=False)``."""


# ---------------------------------------------------------------------------
# Schedule policies
# ---------------------------------------------------------------------------


class SchedulePolicy:
    """Emits the op DAG of one rank program, iteration by iteration."""

    name: str = "abstract"

    def prologue(self, start_k: int, nb: int) -> List[ScheduleOp]:
        """Ops run once before the main loop (pipeline wind-up)."""
        return []

    def iteration(self, k: int, nb: int) -> List[ScheduleOp]:
        """Ops of outer iteration ``k``."""
        raise NotImplementedError

    def ops(self, start_k: int, nb: int):
        """The full op stream of a run - for inspection and docs."""
        yield from self.prologue(start_k, nb)
        for k in range(start_k, nb):
            yield from self.iteration(k, nb)


class BulkSyncSchedule(SchedulePolicy):
    """Algorithm 3: DiagUpdate → DiagBcast → PanelUpdate → PanelBcast →
    OuterUpdate, every step waited for before the next iteration."""

    name = "bulk-sync"

    def iteration(self, k: int, nb: int) -> List[ScheduleOp]:
        return [
            Checkpoint(k),
            DiagUpdate(k),
            DiagBcast(k),
            PanelUpdate(k, "row", wait=True),
            PanelUpdate(k, "col", wait=True),
            PanelBcast(k),
            OuterUpdate(k, wait=True),
        ]


class LookaheadSchedule(SchedulePolicy):
    """Algorithm 4: iteration k brings the (k+1) panels up to date
    (look-ahead fill-in, DiagUpdate/DiagBcast/PanelUpdate of k+1), then
    launches the bulk OuterUpdate(k) asynchronously and participates in
    PanelBcast(k+1) while it runs - the broadcast rides under the outer
    product.

    On resume (``start_k > 0``) the checkpointed state already carries
    the iteration-``start_k`` diag/panel updates (applied by the
    look-ahead phase of ``start_k - 1`` before the checkpoint), so the
    prologue only re-broadcasts the already-updated panels.
    """

    name = "look-ahead"

    def prologue(self, start_k: int, nb: int) -> List[ScheduleOp]:
        ops: List[ScheduleOp] = []
        if start_k == 0:
            ops += [
                DiagUpdate(0),
                DiagBcast(0),
                PanelUpdate(0, "row", wait=True),
                PanelUpdate(0, "col", wait=True),
            ]
        if start_k < nb:
            ops.append(PanelBcast(start_k))
        return ops

    def iteration(self, k: int, nb: int) -> List[ScheduleOp]:
        ops: List[ScheduleOp] = [Checkpoint(k)]
        if k + 1 < nb:
            ops += [
                LookaheadDiag(k),
                DiagUpdate(k + 1),
                LookaheadPanel(k, "row"),
                LookaheadPanel(k, "col"),
                DiagBcast(k + 1),
                WaitLookahead(),
                PanelUpdate(k + 1, "row", wait=False, record_skip=True),
                PanelUpdate(k + 1, "col", wait=False, record_skip=True),
                WaitPanelUpdates(),
            ]
        ops.append(OuterUpdate(k, wait=False))
        if k + 1 < nb:
            ops.append(PanelBcast(k + 1))
        ops.append(WaitOuter())
        return ops


#: Stateless policy singletons (schedules carry no per-run state).
BULK_SYNC = BulkSyncSchedule()
LOOKAHEAD = LookaheadSchedule()
