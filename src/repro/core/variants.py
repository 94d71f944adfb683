"""Named solver variants matching the paper's plot legends (§5.1.2).

:data:`VARIANTS` is the only place that says what a variant *is*: one
row per name, giving its point on the four policy axes (the table of
docs/SCHEDULES.md).  :func:`repro.core.driver.plan_run` reads the row
once and leaves the resolved policy objects on the
:class:`~repro.core.driver.RunPlan`; downstream the name is only ever
reported, never branched on.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..errors import ConfigurationError
from ..mpi.policy import BcastPolicy, RingBcast, TreeBcast
from .executor import GPU_RESIDENT, HOST_RESIDENT, ResidencyPolicy
from .schedule import BULK_SYNC, LOOKAHEAD, SchedulePolicy

__all__ = ["Variant", "VARIANTS", "offloaded"]


class Variant(str, enum.Enum):
    """The five configurations evaluated in the paper, plus the
    schedule-IR-enabled sixth.

    * ``BASELINE`` - Algorithm 3: bulk-synchronous, tree broadcasts,
      launcher-default (contiguous) rank placement.
    * ``PIPELINED`` - Algorithm 4: look-ahead pipeline overlapping
      OuterUpdate(k) with PanelBcast(k+1); still tree broadcasts and
      contiguous placement.
    * ``REORDERING`` - Pipelined + optimal (K_r ≈ K_c) rank placement.
    * ``ASYNC`` - Reordering + asynchronous ring PanelBcast: the full
      Co-ParallelFw.
    * ``OFFLOAD`` - Me-ParallelFw: the baseline schedule with the
      distance matrix in host DRAM and ooGSrGemm outer products.
    * ``OFFLOAD_PIPELINED`` - Me-ParallelFw under the look-ahead
      schedule: the ooGSrGemm tile pipeline of OuterUpdate(k) runs
      while the rank participates in PanelBcast(k+1).  The paper never
      evaluates this combination (its implementation could not express
      it); the schedule IR makes it one row of :data:`VARIANTS`.
    """

    BASELINE = "baseline"
    PIPELINED = "pipelined"
    REORDERING = "reordering"
    ASYNC = "async"
    OFFLOAD = "offload"
    OFFLOAD_PIPELINED = "offload-pipelined"

    @classmethod
    def parse(cls, value: "str | Variant") -> "Variant":
        if isinstance(value, Variant):
            return value
        try:
            return cls(value.lower().replace("_", "-"))
        except ValueError:
            raise ConfigurationError(
                f"unknown variant {value!r}; choose from "
                f"{[v.value for v in cls]}"
            ) from None


class _Row(NamedTuple):
    """One variant's policies: schedule shape, memory residency,
    PanelBcast strategy (``ring_segments`` is applied on top, see
    :meth:`~repro.mpi.policy.BcastPolicy.segmented`), default placement
    (``"contiguous"``: launcher-style packing; ``"optimal"``: the
    K_r ≈ K_c tiling of §3.4 - see
    :func:`~repro.core.driver.placement_for_variant`) and a one-line
    description."""

    schedule: SchedulePolicy
    residency: ResidencyPolicy
    bcast: BcastPolicy
    placement: str
    description: str


VARIANTS: dict[Variant, _Row] = {
    Variant.BASELINE: _Row(
        BULK_SYNC, GPU_RESIDENT, TreeBcast(), "contiguous",
        "Algorithm 3, tree broadcasts, contiguous placement"),
    Variant.PIPELINED: _Row(
        LOOKAHEAD, GPU_RESIDENT, TreeBcast(), "contiguous",
        "Algorithm 4 look-ahead pipeline (tree broadcasts)"),
    Variant.REORDERING: _Row(
        LOOKAHEAD, GPU_RESIDENT, TreeBcast(), "optimal",
        "Pipelined + optimal K_r≈K_c rank placement"),
    Variant.ASYNC: _Row(
        LOOKAHEAD, GPU_RESIDENT, RingBcast(), "optimal",
        "Reordering + asynchronous ring PanelBcast (Co-ParallelFw)"),
    Variant.OFFLOAD: _Row(
        BULK_SYNC, HOST_RESIDENT, TreeBcast(), "contiguous",
        "Me-ParallelFw: host-resident matrix + ooGSrGemm offload"),
    Variant.OFFLOAD_PIPELINED: _Row(
        LOOKAHEAD, HOST_RESIDENT, TreeBcast(), "contiguous",
        "Me-ParallelFw + Algorithm 4 look-ahead: ooGSrGemm outer product "
        "overlapped with PanelBcast(k+1)"),
}


def offloaded(schedule: SchedulePolicy) -> Variant:
    """The host-resident variant with this schedule shape - where a
    GPU-resident run lands when it degrades after GpuOutOfMemory."""
    return next(
        v for v, row in VARIANTS.items()
        if row.schedule is schedule and row.residency is HOST_RESIDENT
    )
