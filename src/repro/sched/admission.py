"""Admission control: decide *before* a job touches the machine.

The controller prices a job from its resolved
:class:`~repro.core.driver.RunPlan` alone - the per-rank HBM/DRAM
footprint function the driver's state builders charge -
plus the §3.4 performance model for makespan, so decisions need zero
simulated events:

* **admit** - the job's per-GPU/per-node demand fits next to what is
  already reserved;
* **queue** - it fits an idle fleet but not the current residency
  (retry on every job completion);
* **reject** - it can never fit this fleet, or Eq. 1 predicts it would
  blow the configured makespan limit
  (:class:`~repro.errors.AdmissionError`, exit code 15).

:func:`assess` is the shape-level what-if used for capacity planning
(``examples/capacity_planning.py``): no graph required, so the paper's
300k-vertex / 10 TB configurations can be priced without allocating a
matrix.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from ..machine.cost import CostModel
from ..machine.spec import MachineSpec

__all__ = ["AdmissionController", "Assessment", "JobDemand", "assess", "demand_of"]


@dataclass(frozen=True)
class JobDemand:
    """A job's static memory footprint on the shared fleet."""

    #: (node, gpu_index) -> HBM bytes (virtual): the sum of the driver's
    #: per-rank charges in :func:`repro.core.driver.make_state_builders`.
    gpu_bytes: dict
    #: node -> host DRAM bytes (offload variants only).
    dram_bytes: dict

    def peak_gpu(self) -> int:
        return max(self.gpu_bytes.values(), default=0)


def demand_of(rp, cost: CostModel, gpus_per_node: int) -> JobDemand:
    """Price a :class:`~repro.core.driver.RunPlan`'s memory demand: the
    plan's residency footprint
    (:meth:`~repro.core.executor.ResidencyPolicy.footprint`, what the
    state builders will charge) summed per GPU and per node."""
    gpu: dict = defaultdict(int)
    dram: dict = defaultdict(int)
    for r in range(rp.n_ranks):
        rows = len(rp.grid.local_block_rows(r, rp.nb))
        cols = len(rp.grid.local_block_cols(r, rp.nb))
        hbm, host = rp.residency.footprint(cost, rp.b, rows, cols, rp.config)
        node = rp.placement.node_of(r)
        gpu[(node, rp.placement.local_index(r) % gpus_per_node)] += hbm
        if host:
            dram[node] += host
    return JobDemand(gpu_bytes=dict(gpu), dram_bytes=dict(dram))


class AdmissionController:
    """Reservation ledger + admit/queue/reject policy of one fleet."""

    def __init__(
        self,
        machine: MachineSpec,
        n_nodes: int,
        cost: CostModel,
        makespan_limit: Optional[float] = None,
    ):
        self.machine = machine
        self.n_nodes = n_nodes
        self.cost = cost
        #: Reject any job whose *predicted* makespan (Eq. 1 / Eq. 6)
        #: exceeds this many simulated seconds; None disables the SLO.
        self.makespan_limit = makespan_limit
        self.hbm_capacity = machine.node.gpu.hbm_bytes
        self.dram_capacity = machine.node.dram_bytes
        self.gpus_per_node = machine.node.gpus_per_node
        self._reserved_gpu: dict = defaultdict(int)
        self._reserved_dram: dict = defaultdict(int)

    # -- pricing -------------------------------------------------------------
    def demand_of(self, rp) -> JobDemand:
        return demand_of(rp, self.cost, self.gpus_per_node)

    def predict_makespan(self, rp) -> float:
        """Eq. 1 (with the §3.4.1 refinement) for the job's shape."""
        from ..perfmodel import predict_runtime

        ranks_per_node = rp.placement.ranks_per_node
        gpus_share = max(1, ranks_per_node // self.gpus_per_node)
        return predict_runtime(
            self.cost,
            self.cost.v(rp.n),
            rp.b,
            rp.grid.pr,
            rp.grid.pc,
            q_r=rp.placement.qr,
            q_c=rp.placement.qc,
            gpus_share=gpus_share,
        ).total

    # -- policy --------------------------------------------------------------
    def check(self, rp, node_map=None) -> tuple[str, Optional[str], JobDemand]:
        """Classify a run plan: ``("admit" | "queue" | "reject",
        reason, demand)``.  Does not reserve anything.

        ``node_map`` is the scheduler's logical->physical node remap
        (resilience layer): demand is charged against the nodes the job
        will *actually* run on, so the reservation ledger and the
        runner's device bindings always agree."""
        demand = self.demand_of(rp)
        if node_map is not None:
            demand = JobDemand(
                gpu_bytes={
                    (node_map[node], g): nbytes
                    for (node, g), nbytes in demand.gpu_bytes.items()
                },
                dram_bytes={
                    node_map[node]: nbytes
                    for node, nbytes in demand.dram_bytes.items()
                },
            )
        if rp.n_nodes > self.n_nodes:
            return ("reject", f"needs {rp.n_nodes} nodes, fleet has {self.n_nodes}", demand)
        for (node, g), nbytes in demand.gpu_bytes.items():
            if nbytes > self.hbm_capacity:
                return (
                    "reject",
                    f"rank demand {nbytes} B on node{node}.gpu{g} exceeds HBM "
                    f"capacity {self.hbm_capacity} B even when idle",
                    demand,
                )
        for node, nbytes in demand.dram_bytes.items():
            if nbytes > self.dram_capacity:
                return (
                    "reject",
                    f"offload demand {nbytes} B on node{node} exceeds DRAM "
                    f"capacity {self.dram_capacity} B even when idle",
                    demand,
                )
        if self.makespan_limit is not None:
            predicted = self.predict_makespan(rp)
            if predicted > self.makespan_limit:
                return (
                    "reject",
                    f"predicted makespan {predicted:.3g}s exceeds the "
                    f"{self.makespan_limit:.3g}s limit",
                    demand,
                )
        for (node, g), nbytes in demand.gpu_bytes.items():
            if self._reserved_gpu[(node, g)] + nbytes > self.hbm_capacity:
                return (
                    "queue",
                    f"node{node}.gpu{g} oversubscribed "
                    f"({self._reserved_gpu[(node, g)]} B reserved)",
                    demand,
                )
        for node, nbytes in demand.dram_bytes.items():
            if self._reserved_dram[node] + nbytes > self.dram_capacity:
                return (
                    "queue",
                    f"node{node} DRAM oversubscribed "
                    f"({self._reserved_dram[node]} B reserved)",
                    demand,
                )
        return ("admit", None, demand)

    # -- ledger --------------------------------------------------------------
    def reserve(self, demand: JobDemand) -> None:
        for key, nbytes in demand.gpu_bytes.items():
            self._reserved_gpu[key] += nbytes
        for node, nbytes in demand.dram_bytes.items():
            self._reserved_dram[node] += nbytes

    def release(self, demand: JobDemand) -> None:
        for key, nbytes in demand.gpu_bytes.items():
            self._reserved_gpu[key] -= nbytes
        for node, nbytes in demand.dram_bytes.items():
            self._reserved_dram[node] -= nbytes

    def reserved_gpu_bytes(self) -> int:
        return sum(self._reserved_gpu.values())


@dataclass(frozen=True)
class Assessment:
    """Shape-level what-if: can this fleet run this problem, and how?"""

    n: float
    n_nodes: int
    ranks_per_node: int
    #: ``"fits-hbm"`` | ``"needs-offload"`` | ``"infeasible"``.
    feasibility: str
    #: Recommended variant for the feasibility class.
    variant: str
    #: Tuner-recommended block size (offload floor applied when needed).
    block_size: int
    #: Eq. 1 / Eq. 6 predicted makespan in seconds (None if infeasible).
    predicted_makespan: Optional[float]
    #: Eq. 1 terms for the recommended configuration.
    compute_seconds: float
    bandwidth_seconds: float
    matrix_bytes: float
    hbm_total: float
    dram_total: float

    @property
    def feasible(self) -> bool:
        return self.feasibility != "infeasible"

    def summary(self) -> str:
        head = (
            f"n={self.n:,.0f} on {self.n_nodes} nodes x {self.ranks_per_node} ranks: "
            f"{self.feasibility}"
        )
        if not self.feasible:
            return head + (
                f" (matrix {self.matrix_bytes / 1e12:.2f} TB > DRAM "
                f"{self.dram_total / 1e12:.2f} TB)"
            )
        regime = (
            "compute-bound" if self.compute_seconds > self.bandwidth_seconds
            else "bandwidth-bound"
        )
        return head + (
            f" -> variant={self.variant}, b={self.block_size}, predicted "
            f"{self.predicted_makespan:.2f}s ({regime})"
        )


def assess(
    n: float,
    n_nodes: int,
    ranks_per_node: int = 12,
    machine: Optional[MachineSpec] = None,
    dim_scale: float = 1.0,
    headroom: float = 0.8,
) -> Assessment:
    """Price a problem *shape* against a fleet shape (no graph needed).

    Applies the paper's feasibility ladder: under ``headroom`` x
    aggregate HBM use Co-ParallelFw; under ``headroom`` x aggregate
    DRAM use Me-ParallelFw with the Eq. 5 block-size floor; beyond
    that the fleet cannot hold the matrix at all.
    """
    from ..machine.spec import SUMMIT
    from ..perfmodel import min_offload_block_size, parallel_fw_cost, tune

    if machine is None:
        machine = SUMMIT
    cost = CostModel(machine, dim_scale=dim_scale)
    matrix_bytes = float(n) * float(n) * cost.itemsize
    hbm_total = n_nodes * machine.node.gpus_per_node * machine.node.gpu.hbm_bytes
    dram_total = n_nodes * machine.node.dram_bytes

    if matrix_bytes < headroom * hbm_total:
        feasibility, variant, offload = "fits-hbm", "async", False
    elif matrix_bytes < headroom * dram_total:
        feasibility, variant, offload = "needs-offload", "offload", True
    else:
        feasibility, variant, offload = "infeasible", "none", False

    report = tune(cost, n, n_nodes, ranks_per_node, offload=offload)
    block_size = report.block_size
    if offload:
        block_size = max(block_size, int(min_offload_block_size(cost)))
    gpus_share = max(1, ranks_per_node // machine.node.gpus_per_node)
    br = parallel_fw_cost(cost, n, block_size, report.p_r, report.p_c,
                          gpus_share=gpus_share)
    return Assessment(
        n=float(n),
        n_nodes=n_nodes,
        ranks_per_node=ranks_per_node,
        feasibility=feasibility,
        variant=variant,
        block_size=block_size,
        predicted_makespan=None if feasibility == "infeasible" else report.predicted.total,
        compute_seconds=br.compute,
        bandwidth_seconds=br.bandwidth,
        matrix_bytes=matrix_bytes,
        hbm_total=float(hbm_total),
        dram_total=float(dram_total),
    )
