"""Per-run performance reporting.

Computes the paper's two reporting metrics (§5.1.3):

* normalized flop rate - ``2 n³`` (virtual) flops over the simulated
  makespan, in GF/s / TF/s / PF/s;
* *effective bandwidth per node* - ``W_min / t_FW`` where ``W_min`` is
  the theoretical minimum per-node communication volume over all
  configurations for the problem size and node count (i.e. the
  near-square node grid's ``n²(1/K_r + 1/K_c)`` bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..machine.cost import CostModel
from ..machine.spec import MachineSpec
from ..sim.trace import Tracer
from .grid import near_square_factors
from .placement import RankPlacement

__all__ = ["PerfReport", "min_pernode_volume_bytes"]


def min_pernode_volume_bytes(n_virtual: float, n_nodes: int, itemsize: int) -> float:
    """W_min: minimum bytes any node must send for an n-vertex FW sweep
    on ``n_nodes`` nodes (paper §3.4.1 lower bound at the best node
    grid)."""
    kr, kc = near_square_factors(n_nodes)
    return n_virtual * n_virtual * itemsize * (1.0 / kr + 1.0 / kc)


@dataclass
class PerfReport:
    """Everything measured about one distributed APSP run."""

    #: Display name; reads ``planned->landed`` after OOM degradation.
    variant: str
    n_virtual: float
    n_physical: int
    block_size: int
    dim_scale: float
    n_nodes: int
    ranks: int
    grid_pr: int
    grid_pc: int
    placement: str
    machine: str
    elapsed: float
    #: Virtual bytes that crossed node NICs / stayed intranode.
    internode_bytes: float
    intranode_bytes: float
    max_node_nic_bytes: float
    messages: int
    gpu_peak_bytes: int
    counters: dict[str, float] = field(default_factory=dict)
    #: ABFT verification certificate (:mod:`repro.verify`), present only
    #: when the run was verified (``verify != "off"``).
    verification: Optional[dict] = None
    #: Intranode placement tile (ranks of one node per grid row/col -
    #: the Q_r x Q_c of the paper's §3.4.1 NIC-sharing model).
    placement_qr: int = 0
    placement_qc: int = 0
    #: Ranks sharing one physical GPU (2 in the paper's launches); the
    #: flop term of Eq. 1 divides by physical GPUs, not ranks.
    gpus_share: float = 1.0
    #: Flat snapshot of the observability registry (metric name ->
    #: scalar), present only on ``metrics=True`` runs (the live
    #: registry is on ``ApspResult.metrics``).
    metrics: Optional[dict] = None
    #: The variant the run finished under, as a parseable
    #: :class:`~repro.core.variants.Variant` value (differs from the
    #: planned one only after OOM degradation), and the semiring's
    #: name: what a serving artifact records to re-solve itself.
    landed_variant: str = ""
    semiring: str = "min_plus"

    # -- consistent field-name aliases (makespan / certificate) -------------
    @property
    def makespan(self) -> float:
        """Simulated end-to-end seconds (alias of ``elapsed``)."""
        return self.elapsed

    @property
    def certificate(self) -> Optional[dict]:
        """The ABFT verification certificate (alias of ``verification``)."""
        return self.verification

    # -- derived metrics ----------------------------------------------------
    @property
    def flops(self) -> float:
        """Total useful work, by the paper's 2n³ convention."""
        return 2.0 * self.n_virtual**3

    @property
    def flop_rate(self) -> float:
        return self.flops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def petaflops(self) -> float:
        return self.flop_rate / 1e15

    def percent_of_peak(self, machine: MachineSpec) -> float:
        return 100.0 * self.flop_rate / machine.peak_flops(self.n_nodes)

    def effective_bandwidth(self) -> float:
        """W_min / t_FW in bytes/s (paper §5.1.3)."""
        itemsize = 4
        wmin = min_pernode_volume_bytes(self.n_virtual, self.n_nodes, itemsize)
        return wmin / self.elapsed if self.elapsed > 0 else 0.0

    def breakdown(self, tracer: Optional[Tracer]) -> str:
        """Per-category time breakdown from a traced run: total busy
        time per span category plus the communication/compute overlap
        (the quantity the paper's pipelining exists to maximize)."""
        if tracer is None or not tracer.spans:
            return "(no trace recorded; run with trace=True)"
        cats = sorted({s.category for s in tracer.spans})
        lines = ["category        total-busy   share-of-run"]
        for c in cats:
            t = tracer.total_time(c)
            share = t / (self.elapsed * max(self.ranks, 1)) if self.elapsed else 0.0
            lines.append(f"{c:<15s} {t:>10.4f}s   {share * 100:5.1f}% of rank-time")
        ov = tracer.overlap_time("SrGemm", "nic_xfer")
        lines.append(
            f"SrGemm ∥ NIC overlap: {ov:.4f}s "
            f"({(ov / self.elapsed * 100 if self.elapsed else 0):.1f}% of the run)"
        )
        return "\n".join(lines)

    def summary(self) -> str:
        gbs = self.effective_bandwidth() / 1e9
        lines = [
            f"variant={self.variant}  n={self.n_virtual:g} (physical {self.n_physical}, "
            f"scale {self.dim_scale:g})  b={self.block_size}",
            f"nodes={self.n_nodes}  ranks={self.ranks}  grid={self.grid_pr}x{self.grid_pc}  "
            f"placement[{self.placement}]",
            f"simulated time = {self.elapsed:.4f} s   "
            f"rate = {self.flop_rate / 1e12:.3f} TF/s ({self.petaflops:.4f} PF/s)",
            f"effective bandwidth = {gbs:.2f} GB/s/node   "
            f"NIC bytes total = {self.internode_bytes / 1e9:.2f} GB "
            f"(max node {self.max_node_nic_bytes / 1e9:.2f} GB)   "
            f"messages = {self.messages}",
            f"GPU peak HBM = {self.gpu_peak_bytes / 1e9:.2f} GB",
        ]
        cert = self.verification
        if cert is not None:
            verdict = "PASSED" if cert.get("passed") else "FAILED"
            lines.append(
                f"verification[{cert.get('mode')}] = {verdict}   "
                f"ops checked = {cert.get('ops_checked', 0)}   "
                f"sdc detected = {cert.get('sdc_detected', 0)} "
                f"(repaired {cert.get('repaired', 0)}, "
                f"escalated {cert.get('escalated', 0)})"
            )
            audit = cert.get("audit")
            if audit is not None:
                lines.append(
                    f"residual audit: {audit['triangle_violations']} violations in "
                    f"{audit['triangle_samples']} triangle samples, "
                    f"{audit['sssp_mismatches']} mismatches over "
                    f"{audit['sssp_sources']} SSSP sources"
                )
        return "\n".join(lines)

    @classmethod
    def from_run(
        cls,
        variant: str,
        n_physical: int,
        cost: CostModel,
        placement: RankPlacement,
        elapsed: float,
        mpi,
        cluster,
        tracer: Optional[Tracer] = None,
    ) -> "PerfReport":
        gpu_peak = max(
            (g.peak_allocated for node in cluster.nodes for g in node.gpus), default=0
        )
        return cls(
            variant=variant,
            n_virtual=cost.v(n_physical),
            n_physical=n_physical,
            block_size=0,  # caller fills
            dim_scale=cost.dim_scale,
            n_nodes=len(cluster),
            ranks=mpi.size,
            grid_pr=placement.grid.pr,
            grid_pc=placement.grid.pc,
            placement=placement.describe(),
            machine=cluster.machine.name,
            elapsed=elapsed,
            internode_bytes=mpi.bytes_internode,
            intranode_bytes=mpi.bytes_intranode,
            max_node_nic_bytes=cluster.max_nic_bytes(),
            messages=mpi.message_count,
            gpu_peak_bytes=gpu_peak,
            counters=dict(tracer.counters) if tracer is not None else {},
            placement_qr=placement.qr,
            placement_qc=placement.qc,
            gpus_share=max(
                1.0, placement.ranks_per_node / cluster.machine.node.gpus_per_node
            ),
        )
