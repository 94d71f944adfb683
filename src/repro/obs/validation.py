"""Perf-model validation: fit machine constants from instrumented runs
and score the paper's analytic models against measured makespans.

The paper's quantitative claims live in three closed forms
(:mod:`repro.perfmodel.costs`):

* Eq. 1   - ``T_fw = 2n³/P·t_f + 2(n/b)·t_l + t_w(n²/P_x + n²/P_y)``;
* §3.4.1  - NIC sharing, ``T_comm = t_w(n²Q_r/P_r + n²Q_c/P_c)``;
* Eq. 5   - offload block bound ``k ≥ max(t_hd/2t_f, 3t_m/2t_f)``.

This module measures instrumented runs (tracer spans + metrics
registry), *fits* the effective constants t_f / t_l / t_w from them,
and prints predicted-vs-measured makespan with relative error per
variant - once against the machine-spec constants (the a-priori
model) and once against the fitted constants (how much of the gap is
constant calibration vs model structure).

Fitting method (documented in docs/OBSERVABILITY.md):

* ``t_f``  = total SrGemm engine-busy seconds / total virtual kernel
  flops issued (so launch overhead and the size-dependent kernel
  efficiency are folded in, like Eq. 1's effective rate);
* ``t_w``  = total NIC-occupancy seconds / total internode bytes;
* ``t_l``  = least-squares (through the origin) of the per-run
  residual ``makespan - compute - bandwidth`` against the ``2(n/b)``
  latency-round count, clamped at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..machine.cost import CostModel
from ..perfmodel.costs import (
    min_offload_block_size,
    parallel_fw_cost,
    refined_comm_cost,
)

__all__ = [
    "VariantMeasurement",
    "FittedConstants",
    "PerfModelReport",
    "ProfileResult",
    "measure",
    "fit_constants",
    "build_report",
    "run_profile",
    "PROFILE_VARIANTS",
]

#: The variants ``repro profile`` instruments by default: the paper's
#: bulk-synchronous baseline, the pipelined schedule, and the
#: out-of-GPU-memory offload path (Me-ParallelFw).
PROFILE_VARIANTS = ("baseline", "pipelined", "offload")


@dataclass(frozen=True)
class VariantMeasurement:
    """Everything the fitters and the model rows need from one run."""

    variant: str
    makespan: float
    n_virtual: float
    b_virtual: float
    p_r: int
    p_c: int
    q_r: int
    q_c: int
    gpus_share: float
    #: Total SrGemm engine-busy seconds across all GPU engines.
    srgemm_busy: float
    #: Total virtual flops issued through the metered kernel backend.
    kernel_flops_virtual: float
    #: Total NIC-occupancy seconds across all node NICs.
    nic_busy: float
    #: Busiest single node's NIC-occupancy seconds (§3.4.1's T_comm).
    max_node_nic_busy: float
    internode_bytes: float

    @property
    def n_gpus(self) -> float:
        return self.p_r * self.p_c / self.gpus_share

    @property
    def latency_rounds(self) -> float:
        """Eq. 1's 2(n/b) critical-path message rounds."""
        return 2.0 * self.n_virtual / self.b_virtual

    @property
    def bandwidth_bytes(self) -> float:
        """Eq. 1's per-rank panel traffic, n²(1/P_r + 1/P_c) bytes
        (itemsize applied by the caller via t_w)."""
        return self.n_virtual * self.n_virtual * (1.0 / self.p_r + 1.0 / self.p_c)


def _max_actor_busy(tracer, category: str) -> float:
    actors = {s.actor for s in tracer.spans if s.category == category}
    return max((tracer.busy_time(a, [category]) for a in actors), default=0.0)


def measure(result, cost: CostModel) -> VariantMeasurement:
    """Extract a :class:`VariantMeasurement` from an instrumented
    :class:`~repro.core.driver.ApspResult` (needs ``trace`` and
    ``metrics`` both enabled - what ``repro profile`` runs)."""
    report = result.report
    tracer = result.tracer
    if tracer is None or result.metrics is None:
        raise ValueError(
            "perf-model validation needs an instrumented run: solve with "
            "trace=True and obs metrics enabled (see `repro profile`)"
        )
    flops_phys = result.metrics.value("kernel.flops", 0.0)
    return VariantMeasurement(
        variant=report.variant,
        makespan=report.elapsed,
        n_virtual=report.n_virtual,
        b_virtual=cost.v(report.block_size),
        p_r=report.grid_pr,
        p_c=report.grid_pc,
        q_r=report.placement_qr or 1,
        q_c=report.placement_qc or 1,
        gpus_share=report.gpus_share or 1.0,
        srgemm_busy=tracer.counters.get("SrGemm.time", 0.0),
        kernel_flops_virtual=flops_phys * cost.dim_scale**3,
        nic_busy=tracer.total_time("nic_xfer"),
        max_node_nic_busy=_max_actor_busy(tracer, "nic_xfer"),
        internode_bytes=report.internode_bytes,
    )


@dataclass(frozen=True)
class FittedConstants:
    """Effective machine constants extracted from measured runs, next
    to the machine-spec values they calibrate."""

    t_f: float
    t_l: float
    t_w: float
    t_f_model: float
    t_l_model: float
    t_w_model: float
    #: Which constants actually came from measurement (a fit falls back
    #: to the spec value when its signal is absent, e.g. t_w on a
    #: single-node run).
    fitted: tuple[str, ...] = ()

    def describe(self) -> str:
        def mark(name: str) -> str:
            return "fitted" if name in self.fitted else "spec"

        return (
            f"t_f={self.t_f:.3e} s/flop ({mark('t_f')}; spec {self.t_f_model:.3e})  "
            f"t_l={self.t_l:.3e} s ({mark('t_l')}; spec {self.t_l_model:.3e})  "
            f"t_w={self.t_w:.3e} s/B ({mark('t_w')}; spec {self.t_w_model:.3e})"
        )


def fit_constants(
    measurements: Sequence[VariantMeasurement], cost: CostModel
) -> FittedConstants:
    """Fit t_f / t_w / t_l as documented in the module docstring."""
    fitted: list[str] = []

    busy = sum(m.srgemm_busy for m in measurements)
    flops = sum(m.kernel_flops_virtual for m in measurements)
    if busy > 0 and flops > 0:
        t_f = busy / flops
        fitted.append("t_f")
    else:
        t_f = cost.t_f / cost.kernel_efficiency(
            max((m.b_virtual for m in measurements), default=1.0)
        )

    nic = sum(m.nic_busy for m in measurements)
    nbytes = sum(m.internode_bytes for m in measurements)
    if nic > 0 and nbytes > 0:
        t_w = nic / nbytes
        fitted.append("t_w")
    else:
        t_w = cost.t_w_internode

    # Residual least squares through the origin for the latency term.
    num = den = 0.0
    for m in measurements:
        compute = t_f * 2.0 * m.n_virtual**3 / m.n_gpus
        bandwidth = t_w * m.bandwidth_bytes * cost.itemsize
        resid = m.makespan - compute - bandwidth
        x = m.latency_rounds
        num += x * resid
        den += x * x
    if den > 0:
        t_l = max(0.0, num / den)
        fitted.append("t_l")
    else:
        t_l = cost.internode_latency

    return FittedConstants(
        t_f=t_f,
        t_l=t_l,
        t_w=t_w,
        t_f_model=cost.t_f,
        t_l_model=cost.internode_latency,
        t_w_model=cost.t_w_internode,
        fitted=tuple(fitted),
    )


@dataclass(frozen=True)
class ModelRow:
    """One predicted-vs-measured comparison."""

    model: str  # "eq1" | "eq1_fitted" | "comm" | "eq5"
    variant: str
    measured: float
    predicted: float

    @property
    def rel_err(self) -> float:
        if self.measured == 0:
            return math.inf
        return (self.predicted - self.measured) / self.measured

    def line(self) -> str:
        return (
            f"model.{self.model} variant={self.variant} "
            f"measured={self.measured:.6e} predicted={self.predicted:.6e} "
            f"rel_err={self.rel_err:+.4f}"
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "variant": self.variant,
            "measured": self.measured,
            "predicted": self.predicted,
            "rel_err": self.rel_err,
        }


@dataclass(frozen=True)
class PerfModelReport:
    """The validation report ``repro profile`` prints and serializes."""

    machine: str
    constants: FittedConstants
    eq1: tuple[ModelRow, ...]
    eq1_fitted: tuple[ModelRow, ...]
    comm: tuple[ModelRow, ...]
    eq5_k_min: float
    eq5: tuple[dict, ...]  # per offload variant: b_virtual, satisfied
    notes: tuple[str, ...] = ()

    def rows(self) -> list[ModelRow]:
        return [*self.eq1, *self.eq1_fitted, *self.comm]

    def summary(self) -> str:
        lines = [
            f"perf-model validation (machine={self.machine}, "
            f"{len(self.eq1)} instrumented runs)",
            f"constants: {self.constants.describe()}",
            "",
            "Eq. 1 makespan (machine-spec constants):",
            *(r.line() for r in self.eq1),
            "",
            "Eq. 1 makespan (fitted constants):",
            *(r.line() for r in self.eq1_fitted),
        ]
        if self.comm:
            lines += [
                "",
                "§3.4.1 NIC-sharing communication (busiest node):",
                *(r.line() for r in self.comm),
            ]
        lines += ["", f"Eq. 5 offload block bound: k_min = {self.eq5_k_min:.0f}"]
        for row in self.eq5:
            verdict = "satisfied" if row["satisfied"] else "VIOLATED"
            lines.append(
                f"model.eq5 variant={row['variant']} b_virtual={row['b_virtual']:.0f} "
                f"k_min={self.eq5_k_min:.0f} {verdict}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "machine": self.machine,
            "constants": {
                "t_f": self.constants.t_f,
                "t_l": self.constants.t_l,
                "t_w": self.constants.t_w,
                "t_f_model": self.constants.t_f_model,
                "t_l_model": self.constants.t_l_model,
                "t_w_model": self.constants.t_w_model,
                "fitted": list(self.constants.fitted),
            },
            "eq1": [r.to_dict() for r in self.eq1],
            "eq1_fitted": [r.to_dict() for r in self.eq1_fitted],
            "comm": [r.to_dict() for r in self.comm],
            "eq5": {"k_min": self.eq5_k_min, "rows": list(self.eq5)},
            "notes": list(self.notes),
        }


def _fitted_prediction(m: VariantMeasurement, c: FittedConstants, cost: CostModel) -> float:
    return (
        c.t_f * 2.0 * m.n_virtual**3 / m.n_gpus
        + c.t_l * m.latency_rounds
        + c.t_w * m.bandwidth_bytes * cost.itemsize
    )


def build_report(
    measurements: Sequence[VariantMeasurement],
    cost: CostModel,
    machine_name: str,
) -> PerfModelReport:
    """Score the three models against a set of measurements."""
    constants = fit_constants(measurements, cost)
    eq1: list[ModelRow] = []
    eq1_fitted: list[ModelRow] = []
    comm: list[ModelRow] = []
    eq5: list[dict] = []
    notes: list[str] = []
    k_min = min_offload_block_size(cost)
    for m in measurements:
        predicted = parallel_fw_cost(
            cost, m.n_virtual, m.b_virtual, m.p_r, m.p_c, gpus_share=m.gpus_share
        ).total
        eq1.append(ModelRow("eq1", m.variant, m.makespan, predicted))
        eq1_fitted.append(
            ModelRow("eq1_fitted", m.variant, m.makespan, _fitted_prediction(m, constants, cost))
        )
        if m.max_node_nic_busy > 0:
            comm.append(
                ModelRow(
                    "comm",
                    m.variant,
                    m.max_node_nic_busy,
                    refined_comm_cost(cost, m.n_virtual, m.p_r, m.p_c, m.q_r, m.q_c),
                )
            )
        else:
            notes.append(
                f"{m.variant}: no internode traffic (single node?); §3.4.1 row skipped"
            )
        if "offload" in m.variant:
            eq5.append(
                {
                    "variant": m.variant,
                    "b_virtual": m.b_virtual,
                    "satisfied": m.b_virtual >= k_min,
                }
            )
    return PerfModelReport(
        machine=machine_name,
        constants=constants,
        eq1=tuple(eq1),
        eq1_fitted=tuple(eq1_fitted),
        comm=tuple(comm),
        eq5_k_min=k_min,
        eq5=tuple(eq5),
        notes=tuple(notes),
    )


@dataclass
class ProfileResult:
    """What :func:`run_profile` returns: the validation report plus
    the per-variant instrumented results (tracers still attached, so
    the caller can export Chrome traces)."""

    report: PerfModelReport
    results: dict = field(default_factory=dict)  # variant -> ApspResult


def run_profile(
    weights,
    *,
    variants: Sequence[str] = PROFILE_VARIANTS,
    block_size: Optional[int] = None,
    machine="summit",
    n_nodes: int = 1,
    ranks_per_node: Optional[int] = None,
    dim_scale: float = 1.0,
    kernel_backend: Optional[str] = None,
) -> ProfileResult:
    """Run one instrumented solve per variant and validate the models.

    This is the engine of the ``repro profile`` CLI subcommand; it is
    also directly usable as a library call.  ``kernel_backend`` selects
    the SrGemm backend the instrumented runs execute on (``None``
    resolves the default backend); note fitted constants come from
    *simulated* busy time, which is backend-invariant by design - the
    physical per-backend speed signal is the ``kernel.wall_seconds``
    counter in each result's metrics registry.
    """
    # Imported here: repro.api imports repro.obs, so a module-level
    # import would be circular.
    from ..api import ObsSinks, SolveConfig, solve, resolve_machine

    spec = resolve_machine(machine)
    cost = CostModel(spec, dim_scale=dim_scale)
    measurements: list[VariantMeasurement] = []
    results: dict = {}
    for variant in variants:
        config = SolveConfig(
            variant=variant,
            block_size=block_size,
            machine=spec,
            n_nodes=n_nodes,
            ranks_per_node=ranks_per_node,
            dim_scale=dim_scale,
            kernel_backend=kernel_backend,
            trace=True,
            obs=ObsSinks(metrics=True),
        )
        result = solve(weights, config)
        results[variant] = result
        measurements.append(measure(result, cost))
    return ProfileResult(
        report=build_report(measurements, cost, spec.name), results=results
    )
