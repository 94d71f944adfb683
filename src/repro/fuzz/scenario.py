"""The fuzzer's unit of work: one fully-seeded solve scenario.

A :class:`Scenario` pins everything a run depends on - graph generator
and seed, cluster shape, variant, kernel backend, fault plan (as the
CLI spec strings, so corpus entries read like ``--faults`` flags),
verification mode, and observability arming - as plain JSON-able data.
The same scenario therefore always builds the same weight matrix and
the same :class:`~repro.api.SolveConfig`, which is what makes corpus
replay bit-exact: ``repro-apsp fuzz replay <id>`` re-runs the stored
tuple and byte-compares digests.

Scenario identity is content-addressed: :attr:`Scenario.scenario_id`
is a SHA-256 prefix of the canonical JSON, so two sessions generating
the same tuple agree on its name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import ConfigurationError

__all__ = ["GraphSpec", "Scenario", "GRAPH_KINDS"]

#: Graph-generator families the fuzzer samples from (all seeded, all
#: non-negative weights - Floyd-Warshall's negative-cycle-free domain).
GRAPH_KINDS = ("uniform", "erdos-renyi", "grid-road", "ring-cliques", "banded")


@dataclass(frozen=True)
class GraphSpec:
    """A seeded recipe for one weight matrix (see :mod:`repro.graphs`)."""

    kind: str
    n: int
    seed: int = 0
    #: erdos-renyi only: edge probability.
    density: float = 0.5
    #: banded only: connectivity half-width.
    bandwidth: int = 2
    #: grid-road only (n must equal rows*cols).
    rows: Optional[int] = None
    cols: Optional[int] = None
    #: ring-cliques only (n must equal n_cliques*clique_size).
    n_cliques: Optional[int] = None
    clique_size: Optional[int] = None

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ConfigurationError(
                f"unknown graph kind {self.kind!r}; known: {list(GRAPH_KINDS)}"
            )
        if self.n < 2:
            raise ConfigurationError(f"graph needs n >= 2 vertices, got {self.n}")
        if self.kind == "erdos-renyi" and not 0.0 <= self.density <= 1.0:
            raise ConfigurationError(f"density must be in [0, 1], got {self.density}")
        if self.kind == "banded" and self.bandwidth < 1:
            raise ConfigurationError(f"bandwidth must be >= 1, got {self.bandwidth}")
        if self.kind == "grid-road":
            if not self.rows or not self.cols or self.rows * self.cols != self.n:
                raise ConfigurationError(
                    f"grid-road needs rows*cols == n, got {self.rows}x{self.cols} != {self.n}"
                )
        if self.kind == "ring-cliques":
            if (
                not self.n_cliques
                or not self.clique_size
                or self.n_cliques * self.clique_size != self.n
            ):
                raise ConfigurationError(
                    f"ring-cliques needs n_cliques*clique_size == n, "
                    f"got {self.n_cliques}*{self.clique_size} != {self.n}"
                )

    def build(self):
        """Materialize the weight matrix (deterministic per spec)."""
        from ..graphs import (
            banded_graph,
            erdos_renyi,
            grid_road_network,
            ring_of_cliques,
            uniform_random_dense,
        )

        if self.kind == "uniform":
            return uniform_random_dense(self.n, seed=self.seed)
        if self.kind == "erdos-renyi":
            return erdos_renyi(self.n, self.density, seed=self.seed)
        if self.kind == "grid-road":
            return grid_road_network(self.rows, self.cols, seed=self.seed)
        if self.kind == "ring-cliques":
            return ring_of_cliques(self.n_cliques, self.clique_size)
        return banded_graph(self.n, self.bandwidth, seed=self.seed)


@dataclass(frozen=True)
class Scenario:
    """One point of the fuzzed configuration space.

    ``fault_specs`` holds CLI-grammar strings (``drop:src=0,...``), so
    every corpus entry doubles as a copy-pasteable ``--faults`` repro
    and every generated scenario exercises the hardened spec parser.
    """

    graph: GraphSpec
    variant: str = "async"
    block_size: int = 8
    kernel_backend: Optional[str] = None
    machine: str = "summit"
    n_nodes: int = 1
    ranks_per_node: int = 2
    fault_specs: tuple[str, ...] = ()
    fault_seed: int = 0
    verify: str = "off"
    exploit_sparsity: bool = False
    #: False runs DiagUpdate as §4.2's host Floyd-Warshall.
    diag_on_gpu: bool = True
    #: Arm the MetricsRegistry + span tracer (feeds the perf oracle).
    instrument: bool = True
    #: Double-run digest comparison (oracle family 2) for this scenario.
    check_determinism: bool = False
    # -- fleet scenarios (multi-job + resilience; see docs/RESILIENCE.md) --
    #: Concurrent jobs on one ClusterScheduler; 1 = classic single solve
    #: unless ``resilience`` is set (then a one-job armed fleet).
    jobs: int = 1
    #: :class:`~repro.sched.ResiliencePolicy` object form (retry /
    #: health / retry_budget knobs); None = self-healing disarmed.
    resilience: Optional[dict] = None
    #: Per-job simulated-seconds SLO (needs ``resilience``); exceeded
    #: deadlines kill with exit 16 - a modeled outcome, not a finding.
    deadline: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool) or self.jobs < 1:
            raise ConfigurationError(f"scenario jobs must be an int >= 1, got {self.jobs!r}")
        if self.resilience is not None:
            from ..sched.resilience import ResiliencePolicy

            ResiliencePolicy.from_dict(self.resilience)  # validate eagerly
        if self.deadline is not None:
            if isinstance(self.deadline, bool) or not isinstance(self.deadline, (int, float)):
                raise ConfigurationError(
                    f"scenario deadline must be a number, got {self.deadline!r}"
                )
            if self.deadline <= 0:
                raise ConfigurationError(f"scenario deadline must be > 0, got {self.deadline}")
            if self.resilience is None:
                raise ConfigurationError(
                    "scenario deadline needs a 'resilience' policy (per-job "
                    "deadlines are enforced by the self-healing layer)"
                )

    @property
    def is_fleet(self) -> bool:
        """Does this scenario run on a ClusterScheduler (multi-job
        and/or resilience-armed) instead of a plain solve?"""
        return self.jobs > 1 or self.resilience is not None

    # -- identity ----------------------------------------------------------
    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["graph"] = {k: v for k, v in out["graph"].items() if v is not None}
        out["fault_specs"] = list(self.fault_specs)
        # Fleet fields and later axes are omitted at their defaults so
        # every older scenario keeps its content-addressed id (corpus
        # stability).
        if self.diag_on_gpu:
            del out["diag_on_gpu"]
        if self.jobs == 1:
            del out["jobs"]
        if self.resilience is None:
            del out["resilience"]
        if self.deadline is None:
            del out["deadline"]
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def scenario_id(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        if not isinstance(raw, dict):
            raise ConfigurationError(f"scenario must be a JSON object, got {raw!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario keys {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(raw)
        graph = kwargs.get("graph")
        if not isinstance(graph, dict):
            raise ConfigurationError("scenario 'graph' must be a JSON object")
        gknown = {f.name for f in dataclasses.fields(GraphSpec)}
        gunknown = set(graph) - gknown
        if gunknown:
            raise ConfigurationError(
                f"unknown graph keys {sorted(gunknown)}; known: {sorted(gknown)}"
            )
        kwargs["graph"] = GraphSpec(**graph)
        kwargs["fault_specs"] = tuple(kwargs.get("fault_specs", ()))
        return cls(**kwargs)

    def replace(self, **changes: Any) -> "Scenario":
        return dataclasses.replace(self, **changes)

    # -- materialization ---------------------------------------------------
    def build_graph(self):
        return self.graph.build()

    def job_graph(self, index: int) -> GraphSpec:
        """Fleet job ``index``'s graph spec: the scenario's recipe with
        a per-job seed offset, so tenants solve distinct (but still
        fully deterministic) instances and per-job digests are
        meaningful."""
        if index == 0:
            return self.graph
        return dataclasses.replace(self.graph, seed=self.graph.seed + index)

    def fault_plan(self):
        """Parse ``fault_specs`` into a FaultPlan (None when unarmed) -
        through the same hardened parser users hit."""
        from ..faults.plan import FaultPlan

        if not self.fault_specs:
            return None
        return FaultPlan.from_specs(list(self.fault_specs), seed=self.fault_seed)

    def to_solve_config(self):
        """The :class:`~repro.api.SolveConfig` this scenario runs as."""
        from ..api import ObsSinks, SolveConfig

        return SolveConfig(
            variant=self.variant,
            block_size=self.block_size,
            kernel_backend=self.kernel_backend,
            machine=self.machine,
            n_nodes=self.n_nodes,
            ranks_per_node=self.ranks_per_node,
            fault_plan=list(self.fault_specs) if self.fault_specs else (),
            fault_seed=self.fault_seed,
            verify=self.verify,
            exploit_sparsity=self.exploit_sparsity,
            diag_on_gpu=self.diag_on_gpu,
            trace=self.instrument,
            obs=ObsSinks(metrics=self.instrument),
        )

    def fault_classes(self) -> tuple[str, ...]:
        """The distinct fault kinds this scenario injects (coverage-map
        axis); ``("none",)`` when unarmed."""
        kinds = sorted({spec.partition(":")[0].strip().lower() for spec in self.fault_specs
                        if not spec.startswith("policy")})
        return tuple(kinds) or ("none",)

    def describe(self) -> str:
        faults = ",".join(self.fault_classes())
        fleet = ""
        if self.is_fleet:
            fleet = f" fleet(jobs={self.jobs}"
            if self.resilience is not None:
                fleet += ",resilience"
            if self.deadline is not None:
                fleet += f",deadline={self.deadline:g}"
            fleet += ")"
        return (
            f"{self.scenario_id}: {self.graph.kind} n={self.graph.n} b={self.block_size} "
            f"{self.variant} backend={self.kernel_backend or 'default'} "
            f"{self.machine} {self.n_nodes}x{self.ranks_per_node} "
            f"faults=[{faults}] verify={self.verify}"
            f"{'' if self.diag_on_gpu else ' host-diag'}{fleet}"
        )
