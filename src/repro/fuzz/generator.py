"""Seeded scenario generation with optional coverage steering.

:class:`ScenarioGenerator` draws scenarios from one
``numpy.random.default_rng(seed)`` stream, so a (seed, index) pair
always names the same scenario - the property the replayable corpus
and the fixed-seed CI budgets rest on.

Generation is constraint-aware rather than uniformly random, because
the interesting region is "legal but weird", not "rejected by argument
validation":

* message faults always ride with an armed ``policy:timeout`` -
  a dropped panel with blocking receives is a designed deadlock, not a
  finding;
* crashes usually bring checkpointing (recoverable chaos); sometimes
  deliberately not, to exercise the RankFailure path;
* memory flips often ride with checkpoint+restart policies so upsets
  land on both resident blocks and stored snapshots (an applied flip
  may legitimately escape detection - the equivalence oracle exempts
  applied-flip runs and the SDC matrix measures coverage);
* only bit-exact kernel backends (``rtol == 0``) are sampled - the
  f32 family legitimately diverges from the byte-equality oracle.

With a :class:`~repro.fuzz.autopilot.CoverageMap` attached, each draw
first picks a target (variant x fault-class x verify) cell weighted by
1/(1+hits) - the chaos-autopilot bias toward under-covered regions.

Armed scenarios may additionally *stack* 1-2 companion fault classes
(``p_multi_fault``): a crash during a NIC brownout, a memory flip while
a straggler slows recovery.  Each class contributes its own specs; the
policies merge into one ``policy:`` spec with the primary class winning
key conflicts.  Class-pair coverage accrues under the map's
``fuzz.pairs`` cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .scenario import GraphSpec, Scenario

__all__ = ["GeneratorConfig", "ScenarioGenerator", "bit_exact_backends"]

#: All solver variants (the paper's five plus the schedule-IR-unlocked
#: offload-pipelined).
ALL_VARIANTS = (
    "baseline",
    "pipelined",
    "reordering",
    "async",
    "offload",
    "offload-pipelined",
)

VERIFY_MODES = ("off", "checksum", "full")

#: Fault classes as coverage-map coordinates ("none" = unarmed run).
FAULT_CLASSES = (
    "none",
    "drop",
    "dup",
    "corrupt",
    "nic",
    "straggler",
    "crash",
    "oom",
    "memflip",
)

#: Probability a scenario runs DiagUpdate on the host
#: (``diag_on_gpu=False``, §4.2's host Floyd-Warshall).
P_HOST_DIAG = 0.15

#: (n_nodes, ranks_per_node) shapes that place cleanly for every
#: variant (rank counts 1, 2, 4, 6, 8).
CLUSTER_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (2, 3), (3, 2), (2, 4))


def bit_exact_backends() -> tuple[str, ...]:
    """Available kernel backends whose results byte-match each other
    (``rtol == 0``) - the pool the equivalence oracle can judge.
    ``tiled`` is always in it."""
    from ..semiring.backends import available_backends

    return tuple(
        sorted(
            name
            for name, b in available_backends().items()
            if getattr(b, "rtol", 0.0) == 0.0
        )
    )


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the scenario space (see docs/FUZZING.md)."""

    n_min: int = 8
    n_max: int = 40
    variants: Sequence[str] = ALL_VARIANTS
    #: None = all available bit-exact backends at generator build time.
    backends: Optional[Sequence[str]] = None
    machines: Sequence[str] = ("summit", "frontier-like", "workstation")
    verify_modes: Sequence[str] = VERIFY_MODES
    fault_classes: Sequence[str] = FAULT_CLASSES
    cluster_shapes: Sequence[tuple[int, int]] = CLUSTER_SHAPES
    #: Probability that a scenario arms any faults at all (ignored when
    #: coverage steering picks the class).
    p_faulted: float = 0.65
    #: Probability an armed scenario stacks 1-2 *extra* fault classes on
    #: top of the primary one (crash during a NIC brownout, memflip
    #: while a straggler slows recovery, ...).  Class-pair coverage is
    #: tracked separately under ``fuzz.pairs`` cells.
    p_multi_fault: float = 0.35
    #: Ceiling on distinct fault classes per scenario.
    max_fault_classes: int = 3
    #: Probability a scenario double-runs for the determinism oracle.
    p_determinism: float = 0.25
    #: Probability of exploiting block sparsity on sparse graphs.
    p_sparsity: float = 0.25
    #: Probability a scenario becomes a *fleet* scenario: jobs run on a
    #: resilience-armed ClusterScheduler with drawn retry/quarantine
    #: knobs, judged by the retry-determinism oracle.  Memflip-bearing
    #: scenarios never convert (the applied-flip escape exemption would
    #: hollow the oracle out).
    p_fleet: float = 0.25
    #: Fleet sizes to draw from (1 = a single armed job).
    fleet_jobs: Sequence[int] = (1, 2, 3)
    #: Probability a fleet scenario arms a (generous) per-job deadline,
    #: exercising the watchdog without SLO-killing the jobs.
    p_deadline: float = 0.25


@dataclass
class ScenarioGenerator:
    """Deterministic scenario stream: ``ScenarioGenerator(seed).draw()``."""

    seed: int = 0
    config: GeneratorConfig = field(default_factory=GeneratorConfig)
    #: Optional CoverageMap; when set, draws are biased toward
    #: under-covered (variant x fault-class x verify) cells.
    coverage: Optional[object] = None

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self._backends = tuple(self.config.backends or bit_exact_backends())
        self.drawn = 0

    # -- draws -------------------------------------------------------------
    def draw(self) -> Scenario:
        rng = self.rng
        cfg = self.config
        variant, fault_class, verify = self._pick_cell()
        graph = self._draw_graph()
        n = graph.n
        block_size = int(rng.choice([4, 6, 8, 12, 16]))
        block_size = max(2, min(block_size, n))
        n_nodes, ranks_per_node = cfg.cluster_shapes[
            int(rng.integers(len(cfg.cluster_shapes)))
        ]
        machine = str(rng.choice(cfg.machines))
        fault_classes = self._pick_companions(fault_class)
        fleet = rng.random() < cfg.p_fleet and "memflip" not in fault_classes
        if fleet:
            from ..api import resolve_machine

            # The shared fleet really builds the machine's cluster, so
            # (unlike a plain solve) n_nodes is capacity-checked; clamp
            # *before* drawing faults so their ranks stay in range.
            n_nodes = min(n_nodes, resolve_machine(machine).max_nodes)
        ranks = n_nodes * ranks_per_node
        fault_specs = self._draw_faults(fault_classes, ranks, n_nodes, n, block_size)
        jobs, resilience, deadline = 1, None, None
        if fleet:
            jobs = int(rng.choice(cfg.fleet_jobs))
            resilience = self._draw_resilience()
            fault_specs = self._fleet_faults(fault_specs)
            if rng.random() < cfg.p_deadline:
                # Generous vs the ~1e-3 s simulated makespans at fuzz
                # scale: the watchdog arms, the SLO is met.
                deadline = round(float(rng.uniform(0.5, 2.0)), 4)
        sparse_kinds = ("erdos-renyi", "banded", "grid-road", "ring-cliques")
        scenario = Scenario(
            graph=graph,
            variant=variant,
            block_size=block_size,
            kernel_backend=str(rng.choice(self._backends)),
            machine=machine,
            n_nodes=n_nodes,
            ranks_per_node=ranks_per_node,
            fault_specs=tuple(fault_specs),
            fault_seed=int(rng.integers(2**31)),
            verify=verify,
            exploit_sparsity=bool(
                graph.kind in sparse_kinds and rng.random() < cfg.p_sparsity
            ),
            instrument=True,
            check_determinism=bool(rng.random() < cfg.p_determinism),
            diag_on_gpu=bool(rng.random() >= P_HOST_DIAG),
            jobs=jobs,
            resilience=resilience,
            deadline=deadline,
        )
        self.drawn += 1
        return scenario

    def _draw_resilience(self) -> dict:
        """One fleet's self-healing policy, in the object form
        :meth:`repro.sched.ResiliencePolicy.from_dict` accepts: retry
        backoff/attempt knobs, device-health quarantine knobs, and a
        fleet-wide retry budget."""
        rng = self.rng
        return {
            "retry": {
                "max_attempts": int(rng.integers(2, 5)),
                "backoff_base": round(float(rng.uniform(1e-3, 1e-2)), 6),
                "backoff_factor": float(rng.choice([1.5, 2.0])),
                "jitter": round(float(rng.uniform(0.0, 0.5)), 3),
                "seed": int(rng.integers(2**16)),
            },
            "health": {
                "fault_threshold": int(rng.integers(1, 4)),
                "probation": round(float(rng.uniform(0.005, 0.05)), 6),
            },
            "retry_budget": int(rng.integers(8, 33)),
        }

    def _fleet_faults(self, specs: list[str]) -> list[str]:
        """Adapt drawn fault specs for a fleet scenario: crashes and
        OOMs become terminal for the *attempt* (``restarts=0``, no OOM
        degrade) so recovery goes through the scheduler's retry layer
        instead of the in-run restart loop.  A coin flip keeps or drops
        mid-run checkpoints, exercising both checkpoint-carrying and
        from-scratch re-admission; message-fault liveness keys
        (timeout/retries) are preserved."""
        rng = self.rng
        out = [s for s in specs if not s.startswith("policy")]
        needs_policy = any(
            s.partition(":")[0] in ("crash", "oom", "drop", "dup", "corrupt")
            for s in out
        )
        if not needs_policy:
            return out
        policy: dict[str, str] = {"restarts": "0", "oom_degrade": "false"}
        for spec in specs:
            if not spec.startswith("policy"):
                continue
            for item in spec.partition(":")[2].split(","):
                key, _, value = item.partition("=")
                if key in ("timeout", "retries"):
                    policy[key] = value
        if rng.random() < 0.5:
            policy["ckpt"] = str(int(rng.choice([1, 2])))
        out.append("policy:" + ",".join(f"{k}={v}" for k, v in policy.items()))
        return out

    def _pick_cell(self) -> tuple[str, str, str]:
        rng = self.rng
        cfg = self.config
        if self.coverage is not None:
            cells = [
                (v, f, m)
                for v in cfg.variants
                for f in cfg.fault_classes
                for m in cfg.verify_modes
            ]
            hits = np.array([self.coverage.hits(*c) for c in cells], dtype=float)
            weights = 1.0 / (1.0 + hits)
            weights /= weights.sum()
            return cells[int(rng.choice(len(cells), p=weights))]
        variant = str(rng.choice(cfg.variants))
        verify = str(rng.choice(cfg.verify_modes))
        armed = [c for c in cfg.fault_classes if c != "none"]
        fault_class = (
            str(rng.choice(armed)) if armed and rng.random() < cfg.p_faulted else "none"
        )
        return variant, fault_class, verify

    def _draw_graph(self) -> GraphSpec:
        rng = self.rng
        cfg = self.config
        kind = str(rng.choice(("uniform", "erdos-renyi", "grid-road", "ring-cliques", "banded")))
        seed = int(rng.integers(2**31))
        n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
        if kind == "erdos-renyi":
            return GraphSpec(
                kind=kind, n=n, seed=seed, density=float(rng.uniform(0.1, 0.9))
            )
        if kind == "grid-road":
            rows = int(rng.integers(2, max(3, int(np.sqrt(cfg.n_max)) + 1)))
            cols = int(np.clip(n // rows, 2, cfg.n_max // rows))
            return GraphSpec(kind=kind, n=rows * cols, seed=seed, rows=rows, cols=cols)
        if kind == "ring-cliques":
            n_cliques = int(rng.integers(2, 6))
            clique = int(np.clip(n // n_cliques, 2, max(2, cfg.n_max // n_cliques)))
            return GraphSpec(
                kind=kind, n=n_cliques * clique, seed=seed,
                n_cliques=n_cliques, clique_size=clique,
            )
        if kind == "banded":
            return GraphSpec(
                kind=kind, n=n, seed=seed, bandwidth=int(rng.integers(1, max(2, n // 4)))
            )
        return GraphSpec(kind=kind, n=n, seed=seed)

    def _pick_companions(self, fault_class: str) -> list[str]:
        """The scenario's full class list: the (coverage-steered)
        primary class, plus 0-2 extra armed classes with probability
        ``p_multi_fault`` - multi-fault scenarios are where recovery
        paths compose (and where class-*pair* coverage accrues)."""
        rng = self.rng
        cfg = self.config
        if fault_class == "none":
            return []
        classes = [fault_class]
        others = [c for c in cfg.fault_classes if c not in ("none", fault_class)]
        if others and rng.random() < cfg.p_multi_fault:
            n_extra = int(rng.integers(1, cfg.max_fault_classes))
            n_extra = min(n_extra, len(others))
            extras = rng.choice(len(others), size=n_extra, replace=False)
            classes.extend(others[int(i)] for i in extras)
        return classes

    def _draw_faults(
        self, fault_classes: Sequence[str], ranks: int, n_nodes: int, n: int, b: int
    ) -> list[str]:
        """Concrete specs for every class, with one *merged* policy
        spec: the primary class's policy keys win on conflict, later
        classes only fill gaps (so e.g. a deliberately unrecoverable
        crash's ``restarts=0`` survives an OOM companion)."""
        specs: list[str] = []
        policy: dict[str, str] = {}
        for fault_class in fault_classes:
            class_specs, class_policy = self._class_faults(
                fault_class, ranks, n_nodes, n, b
            )
            specs.extend(class_specs)
            for key, value in class_policy.items():
                policy.setdefault(key, value)
        if policy:
            specs.append("policy:" + ",".join(f"{k}={v}" for k, v in policy.items()))
        return specs

    def _class_faults(
        self, fault_class: str, ranks: int, n_nodes: int, n: int, b: int
    ) -> tuple[list[str], dict[str, str]]:
        rng = self.rng
        nb = max(1, -(-n // b))
        specs: list[str] = []
        policy: dict[str, str] = {}

        def rank() -> int:
            return int(rng.integers(ranks))

        if fault_class in ("drop", "dup", "corrupt"):
            for _ in range(int(rng.integers(1, 3))):
                if rng.random() < 0.6:
                    sel = f"nth={int(rng.integers(1, 6))}"
                else:
                    sel = f"p={float(rng.uniform(0.01, 0.15)):.3f}"
                parts = [sel]
                if rng.random() < 0.5 and ranks > 1:
                    parts.append(f"src={rank()}")
                if fault_class == "corrupt" and rng.random() < 0.5:
                    parts.append(f"bits={int(rng.integers(1, 4))}")
                specs.append(f"{fault_class}:" + ",".join(parts))
            # Blocking receives turn a dropped message into a designed
            # deadlock; retransmit needs an armed deadline.
            policy["timeout"] = f"{float(rng.uniform(5e-4, 2e-3)):.2e}"
            policy["retries"] = str(int(rng.integers(3, 8)))
        elif fault_class == "nic":
            t0 = float(rng.uniform(0, 1e-3))
            specs.append(
                f"nic:node={int(rng.integers(n_nodes))},"
                f"factor={float(rng.uniform(2, 8)):.2f},"
                f"t0={t0:.2e},t1={t0 + float(rng.uniform(1e-4, 2e-3)):.2e}"
            )
        elif fault_class == "straggler":
            specs.append(
                f"straggler:rank={rank()},factor={float(rng.uniform(1.5, 4)):.2f}"
            )
        elif fault_class == "crash":
            specs.append(f"crash:rank={rank()},at={float(rng.uniform(0, 1e-3)):.2e}")
            if rng.random() < 0.85:  # usually recoverable chaos
                policy["timeout"] = f"{float(rng.uniform(5e-4, 2e-3)):.2e}"
                policy["ckpt"] = str(int(rng.choice([1, 2, 4])))
                policy["restarts"] = str(int(rng.integers(2, 5)))
            else:  # deliberately unrecoverable: RankFailure path
                policy["restarts"] = "0"
        elif fault_class == "oom":
            specs.append(f"oom:rank={rank()},k={int(rng.integers(nb))}")
            policy["ckpt"] = str(int(rng.choice([1, 2])))
            policy["restarts"] = str(int(rng.integers(2, 5)))
        elif fault_class == "memflip":
            target = "block"
            if rng.random() < 0.2:
                target = "checkpoint"
            specs.append(
                f"memflip:rank={rank()},k={int(rng.integers(nb))},target={target},"
                f"bits={int(rng.integers(1, 3))}"
            )
            if target == "checkpoint" or rng.random() < 0.5:
                policy["ckpt"] = str(int(rng.choice([1, 2])))
                policy["restarts"] = str(int(rng.integers(2, 5)))
        return specs, policy
