"""The public library entry point: ``repro.solve(graph, SolveConfig())``.

After the kernel-backend, fault-injection, schedule-IR, and ABFT
layers, the solver grew ~25 keyword arguments plus two environment
variables.  This module gathers them into one frozen
:class:`SolveConfig` (construct once, ``replace()`` to vary, pass
around freely) and one :func:`solve` call, and makes the config the
single attachment point for observability sinks (:class:`ObsSinks`).

Precedence for environment-configurable knobs is **explicit argument >
environment variable > built-in default**:

* ``SolveConfig(kernel_backend=...)`` beats ``$REPRO_SRGEMM_BACKEND``
  beats ``"cnative"``, else ``"tiled"`` on a host with no C compiler;
* ``SolveConfig(fault_plan=...)`` beats ``$REPRO_FAULT_PLAN`` beats
  no plan.

:meth:`SolveConfig.from_env` materializes the environment layer into
the config, so the run's provenance is inspectable instead of implied
(the lower layers apply the same precedence either way; each rule is
pinned by ``tests/test_solve_api.py``).

Typical use::

    import repro
    from repro.graphs import uniform_random_dense

    w = uniform_random_dense(256, seed=0)
    cfg = repro.SolveConfig(variant="async", block_size=32, n_nodes=4,
                            ranks_per_node=4)
    result = repro.solve(w, cfg)
    print(result.makespan, result.report.summary())
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from .errors import ConfigurationError, InternalError, ReproError
from .obs.sinks import ObsSinks

__all__ = [
    "ObsSinks",
    "SolveConfig",
    "solve",
    "serve",
    "submit",
    "resolve_machine",
    "config_to_jsonable",
]


@dataclass(frozen=True)
class SolveConfig:
    """Frozen configuration of one distributed APSP solve.

    The one declaration of the solve vocabulary - the engine
    (:func:`repro.core.driver.plan_run`) reads these fields directly:
    construct one, derive variations with :meth:`replace`, and hand it
    to :func:`solve` or :func:`submit`.
    """

    # -- algorithm ----------------------------------------------------------
    variant: str = "async"
    block_size: Optional[int] = None
    #: The semiring SrGemm runs over: a
    #: :class:`~repro.semiring.Semiring` or its ``SEMIRINGS`` name.
    semiring: Any = "min_plus"
    #: Carry next-hop pointer blocks through the distributed sweep;
    #: ``result.next_hops`` is then the full pointer matrix.  (min,+)
    #: only; not supported by the offload variants.
    track_paths: bool = False
    #: Skip all-infinite blocks in panel broadcasts and outer products
    #: (fill-in re-checked every iteration).  Requires real numerics.
    exploit_sparsity: bool = False
    #: SrGemm kernel backend name; None defers to
    #: ``$REPRO_SRGEMM_BACKEND``, then ``"cnative"``, else ``"tiled"`` (see
    #: :meth:`from_env` for materializing that precedence).
    kernel_backend: Optional[str] = None

    # -- cluster shape ------------------------------------------------------
    machine: Any = "summit"  # preset name or MachineSpec
    n_nodes: int = 1
    ranks_per_node: Optional[int] = None
    #: Process grid as ``(pr, pc)``; None picks the near-square grid.
    grid: Optional[tuple[int, int]] = None
    #: Explicit :class:`~repro.core.RankPlacement` (paper §3.4); None
    #: picks the variant's policy (contiguous, or the K_r ≈ K_c tiling
    #: for reordering/async).
    placement: Any = None
    #: Virtual/physical scaling of all costs (see
    #: :class:`~repro.machine.cost.CostModel`); 1.0 simulates the
    #: physical matrix literally.
    dim_scale: float = 1.0
    #: ``{node_id: factor}`` NIC slowdowns modeling contended links or
    #: slow nodes (the paper's §3.3 motivation for the async ring).
    stragglers: Optional[Mapping[int, float]] = None

    # -- schedule details ---------------------------------------------------
    diag_on_gpu: bool = True
    n_streams: int = 3
    ring_segments: int = 1
    mx_blocks: int = 2
    nx_blocks: int = 2

    # -- fault tolerance ----------------------------------------------------
    #: A :class:`~repro.faults.FaultPlan`, CLI-style spec string(s), or
    #: None, which defers to ``$REPRO_FAULT_PLAN``.
    fault_plan: Any = None
    checkpoint_interval: Optional[int] = None
    recv_timeout: Optional[float] = None
    fault_seed: int = 0

    # -- verification / validation ------------------------------------------
    verify: str = "off"
    #: Collect the result and have it certified against an independent
    #: oracle (:func:`repro.graphs.oracle.certify`, which shares no
    #: kernel with the run); a wrong answer is a ``ValidationError``.
    #: The check is an O(n³) NumPy pass whatever the kernel backend.
    validate: bool = False
    check_negative_cycles: bool = True

    # -- outputs ------------------------------------------------------------
    #: Gather the distributed blocks into ``result.dist``; False leaves
    #: it None (timing-only runs).
    collect: bool = True
    #: False runs the simulation hollow - every cost charged, no
    #: arithmetic done - so it needs ``collect=False, validate=False``.
    compute_numerics: bool = True
    trace: bool = False
    obs: ObsSinks = field(default_factory=ObsSinks)

    def replace(self, **changes) -> "SolveConfig":
        """A copy with the given fields replaced (the frozen-dataclass
        idiom for deriving variations)."""
        try:
            return dataclasses.replace(self, **changes)
        except TypeError as exc:
            raise ConfigurationError(f"unknown SolveConfig field: {exc}") from None

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, **fields
    ) -> "SolveConfig":
        """Build a config with the environment layer materialized.

        Precedence per knob: **explicit field > environment variable >
        default** - an explicit ``kernel_backend`` / ``fault_plan``
        always wins; the environment only fills fields left at their
        ``None`` default.

        ``environ`` defaults to ``os.environ`` (injectable for tests).
        """
        from .faults.plan import FAULT_PLAN_ENV, FaultPlan
        from .semiring.backends import ENV_BACKEND

        env = os.environ if environ is None else environ
        config = cls(**fields)
        if config.kernel_backend is None:
            backend = env.get(ENV_BACKEND)
            if backend:
                config = config.replace(kernel_backend=backend)
        if config.fault_plan is None:
            plan_json = env.get(FAULT_PLAN_ENV)
            if plan_json:
                config = config.replace(fault_plan=FaultPlan.from_json(plan_json))
        return config


def config_to_jsonable(config: SolveConfig) -> dict:
    """Serialize a :class:`SolveConfig` to a plain JSON-able dict.

    This is the replay vocabulary shared by the scenario fuzzer
    (:mod:`repro.fuzz`) and the :class:`~repro.errors.InternalError`
    crash dump: a :class:`~repro.machine.spec.MachineSpec` collapses to
    its preset name, a :class:`~repro.semiring.Semiring` to its
    registry name, a :class:`~repro.faults.FaultPlan` to its JSON
    document, a placement to ``{qr, qc, rank_to_node}`` and
    ``ObsSinks`` to its field dict, so the result feeds straight back
    into :meth:`SolveConfig.replace` / ``repro-apsp fuzz replay``.
    """
    from .core.placement import RankPlacement
    from .faults.plan import FaultPlan
    from .machine.spec import MachineSpec
    from .semiring.minplus import Semiring

    out: dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "machine" and isinstance(value, MachineSpec):
            value = value.name
        elif f.name == "semiring" and isinstance(value, Semiring):
            value = value.name
        elif f.name == "placement" and isinstance(value, RankPlacement):
            value = {"qr": value.qr, "qc": value.qc,
                     "rank_to_node": list(value.rank_to_node)}
        elif f.name == "fault_plan" and isinstance(value, FaultPlan):
            value = json.loads(value.to_json())
        elif f.name == "fault_plan" and isinstance(value, (tuple, list)):
            value = list(value)
        elif f.name == "obs":
            value = dataclasses.asdict(value)
        elif f.name == "stragglers" and value is not None:
            value = {str(k): v for k, v in dict(value).items()}
        elif f.name == "grid" and value is not None:
            value = list(value)
        out[f.name] = value
    return out


def resolve_machine(machine: Any):
    """Resolve a machine preset name (or pass a
    :class:`~repro.machine.spec.MachineSpec` through)."""
    from .machine import MACHINES
    from .machine.spec import MachineSpec

    if isinstance(machine, MachineSpec):
        return machine
    if isinstance(machine, str):
        try:
            return MACHINES[machine]
        except KeyError:
            raise ConfigurationError(
                f"unknown machine preset {machine!r}; known: {sorted(MACHINES)}"
            ) from None
    raise ConfigurationError(
        f"machine must be a preset name or MachineSpec, got {type(machine).__name__}"
    )


def resolve_config(config: Optional[SolveConfig], overrides: dict) -> SolveConfig:
    """``config`` (default-constructed when None) with ``overrides``
    applied - the shared prologue of :func:`solve` and
    :meth:`~repro.sched.ClusterScheduler.submit`."""
    if config is None:
        config = SolveConfig()
    if not isinstance(config, SolveConfig):
        raise ConfigurationError(
            f"config must be a SolveConfig, got {type(config).__name__}"
        )
    return config.replace(**overrides) if overrides else config


def solve(graph, config: Optional[SolveConfig] = None, **overrides):
    """Solve all-pairs shortest paths: the public one-call entry point.

    ``graph`` is a square weight matrix (``+inf`` = missing edge);
    ``config`` a :class:`SolveConfig` (default-constructed when
    omitted).  Keyword overrides are applied on top via
    :meth:`SolveConfig.replace`, so quick calls stay one-liners::

        result = repro.solve(w, variant="offload", block_size=64)

    Returns an :class:`~repro.core.driver.ApspResult` (``dist``,
    ``report``, ``makespan``, ``certificate``, ``faults``,
    ``metrics``).  Observability sinks are validated *before* the
    solve (:class:`~repro.errors.SinkError` on unusable paths) and
    written after it.
    """
    config = resolve_config(config, overrides)
    # Fail on unusable sinks in milliseconds, not after the solve.
    config.obs.validate()

    from .core.driver import plan_run, run_private

    # Anything that escapes the engine without being a ReproError is a
    # bug, not a modeled failure: wrap it in InternalError (distinct
    # exit code 14) carrying the offending config as replayable
    # scenario JSON.  The fuzzer and real users share this path.
    try:
        machine = resolve_machine(config.machine)
        result = run_private(
            plan_run(graph, config, machine),
            machine,
            dim_scale=config.dim_scale,
            trace=config.trace or config.obs.trace_out is not None,
            stragglers=dict(config.stragglers) if config.stragglers else None,
            metrics=config.obs.enabled,
        )
        _write_sinks(config, result)
    except ReproError:
        raise
    except Exception as exc:
        raise InternalError(exc, scenario_json=json.dumps(config_to_jsonable(config))) from exc
    return result


def _write_sinks(config: SolveConfig, result) -> None:
    if config.obs.metrics_out is not None:
        payload = {"run": _run_header(result.report)}
        payload.update(result.metrics.as_dict())
        with open(config.obs.metrics_out, "w") as f:
            json.dump(payload, f, indent=2)
    if config.obs.trace_out is not None:
        from .obs.export import write_chrome_trace

        write_chrome_trace(
            result.tracer,
            config.obs.trace_out,
            run_name=f"repro {result.report.variant} "
            f"n={result.report.n_virtual:g} b={result.report.block_size}",
        )


def serve(source, config=None, **kwargs):
    """Open a :class:`~repro.serve.QueryServer` over a solved instance -
    the serving sibling of :func:`solve` (see :mod:`repro.serve`).

    ``source`` is an artifact path / :class:`~repro.serve.Artifact`
    (persisted via :meth:`~repro.core.driver.ApspResult.save`), an
    :class:`~repro.core.driver.ApspResult`, or a distance matrix;
    ``config`` a :class:`~repro.serve.ServeConfig` with keyword
    overrides on top::

        server = repro.serve(result, cache_bytes=1 << 28)
        d = server.distance(0, 42)
    """
    from .serve.server import serve as _serve

    return _serve(source, config, **kwargs)


def submit(graph, config: Optional[SolveConfig] = None, *, scheduler=None,
           name: Optional[str] = None, priority: int = 0, weight: float = 1.0,
           arrival: float = 0.0, retry=None, deadline: Optional[float] = None,
           **overrides):
    """Submit a job to a shared cluster; returns a
    :class:`~repro.sched.JobHandle` instead of blocking on the result.

    The job-oriented sibling of :func:`solve`: where ``solve`` builds a
    private machine, runs one APSP, and returns its
    :class:`~repro.core.driver.ApspResult`, ``submit`` enqueues the same
    work on a :class:`~repro.sched.ClusterScheduler` - by default a
    fresh one sized from the config (the degenerate one-job schedule,
    bit-exact and makespan-exact against ``solve``), or an explicit
    shared ``scheduler=`` to run against other tenants' jobs::

        sched = repro.sched.ClusterScheduler(n_nodes=4)
        h1 = repro.submit(w1, cfg, scheduler=sched, priority=1)
        h2 = repro.submit(w2, cfg, scheduler=sched)
        dist = h1.result()            # drives both jobs to completion

    ``priority`` buys a larger fair share of contended GPU streams and
    NIC bandwidth (2x per level), ``weight`` subdivides within a
    priority level, and ``arrival`` delays the job's (simulated)
    arrival at the cluster.  See docs/SCHEDULING.md.

    ``retry`` (a :class:`~repro.sched.RetryPolicy` or its dict form)
    and ``deadline`` (a simulated-seconds SLO from arrival) require a
    resilience-armed scheduler - ``ClusterScheduler(resilience=True)``
    or a :class:`~repro.sched.ResiliencePolicy`; see docs/RESILIENCE.md.
    """
    config = resolve_config(config, overrides)
    if scheduler is None:
        from .sched import ClusterScheduler

        scheduler = ClusterScheduler(
            machine=config.machine,
            n_nodes=config.n_nodes,
            dim_scale=config.dim_scale,
            trace=config.trace or config.obs.trace_out is not None,
            resilience=True if (retry is not None or deadline is not None) else None,
        )
    return scheduler.submit(
        graph, config, name=name, priority=priority, weight=weight,
        arrival=arrival, retry=retry, deadline=deadline,
    )


def _run_header(report) -> dict:
    return {
        "variant": report.variant,
        "n_virtual": report.n_virtual,
        "block_size": report.block_size,
        "n_nodes": report.n_nodes,
        "ranks": report.ranks,
        "grid": [report.grid_pr, report.grid_pc],
        "machine": report.machine,
        "makespan": report.makespan,
    }
