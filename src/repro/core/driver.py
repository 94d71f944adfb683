"""The solve engine: plan, supervise and assemble one distributed APSP.

Every solve - ``repro.solve`` and each job of the multi-tenant
scheduler (:mod:`repro.sched`) - goes through the same stages:

* :func:`plan_run` - pure planning: validate a
  :class:`~repro.api.SolveConfig`, resolve grid / placement / block
  size / the variant's policies / fault plan into a :class:`RunPlan`
  (no simulation objects touched);
* :class:`MachineHandles` - the simulated machine (environment,
  cluster, cost model, tracer): private to one solve, or one set
  shared by N concurrent jobs;
* :func:`run_solve` - the one supervisor, a simulated process: open the
  context (:func:`open_solve`), run the epoch/recovery loop - which
  owns the one dead-world rule (:data:`FAILURE_GRACE`,
  :func:`kick_deadlocked`) - assemble the result, release the memory
  charges.  :func:`run_private` runs it on a private machine
  (:class:`SolveWorld`), the scheduler's runner on the shared one;
* :func:`make_state_builders` - the per-rank state construction and
  HBM/DRAM accounting closures;
* :func:`build_result` - collection, validation, report and
  certificate assembly after the simulated run.

The public entry point is ``repro.solve(w, repro.SolveConfig(...))``
(:mod:`repro.api`), which is ``run_private(plan_run(w, config,
machine), machine, ...)``; ``result.save(path)`` then persists the
solve as a serving artifact - see :mod:`repro.serve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..errors import (
    CheckpointError,
    CommTimeoutError,
    ConfigurationError,
    GpuOutOfMemory,
    RankFailure,
    SilentCorruptionError,
    VerificationError,
)
from ..faults import CheckpointStore, FaultInjector, FaultPlan, FaultRuntime, resolve_fault_plan
from ..graphs.oracle import certify
from ..machine.cluster import SimCluster
from ..machine.cost import CostModel
from ..machine.spec import MachineSpec
from ..mpi.comm import SimMPI
from ..mpi.policy import BcastPolicy
from ..semiring.closure import check_no_negative_cycle
from ..semiring.minplus import MIN_PLUS, SEMIRINGS, Semiring
from ..sim.engine import Environment, Interrupt
from ..sim.trace import Tracer
from ..verify.runtime import VERIFY_MODES
from .context import FwContext, RankState
from .distribution import collect, distribute, pad_to_blocks
from .executor import HOST_RESIDENT, ResidencyPolicy, execute_schedule
from .grid import ProcessGrid, near_square_factors
from .placement import (
    RankPlacement,
    contiguous_placement,
    optimal_placement,
    tiled_placement,
)
from .report import PerfReport
from .schedule import SchedulePolicy
from .variants import VARIANTS, Variant, offloaded

if TYPE_CHECKING:
    from ..api import SolveConfig

__all__ = [
    "ApspResult",
    "MachineHandles",
    "RunPlan",
    "SolveWorld",
    "build_result",
    "make_state_builders",
    "placement_for_variant",
    "plan_run",
    "run_private",
    "run_solve",
    "default_block_size",
]

#: Simulated seconds (plus the plan's ``recv_timeout``) from an epoch's
#: first rank failure to the interrupt of its still-blocked ranks.
FAILURE_GRACE = 0.05


@dataclass
class ApspResult:
    """Outcome of one simulated distributed APSP run."""

    #: The full n x n distance matrix (None when ``collect=False``).
    dist: Optional[np.ndarray]
    report: PerfReport
    tracer: Optional[Tracer]
    #: Next-hop pointers (only when ``track_paths=True``): the vertex
    #: after i on a shortest i->j path, -1 where none.
    next_hops: Optional[np.ndarray] = None
    #: ``faults.*`` injection/recovery counters (only when the run was
    #: armed with a fault plan); None on plain runs.
    fault_counters: Optional[dict[str, float]] = None
    #: ABFT verification certificate (only when ``verify != "off"``):
    #: checks run, corruption detected/repaired/escalated, and - in
    #: ``full`` mode - the residual audit.  Also attached to
    #: ``report.verification``.
    verification: Optional[dict] = None
    #: Observability registry (only when the run was armed with
    #: ``metrics=True``): a :class:`~repro.obs.metrics.MetricsRegistry`
    #: holding the full metric catalog (see docs/OBSERVABILITY.md).  A
    #: flat snapshot also lands on ``report.metrics``.
    metrics: Optional[object] = None

    # -- consistent field-name aliases (the public result vocabulary:
    # makespan / certificate / faults / metrics) ------------------------
    @property
    def makespan(self) -> float:
        """Simulated end-to-end seconds (``report.elapsed``)."""
        return self.report.elapsed

    @property
    def certificate(self) -> Optional[dict]:
        """The ABFT verification certificate (alias of ``verification``)."""
        return self.verification

    @property
    def faults(self) -> Optional[dict]:
        """Fault injection/recovery counters (alias of ``fault_counters``)."""
        return self.fault_counters

    # -- persistence ----------------------------------------------------
    def save(self, path, *, block_size=None, graph=None, overwrite=False):
        """Persist this result as a serving artifact directory (see
        :mod:`repro.serve`): distance blocks at rest (content-addressed,
        CRC-per-block) plus the run certificate and solve provenance.
        Pass ``graph=`` (the solved weight matrix) to enable the
        incremental edge-update path.  Returns the saved
        :class:`~repro.serve.Artifact`; serve it with
        ``repro.serve(path)``."""
        from ..serve.artifact import save_artifact

        return save_artifact(
            self, path, block_size=block_size, graph=graph, overwrite=overwrite
        )


def default_block_size(n: int, grid: ProcessGrid) -> int:
    """A block size giving each process row/column ~4 block rows, so
    the pipeline has room to wind up; clamped to [1, n]."""
    target_nb = 4 * max(grid.pr, grid.pc)
    return max(1, min(n, -(-n // target_nb)))


def placement_for_variant(
    variant: Variant, grid: ProcessGrid, ranks_per_node: int
) -> RankPlacement:
    """Default placement per variant, from the placement column of
    :data:`~repro.core.variants.VARIANTS`: the optimal K_r ≈ K_c tiling,
    or launcher-style contiguous packing."""
    if VARIANTS[variant].placement == "optimal":
        return optimal_placement(grid, ranks_per_node)
    try:
        return contiguous_placement(grid, ranks_per_node)
    except ConfigurationError:
        # Contiguous packing wraps rows for this shape; use the closest
        # rectangular equivalent (1 x Q or Q x 1 tile).
        if grid.pc % ranks_per_node == 0:
            return tiled_placement(grid, 1, ranks_per_node)
        if grid.pr % ranks_per_node == 0:
            return tiled_placement(grid, ranks_per_node, 1)
        return optimal_placement(grid, ranks_per_node)


@dataclass
class MachineHandles:
    """The simulated machine of one (or many) runs.

    :func:`run_private` builds a private set; the cluster scheduler
    builds one set and injects it into every job so N concurrent solves
    contend for the same simulated GPUs and NICs.
    """

    env: Environment
    cluster: SimCluster
    cost: CostModel
    #: The fleet tracer; ``None`` when tracing is off.
    tracer: Optional[Tracer] = None

    @classmethod
    def create(
        cls,
        machine: MachineSpec,
        n_nodes: int,
        dim_scale: float = 1.0,
        trace: bool = False,
    ) -> "MachineHandles":
        env = Environment()
        tracer = Tracer(enabled=trace)
        cost = CostModel(machine, dim_scale=dim_scale)
        cluster = SimCluster(env, machine, n_nodes, cost, tracer if trace else None)
        return cls(env=env, cluster=cluster, cost=cost, tracer=tracer if trace else None)


@dataclass
class RunPlan:
    """The fully-resolved static shape of one APSP run.

    Produced by :func:`plan_run` before any simulation object exists,
    so the scheduler's admission controller can cost a job (memory
    demand, predicted makespan) without touching the shared machine.
    """

    var: Variant
    #: The caller's config; every option that needs no resolving
    #: (``track_paths``, ``collect``, ``verify``, ...) is read from it.
    config: "SolveConfig"
    #: The variant's row of :data:`~repro.core.variants.VARIANTS`,
    #: resolved (``bcast`` has ``ring_segments`` applied).
    schedule: SchedulePolicy
    residency: ResidencyPolicy
    bcast: BcastPolicy
    grid: ProcessGrid
    placement: RankPlacement
    b: int
    n: int
    n_orig: int
    nb: int
    n_ranks: int
    n_nodes: int
    semiring: Semiring
    w: np.ndarray
    padded: np.ndarray
    plan: Optional[FaultPlan] = None
    locals_: Optional[list] = field(default=None, repr=False)
    nxt_locals: Optional[list] = field(default=None, repr=False)

    def distribute(self) -> None:
        """Scatter the padded matrix (and next-hop pointers) into
        per-rank local matrices; idempotent."""
        if self.locals_ is not None:
            return
        self.locals_ = distribute(self.padded, self.b, self.grid)
        if self.config.track_paths:
            from ..semiring.path_kernels import NO_HOP, init_next_hops

            nxt_global = init_next_hops(self.padded)
            np.fill_diagonal(nxt_global, NO_HOP)
            self.nxt_locals = distribute(nxt_global, self.b, self.grid)


def plan_run(weights: np.ndarray, config: "SolveConfig", machine: MachineSpec) -> RunPlan:
    """Resolve a :class:`~repro.api.SolveConfig` into a :class:`RunPlan`
    (pure planning).  ``repro.solve`` and the cluster scheduler
    (``submit`` and the resilience re-plan ladder) both plan - and
    price - a config through here.  ``machine`` is the resolved
    :class:`~repro.machine.spec.MachineSpec` (the fleet's, for a job)."""
    w = np.asarray(weights)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConfigurationError(f"weights must be square, got {w.shape}")
    n = w.shape[0]
    var = Variant.parse(config.variant)
    semiring = config.semiring
    if isinstance(semiring, str):
        if semiring not in SEMIRINGS:
            raise ConfigurationError(
                f"unknown semiring {semiring!r}; known: {sorted(SEMIRINGS)}"
            )
        semiring = SEMIRINGS[semiring]
    elif not isinstance(semiring, Semiring):
        raise ConfigurationError(
            f"semiring must be a Semiring or its name, got {type(semiring).__name__}"
        )

    n_nodes = config.n_nodes
    ranks_per_node = config.ranks_per_node
    if ranks_per_node is None:
        ranks_per_node = 2 * machine.node.gpus_per_node
    n_ranks = n_nodes * ranks_per_node
    if config.grid is None:
        grid = ProcessGrid(*near_square_factors(n_ranks))
    else:
        grid = ProcessGrid(*config.grid)
        if grid.size != n_ranks:
            raise ConfigurationError(
                f"grid {grid.pr}x{grid.pc} has {grid.size} ranks but "
                f"{n_nodes} nodes x {ranks_per_node} ranks/node = {n_ranks}"
            )
    placement = config.placement
    if placement is None:
        placement = placement_for_variant(var, grid, ranks_per_node)
    elif not isinstance(placement, RankPlacement):
        raise ConfigurationError(
            f"placement must be a RankPlacement, got {type(placement).__name__}"
        )
    if placement.n_nodes != n_nodes:
        raise ConfigurationError(
            f"placement spans {placement.n_nodes} nodes, run requested {n_nodes}"
        )

    b = config.block_size if config.block_size is not None else default_block_size(n, grid)
    padded, n_orig = pad_to_blocks(w, b, semiring)
    nb = padded.shape[0] // b

    row = VARIANTS[var]
    _check_options(config, semiring, offload=row.residency is HOST_RESIDENT)

    plan = resolve_fault_plan(config.fault_plan, seed=config.fault_seed)
    overrides = {
        name: getattr(config, name)
        for name in ("checkpoint_interval", "recv_timeout")
        if getattr(config, name) is not None
    }
    if overrides:
        plan = (plan if plan is not None else FaultPlan(seed=config.fault_seed)).replace(**overrides)
        if not plan.armed():
            plan = None
    if plan is not None:
        for c in plan.crashes:
            if not 0 <= c.rank < n_ranks:
                raise ConfigurationError(f"crash rank {c.rank} outside world of {n_ranks}")

    return RunPlan(
        var=var,
        config=config,
        schedule=row.schedule,
        residency=row.residency,
        bcast=row.bcast.segmented(config.ring_segments),
        grid=grid,
        placement=placement,
        b=b,
        n=n,
        n_orig=n_orig,
        nb=nb,
        n_ranks=n_ranks,
        n_nodes=n_nodes,
        semiring=semiring,
        w=w,
        padded=padded,
        plan=plan,
    )


def _check_options(config: "SolveConfig", semiring: Semiring, offload: bool) -> None:
    """The cross-field rules of a :class:`~repro.api.SolveConfig`
    (``block_size >= 1`` is :func:`pad_to_blocks`'s)."""
    if not config.compute_numerics and (config.validate or config.collect):
        raise ConfigurationError(
            "compute_numerics=False runs the simulation hollow; the result "
            "matrix is meaningless - pass collect=False, validate=False"
        )
    if config.n_streams < 1:
        raise ConfigurationError(f"n_streams must be >= 1, got {config.n_streams}")
    if config.mx_blocks < 1 or config.nx_blocks < 1:
        raise ConfigurationError("offload tile must be at least one block")
    if config.ring_segments < 1:
        raise ConfigurationError(f"ring_segments must be >= 1, got {config.ring_segments}")
    if config.exploit_sparsity:
        if not config.compute_numerics:
            raise ConfigurationError(
                "exploit_sparsity needs compute_numerics=True (the data "
                "determines which blocks are skippable)"
            )
        if offload:
            raise ConfigurationError(
                "exploit_sparsity is not supported by the offload schedule"
            )
    if config.track_paths:
        if semiring is not MIN_PLUS:
            raise ConfigurationError("track_paths requires the (min,+) semiring")
        if offload:
            raise ConfigurationError(
                "track_paths is not supported by the offload schedule; "
                "use next_hop_from_distances on the collected result instead"
            )
        if not config.compute_numerics:
            raise ConfigurationError("track_paths requires compute_numerics=True")
    if config.verify not in VERIFY_MODES:
        raise ConfigurationError(
            f"verify must be 'off', 'checksum' or 'full', got {config.verify!r}"
        )
    if config.verify != "off":
        if not config.compute_numerics:
            raise ConfigurationError(
                "verification needs compute_numerics=True (hollow runs "
                "have no data to checksum)"
            )
        if not semiring.idempotent_plus:
            raise ConfigurationError(
                "ABFT checksums require an idempotent ⊕ (comparison "
                f"semirings); {semiring.name} is not"
            )


def make_state_builders(
    ctx: FwContext, rp: RunPlan
) -> tuple[Callable, Callable]:
    """The per-rank state construction / teardown closures of a run.

    ``build_states(blocks_by_rank, nxt_by_rank)`` constructs every
    :class:`RankState`, each rank's blocks in one local matrix
    (:class:`~repro.core.distribution.RankBlocks`), and charges the
    HBM / host-DRAM footprint of the context's *current* residency
    (:meth:`~repro.core.executor.ResidencyPolicy.footprint`), rolling
    the partial charges back on :class:`~repro.errors.GpuOutOfMemory`.
    ``teardown_states(states)`` releases the charges.
    """

    def teardown_states(states: list[RankState]) -> None:
        for state in states:
            if state.hbm_charged:
                state.gpu.dealloc(state.hbm_charged)
                state.hbm_charged = 0
            if state.dram_charged:
                state.host.dealloc(state.dram_charged)
                state.dram_charged = 0

    def build_states(blocks_by_rank, nxt_by_rank) -> list[RankState]:
        states = [
            RankState(ctx, r, blocks_by_rank[r], nxt=None if nxt_by_rank is None else nxt_by_rank[r])
            for r in range(rp.n_ranks)
        ]
        try:
            for state in states:
                hbm, dram = ctx.residency.footprint(
                    ctx.cost, rp.b, len(state.local_rows()), len(state.local_cols()),
                    rp.config,
                )
                if dram:
                    state.dram_charged = dram
                    state.host.alloc(dram, "local distance matrix")
                state.hbm_charged = state.gpu.alloc(
                    hbm, f"rank {state.me} {ctx.residency.name}-resident buffers"
                )
        except GpuOutOfMemory:
            teardown_states(states)  # roll back the partial charges
            raise
        return states

    return build_states, teardown_states


def build_result(
    ctx: FwContext,
    rp: RunPlan,
    states: list[RankState],
    elapsed: float,
) -> ApspResult:
    """Assemble the :class:`ApspResult` of a completed simulated run:
    gather + negative-cycle check, certification against the
    independent oracle (:func:`repro.graphs.oracle.certify`), PerfReport,
    verification certificate and the finalized metrics catalog."""
    obs, tracer = ctx.obs, ctx.tracer
    injector = None if ctx.faults is None else ctx.faults.injector
    config = rp.config
    semiring = rp.semiring
    dist = None
    next_hops = None
    if config.collect or config.validate:
        dist = collect([s.blocks for s in states], rp.n_orig, rp.b, rp.grid)
        if config.track_paths:
            next_hops = collect([s.nxt for s in states], rp.n_orig, rp.b, rp.grid)
        if config.check_negative_cycles and semiring is MIN_PLUS:
            check_no_negative_cycle(dist)
    if config.validate:
        certify(rp.w, dist, next_hops, semiring)

    # The context's residency differs from the plan's only after OOM
    # degradation (see _degrade_to_offload).
    landed = rp.var if ctx.residency is rp.residency else offloaded(ctx.schedule)
    report = PerfReport.from_run(
        rp.var.value if landed is rp.var else f"{rp.var.value}->{landed.value}",
        rp.n, ctx.cost, rp.placement, elapsed, ctx.mpi, ctx.cluster, tracer,
    )
    report.landed_variant = landed.value
    report.semiring = semiring.name
    report.block_size = rp.b
    verification = None
    if ctx.verify is not None:
        audit_dist = dist if config.verify == "full" and dist is not None else None
        verification = ctx.verify.build_certificate(
            audit_dist, rp.w if audit_dist is not None else None
        )
        report.verification = verification
        if not verification["passed"]:
            raise VerificationError(
                f"verification certificate failed: {verification}"
            )
    if obs is not None:
        from ..obs.collect import finalize_metrics

        finalize_metrics(
            obs,
            report=report,
            mpi=ctx.mpi,
            cluster=ctx.cluster,
            cost=ctx.cost,
            tracer=tracer,
            injector=injector,
            verify=ctx.verify,
            bcast_policy=ctx.bcast_policy.name,
        )
        report.metrics = obs.flat()
    return ApspResult(dist=dist if config.collect else None, report=report,
                      tracer=tracer,
                      next_hops=next_hops if config.collect else None,
                      fault_counters=dict(injector.counters) if injector is not None else None,
                      verification=verification,
                      metrics=obs)


def run_private(rp: RunPlan, machine: MachineSpec, *, dim_scale: float = 1.0,
                trace: bool = False, stragglers: Optional[dict[int, float]] = None,
                metrics: bool = False) -> ApspResult:
    """Run a planned solve to completion on a machine of its own:
    :func:`run_solve` as one process, the heap run until it drains with
    no rank left to kick (:func:`kick_deadlocked`).  A failed solve's
    exception propagates out of ``env.run``."""
    handles = MachineHandles.create(machine, rp.n_nodes, dim_scale=dim_scale, trace=trace)
    if stragglers:
        handles.cluster.set_stragglers(stragglers)
    world = SolveWorld(handles)
    supervisor = handles.env.process(run_solve(world, rp, metrics=metrics), name="solve")
    handles.env.run()
    while kick_deadlocked(world.procs):
        handles.env.run()
    return supervisor.value


def kick_deadlocked(procs) -> bool:
    """Interrupt the rank processes still alive when the heap drained
    or a failed epoch's grace ran out: a dead peer will never send.
    True if any rank was kicked."""
    kicked = False
    for p in procs:
        if p.is_alive:
            kicked = True
            p.interrupt(RankFailure("world deadlocked: peer will never send"))
    return kicked


class SolveWorld:
    """The machine a solve runs on - here a private one (``repro.solve``).

    :class:`repro.sched.runner.FleetWorld` is one job on the shared
    machine and adds the job bookkeeping.  Failure detection is the
    epoch loop's, identical in both, so which world applies changes no
    simulated time.
    """

    #: Logical->physical node remap (fleet resilience); None = identity.
    node_map = None
    #: The solve's FaultRuntime.  Preset = resume a previous attempt's
    #: (fleet retries); open_solve leaves the one it armed here.
    faults_rt = None
    #: The exception a kill from outside (a fleet deadline) left behind;
    #: raised at the next epoch boundary.
    killed = None
    #: The current epoch's rank processes (set by the epoch loop).
    procs = ()

    def __init__(self, handles: MachineHandles):
        self.env = handles.env
        self.cluster = handles.cluster
        self.tracer = handles.tracer

    def epoch_failed(self, failures: dict, restarts: int) -> None:
        """An epoch ended with ``failures`` (``restarts`` so far)."""


def open_solve(world: SolveWorld, rp: RunPlan, metrics: bool = False):
    """Open the per-solve context on ``world``'s machine: a private MPI
    world and :class:`FwContext`, then - in this order - the ABFT
    backend, the metering backend (``ctx.obs``) and the fault injector /
    :class:`~repro.faults.FaultRuntime` (``ctx.faults``)."""
    env, tracer = world.env, world.tracer
    nodes = [rp.placement.node_of(r) for r in range(rp.n_ranks)]
    if world.node_map is not None:
        # Resilience remap: the attempt runs on healthy physical nodes,
        # not the (possibly quarantined) ones the placement names.
        nodes = [world.node_map[n] for n in nodes]
    mpi = SimMPI(env, world.cluster, nodes, tracer)
    ctx = FwContext(env, world.cluster, mpi, rp, tracer)
    ctx.node_map = world.node_map
    if rp.config.verify != "off":
        from ..verify import ChecksummedBackend, VerifyRuntime

        ctx.verify = VerifyRuntime(
            rp.config.verify, ctx.backend, semiring=rp.semiring,
            seed=rp.config.fault_seed,
        )
        ctx.backend = ChecksummedBackend(ctx.verify)
    if metrics:
        from ..obs import MeteredBackend, MetricsRegistry

        ctx.obs = mpi.obs = obs = MetricsRegistry()
        # Outermost wrapper: meter exactly what the run executes
        # (including checksummed kernels); preserves modeled_cost_scale,
        # so kernel durations - and makespans - are unchanged.
        ctx.backend = MeteredBackend(obs, ctx.backend)
    if rp.plan is not None:
        if world.faults_rt is None:
            world.faults_rt = FaultRuntime(FaultInjector(rp.plan), CheckpointStore())
        # A preset runtime is a retry attempt: it carries the injector
        # (one-shot fault state - an nth-match or OOM that already fired
        # must not fire again) and the checkpoint store to resume from.
        ctx.faults = world.faults_rt
        injector = ctx.faults.injector
        injector.tracer = tracer
        # Fault isolation: the injector arms this solve's transport
        # only, so on a shared cluster a NIC-degradation window or a
        # message fault can never leak into a concurrent job's traffic.
        injector.attach(mpi)
        mpi.injector = injector
    return ctx


def run_solve(world: SolveWorld, rp: RunPlan, *, metrics: bool = False):
    """Generator (a simulated process), the one solve supervisor: open
    the context, distribute, run the epoch loop, assemble the
    :class:`ApspResult`, release the HBM/DRAM charges.
    :func:`run_private` runs it on a private heap;
    :func:`repro.sched.runner.job_process` ``yield from``s it on the
    shared one."""
    ctx = open_solve(world, rp, metrics)
    rp.distribute()
    build_states, teardown_states = make_state_builders(ctx, rp)
    started = world.env.now
    states, end = yield from _epoch_loop(world, ctx, rp, build_states, teardown_states)
    try:
        return build_result(ctx, rp, states, end - started)
    finally:
        teardown_states(states)


def _epoch_error(failures: dict) -> Optional[BaseException]:
    """What a finally-failed world raises, most specific first (None
    when every failure is a lost, i.e. interrupted, rank)."""
    for st in failures.values():
        if isinstance(st[1], (SilentCorruptionError, CommTimeoutError, GpuOutOfMemory)):
            return st[1]
    for st in failures.values():
        if st[0] == "error":
            return st[1]
    return None


def _epoch_loop(world: SolveWorld, ctx: FwContext, rp: RunPlan,
                build_states, teardown_states):
    """The epoch/recovery loop (a generator, inside the supervisor).

    Spawns every rank program under a supervisor, detects rank
    failures - injected crashes (delivered by watchdog processes as
    :class:`~repro.sim.engine.Interrupt`), exhausted receive retries,
    mid-solve :class:`~repro.errors.GpuOutOfMemory`, silent corruption,
    and worlds that deadlocked because a dead peer will never send (the
    first failure arms a reaper that interrupts ranks still blocked
    :data:`FAILURE_GRACE` + ``recv_timeout`` later) - and restarts the
    world from the newest *consistent* checkpoint (one every rank
    crossed) until the sweep completes or ``plan.max_restarts`` is
    spent.  Replay is bit-exact: the
    simulation kernel is deterministic and the tropical updates
    recompute identical minima from identical operands (see
    docs/FAULTS.md).  An unarmed run (``rp.plan is None``) is the same
    loop with no snapshot and no watchdogs; its first failure is final.

    Returns ``(states, end)`` where ``end`` is the latest *rank
    completion* time - stale watchdog/receive-deadline timers may push
    ``env.now`` past the real makespan.  After OOM degradation
    ``ctx.residency`` is host-resident where ``rp.residency`` was not.
    """
    env = ctx.env
    plan = rp.plan
    n_ranks = rp.n_ranks
    rt = ctx.faults
    injector = None if rt is None else rt.injector
    track_paths = rp.config.track_paths
    locals_, nxt_locals = rp.locals_, rp.nxt_locals
    grace = FAILURE_GRACE + ((plan.recv_timeout or 0.0) if plan is not None else 0.0)

    resumed = rt is not None and rt.resumed
    if rt is not None and not resumed:
        # Free initial snapshot (pre-run, so no time is charged): restart
        # is possible even before the first periodic checkpoint.
        for r in range(n_ranks):
            rt.store.save(0, r, locals_[r], None if nxt_locals is None else nxt_locals[r])
            rt.last_saved[r] = 0

    fired_crashes: set[int] = set()
    restarts = 0
    while True:
        if ctx.verify is not None:
            ctx.verify.begin_epoch()
        start_k = 0 if rt is None else rt.start_k
        if restarts == 0 and not resumed:
            blocks_by_rank = locals_
            nxt_by_rank = nxt_locals
        else:
            blocks_by_rank = [rt.store.restore(start_k, r) for r in range(n_ranks)]
            nxt_by_rank = (
                [rt.store.restore_nxt(start_k, r) for r in range(n_ranks)]
                if track_paths
                else None
            )
        try:
            states = build_states(blocks_by_rank, nxt_by_rank)
        except GpuOutOfMemory as oom_exc:
            if plan is None or ctx.residency is HOST_RESIDENT or not plan.oom_degrade:
                raise
            _degrade_to_offload(ctx, injector, oom_exc)
            states = build_states(blocks_by_rank, nxt_by_rank)
        try:
            if injector is not None:
                for state in states:
                    factor = injector.compute_factor(state.me)
                    if factor != 1.0:
                        state.gpu.compute_multiplier = max(
                            state.gpu.compute_multiplier, factor
                        )

            status: dict[int, tuple[str, object]] = {}
            # Fires once every rank has a status; the supervisor waits on it.
            done = env.event()
            reaper_armed = False

            def reaper(done, procs):
                # Armed by the epoch's first failure: ranks still blocked
                # after the grace wait on a peer that will never send.
                yield env.timeout(grace)
                if not done.triggered:
                    kick_deadlocked(procs)

            def supervised(state, start_k=start_k, status=status, done=done):
                nonlocal reaper_armed
                try:
                    yield from execute_schedule(state, ctx.schedule, ctx.residency, start_k)
                    status[state.me] = ("done", env.now)
                except Interrupt as exc:
                    status[state.me] = ("crashed", exc)
                except CommTimeoutError as exc:
                    status[state.me] = ("timeout", exc)
                except GpuOutOfMemory as exc:
                    status[state.me] = ("oom", exc)
                except SilentCorruptionError as exc:
                    status[state.me] = ("sdc", exc)
                except Exception as exc:  # noqa: BLE001 - isolation: a bug is a status too
                    status[state.me] = ("error", exc)
                if len(status) == n_ranks:
                    done.succeed()
                elif status[state.me][0] != "done" and not reaper_armed:
                    reaper_armed = True
                    env.process(reaper(done, procs), name="reaper")

            procs = world.procs = [
                env.process(supervised(state), name=f"rank{state.me}") for state in states
            ]

            def crash_watchdog(idx, crash, proc, done=done):
                if crash.at > env.now:
                    yield env.timeout(crash.at - env.now)
                if done.triggered:
                    return
                fired_crashes.add(idx)
                if proc.is_alive:
                    injector.count("faults.crashes")
                    proc.interrupt(
                        RankFailure(
                            f"rank {crash.rank} lost at t={env.now:.6g}",
                            rank=crash.rank,
                            at=env.now,
                        )
                    )

            watchdogs = []
            for idx, crash in enumerate(plan.crashes if plan is not None else ()):
                if idx in fired_crashes or crash.at < env.now:
                    continue
                watchdogs.append(
                    env.process(crash_watchdog(idx, crash, procs[crash.rank]),
                                name=f"crash@r{crash.rank}")
                )

            def kill_strays():
                # Kill watchdogs and stray async relays of the dead epoch;
                # defuse so their Interrupt failures don't abort env.run().
                for wd in watchdogs:
                    if wd.is_alive:
                        wd.defuse()
                        wd.interrupt()
                for state in states:
                    for ev in state.pending:
                        if getattr(ev, "is_alive", False):
                            ev.defuse()
                            ev.interrupt()

            yield done

            if world.killed is not None:
                kill_strays()
                raise world.killed

            if all(st[0] == "done" for st in status.values()):
                return states, max(st[1] for st in status.values())

            # ---- failure: tear the epoch down and restart -------------------
            failures = {r: st for r, st in status.items() if st[0] != "done"}
            if plan is not None:
                restarts += 1
            world.epoch_failed(failures, restarts)
            if plan is None or restarts > plan.max_restarts:
                exc = _epoch_error(failures)
                if exc is not None:
                    raise exc
                if plan is None:
                    # No fault was injected, yet ranks had to be
                    # interrupted: a deadlocked schedule, i.e. a bug
                    # (each entry point wraps it in InternalError).
                    raise RuntimeError(
                        f"rank programs {sorted(failures)} did not complete cleanly"
                    )
                raise RankFailure(
                    f"world failed {restarts} times (restart budget {plan.max_restarts}); "
                    f"failed ranks: {sorted(failures)}"
                )
            injector.count("faults.restarts")

            oom_failures = [st[1] for st in failures.values() if st[0] == "oom"]
            if oom_failures and ctx.residency is not HOST_RESIDENT:
                if not plan.oom_degrade:
                    raise oom_failures[0]
                _degrade_to_offload(ctx, injector, oom_failures[0])

            kill_strays()
            yield env.timeout(0.0)  # just past the interrupts' delivery

            k0 = rt.store.consistent_k(n_ranks)
            if rt.store.crc_rejections:
                injector.counters["faults.crc_rejections"] = float(rt.store.crc_rejections)
            if k0 is None:  # pragma: no cover - the k=0 snapshot always exists
                raise CheckpointError("no consistent checkpoint to restart from")
            progress = max((state.cur_k for state in states), default=-1)
            injector.count("faults.replayed_iters", max(0, progress - k0))
            teardown_states(states)
            injector.reset_world()
            rt.start_k = k0
            for r in range(n_ranks):
                rt.last_saved[r] = max(rt.last_saved.get(r, 0), k0)
            # Charge the restore: each rank reads its snapshot back from the
            # host-side store in parallel, so the slowest read gates restart.
            restore_cost = 0.0
            for state in states:
                rows = len(state.local_rows())
                cols = len(state.local_cols())
                dur = ctx.cost.checkpoint_time(rows * ctx.b, cols * ctx.b)
                if track_paths:
                    dur *= 3
                restore_cost = max(restore_cost, dur)
            yield env.timeout(restore_cost)
            injector.count("faults.restore_time", restore_cost)
        except BaseException:
            teardown_states(states)  # idempotent: release whatever is still charged
            raise


def _degrade_to_offload(
    ctx: FwContext, injector: FaultInjector, oom_exc: GpuOutOfMemory
) -> None:
    """Move a fault-armed run's matrix to host DRAM (Me-ParallelFw)
    after GpuOutOfMemory; re-raises the OOM when the configuration
    cannot run host-resident (track_paths / exploit_sparsity).

    The schedule shape is preserved: the run lands on the
    host-resident :data:`~repro.core.variants.VARIANTS` row *with its
    schedule* (a look-ahead run on ``offload-pipelined``, not
    ``offload``) and takes that row's residency and broadcast policy.
    Look-ahead checkpoints already carry the next round's diag/panel
    updates (the resume prologue of
    :class:`~repro.core.schedule.LookaheadSchedule` relies on it), so
    replaying one under the bulk-sync schedule re-applies those updates
    and re-derives minima in a different association order - breaking
    bit-exact replay at the ULP level."""
    try:
        _check_options(ctx.config, ctx.semiring, offload=True)
    except ConfigurationError:
        raise oom_exc from None
    injector.count("faults.oom_degraded")
    row = VARIANTS[offloaded(ctx.schedule)]
    ctx.residency = row.residency
    ctx.bcast_policy = row.bcast.segmented(ctx.config.ring_segments)
