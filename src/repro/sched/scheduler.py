"""The shared-cluster job scheduler.

One :class:`ClusterScheduler` owns one simulated machine
(:class:`~repro.core.driver.MachineHandles`) and runs N submitted jobs
*concurrently on it*: every job gets a private MPI world and solver
context, but GPUs, NICs and intranode channels are the same simulated
resources, so contention, queueing and interference emerge from the
simulation instead of being assumed.

The moving parts:

* **admission** (:mod:`repro.sched.admission`) - jobs are priced from
  their resolved :class:`~repro.core.driver.RunPlan` and either
  admitted, queued until capacity frees, or rejected
  (:class:`~repro.errors.AdmissionError`);
* **arbitration** (:mod:`repro.sched.arbiter`) - contended resources
  grant by priority-weighted fair share instead of FIFO;
* **execution** (:mod:`repro.sched.runner`) - each admitted job is one
  process running the driver's solve supervisor; failures are isolated
  per job;
* **observability** - fleet metrics (utilization, queue depth, per-job
  p50/p99 latency) in a :class:`~repro.obs.metrics.MetricsRegistry`,
  and job-tagged spans in one fleet tracer whose Chrome-trace export
  interleaves per-job Perfetto lanes (``jobA.rank0``,
  ``jobB.node0.gpu0.kernel``, ...).

Degenerate schedules are exact: submitting a single job reproduces the
unscheduled engine event-for-event - same distance bits, same makespan
(pinned against the recorded values in ``tests/test_sched.py``).

Typical use::

    from repro.sched import ClusterScheduler

    sched = ClusterScheduler(n_nodes=2)
    a = sched.submit(w1, variant="async", block_size=5, name="tenantA",
                     priority=1, n_nodes=2, ranks_per_node=3)
    b = sched.submit(w2, variant="offload", block_size=8, name="tenantB",
                     n_nodes=2, ranks_per_node=3)
    sched.run()
    print(a.report().elapsed, b.report().elapsed)
    print(sched.fleet_metrics().flat()["fleet.gpu.utilization"])
"""

from __future__ import annotations

from typing import Optional

from ..api import SolveConfig, resolve_config, resolve_machine
from ..core.driver import MachineHandles, kick_deadlocked, plan_run
from ..core.executor import HOST_RESIDENT
from ..errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineExceeded,
    ReproError,
)
from .admission import AdmissionController, assess
from .arbiter import FairShareArbiter
from .job import Job, JobHandle, JobStatus
from .resilience import FleetResilience, ResiliencePolicy, RetryPolicy
from .runner import job_process

__all__ = ["ClusterScheduler"]


class ClusterScheduler:
    """Admit, arbitrate and run jobs on one shared simulated cluster."""

    def __init__(
        self,
        machine="summit",
        n_nodes: int = 1,
        *,
        dim_scale: float = 1.0,
        trace: bool = False,
        makespan_limit: Optional[float] = None,
        resilience=None,
    ):
        self.machine = resolve_machine(machine)
        self.n_nodes = n_nodes
        self.dim_scale = dim_scale
        self.handles = MachineHandles.create(
            self.machine, n_nodes, dim_scale=dim_scale, trace=trace
        )
        self.arbiter = FairShareArbiter()
        for node in self.handles.cluster.nodes:
            node.nic_tx.arbiter = self.arbiter
            node.intra_channel.arbiter = self.arbiter
            node.host.dram.arbiter = self.arbiter
            for gpu in node.gpus:
                gpu.kernel_engine.arbiter = self.arbiter
                gpu.h2d_engine.arbiter = self.arbiter
                gpu.d2h_engine.arbiter = self.arbiter
        self.admission = AdmissionController(
            self.machine, n_nodes, self.handles.cost, makespan_limit
        )
        from ..obs import MetricsRegistry

        self.obs = MetricsRegistry()
        #: Fleet self-healing (:mod:`repro.sched.resilience`); None
        #: disarms it entirely - zero extra simulated events, so every
        #: PR-8 recording stays bit- and makespan-exact.  Accepts
        #: ``True`` (defaults), a :class:`ResiliencePolicy`, or its
        #: ``from_dict`` object form.
        if resilience is None or resilience is False:
            self.resilience: Optional[FleetResilience] = None
        else:
            if resilience is True:
                policy = ResiliencePolicy()
            elif isinstance(resilience, ResiliencePolicy):
                policy = resilience
            elif isinstance(resilience, dict):
                policy = ResiliencePolicy.from_dict(resilience)
            else:
                raise ConfigurationError(
                    "resilience must be True, a ResiliencePolicy, or an "
                    f"object form, got {type(resilience).__name__}"
                )
            self.resilience = FleetResilience(policy)
        self.jobs: list[Job] = []
        self._queue: list[Job] = []
        self._accounted: set[int] = set()
        self._next_id = 0

    # -- convenience views --------------------------------------------------
    @property
    def env(self):
        return self.handles.env

    @property
    def cluster(self):
        return self.handles.cluster

    @property
    def tracer(self):
        return self.handles.tracer

    # -- what-if (no graph required) ----------------------------------------
    def assess(self, n: float, n_nodes: Optional[int] = None,
               ranks_per_node: int = 12):
        """Shape-level feasibility + predicted makespan on this fleet's
        machine model (see :func:`repro.sched.admission.assess`)."""
        return assess(
            n,
            self.n_nodes if n_nodes is None else n_nodes,
            ranks_per_node,
            machine=self.machine,
            dim_scale=self.dim_scale,
        )

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        graph,
        config: Optional[SolveConfig] = None,
        *,
        name: Optional[str] = None,
        priority: int = 0,
        weight: float = 1.0,
        arrival: float = 0.0,
        retry=None,
        deadline: Optional[float] = None,
        **overrides,
    ) -> JobHandle:
        """Submit a job; returns a :class:`~repro.sched.job.JobHandle`.

        ``config``/``overrides`` carry the same vocabulary as
        :func:`repro.solve`.  ``arrival`` is the simulated time the job
        reaches the cluster (jobs with ``arrival <= now`` are admitted
        synchronously, so a lone immediate job lowers to the degenerate
        one-job schedule with zero scheduler events).  Configuration
        errors raise immediately; admission *rejections* come back as a
        REJECTED handle carrying an
        :class:`~repro.errors.AdmissionError` (exit code 15).

        ``retry`` (a :class:`~repro.sched.resilience.RetryPolicy` or
        its object form) overrides the fleet's default retry policy for
        this job; ``deadline`` is a simulated-seconds SLO measured from
        the job's arrival (kill + :class:`~repro.errors.DeadlineExceeded`,
        exit code 16).  Both need a resilience-armed scheduler.
        """
        config = resolve_config(config, overrides)
        config.obs.validate()
        if resolve_machine(config.machine).name != self.machine.name:
            raise ConfigurationError(
                f"job machine {resolve_machine(config.machine).name!r} differs from "
                f"the fleet's {self.machine.name!r}; one scheduler = one machine model"
            )
        if config.dim_scale != self.dim_scale:
            raise ConfigurationError(
                f"job dim_scale {config.dim_scale} differs from the fleet's "
                f"{self.dim_scale}; virtual scaling is a machine-level property"
            )
        if config.stragglers:
            raise ConfigurationError(
                "per-job stragglers are not supported on a shared cluster; "
                "use ClusterScheduler.cluster.set_stragglers for fleet-level ones"
            )
        if (retry is not None or deadline is not None) and self.resilience is None:
            raise ConfigurationError(
                "per-job retry/deadline need a resilience-armed scheduler; "
                "construct ClusterScheduler(resilience=True) (or a policy)"
            )
        if deadline is not None:
            if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
                raise ConfigurationError(
                    f"deadline must be a number of simulated seconds, got {deadline!r}"
                )
            if deadline <= 0:
                raise ConfigurationError(f"deadline must be > 0, got {deadline}")
            deadline = float(deadline)
        job_retry = None
        if self.resilience is not None:
            if retry is None:
                job_retry = self.resilience.policy.retry
            elif isinstance(retry, RetryPolicy):
                job_retry = retry
            elif isinstance(retry, dict):
                job_retry = RetryPolicy.from_dict(retry)
            else:
                raise ConfigurationError(
                    f"retry must be a RetryPolicy or its object form, "
                    f"got {type(retry).__name__}"
                )
        rp = plan_run(graph, config, self.machine)
        job = Job(
            job_id=self._next_id,
            name=name or f"job{self._next_id}",
            weights=rp.w,
            config=config,
            rp=rp,
            priority=priority,
            weight=weight,
            submit_at=max(arrival, self.env.now),
            retry=job_retry,
            deadline=deadline,
        )
        self._next_id += 1
        self.jobs.append(job)
        self.obs.counter("fleet.jobs.submitted").inc()
        if deadline is not None:
            job._deadline_proc = self.env.process(
                self._deadline_watch(job), name=f"{job.name}.deadline"
            )
        if job.submit_at > self.env.now:
            self.env.process(self._arrival(job), name=f"{job.name}.arrival")
        else:
            self._admit_or_queue(job)
        return JobHandle(self, job)

    def _arrival(self, job: Job):
        yield self.env.timeout(job.submit_at - self.env.now)
        self._admit_or_queue(job)

    def _admit_or_queue(self, job: Job) -> None:
        if job.submitted_at is None:
            job.submitted_at = self.env.now
        ok, node_map = self._choose_node_map(job)
        if not ok:
            job.status = JobStatus.QUEUED
            job.reason = "waiting for quarantined devices to be reinstated"
            self._queue.append(job)
            self.obs.counter("fleet.jobs.queued").inc()
            self.obs.gauge("fleet.queue.depth").set(float(len(self._queue)))
            return
        job.node_map = node_map
        verdict, reason, demand = self.admission.check(job.rp, node_map=node_map)
        job.demand = demand
        job.reason = reason
        if verdict == "reject":
            job.status = JobStatus.REJECTED
            job.error = AdmissionError(job.name, reason)
            job.finished_at = self.env.now
            self.obs.counter("fleet.jobs.rejected").inc()
            self._account(job)
            return
        if verdict == "queue":
            job.status = JobStatus.QUEUED
            self._queue.append(job)
            self.obs.counter("fleet.jobs.queued").inc()
            self.obs.gauge("fleet.queue.depth").set(float(len(self._queue)))
            return
        self._start(job)

    def _start(self, job: Job) -> None:
        self.admission.reserve(job.demand)
        self.arbiter.register(job, job.priority, job.weight)
        job.status = JobStatus.RUNNING
        self.obs.counter("fleet.jobs.admitted").inc()
        self.env.process(job_process(self, job), name=f"{job.name}.runner", scope=job)

    def _on_job_finished(self, job: Job) -> None:
        """Runner callback: release capacity, record, maybe retry the
        job (resilience layer), retry the queue."""
        self.admission.release(job.demand)
        self.arbiter.unregister(job)
        if self.resilience is not None:
            self._observe_health(job)
        retry = self.resilience is not None and self._should_retry(job)
        tracer = self.handles.tracer
        if tracer is not None and job.started_at is not None:
            end = job.finished_at if job.finished_at is not None else self.env.now
            if retry:
                tracer.record(
                    "fleet.resilience",
                    "retry",
                    f"{job.name} attempt {job.attempt + 1} "
                    f"{type(job.error).__name__ if job.error is not None else 'failed'}",
                    job.started_at,
                    end,
                )
            else:
                label = f"{job.name} p{job.priority} {job.status.value}"
                if job.attempt:
                    label += f" (attempt {job.attempt + 1})"
                tracer.record("fleet.jobs", "job", label, job.started_at, end)
        if retry:
            self._begin_retry(job)
        else:
            self._account(job)
        self._drain_queue()

    def _account(self, job: Job) -> None:
        if job.job_id in self._accounted or not job.done:
            return
        self._accounted.add(job.job_id)
        watch = getattr(job, "_deadline_proc", None)
        if watch is not None and watch.is_alive:
            # The job is terminal: cancel its pending deadline watchdog
            # so the sleeping timer does not stretch the simulation.
            watch.defuse()
            watch.interrupt()
        if job.status is JobStatus.DONE:
            self.obs.counter("fleet.jobs.completed").inc()
            self.obs.histogram("fleet.job.latency").observe(job.latency)
            self.obs.histogram("fleet.job.queue_wait").observe(job.queue_wait)
            if self.resilience is not None and job.first_failed_at is not None:
                # MTTR: first failure -> eventual recovery, per job.
                self.obs.histogram("fleet.resilience.mttr").observe(
                    (job.finished_at if job.finished_at is not None else self.env.now)
                    - job.first_failed_at
                )
                self.obs.counter("fleet.resilience.recovered").inc()
        elif job.status is JobStatus.FAILED:
            self.obs.counter("fleet.jobs.failed").inc()

    def _drain_queue(self) -> bool:
        """Admit whatever now fits, highest priority first (FIFO within
        a priority level).  Returns True if anything started."""
        started = False
        for job in sorted(self._queue, key=lambda j: (-j.priority, j.job_id)):
            ok, node_map = self._choose_node_map(job)
            if not ok:
                job.reason = "waiting for quarantined devices to be reinstated"
                continue
            job.node_map = node_map
            verdict, reason, demand = self.admission.check(job.rp, node_map=node_map)
            job.demand = demand
            job.reason = reason
            if verdict == "admit":
                self._queue.remove(job)
                started = True
                self._start(job)
            elif verdict == "reject":  # pragma: no cover - capacity shrank?
                self._queue.remove(job)
                job.status = JobStatus.REJECTED
                job.error = AdmissionError(job.name, reason)
                job.finished_at = self.env.now
                self.obs.counter("fleet.jobs.rejected").inc()
                self._account(job)
        self.obs.gauge("fleet.queue.depth").set(float(len(self._queue)))
        return started

    # -- self-healing (all no-ops when ``resilience`` is disarmed) ----------
    def _choose_node_map(self, job: Job):
        """Pick a logical->physical node remap that avoids quarantined
        devices: ``(True, None)`` when the job's own nodes are healthy
        (the identity - and the only possible answer on a disarmed
        fleet), ``(True, map)`` when enough other nodes are, and
        ``(False, None)`` when the job must wait for a reinstatement."""
        res = self.resilience
        if res is None or not res.monitor.quarantined:
            return True, None
        need = job.rp.n_nodes
        if not any(res.monitor.node_quarantined(n) for n in range(need)):
            return True, None
        healthy = res.monitor.healthy_nodes(self.n_nodes)
        if len(healthy) >= need:
            return True, healthy[:need]
        return False, None

    def _observe_health(self, job: Job) -> None:
        """Drain the attempt's device blame list into the fleet's
        scoreboard; new quarantines get a probation-expiry process (the
        queue is drained on reinstatement, not only on completions)."""
        res = self.resilience
        monitor = res.monitor
        now = self.env.now
        tracer = self.handles.tracer
        for device in job.fault_devices:
            if monitor.record_fault(device, now):
                self.obs.counter("fleet.resilience.quarantines").inc()
                until = monitor.quarantined[device]
                label = ".".join(str(p) for p in device)
                if tracer is not None:
                    tracer.record(
                        "fleet.resilience", "quarantine",
                        f"{label} quarantined", now, until,
                    )
                self.env.process(
                    self._probation(until), name=f"probation.{label}"
                )
        job.fault_devices = []

    def _probation(self, until: float):
        if until > self.env.now:
            yield self.env.timeout(until - self.env.now)
        else:  # pragma: no cover - probation windows are > 0
            yield self.env.timeout(0.0)
        released = self.resilience.monitor.release_due(self.env.now)
        for _ in released:
            self.obs.counter("fleet.resilience.reinstated").inc()
        if released:
            # Reinstatement frees placement slots admission alone never
            # would: drain the queue here too, not only on completions.
            self._drain_queue()

    def _should_retry(self, job: Job) -> bool:
        """Decide (without side effects beyond poison marking) whether
        this failed attempt gets another one."""
        if job.status is not JobStatus.FAILED or job.retry is None:
            return False
        if isinstance(job.error, (AdmissionError, ConfigurationError, DeadlineExceeded)):
            return False  # retrying cannot change these
        if job.attempt + 1 >= job.retry.max_attempts:
            if not job.poisoned:
                job.poisoned = True
                job.reason = (
                    f"poisoned: {job.attempt + 1} attempts exhausted "
                    f"(last failure: {type(job.error).__name__})"
                )
                self.obs.counter("fleet.resilience.poisoned").inc()
            return False
        res = self.resilience
        if res.budget_left() <= 0:
            job.reason = "fleet retry budget exhausted"
            return False
        return True

    def _begin_retry(self, job: Job) -> None:
        """Reset the job to a pre-admission state and schedule its
        backoff-delayed re-admission."""
        res = self.resilience
        res.retries_spent += 1
        job.attempt += 1
        if job.first_failed_at is None:
            job.first_failed_at = self.env.now
        self.obs.counter("fleet.resilience.retries").inc()
        delay = job.retry.delay(job.job_id, job.attempt)
        job.status = JobStatus.PENDING
        job.error = None
        job.result = None
        job.reason = None
        job.started_at = None
        job.finished_at = None
        job.restarts = 0
        self.env.process(
            self._readmit(job, delay), name=f"{job.name}.retry{job.attempt}"
        )

    def _readmit(self, job: Job, delay: float):
        yield self.env.timeout(delay)
        if job.done:
            return  # the deadline watchdog got there first
        self._prepare_attempt(job)
        self._admit_or_queue(job)

    def _prepare_attempt(self, job: Job) -> None:
        """Arrange the retry's starting state: re-plan if quarantines
        shrank the healthy fleet below the job's node count, then
        resume from the newest CRC-valid consistent checkpoint when one
        exists - from scratch otherwise."""
        healthy = self.resilience.monitor.healthy_nodes(self.n_nodes)
        if 1 <= len(healthy) < job.rp.n_nodes:
            if self._replan(job, healthy):
                return  # _replan arranged checkpoint carry itself
        rt = job.faults_rt
        if rt is not None:
            k0 = rt.store.consistent_k(job.rp.n_ranks)
            if k0 is not None:
                rt.start_k = k0
                rt.resumed = True
                for r in range(job.rp.n_ranks):
                    rt.last_saved[r] = max(rt.last_saved.get(r, 0), k0)
                return
            # Every consistent cut is corrupted: drop the store and
            # fall through to a from-scratch retry.
            job.faults_rt = None
        job.rp.locals_ = None
        job.rp.nxt_locals = None

    def _replan(self, job: Job, healthy: list) -> bool:
        """Re-run the feasibility ladder for the shrunken healthy fleet
        and re-plan the job onto it (smaller grid, or the offload
        variant when HBM no longer suffices).  Carries the newest
        consistent checkpoint across the grid change when the blocking
        is unchanged.  Returns True when the job was re-planned."""
        rp = job.rp
        n_nodes = len(healthy)
        ranks_per_node = rp.placement.ranks_per_node
        a = self.assess(rp.n, n_nodes=n_nodes, ranks_per_node=ranks_per_node)
        if not a.feasible:
            return False  # keep the shape; queue until reinstatement
        variant = job.config.variant
        if a.feasibility == "needs-offload" and rp.residency is not HOST_RESIDENT:
            variant = "offload"
        plan = rp.plan
        if plan is not None:
            nr = n_nodes * ranks_per_node
            plan = plan.replace(
                crashes=tuple(c for c in plan.crashes if c.rank < nr),
                ooms=tuple(o for o in plan.ooms if o.rank < nr),
                stragglers=tuple(s for s in plan.stragglers if s.rank < nr),
                memory_faults=tuple(m for m in plan.memory_faults if m.rank < nr),
                message_faults=tuple(
                    f for f in plan.message_faults
                    if (f.src is None or f.src < nr)
                    and (f.dst is None or f.dst < nr)
                ),
            )
        # grid and placement span the old node count: re-derive both.
        new_config = job.config.replace(
            n_nodes=n_nodes, variant=variant, grid=None, placement=None,
            fault_plan=plan,
        )
        try:
            new_rp = plan_run(job.weights, new_config, self.machine)
        except ReproError:
            # e.g. the offload block-size floor: retry with the tuner's
            # choice (checkpoints are dropped - the blocking changes).
            try:
                new_config = new_config.replace(block_size=None)
                new_rp = plan_run(job.weights, new_config, self.machine)
            except ReproError:
                return False
        self.obs.counter("fleet.resilience.replans").inc()
        job.reason = (
            f"re-planned onto {n_nodes} healthy node(s) as {new_rp.var.value}"
        )
        rt = job.faults_rt
        job.faults_rt = None
        if (
            rt is not None
            and new_rp.plan is not None
            and new_rp.nb == rp.nb
            and new_rp.b == rp.b
        ):
            from ..faults import FaultInjector, FaultRuntime
            from ..faults.checkpoint import reshard

            k0 = rt.store.consistent_k(rp.n_ranks)
            if k0 is not None:
                try:
                    store = reshard(
                        rt.store, k0, rp.n_ranks, new_rp.grid, new_rp.nb,
                        track_paths=new_rp.config.track_paths,
                    )
                except ReproError:
                    store = None
                if store is not None:
                    injector = FaultInjector(new_rp.plan)
                    injector.counters.update(rt.injector.counters)
                    job.faults_rt = FaultRuntime(
                        injector, store, start_k=k0,
                        last_saved={r: k0 for r in range(new_rp.n_ranks)},
                        resumed=True,
                    )
        job.rp = new_rp
        job.config = new_config
        job.node_map = None  # re-chosen at admission for the new shape
        return True

    def _deadline_watch(self, job: Job):
        """Kill the job when its simulated-time SLO expires: running
        attempts are interrupted (the runner raises
        :class:`~repro.errors.DeadlineExceeded` at the epoch boundary),
        queued/backing-off ones fail on the spot.  Deadline kills are
        never retried."""
        target = job.submit_at + job.deadline
        if target > self.env.now:
            yield self.env.timeout(target - self.env.now)
        else:  # pragma: no cover - deadlines are > 0
            yield self.env.timeout(0.0)
        job._deadline_proc = None  # past this point nobody cancels us
        if job.done:
            return
        exc = DeadlineExceeded(job.name, job.deadline)
        self.obs.counter("fleet.resilience.deadline_kills").inc()
        if job.status is JobStatus.RUNNING:
            job.killed = exc
            for p in job.procs:
                if p.is_alive:
                    p.interrupt(exc)
            return  # the runner surfaces the failure and notifies us
        if job in self._queue:
            self._queue.remove(job)
            self.obs.gauge("fleet.queue.depth").set(float(len(self._queue)))
        job.status = JobStatus.FAILED
        job.error = exc
        if job.finished_at is None:
            job.finished_at = self.env.now
        self._account(job)

    # -- execution ----------------------------------------------------------
    def run(self, until_job: Optional[Job] = None) -> list:
        """Run the shared simulation until every job is terminal (or
        ``until_job`` is).  A job whose ranks block on a peer that will
        never send, with no rank failure to arm the grace reaper, is
        kicked once the event heap drains
        (:func:`~repro.core.driver.kick_deadlocked`, the same rule as
        ``repro.solve``).  Returns the fleet's job reports.
        """
        while True:
            self.env.run()
            if until_job is not None and until_job.done:
                break
            running = [j for j in self.jobs if j.status is JobStatus.RUNNING]
            if kick_deadlocked(p for j in running for p in j.procs):
                continue
            if running:  # pragma: no cover - runner stuck without live ranks
                break
            if self._queue:
                if self._drain_queue():
                    continue
                for job in list(self._queue):  # pragma: no cover - defensive
                    self._queue.remove(job)
                    job.status = JobStatus.REJECTED
                    reason = f"unschedulable: {job.reason or 'capacity never freed'}"
                    job.reason = reason
                    job.error = AdmissionError(job.name, reason)
                    job.finished_at = self.env.now
                    self.obs.counter("fleet.jobs.rejected").inc()
                    self._account(job)
            break
        self._finalize_fleet_metrics()
        return [j.report() for j in self.jobs]

    # -- fleet observability ------------------------------------------------
    def _finalize_fleet_metrics(self) -> None:
        makespan = self.env.now
        if self.resilience is not None:
            # Armed fleets can have trailing bookkeeping events (a met
            # deadline's cancelled watchdog timer, a probation expiry
            # after the last job): the makespan is the last *useful*
            # event - the final job completion - not the drained heap.
            done_times = [j.finished_at for j in self.jobs if j.finished_at is not None]
            if done_times:
                makespan = max(done_times)
        self.obs.gauge("fleet.makespan").set(makespan)
        cluster = self.handles.cluster
        kernel_busy = sum(
            gpu.kernel_engine.total_busy_time
            for node in cluster.nodes
            for gpu in node.gpus
        )
        n_gpus = len(cluster.nodes) * self.machine.node.gpus_per_node
        self.obs.gauge("fleet.gpu.busy_seconds").set(kernel_busy)
        self.obs.gauge("fleet.gpu.utilization").set(
            kernel_busy / (n_gpus * makespan) if makespan > 0 else 0.0
        )
        nic_busy = sum(node.nic_tx.total_busy_time for node in cluster.nodes)
        self.obs.gauge("fleet.nic.utilization").set(
            nic_busy / (len(cluster.nodes) * makespan) if makespan > 0 else 0.0
        )
        latencies = sorted(
            j.latency for j in self.jobs if j.status is JobStatus.DONE
        )
        if latencies:
            self.obs.gauge("fleet.job.latency.p50").set(_percentile(latencies, 0.50))
            self.obs.gauge("fleet.job.latency.p99").set(_percentile(latencies, 0.99))
        waits = sorted(j.queue_wait for j in self.jobs if j.status is JobStatus.DONE)
        if waits:
            self.obs.gauge("fleet.job.queue_wait.p50").set(_percentile(waits, 0.50))
            self.obs.gauge("fleet.job.queue_wait.p99").set(_percentile(waits, 0.99))
        if self.resilience is not None:
            res = self.resilience
            self.obs.gauge("fleet.resilience.retry_budget_remaining").set(
                float(res.budget_left())
            )
            self.obs.gauge("fleet.resilience.device_faults").set(
                float(res.monitor.total_faults)
            )
            mttrs = sorted(
                (j.finished_at if j.finished_at is not None else self.env.now)
                - j.first_failed_at
                for j in self.jobs
                if j.status is JobStatus.DONE and j.first_failed_at is not None
            )
            if mttrs:
                self.obs.gauge("fleet.resilience.mttr.p50").set(
                    _percentile(mttrs, 0.50)
                )
                self.obs.gauge("fleet.resilience.mttr.max").set(mttrs[-1])

    def fleet_metrics(self):
        """The fleet's :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.obs

    def chrome_trace(self, run_name: str = "repro fleet") -> dict:
        """Chrome ``trace_event`` JSON of the whole fleet: per-job rank
        and engine lanes interleave (``jobA.rank0``, ``jobB.rank0``,
        shared ``node0.nic``), which is the Perfetto view of
        multi-tenancy.  Requires ``trace=True`` at construction."""
        if self.handles.tracer is None:
            raise ConfigurationError(
                "fleet tracing is off; construct ClusterScheduler(trace=True)"
            )
        from ..obs.export import chrome_trace

        return chrome_trace(self.handles.tracer, run_name=run_name)

    def reports(self) -> list:
        return [j.report() for j in self.jobs]


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (no numpy dance)."""
    if not sorted_values:
        return 0.0
    idx = max(0, min(len(sorted_values) - 1,
                     int(-(-q * len(sorted_values) // 1)) - 1))
    return float(sorted_values[idx])
