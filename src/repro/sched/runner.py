"""The per-job runtime: one solve as a process on the shared heap.

:func:`job_process` runs the same supervisor as ``repro.solve`` -
:func:`repro.core.driver.run_solve` - and only swaps in how the solve
*waits on its world* (:class:`FleetWorld`): a job can never call
``env.run()`` (other jobs own events on the same heap), so epoch
completion is an event all supervised rank programs count down on, and
world-failure detection uses a grace timer instead of heap exhaustion.

Isolation contract (pinned by ``tests/test_sched.py``):

* every rank program runs supervised - any exception, including
  injected :class:`~repro.sim.engine.Interrupt` crashes and plain
  bugs, becomes a per-rank status, never an unhandled process failure
  that would abort the fleet's ``env.run()``;
* a job's :class:`~repro.faults.FaultInjector` is attached to the
  job's private :class:`~repro.mpi.comm.SimMPI` only, so message drop /
  duplication / corruption / NIC-degradation windows never touch a
  concurrent job's traffic;
* a crash or OOM that exhausts the job's restart budget fails *that
  job* with its per-class exit code; concurrent jobs' numerics are
  bit-exact with their solo runs.

Deliberate non-isolation: an injected *straggler* raises the shared
GPU's ``compute_multiplier`` - device-level throttling outlives the
job that triggered it, exactly like thermal throttling on real
hardware would.
"""

from __future__ import annotations

from ..core.driver import SolveWorld, run_solve
from ..errors import RankFailure
from ..sim.engine import Event
from ..sim.trace import ScopedTracer
from .job import JobStatus
from .resilience import failed_devices

__all__ = ["FleetWorld", "job_process"]


def job_process(scheduler, job):
    """Generator (a simulated process): run ``job`` start to finish.

    Always leaves the job in a terminal state and notifies the
    scheduler, which releases the reservation and retries the queue.
    """
    env = scheduler.env
    job.status = JobStatus.RUNNING
    job.started_at = env.now
    world = FleetWorld(scheduler, job)
    try:
        job.result = yield from run_solve(
            world, job.rp, metrics=job.config is not None and job.config.obs.enabled
        )
        job.status = JobStatus.DONE
    except Exception as exc:  # noqa: BLE001 - the job's failure is the job's alone
        job.error = exc
        job.status = JobStatus.FAILED
    finally:
        # A finished epoch's done-event fires at the timestamp its last
        # rank settled, so ``now`` is the completion (or failure) time.
        job.finished_at = env.now
        job.procs = []
        if scheduler.resilience is not None:
            job.faults_rt = world.faults_rt  # a retry attempt resumes from it
        scheduler._on_job_finished(job)


class FleetWorld(SolveWorld):
    """One job's view of the *shared* heap (see
    :class:`~repro.core.driver.SolveWorld`), plus the bookkeeping the
    fleet reads off a running job.

    ``wait_epoch`` is a done-event that fires once *every* rank has a
    status.  The first failure status arms a one-shot reaper that,
    after the scheduler's ``failure_grace`` (+ the plan's
    ``recv_timeout``), interrupts the epoch's still-blocked ranks - the
    shared-world substitute for "heap drained, interrupt the stuck" (a
    dead peer will never send, so blocked receives would otherwise hang
    the job forever without stalling the fleet).
    """

    def __init__(self, scheduler, job):
        super().__init__(scheduler.handles)
        self.scheduler = scheduler
        self.job = job
        if self.tracer is not None:
            self.tracer = ScopedTracer(self.tracer, f"{job.name}.")
        self.node_map = job.node_map
        self.faults_rt = job.faults_rt

    @property
    def killed(self):
        """Set by the deadline watchdog (which also interrupts the ranks)."""
        return self.job.killed

    def wait_epoch(self, procs, status):
        self.procs = self.job.procs = procs  # the fleet kicks / kills these
        self.status = status
        self.done = Event(self.env)
        self.reaper_armed = False
        yield self.done

    def rank_settled(self, rank) -> None:
        if len(self.status) == len(self.procs):
            if not self.done.triggered:
                self.done.succeed()
        elif self.status[rank][0] != "done" and not self.reaper_armed:
            self.reaper_armed = True
            grace = self.scheduler.failure_grace
            plan = self.job.rp.plan
            if plan is not None and plan.recv_timeout:
                grace += plan.recv_timeout
            self.env.process(self._reaper(grace, self.done, self.procs),
                             name=f"{self.job.name}.reaper")

    def _reaper(self, grace, done, procs):
        yield self.env.timeout(grace)
        if done.triggered:
            return
        for p in procs:
            if p.is_alive:
                p.interrupt(RankFailure("rank stalled after peer failure"))

    def epoch_over(self) -> bool:
        return self.done.triggered

    def settle(self):
        # A zero-length timeout yields just past the urgent interrupt
        # deliveries at this timestamp (a private heap drains instead).
        yield self.env.timeout(0.0)

    def epoch_failed(self, failures, restarts) -> None:
        """Record the restart and blame this epoch's rank failures on
        physical devices (resilience armed only; deadline kills are the
        watchdog's doing and never get here)."""
        job = self.job
        job.restarts = restarts
        if self.scheduler.resilience is not None:
            job.fault_devices.extend(failed_devices(
                job.rp, failures, self.scheduler.admission.gpus_per_node, job.node_map
            ))
