"""The per-job runtime: one solve as a process on the shared heap.

:func:`job_process` runs the same supervisor as ``repro.solve`` -
:func:`repro.core.driver.run_solve`, with the same failure-detection
rule - on the scheduler's machine (:class:`FleetWorld`), which only
adds the job bookkeeping: the job-scoped tracer, ``job.procs`` (what a
deadline kill or a drained heap interrupts), the deadline ``killed``
and the restart count with device blame.

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
  job* with its per-class exit code - a plain bug with
  :class:`~repro.errors.InternalError`'s, as from ``repro.solve``;
  concurrent jobs' numerics are bit-exact with their solo runs.

Deliberate non-isolation: an injected *straggler* raises the shared
GPU's ``compute_multiplier`` - device-level throttling outlives the
job that triggered it, exactly like thermal throttling on real
hardware would.
"""

from __future__ import annotations

import json

from ..api import config_to_jsonable
from ..core.driver import SolveWorld, run_solve
from ..errors import InternalError, ReproError
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
        if not isinstance(exc, ReproError):
            # A bug, not a modeled failure: the same InternalError (exit
            # 14, replayable scenario) that repro.solve raises.
            cause = exc
            exc = InternalError(cause, scenario_json=json.dumps(config_to_jsonable(job.config)))
            exc.__cause__ = cause
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
    """One job on the *shared* machine (see
    :class:`~repro.core.driver.SolveWorld`), plus the bookkeeping the
    fleet reads off a running job."""

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

    @property
    def procs(self):
        """The epoch's ranks live on the job: the fleet kicks / kills these."""
        return self.job.procs

    @procs.setter
    def procs(self, procs):
        self.job.procs = procs

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
