"""First-class jobs: what the cluster scheduler admits, runs, reports.

A :class:`Job` couples a graph with a
:class:`~repro.api.SolveConfig`, a priority and a submission time.  The
scheduler hands callers a :class:`JobHandle` (poll / wait / result) and
leaves a :class:`JobReport` behind for every job - including failed and
rejected ones, which carry the same per-class exit codes the CLI uses
(:func:`repro.errors.exit_code_for`), so a crashed job in a shared
cluster is diagnosable exactly like a crashed single run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import exit_code_for

__all__ = ["Job", "JobHandle", "JobReport", "JobStatus"]


class JobStatus(enum.Enum):
    #: Submitted with a future arrival time; not yet at the cluster.
    PENDING = "pending"
    #: Admissible, but the fleet is oversubscribed right now.
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    #: Refused at admission: can never fit (or breaks the makespan SLO).
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.REJECTED)


@dataclass(eq=False)  # identity semantics: a job is an entity, not a value
class Job:
    """One unit of scheduled work: a graph + solve config + share."""

    job_id: int
    name: str
    weights: Any = field(repr=False, default=None)
    config: Any = field(repr=False, default=None)  # SolveConfig
    rp: Any = field(repr=False, default=None)  # core.driver.RunPlan
    #: Larger = more important; buys a larger fair share (2x per level),
    #: never absolute preemption.
    priority: int = 0
    #: Fair-share weight within a priority level.
    weight: float = 1.0
    #: Simulated arrival time (seconds); 0 = already at the cluster.
    submit_at: float = 0.0
    status: JobStatus = JobStatus.PENDING
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Any = field(repr=False, default=None)  # ApspResult
    error: Optional[BaseException] = field(repr=False, default=None)
    #: Why the job was refused/queued last (human-readable).
    reason: Optional[str] = None
    restarts: int = 0
    #: Memory demand reserved at admission (set by the controller).
    demand: Any = field(repr=False, default=None)
    #: The running epoch's rank processes (for deadline kills and
    #: drained-heap kicks).
    procs: list = field(repr=False, default_factory=list)
    # -- resilience (all inert unless the scheduler is armed) ---------------
    #: Retry policy (:class:`~repro.sched.resilience.RetryPolicy`);
    #: None on a resilience-off fleet - the job fails terminally.
    retry: Any = field(repr=False, default=None)
    #: Simulated-seconds SLO measured from ``submit_at``; None = none.
    deadline: Optional[float] = None
    #: Completed retries so far (0 on the first attempt).
    attempt: int = 0
    #: True once ``max_attempts`` is exhausted: the job keeps its last
    #: failure's exit code and is never retried again.
    poisoned: bool = False
    #: Simulated time of the first failed attempt (MTTR baseline).
    first_failed_at: Optional[float] = None
    #: Set by the deadline watchdog; the runner raises it at the next
    #: epoch boundary instead of retrying.
    killed: Optional[BaseException] = field(repr=False, default=None)
    #: Devices blamed for this attempt's rank failures (drained into
    #: the fleet's DeviceHealthMonitor when the attempt ends).
    fault_devices: list = field(repr=False, default_factory=list)
    #: Persisted fault runtime (injector + checkpoint store) carried
    #: across retry attempts for checkpoint-resume determinism.
    faults_rt: Any = field(repr=False, default=None)
    #: Logical->physical node remap chosen at admission to dodge
    #: quarantined devices; None = identity.
    node_map: Optional[list] = None

    @property
    def done(self) -> bool:
        return self.status.terminal

    @property
    def exit_code(self) -> int:
        """CLI-style exit code: 0 for success, else the per-class code
        of :func:`repro.errors.exit_code_for` (rejections carry an
        :class:`~repro.errors.AdmissionError`, code 15)."""
        if self.status is JobStatus.DONE:
            return 0
        if self.error is not None:
            return exit_code_for(self.error)
        return 1

    @property
    def queue_wait(self) -> float:
        """Seconds between arrival and start (0 for unstarted jobs)."""
        if self.started_at is None or self.submitted_at is None:
            return 0.0
        return self.started_at - self.submitted_at

    @property
    def elapsed(self) -> float:
        """Running time (start to finish), excluding queueing."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    @property
    def latency(self) -> float:
        """End-to-end: arrival to finish (what a tenant experiences)."""
        if self.finished_at is None or self.submitted_at is None:
            return 0.0
        return self.finished_at - self.submitted_at

    def report(self) -> "JobReport":
        return JobReport(
            job_id=self.job_id,
            name=self.name,
            status=self.status.value,
            exit_code=self.exit_code,
            error=None if self.error is None else f"{type(self.error).__name__}: {self.error}",
            reason=self.reason,
            priority=self.priority,
            weight=self.weight,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            queue_wait=self.queue_wait,
            elapsed=self.elapsed,
            latency=self.latency,
            restarts=self.restarts,
            variant=None if self.rp is None else self.rp.var.value,
            n=None if self.rp is None else self.rp.n,
            attempts=self.attempt + 1,
            poisoned=self.poisoned,
        )


@dataclass(frozen=True)
class JobReport:
    """The durable record of one job (also for failed/rejected ones)."""

    job_id: int
    name: str
    status: str
    exit_code: int
    error: Optional[str]
    reason: Optional[str]
    priority: int
    weight: float
    submitted_at: Optional[float]
    started_at: Optional[float]
    finished_at: Optional[float]
    queue_wait: float
    elapsed: float
    latency: float
    restarts: int
    variant: Optional[str]
    n: Optional[int]
    #: Runs executed (1 = no retries); see the resilience layer.
    attempts: int = 1
    poisoned: bool = False

    def as_dict(self) -> dict:
        import dataclasses

        return dataclasses.asdict(self)


class JobHandle:
    """The caller's view of a submitted job: poll, await, result.

    ``wait()`` *drives* the shared simulation (it is single-threaded
    simulated time, not wall-clock), so the first handle awaited runs
    every concurrently admitted job along the way.
    """

    def __init__(self, scheduler, job: Job):
        self._scheduler = scheduler
        self._job = job

    @property
    def job_id(self) -> int:
        return self._job.job_id

    @property
    def name(self) -> str:
        return self._job.name

    @property
    def status(self) -> JobStatus:
        return self._job.status

    @property
    def done(self) -> bool:
        return self._job.done

    def poll(self) -> JobStatus:
        """Current status without advancing simulated time."""
        return self._job.status

    def wait(self) -> JobReport:
        """Run the simulation until this job reaches a terminal state."""
        self._scheduler.run(until_job=self._job)
        return self._job.report()

    def result(self):
        """The job's :class:`~repro.core.driver.ApspResult`; runs the
        simulation if needed and re-raises the job's failure."""
        if not self._job.done:
            self.wait()
        if self._job.error is not None:
            raise self._job.error
        return self._job.result

    def report(self) -> JobReport:
        return self._job.report()

    def __await__(self):
        self.wait()
        return self.result()
        yield  # pragma: no cover - makes __await__ a generator
