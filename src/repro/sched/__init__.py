"""Multi-tenant cluster scheduling: jobs, admission, fair share.

The one-job engine (:func:`repro.solve`) solves a single APSP on a
private simulated machine.  This subpackage runs the same supervisor (:func:`repro.core.driver.run_solve`) as a
*shared-cluster job runtime*: a
:class:`ClusterScheduler` owns one simulated machine, admits first-class
:class:`~repro.sched.job.Job` objects against perf-model capacity
predictions, arbitrates contended GPUs and NICs by priority-weighted
fair share, and runs every admitted job concurrently with per-job fault
isolation and per-job observability.

See docs/SCHEDULING.md for the job model, admission-control and
fair-share semantics, and the Perfetto recipe for fleet traces.  An
optional self-healing layer (``resilience.py`` / ``health.py``, see
docs/RESILIENCE.md) adds retry-with-backoff, device quarantine,
checkpoint-carrying re-admission and per-job deadlines on top.
"""

from .admission import AdmissionController, Assessment, JobDemand, assess, demand_of
from .arbiter import FairShareArbiter
from .health import DeviceHealthMonitor, HealthPolicy
from .job import Job, JobHandle, JobReport, JobStatus
from .resilience import FleetResilience, ResiliencePolicy, RetryPolicy
from .scheduler import ClusterScheduler
from .spec import build_graph, load_job_mix, run_job_mix

__all__ = [
    "AdmissionController",
    "Assessment",
    "ClusterScheduler",
    "DeviceHealthMonitor",
    "FairShareArbiter",
    "FleetResilience",
    "HealthPolicy",
    "Job",
    "JobDemand",
    "JobHandle",
    "JobReport",
    "JobStatus",
    "ResiliencePolicy",
    "RetryPolicy",
    "assess",
    "build_graph",
    "demand_of",
    "load_job_mix",
    "run_job_mix",
]
