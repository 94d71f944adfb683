"""Exception hierarchy for the :mod:`repro` package.

Each class maps to a stable CLI exit code (:func:`exit_code_for`, also
used by the scenario fuzzer's outcome classifier) so scripts, the CI
matrices, and the fuzz corpus can tell *why* a run failed:

=========================  ====
class                      code
=========================  ====
ReproError (other)            1
ConfigurationError            2
ValidationError               3
NegativeCycleError            4
GpuOutOfMemory                5
BackendUnavailableError       6
CommTimeoutError              7
RankFailure                   8
CheckpointError               9
SilentCorruptionError        10
VerificationError            11
SinkError                    12
FaultPlanError               13
InternalError                14
AdmissionError               15
DeadlineExceeded             16
ArtifactError                17
QueryError                   18
=========================  ====

:class:`InternalError` is the catch-all for *unexpected* exceptions
escaping :func:`repro.solve` or a scheduled job - anything that is not
already a :class:`ReproError` is a bug, and the wrapper dumps the offending
:class:`~repro.api.SolveConfig` as replayable scenario JSON so the
failure can be reproduced with one call (the fuzzer and real users
share this path).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "BackendUnavailableError",
    "GpuOutOfMemory",
    "NegativeCycleError",
    "ValidationError",
    "CommTimeoutError",
    "RankFailure",
    "CheckpointError",
    "SilentCorruptionError",
    "VerificationError",
    "SinkError",
    "FaultPlanError",
    "InternalError",
    "AdmissionError",
    "DeadlineExceeded",
    "ArtifactError",
    "QueryError",
    "exit_code_for",
]


class ReproError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ReproError, ValueError):
    """Invalid solver / machine / grid configuration."""


class BackendUnavailableError(ConfigurationError):
    """A registered SrGemm kernel backend cannot be used because its
    soft dependency is missing (e.g. the ``cnative`` backend on a
    host with no C compiler)."""

    def __init__(self, name: str, reason: str):
        self.backend = name
        self.reason = reason
        super().__init__(f"SrGemm backend {name!r} is unavailable: {reason}")


class GpuOutOfMemory(ReproError, MemoryError):
    """A simulated GPU allocation exceeded the device's HBM capacity.

    The non-offload Floyd-Warshall variants raise this when the local
    distance matrix does not fit on the device - the "Beyond GPU
    Memory" boundary in the paper's Figure 7.  The offload variant
    (``Me-ParallelFw``) exists precisely to avoid it.
    """

    def __init__(self, requested: int, free: int, capacity: int, device: str = "gpu"):
        self.requested = requested
        self.free = free
        self.capacity = capacity
        self.device = device
        super().__init__(
            f"{device}: allocation of {requested} bytes exceeds free HBM "
            f"({free} of {capacity} bytes available); use the offload "
            "variant (Me-ParallelFw) for out-of-GPU-memory problems"
        )


class NegativeCycleError(ReproError, ValueError):
    """The input graph contains a negative-weight cycle.

    Floyd-Warshall's invariant (Dist[i,j] is the shortest path using
    intermediates v_1..v_k) only holds without negative cycles; we
    detect them by a negative diagonal entry.
    """

    def __init__(self, vertex: int, value: float):
        self.vertex = vertex
        self.value = value
        super().__init__(
            f"negative-weight cycle through vertex {vertex} (Dist[{vertex},{vertex}] = {value})"
        )


class ValidationError(ReproError, AssertionError):
    """A computed result failed verification against the oracle."""


class CommTimeoutError(ReproError, TimeoutError):
    """A simulated receive exceeded its timeout.

    Raised by :meth:`repro.mpi.comm.Comm.recv` when a deadline is set
    and no matching message arrives - the detection primitive for lost
    messages and dead peers.  ``retries`` counts how many re-request
    rounds were already attempted when the retry wrapper gives up.
    """

    def __init__(
        self,
        message: str,
        rank: "int | None" = None,
        src: "int | None" = None,
        tag: "int | None" = None,
        retries: int = 0,
    ):
        self.rank = rank
        self.src = src
        self.tag = tag
        self.retries = retries
        super().__init__(message)


class RankFailure(ReproError, RuntimeError):
    """A simulated MPI rank died mid-solve (injected crash or abort).

    Recoverable when checkpoint/restart is armed; otherwise it
    propagates out of the driver after the restart budget is spent.
    """

    def __init__(self, message: str, rank: "int | None" = None, at: "float | None" = None):
        self.rank = rank
        self.at = at
        super().__init__(message)


class CheckpointError(ReproError, RuntimeError):
    """The checkpoint/restart machinery could not recover a run
    (no consistent checkpoint exists, the restart budget is
    exhausted, or a snapshot failed its CRC32 integrity check)."""


class SilentCorruptionError(ReproError, RuntimeError):
    """The ABFT layer detected silent data corruption it could not
    repair in place (see :mod:`repro.verify`).

    Raised at the next op boundary of the detecting rank program.  On
    fault-armed runs the recovery loop treats it like a rank failure
    and restarts from the newest uncorrupted consistent checkpoint;
    without one it propagates out of the driver.
    """

    def __init__(
        self,
        message: str,
        rank: "int | None" = None,
        block: "tuple[int, int] | None" = None,
        op: "str | None" = None,
    ):
        self.rank = rank
        self.block = block
        self.op = op
        super().__init__(message)


class VerificationError(ValidationError):
    """The run's verification certificate failed: the completed result
    did not pass the residual audit (sampled triangle-inequality /
    reference-SSSP checks), so it must not be served."""


class SinkError(ConfigurationError):
    """An observability output sink (``--metrics-out`` /
    ``--trace-out``) is unusable - the path's directory is missing, or
    the target is not writable.  Raised *before* the solve starts, so a
    bad flag fails in milliseconds instead of throwing a traceback
    after a possibly hour-long run."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"cannot write to sink {path!r}: {reason}")


class FaultPlanError(ConfigurationError):
    """A fault plan (CLI spec string, JSON document, or programmatic
    dataclass) is malformed: an unknown fault kind or key, a value of
    the wrong type, or a value outside its legal range.

    Raised eagerly at parse/construction time so a typo'd field can
    never silently disarm a chaos experiment - the plan either means
    exactly what it says or the run refuses to start."""


class InternalError(ReproError):
    """An *unexpected* exception escaped the solver - i.e. a bug, not a
    modeled failure.  :func:`repro.solve` and the scheduler's job
    runner attach the offending configuration as replayable scenario JSON
    (``scenario_json``) so the exact run can be reproduced (``repro-apsp
    fuzz replay`` accepts the same document), and chains the original
    exception as ``__cause__``."""

    def __init__(self, original: BaseException, scenario_json: "str | None" = None):
        self.original_type = type(original).__name__
        self.scenario_json = scenario_json
        message = (
            f"unexpected {self.original_type} escaped the solver: {original}"
        )
        if scenario_json is not None:
            message += f"\nreplayable scenario: {scenario_json}"
        super().__init__(message)


class AdmissionError(ReproError):
    """The cluster scheduler refused a job at admission control: its
    memory demand can never fit the fleet, or the perf model predicts
    it would blow the configured makespan limit.  Carries the
    human-readable refusal ``reason``."""

    def __init__(self, job_name: str, reason: str):
        self.job_name = job_name
        self.reason = reason
        super().__init__(f"job {job_name!r} rejected at admission: {reason}")


class DeadlineExceeded(ReproError, TimeoutError):
    """A scheduled job blew its per-job deadline (simulated-time SLO)
    and was killed by the fleet's resilience layer.  Deadline kills are
    terminal: the job is never retried, whatever its retry policy says
    - retrying work that already missed its SLO only burns fleet
    capacity other tenants could use."""

    def __init__(self, job_name: str, deadline: float):
        self.job_name = job_name
        self.deadline = deadline
        super().__init__(
            f"job {job_name!r} exceeded its {deadline:.6g}s deadline and was killed"
        )


class ArtifactError(ReproError, OSError):
    """A persistent solve artifact (see :mod:`repro.serve`) is unusable:
    the directory or its manifest is missing or malformed, the format
    version is unsupported, or a block failed its CRC32 integrity check
    on load.  A corrupt artifact is *refused*, never served - the block
    store would rather answer nothing than answer wrong."""

    def __init__(self, path: str, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"artifact {str(path)!r} unusable: {reason}")


class QueryError(ReproError, ValueError):
    """A distance query against a :class:`~repro.serve.QueryServer` is
    invalid: a vertex outside ``[0, n)``, a non-positive ``k``,
    malformed pair batches, or an operation the artifact cannot support
    (e.g. ``update_edge`` on an artifact saved without its graph)."""


#: (class, code) pairs ordered most-specific first - several classes
#: subclass others, so order is significant for the isinstance scan.
_EXIT_CODE_TABLE: "tuple[tuple[type, int], ...]" = (
    (BackendUnavailableError, 6),  # before its base ConfigurationError
    (SinkError, 12),  # before its base ConfigurationError
    (FaultPlanError, 13),  # before its base ConfigurationError
    (ConfigurationError, 2),
    (VerificationError, 11),  # before its base ValidationError
    (ValidationError, 3),
    (NegativeCycleError, 4),
    (GpuOutOfMemory, 5),
    (CommTimeoutError, 7),
    (RankFailure, 8),
    (CheckpointError, 9),
    (SilentCorruptionError, 10),
    (InternalError, 14),
    (AdmissionError, 15),
    (DeadlineExceeded, 16),
    (ArtifactError, 17),
    (QueryError, 18),
)


def exit_code_for(exc: BaseException) -> int:
    """Distinct, stable exit code per failure class (the table in the
    module docstring) so scripts, the CI matrices, and the fuzzer's
    outcome classifier can tell *why* a run failed."""
    for cls, code in _EXIT_CODE_TABLE:
        if isinstance(exc, cls):
            return code
    return 1  # any other ReproError
