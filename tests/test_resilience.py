"""Fleet self-healing: retry determinism, quarantine, deadlines.

Four contracts pinned here:

1. **Retry determinism** - a job felled by any injected fault class and
   re-admitted by the resilience layer produces a distance matrix
   bit-identical to its clean solo solve, whether it resumed from a
   mid-run CRC-valid checkpoint or restarted from scratch.
2. **Resilience-off exactness** - with the layer disarmed (the
   default), every PR-8 recording stays bit- and makespan-exact: the
   scheduler takes zero extra simulated events.
3. **Self-healing** - a faulty device is quarantined after the
   configured threshold, jobs re-place around it (node remap) or
   re-plan onto the shrunken healthy fleet, and the device is
   reinstated after probation with a clean scoreboard.
4. **Bounded recovery** - deadlines kill (exit 16, never retried),
   ``max_attempts`` poisons, and the fleet-wide retry budget caps total
   recovery spend.
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, DeadlineExceeded, exit_code_for
from repro.faults import resolve_fault_plan
from repro.graphs import uniform_random_dense
from repro.sched import (
    ClusterScheduler,
    HealthPolicy,
    JobStatus,
    ResiliencePolicy,
    RetryPolicy,
)

# Same recorded ground truth as tests/test_sched.py: the resilience-off
# scheduler (and the armed-but-unfaulted one) must hit these exactly.
REAL_KW = dict(block_size=5, n_nodes=2, ranks_per_node=3)
RECORDED_ELAPSED = {
    "baseline": 0.0002740077794117649,
    "pipelined": 0.000346252455882353,
    "reordering": 0.000346252455882353,
    "async": 0.00034372901838235296,
    "offload": 0.0003222435441176473,
}
RECORDED_DIST_SHA = {
    0: "a212b9afbc9074bd6042ae010bbbd2b369c9014a7246079a921f1247fc8c7c3a",
    1: "b95b93ea5d1ab404adbfde5466cb4fa02b32771a864e3d75b8cf76d431a720f2",
    2: "9f4b377f89436d306998b3acf3f0b58d9dbfef734a721084d009ff05f4866906",
}
ALL_VARIANTS = ["baseline", "pipelined", "reordering", "async", "offload",
                "offload-pipelined"]


def dist_sha(dist: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(dist).tobytes()).hexdigest()


def _fatal(plan_spec: str, ckpt):
    """A fault plan whose first strike is terminal for the attempt: no
    in-run restarts, no OOM degrade - recovery is the scheduler's job."""
    plan = resolve_fault_plan(plan_spec, seed=0)
    return plan.replace(max_restarts=0, oom_degrade=False, checkpoint_interval=ckpt)


def _solo(seed: int):
    return repro.solve(uniform_random_dense(30, seed=seed), variant="async", **REAL_KW)


# ---------------------------------------------------------------------------
# 1. Retry determinism: crash-storm matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ckpt", [2, None], ids=["ckpt-resume", "from-scratch"])
@pytest.mark.parametrize("fault", ["crash:rank=1,at=0.00005", "oom:rank=0,k=2"],
                         ids=["crash", "oom"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_retried_job_is_bit_identical(seed, fault, ckpt):
    """Every (fault class x seed x resume mode) cell: the retried job's
    distance matrix equals its clean solo solve, bit for bit."""
    w = uniform_random_dense(30, seed=seed)
    sched = ClusterScheduler(n_nodes=2, resilience=True)
    handle = sched.submit(w, variant="async", fault_plan=_fatal(fault, ckpt),
                          **REAL_KW)
    report = handle.wait()
    assert report.status == "done" and report.attempts >= 2
    assert dist_sha(handle.result().dist) == RECORDED_DIST_SHA[seed]
    flat = sched.fleet_metrics().flat()
    assert flat["fleet.resilience.retries"] >= 1
    assert flat["fleet.resilience.mttr.count"] >= 1


def test_retry_from_scratch_when_store_is_corrupt():
    """A corrupted k=0 checkpoint leaves no consistent cut: the retry
    falls back to a pristine re-scatter and still lands bit-exact."""
    w = uniform_random_dense(30, seed=0)
    plan = _fatal("crash:rank=1,at=0.00005", 2).replace(
        memory_faults=resolve_fault_plan(
            "memflip:rank=0,k=0,target=checkpoint", seed=0
        ).memory_faults,
    )
    sched = ClusterScheduler(n_nodes=2, resilience=True)
    handle = sched.submit(w, variant="async", fault_plan=plan, **REAL_KW)
    report = handle.wait()
    assert report.status == "done" and report.attempts >= 2
    assert dist_sha(handle.result().dist) == RECORDED_DIST_SHA[0]


def test_retry_timing_is_deterministic():
    """Two identical armed fleets back off and finish at the exact same
    simulated times (seeded backoff, no wall-clock anywhere)."""
    def run():
        sched = ClusterScheduler(n_nodes=2, resilience=True)
        h = sched.submit(uniform_random_dense(30, seed=0), variant="async",
                         fault_plan=_fatal("crash:rank=1,at=0.00005", 2),
                         **REAL_KW)
        rep = h.wait()
        return rep.finished_at, sched.fleet_metrics().flat()["fleet.makespan"]

    assert run() == run()


# ---------------------------------------------------------------------------
# 2. Resilience-off exactness (the PR-8 recordings)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_resilience_off_recordings_exact(variant):
    w = uniform_random_dense(30, seed=0)
    sched = ClusterScheduler(n_nodes=2)  # disarmed default
    assert sched.resilience is None
    result = sched.submit(w, variant=variant, **REAL_KW).result()
    if variant in RECORDED_ELAPSED:
        assert result.report.elapsed == RECORDED_ELAPSED[variant]
        assert dist_sha(result.dist) == RECORDED_DIST_SHA[0]


def test_armed_but_unfaulted_is_still_exact():
    """Arming the layer costs nothing when nothing fails: same bits,
    same makespan as the recordings."""
    w = uniform_random_dense(30, seed=0)
    sched = ClusterScheduler(n_nodes=2, resilience=True)
    result = sched.submit(w, variant="async", **REAL_KW).result()
    assert result.report.elapsed == RECORDED_ELAPSED["async"]
    assert dist_sha(result.dist) == RECORDED_DIST_SHA[0]


def test_disarmed_submit_rejects_resilience_kwargs():
    sched = ClusterScheduler(n_nodes=2)
    w = uniform_random_dense(30, seed=0)
    with pytest.raises(ConfigurationError, match="resilience"):
        sched.submit(w, variant="async", retry=RetryPolicy(), **REAL_KW)
    with pytest.raises(ConfigurationError, match="resilience"):
        sched.submit(w, variant="async", deadline=1.0, **REAL_KW)


# ---------------------------------------------------------------------------
# 3. Self-healing: quarantine, remap, re-plan, reinstatement
# ---------------------------------------------------------------------------


def test_quarantine_remaps_onto_healthy_nodes():
    """A 3-node fleet with node 0's GPU quarantined re-places the
    2-node retry onto physical nodes [1, 2] - and stays bit-exact."""
    policy = ResiliencePolicy(health=HealthPolicy(fault_threshold=1, probation=0.5))
    sched = ClusterScheduler(n_nodes=3, resilience=policy)
    handle = sched.submit(uniform_random_dense(30, seed=1), variant="async",
                          fault_plan=_fatal("crash:rank=0,at=0.00005", 2),
                          **REAL_KW)
    report = handle.wait()
    assert report.status == "done"
    assert handle._job.node_map == [1, 2]
    assert dist_sha(handle.result().dist) == RECORDED_DIST_SHA[1]


def test_quarantine_replans_onto_shrunken_fleet():
    """When quarantine leaves fewer healthy nodes than the job planned
    for, the feasibility ladder re-plans it smaller instead of
    rejecting - still bit-exact."""
    policy = ResiliencePolicy(health=HealthPolicy(fault_threshold=1, probation=0.01))
    sched = ClusterScheduler(n_nodes=2, resilience=policy)
    handle = sched.submit(uniform_random_dense(30, seed=0), variant="async",
                          fault_plan=_fatal("crash:rank=1,at=0.00005", 2),
                          **REAL_KW)
    report = handle.wait()
    flat = sched.fleet_metrics().flat()
    assert report.status == "done"
    assert flat["fleet.resilience.replans"] >= 1
    assert flat["fleet.resilience.quarantines"] >= 1
    assert dist_sha(handle.result().dist) == RECORDED_DIST_SHA[0]


def test_replan_clears_explicit_placement():
    """An explicit placement spans the *old* node count; the re-plan
    ladder must drop it with the grid, or the job could never shrink
    (it would sit queued until the quarantine lifts)."""
    from repro.core import ProcessGrid, tiled_placement

    policy = ResiliencePolicy(health=HealthPolicy(fault_threshold=1, probation=0.01))
    sched = ClusterScheduler(n_nodes=2, resilience=policy)
    handle = sched.submit(uniform_random_dense(30, seed=0), variant="async",
                          grid=(2, 3),
                          placement=tiled_placement(ProcessGrid(2, 3), 1, 3),
                          fault_plan=_fatal("crash:rank=1,at=0.00005", 2),
                          **REAL_KW)
    report = handle.wait()
    assert report.status == "done"
    assert sched.fleet_metrics().flat()["fleet.resilience.replans"] >= 1
    assert handle._job.config.placement is None
    assert handle._job.rp.n_nodes == 1
    assert dist_sha(handle.result().dist) == RECORDED_DIST_SHA[0]


def test_probation_reinstates_with_clean_scoreboard():
    policy = ResiliencePolicy(health=HealthPolicy(fault_threshold=1, probation=0.01))
    sched = ClusterScheduler(n_nodes=2, resilience=policy)
    handle = sched.submit(uniform_random_dense(30, seed=0), variant="async",
                          fault_plan=_fatal("crash:rank=1,at=0.00005", 2),
                          **REAL_KW)
    handle.wait()
    flat = sched.fleet_metrics().flat()
    assert flat["fleet.resilience.reinstated"] >= 1
    monitor = sched.resilience.monitor
    assert not monitor.quarantined and not monitor.faults


def test_chaos_fleet_acceptance():
    """The ISSUE's acceptance run: an 8-job mixed-priority fleet under a
    GPU-crash storm - every job DONE bit-exact within max_attempts, the
    faulty device quarantined then reinstated, MTTR observed."""
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3),
        health=HealthPolicy(fault_threshold=2, probation=0.02),
        retry_budget=16,
    )
    sched = ClusterScheduler(n_nodes=2, resilience=policy, trace=True)
    handles = {}
    for i in range(8):
        seed = i % 3
        arrival = 0.00002 * i
        faulty = i % 2 == 0  # 4 of 8 jobs struck by the storm
        # crash times are absolute simulated seconds: strike each faulty
        # job shortly after its own arrival, always rank 1 -> the storm
        # concentrates on one GPU until it trips the quarantine threshold
        plan = _fatal(f"crash:rank=1,at={arrival + 0.00005!r}", 2) if faulty else None
        handles[i] = sched.submit(
            uniform_random_dense(30, seed=seed), variant="async",
            fault_plan=plan, name=f"tenant{i}", priority=i % 3,
            arrival=arrival, **REAL_KW,
        )
    reports = sched.run()
    assert [r.status for r in reports] == ["done"] * 8
    assert all(r.attempts <= policy.retry.max_attempts for r in reports)
    for i, handle in handles.items():
        assert dist_sha(handle.result().dist) == RECORDED_DIST_SHA[i % 3]
    flat = sched.fleet_metrics().flat()
    assert flat["fleet.resilience.retries"] > 0
    assert flat["fleet.resilience.quarantines"] >= 1
    assert flat["fleet.resilience.reinstated"] >= 1
    assert flat["fleet.resilience.mttr.count"] >= 1
    assert flat["fleet.resilience.retry_budget_remaining"] >= 0
    # retry-attempt span lanes show up in the fleet trace
    names = {ev.get("name", "") for ev in sched.chrome_trace()["traceEvents"]}
    assert any("attempt" in n for n in names)


# ---------------------------------------------------------------------------
# 4. Bounded recovery: deadlines, poison, budget
# ---------------------------------------------------------------------------


def test_deadline_kills_with_exit_16():
    sched = ClusterScheduler(n_nodes=2, resilience=True)
    handle = sched.submit(uniform_random_dense(30, seed=0), variant="async",
                          deadline=1e-5, **REAL_KW)
    report = handle.wait()
    assert report.status == "failed"
    assert report.exit_code == 16
    assert report.attempts == 1  # deadline kills are never retried
    assert "deadline" in report.error
    flat = sched.fleet_metrics().flat()
    assert flat["fleet.resilience.deadline_kills"] == 1


def test_deadline_met_is_harmless():
    sched = ClusterScheduler(n_nodes=2, resilience=True)
    handle = sched.submit(uniform_random_dense(30, seed=0), variant="async",
                          deadline=10.0, **REAL_KW)
    report = handle.wait()
    assert report.status == "done"
    # a met deadline must not stretch the fleet's simulated makespan
    assert sched.fleet_metrics().flat()["fleet.makespan"] < 1.0


def test_deadline_exceeded_exit_code_registered():
    assert exit_code_for(DeadlineExceeded("j", 0.5)) == 16


def test_poison_after_max_attempts():
    sched = ClusterScheduler(n_nodes=2, resilience=True)
    handle = sched.submit(uniform_random_dense(30, seed=0), variant="async",
                          fault_plan=_fatal("crash:rank=0,at=0.00005", None),
                          retry=RetryPolicy(max_attempts=1), **REAL_KW)
    report = handle.wait()
    assert report.status == "failed" and report.poisoned
    assert report.exit_code == 8  # keeps the last failure's class
    flat = sched.fleet_metrics().flat()
    assert flat.get("fleet.resilience.retries", 0) == 0
    assert flat["fleet.resilience.poisoned"] == 1


def test_retry_budget_exhaustion_stops_retries():
    policy = ResiliencePolicy(retry_budget=0)
    sched = ClusterScheduler(n_nodes=2, resilience=policy)
    handle = sched.submit(uniform_random_dense(30, seed=0), variant="async",
                          fault_plan=_fatal("crash:rank=0,at=0.00005", None),
                          **REAL_KW)
    report = handle.wait()
    assert report.status == "failed" and report.attempts == 1
    assert "retry budget" in handle._job.reason


def test_failed_job_does_not_poison_neighbours():
    """One poisoned tenant; a concurrent clean tenant finishes exact."""
    sched = ClusterScheduler(n_nodes=2, resilience=True)
    bad = sched.submit(uniform_random_dense(30, seed=0), variant="async",
                       fault_plan=_fatal("crash:rank=0,at=0.00005", None),
                       retry=RetryPolicy(max_attempts=1), name="bad", **REAL_KW)
    good = sched.submit(uniform_random_dense(30, seed=1), variant="async",
                        name="good", **REAL_KW)
    sched.run()
    assert bad.status is JobStatus.FAILED
    assert good.status is JobStatus.DONE
    assert dist_sha(good.result().dist) == RECORDED_DIST_SHA[1]
