"""Multi-tenant cluster scheduler: exactness, fairness, isolation.

Four contracts pinned here:

1. **Degenerate exactness** - a single job submitted through
   :class:`~repro.sched.ClusterScheduler` reproduces the unscheduled
   engine bit-for-bit *and* second-for-second: all six variants match
   ``repro.solve`` and the five recorded makespans/digests of
   ``tests/test_schedule_ir.py``.
2. **Admission** - demand pricing is formula-identical to the driver's
   state builders (measured against live allocations); oversubscribed
   jobs queue and finish, impossible jobs are REJECTED with
   :class:`~repro.errors.AdmissionError` (exit code 15).
3. **Fair share** - priority buys proportional bandwidth, never
   starvation: across a seeded priority/arrival/weight matrix every
   job completes, bit-exact with its solo run.
4. **Failure isolation** - a crash or OOM that exhausts one job's
   restart budget fails *that job* with its per-class exit code while
   concurrent jobs finish bit-exact.
"""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import SolveConfig
from repro.core.context import FwContext
from repro.core.driver import MachineHandles, make_state_builders, plan_run
from repro.errors import AdmissionError, ConfigurationError, exit_code_for
from repro.graphs import uniform_random_dense
from repro.machine.spec import SUMMIT
from repro.mpi.comm import SimMPI
from repro.sched import (
    ClusterScheduler,
    FairShareArbiter,
    JobStatus,
    assess,
    demand_of,
    load_job_mix,
    run_job_mix,
)

# The recorded single-job ground truth (same values as
# tests/test_schedule_ir.py): the scheduler's degenerate path must hit
# these exactly - same bits, same simulated seconds.
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
HOLLOW_KW = dict(
    block_size=1, n_nodes=4, ranks_per_node=4, dim_scale=768.0,
    compute_numerics=False, collect=False, check_negative_cycles=False,
)
RECORDED_HOLLOW_ASYNC = 0.14802366061176453

ALL_VARIANTS = ["baseline", "pipelined", "reordering", "async", "offload",
                "offload-pipelined"]


def dist_sha(dist: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(dist).tobytes()).hexdigest()


def _solo(seed: int, variant: str = "async", n: int = 30, **kw):
    kw = {**REAL_KW, **kw} if n == 30 else kw
    return repro.solve(uniform_random_dense(n, seed=seed), variant=variant, **kw)


# ---------------------------------------------------------------------------
# 1. Degenerate schedules are exact
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_degenerate_schedule_is_exact(variant):
    """One job through the scheduler == the unscheduled engine, for all
    six variants: identical distance bits and identical makespan."""
    w = uniform_random_dense(30, seed=0)
    solo = repro.solve(w, variant=variant, **REAL_KW)
    sched = ClusterScheduler(n_nodes=2)
    handle = sched.submit(w, variant=variant, **REAL_KW)
    result = handle.result()
    assert result.dist.tobytes() == solo.dist.tobytes()
    assert result.report.elapsed == solo.report.elapsed
    if variant in RECORDED_ELAPSED:
        assert result.report.elapsed == RECORDED_ELAPSED[variant]
        assert dist_sha(result.dist) == RECORDED_DIST_SHA[0]


def test_degenerate_schedule_hollow_makespan():
    """Paper-scale hollow run (nb=24, dim_scale=768, 16 ranks) through
    the scheduler keeps the recorded makespan to the last ulp."""
    w = np.zeros((24, 24), dtype=np.float32)
    sched = ClusterScheduler(n_nodes=4, dim_scale=768.0)
    handle = sched.submit(w, variant="async", **HOLLOW_KW)
    assert handle.result().report.elapsed == RECORDED_HOLLOW_ASYNC


def test_concurrent_jobs_stay_bit_exact():
    """Three tenants sharing one cluster contend for GPUs and NICs -
    timing changes, numerics must not: each job's digest equals its
    recorded solo digest."""
    sched = ClusterScheduler(n_nodes=2)
    handles = {
        seed: sched.submit(uniform_random_dense(30, seed=seed),
                           variant="async", name=f"seed{seed}", **REAL_KW)
        for seed in (0, 1, 2)
    }
    sched.run()
    for seed, handle in handles.items():
        assert handle.status is JobStatus.DONE
        assert dist_sha(handle.result().dist) == RECORDED_DIST_SHA[seed]


def test_api_submit_degenerate_matches_solve():
    w = uniform_random_dense(30, seed=1)
    solo = repro.solve(w, variant="pipelined", **REAL_KW)
    handle = repro.submit(w, variant="pipelined", **REAL_KW)
    result = handle.result()
    assert result.dist.tobytes() == solo.dist.tobytes()
    assert result.report.elapsed == solo.report.elapsed
    assert handle.report().exit_code == 0


# ---------------------------------------------------------------------------
# 2. Admission control
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["async", "offload"])
def test_demand_pricing_matches_builders(variant):
    """demand_of() must price exactly what make_state_builders later
    allocates, or admission would admit jobs the builder OOMs on:
    compare against live per-GPU/per-host allocation counters."""
    handles = MachineHandles.create(SUMMIT, 2)
    rp = plan_run(uniform_random_dense(30, seed=0),
                  SolveConfig(variant=variant, **REAL_KW), SUMMIT)
    demand = demand_of(rp, handles.cost, SUMMIT.node.gpus_per_node)
    mpi = SimMPI(handles.env, handles.cluster,
                 [rp.placement.node_of(r) for r in range(rp.n_ranks)], None)
    ctx = FwContext(handles.env, handles.cluster, mpi, rp)
    rp.distribute()
    build_states, teardown_states = make_state_builders(ctx, rp)
    states = build_states(rp.locals_, rp.nxt_locals)
    try:
        for (node, g), nbytes in demand.gpu_bytes.items():
            assert handles.cluster.nodes[node].gpus[g].allocated == nbytes
        for node, nbytes in demand.dram_bytes.items():
            assert handles.cluster.nodes[node].host._dram_allocated == nbytes
        if variant != "offload":
            assert not demand.dram_bytes
    finally:
        teardown_states(states)
    for node in handles.cluster.nodes:
        assert all(gpu.allocated == 0 for gpu in node.gpus)


def test_oversubscribed_job_queues_then_finishes():
    """Two hollow jobs that each nearly fill HBM: the second queues
    (reason names the oversubscribed GPU), then runs to completion when
    the first releases its reservation."""
    sched = ClusterScheduler(n_nodes=1, dim_scale=9000.0)
    w = np.zeros((8, 8), dtype=np.float32)
    kw = dict(variant="async", block_size=1, n_nodes=1, ranks_per_node=2,
              dim_scale=9000.0, compute_numerics=False, collect=False,
              check_negative_cycles=False)
    first = sched.submit(w, name="first", **kw)
    second = sched.submit(w, name="second", **kw)
    assert first.status is JobStatus.RUNNING
    assert second.status is JobStatus.QUEUED
    assert "oversubscribed" in second.report().reason
    reports = sched.run()
    assert [r.status for r in reports] == ["done", "done"]
    assert second.report().queue_wait > 0.0
    assert first.report().queue_wait == 0.0
    flat = sched.fleet_metrics().flat()
    assert flat["fleet.jobs.queued"] == 1.0
    assert flat["fleet.queue.depth"] == 0.0


def test_impossible_job_is_rejected_with_exit_15():
    sched = ClusterScheduler(n_nodes=1, dim_scale=100000.0)
    handle = sched.submit(
        np.zeros((16, 16), dtype=np.float32), name="huge",
        variant="baseline", block_size=1, n_nodes=1, ranks_per_node=2,
        dim_scale=100000.0, compute_numerics=False, collect=False,
        check_negative_cycles=False,
    )
    assert handle.status is JobStatus.REJECTED
    assert "exceeds HBM capacity" in handle.report().reason
    assert handle.report().exit_code == 15
    with pytest.raises(AdmissionError):
        handle.result()
    assert exit_code_for(AdmissionError("huge", "x")) == 15


def test_needs_more_nodes_is_rejected():
    sched = ClusterScheduler(n_nodes=1)
    handle = sched.submit(uniform_random_dense(30, seed=0),
                          variant="async", **REAL_KW)  # wants 2 nodes
    assert handle.status is JobStatus.REJECTED
    assert "nodes" in handle.report().reason


def test_makespan_slo_rejects_slow_jobs():
    """An SLO-configured fleet rejects jobs whose Eq. 1 prediction
    exceeds the limit - before any simulated event is spent."""
    sched = ClusterScheduler(n_nodes=2, makespan_limit=1e-9)
    handle = sched.submit(uniform_random_dense(30, seed=0),
                          variant="async", **REAL_KW)
    assert handle.status is JobStatus.REJECTED
    assert "makespan" in handle.report().reason
    roomy = ClusterScheduler(n_nodes=2, makespan_limit=1e6)
    assert roomy.submit(uniform_random_dense(30, seed=0), variant="async",
                        **REAL_KW).result() is not None


def test_job_config_must_match_fleet():
    sched = ClusterScheduler(n_nodes=1)
    w = uniform_random_dense(12, seed=0)
    with pytest.raises(ConfigurationError):
        sched.submit(w, machine="workstation", block_size=3, ranks_per_node=2)
    with pytest.raises(ConfigurationError):
        sched.submit(w, dim_scale=2.0, block_size=3, ranks_per_node=2)
    with pytest.raises(ConfigurationError):
        sched.submit(w, stragglers={0: 2.0}, block_size=3, ranks_per_node=2)


def test_assess_feasibility_ladder():
    small = assess(30, 2, 3)
    assert small.feasibility == "fits-hbm" and small.feasible
    assert small.predicted_makespan > 0
    paper = assess(1_664_511, 64, 12)
    assert paper.feasibility == "needs-offload"
    assert "offload" in paper.summary()
    absurd = assess(50_000_000, 1, 12)
    assert not absurd.feasible and absurd.predicted_makespan is None
    # The scheduler's what-if view prices against its own fleet shape.
    assert ClusterScheduler(n_nodes=2).assess(30, ranks_per_node=3).feasible


# ---------------------------------------------------------------------------
# 3. Fair share: proportional service, no starvation
# ---------------------------------------------------------------------------


def _grants(arbiter, scopes, rounds):
    """Simulate contended grants: every scope always has one waiter;
    each grant charges one second of service."""
    counts = {s: 0 for s in scopes}
    for _ in range(rounds):
        waiting = [SimpleNamespace(scope=s) for s in scopes]
        picked = arbiter.select(waiting).scope
        counts[picked] += 1
        arbiter.charge(picked, 1.0)
    return counts


def test_arbiter_priority_buys_double_share():
    arbiter = FairShareArbiter()
    arbiter.register("lo", priority=0)
    arbiter.register("hi", priority=1)
    counts = _grants(arbiter, ["lo", "hi"], 30)
    assert counts["hi"] == 2 * counts["lo"]
    assert counts["lo"] > 0  # never starved


def test_arbiter_weight_subdivides_within_priority():
    arbiter = FairShareArbiter()
    arbiter.register("a", weight=1.0)
    arbiter.register("b", weight=3.0)
    counts = _grants(arbiter, ["a", "b"], 40)
    assert counts["b"] == 3 * counts["a"]


def test_arbiter_single_scope_is_fifo():
    arbiter = FairShareArbiter()
    arbiter.register("only")
    waiting = [SimpleNamespace(scope="only", tag=i) for i in range(4)]
    assert arbiter.select(waiting).tag == 0  # queue order, no reordering


def test_arbiter_latecomer_starts_at_current_min():
    arbiter = FairShareArbiter()
    arbiter.register("old")
    arbiter.charge("old", 100.0)
    arbiter.register("new")
    assert arbiter.vtime("new") == pytest.approx(100.0)


@settings(max_examples=6, deadline=None)
@given(
    priorities=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    weights=st.lists(st.floats(0.5, 4.0, allow_nan=False), min_size=3, max_size=3),
    arrivals=st.lists(st.floats(0.0, 2e-4, allow_nan=False), min_size=3, max_size=3),
)
def test_fair_share_never_starves(priorities, weights, arrivals):
    """Property: whatever the priority/weight/arrival matrix, every
    submitted job completes - and bit-exact with its solo run (fair
    share shifts *when* things happen, never *what* is computed)."""
    kw = dict(variant="async", block_size=3, n_nodes=1, ranks_per_node=2)
    sched = ClusterScheduler(n_nodes=1)
    handles = []
    for i, (prio, wt, arr) in enumerate(zip(priorities, weights, arrivals)):
        handles.append(sched.submit(
            uniform_random_dense(12, seed=i), name=f"j{i}",
            priority=prio, weight=wt, arrival=arr, **kw,
        ))
    sched.run()
    for i, handle in enumerate(handles):
        assert handle.status is JobStatus.DONE, handle.report()
        solo = repro.solve(uniform_random_dense(12, seed=i), **kw)
        assert handle.result().dist.tobytes() == solo.dist.tobytes()


def test_future_arrival_is_pending_then_runs():
    sched = ClusterScheduler(n_nodes=1)
    handle = sched.submit(uniform_random_dense(12, seed=0), variant="async",
                          block_size=3, n_nodes=1, ranks_per_node=2,
                          arrival=0.5)
    assert handle.status is JobStatus.PENDING
    report = handle.wait()
    assert report.status == "done"
    assert report.submitted_at == pytest.approx(0.5)
    assert report.started_at >= 0.5


# ---------------------------------------------------------------------------
# 4. Failure isolation across concurrent jobs
# ---------------------------------------------------------------------------


def test_crash_fails_one_job_others_bit_exact():
    """A crash with no restart budget kills exactly one tenant (exit 8,
    RankFailure); the other two finish bit-exact with their solo runs."""
    sched = ClusterScheduler(n_nodes=1)
    kw = dict(block_size=4, n_nodes=1, ranks_per_node=4)
    a = sched.submit(uniform_random_dense(24, seed=0), variant="async",
                     name="a", **kw)
    b = sched.submit(uniform_random_dense(24, seed=1), variant="async", name="b",
                     fault_plan=["crash:rank=1,at=0.0001", "policy:restarts=0"],
                     **kw)
    c = sched.submit(uniform_random_dense(24, seed=2), variant="pipelined",
                     name="c", **kw)
    sched.run()
    assert b.status is JobStatus.FAILED
    assert b.report().exit_code == 8
    with pytest.raises(repro.RankFailure):
        b.result()
    for seed, handle, variant in ((0, a, "async"), (2, c, "pipelined")):
        solo = repro.solve(uniform_random_dense(24, seed=seed),
                           variant=variant, **kw)
        assert handle.result().dist.tobytes() == solo.dist.tobytes()
    flat = sched.fleet_metrics().flat()
    assert flat["fleet.jobs.failed"] == 1.0
    assert flat["fleet.jobs.completed"] == 2.0


def test_oom_fails_one_job_with_exit_5():
    """Injected GPU OOM with degradation and restarts disabled fails
    only its own job (exit 5); the concurrent job is unaffected."""
    sched = ClusterScheduler(n_nodes=1)
    kw = dict(block_size=4, n_nodes=1, ranks_per_node=4)
    victim = sched.submit(
        uniform_random_dense(24, seed=1), variant="async", name="victim",
        fault_plan=["oom:rank=1,k=1", "policy:restarts=0,oom_degrade=false"],
        **kw,
    )
    bystander = sched.submit(uniform_random_dense(24, seed=0), variant="async",
                             name="bystander", **kw)
    sched.run()
    assert victim.status is JobStatus.FAILED
    assert victim.report().exit_code == 5
    solo = repro.solve(uniform_random_dense(24, seed=0), variant="async", **kw)
    assert bystander.result().dist.tobytes() == solo.dist.tobytes()


def test_crash_recovery_inside_shared_cluster():
    """With a restart budget, a crashed tenant restarts from its
    checkpoint *on the shared cluster* and still converges bit-exact,
    while the bystander also stays bit-exact."""
    sched = ClusterScheduler(n_nodes=1)
    kw = dict(block_size=4, n_nodes=1, ranks_per_node=4)
    crashy = sched.submit(
        uniform_random_dense(24, seed=1), variant="async", name="crashy",
        fault_plan=["crash:rank=1,at=0.0001", "policy:ckpt=2"], **kw,
    )
    calm = sched.submit(uniform_random_dense(24, seed=2), variant="async",
                        name="calm", **kw)
    sched.run()
    assert crashy.status is JobStatus.DONE
    assert crashy.report().restarts >= 1
    solo1 = repro.solve(uniform_random_dense(24, seed=1), variant="async", **kw)
    solo2 = repro.solve(uniform_random_dense(24, seed=2), variant="async", **kw)
    assert crashy.result().dist.tobytes() == solo1.dist.tobytes()
    assert calm.result().dist.tobytes() == solo2.dist.tobytes()


def test_message_faults_do_not_leak_between_jobs():
    """Message-drop injection arms the faulted job's transport only:
    the bystander's traffic is untouched and its digest unchanged."""
    sched = ClusterScheduler(n_nodes=1)
    kw = dict(block_size=4, n_nodes=1, ranks_per_node=4)
    faulted = sched.submit(
        uniform_random_dense(24, seed=1), variant="async", name="faulted",
        fault_plan=["drop:src=0,dst=1,nth=1", "policy:timeout=1e-3"], **kw,
    )
    bystander = sched.submit(uniform_random_dense(24, seed=0), variant="async",
                             name="bystander", **kw)
    sched.run()
    assert faulted.status is JobStatus.DONE
    assert faulted.result().fault_counters.get("faults.dropped", 0) >= 1
    assert not bystander.result().fault_counters
    solo = repro.solve(uniform_random_dense(24, seed=0), variant="async", **kw)
    assert bystander.result().dist.tobytes() == solo.dist.tobytes()


# ---------------------------------------------------------------------------
# 5. Fleet workload + observability (the acceptance scenario)
# ---------------------------------------------------------------------------


def _mixed_workload(sched):
    """The seeded 8-job mixed-priority acceptance mix."""
    rng = np.random.RandomState(7)
    handles = []
    variants = ["async", "pipelined", "baseline", "async",
                "offload", "async", "pipelined", "async"]
    for i, variant in enumerate(variants):
        handles.append(sched.submit(
            uniform_random_dense(24, seed=i), variant=variant,
            name=f"tenant{i}", priority=int(rng.randint(0, 3)),
            weight=float(rng.choice([0.5, 1.0, 2.0])),
            arrival=float(rng.uniform(0, 1e-4)),
            block_size=4, n_nodes=1, ranks_per_node=4,
        ))
    return handles


def test_eight_job_mixed_priority_workload():
    sched = ClusterScheduler(n_nodes=2, trace=True)
    handles = _mixed_workload(sched)
    reports = sched.run()
    assert len(reports) == 8
    assert all(h.status is JobStatus.DONE for h in handles)
    for i, handle in enumerate(handles):
        solo = repro.solve(uniform_random_dense(24, seed=i),
                           variant=handle.report().variant, block_size=4,
                           n_nodes=1, ranks_per_node=4)
        assert handle.result().dist.tobytes() == solo.dist.tobytes()

    flat = sched.fleet_metrics().flat()
    assert flat["fleet.jobs.completed"] == 8.0
    assert 0.0 < flat["fleet.gpu.utilization"] <= 1.0
    assert flat["fleet.job.latency.p99"] >= flat["fleet.job.latency.p50"] > 0.0
    assert flat["fleet.makespan"] > 0.0

    trace = sched.chrome_trace()
    lanes = {e["args"]["name"] for e in trace["traceEvents"]
             if e.get("ph") == "M" and e.get("name") == "thread_name"}
    # Job-tagged lanes: each tenant's ranks and engine lanes interleave.
    assert any(lane.startswith("tenant0.") for lane in lanes)
    assert any(lane.startswith("tenant7.") for lane in lanes)
    assert "fleet.jobs" in lanes  # one lane spans every job's lifetime


def test_untraced_fleet_refuses_chrome_trace():
    with pytest.raises(ConfigurationError):
        ClusterScheduler(n_nodes=1).chrome_trace()


# ---------------------------------------------------------------------------
# 6. Job-mix specs and the `repro-apsp sched` CLI
# ---------------------------------------------------------------------------


def _mix_spec():
    return {
        "machine": "summit",
        "n_nodes": 1,
        "jobs": [
            {"name": "mixA",
             "graph": {"kind": "uniform_random_dense", "n": 24, "seed": 0},
             "priority": 1,
             "config": {"variant": "async", "block_size": 4,
                        "n_nodes": 1, "ranks_per_node": 4}},
            {"name": "mixB",
             "graph": {"kind": "zeros", "n": 16},
             "config": {"variant": "pipelined", "block_size": 4,
                        "n_nodes": 1, "ranks_per_node": 2}},
        ],
    }


def test_run_job_mix_roundtrip(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(_mix_spec()))
    sched, reports = run_job_mix(load_job_mix(str(path)))
    assert [r.name for r in reports] == ["mixA", "mixB"]
    assert all(r.status == "done" for r in reports)
    assert sched.fleet_metrics().flat()["fleet.jobs.completed"] == 2.0


def test_job_mix_semiring_by_name():
    """A job mix names its semiring in JSON; the job solves over it."""
    from repro.core import blocked_fw
    from repro.semiring import MAX_MIN

    graph = {"kind": "uniform_random_dense", "n": 12, "seed": 3}
    spec = {"jobs": [{"name": "bottleneck", "graph": graph,
                      "config": {"semiring": "max_min", "block_size": 3,
                                 "ranks_per_node": 2,
                                 "check_negative_cycles": False}}]}
    sched, reports = run_job_mix(spec)
    assert reports[0].status == "done"
    ref = blocked_fw(uniform_random_dense(12, seed=3), 3, semiring=MAX_MIN,
                     check_negative_cycles=False)
    np.testing.assert_array_equal(sched.jobs[0].result.dist, ref)


def test_load_job_mix_rejects_bad_specs(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"jobs": []}))
    with pytest.raises(ConfigurationError):
        load_job_mix(str(empty))
    bad_graph = dict(_mix_spec())
    bad_graph["jobs"] = [{"name": "x", "graph": {"kind": "not_a_kind", "n": 4},
                          "config": {}}]
    with pytest.raises(ConfigurationError):
        run_job_mix(bad_graph)


def test_cli_sched_runs_a_mix(tmp_path, capsys):
    from repro.cli import main

    spec = tmp_path / "mix.json"
    spec.write_text(json.dumps(_mix_spec()))
    report_json = tmp_path / "report.json"
    trace_json = tmp_path / "trace.json"
    code = main(["sched", str(spec), "--report-json", str(report_json),
                 "--trace-out", str(trace_json)])
    out = capsys.readouterr().out
    assert code == 0
    assert "mixA" in out and "mixB" in out and "fleet.gpu.utilization" in out
    payload = json.loads(report_json.read_text())
    assert {j["name"] for j in payload["jobs"]} == {"mixA", "mixB"}
    assert payload["fleet"]["fleet.jobs.completed"] == 2.0
    trace = json.loads(trace_json.read_text())
    assert any("mixA" in str(e.get("args", {}).get("name", ""))
               for e in trace["traceEvents"])


def test_cli_sched_exit_code_reflects_failed_tenant(tmp_path, capsys):
    from repro.cli import main

    spec = _mix_spec()
    spec["jobs"][1] = {
        "name": "doomed",
        "graph": {"kind": "uniform_random_dense", "n": 24, "seed": 1},
        "config": {"variant": "async", "block_size": 4, "n_nodes": 1,
                   "ranks_per_node": 4,
                   "fault_plan": ["crash:rank=1,at=0.0001",
                                  "policy:restarts=0"]},
    }
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(spec))
    code = main(["sched", str(path)])
    capsys.readouterr()
    assert code == 8  # the doomed tenant's RankFailure class
