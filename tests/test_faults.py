"""Tests for the fault-injection framework and fault-tolerant solvers.

Covers: plan parsing/serialization, the zero-overhead-when-unarmed
contract (makespans pinned bit-exactly against pre-feature recordings),
every injection primitive, the recovery paths (retransmit, checkpoint/
restart, OOM degradation), the chaos matrix (drop + NIC window + crash
with checkpoint/restart on every variant, bit-compared to the
fault-free oracle), and run-to-run determinism of armed runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.errors import (
    CommTimeoutError,
    ConfigurationError,
    GpuOutOfMemory,
    RankFailure,
)
from repro.faults import (
    FAULT_PLAN_ENV,
    CheckpointStore,
    ComputeStraggler,
    FaultPlan,
    MessageFault,
    NicWindow,
    OomFault,
    RankCrash,
    resolve_fault_plan,
)
from repro.graphs import uniform_random_dense

#: Shared small workload: 48 vertices, b=8 (6x6 blocks), 4 ranks on 2
#: nodes - big enough for every broadcast path, small enough to chaos-
#: test repeatedly.
N, B, NODES, RPN = 48, 8, 2, 2

#: Makespans recorded on the commit *before* the fault framework
#: existed (same workload, same machine model).  Unarmed runs must
#: reproduce them bit-for-bit: arming hooks may cost literally nothing
#: when no plan is present.
PRE_FAULT_MAKESPANS = {
    "baseline": 0.00032133007058823555,
    "pipelined": 0.0003952467576470589,
    "async": 0.0003952467576470589,
    "offload": 0.0004660122352941178,
}

#: The acceptance-criteria chaos plan: >=1 drop, >=1 NIC degradation
#: window, >=1 rank crash recovered via checkpoint/restart.
CHAOS_PLAN = (
    "drop:src=0,dst=1,nth=1",
    "nic:node=0,factor=4,t0=0,t1=2e-4",
    "crash:rank=1,at=1.5e-4",
    "policy:timeout=5e-4,ckpt=2",
)


def run(w, variant, **kw):
    return solve(w, variant=variant, block_size=B, n_nodes=NODES, ranks_per_node=RPN, **kw)


@pytest.fixture(scope="module")
def w48():
    return uniform_random_dense(N, seed=3)


@pytest.fixture(scope="module")
def oracle(w48):
    """Fault-free distance matrices per variant (the bit-exact targets)."""
    return {v: run(w48, v).dist for v in PRE_FAULT_MAKESPANS}


# ---------------------------------------------------------------------------
# FaultPlan construction / serialization
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_grammar_all_kinds(self):
        plan = FaultPlan.from_specs(
            [
                "drop:src=0,dst=3,nth=1",
                "dup:tag=16,p=0.5",
                "corrupt:src=1,nth=2,bits=4",
                "nic:node=0,factor=4,t0=1e-4,t1=2e-4",
                "straggler:rank=2,factor=3",
                "crash:rank=1,at=1.5e-4",
                "oom:rank=0,k=3",
                "policy:timeout=1e-3,retries=2,backoff=1.5,ckpt=4,restarts=3,oom_degrade=false",
            ],
            seed=7,
        )
        assert plan.message_faults == (
            MessageFault("drop", src=0, dst=3, nth=1),
            MessageFault("dup", tag=16, p=0.5),
            MessageFault("corrupt", src=1, nth=2, bits=4),
        )
        assert plan.nic_windows == (NicWindow(0, 4, 1e-4, 2e-4),)
        assert plan.stragglers == (ComputeStraggler(2, 3),)
        assert plan.crashes == (RankCrash(1, 1.5e-4),)
        assert plan.ooms == (OomFault(0, 3),)
        assert plan.recv_timeout == 1e-3
        assert plan.max_retries == 2
        assert plan.backoff == 1.5
        assert plan.checkpoint_interval == 4
        assert plan.max_restarts == 3
        assert plan.oom_degrade is False
        assert plan.seed == 7
        assert plan.armed()

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:rank=0",  # unknown kind
            "drop:src=0",  # needs nth or p
            "drop:src=0,nth=0",  # nth is 1-based
            "drop:src=0,p=1.5",  # p out of range
            "nic:node=0",  # missing factor
            "nic:node=0,factor=-1",  # bad factor
            "nic:node=0,factor=2,t0=3,t1=1",  # empty window
            "crash:rank=0,at=-1",  # negative time
            "crash:rank=0",  # missing at
            "drop:src=0,nth=1,bogus=2",  # unknown key
            "policy:frobnicate=1",  # unknown policy key
            "drop:src",  # not key=value
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_specs([spec])

    def test_json_round_trip(self):
        plan = FaultPlan.from_specs(list(CHAOS_PLAN) + ["nic:node=1,factor=2"], seed=9)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan  # includes the inf-t1 window surviving JSON

    def test_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json("not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json('{"volcanoes": []}')

    def test_resolve_from_environment(self, monkeypatch):
        plan = FaultPlan.from_specs(["drop:src=0,dst=1,nth=1"])
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert resolve_fault_plan(None) == plan
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert resolve_fault_plan(None) is None

    def test_resolve_disarms_empty_plan(self):
        assert resolve_fault_plan(FaultPlan()) is None
        assert resolve_fault_plan("policy:restarts=2") is None  # still nothing armed
        assert resolve_fault_plan("policy:ckpt=4") is not None  # checkpointing arms

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(recv_timeout=0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(backoff=0.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(max_restarts=-1)


# ---------------------------------------------------------------------------
# Zero overhead when unarmed
# ---------------------------------------------------------------------------
class TestZeroOverhead:
    @pytest.mark.parametrize("variant", sorted(PRE_FAULT_MAKESPANS))
    def test_unarmed_makespan_unchanged(self, w48, variant):
        """Regression pin: the makespan of an unarmed run equals the
        value recorded before the fault framework existed, bit-for-bit."""
        result = run(w48, variant)
        assert result.report.elapsed == PRE_FAULT_MAKESPANS[variant]
        assert result.fault_counters is None

    def test_unarmed_trace_digest_matches_armed_hooks_absent(self, w48):
        """An explicit-but-empty plan disarms completely: identical
        event stream to a run that never heard of faults."""
        a = run(w48, "async", trace=True)
        b = run(w48, "async", trace=True, fault_plan=FaultPlan())
        assert b.fault_counters is None
        assert a.tracer.event_digest() == b.tracer.event_digest()


# ---------------------------------------------------------------------------
# Individual injection primitives
# ---------------------------------------------------------------------------
class TestInjectionPrimitives:
    def test_drop_detected_and_retransmitted(self, w48, oracle):
        r = run(w48, "baseline", fault_plan=["drop:src=0,dst=1,nth=1", "policy:timeout=5e-4"])
        assert r.fault_counters["faults.dropped"] == 1
        assert r.fault_counters["faults.retransmits"] >= 1
        assert r.fault_counters["faults.retries"] >= 1
        assert np.array_equal(r.dist, oracle["baseline"])

    def test_corruption_caught_by_checksum(self, w48, oracle):
        r = run(
            w48,
            "baseline",
            fault_plan=["corrupt:src=0,dst=1,nth=1,bits=8", "policy:timeout=5e-4"],
        )
        assert r.fault_counters["faults.corrupted"] == 1
        assert r.fault_counters["faults.checksum_mismatches"] == 1
        assert r.fault_counters["faults.retransmits"] == 1
        assert np.array_equal(r.dist, oracle["baseline"])

    def test_duplicate_suppressed(self, w48, oracle):
        r = run(w48, "async", fault_plan=["dup:src=0,dst=1,nth=1"])
        assert r.fault_counters["faults.duplicated"] == 1
        assert r.fault_counters["faults.duplicates_suppressed"] == 1
        assert np.array_equal(r.dist, oracle["async"])

    def test_nic_window_slows_only_inside_window(self, w48):
        base = run(w48, "baseline").report.elapsed
        windowed = run(
            w48, "baseline", fault_plan=["nic:node=0,factor=8,t0=0,t1=1e-4"]
        ).report.elapsed
        always = run(w48, "baseline", fault_plan=["nic:node=0,factor=8"]).report.elapsed
        assert base < windowed < always

    def test_nic_window_preserves_results(self, w48, oracle):
        r = run(w48, "async", fault_plan=["nic:node=1,factor=16,t0=0,t1=2e-4"])
        assert np.array_equal(r.dist, oracle["async"])

    def test_straggler_rank_slows_run(self, w48, oracle):
        base = run(w48, "async").report.elapsed
        r = run(w48, "async", fault_plan=["straggler:rank=1,factor=3"])
        assert r.report.elapsed > base
        assert np.array_equal(r.dist, oracle["async"])

    def test_straggler_slows_offload_pipeline(self, w48):
        """The multiplier lives on the GPU, so the offload pipeline's
        internally created streams are slowed too."""
        base = run(w48, "offload").report.elapsed
        r = run(w48, "offload", fault_plan=["straggler:rank=0,factor=4"])
        assert r.report.elapsed > base

    def test_probabilistic_faults_seeded(self, w48):
        a = run(w48, "async", fault_plan=["drop:p=0.05", "policy:timeout=5e-4"], fault_seed=1)
        b = run(w48, "async", fault_plan=["drop:p=0.05", "policy:timeout=5e-4"], fault_seed=1)
        c = run(w48, "async", fault_plan=["drop:p=0.05", "policy:timeout=5e-4"], fault_seed=2)
        assert a.fault_counters == b.fault_counters
        # different seed -> different (deterministic) fault pattern;
        # the *count* may coincide, the runs must still both be correct
        assert np.array_equal(a.dist, c.dist)

    def test_crash_rank_out_of_range_rejected(self, w48):
        with pytest.raises(ConfigurationError):
            run(w48, "baseline", fault_plan=["crash:rank=99,at=1e-4"])


# ---------------------------------------------------------------------------
# Receive timeouts
# ---------------------------------------------------------------------------
class TestRecvTimeout:
    def test_recv_timeout_raises(self):
        """A deadline receive from a silent peer raises CommTimeoutError
        with the envelope attached (no fault plan needed)."""
        from repro.machine import SUMMIT, CostModel, SimCluster
        from repro.mpi import SimMPI
        from repro.sim import Environment

        env = Environment()
        cluster = SimCluster(env, SUMMIT, 2, CostModel(SUMMIT))
        mpi = SimMPI(env, cluster, [0, 1])
        world = mpi.world()
        caught = {}

        def receiver():
            comm = world.localize(1)
            try:
                yield from comm.recv(src=0, tag=5, timeout=1e-3)
            except CommTimeoutError as exc:
                caught["exc"] = exc

        env.process(receiver())
        env.run()
        exc = caught["exc"]
        assert exc.rank == 1 and exc.src == 0 and exc.tag == 5
        assert env.now == pytest.approx(1e-3)

    def test_recv_timeout_not_triggered_by_arrival(self):
        from repro.machine import SUMMIT, CostModel, SimCluster
        from repro.mpi import SimMPI
        from repro.sim import Environment

        env = Environment()
        cluster = SimCluster(env, SUMMIT, 2, CostModel(SUMMIT))
        mpi = SimMPI(env, cluster, [0, 1])
        world = mpi.world()
        got = {}

        def sender():
            yield from world.localize(0).send(1, np.arange(4.0), tag=5)

        def receiver():
            got["payload"] = yield from world.localize(1).recv(src=0, tag=5, timeout=1.0)

        env.process(sender())
        env.process(receiver())
        env.run()
        np.testing.assert_array_equal(got["payload"], np.arange(4.0))

    def test_exhausted_retries_propagate(self, w48):
        """A crashed peer with no checkpointing and no restart budget:
        the receive gives up after max_retries and the error surfaces."""
        with pytest.raises((CommTimeoutError, RankFailure)):
            run(
                w48,
                "baseline",
                fault_plan=[
                    "crash:rank=1,at=1e-4",
                    "policy:timeout=2e-4,retries=1,restarts=0",
                ],
            )


# ---------------------------------------------------------------------------
# Checkpoint / restart
# ---------------------------------------------------------------------------
class TestCheckpointRestart:
    def test_store_consistent_cut(self):
        store = CheckpointStore()
        blocks = {(0, 0): np.eye(2)}
        store.save(0, 0, blocks)
        store.save(0, 1, blocks)
        store.save(4, 0, blocks)  # rank 1 never saved k=4
        assert store.consistent_k(2) == 0
        store.save(4, 1, blocks)
        assert store.consistent_k(2) == 4
        restored = store.restore(4, 0)
        restored[(0, 0)][0, 0] = 99.0  # the store's copy stays pristine
        assert store.restore(4, 0)[(0, 0)][0, 0] == 1.0

    def test_store_missing_checkpoint(self):
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            CheckpointStore().restore(2, 0)

    def test_store_corrupted_checkpoint_rejected(self):
        """In-place rot of a stored snapshot trips the save-time CRC32:
        restore refuses it instead of handing out garbage."""
        from repro.errors import CheckpointError

        store = CheckpointStore()
        store.save(2, 0, {(0, 0): np.full((2, 2), 3.0)})
        store._blocks[2][0][(0, 0)][1, 1] = -3.0  # silent bit-flip at rest
        with pytest.raises(CheckpointError, match="CRC32"):
            store.restore(2, 0)
        assert store.crc_rejections >= 1

    def test_consistent_k_skips_corrupted_epoch(self):
        """A corrupted epoch is treated like an incomplete one: the
        consistency scan falls back to the newest clean cut."""
        store = CheckpointStore()
        blocks = {(0, 0): np.eye(2)}
        for k in (0, 4):
            store.save(k, 0, blocks)
            store.save(k, 1, blocks)
        assert store.consistent_k(2) == 4
        store._blocks[4][1][(0, 0)][0, 0] = 7.0  # corrupt rank 1's newest
        assert store.consistent_k(2) == 0
        assert store.crc_rejections >= 1

    def test_checkpoint_flip_falls_back_to_older_epoch(self, w48, oracle):
        """End-to-end: a memflip targeting the checkpoint store corrupts
        the newest snapshot; a later crash then restarts from the older
        clean epoch and still lands bit-exact."""
        r = run(
            w48,
            "baseline",
            fault_plan=[
                "memflip:rank=0,k=4,target=checkpoint",
                "crash:rank=1,at=2.4e-4",
                "policy:ckpt=2",
            ],
        )
        c = r.fault_counters
        assert c["faults.ckpt_flips"] >= 1
        assert c["faults.crc_rejections"] >= 1
        assert c["faults.restarts"] == 1
        assert np.array_equal(r.dist, oracle["baseline"])

    def test_crash_recovers_from_checkpoint(self, w48, oracle):
        r = run(w48, "baseline", fault_plan=["crash:rank=1,at=1.5e-4", "policy:timeout=5e-4,ckpt=2"])
        c = r.fault_counters
        assert c["faults.crashes"] == 1
        assert c["faults.restarts"] == 1
        assert c["faults.checkpoints"] >= 1
        assert c["faults.checkpoint_time"] > 0
        assert np.array_equal(r.dist, oracle["baseline"])

    def test_crash_without_timeouts_detected_by_deadlock(self, w48, oracle):
        """No recv_timeout armed: the dead peer's partners simply block;
        the grace reaper the crash armed interrupts them and the world
        restarts."""
        r = run(w48, "baseline", fault_plan=["crash:rank=2,at=1.5e-4", "policy:ckpt=2"])
        assert r.fault_counters["faults.crashes"] == 1
        assert r.fault_counters["faults.restarts"] == 1
        assert np.array_equal(r.dist, oracle["baseline"])

    def test_larger_interval_replays_more(self, w48):
        replayed = {}
        for ckpt in (1, 4):
            r = run(
                w48,
                "baseline",
                fault_plan=[f"crash:rank=1,at=2.5e-4", f"policy:timeout=5e-4,ckpt={ckpt}"],
            )
            replayed[ckpt] = r.fault_counters["faults.replayed_iters"]
        assert replayed[1] <= replayed[4]

    def test_checkpoint_interval_kwarg_arms(self, w48, oracle):
        r = run(w48, "pipelined", checkpoint_interval=2)
        assert r.fault_counters["faults.checkpoints"] > 0
        assert np.array_equal(r.dist, oracle["pipelined"])

    def test_restart_budget_exhausted(self, w48):
        """More crashes than the restart budget allows gives up with a
        RankFailure (or the underlying timeout) instead of looping."""
        plan = ["crash:rank=1,at=1.5e-4", "policy:timeout=5e-4,ckpt=2,restarts=0"]
        with pytest.raises((RankFailure, CommTimeoutError)):
            run(w48, "baseline", fault_plan=plan)

    def test_simultaneous_crashes_one_restart(self, w48, oracle):
        """Two ranks lost in the same epoch are recovered by a single
        restart from the common consistent checkpoint."""
        r = run(
            w48,
            "baseline",
            fault_plan=[
                "crash:rank=1,at=1.5e-4",
                "crash:rank=2,at=1.6e-4",
                "policy:timeout=5e-4,ckpt=2",
            ],
        )
        assert r.fault_counters["faults.crashes"] == 2
        assert r.fault_counters["faults.restarts"] == 1
        assert np.array_equal(r.dist, oracle["baseline"])


# ---------------------------------------------------------------------------
# OOM degradation
# ---------------------------------------------------------------------------
class TestOomDegrade:
    def test_mid_solve_oom_degrades_to_offload(self, w48, oracle):
        r = run(w48, "baseline", fault_plan=["oom:rank=2,k=3", "policy:ckpt=2"])
        c = r.fault_counters
        assert c["faults.oom_injected"] == 1
        assert c["faults.oom_degraded"] == 1
        assert r.report.variant == "baseline->offload"
        # The offload epochs replay the baseline checkpoint bit-exactly:
        # top-of-loop state is schedule-independent for Alg. 3 flavors.
        assert np.array_equal(r.dist, oracle["offload"])
        assert np.array_equal(r.dist, oracle["baseline"])

    def test_oom_degrade_disabled_propagates(self, w48):
        with pytest.raises(GpuOutOfMemory):
            run(w48, "baseline", fault_plan=["oom:rank=2,k=3", "policy:ckpt=2,oom_degrade=false"])

    def test_oom_under_offload_restarts_in_place(self, w48, oracle):
        """Already offloaded: nothing left to degrade to, so the world
        restarts under the same config (the injected OOM fires once)."""
        r = run(w48, "offload", fault_plan=["oom:rank=1,k=2", "policy:ckpt=2"])
        assert r.fault_counters["faults.restarts"] == 1
        assert "faults.oom_degraded" not in r.fault_counters
        assert np.array_equal(r.dist, oracle["offload"])


# ---------------------------------------------------------------------------
# Chaos matrix: the acceptance plan on every variant, bit-compared
# ---------------------------------------------------------------------------
class TestChaosMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2], ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("variant", ["baseline", "pipelined", "async", "offload"])
    def test_chaos_bit_identical_to_fault_free(self, variant, seed):
        w = uniform_random_dense(N, seed=seed)
        clean = run(w, variant)
        chaotic = run(w, variant, fault_plan=list(CHAOS_PLAN), fault_seed=seed)
        c = chaotic.fault_counters
        assert c["faults.crashes"] == 1
        assert c["faults.restarts"] >= 1
        assert np.array_equal(chaotic.dist, clean.dist), (
            f"{variant} seed={seed}: chaos run diverged from fault-free oracle"
        )

    @pytest.mark.parametrize("variant", ["baseline", "pipelined", "async", "offload"])
    def test_chaos_deterministic(self, variant):
        """Two identical armed runs: same trace digest, same counters,
        same distances - the bit-reproducibility contract."""
        w = uniform_random_dense(N, seed=5)
        a = run(w, variant, fault_plan=list(CHAOS_PLAN), trace=True)
        b = run(w, variant, fault_plan=list(CHAOS_PLAN), trace=True)
        assert a.tracer.event_digest() == b.tracer.event_digest()
        assert a.fault_counters == b.fault_counters
        assert np.array_equal(a.dist, b.dist)

    def test_chaos_validates_against_sequential_oracle(self):
        """Belt and braces: the chaotic result also passes the driver's
        own oracle validation."""
        w = uniform_random_dense(N, seed=0)
        run(w, "async", fault_plan=list(CHAOS_PLAN), validate=True)
