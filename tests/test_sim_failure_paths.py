"""Failure-path tests for the simulation kernel.

The fault framework leans on exactly these behaviours: a crashed rank
must not leak resource slots, a failed event must propagate through
condition events (or stay quiet once defused), and a rank's pending
async sends must drain cleanly after an aborted iteration.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro import SolveConfig
from repro.core import FwContext, RankState
from repro.core.driver import plan_run
from repro.machine import SUMMIT, CostModel, SimCluster
from repro.mpi import SimMPI
from repro.sim import Environment, Interrupt, Resource, SimulationError, Store


class TestInterruptInResourceWait:
    def test_interrupt_while_queued_releases_no_slot(self, env):
        """A process interrupted while *waiting* for a resource must
        leave the queue; the slot it never got goes to the next waiter."""
        res = Resource(env, capacity=1)
        order = []

        def holder():
            yield from res.use(2.0)
            order.append(("holder-done", env.now))

        def victim():
            try:
                yield from res.use(1.0)
            except Interrupt:
                order.append(("victim-interrupted", env.now))

        def bystander():
            yield env.timeout(0.5)  # queue behind the victim
            yield from res.use(1.0)
            order.append(("bystander-done", env.now))

        env.process(holder())
        v = env.process(victim())
        env.process(bystander())

        def killer():
            yield env.timeout(1.0)
            v.interrupt("rank lost")

        env.process(killer())
        env.run()
        assert order == [
            ("victim-interrupted", 1.0),
            ("holder-done", 2.0),
            ("bystander-done", 3.0),
        ]
        assert res.count == 0 and res.queue_len == 0

    def test_interrupt_while_holding_releases_slot(self, env):
        res = Resource(env, capacity=1)
        got = []

        def holder():
            with pytest.raises(Interrupt):
                yield from res.use(10.0)

        def waiter():
            yield from res.use(1.0)
            got.append(env.now)

        h = env.process(holder())
        env.process(waiter())

        def killer():
            yield env.timeout(2.0)
            h.interrupt()

        env.process(killer())
        env.run()
        assert got == [3.0]  # granted at t=2 on the interrupt, held 1s
        assert res.count == 0

    def test_interrupt_cause_carried(self, env):
        res = Resource(env, capacity=1)
        seen = {}

        def holder():
            yield from res.use(5.0)

        def victim():
            try:
                yield from res.use(1.0)
            except Interrupt as exc:
                seen["cause"] = exc.cause

        env.process(holder())
        v = env.process(victim())

        def killer():
            yield env.timeout(1.0)
            v.interrupt({"rank": 3})

        env.process(killer())
        env.run()
        assert seen["cause"] == {"rank": 3}


class TestEventFailThroughConditions:
    def test_fail_through_all_of(self, env):
        ok, bad = env.timeout(1.0), env.event()
        caught = {}

        def waiter():
            try:
                yield env.all_of([ok, bad])
            except RuntimeError as exc:
                caught["exc"] = exc

        env.process(waiter())

        def failer():
            yield env.timeout(0.5)
            bad.fail(RuntimeError("transfer aborted"))

        env.process(failer())
        env.run()
        assert str(caught["exc"]) == "transfer aborted"

    def test_fail_through_any_of(self, env):
        slow, bad = env.timeout(2.0), env.event()
        caught = {}

        def waiter():
            try:
                yield env.any_of([slow, bad])
            except RuntimeError as exc:
                caught["exc"] = exc

        env.process(waiter())

        def failer():
            yield env.timeout(0.5)
            bad.fail(RuntimeError("nic died"))

        env.process(failer())
        env.run()
        assert str(caught["exc"]) == "nic died"
        env.run()  # the slow timeout still drains without raising

    def test_any_of_winner_beats_later_failure(self, env):
        """A failure *after* the condition already fired must not
        abort the simulation (the condition defuses the stragglers)."""
        fast, bad = env.timeout(0.5, "fast"), env.event()
        got = {}

        def waiter():
            got["v"] = yield env.any_of([fast, bad])

        env.process(waiter())

        def failer():
            yield env.timeout(1.0)
            bad.fail(RuntimeError("too late to matter"))

        env.process(failer())
        env.run()
        assert got["v"] == ["fast"]

    def test_unwaited_failure_aborts_unless_defused(self, env):
        bad = env.event()
        bad.fail(RuntimeError("orphaned failure"))
        with pytest.raises(RuntimeError, match="orphaned failure"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        bad = env.event()
        bad.fail(RuntimeError("handled elsewhere"))
        bad.defuse()
        env.run()  # no raise


class TestStoreFailurePaths:
    def test_cancel_pending_getter(self, env):
        store = Store(env)
        getter = store.get()
        store.cancel(getter)
        store.put("late")
        env.run()
        assert not getter.triggered  # withdrawn, not matched
        assert len(store) == 1  # item stays for a real receiver

    def test_cancel_is_idempotent_and_ignores_matched(self, env):
        store = Store(env)
        store.put("x")
        getter = store.get()
        store.cancel(getter)  # already matched: ignored
        store.cancel(getter)
        assert getter.ok and getter.value == "x"

    def test_reset_drops_items_and_getters(self, env):
        store = Store(env)
        stuck = store.get()  # pending: the store is empty
        store.reset()  # crash recovery wipes the mailbox
        store.put("fresh")
        env.run()
        assert not stuck.triggered  # the abandoned receive never fires
        assert len(store) == 1  # "fresh" waits for a real receiver

    def test_reset_drops_stale_items(self, env):
        store = Store(env)
        store.put("stale")
        store.put("staler")
        store.reset()
        assert len(store) == 0
        assert not store.get().triggered  # nothing left to match


class TestDrainAfterAbortedIteration:
    @pytest.fixture
    def rank_state(self, env):
        cost = CostModel(SUMMIT)
        cluster = SimCluster(env, SUMMIT, 2, cost)
        mpi = SimMPI(env, cluster, [0, 0, 1, 1])
        rp = plan_run(
            np.zeros((8, 8)),
            SolveConfig(variant="baseline", block_size=4, n_nodes=2,
                        ranks_per_node=2, grid=(2, 2)),
            SUMMIT,
        )
        return RankState(FwContext(env, cluster, mpi, rp), 0, {})

    def test_drain_waits_for_pending_sends(self, env, rank_state):
        rank_state.pending.append(env.timeout(1.0))
        rank_state.pending.append(env.timeout(3.0))

        def prog():
            yield from rank_state.drain()
            return env.now

        proc = env.process(prog())
        assert env.run(proc) == 3.0
        assert rank_state.pending == []

    def test_drain_after_aborted_iteration(self, env, rank_state):
        """An iteration aborted by a crash leaves failed relays in
        ``pending``; once recovery defuses them, drain() of the *next*
        epoch's state never sees them, and draining the aborted state
        itself surfaces the failure exactly once."""
        dead = env.event()
        dead.fail(SimulationError("relay aborted by crash"))
        rank_state.pending.append(dead)
        rank_state.pending.append(env.timeout(1.0))
        caught = []

        def prog():
            try:
                yield from rank_state.drain()
            except SimulationError as exc:
                caught.append(exc)
            # a second drain is a no-op: pending was already swapped out
            yield from rank_state.drain()

        env.process(prog())
        env.run()
        assert len(caught) == 1
        assert rank_state.pending == []

    def test_drain_of_interrupted_rank_is_resumable(self, env, rank_state):
        """Interrupting a rank mid-drain leaves the remaining events
        harmless (the recovery path then rebuilds the state)."""
        rank_state.pending.append(env.timeout(5.0))
        seen = {}

        def prog():
            try:
                yield from rank_state.drain()
            except Interrupt as exc:
                seen["cause"] = exc.cause

        proc = env.process(prog())

        def killer():
            yield env.timeout(1.0)
            proc.interrupt("epoch aborted")

        env.process(killer())
        env.run()
        assert seen["cause"] == "epoch aborted"
