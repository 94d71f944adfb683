"""Tests for the simulated MPI layer: point-to-point and collectives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machine import SUMMIT, CostModel, SimCluster
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    Comm,
    SimMPI,
    barrier,
    bcast_ring,
    bcast_tree,
    gather,
    virtual_nbytes,
)
from repro.sim import Environment


def make_world(env, n_ranks=4, n_nodes=2, dim_scale=1.0):
    cost = CostModel(SUMMIT, dim_scale=dim_scale)
    cluster = SimCluster(env, SUMMIT, n_nodes, cost)
    per = n_ranks // n_nodes
    mpi = SimMPI(env, cluster, [r // per for r in range(n_ranks)])
    return mpi, cluster


class TestPointToPoint:
    def test_send_recv_value(self, env):
        mpi, _ = make_world(env)
        world = mpi.world()
        out = {}

        def sender():
            comm = world.localize(0)
            yield from comm.send(1, {"x": 1}, tag=5)

        def receiver():
            comm = world.localize(1)
            got = yield from comm.recv(src=0, tag=5)
            out["got"] = got

        env.process(sender())
        env.process(receiver())
        env.run()
        assert out["got"] == {"x": 1}

    def test_tag_matching_out_of_order(self, env):
        mpi, _ = make_world(env)
        world = mpi.world()
        out = []

        def sender():
            comm = world.localize(0)
            yield from comm.send(1, "first", tag=1)
            yield from comm.send(1, "second", tag=2)

        def receiver():
            comm = world.localize(1)
            b = yield from comm.recv(src=0, tag=2)
            a = yield from comm.recv(src=0, tag=1)
            out.extend([b, a])

        env.process(sender())
        env.process(receiver())
        env.run()
        assert out == ["second", "first"]

    def test_any_source_any_tag(self, env):
        mpi, _ = make_world(env)
        world = mpi.world()
        got = []

        def sender(rank, msg):
            comm = world.localize(rank)
            yield from comm.send(3, msg, tag=rank)

        def receiver():
            comm = world.localize(3)
            for _ in range(2):
                m = yield from comm.recv(src=ANY_SOURCE, tag=ANY_TAG)
                got.append(m)

        env.process(sender(0, "from0"))
        env.process(sender(1, "from1"))
        env.process(receiver())
        env.run()
        assert sorted(got) == ["from0", "from1"]

    def test_payload_copied_at_send(self, env):
        """Mutating the sender's array after isend must not corrupt the
        message (eager buffering)."""
        mpi, _ = make_world(env)
        world = mpi.world()
        payload = np.ones((4, 4))
        result = {}

        def sender():
            comm = world.localize(0)
            ev = comm.isend(1, payload, tag=0)
            yield env.timeout(0)
            payload[:] = 999.0  # mutate after the send is in flight
            yield ev

        def receiver():
            comm = world.localize(1)
            got = yield from comm.recv(src=0)
            result["sum"] = got.sum()

        env.process(sender())
        env.process(receiver())
        env.run()
        assert result["sum"] == 16.0

    def test_recv_message_metadata(self, env):
        mpi, _ = make_world(env)
        world = mpi.world()
        out = {}

        def sender():
            comm = world.localize(2)
            yield from comm.send(0, "hello", tag=9)

        def receiver():
            comm = world.localize(0)
            msg = yield from comm.recv_message(tag=9)
            out["msg"] = msg

        env.process(sender())
        env.process(receiver())
        env.run()
        assert out["msg"].src == 2
        assert out["msg"].tag == 9
        assert out["msg"].delivered_at >= out["msg"].sent_at

    def test_intranode_vs_internode_accounting(self, env):
        mpi, cluster = make_world(env, n_ranks=4, n_nodes=2)
        world = mpi.world()

        def prog():
            c0 = world.localize(0)
            yield from c0.send(1, np.ones((10, 10)))  # same node (ranks 0,1)
            yield from c0.send(2, np.ones((10, 10)))  # other node

        def sink(rank):
            comm = world.localize(rank)
            yield from comm.recv(src=0)

        env.process(prog())
        env.process(sink(1))
        env.process(sink(2))
        env.run()
        assert mpi.bytes_intranode == pytest.approx(400)
        assert mpi.bytes_internode == pytest.approx(400)
        assert mpi.message_count == 2

    def test_virtual_nbytes_scaling(self, env):
        cost = CostModel(SUMMIT, dim_scale=3.0)
        assert virtual_nbytes(np.ones((2, 2)), cost) == pytest.approx(2 * 3 * 2 * 3 * 4)
        assert virtual_nbytes(np.ones(4), cost) == pytest.approx(12 * 4)
        assert virtual_nbytes([np.ones((1, 1)), np.ones((1, 1))], cost) == pytest.approx(72)
        assert virtual_nbytes({"a": np.ones((1, 1))}, cost) == pytest.approx(36)
        assert virtual_nbytes(None, cost) == 8.0


class TestCommunicators:
    def test_duplicate_ranks_rejected(self, env):
        mpi, _ = make_world(env)
        with pytest.raises(ConfigurationError):
            Comm(mpi, (0, 0, 1), me=None)

    def test_localize_membership(self, env):
        mpi, _ = make_world(env)
        sub = Comm(mpi, (1, 3), me=None)
        assert sub.localize(3).rank == 1
        with pytest.raises(ConfigurationError):
            sub.localize(0)

    def test_unlocalized_rank_raises(self, env):
        mpi, _ = make_world(env)
        with pytest.raises(ConfigurationError):
            _ = Comm(mpi, (0, 1), me=None).rank

    def test_subgroup(self, env):
        mpi, _ = make_world(env)
        world = mpi.world()
        sub = world.subgroup([0, 2])
        assert sub.world_ranks == (0, 2)
        assert sub.to_world(1) == 2

    def test_invalid_node_mapping(self, env):
        cost = CostModel(SUMMIT)
        cluster = SimCluster(env, SUMMIT, 1, cost)
        with pytest.raises(ConfigurationError):
            SimMPI(env, cluster, [0, 5])


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
class TestBroadcasts:
    def run_collective(self, env, size, fn):
        mpi, _ = make_world(env, n_ranks=size, n_nodes=1)
        world = mpi.world()
        results = {}

        def prog(rank):
            comm = world.localize(rank)
            got = yield from fn(comm, rank)
            results[rank] = got

        for r in range(size):
            env.process(prog(r))
        env.run()
        return results

    def test_tree_bcast_delivers_everywhere(self, env, size):
        root = size // 2

        def fn(comm, rank):
            payload = np.full((3, 3), 7.0) if rank == root else None
            got = yield from bcast_tree(comm, root, payload, tag=1)
            return got

        results = self.run_collective(env, size, fn)
        assert all(np.all(results[r] == 7.0) for r in range(size))

    def test_ring_bcast_delivers_everywhere(self, env, size):
        root = 0

        def fn(comm, rank):
            payload = "token" if rank == root else None
            got, relay = yield from bcast_ring(comm, root, payload, tag=2)
            yield relay
            return got

        results = self.run_collective(env, size, fn)
        assert all(results[r] == "token" for r in range(size))

    def test_barrier_synchronizes(self, env, size):
        reach = {}

        def fn(comm, rank):
            yield env.timeout(rank * 1.0)  # stagger arrivals
            yield from barrier(comm)
            reach[rank] = env.now
            return None

        self.run_collective(env, size, fn)
        # Nobody leaves the barrier before the last arrival (t = size-1).
        assert all(t >= size - 1 for t in reach.values())

    def test_gather(self, env, size):
        root = size - 1

        def fn(comm, rank):
            out = yield from gather(comm, root, rank * 11)
            return out

        results = self.run_collective(env, size, fn)
        assert results[root] == [r * 11 for r in range(size)]
        for r in range(size):
            if r != root:
                assert results[r] is None


class TestRingProperties:
    def test_neighbor_receives_before_ring_completes(self, env):
        """The paper's §3.3 point: with the ring, root+1 has the panel
        long before the farthest member - enabling the look-ahead."""
        size = 8
        mpi, _ = make_world(env, n_ranks=size, n_nodes=size // 2, dim_scale=2000.0)
        world = mpi.world()
        arrival = {}

        def prog(rank):
            comm = world.localize(rank)
            payload = np.ones((8, 8)) if rank == 0 else None
            got, relay = yield from bcast_ring(comm, 0, payload, tag=1)
            arrival[rank] = env.now
            yield relay

        for r in range(size):
            env.process(prog(r))
        env.run()
        assert arrival[1] < arrival[size - 1]
        # Arrival times increase along the ring.
        times = [arrival[r] for r in range(1, size)]
        assert times == sorted(times)

    def test_tree_shallower_than_ring_for_latency(self, env):
        """With tiny messages the tree (log depth) beats the ring
        (linear depth) - why DiagBcast stays on the tree."""

        def run(kind):
            e = Environment()
            mpi, _ = make_world(e, n_ranks=16, n_nodes=8)
            world = mpi.world()

            def prog(rank):
                comm = world.localize(rank)
                payload = b"x" if rank == 0 else None
                if kind == "tree":
                    yield from bcast_tree(comm, 0, payload, tag=1, nbytes=8)
                else:
                    _, relay = yield from bcast_ring(comm, 0, payload, tag=1, nbytes=8)
                    yield relay

            for r in range(16):
                e.process(prog(r))
            e.run()
            return e.now

        assert run("tree") < run("ring")

    def test_ring_minimizes_pernode_nic_occupancy(self, env):
        """§3.3's bandwidth argument: in the ring every process sends
        and receives exactly one message, so the busiest NIC carries
        one message's worth; the binomial tree's root sends log2(P)
        messages through a single NIC.  (The *makespan* of a single
        unsegmented broadcast favors the tree; the ring pays off
        because panel broadcasts overlap compute and each other.)"""

        def run(kind):
            e = Environment()
            # One rank per node so every hop crosses a NIC.
            mpi, cluster = make_world(e, n_ranks=8, n_nodes=8, dim_scale=1.0)
            world = mpi.world()
            big = np.ones((2000, 2000))  # 16 MB

            def prog(rank):
                comm = world.localize(rank)
                payload = big if rank == 0 else None
                if kind == "tree":
                    yield from bcast_tree(comm, 0, payload, tag=1)
                else:
                    _, relay = yield from bcast_ring(comm, 0, payload, tag=1)
                    yield relay

            for r in range(8):
                e.process(prog(r))
            e.run()
            return cluster.max_nic_bytes(), e.now

        ring_max, _ = run("ring")
        tree_max, _ = run("tree")
        # Tree root forwards to 3 children (log2 8); ring nodes relay once.
        assert tree_max == pytest.approx(3 * ring_max)


class TestReservedTags:
    """Collective control traffic lives on negative reserved tags, so a
    user tag can never collide with (or spoof) it."""

    def test_reserved_tag_constants(self):
        from repro.mpi.collectives import BARRIER_TAG, GATHER_TAG

        assert BARRIER_TAG == -7
        assert GATHER_TAG == -9
        assert BARRIER_TAG != GATHER_TAG

    @pytest.mark.parametrize("bad_tag", [-1, -7, -9])
    def test_bcast_rejects_negative_user_tag(self, env, bad_tag):
        mpi, _ = make_world(env)
        world = mpi.world()

        def prog():
            yield from bcast_tree(world.localize(0), 0, "x", tag=bad_tag)

        env.process(prog())
        with pytest.raises(ConfigurationError, match="non-negative"):
            env.run()

    def test_ring_rejects_negative_user_tag(self, env):
        mpi, _ = make_world(env)
        world = mpi.world()

        def prog():
            yield from bcast_ring(world.localize(0), 0, "x", tag=-3)

        env.process(prog())
        with pytest.raises(ConfigurationError):
            env.run()

    def test_barrier_and_gather_use_reserved_tags(self, env):
        """Collectives work even while user traffic occupies tag 0 -
        the reserved tags keep them in separate mailboxes."""
        from repro.mpi.collectives import BARRIER_TAG, GATHER_TAG

        mpi, _ = make_world(env, n_ranks=2, n_nodes=1)
        world = mpi.world()
        out = {}

        def rank0():
            comm = world.localize(0)
            yield from comm.send(1, "user payload", tag=0)
            yield from barrier(comm)
            out["gathered"] = yield from gather(comm, 0, "from-0")

        def rank1():
            comm = world.localize(1)
            yield from barrier(comm)
            yield from gather(comm, 0, "from-1")  # non-root contributes
            out["user"] = yield from comm.recv(src=0, tag=0)

        env.process(rank0())
        env.process(rank1())
        env.run()
        assert out["user"] == "user payload"
        assert out["gathered"] == ["from-0", "from-1"]
        assert BARRIER_TAG < 0 and GATHER_TAG < 0
