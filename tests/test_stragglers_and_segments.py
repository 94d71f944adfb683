"""Tests for straggler injection (§3.3's motivation) and the
segmented-ring-broadcast extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.errors import ConfigurationError
from repro.graphs import floyd_warshall, uniform_random_dense
from repro.machine import SUMMIT, CostModel, SimCluster
from repro.mpi import SimMPI, bcast_ring_segmented
from repro.sim import Environment


def hollow(variant, nb=32, nodes=16, rpn=8, **kw):
    w = np.zeros((nb, nb), dtype=np.float32)
    return solve(
        w,
        variant=variant,
        block_size=1,
        n_nodes=nodes,
        ranks_per_node=rpn,
        dim_scale=768.0,
        compute_numerics=False,
        collect=False,
        **kw,
    ).report


class TestStragglerInjection:
    def test_transfer_slowdown_applied(self, env, cost):
        cluster = SimCluster(env, SUMMIT, 2, cost)
        cluster.set_stragglers({0: 3.0})

        def prog():
            yield from cluster.transfer(0, 1, 25e9)

        env.process(prog())
        env.run()
        assert env.now == pytest.approx(3.0 + cost.internode_latency, rel=1e-6)

    def test_only_marked_node_is_slow(self, env, cost):
        cluster = SimCluster(env, SUMMIT, 2, cost)
        cluster.set_stragglers({0: 3.0})

        def prog():
            yield from cluster.transfer(1, 0, 25e9)

        env.process(prog())
        env.run()
        assert env.now == pytest.approx(1.0 + cost.internode_latency, rel=1e-6)

    def test_invalid_factor_rejected(self, env, cost):
        cluster = SimCluster(env, SUMMIT, 2, cost)
        with pytest.raises(ConfigurationError):
            cluster.set_stragglers({0: 0.0})

    def test_all_variants_degrade_under_straggler(self):
        for v in ("baseline", "pipelined", "async"):
            clean = hollow(v).elapsed
            slow = hollow(v, stragglers={5: 4.0}).elapsed
            assert slow > clean, v

    def test_async_still_fastest_under_straggler(self):
        """The paper's §3.3 concern: with the synchronizing library
        broadcast a straggler's impact propagates to all processes.
        Under a 4x-slow node, the async ring variant remains the
        fastest in absolute terms."""
        times = {v: hollow(v, stragglers={5: 4.0}).elapsed
                 for v in ("baseline", "pipelined", "async")}
        assert times["async"] < times["pipelined"]
        assert times["async"] < times["baseline"]

    def test_straggler_does_not_change_results(self, dense24):
        a = solve(dense24, variant="async", block_size=4, n_nodes=2, ranks_per_node=2)
        b = solve(dense24, variant="async", block_size=4, n_nodes=2, ranks_per_node=2,
                  stragglers={1: 5.0})
        assert np.allclose(a.dist, b.dist)
        assert b.report.elapsed > a.report.elapsed


class TestSegmentedRing:
    def run_bcast(self, n_ranks, payload_fn, segments, n_nodes=None):
        env = Environment()
        cost = CostModel(SUMMIT)
        cluster = SimCluster(env, SUMMIT, n_nodes or n_ranks, cost)
        mpi = SimMPI(env, cluster, list(range(n_ranks)) if n_nodes is None
                     else [r % n_nodes for r in range(n_ranks)])
        world = mpi.world()
        results = {}

        def prog(rank):
            comm = world.localize(rank)
            payload = payload_fn() if rank == 0 else None
            got, relay = yield from bcast_ring_segmented(
                comm, 0, payload, tag=3, segments=segments
            )
            results[rank] = got
            yield relay

        for r in range(n_ranks):
            env.process(prog(r))
        env.run()
        return results, env.now

    @pytest.mark.parametrize("segments", [1, 2, 3, 4, 8])
    def test_array_payload_reassembled(self, segments):
        results, _ = self.run_bcast(5, lambda: np.arange(64.0).reshape(16, 4), segments)
        for r in range(5):
            assert results[r].shape == (16, 4)
            assert np.array_equal(results[r], np.arange(64.0).reshape(16, 4))

    @pytest.mark.parametrize("segments", [2, 4])
    def test_dict_payload_reassembled(self, segments):
        payload = {j: np.full((3, 3), float(j)) for j in range(7)}
        results, _ = self.run_bcast(4, lambda: dict(payload), segments)
        for r in range(4):
            assert set(results[r]) == set(payload)
            for j in payload:
                assert np.array_equal(results[r][j], payload[j])

    def test_unsplittable_payload(self):
        results, _ = self.run_bcast(3, lambda: "just-a-token", 4)
        assert all(results[r] == "just-a-token" for r in range(3))

    def test_more_segments_than_items(self):
        payload = {0: np.ones((2, 2))}
        results, _ = self.run_bcast(3, lambda: dict(payload), 8)
        for r in range(3):
            assert np.array_equal(results[r][0], payload[0])

    def test_single_member(self):
        results, _ = self.run_bcast(1, lambda: np.ones((4, 4)), 4)
        assert np.array_equal(results[0], np.ones((4, 4)))

    def test_segmentation_cuts_makespan(self):
        """The HPL pipelining effect: (P-1+S)/S scaling for a big
        message around a one-rank-per-node ring."""
        big = lambda: np.ones((1500, 1500))
        _, t1 = self.run_bcast(8, big, 1)
        _, t8 = self.run_bcast(8, big, 8)
        assert t8 < 0.45 * t1

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            self.run_bcast(3, lambda: np.ones(4), 0)

    def test_end_to_end_variant_with_segments(self):
        w = uniform_random_dense(24, seed=5)
        ref = floyd_warshall(w)
        for seg in (2, 4):
            res = solve(w, variant="async", block_size=4, n_nodes=2,
                        ranks_per_node=3, ring_segments=seg)
            assert np.allclose(res.dist, ref)

    def test_segments_config_validated(self, dense24):
        with pytest.raises(ConfigurationError):
            solve(dense24, variant="async", block_size=4, n_nodes=1,
                  ranks_per_node=2, ring_segments=0)

    def test_segments_help_comm_bound_run(self):
        """End to end, segmentation should not hurt (and typically
        helps the latency of each panel hop) in a comm-bound run."""
        t1 = hollow("async", ring_segments=1).elapsed
        t4 = hollow("async", ring_segments=4).elapsed
        assert t4 < t1 * 1.1
