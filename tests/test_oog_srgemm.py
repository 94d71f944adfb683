"""Tests for the out-of-GPU SrGemm pipeline (paper §4.3-4.5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import oog_srgemm_plan, run_oog_pipeline
from repro.core.oog_srgemm import TileTask
from repro.machine import SUMMIT, CostModel, SimCluster
from repro.perfmodel import oog_pipeline_cost, oog_stage_costs
from repro.semiring import INF, get_backend
from repro.sim import Environment, Tracer


def setup(dim_scale=1.0, trace=False):
    env = Environment()
    tr = Tracer() if trace else None
    cost = CostModel(SUMMIT, dim_scale=dim_scale)
    cluster = SimCluster(env, SUMMIT, 1, cost, tr)
    return env, cluster.nodes[0].gpus[0], cluster.nodes[0].host, tr


def run_plan(a, b, c, mx, nx, streams, dim_scale=1.0, trace=False):
    env, gpu, host, tr = setup(dim_scale, trace)
    tiles = oog_srgemm_plan(a, b, c, mx, nx)
    stats = env.run(env.process(run_oog_pipeline(env, gpu, host, tiles, streams)))
    return stats, tr


class TestNumericalCorrectness:
    @pytest.mark.parametrize("mx,nx", [(4, 4), (3, 5), (16, 16), (5, 16)])
    @pytest.mark.parametrize("streams", [1, 2, 3])
    def test_matches_direct_srgemm(self, rng, mx, nx, streams):
        m = n = 16
        k = 6
        a = rng.uniform(0, 10, (m, k))
        b = rng.uniform(0, 10, (k, n))
        c = rng.uniform(0, 10, (m, n))
        expected = np.minimum(c, get_backend().srgemm(a, b))
        got = c.copy()
        run_plan(a, b, got, mx, nx, streams)
        assert np.allclose(got, expected)

    def test_uneven_tiles(self, rng):
        a = rng.uniform(0, 10, (17, 3))
        b = rng.uniform(0, 10, (3, 13))
        c = np.full((17, 13), INF)
        expected = get_backend().srgemm(a, b)
        run_plan(a, b, c, 5, 4, 3)
        assert np.allclose(c, expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            oog_srgemm_plan(np.zeros((4, 2)), np.zeros((3, 4)), np.zeros((4, 4)), 2, 2)

    def test_empty_tile_list(self):
        env, gpu, host, _ = setup()
        stats = env.run(env.process(run_oog_pipeline(env, gpu, host, [], 3)))
        assert stats.tiles == 0 and stats.elapsed == 0

    def test_stream_count_validated(self):
        env, gpu, host, _ = setup()
        with pytest.raises(ValueError):
            env.run(env.process(run_oog_pipeline(env, gpu, host, [], 0)))


class TestPipelineTiming:
    def make_tiles(self, count, m=4, n=4, k=4):
        return [TileTask(m=m, n=n, k=k, label=f"t{i}") for i in range(count)]

    def test_one_stream_is_sum_of_stages(self):
        """§4.5: single stream -> t0 + t1 + t2 per tile."""
        env, gpu, host, _ = setup(dim_scale=1024.0)
        tiles = self.make_tiles(4)
        env.run(env.process(run_oog_pipeline(env, gpu, host, tiles, 1)))
        cost = gpu.cost
        per_tile = (
            cost.srgemm_time(4, 4, 4) + cost.d2h_time(4, 4) + cost.host_update_time(4, 4)
        )
        assert env.now == pytest.approx(4 * per_tile, rel=1e-6)

    def test_three_streams_hit_max_stage_bound(self):
        """§4.5: with >= 3 streams the steady-state cost per tile is
        max(t0, t1, t2)."""
        env, gpu, host, _ = setup(dim_scale=1024.0)
        n_tiles = 32
        tiles = self.make_tiles(n_tiles)
        env.run(env.process(run_oog_pipeline(env, gpu, host, tiles, 3)))
        cost = gpu.cost
        bottleneck = max(
            cost.srgemm_time(4, 4, 4), cost.d2h_time(4, 4), cost.host_update_time(4, 4)
        )
        # Steady state + pipeline fill; allow the fill margin.
        assert env.now >= n_tiles * bottleneck * 0.99
        assert env.now <= n_tiles * bottleneck + 3 * (
            cost.srgemm_time(4, 4, 4) + cost.d2h_time(4, 4) + cost.host_update_time(4, 4)
        )

    def test_more_streams_never_slower(self):
        times = {}
        for s in (1, 2, 3):
            env, gpu, host, _ = setup(dim_scale=1024.0)
            tiles = self.make_tiles(16)
            env.run(env.process(run_oog_pipeline(env, gpu, host, tiles, s)))
            times[s] = env.now
        assert times[2] <= times[1]
        assert times[3] <= times[2] * 1.001

    def test_matches_analytic_pipeline_model(self, rng):
        """Simulated end-to-end time tracks the §4.5 formulas for a
        full C ← C ⊕ A ⊗ B (panel h2d included in t1)."""
        scale = 1024.0
        m_phys, k_phys, mx_phys = 32, 2, 8
        cost = CostModel(SUMMIT, dim_scale=scale)
        stages = oog_stage_costs(
            cost, m_phys * scale, m_phys * scale, k_phys * scale
        )
        a = rng.uniform(0, 1, (m_phys, k_phys))
        b = rng.uniform(0, 1, (k_phys, m_phys))
        for s in (1, 3):
            env, gpu, host, _ = setup(dim_scale=scale)
            c = np.full((m_phys, m_phys), INF)
            tiles = oog_srgemm_plan(a, b, c, mx_phys, mx_phys)
            env.run(env.process(run_oog_pipeline(env, gpu, host, tiles, s)))
            predicted = oog_pipeline_cost(stages, s)
            # Launch overheads and pipeline fill/drain make the sim a
            # bit slower than the ideal model; never below 0.9x.
            assert 0.9 * predicted <= env.now <= 1.5 * predicted

    def test_overlap_visible_in_trace(self):
        """With 3 streams, SrGemm of tile t+1 overlaps d2hXfer of tile
        t (the paper's Figure 2)."""
        env, gpu, host, tr = setup(dim_scale=2048.0, trace=True)
        tiles = self.make_tiles(12)
        env.run(env.process(run_oog_pipeline(env, gpu, host, tiles, 3)))
        assert tr.overlap_time("SrGemm", "d2hXfer") > 0
        assert tr.overlap_time("SrGemm", "hostUpdate") > 0

    def test_no_overlap_with_one_stream(self):
        env, gpu, host, tr = setup(dim_scale=2048.0, trace=True)
        tiles = self.make_tiles(8)
        env.run(env.process(run_oog_pipeline(env, gpu, host, tiles, 1)))
        assert tr.overlap_time("SrGemm", "d2hXfer") == pytest.approx(0.0, abs=1e-12)

    def test_h2d_deduplicated(self, rng):
        """Each panel chunk crosses NVLink exactly once (§4.4)."""
        a = rng.uniform(0, 1, (8, 2))
        b = rng.uniform(0, 1, (2, 8))
        c = np.full((8, 8), INF)
        env, gpu, host, tr = setup(trace=True)
        tiles = oog_srgemm_plan(a, b, c, 4, 4)
        stats = env.run(env.process(run_oog_pipeline(env, gpu, host, tiles, 3)))
        # 2 A-chunks + 2 B-chunks = 4 h2d transfers for 4 tiles.
        h2d_spans = tr.spans_by_category("h2dXfer")
        assert len(h2d_spans) == 4
        assert stats.h2d_bytes_virtual == pytest.approx((8 * 2 + 2 * 8) * 4)

    def test_stats_accounting(self, rng):
        a = rng.uniform(0, 1, (6, 3))
        b = rng.uniform(0, 1, (3, 6))
        c = np.full((6, 6), INF)
        stats, _ = run_plan(a, b, c, 3, 3, 2)
        assert stats.tiles == 4
        assert stats.flops_virtual == pytest.approx(2 * 6 * 6 * 3)
        assert stats.d2h_bytes_virtual == pytest.approx(6 * 6 * 4)
        assert stats.elapsed > 0
        assert stats.flop_rate() > 0
