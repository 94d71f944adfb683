"""Integration tests: every distributed variant against the sequential
oracle (the paper's §5.1 correctness statement), across grid shapes,
graph classes, and block sizes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.core import ProcessGrid
from repro.errors import ConfigurationError, GpuOutOfMemory
from repro.graphs import (
    banded_graph,
    grid_road_network,
    floyd_warshall,
    ring_of_cliques,
    uniform_random_dense,
)
from repro.machine import SUMMIT, scaled_down
from repro.semiring import INF, MAX_MIN, OR_AND

ALL_VARIANTS = ["baseline", "pipelined", "reordering", "async", "offload"]


def check(w, ref=None, **kw):
    result = solve(w, **kw)
    ref = floyd_warshall(w) if ref is None else ref
    mask = np.isfinite(ref)
    assert np.allclose(result.dist[mask], ref[mask])
    assert np.array_equal(np.isinf(result.dist), np.isinf(ref))
    return result


@pytest.mark.parametrize("variant", ALL_VARIANTS)
class TestVariantsAgainstOracle:
    def test_dense_basic(self, variant, dense24):
        check(dense24, variant=variant, block_size=4, n_nodes=2, ranks_per_node=3)

    def test_sparse_with_unreachable(self, variant, sparse30):
        check(sparse30, variant=variant, block_size=5, n_nodes=2, ranks_per_node=2)

    def test_single_rank(self, variant, dense24):
        check(dense24, variant=variant, block_size=6, n_nodes=1, ranks_per_node=1)

    def test_single_node_many_ranks(self, variant, dense24):
        check(dense24, variant=variant, block_size=4, n_nodes=1, ranks_per_node=6)

    def test_nonsquare_grid(self, variant, dense24):
        check(
            dense24,
            variant=variant,
            block_size=4,
            n_nodes=2,
            ranks_per_node=3,
            grid=(2, 3),
        )

    def test_tall_grid(self, variant, dense24):
        check(
            dense24,
            variant=variant,
            block_size=4,
            n_nodes=2,
            ranks_per_node=3,
            grid=(3, 2),
        )

    def test_block_size_one(self, variant):
        w = uniform_random_dense(12, seed=9)
        check(w, variant=variant, block_size=1, n_nodes=2, ranks_per_node=2)

    def test_padding_path(self, variant):
        """n not divisible by b: driver pads and crops transparently."""
        w = uniform_random_dense(23, seed=5)
        check(w, variant=variant, block_size=4, n_nodes=2, ranks_per_node=2)

    def test_nb_smaller_than_grid(self, variant):
        """Fewer block rows than process rows: some ranks own nothing
        in some iterations."""
        w = uniform_random_dense(12, seed=13)
        check(w, variant=variant, block_size=4, n_nodes=2, ranks_per_node=4)

    def test_banded_graph_long_chains(self, variant):
        w = banded_graph(32, 2, seed=21)
        check(w, variant=variant, block_size=4, n_nodes=2, ranks_per_node=2)

    def test_road_network(self, variant):
        w = grid_road_network(5, 6, seed=2)
        check(w, variant=variant, block_size=5, n_nodes=2, ranks_per_node=2)

    def test_community_structure(self, variant):
        w = ring_of_cliques(5, 6)
        check(w, variant=variant, block_size=6, n_nodes=3, ranks_per_node=2)

    def test_disconnected_components(self, variant):
        w = np.full((16, 16), INF)
        np.fill_diagonal(w, 0.0)
        w[:8, :8] = uniform_random_dense(8, seed=3)
        w[8:, 8:] = uniform_random_dense(8, seed=4)
        check(w, variant=variant, block_size=4, n_nodes=2, ranks_per_node=2)

    def test_validate_flag(self, variant, dense24):
        res = solve(
            dense24,
            variant=variant,
            block_size=4,
            n_nodes=2,
            ranks_per_node=2,
            validate=True,
        )
        assert res.dist is not None

    def test_virtual_scaling_does_not_change_result(self, variant, dense24):
        a = solve(dense24, variant=variant, block_size=4, n_nodes=2, ranks_per_node=2)
        b = solve(
            dense24,
            variant=variant,
            block_size=4,
            n_nodes=2,
            ranks_per_node=2,
            dim_scale=32.0,
        )
        assert np.allclose(a.dist, b.dist)
        assert b.report.n_virtual == pytest.approx(24 * 32)


class TestVariantSemantics:
    def test_variants_agree_with_each_other(self, sparse30):
        results = [
            solve(sparse30, variant=v, block_size=5, n_nodes=2, ranks_per_node=2).dist
            for v in ALL_VARIANTS
        ]
        for other in results[1:]:
            assert np.allclose(
                np.where(np.isinf(results[0]), -1, results[0]),
                np.where(np.isinf(other), -1, other),
            )

    def test_boolean_semiring_distributed(self):
        adj = np.zeros((12, 12), dtype=bool)
        rng = np.random.default_rng(0)
        adj[rng.random((12, 12)) < 0.2] = True
        np.fill_diagonal(adj, True)
        res = solve(
            adj,
            variant="async",
            block_size=4,
            n_nodes=2,
            ranks_per_node=2,
            semiring=OR_AND,
            check_negative_cycles=False,
        )
        from repro.core import blocked_fw

        ref = blocked_fw(adj, 4, semiring=OR_AND, check_negative_cycles=False)
        assert np.array_equal(res.dist, ref)

    def test_bottleneck_semiring_distributed(self):
        rng = np.random.default_rng(1)
        cap = rng.uniform(1, 100, (12, 12))
        np.fill_diagonal(cap, INF)
        res = solve(
            cap,
            variant="pipelined",
            block_size=3,
            n_nodes=2,
            ranks_per_node=2,
            semiring=MAX_MIN,
            check_negative_cycles=False,
        )
        from repro.core import blocked_fw

        ref = blocked_fw(cap, 3, semiring=MAX_MIN, check_negative_cycles=False)
        assert np.allclose(res.dist, ref)

    def test_diag_on_host(self, dense24):
        res = check(
            dense24,
            variant="baseline",
            block_size=4,
            n_nodes=2,
            ranks_per_node=2,
            diag_on_gpu=False,
        )
        assert res.dist is not None

    def test_offload_stream_counts(self, dense24):
        for s in (1, 2, 4):
            check(
                dense24,
                variant="offload",
                block_size=4,
                n_nodes=2,
                ranks_per_node=2,
                n_streams=s,
            )

    def test_offload_tile_shapes(self, dense24):
        for mx, nx in ((1, 1), (1, 3), (3, 1), (4, 4)):
            check(
                dense24,
                variant="offload",
                block_size=4,
                n_nodes=2,
                ranks_per_node=2,
                mx_blocks=mx,
                nx_blocks=nx,
            )


class TestMemoryWall:
    def test_in_gpu_variant_hits_wall(self):
        """Figure 7's 'Beyond GPU Memory' boundary: the non-offload
        variants raise once the per-rank matrix exceeds HBM."""
        tiny = scaled_down(SUMMIT, hbm_bytes=2 * 1024, gpus_per_node=2)
        w = uniform_random_dense(32, seed=0)
        with pytest.raises(GpuOutOfMemory):
            solve(w, variant="async", block_size=8, n_nodes=1, ranks_per_node=2,
                  machine=tiny)

    def test_offload_crosses_wall(self):
        """The offload variant solves the same problem on the same
        tiny-HBM machine (matrix lives in host DRAM)."""
        tiny = scaled_down(SUMMIT, hbm_bytes=2 * 1024, gpus_per_node=2)
        w = uniform_random_dense(32, seed=0)
        res = solve(w, variant="offload", block_size=8, n_nodes=1, ranks_per_node=2,
                    machine=tiny, mx_blocks=1, nx_blocks=1, n_streams=1)
        assert np.allclose(res.dist, floyd_warshall(w))

    def test_gpu_peak_reported(self, dense24):
        res = solve(dense24, variant="baseline", block_size=4, n_nodes=2,
                    ranks_per_node=2)
        assert res.report.gpu_peak_bytes > 0

    def test_offload_uses_less_hbm(self, dense24):
        a = solve(dense24, variant="baseline", block_size=4, n_nodes=2,
                  ranks_per_node=2, dim_scale=1000.0, collect=False)
        b = solve(dense24, variant="offload", block_size=4, n_nodes=2,
                  ranks_per_node=2, dim_scale=1000.0, collect=False,
                  mx_blocks=1, nx_blocks=1)
        assert b.report.gpu_peak_bytes < a.report.gpu_peak_bytes


class TestDriverValidation:
    def test_nonsquare_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            solve(np.zeros((3, 4)))

    def test_grid_size_mismatch(self, dense24):
        with pytest.raises(ConfigurationError):
            solve(dense24, n_nodes=2, ranks_per_node=2, grid=(3, 3))

    def test_unknown_variant(self, dense24):
        with pytest.raises(ConfigurationError):
            solve(dense24, variant="warp-drive")

    def test_hollow_mode_guards(self, dense24):
        with pytest.raises(ConfigurationError):
            solve(dense24, compute_numerics=False)  # collect defaults True

    def test_hollow_mode_runs(self, dense24):
        res = solve(
            dense24,
            variant="async",
            block_size=4,
            n_nodes=2,
            ranks_per_node=2,
            compute_numerics=False,
            collect=False,
        )
        assert res.dist is None
        assert res.report.elapsed > 0

    def test_hollow_matches_full_timing(self, dense24):
        """Hollow mode must not change the simulated schedule."""
        kw = dict(variant="async", block_size=4, n_nodes=2, ranks_per_node=2,
                  dim_scale=512.0)
        full = solve(dense24, collect=False, **kw)
        hollow = solve(dense24, compute_numerics=False, collect=False, **kw)
        assert hollow.report.elapsed == pytest.approx(full.report.elapsed)

    def test_default_block_size(self, dense24):
        res = solve(dense24, n_nodes=1, ranks_per_node=2)
        assert res.report.block_size >= 1

    def test_placement_node_mismatch(self, dense24):
        from repro.core import tiled_placement

        pl = tiled_placement(ProcessGrid(2, 2), 1, 2)  # 2 nodes
        with pytest.raises(ConfigurationError):
            solve(dense24, n_nodes=4, ranks_per_node=1, grid=(2, 2),
                  placement=pl)

    def test_report_fields(self, dense24):
        res = solve(dense24, variant="async", block_size=4, n_nodes=2,
                    ranks_per_node=2, trace=True)
        r = res.report
        assert r.variant == "async"
        assert r.n_physical == 24
        assert r.n_nodes == 2
        assert r.ranks == 4
        assert r.messages > 0
        assert r.flops == pytest.approx(2 * 24.0**3)
        assert r.flop_rate > 0
        assert r.effective_bandwidth() > 0
        assert "async" in r.summary()
        assert res.tracer is not None and res.tracer.spans
