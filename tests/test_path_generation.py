"""Tests for distributed shortest-path generation (track_paths): the
path-aware kernels, the sequential blocked oracle, and the full
distributed flow across variants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.core import blocked_fw_paths
from repro.errors import ConfigurationError
from repro.extensions import (
    floyd_warshall_with_paths,
    path_length,
    reconstruct_path,
)
from repro.graphs import erdos_renyi, grid_road_network, scipy_floyd_warshall
from repro.semiring import (
    INF,
    MAX_MIN,
    NO_HOP,
    fw_inplace_paths,
    init_next_hops,
    srgemm_accumulate_paths,
)


def assert_paths_valid(weights, dist, nxt, sample=None):
    """Every finite pair's traced path exists and has length dist."""
    n = weights.shape[0]
    pairs = sample or [(i, j) for i in range(n) for j in range(n)]
    for i, j in pairs:
        if i == j:
            continue
        if np.isfinite(dist[i, j]):
            p = reconstruct_path(nxt, i, j)
            assert p is not None and p[0] == i and p[-1] == j
            assert path_length(weights, p) == pytest.approx(dist[i, j])
        else:
            assert nxt[i, j] == NO_HOP


class TestPathKernels:
    def test_init_next_hops(self):
        w = np.array([[0.0, 2.0, INF], [INF, 0.0, 1.0], [3.0, INF, 0.0]])
        nxt = init_next_hops(w, col_offset=10)
        assert nxt[0, 1] == 11
        assert nxt[1, 2] == 12
        assert nxt[0, 2] == NO_HOP
        assert nxt.dtype == np.int64

    def test_srgemm_paths_matches_plain_minplus(self, rng):
        from repro.semiring import srgemm_accumulate

        a = rng.uniform(0, 10, (5, 7))
        b = rng.uniform(0, 10, (7, 6))
        c = rng.uniform(0, 10, (5, 6))
        a_nxt = rng.integers(0, 100, (5, 7)).astype(np.int64)
        c2, c_nxt = c.copy(), np.full((5, 6), NO_HOP, dtype=np.int64)
        srgemm_accumulate_paths(c2, c_nxt, a, a_nxt, b)
        expected = srgemm_accumulate(c.copy(), a, b)
        assert np.allclose(c2, expected)

    def test_pointer_follows_argmin(self):
        a = np.array([[1.0, 10.0]])
        a_nxt = np.array([[7, 8]], dtype=np.int64)
        b = np.array([[5.0], [1.0]])
        c = np.array([[100.0]])
        c_nxt = np.array([[NO_HOP]], dtype=np.int64)
        srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b)
        assert c[0, 0] == 6.0  # via t=0
        assert c_nxt[0, 0] == 7

    def test_no_update_keeps_existing_pointer(self):
        a = np.array([[5.0]])
        a_nxt = np.array([[9]], dtype=np.int64)
        b = np.array([[5.0]])
        c = np.array([[3.0]])  # already better
        c_nxt = np.array([[4]], dtype=np.int64)
        srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b)
        assert c[0, 0] == 3.0 and c_nxt[0, 0] == 4

    def test_chunking_invariant(self, rng):
        a = rng.uniform(0, 10, (4, 9))
        a_nxt = rng.integers(0, 50, (4, 9)).astype(np.int64)
        b = rng.uniform(0, 10, (9, 4))
        outs = []
        for chunk in (1, 3, 9, 64):
            c = np.full((4, 4), INF)
            c_nxt = np.full((4, 4), NO_HOP, dtype=np.int64)
            srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b, k_chunk=chunk)
            outs.append((c, c_nxt))
        for c, c_nxt in outs[1:]:
            assert np.allclose(c, outs[0][0])
            assert np.array_equal(c_nxt, outs[0][1])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            srgemm_accumulate_paths(
                np.zeros((2, 2)),
                np.zeros((2, 3), dtype=np.int64),
                np.zeros((2, 2)),
                np.zeros((2, 2), dtype=np.int64),
                np.zeros((2, 2)),
            )

    def test_fw_inplace_paths_matches_reference(self, sparse30):
        dist = sparse30.copy()
        nxt = init_next_hops(dist)
        np.fill_diagonal(nxt, NO_HOP)
        fw_inplace_paths(dist, nxt)
        ref_dist, _ = floyd_warshall_with_paths(sparse30)
        assert np.allclose(
            np.where(np.isinf(dist), -1, dist), np.where(np.isinf(ref_dist), -1, ref_dist)
        )
        assert_paths_valid(sparse30, dist, nxt,
                           sample=[(i, j) for i in range(0, 30, 5) for j in range(30)])


class TestBlockedFwPaths:
    @pytest.mark.parametrize("b", [3, 5, 10, 30])
    def test_distances_match_scipy(self, sparse30, b):
        dist, _ = blocked_fw_paths(sparse30, b)
        ref = scipy_floyd_warshall(sparse30)
        assert np.allclose(np.where(np.isinf(dist), -1, dist),
                           np.where(np.isinf(ref), -1, ref))

    @pytest.mark.parametrize("b", [4, 7])
    def test_paths_valid(self, sparse30, b):
        dist, nxt = blocked_fw_paths(sparse30, b)
        assert_paths_valid(sparse30, dist, nxt)

    def test_padding_path(self):
        w = erdos_renyi(23, 0.3, seed=6)
        dist, nxt = blocked_fw_paths(w, 5)
        assert dist.shape == (23, 23) and nxt.shape == (23, 23)
        assert_paths_valid(w, dist, nxt)

    @given(st.integers(3, 14), st.integers(1, 5), st.integers(0, 10**5))
    @settings(max_examples=20, deadline=None)
    def test_property_paths_always_valid(self, n, b, seed):
        w = erdos_renyi(n, 0.5, seed=seed)
        dist, nxt = blocked_fw_paths(w, min(b, n))
        assert_paths_valid(w, dist, nxt)


class TestDistributedPathGeneration:
    @pytest.mark.parametrize("variant", ["baseline", "pipelined", "reordering", "async"])
    def test_paths_across_variants(self, variant, sparse30):
        res = solve(sparse30, variant=variant, block_size=5, n_nodes=2,
                    ranks_per_node=3, track_paths=True)
        assert res.next_hops is not None
        assert_paths_valid(sparse30, res.dist, res.next_hops,
                           sample=[(i, j) for i in range(0, 30, 3) for j in range(30)])

    def test_matches_sequential_blocked_paths(self, sparse30):
        res = solve(sparse30, variant="async", block_size=5, n_nodes=2,
                    ranks_per_node=2, track_paths=True)
        seq_dist, _ = blocked_fw_paths(sparse30, 5)
        assert np.allclose(np.where(np.isinf(res.dist), -1, res.dist),
                           np.where(np.isinf(seq_dist), -1, seq_dist))

    def test_road_network_paths(self):
        w = grid_road_network(5, 5, seed=1)
        res = solve(w, variant="pipelined", block_size=5, n_nodes=2,
                    ranks_per_node=2, track_paths=True)
        assert_paths_valid(w, res.dist, res.next_hops)

    def test_ring_segments_with_paths(self, sparse30):
        res = solve(sparse30, variant="async", block_size=5, n_nodes=2,
                    ranks_per_node=2, track_paths=True, ring_segments=3)
        assert_paths_valid(sparse30, res.dist, res.next_hops,
                           sample=[(0, j) for j in range(30)])

    def test_pointer_blocks_increase_comm(self, sparse30):
        plain = solve(sparse30, variant="baseline", block_size=5, n_nodes=2,
                      ranks_per_node=2, dim_scale=100.0)
        tracked = solve(sparse30, variant="baseline", block_size=5, n_nodes=2,
                        ranks_per_node=2, dim_scale=100.0, track_paths=True)
        # Column panels + diagonal carry pointer blocks: more bytes.
        total_plain = plain.report.internode_bytes + plain.report.intranode_bytes
        total_tracked = tracked.report.internode_bytes + tracked.report.intranode_bytes
        assert total_tracked > 1.2 * total_plain

    def test_offload_rejects_tracking(self, sparse30):
        with pytest.raises(ConfigurationError):
            solve(sparse30, variant="offload", block_size=5, n_nodes=1,
                  ranks_per_node=2, track_paths=True)

    def test_non_minplus_rejected(self, sparse30):
        with pytest.raises(ConfigurationError):
            solve(np.isfinite(sparse30), variant="baseline", block_size=5,
                  n_nodes=1, ranks_per_node=2, semiring=MAX_MIN,
                  track_paths=True, check_negative_cycles=False)

    def test_hollow_rejected(self, sparse30):
        with pytest.raises(ConfigurationError):
            solve(sparse30, variant="baseline", block_size=5, n_nodes=1,
                  ranks_per_node=2, track_paths=True, compute_numerics=False,
                  collect=False)

    def test_no_tracking_returns_none(self, sparse30):
        res = solve(sparse30, variant="baseline", block_size=5, n_nodes=1,
                    ranks_per_node=2)
        assert res.next_hops is None

    def test_hbm_footprint_larger_when_tracking(self, sparse30):
        plain = solve(sparse30, variant="baseline", block_size=5, n_nodes=2,
                      ranks_per_node=2, dim_scale=100.0)
        tracked = solve(sparse30, variant="baseline", block_size=5, n_nodes=2,
                        ranks_per_node=2, dim_scale=100.0, track_paths=True)
        assert tracked.report.gpu_peak_bytes > 2 * plain.report.gpu_peak_bytes
