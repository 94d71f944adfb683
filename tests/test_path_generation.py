"""Tests for distributed shortest-path generation (track_paths): the
kernel waist's hop operand, the one-rank solve (blocked Floyd-Warshall
with paths on one process), and the full distributed flow across
variants, each against the unblocked oracle."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SolveConfig, solve
from repro.errors import ConfigurationError, ValidationError
from repro.extensions import path_length, reconstruct_path
from repro.graphs import erdos_renyi, floyd_warshall, grid_road_network
from repro.obs import MetricsRegistry
from repro.obs.metered import MeteredBackend
from repro.semiring import (
    INF,
    MAX_MIN,
    NO_HOP,
    available_backends,
    get_backend,
    init_next_hops,
)
from repro.semiring.backends import TiledBackend
from repro.verify import ChecksummedBackend, VerifyRuntime


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


def one_rank(weights, b, **kw):
    """``(dist, next_hops)`` of the one-rank solve: blocked
    Floyd-Warshall with paths on one process."""
    res = solve(weights, block_size=b, n_nodes=1, ranks_per_node=1, track_paths=True, **kw)
    return res.dist, res.next_hops


def _wrapped(backend):
    """``backend`` bare and under each wrapper, by name."""
    return {
        "bare": backend,
        "metered": MeteredBackend(MetricsRegistry(), backend),
        "checksummed": ChecksummedBackend(VerifyRuntime("checksum", backend)),
    }


class TestPathKernels:
    def test_init_next_hops(self):
        w = np.array([[0.0, 2.0, INF], [INF, 0.0, 1.0], [3.0, INF, 0.0]])
        nxt = init_next_hops(w, col_offset=10)
        assert nxt[0, 1] == 11
        assert nxt[1, 2] == 12
        assert nxt[0, 2] == NO_HOP
        assert nxt.dtype == np.int64

    def test_srgemm_paths_matches_plain_minplus(self, rng):
        a = rng.uniform(0, 10, (5, 7))
        b = rng.uniform(0, 10, (7, 6))
        c = rng.uniform(0, 10, (5, 6))
        a_nxt = rng.integers(0, 100, (5, 7)).astype(np.int64)
        c2, c_nxt = c.copy(), np.full((5, 6), NO_HOP, dtype=np.int64)
        get_backend().srgemm_accumulate_paths(c2, c_nxt, a, a_nxt, b)
        expected = get_backend().srgemm_accumulate(c.copy(), a, b)
        assert np.allclose(c2, expected)

    def test_pointer_follows_argmin(self):
        a = np.array([[1.0, 10.0]])
        a_nxt = np.array([[7, 8]], dtype=np.int64)
        b = np.array([[5.0], [1.0]])
        c = np.array([[100.0]])
        c_nxt = np.array([[NO_HOP]], dtype=np.int64)
        get_backend().srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b)
        assert c[0, 0] == 6.0  # via t=0
        assert c_nxt[0, 0] == 7

    def test_no_update_keeps_existing_pointer(self):
        a = np.array([[5.0]])
        a_nxt = np.array([[9]], dtype=np.int64)
        b = np.array([[5.0]])
        c = np.array([[3.0]])  # already better
        c_nxt = np.array([[4]], dtype=np.int64)
        get_backend().srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b)
        assert c[0, 0] == 3.0 and c_nxt[0, 0] == 4

    def test_chunking_invariant(self, rng):
        a = rng.uniform(0, 10, (4, 9))
        a_nxt = rng.integers(0, 50, (4, 9)).astype(np.int64)
        b = rng.uniform(0, 10, (9, 4))
        outs = []
        for chunk in (1, 3, 9, 64):
            c = np.full((4, 4), INF)
            c_nxt = np.full((4, 4), NO_HOP, dtype=np.int64)
            get_backend().srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b, k_chunk=chunk)
            outs.append((c, c_nxt))
        for c, c_nxt in outs[1:]:
            assert np.allclose(c, outs[0][0])
            assert np.array_equal(c_nxt, outs[0][1])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            get_backend().srgemm_accumulate_paths(
                np.zeros((2, 2)),
                np.zeros((2, 3), dtype=np.int64),
                np.zeros((2, 2)),
                np.zeros((2, 2), dtype=np.int64),
                np.zeros((2, 2)),
            )

    def test_fw_closure_hops_matches_reference(self, sparse30):
        """The closure with next hops is the unblocked oracle on one
        block, on every backend and through both wrappers."""
        ref_dist, ref_nxt = floyd_warshall(sparse30, hops=True)
        for name, backend in available_backends().items():
            for wrapper, kernels in _wrapped(backend).items():
                dist = sparse30.copy()
                nxt = init_next_hops(dist)
                np.fill_diagonal(nxt, NO_HOP)
                assert kernels.fw_closure(dist, hops=nxt) is dist
                np.testing.assert_array_equal(dist, ref_dist, err_msg=f"{wrapper}({name})")
                np.testing.assert_array_equal(nxt, ref_nxt, err_msg=f"{wrapper}({name})")

    def test_grid_hops_is_the_per_tile_loop(self, rng):
        """``srgemm_grid(hops=...)`` is ``srgemm_accumulate_paths`` per
        tile, on every backend, bare and wrapped; a hop grid of the
        wrong shape or semiring is refused."""
        nr, nc, m, k, n = 2, 3, 4, 5, 6
        a_rows = [rng.uniform(0, 10, (m, k)) for _ in range(nr)]
        a_hops = [rng.integers(0, 50, (m, k)) for _ in range(nr)]
        b_cols = [rng.uniform(0, 10, (k, n)) for _ in range(nc)]
        c_tiles = [[rng.uniform(5, 15, (m, n)) for _ in range(nc)] for _ in range(nr)]
        c_hops = [[np.full((m, n), NO_HOP) for _ in range(nc)] for _ in range(nr)]
        ref = get_backend("tiled")
        want = [[c.copy() for c in row] for row in c_tiles]
        want_hops = [[h.copy() for h in row] for row in c_hops]
        for i in range(nr):
            for j in range(nc):
                ref.srgemm_accumulate_paths(want[i][j], want_hops[i][j], a_rows[i], a_hops[i], b_cols[j])
        for name, backend in available_backends().items():
            for wrapper, kernels in _wrapped(backend).items():
                got = [[c.copy() for c in row] for row in c_tiles]
                got_hops = [[h.copy() for h in row] for row in c_hops]
                kernels.srgemm_grid(got, a_rows, b_cols, hops=(got_hops, a_hops))
                for i in range(nr):
                    for j in range(nc):
                        msg = f"{wrapper}({name}) tile {i},{j}"
                        np.testing.assert_array_equal(got[i][j], want[i][j], err_msg=msg)
                        np.testing.assert_array_equal(got_hops[i][j], want_hops[i][j], err_msg=msg)
        with pytest.raises(ValueError):
            ref.srgemm_grid(c_tiles, a_rows, b_cols, hops=(c_hops[:1], a_hops))
        with pytest.raises(ValueError):
            ref.srgemm_grid(c_tiles, a_rows, b_cols, semiring=MAX_MIN, hops=(c_hops, a_hops))


class TestBlockedFwPaths:
    """The one-rank solve is blocked Floyd-Warshall with paths."""

    @pytest.mark.parametrize("b", [3, 5, 10, 30])
    def test_distances_match_scipy(self, sparse30, b):
        dist, _ = one_rank(sparse30, b)
        ref = csgraph.floyd_warshall(sparse30)
        assert np.allclose(np.where(np.isinf(dist), -1, dist),
                           np.where(np.isinf(ref), -1, ref))

    @pytest.mark.parametrize("b", [4, 7])
    def test_paths_valid(self, sparse30, b):
        dist, nxt = one_rank(sparse30, b)
        assert_paths_valid(sparse30, dist, nxt)

    def test_padding_path(self):
        w = erdos_renyi(23, 0.3, seed=6)
        dist, nxt = one_rank(w, 5)
        assert dist.shape == (23, 23) and nxt.shape == (23, 23)
        assert_paths_valid(w, dist, nxt)

    @given(st.integers(3, 14), st.integers(1, 5), st.integers(0, 10**5))
    @settings(max_examples=20, deadline=None)
    def test_property_paths_always_valid(self, n, b, seed):
        w = erdos_renyi(n, 0.5, seed=seed)
        dist, nxt = one_rank(w, min(b, n))
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
        seq_dist, seq_nxt = one_rank(sparse30, 5)
        np.testing.assert_array_equal(res.dist, seq_dist)
        np.testing.assert_array_equal(res.next_hops, seq_nxt)

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


class _DropsHops(TiledBackend):
    """Tiled numerics, except that every tracked product leaves its
    tile's first entry without a next hop (distances stay right)."""

    def srgemm_accumulate_paths(self, c, c_nxt, a, a_nxt, b, k_chunk=None):
        super().srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b, k_chunk=k_chunk)
        c_nxt[0, 0] = NO_HOP
        return c


class TestValidateNextHops:
    CONFIG = SolveConfig(variant="async", block_size=5, n_nodes=2, ranks_per_node=2,
                         track_paths=True, validate=True)

    def test_validate_passes_a_correct_run(self, sparse30):
        res = solve(sparse30, self.CONFIG)
        assert_paths_valid(sparse30, res.dist, res.next_hops)

    def test_validate_catches_a_wrong_hop(self, sparse30):
        # The distances are right, so only the hop check can object.
        plain = solve(sparse30, self.CONFIG.replace(kernel_backend=_DropsHops(), validate=False))
        np.testing.assert_array_equal(plain.dist, one_rank(sparse30, 5)[0])
        with pytest.raises(ValidationError, match="next hop"):
            solve(sparse30, self.CONFIG.replace(kernel_backend=_DropsHops()))
