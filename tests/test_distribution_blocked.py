"""Tests for block-cyclic distribution and the sequential blocked FW."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProcessGrid, blocked_fw, collect, distribute, pad_to_blocks
from repro.core.distribution import block_slice, local_matrix_elems
from repro.errors import ConfigurationError, NegativeCycleError
from repro.graphs import (
    banded_graph,
    erdos_renyi,
    floyd_warshall,
    ring_of_cliques,
    uniform_random_dense,
)
from repro.semiring import INF, MAX_MIN, OR_AND


class TestPadding:
    def test_no_padding_needed(self, dense24):
        padded, n = pad_to_blocks(dense24, 8)
        assert padded is dense24
        assert n == 24

    def test_padding_isolates_new_vertices(self):
        w = uniform_random_dense(10, seed=3)
        padded, n = pad_to_blocks(w, 4)
        assert padded.shape == (12, 12)
        assert n == 10
        assert np.all(np.isinf(padded[10:, :10]))
        assert np.all(np.isinf(padded[:10, 10:]))
        assert padded[10, 10] == 0.0 and padded[11, 11] == 0.0

    def test_padding_preserves_distances(self):
        w = uniform_random_dense(10, seed=3)
        padded, n = pad_to_blocks(w, 4)
        ref = floyd_warshall(w)
        full = floyd_warshall(padded)
        assert np.allclose(full[:n, :n], ref)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            pad_to_blocks(np.zeros((2, 3)), 2)
        with pytest.raises(ConfigurationError):
            pad_to_blocks(np.zeros((4, 4)), 0)


class TestDistributeCollect:
    def test_roundtrip(self, dense24):
        g = ProcessGrid(2, 3)
        parts = distribute(dense24, 4, g)
        assert np.allclose(collect(parts, 24, 4, g), dense24)

    def test_blocks_are_copies(self, dense24):
        g = ProcessGrid(2, 2)
        parts = distribute(dense24, 6, g)
        parts[0][(0, 0)][:] = -1
        assert dense24[0, 0] == 0.0

    def test_ownership_respected(self, dense24):
        g = ProcessGrid(2, 3)
        parts = distribute(dense24, 4, g)
        for rank, blocks in enumerate(parts):
            for (bi, bj) in blocks:
                assert g.owner(bi, bj) == rank

    def test_indivisible_rejected(self, dense24):
        with pytest.raises(ConfigurationError):
            distribute(dense24, 5, ProcessGrid(2, 2))

    def test_collect_crops_padding(self):
        w = uniform_random_dense(10, seed=1)
        padded, n = pad_to_blocks(w, 4)
        g = ProcessGrid(2, 2)
        parts = distribute(padded, 4, g)
        assert collect(parts, n, 4, g).shape == (10, 10)

    def test_collect_detects_misplaced_block(self, dense24):
        g = ProcessGrid(2, 2)
        # A rank's local matrix refuses item changes: edit plain copies.
        parts = [dict(p) for p in distribute(dense24, 6, g)]
        blk = parts[0].pop((0, 0))
        parts[1][(0, 0)] = blk  # wrong owner
        with pytest.raises(ConfigurationError):
            collect(parts, 24, 6, g)

    def test_collect_detects_missing_block(self, dense24):
        g = ProcessGrid(2, 2)
        parts = [dict(p) for p in distribute(dense24, 6, g)]
        parts[0].pop((0, 0))
        with pytest.raises(ConfigurationError):
            collect(parts, 24, 6, g)

    def test_collect_accepts_mapping(self, dense24):
        g = ProcessGrid(2, 2)
        parts = distribute(dense24, 6, g)
        as_map = {r: parts[r] for r in range(4)}
        assert np.allclose(collect(as_map, 24, 6, g), dense24)

    def test_block_slice(self):
        rs, cs = block_slice(4, 1, 2)
        assert (rs.start, rs.stop) == (4, 8)
        assert (cs.start, cs.stop) == (8, 12)

    def test_local_matrix_elems(self):
        g = ProcessGrid(2, 3)
        total = sum(local_matrix_elems(r, 6, 4, g) for r in range(g.size))
        assert total == (6 * 4) ** 2

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(4, 20))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, pr, pc, b, n):
        w = np.arange(float(n * n)).reshape(n, n)
        padded, n0 = pad_to_blocks(w, b)
        g = ProcessGrid(pr, pc)
        parts = distribute(padded, b, g)
        assert np.allclose(collect(parts, n0, b, g), w)


class TestBlockedFw:
    @pytest.mark.parametrize("b", [1, 3, 5, 8, 24, 30])
    def test_matches_scipy(self, dense24, b):
        assert np.allclose(blocked_fw(dense24, b), csgraph.floyd_warshall(dense24))

    @pytest.mark.parametrize("b", [4, 7])
    def test_sparse_with_unreachable(self, sparse30, b):
        got = blocked_fw(sparse30, b)
        ref = floyd_warshall(sparse30)
        mask = np.isfinite(ref)
        assert np.allclose(got[mask], ref[mask])
        assert np.array_equal(np.isinf(got), np.isinf(ref))

    def test_matches_unblocked_oracle(self, dense24):
        assert np.allclose(blocked_fw(dense24, 8), floyd_warshall(dense24))

    def test_banded_long_paths(self):
        w = banded_graph(40, 2, seed=5)
        assert np.allclose(blocked_fw(w, 8), floyd_warshall(w))

    def test_ring_of_cliques(self):
        w = ring_of_cliques(4, 5)
        assert np.allclose(blocked_fw(w, 4), floyd_warshall(w))

    def test_negative_cycle_detected(self):
        w = np.array([[0.0, 1.0], [-3.0, 0.0]])
        with pytest.raises(NegativeCycleError):
            blocked_fw(w, 1)

    def test_boolean_transitive_closure(self):
        """Blocked FW over the (or, and) semiring computes reachability."""
        adj = np.zeros((6, 6), dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[3, 4] = True
        np.fill_diagonal(adj, True)
        reach = blocked_fw(adj, 2, semiring=OR_AND, check_negative_cycles=False)
        assert reach[0, 2] and not reach[0, 3] and reach[3, 4]

    def test_bottleneck_semiring(self):
        cap = np.full((4, 4), -INF)
        np.fill_diagonal(cap, INF)
        cap[0, 1], cap[1, 2], cap[0, 2] = 10.0, 4.0, 3.0
        out = blocked_fw(cap, 2, semiring=MAX_MIN, check_negative_cycles=False)
        assert out[0, 2] == 4.0  # widest path 0->1->2

    def test_block_larger_than_matrix(self, dense24):
        assert np.allclose(blocked_fw(dense24, 64), floyd_warshall(dense24))

    def test_nonsquare_rejected(self):
        with pytest.raises(ConfigurationError):
            blocked_fw(np.zeros((3, 4)), 2)

    @given(st.integers(2, 16), st.integers(1, 6), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_blocked_equals_unblocked_property(self, n, b, seed):
        w = erdos_renyi(n, 0.4, seed=seed)
        assert np.allclose(
            blocked_fw(w, min(b, n)), floyd_warshall(w), equal_nan=True
        )
