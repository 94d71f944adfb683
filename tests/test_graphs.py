"""Tests for graph generators, IO, the reference algorithms and the
certificate."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NegativeCycleError, ValidationError
from repro.graphs import (
    assert_matches_oracle,
    banded_graph,
    bellman_ford,
    certify,
    dijkstra,
    erdos_renyi,
    estimated_fw_ops,
    estimated_johnson_ops,
    floyd_warshall,
    from_edge_list,
    grid_road_network,
    johnson,
    load_edge_list,
    load_matrix,
    power_law_graph,
    ring_of_cliques,
    save_edge_list,
    save_matrix,
    uniform_random_dense,
    validate_weights,
)
from repro.semiring import INF


class TestGenerators:
    def test_uniform_dense_properties(self):
        w = uniform_random_dense(20, seed=0, low=2, high=5)
        assert w.shape == (20, 20)
        assert np.allclose(np.diagonal(w), 0)
        off = w[~np.eye(20, dtype=bool)]
        assert np.all((off >= 2) & (off <= 5))

    def test_uniform_dense_deterministic(self):
        assert np.array_equal(
            uniform_random_dense(10, seed=42), uniform_random_dense(10, seed=42)
        )

    def test_symmetric_option(self):
        w = uniform_random_dense(15, seed=1, symmetric=True)
        assert np.allclose(w, w.T)

    def test_erdos_renyi_density(self):
        w = erdos_renyi(200, 0.3, seed=0)
        density = np.isfinite(w[~np.eye(200, dtype=bool)]).mean()
        assert 0.25 < density < 0.35

    def test_erdos_renyi_bad_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5)

    def test_grid_road_network_connected(self):
        w = grid_road_network(4, 5, seed=0)
        assert w.shape == (20, 20)
        dist = floyd_warshall(w)
        assert np.all(np.isfinite(dist))  # grid is connected

    def test_grid_road_adjacency(self):
        w = grid_road_network(3, 3, seed=0, diagonal_prob=0.0)
        # Vertex 4 (center) connects to 1, 3, 5, 7 only.
        nbrs = set(np.flatnonzero(np.isfinite(w[4])) .tolist()) - {4}
        assert nbrs == {1, 3, 5, 7}

    def test_ring_of_cliques(self):
        w = ring_of_cliques(3, 4, intra=1.0, inter=9.0)
        assert w.shape == (12, 12)
        assert w[0, 1] == 1.0  # intra-clique
        assert w[0, 4] == 9.0  # bridge 0 -> next clique
        dist = floyd_warshall(w)
        assert np.all(np.isfinite(dist))

    def test_power_law_has_hubs(self):
        w = power_law_graph(300, seed=0, mean_degree=6.0)
        degrees = np.isfinite(w).sum(axis=1) - 1
        assert degrees.max() > 4 * max(1, int(np.median(degrees)))

    def test_banded_structure(self):
        w = banded_graph(20, 3, seed=0)
        assert np.isinf(w[0, 4])
        assert np.isfinite(w[0, 3])
        dist = floyd_warshall(w)
        assert np.all(np.isfinite(dist))

    def test_from_edge_list(self):
        w = from_edge_list(4, [(0, 1, 2.0), (1, 2, 3.0), (0, 1, 1.0)])
        assert w[0, 1] == 1.0  # parallel edges keep the min
        assert np.isinf(w[1, 0])
        sym = from_edge_list(3, [(0, 2, 5.0)], symmetric=True)
        assert sym[2, 0] == 5.0

    def test_from_edge_list_range_check(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 7, 1.0)])


class TestIO:
    def test_matrix_roundtrip(self, tmp_path):
        w = erdos_renyi(12, 0.4, seed=3)
        path = tmp_path / "g.npz"
        save_matrix(path, w, n=12)
        assert np.array_equal(load_matrix(path), w)

    def test_edge_list_roundtrip(self, tmp_path):
        w = erdos_renyi(10, 0.3, seed=4)
        path = tmp_path / "g.txt"
        save_edge_list(path, w, comment="test graph\nsecond line")
        back = load_edge_list(path)
        assert back.shape == w.shape
        finite = np.isfinite(w) & ~np.eye(10, dtype=bool)
        assert np.allclose(back[finite], w[finite])
        assert np.array_equal(np.isinf(back), np.isinf(w))

    def test_edge_list_isolated_vertices_preserved(self, tmp_path):
        w = np.full((5, 5), INF)
        np.fill_diagonal(w, 0)
        w[0, 1] = 1.0
        path = tmp_path / "sparse.txt"
        save_edge_list(path, w)
        assert load_edge_list(path).shape == (5, 5)


class TestReferenceAlgorithms:
    def test_dijkstra_matches_scipy(self, sparse30):
        ref = csgraph.floyd_warshall(sparse30)
        for s in (0, 7, 29):
            got = dijkstra(sparse30, s)
            assert np.allclose(
                got[np.isfinite(ref[s])], ref[s][np.isfinite(ref[s])]
            )

    def test_dijkstra_source_validation(self, sparse30):
        with pytest.raises(ValueError):
            dijkstra(sparse30, 99)

    def test_dijkstra_rejects_negative(self):
        w = np.array([[0.0, -1.0], [INF, 0.0]])
        with pytest.raises(ValueError):
            dijkstra(w, 0)

    def test_bellman_ford_matches_dijkstra(self, sparse30):
        for s in (0, 15):
            assert np.allclose(bellman_ford(sparse30, s), dijkstra(sparse30, s))

    def test_bellman_ford_negative_edges(self):
        w = np.array(
            [[0.0, 4.0, INF], [INF, 0.0, -2.0], [INF, INF, 0.0]]
        )
        d = bellman_ford(w, 0)
        assert d[2] == 2.0

    def test_bellman_ford_negative_cycle(self):
        w = np.array([[0.0, 1.0], [-3.0, 0.0]])
        with pytest.raises(NegativeCycleError):
            bellman_ford(w, 0)

    def test_johnson_matches_fw(self, sparse30):
        assert np.allclose(johnson(sparse30), floyd_warshall(sparse30))

    def test_johnson_with_negative_edges(self):
        w = np.array(
            [
                [0.0, 3.0, INF, INF],
                [INF, 0.0, -2.0, INF],
                [INF, INF, 0.0, 1.0],
                [2.0, INF, INF, 0.0],
            ]
        )
        assert np.allclose(johnson(w), floyd_warshall(w))

    def test_ops_estimates_crossover(self):
        """Johnson wins on sparse graphs, FW on dense - the paper's §6
        trade-off."""
        n = 1000
        sparse_m, dense_m = 4 * n, n * n // 2
        assert estimated_johnson_ops(n, sparse_m) < estimated_fw_ops(n)
        assert estimated_johnson_ops(n, dense_m) < estimated_fw_ops(n)  # ops, not speed
        # FW's regular structure is the GPU argument, not raw op count.

    @given(st.integers(4, 16), st.integers(0, 10**5))
    @settings(max_examples=20, deadline=None)
    def test_johnson_equals_fw_property(self, n, seed):
        w = erdos_renyi(n, 0.5, seed=seed)
        assert np.allclose(johnson(w), floyd_warshall(w), equal_nan=True)


class TestValidationHelpers:
    def test_assert_matches_oracle_passes(self, dense24):
        d = floyd_warshall(dense24)
        assert_matches_oracle(d, csgraph.floyd_warshall(dense24))

    def test_assert_matches_oracle_fails(self, dense24):
        d = floyd_warshall(dense24)
        bad = d.copy()
        bad[3, 5] += 1.0
        with pytest.raises(ValidationError, match=r"\(3, 5\)"):
            assert_matches_oracle(bad, d)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            assert_matches_oracle(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("got", [-INF, np.nan])
    def test_assert_matches_oracle_wants_the_same_infinity(self, got):
        oracle = np.array([[0.0, INF], [-INF, 0.0]])
        assert_matches_oracle(oracle.copy(), oracle)
        bad = oracle.copy()
        bad[0, 1] = got
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            assert_matches_oracle(bad, oracle)

    def test_invariants_pass(self, sparse30):
        certify(sparse30, csgraph.floyd_warshall(sparse30))

    def test_invariants_catch_violation(self, dense24):
        d = floyd_warshall(dense24)
        bad = d.copy()
        bad[0, 1] = d[0, 1] + 100  # exceeds the direct edge
        with pytest.raises(ValidationError):
            certify(dense24, bad)

    def test_invariants_catch_nonzero_diagonal(self, dense24):
        d = floyd_warshall(dense24)
        bad = d.copy()
        np.fill_diagonal(bad, -0.5)
        with pytest.raises(ValidationError):
            certify(dense24, bad)

    def test_invariants_reject_all_zero(self):
        # dist == 0 meets every upper bound (dist <= w, the triangle
        # inequality) on any graph.
        w = erdos_renyi(12, 0.4, seed=1)
        with pytest.raises(ValidationError, match=r"first at \(0, 1\): dist\[0, 1\] = .*0\.0.* vs"):
            certify(w, np.zeros_like(w))

    def test_invariants_reject_unreachable_pair_made_finite(self):
        # Vertex 0 has no in-edge and 3 no out-edge, so a finite d(0, 3)
        # breaks no triangle: only the lower bound sees it.
        w = erdos_renyi(12, 0.12, seed=0)
        d = csgraph.floyd_warshall(w)
        assert np.isinf(d[0, 3])
        bad = d.copy()
        bad[0, 3] = 5.0
        with pytest.raises(ValidationError, match=r"dist\[0, 3\] = .*5\.0.* vs oracle .*inf"):
            certify(w, bad)

    def test_invariants_reject_a_lowered_entry(self):
        # No shortest path continues through (0, 4), so lowering it breaks
        # no triangle: only the lower bound sees it.
        w = erdos_renyi(12, 0.4, seed=1)
        d = csgraph.floyd_warshall(w)
        bad = d.copy()
        bad[0, 4] -= 0.01
        with pytest.raises(ValidationError, match=r"dist\[0, 4\]"):
            certify(w, bad)

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_accept_scipy_with_negative_edges(self, seed):
        # Potential-shifted weights: negative edges, no negative cycle.
        w = erdos_renyi(20, 0.3, seed=seed)
        phi = np.random.default_rng(seed).uniform(0.0, 5.0, 20)
        shifted = w + phi[:, None] - phi[None, :]
        np.fill_diagonal(shifted, 0.0)
        assert (shifted < 0).any()
        certify(shifted, csgraph.floyd_warshall(shifted))


class TestWeightValidation:
    """NaN / -inf weights are rejected at load and generation time."""

    def test_valid_weights_pass_through(self, dense24):
        assert validate_weights(dense24) is dense24

    def test_plus_inf_is_fine(self, sparse30):
        assert validate_weights(sparse30) is sparse30

    def test_nan_rejected_with_location(self):
        w = uniform_random_dense(6, seed=1)
        w[2, 4] = np.nan
        with pytest.raises(ValidationError, match=r"NaN.*\(2, 4\)"):
            validate_weights(w)

    def test_neg_inf_rejected_with_location(self):
        w = uniform_random_dense(6, seed=1)
        w[5, 0] = -INF
        with pytest.raises(ValidationError, match=r"-inf.*\(5, 0\)"):
            validate_weights(w)

    def test_load_matrix_rejects_nan(self, tmp_path):
        w = uniform_random_dense(8, seed=2)
        w[1, 3] = np.nan
        path = tmp_path / "corrupt.npz"
        save_matrix(path, w)
        with pytest.raises(ValidationError, match="NaN"):
            load_matrix(path)

    def test_load_matrix_rejects_neg_inf(self, tmp_path):
        w = uniform_random_dense(8, seed=2)
        w[0, 7] = -INF
        path = tmp_path / "corrupt.npz"
        save_matrix(path, w)
        with pytest.raises(ValidationError, match="-inf"):
            load_matrix(path)

    def test_from_edge_list_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            from_edge_list(4, [(0, 1, 2.0), (1, 2, float("nan"))])

    def test_from_edge_list_rejects_neg_inf(self):
        with pytest.raises(ValidationError, match="-inf"):
            from_edge_list(4, [(0, 1, 2.0), (2, 3, -INF)])

    def test_load_edge_list_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# vertices 3\n0 1 2.5\n1 2 nan\n")
        with pytest.raises(ValidationError, match="NaN"):
            load_edge_list(path)
