"""Tests for the future-work extensions: path generation and
incremental Floyd-Warshall."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.errors import NegativeCycleError, QueryError, ValidationError, exit_code_for
from repro.extensions import (
    NO_HOP,
    IncrementalApsp,
    next_hop_from_distances,
    path_length,
    reconstruct_path,
)
from repro.graphs import erdos_renyi, floyd_warshall, grid_road_network
from repro.semiring import INF


class TestPathsFromFw:
    def test_distances_match_plain_fw(self, sparse30):
        dist, _ = floyd_warshall(sparse30, hops=True)
        assert np.allclose(dist, floyd_warshall(sparse30), equal_nan=True)

    def test_paths_are_valid_and_optimal(self, sparse30):
        dist, nxt = floyd_warshall(sparse30, hops=True)
        n = sparse30.shape[0]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                path = reconstruct_path(nxt, i, j)
                if np.isinf(dist[i, j]):
                    assert path is None
                else:
                    assert path[0] == i and path[-1] == j
                    assert path_length(sparse30, path) == pytest.approx(dist[i, j])

    def test_trivial_path(self, dense24):
        _, nxt = floyd_warshall(dense24, hops=True)
        assert reconstruct_path(nxt, 3, 3) == [3]

    def test_unreachable_is_none(self):
        w = np.full((3, 3), INF)
        np.fill_diagonal(w, 0)
        w[0, 1] = 1.0
        _, nxt = floyd_warshall(w, hops=True)
        assert reconstruct_path(nxt, 1, 2) is None
        assert nxt[1, 2] == NO_HOP

    def test_path_length_rejects_missing_edge(self):
        w = np.full((3, 3), INF)
        np.fill_diagonal(w, 0)
        with pytest.raises(ValidationError):
            path_length(w, [0, 1])

    def test_malformed_next_hop_detected(self):
        # next-hop claims 0 -> 1 starts by going to 0: an infinite loop.
        bad = np.array([[NO_HOP, 0], [1, NO_HOP]])
        with pytest.raises(ValidationError):
            reconstruct_path(bad, 0, 1)
        # ... or names a vertex the graph does not have.
        with pytest.raises(ValidationError, match="vertex 5 of 2"):
            reconstruct_path(np.array([[NO_HOP, 5], [0, NO_HOP]]), 0, 1)

    @pytest.mark.parametrize("src,dst", [(-1, 3), (3, -1), (8, 3), (3, 8), (1.0, 3), (True, 3)])
    def test_bad_vertex_is_a_query_error(self, src, dst):
        """A negative id used to wrap (``(-1, 3)`` traced ``[-1, 5, 3]``
        through a vertex that does not exist); the rest were bare
        IndexErrors."""
        w = erdos_renyi(8, 0.5, seed=1)
        _, nxt = floyd_warshall(w, hops=True)
        with pytest.raises(QueryError, match=r"\[0, 8\)|integer vertex id") as err:
            reconstruct_path(nxt, src, dst)
        assert exit_code_for(err.value) == 18

    @pytest.mark.parametrize("path", [[-1, 3], [3, 8], [0, 2.0]])
    def test_path_length_rejects_bad_vertex(self, path):
        w = erdos_renyi(8, 0.5, seed=1)
        with pytest.raises(QueryError):
            path_length(w, path)


class TestNextHopFromDistances:
    def test_composes_with_distributed_solver(self):
        """The 'distributed shortest path generation' flow: distances
        from the simulated cluster, paths recovered locally."""
        w = grid_road_network(4, 4, seed=8)
        dist = solve(w, variant="async", block_size=4, n_nodes=2, ranks_per_node=2).dist
        nxt = next_hop_from_distances(w, dist)
        for i in (0, 5, 15):
            for j in (0, 3, 12):
                path = reconstruct_path(nxt, i, j)
                assert path is not None
                assert path_length(w, path) == pytest.approx(dist[i, j])

    def test_matches_carried_pointers(self, sparse30):
        dist, _ = floyd_warshall(sparse30, hops=True)
        nxt = next_hop_from_distances(sparse30, dist)
        n = sparse30.shape[0]
        for i in range(n):
            for j in range(n):
                if i != j and np.isfinite(dist[i, j]):
                    path = reconstruct_path(nxt, i, j)
                    assert path_length(sparse30, path) == pytest.approx(dist[i, j])


class TestIncrementalApsp:
    def test_initial_solution(self, dense24):
        inc = IncrementalApsp(dense24)
        assert np.allclose(inc.dist, floyd_warshall(dense24))

    def test_decrease_fast_path(self, dense24):
        inc = IncrementalApsp(dense24)
        assert inc.update_edge(2, 7, 0.01) is True
        fresh = inc.weights.copy()
        assert np.allclose(inc.dist, floyd_warshall(fresh))
        assert inc.fast_updates == 1 and inc.recomputes == 0

    def test_insert_edge(self):
        w = np.full((5, 5), INF)
        np.fill_diagonal(w, 0)
        w[0, 1] = w[1, 2] = w[2, 3] = w[3, 4] = 1.0
        inc = IncrementalApsp(w)
        assert inc.distance(0, 4) == 4.0
        inc.insert_edge(0, 4, 1.5)
        assert inc.distance(0, 4) == 1.5

    def test_increase_off_path_is_fast(self, dense24):
        inc = IncrementalApsp(dense24)
        # Find an edge strictly longer than the shortest path (unused).
        base = floyd_warshall(dense24)
        ij = np.argwhere(dense24 > base + 0.5)
        u, v = map(int, ij[0])
        assert inc.update_edge(u, v, dense24[u, v] + 1.0) is True
        assert np.allclose(inc.dist, floyd_warshall(inc.weights))

    def test_increase_on_path_recomputes(self):
        w = np.full((4, 4), INF)
        np.fill_diagonal(w, 0)
        w[0, 1] = w[1, 2] = w[2, 3] = 1.0
        w[0, 3] = 10.0
        inc = IncrementalApsp(w)
        assert inc.distance(0, 3) == 3.0
        assert inc.update_edge(1, 2, 100.0) is False  # on the 0->3 path
        assert inc.distance(0, 3) == 10.0
        assert (inc.repairs, inc.recomputes) == (1, 0)

    def test_remove_edge(self):
        w = np.full((3, 3), INF)
        np.fill_diagonal(w, 0)
        w[0, 1] = w[1, 2] = 1.0
        w[0, 2] = 5.0
        inc = IncrementalApsp(w)
        assert inc.distance(0, 2) == 2.0
        inc.remove_edge(1, 2)
        assert inc.distance(0, 2) == 5.0

    def test_negative_cycle_detected(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        inc = IncrementalApsp(w)
        with pytest.raises(NegativeCycleError):
            inc.update_edge(1, 0, -5.0)

    def test_negative_self_loop_rejected(self, dense24):
        inc = IncrementalApsp(dense24)
        with pytest.raises(NegativeCycleError):
            inc.update_edge(3, 3, -1.0)

    def test_out_of_range(self, dense24):
        inc = IncrementalApsp(dense24)
        with pytest.raises(ValueError):
            inc.update_edge(0, 99, 1.0)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            IncrementalApsp(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [
        (0, 1, float("nan")), (0, 1, float("-inf")), (0, 1, "heavy"),
        (0, 24, 1.0), (0.5, 1, 1.0),
        (3, 3, -1.0),      # negative self-loop
        (2, 7, -1e6),      # a decrease that closes a negative cycle
    ])
    def test_refused_update_leaves_state_untouched(self, dense24, bad):
        inc = IncrementalApsp(dense24)
        inc.update_edge(2, 7, 0.01)
        weights, dist = inc.weights.copy(), inc.dist.copy()
        error = NegativeCycleError if bad in [(3, 3, -1.0), (2, 7, -1e6)] else ValueError
        for call in (inc.update_edge, inc.insert_edge,
                     lambda *edge: inc.batch_update([edge, (4, 5, 0.01)])):
            with pytest.raises(error):
                call(*bad)
        if bad[:2] != (0, 1) and error is ValueError:  # a bad vertex
            with pytest.raises(ValueError):
                inc.remove_edge(*bad[:2])
        assert np.array_equal(inc.weights, weights)
        assert np.array_equal(inc.dist, dist, equal_nan=True)
        assert not np.isnan(inc.dist).any()
        assert (inc.fast_updates, inc.recomputes) == (1, 0)

    def test_mid_batch_refusal_commits_the_prefix(self, dense24):
        inc = IncrementalApsp(dense24)
        base = inc.dist
        with pytest.raises(NegativeCycleError):
            inc.batch_update([(2, 7, 0.01), (6, 6, 0.0), (7, 2, -1e6), (4, 5, 0.01)])
        assert inc.weights[2, 7] == 0.01
        assert inc.weights[7, 2] == dense24[7, 2] and inc.weights[4, 5] == dense24[4, 5]
        expected = np.minimum(base, base[:, 2, None] + (0.01 + base[None, 7, :]))
        assert np.array_equal(inc.dist, expected)
        assert (inc.fast_updates, inc.recomputes) == (1, 0)  # the self-loop is not counted

    @given(st.integers(0, 10**6), st.integers(5, 12), st.integers(3, 12))
    @settings(max_examples=20, deadline=None)
    def test_batch_update_property(self, seed, n, n_updates):
        """batch_update coalesces to at most one recompute and matches
        a from-scratch solve."""
        rng = np.random.default_rng(seed)
        w = erdos_renyi(n, 0.5, seed=seed)
        inc = IncrementalApsp(w)
        ups = []
        for _ in range(n_updates):
            u, v = rng.integers(0, n, 2)
            if u != v:
                ups.append((int(u), int(v), float(rng.uniform(0.1, 15))))
        before = inc.recomputes
        inc.batch_update(ups)
        assert inc.recomputes - before <= 1
        assert np.allclose(
            inc.dist, floyd_warshall(inc.weights),
            equal_nan=True,
        )

    @given(st.integers(0, 10**6), st.integers(5, 12), st.integers(3, 10))
    @settings(max_examples=20, deadline=None)
    def test_random_update_sequence_property(self, seed, n, n_updates):
        """After any mixed sequence of updates, the maintained solution
        equals a from-scratch recompute."""
        rng = np.random.default_rng(seed)
        w = erdos_renyi(n, 0.5, seed=seed)
        inc = IncrementalApsp(w)
        for _ in range(n_updates):
            u, v = rng.integers(0, n, 2)
            if u == v:
                continue
            op = rng.integers(0, 3)
            if op == 0:
                inc.update_edge(int(u), int(v), float(rng.uniform(0.1, 10)))
            elif op == 1:
                inc.insert_edge(int(u), int(v), float(rng.uniform(0.1, 10)))
            else:
                inc.remove_edge(int(u), int(v))
        assert np.allclose(
            inc.dist, floyd_warshall(inc.weights),
            equal_nan=True,
        )
