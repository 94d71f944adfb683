"""Tests for the analytics layer, oracle-checked against networkx."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    average_path_length,
    closeness_centrality,
    diameter,
    eccentricity,
    graph_center,
    graph_periphery,
    harmonic_centrality,
    hop_counts,
    radius,
    reachability_components,
    summarize,
)
from repro import solve
from repro.errors import ValidationError
from repro.graphs import erdos_renyi, floyd_warshall, grid_road_network
from repro.semiring import INF


def to_nx(weights: np.ndarray) -> nx.DiGraph:
    g = nx.DiGraph()
    n = weights.shape[0]
    g.add_nodes_from(range(n))
    for u in range(n):
        for v in np.flatnonzero(np.isfinite(weights[u])):
            if u != v:
                g.add_edge(u, int(v), weight=float(weights[u, v]))
    return g


@pytest.fixture
def connected_case():
    w = grid_road_network(4, 5, seed=2)
    return w, floyd_warshall(w), to_nx(w)


@pytest.fixture
def disconnected_case():
    w = erdos_renyi(25, 0.08, seed=3)
    return w, floyd_warshall(w), to_nx(w)


class TestAgainstNetworkx:
    def test_eccentricity(self, connected_case):
        w, dist, g = connected_case
        ref = nx.eccentricity(g, weight="weight")
        ecc = eccentricity(dist)
        for v, e in ref.items():
            assert ecc[v] == pytest.approx(e)

    def test_diameter_radius(self, connected_case):
        w, dist, g = connected_case
        assert diameter(dist) == pytest.approx(nx.diameter(g, weight="weight"))
        assert radius(dist) == pytest.approx(nx.radius(g, weight="weight"))

    def test_center_periphery(self, connected_case):
        w, dist, g = connected_case
        assert set(graph_center(dist).tolist()) == set(nx.center(g, weight="weight"))
        assert set(graph_periphery(dist).tolist()) == set(
            nx.periphery(g, weight="weight")
        )

    def test_closeness(self, connected_case):
        w, dist, g = connected_case
        ref = nx.closeness_centrality(g, distance="weight")
        got = closeness_centrality(dist)
        for v, c in ref.items():
            assert got[v] == pytest.approx(c)

    def test_closeness_disconnected(self, disconnected_case):
        w, dist, g = disconnected_case
        ref = nx.closeness_centrality(g, distance="weight")
        got = closeness_centrality(dist)
        for v, c in ref.items():
            assert got[v] == pytest.approx(c)

    def test_harmonic(self, disconnected_case):
        w, dist, g = disconnected_case
        ref = nx.harmonic_centrality(g, distance="weight")
        got = harmonic_centrality(dist)
        for v, c in ref.items():
            assert got[v] == pytest.approx(c)

    def test_average_path_length(self, connected_case):
        w, dist, g = connected_case
        ref = nx.average_shortest_path_length(g, weight="weight")
        assert average_path_length(dist) == pytest.approx(ref)

    def test_components_match_scc(self, disconnected_case):
        w, dist, g = disconnected_case
        labels = reachability_components(dist)
        sccs = list(nx.strongly_connected_components(g))
        assert labels.max() + 1 == len(sccs)
        for scc in sccs:
            members = sorted(scc)
            assert len({labels[v] for v in members}) == 1


class TestHopCounts:
    def test_hops_from_tracked_paths(self):
        w = grid_road_network(3, 4, seed=1)
        dist, nxt = floyd_warshall(w, hops=True)
        hops = hop_counts(nxt)
        g = to_nx(w)
        # Hop count along the weighted shortest path == its edge count.
        from repro.extensions import reconstruct_path

        for i in range(12):
            for j in range(12):
                if i == j:
                    assert hops[i, j] == 0
                else:
                    p = reconstruct_path(nxt, i, j)
                    assert hops[i, j] == len(p) - 1

    def test_unreachable_is_minus_one(self):
        w = np.full((4, 4), INF)
        np.fill_diagonal(w, 0)
        w[0, 1] = 1.0
        _, nxt = floyd_warshall(w, hops=True)
        hops = hop_counts(nxt)
        assert hops[0, 1] == 1
        assert hops[1, 0] == -1

    def test_distributed_flow(self):
        """solve(track_paths=True) -> hop_counts composes."""
        w = grid_road_network(3, 3, seed=5)
        res = solve(w, variant="async", block_size=3, n_nodes=1, ranks_per_node=2,
                    track_paths=True)
        hops = hop_counts(res.next_hops)
        assert hops[0, 8] >= 2  # opposite corners need at least 2 hops


class TestSummary:
    def test_summary_fields(self, connected_case):
        w, dist, g = connected_case
        s = summarize(dist)
        assert s.n == 20
        assert s.components == 1
        assert s.reachable_pairs == 20 * 19
        assert s.diameter == pytest.approx(nx.diameter(g, weight="weight"))
        assert set(s.center) == set(nx.center(g, weight="weight"))

    def test_summary_disconnected(self, disconnected_case):
        w, dist, g = disconnected_case
        s = summarize(dist)
        assert s.components == len(list(nx.strongly_connected_components(g)))
        assert s.reachable_pairs < 25 * 24

    def test_nonsquare_rejected(self):
        with pytest.raises(ValidationError):
            summarize(np.zeros((2, 3)))

    def test_empty_graph(self):
        w = np.full((5, 5), INF)
        np.fill_diagonal(w, 0)
        s = summarize(w)
        assert s.reachable_pairs == 0
        assert s.diameter == 0.0
        assert np.isinf(s.radius)
        assert s.components == 5

    @given(st.integers(3, 14), st.floats(0.1, 0.9), st.integers(0, 10**5))
    @settings(max_examples=15, deadline=None)
    def test_property_metrics_consistent(self, n, p, seed):
        w = erdos_renyi(n, p, seed=seed)
        dist = floyd_warshall(w)
        s = summarize(dist)
        assert s.radius <= s.diameter or np.isinf(s.radius)
        if np.isfinite(s.radius):
            assert s.average_distance <= s.diameter + 1e-9
        assert 1 <= s.components <= n
