"""Tests for block-sparsity exploitation (structured-sparse future
work): correctness under fill-in, and the compute/communication
savings on structured graphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.errors import ConfigurationError
from repro.graphs import (
    banded_graph,
    erdos_renyi,
    floyd_warshall,
    grid_road_network,
    ring_of_cliques,
)
from repro.semiring import INF

VARIANTS = ("baseline", "pipelined", "reordering", "async")


def run(w, variant="baseline", sparse=True, **kw):
    return solve(
        w,
        variant=variant,
        block_size=kw.pop("block_size", 5),
        n_nodes=kw.pop("n_nodes", 2),
        ranks_per_node=kw.pop("ranks_per_node", 4),
        exploit_sparsity=sparse,
        **kw,
    )


def assert_correct(res, w):
    ref = floyd_warshall(w)
    assert np.allclose(
        np.where(np.isinf(res.dist), -1, res.dist), np.where(np.isinf(ref), -1, ref)
    )


class TestCorrectness:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_banded(self, variant):
        w = banded_graph(40, 2, seed=1)
        assert_correct(run(w, variant), w)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ring_of_cliques(self, variant):
        w = ring_of_cliques(5, 8)
        assert_correct(run(w, variant), w)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_road_network(self, variant):
        w = grid_road_network(6, 7, seed=3)
        assert_correct(run(w, variant), w)

    def test_dense_unaffected(self, dense24):
        assert_correct(run(dense24, "async", block_size=4), dense24)

    def test_fully_disconnected(self):
        w = np.full((20, 20), INF)
        np.fill_diagonal(w, 0.0)
        res = run(w, "async", block_size=4)
        assert np.array_equal(np.isinf(res.dist), ~np.eye(20, dtype=bool))

    def test_two_components(self):
        w = np.full((24, 24), INF)
        np.fill_diagonal(w, 0.0)
        w[:12, :12] = banded_graph(12, 2, seed=4)
        w[12:, 12:] = banded_graph(12, 2, seed=5)
        assert_correct(run(w, "pipelined", block_size=4), w)

    def test_fill_in_handled(self):
        """A graph whose closure is dense despite a sparse start:
        emptiness must be re-evaluated as fill-in spreads."""
        n = 30
        w = np.full((n, n), INF)
        np.fill_diagonal(w, 0.0)
        for i in range(n - 1):  # a single path through all vertices
            w[i, i + 1] = 1.0
        res = run(w, "async", block_size=5)
        ref = floyd_warshall(w)
        assert np.allclose(np.where(np.isinf(res.dist), -1, res.dist),
                           np.where(np.isinf(ref), -1, ref))
        # Upper triangle fully filled in.
        assert np.all(np.isfinite(res.dist[np.triu_indices(n, 1)]))

    def test_with_path_tracking(self):
        from repro.extensions import path_length, reconstruct_path

        w = banded_graph(30, 2, seed=9)
        res = run(w, "baseline", track_paths=True)
        assert_correct(res, w)
        p = reconstruct_path(res.next_hops, 0, 29)
        assert path_length(w, p) == pytest.approx(res.dist[0, 29])

    @given(st.integers(8, 24), st.integers(1, 3), st.integers(0, 10**5))
    @settings(max_examples=15, deadline=None)
    def test_property_sparse_equals_dense_run(self, n, band, seed):
        w = banded_graph(n, band, seed=seed)
        a = run(w, "async", sparse=False, block_size=4, ranks_per_node=2)
        b = run(w, "async", sparse=True, block_size=4, ranks_per_node=2)
        assert np.allclose(np.where(np.isinf(a.dist), -1, a.dist),
                           np.where(np.isinf(b.dist), -1, b.dist))


class TestSavings:
    def test_structured_graph_saves_time_and_comm(self):
        w = banded_graph(40, 2, seed=1)
        dense_run = run(w, "baseline", sparse=False, dim_scale=100.0)
        sparse_run = run(w, "baseline", sparse=True, dim_scale=100.0)
        assert sparse_run.report.elapsed < 0.92 * dense_run.report.elapsed
        total_d = dense_run.report.internode_bytes + dense_run.report.intranode_bytes
        total_s = sparse_run.report.internode_bytes + sparse_run.report.intranode_bytes
        assert total_s < 0.8 * total_d

    def test_dense_graph_costs_nothing(self, dense24):
        dense_run = run(dense24, "baseline", sparse=False, block_size=4, dim_scale=100.0)
        sparse_run = run(dense24, "baseline", sparse=True, block_size=4, dim_scale=100.0)
        assert sparse_run.report.elapsed == pytest.approx(dense_run.report.elapsed, rel=1e-6)

    def test_unstructured_sparsity_does_not_help_blocks(self):
        """The supernodal-paper motivation: random sparsity leaves few
        all-empty blocks, so the block method saves ~nothing - it is
        *structure* that pays."""
        w = erdos_renyi(40, 0.08, seed=2)
        dense_run = run(w, "baseline", sparse=False, dim_scale=100.0)
        sparse_run = run(w, "baseline", sparse=True, dim_scale=100.0)
        assert sparse_run.report.elapsed >= 0.95 * dense_run.report.elapsed


class TestValidation:
    def test_hollow_rejected(self, dense24):
        with pytest.raises(ConfigurationError):
            solve(dense24, variant="baseline", block_size=4, n_nodes=1,
                  ranks_per_node=2, exploit_sparsity=True,
                  compute_numerics=False, collect=False)

    def test_offload_rejected(self, dense24):
        with pytest.raises(ConfigurationError):
            solve(dense24, variant="offload", block_size=4, n_nodes=1,
                  ranks_per_node=2, exploit_sparsity=True)
