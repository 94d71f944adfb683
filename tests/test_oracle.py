"""The APSP oracles of :mod:`repro.graphs.oracle`: the certificate
``validate=True`` runs, its independence from the solver's kernels, the
unblocked Floyd-Warshall against SciPy, and the SSSP source checks."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

import repro.graphs.oracle as oracle_module
from repro import solve
from repro.errors import QueryError, ValidationError, exit_code_for
from repro.graphs import (
    banded_graph,
    bellman_ford,
    certify,
    dijkstra,
    erdos_renyi,
    floyd_warshall,
    grid_road_network,
    power_law_graph,
    ring_of_cliques,
    uniform_random_dense,
)
from repro.semiring import INF, MAX_MIN, MIN_PLUS
from repro.semiring.backends import TiledBackend


def make_dropping_backend(name, phases):
    """A backend whose grid product silently drops the last inner index
    (``A[:, :-1] ⊗ B[:-1, :]``) in the given phases: a kernel bug that
    hits a re-solve on the same kernel exactly as it hits the run."""

    class _Dropping(TiledBackend):
        def srgemm_grid(self, c_tiles, a_rows, b_cols, semiring=MIN_PLUS, phase="outer",
                        hops=None):
            if phase in phases:
                a_rows = [a[:, :-1] for a in a_rows]
                b_cols = [b[:-1, :] for b in b_cols]
            return super().srgemm_grid(c_tiles, a_rows, b_cols, semiring, phase, hops)

    return _Dropping(name=name)


@pytest.fixture
def dropping_backends():
    from repro.semiring import backends as registry

    planted = {"drop-all": ("diag", "panel", "outer"), "drop-outer": ("outer",)}
    for name, phases in planted.items():
        registry.register_backend(make_dropping_backend(name, phases), overwrite=True)
    try:
        yield
    finally:
        for name in planted:
            registry._REGISTRY.pop(name, None)


class TestPlantedKernelBug:
    """``validate=True`` must not re-solve on the kernel under test."""

    @pytest.mark.parametrize("backend", ["drop-all", "drop-outer"])
    @pytest.mark.parametrize("variant", ["baseline", "async", "offload"])
    def test_validate_rejects_a_dropped_inner_index(self, dropping_backends, variant, backend):
        w = uniform_random_dense(64, seed=1)
        with pytest.raises(ValidationError) as exc:
            solve(w, block_size=8, n_nodes=2, ranks_per_node=2, variant=variant,
                  kernel_backend=backend, validate=True)
        assert exit_code_for(exc.value) == 3


class TestCertificate:
    def test_accepts_the_apsp(self, sparse30):
        certify(sparse30, floyd_warshall(sparse30))

    def test_accepts_float32_rounding(self, dense24):
        certify(dense24, floyd_warshall(dense24).astype(np.float32))

    def test_rejects_a_zero_cycle_fixed_point(self):
        # 0 <-> 1 is a zero-weight cycle, and 2 is unreachable from both:
        # D = I ⊕ W' ⊗ D holds, yet d(0, 2) is inf.
        w = np.array([[0.0, 0.0, INF], [0.0, 0.0, INF], [INF, INF, 0.0]])
        d = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [INF, INF, 0.0]])
        with pytest.raises(ValidationError, match=r"\(0, 2\)"):
            certify(w, d)

    @pytest.mark.parametrize("value", [3.0, INF])
    def test_rejects_a_spurious_max_min_fixed_point(self, value):
        # A 2-cycle of capacity 5; vertex 2 is unreachable, so its true
        # capacity is -inf, but 3 (or the diagonal's +inf) is as
        # self-consistent as -inf is.
        w = np.array([[INF, 5.0, -INF], [5.0, INF, -INF], [-INF, -INF, INF]])
        good = floyd_warshall(w, MAX_MIN)
        certify(w, good, semiring=MAX_MIN)
        bad = good.copy()
        bad[0, 2] = bad[1, 2] = value
        with pytest.raises(ValidationError, match=r"\(0, 2\)"):
            certify(w, bad, semiring=MAX_MIN)

    @pytest.mark.parametrize("value", [-INF, np.nan])
    def test_rejects_a_non_distance_on_an_unreachable_pair(self, value):
        # Vertex 0 has no in-edge and 3 no out-edge, so d(0, 3) = inf and
        # no sweep value depends on it: only the entry itself can say
        # that -inf or NaN is not +inf.
        w = erdos_renyi(12, 0.12, seed=0)
        d = floyd_warshall(w)
        assert np.isinf(d[0, 3])
        bad = d.copy()
        bad[0, 3] = value
        with pytest.raises(ValidationError, match=r"dist\[0, 3\]"):
            certify(w, bad)

    def test_a_positive_self_loop_keeps_its_weight(self):
        # The sweep never adds the empty path, so dist[0, 0] stays 5; the
        # fixed point, which has I in it, would reject that correct answer.
        w = uniform_random_dense(24, seed=3)
        w[0, 0] = 5.0
        res = solve(w, block_size=4, n_nodes=2, ranks_per_node=2, validate=True)
        assert res.dist[0, 0] == 5.0

    def test_rejects_a_shape_mismatch(self, dense24):
        with pytest.raises(ValidationError, match="shape"):
            certify(dense24, np.zeros((3, 3)))

    def test_checks_next_hops(self, sparse30):
        dist, nxt = floyd_warshall(sparse30, hops=True)
        certify(sparse30, dist, nxt)
        i, j = np.argwhere(nxt >= 0)[0]
        bad = nxt.copy()
        bad[i, j] = i  # a self-hop never starts a path
        with pytest.raises(ValidationError, match="next hop"):
            certify(sparse30, dist, bad)


FAMILIES = {
    "uniform_random_dense": lambda: uniform_random_dense(24, seed=3),
    "erdos_renyi": lambda: erdos_renyi(30, 0.15, seed=11),
    "grid_road_network": lambda: grid_road_network(4, 6, seed=2),
    "ring_of_cliques": lambda: ring_of_cliques(4, 5),
    "power_law_graph": lambda: power_law_graph(40, seed=1),
    "banded_graph": lambda: banded_graph(30, 2, seed=5),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_floyd_warshall_matches_scipy(family):
    w = FAMILIES[family]()
    ref = csgraph.floyd_warshall(w, directed=True)
    got = floyd_warshall(w)
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    assert np.allclose(got[np.isfinite(ref)], ref[np.isfinite(ref)])


def test_oracle_imports_nothing_from_the_solver():
    """Independence: no import of the distributed solver, a kernel
    backend, the solver's closures or the naive product oracle."""
    tree = ast.parse(Path(oracle_module.__file__).read_text())
    package = oracle_module.__package__.split(".")
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    forbidden = ("repro.core", "repro.semiring.backends", "repro.semiring.closure",
                 "repro.semiring.reference")
    assert imported
    for name in imported:
        assert not name.startswith(forbidden), name


class TestSsspSources:
    """A source is an int vertex id in ``[0, n)``: anything else is a
    QueryError (exit 18), never another vertex's answer."""

    @pytest.mark.parametrize("source", [-1, 30, 1.5, True])
    @pytest.mark.parametrize("sssp", [bellman_ford, dijkstra])
    def test_bad_source_is_a_query_error(self, sparse30, sssp, source):
        with pytest.raises(QueryError, match="source") as exc:
            sssp(sparse30, source)
        assert exit_code_for(exc.value) == 18

    @pytest.mark.parametrize("sssp", [bellman_ford, dijkstra])
    def test_numpy_integer_source_is_fine(self, sparse30, sssp):
        assert np.array_equal(sssp(sparse30, np.int64(7)), sssp(sparse30, 7))
