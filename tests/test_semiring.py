"""Tests for the semiring algebra, kernels and closures, including
property-based tests of the algebraic laws the algorithms rely on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import NegativeCycleError
from repro.graphs import floyd_warshall
from repro.semiring import (
    INF,
    MAX_MIN,
    MAX_PLUS,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    SEMIRINGS,
    closure_by_squaring,
    fw_inplace,
    get_backend,
    srgemm_flops,
    squaring_steps,
    weight_matrix_is_valid,
)
from repro.semiring.reference import naive_srgemm


def finite_matrices(max_side=6):
    side = st.integers(1, max_side)
    return side.flatmap(
        lambda n: hnp.arrays(
            np.float64,
            (n, n),
            elements=st.floats(0, 50, allow_nan=False, allow_infinity=False),
        )
    )


class TestSemiringDefinitions:
    def test_registry(self):
        assert set(SEMIRINGS) == {
            "min_plus",
            "max_plus",
            "max_min",
            "min_max",
            "or_and",
            "plus_times",
        }

    def test_minplus_identities(self):
        sr = MIN_PLUS
        assert sr.plus(3.0, sr.zero) == 3.0
        assert sr.times(3.0, sr.one) == 3.0
        assert sr.times(3.0, sr.zero) == INF  # zero annihilates

    def test_eye(self):
        eye = MIN_PLUS.eye(3)
        assert np.all(np.diagonal(eye) == 0.0)
        assert np.all(eye[~np.eye(3, dtype=bool)] == INF)

    def test_zeros(self):
        z = MIN_PLUS.zeros((2, 3))
        assert z.shape == (2, 3)
        assert np.all(np.isinf(z))

    def test_boolean_eye(self):
        eye = OR_AND.eye(2)
        assert eye.dtype == np.bool_
        assert eye[0, 0] and not eye[0, 1]

    def test_plus_reduce(self):
        arr = np.array([[1.0, 5.0], [3.0, 2.0]])
        assert np.array_equal(MIN_PLUS.plus_reduce(arr, axis=0), [1.0, 2.0])
        assert np.array_equal(MAX_PLUS.plus_reduce(arr, axis=1), [5.0, 3.0])

    def test_weight_matrix_validation(self):
        good = np.array([[0.0, 1.0], [INF, 0.0]])
        assert weight_matrix_is_valid(good)
        assert not weight_matrix_is_valid(np.zeros((2, 3)))
        assert not weight_matrix_is_valid(np.array([[0.0, np.nan], [1.0, 0.0]]))
        assert not weight_matrix_is_valid(np.array([[0.0, -INF], [1.0, 0.0]]))


class TestSrgemm:
    def test_flops_convention(self):
        assert srgemm_flops(2, 3, 4) == 48

    @pytest.mark.parametrize("m,k,n", [(1, 1, 1), (3, 5, 2), (8, 8, 8), (2, 7, 9)])
    def test_matches_naive(self, rng, m, k, n):
        a = rng.uniform(0, 10, (m, k))
        b = rng.uniform(0, 10, (k, n))
        assert np.allclose(get_backend().srgemm(a, b), naive_srgemm(a, b))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 64])
    def test_chunking_invariant(self, rng, chunk):
        a = rng.uniform(0, 10, (5, 7))
        b = rng.uniform(0, 10, (7, 4))
        chunked = get_backend().srgemm_accumulate(MIN_PLUS.zeros((5, 4)), a, b, k_chunk=chunk)
        assert np.allclose(chunked, get_backend().srgemm(a, b))

    def test_with_infinities(self):
        a = np.array([[0.0, INF], [1.0, 2.0]])
        b = np.array([[5.0, INF], [1.0, 0.0]])
        out = get_backend().srgemm(a, b)
        assert out[0, 0] == 5.0
        assert out[0, 1] == INF
        assert out[1, 1] == 2.0

    def test_plus_times_matches_matmul(self, rng):
        a = rng.uniform(0, 1, (4, 6))
        b = rng.uniform(0, 1, (6, 5))
        assert np.allclose(get_backend().srgemm(a, b, PLUS_TIMES), a @ b)

    @pytest.mark.parametrize("name", ["max_plus", "max_min", "min_max"])
    def test_other_semirings_match_naive(self, rng, name):
        sr = SEMIRINGS[name]
        a = rng.uniform(0, 10, (4, 5))
        b = rng.uniform(0, 10, (5, 3))
        assert np.allclose(get_backend().srgemm(a, b, sr), naive_srgemm(a, b, sr))

    def test_boolean_semiring(self):
        a = np.array([[True, False], [False, True]])
        b = np.array([[False, True], [True, False]])
        out = get_backend().srgemm(a, b, OR_AND)
        assert out.dtype == np.bool_
        assert np.array_equal(out, a @ b)  # boolean matmul

    def test_accumulate_in_place(self, rng):
        a = rng.uniform(0, 10, (3, 4))
        b = rng.uniform(0, 10, (4, 3))
        c = rng.uniform(0, 10, (3, 3))
        expected = np.minimum(c, get_backend().srgemm(a, b))
        got = get_backend().srgemm_accumulate(c, a, b)
        assert got is c
        assert np.allclose(c, expected)

    def test_shape_errors(self, rng):
        with pytest.raises(ValueError):
            get_backend().srgemm(rng.uniform(0, 1, (2, 3)), rng.uniform(0, 1, (4, 2)))
        with pytest.raises(ValueError):
            get_backend().srgemm(rng.uniform(0, 1, 3), rng.uniform(0, 1, (3, 2)))
        with pytest.raises(ValueError):
            get_backend().srgemm_accumulate(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((3, 3)))

    def test_empty_inner_dimension(self):
        out = get_backend().srgemm(np.zeros((2, 0)), np.zeros((0, 3)))
        assert out.shape == (2, 3)
        assert np.all(np.isinf(out))

    @given(finite_matrices())
    @settings(max_examples=25, deadline=None)
    def test_identity_property(self, a):
        """A ⊗ I = A over (min,+)."""
        eye = MIN_PLUS.eye(a.shape[0])
        assert np.allclose(get_backend().srgemm(a, eye), a)
        assert np.allclose(get_backend().srgemm(eye, a), a)

    @given(finite_matrices(4))
    @settings(max_examples=25, deadline=None)
    def test_associativity_property(self, a):
        """(A ⊗ A) ⊗ A = A ⊗ (A ⊗ A)."""
        left = get_backend().srgemm(get_backend().srgemm(a, a), a)
        right = get_backend().srgemm(a, get_backend().srgemm(a, a))
        assert np.allclose(left, right)


class TestPanelUpdates:
    def test_row_update_formula(self, rng):
        diag = rng.uniform(0, 5, (3, 3))
        panel = rng.uniform(0, 5, (3, 7))
        expected = np.minimum(panel, get_backend().srgemm(diag, panel))
        got = get_backend().panel_row_update(panel.copy(), diag)
        assert np.allclose(got, expected)

    def test_col_update_formula(self, rng):
        diag = rng.uniform(0, 5, (3, 3))
        panel = rng.uniform(0, 5, (7, 3))
        expected = np.minimum(panel, get_backend().srgemm(panel, diag))
        got = get_backend().panel_col_update(panel.copy(), diag)
        assert np.allclose(got, expected)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            get_backend().panel_row_update(rng.uniform(0, 1, (3, 7)), rng.uniform(0, 1, (4, 4)))
        with pytest.raises(ValueError):
            get_backend().panel_col_update(rng.uniform(0, 1, (7, 3)), rng.uniform(0, 1, (4, 4)))

    def test_eltwise_plus(self):
        a = np.array([1.0, 5.0])
        b = np.array([3.0, 2.0])
        assert np.array_equal(MIN_PLUS.plus(a, b), [1.0, 2.0])


def closure(w, check_negative_cycles=True):
    """The solver's one-block closure on a copy of ``w``."""
    return fw_inplace(np.array(w, dtype=np.float64), check_negative_cycles=check_negative_cycles)


class TestClosure:
    def test_fw_matches_naive(self, dense24):
        assert np.allclose(closure(dense24), floyd_warshall(dense24))

    def test_fw_matches_scipy(self, sparse30):
        import scipy.sparse.csgraph as csgraph

        assert np.allclose(closure(sparse30), csgraph.floyd_warshall(sparse30))

    def test_fw_inplace_returns_same_array(self, dense24):
        arr = dense24.copy()
        assert fw_inplace(arr) is arr

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            fw_inplace(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            closure_by_squaring(np.zeros((2, 3)))

    def test_squaring_steps(self):
        assert squaring_steps(1) == 0
        assert squaring_steps(2) == 1
        assert squaring_steps(3) == 1
        assert squaring_steps(5) == 2
        assert squaring_steps(768) == 10

    def test_squaring_equals_fw_on_zero_diagonal(self, dense24):
        fw = floyd_warshall(dense24)
        sq = closure_by_squaring(dense24)
        assert np.allclose(fw, sq)

    def test_squaring_includes_identity(self):
        """Even with a nonzero diagonal, squaring yields the reflexive
        closure (diagonal <= 0 contribution from I)."""
        w = np.array([[5.0, 1.0], [1.0, 5.0]])
        out = closure_by_squaring(w)
        assert np.allclose(np.diagonal(out), 0.0)

    def test_squaring_rejects_nonidempotent(self):
        with pytest.raises(ValueError):
            closure_by_squaring(np.ones((2, 2)), semiring=PLUS_TIMES)

    def test_extra_squaring_steps_harmless(self, dense24):
        base = closure_by_squaring(dense24)
        more = closure_by_squaring(dense24, steps=squaring_steps(24) + 3)
        assert np.allclose(base, more)

    def test_negative_cycle_detection(self):
        w = np.array(
            [[0.0, 1.0, INF], [INF, 0.0, -5.0], [2.0, INF, 0.0]]
        )
        with pytest.raises(NegativeCycleError) as exc:
            closure(w)
        assert exc.value.value < 0

    def test_negative_edges_without_cycle_ok(self):
        w = np.array([[0.0, -1.0, INF], [INF, 0.0, -2.0], [INF, INF, 0.0]])
        dist = closure(w)
        assert dist[0, 2] == -3.0

    def test_disconnected_components(self):
        w = np.full((4, 4), INF)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 2.0
        dist = closure(w)
        assert dist[0, 1] == 1.0
        assert dist[0, 2] == INF

    def test_max_min_bottleneck(self):
        """Bottleneck closure: widest-path capacities."""
        cap = np.array(
            [[INF, 3.0, -INF], [-INF, INF, 5.0], [-INF, -INF, INF]]
        )
        out = fw_inplace(cap.copy(), semiring=MAX_MIN)
        assert out[0, 2] == 3.0  # bottleneck of 0->1->2 is min(3, 5)

    @given(finite_matrices(5))
    @settings(max_examples=20, deadline=None)
    def test_fw_idempotent_property(self, w):
        """FW(FW(A)) = FW(A): the closure is a fixed point."""
        np.fill_diagonal(w, 0.0)
        once = closure(w, check_negative_cycles=False)
        twice = closure(once, check_negative_cycles=False)
        assert np.allclose(once, twice)

    @given(finite_matrices(5), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_fw_permutation_equivariant_property(self, w, seed):
        """Relabeling vertices commutes with APSP."""
        np.fill_diagonal(w, 0.0)
        n = w.shape[0]
        perm = np.random.default_rng(seed).permutation(n)
        direct = closure(w, check_negative_cycles=False)[np.ix_(perm, perm)]
        relabeled = closure(w[np.ix_(perm, perm)], check_negative_cycles=False)
        assert np.allclose(direct, relabeled)
