"""Tests for the pluggable SrGemm kernel backends: registry behavior,
cross-backend equivalence over every semiring, alias-safe panel
updates, the byte-budget auto-tuner, and the modeled-cost hook."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.cli import main
from repro.core.blocked import blocked_fw
from repro.errors import BackendUnavailableError, ConfigurationError
from repro.graphs import uniform_random_dense
from repro.machine import SUMMIT, CostModel, SimGPU
from repro.semiring import MIN_PLUS, PLUS_TIMES, SEMIRINGS
from repro.semiring.backends import (
    DEFAULT_KERNEL_BYTE_BUDGET,
    ENV_BACKEND,
    ENV_BYTE_BUDGET,
    KernelBackend,
    TiledBackend,
    available_backends,
    default_backend_name,
    get_backend,
    kernel_byte_budget,
    register_backend,
    registered_backends,
    tune_kernel_tiling,
)
from repro.semiring.reference import naive_srgemm
from repro.sim.engine import Environment

#: Bit-identity holds for comparison-⊕ semirings (min/max are exact
#: under any association); plus_times accumulates float additions in a
#: different order, so only allclose.
EXACT_SEMIRINGS = [name for name, sr in SEMIRINGS.items() if sr.idempotent_plus]

#: Names that were registered once; none may resolve.
RETIRED_BACKENDS = ["tensor", "compiled", "compiled-ms", "cupy", "reference"]

SHAPES = [(1, 1, 1), (3, 5, 2), (8, 8, 8), (2, 7, 9), (4, 6, 0), (17, 3, 11)]


def _naive_accumulate(c, a, b, semiring=MIN_PLUS):
    """``C ⊕ A ⊗ B`` from the triple-loop product oracle."""
    return semiring.plus(c, naive_srgemm(a, b, semiring))


def _operands(m, n, k, semiring, seed=0):
    rng = np.random.default_rng(seed + 13 * m + 7 * n + k)
    a = rng.uniform(0.0, 10.0, (m, k))
    b = rng.uniform(0.0, 10.0, (k, n))
    c = rng.uniform(0.0, 10.0, (m, n))
    if semiring.dtype is not None and np.dtype(semiring.dtype).kind == "b":
        return a > 5, b > 5, c > 5
    return a, b, c


class TestRegistry:
    def test_builtin_registrations(self):
        # Equality on purpose: a backend is added by editing this set,
        # next to the measurement that justifies it (docs/KERNELS.md §2).
        assert set(registered_backends()) == {"tiled", "tiled-f32", "cnative"}

    @pytest.mark.parametrize("name", RETIRED_BACKENDS)
    def test_retired_name_rejected(self, name, monkeypatch, capsys):
        w = np.zeros((8, 8))
        listing = "cnative.*tiled.*tiled-f32"
        with pytest.raises(ConfigurationError, match=listing) as exc:
            repro.solve(w, repro.SolveConfig(block_size=4, kernel_backend=name))
        assert not isinstance(exc.value, BackendUnavailableError)
        assert main(["solve", "--n", "8", "--block", "4", "--kernel-backend", name]) == 2
        assert name in capsys.readouterr().err
        monkeypatch.setenv(ENV_BACKEND, name)
        with pytest.raises(ConfigurationError, match=listing):
            repro.solve(w, repro.SolveConfig(block_size=4))

    def test_backends_listing_flags_unregistered_env_name(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_BACKEND, "tensor")
        assert main(["backends"]) == 2
        out, err = capsys.readouterr()
        rows = out.splitlines()[: len(registered_backends())]
        assert [line.split()[0] for line in rows] == sorted(registered_backends())
        assert ENV_BACKEND in err and "tensor" in err
        monkeypatch.setenv(ENV_BACKEND, "tiled")
        assert main(["backends"]) == 0
        assert "* tiled " in capsys.readouterr().out

    def test_default_follows_cnative_availability(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        cnative = registered_backends()["cnative"]
        want = "cnative" if cnative.available else "tiled"
        assert default_backend_name() == want
        assert get_backend().name == want
        monkeypatch.setattr(cnative, "available", True)
        assert default_backend_name() == "cnative"
        monkeypatch.setattr(cnative, "available", False)
        assert default_backend_name() == "tiled"

    def test_default_solve_without_a_compiler(self, monkeypatch):
        # A host with no C compiler resolves an unnamed backend to tiled,
        # silently, with the bits the default gives where cnative runs.
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        w = uniform_random_dense(48, seed=2)
        config = repro.SolveConfig(block_size=12, n_nodes=1, ranks_per_node=4)
        cnative = registered_backends()["cnative"]
        want = repro.solve(w, config.replace(kernel_backend=default_backend_name())).dist
        monkeypatch.setattr(cnative, "available", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # An unavailable cnative would raise BackendUnavailableError.
            got = repro.solve(w, config)
        np.testing.assert_array_equal(got.dist, want)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "tiled")
        assert default_backend_name() == "tiled"
        assert get_backend().name == "tiled"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError, match="cnative.*tiled.*tiled-f32"):
            get_backend("no-such-backend")

    def test_instance_passes_through(self):
        inst = TiledBackend(byte_budget=1 << 16, name="custom-budget")
        assert get_backend(inst) is inst

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(TiledBackend())

    def test_unnamed_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend(KernelBackend())

    def test_unavailable_backends_report_reasons(self):
        # Every registered-but-unavailable backend must say why, so the
        # `backends` CLI listing is actionable.
        for name, backend in registered_backends().items():
            if not backend.available:
                assert backend.unavailable_reason, name

    def test_kernels_module_honors_backend_argument(self):
        # The flat kernel module is gone: a product is asked of a backend.
        a, b, _ = _operands(4, 5, 3, MIN_PLUS)
        tld = get_backend("tiled").srgemm(a, b)
        np.testing.assert_array_equal(tld, naive_srgemm(a, b))


class TestBackendEquivalence:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("sr_name", sorted(SEMIRINGS))
    def test_accumulate_matches_reference(self, sr_name, shape):
        sr = SEMIRINGS[sr_name]
        m, n, k = shape
        a, b, c = _operands(m, n, k, sr)
        expected = _naive_accumulate(c, a, b, sr)
        for name, backend in available_backends().items():
            got = backend.srgemm_accumulate(c.copy(), a, b, semiring=sr)
            if backend.rtol == 0.0 and sr.idempotent_plus:
                np.testing.assert_array_equal(got, expected, err_msg=f"{name}/{sr_name}")
            else:
                rtol = max(backend.rtol, 1e-9)
                np.testing.assert_allclose(got, expected, rtol=rtol, err_msg=f"{name}/{sr_name}")

    @pytest.mark.parametrize("sr_name", sorted(SEMIRINGS))
    def test_srgemm_matches_reference(self, sr_name):
        sr = SEMIRINGS[sr_name]
        a, b, _ = _operands(6, 7, 5, sr)
        expected = naive_srgemm(a, b, sr)
        for name, backend in available_backends().items():
            got = backend.srgemm(a, b, semiring=sr)
            rtol = max(backend.rtol, 1e-9)
            if backend.rtol == 0.0 and sr.idempotent_plus:
                np.testing.assert_array_equal(got, expected, err_msg=name)
            else:
                np.testing.assert_allclose(got, expected, rtol=rtol, err_msg=name)

    def test_plus_times_allclose_only(self):
        # Non-idempotent ⊕: association order differs between the
        # triple loop and the per-rank-1 tiled updates, so the contract
        # is allclose, not bit identity.
        a, b, c = _operands(6, 6, 6, PLUS_TIMES)
        ref = _naive_accumulate(c, a, b, PLUS_TIMES)
        tld = get_backend("tiled").srgemm_accumulate(c.copy(), a, b, semiring=PLUS_TIMES)
        np.testing.assert_allclose(tld, ref, rtol=1e-12)

    def test_f32_backend_casts_and_bounds_error(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 100, (32, 32))
        b = rng.uniform(0, 100, (32, 32))
        f32 = get_backend("tiled-f32")
        assert f32.compute_dtype == np.float32
        assert f32.rtol == 1e-5
        ref = naive_srgemm(a, b)
        got = f32.srgemm(a, b)
        assert got.dtype == np.float64  # accumulator keeps operand dtype
        np.testing.assert_allclose(got, ref, rtol=f32.rtol)

    def test_f32_backend_leaves_bool_semirings_exact(self):
        a, b, c = _operands(5, 5, 5, SEMIRINGS["or_and"])
        ref = _naive_accumulate(c, a, b, SEMIRINGS["or_and"])
        got = get_backend("tiled-f32").srgemm_accumulate(c.copy(), a, b, semiring=SEMIRINGS["or_and"])
        np.testing.assert_array_equal(got, ref)

    def test_explicit_k_chunk_honored(self):
        a, b, c = _operands(9, 9, 9, MIN_PLUS)
        for backend in available_backends().values():
            full = backend.srgemm_accumulate(c.copy(), a, b)
            chunked = backend.srgemm_accumulate(c.copy(), a, b, k_chunk=2)
            np.testing.assert_array_equal(full, chunked)

    def test_tiny_byte_budget_still_correct(self):
        # Force many tiny tiles/stripes; results must not change.
        a, b, c = _operands(13, 11, 7, MIN_PLUS)
        small = TiledBackend(byte_budget=256, name="tiled-tiny")
        expected = _naive_accumulate(c, a, b)
        np.testing.assert_array_equal(small.srgemm_accumulate(c.copy(), a, b), expected)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**16),
    )
    def test_property_blocked_fw_backend_invariant(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 10.0, (n, n))
        w[rng.uniform(size=(n, n)) < 0.3] = np.inf
        np.fill_diagonal(w, 0.0)
        b = max(1, n // 2)
        expected = blocked_fw(w, b, backend="tiled", check_negative_cycles=False)
        for name, backend in available_backends().items():
            got = blocked_fw(w, b, backend=name, check_negative_cycles=False)
            if backend.rtol == 0.0:
                np.testing.assert_array_equal(got, expected, err_msg=name)
            else:
                np.testing.assert_allclose(got, expected, rtol=backend.rtol, err_msg=name)


class TestPanelUpdates:
    @pytest.mark.parametrize("sr_name", sorted(SEMIRINGS))
    def test_panel_row_update_matches_formula(self, sr_name):
        sr = SEMIRINGS[sr_name]
        _, panel, _ = _operands(1, 17, 6, sr, seed=3)
        panel = np.ascontiguousarray(panel)  # (6, 17)
        a, _, _ = _operands(6, 1, 6, sr, seed=4)
        diag = np.ascontiguousarray(a.reshape(6, 6))
        want = sr.plus(panel, naive_srgemm(diag, panel, sr))
        for name, backend in available_backends().items():
            got = backend.panel_row_update(panel.copy(), diag, semiring=sr)
            if backend.rtol == 0.0 and sr.idempotent_plus:
                np.testing.assert_array_equal(got, want, err_msg=name)
            else:
                np.testing.assert_allclose(got, want, rtol=max(backend.rtol, 1e-9), err_msg=name)

    @pytest.mark.parametrize("sr_name", sorted(SEMIRINGS))
    def test_panel_col_update_matches_formula(self, sr_name):
        sr = SEMIRINGS[sr_name]
        _, panel, _ = _operands(1, 17, 6, sr, seed=5)
        panel = np.ascontiguousarray(panel.reshape(17, 6))
        a, _, _ = _operands(6, 1, 6, sr, seed=6)
        diag = np.ascontiguousarray(a.reshape(6, 6))
        want = sr.plus(panel, naive_srgemm(panel, diag, sr))
        for name, backend in available_backends().items():
            got = backend.panel_col_update(panel.copy(), diag, semiring=sr)
            if backend.rtol == 0.0 and sr.idempotent_plus:
                np.testing.assert_array_equal(got, want, err_msg=name)
            else:
                np.testing.assert_allclose(got, want, rtol=max(backend.rtol, 1e-9), err_msg=name)

    def test_stripe_snapshot_matches_full_copy(self):
        # A budget so small every kernel tile is one column: the product
        # against the whole-panel copy must still equal the formula.
        rng = np.random.default_rng(11)
        panel = rng.uniform(0, 10, (8, 23))
        diag = rng.uniform(0, 10, (8, 8))
        tiny = TiledBackend(byte_budget=2 * 8 * panel.dtype.itemsize, name="tiled-stripe1")
        want = MIN_PLUS.plus(panel, naive_srgemm(diag, panel))
        np.testing.assert_array_equal(tiny.panel_row_update(panel.copy(), diag), want)
        panel_c = np.ascontiguousarray(panel.T)
        want_c = MIN_PLUS.plus(panel_c, naive_srgemm(panel_c, diag))
        np.testing.assert_array_equal(tiny.panel_col_update(panel_c.copy(), diag), want_c)

    def test_shape_validation(self):
        backend = get_backend("tiled")
        with pytest.raises(ValueError):
            backend.panel_row_update(np.zeros((4, 6)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            backend.panel_col_update(np.zeros((6, 4)), np.zeros((3, 3)))


class TestByteBudget:
    def test_default_reproduces_legacy_k_chunk(self):
        # 128 x 128 float64 blocks under the default 8 MiB budget give
        # exactly the historical 64-deep k slab.
        t = tune_kernel_tiling(128, 128, 128, 8)
        assert t.k_chunk == 64
        assert t.byte_budget == DEFAULT_KERNEL_BYTE_BUDGET

    def test_reference_slab_within_budget(self):
        # The (m, k_chunk, n) slab the path kernel materializes.
        for m, n, k in [(64, 64, 64), (256, 256, 256), (1000, 3, 77), (5, 999, 2)]:
            for itemsize in (4, 8):
                t = tune_kernel_tiling(m, n, k, itemsize)
                assert m * t.k_chunk * n * itemsize <= t.byte_budget or t.k_chunk == 1
                assert 1 <= t.k_chunk <= max(1, k)

    def test_scratch_tile_within_half_budget(self):
        for m, n, k in [(256, 256, 256), (2048, 2048, 16), (3, 10000, 4)]:
            t = tune_kernel_tiling(m, n, k, 8)
            assert t.tile_m * t.tile_n * 8 <= t.byte_budget // 2

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv(ENV_BYTE_BUDGET, str(1 << 14))
        assert kernel_byte_budget() == 1 << 14
        t = tune_kernel_tiling(256, 256, 256, 8)
        assert t.byte_budget == 1 << 14
        assert t.tile_m * t.tile_n * 8 <= (1 << 14) // 2

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            kernel_byte_budget(0)
        with pytest.raises(ConfigurationError, match="positive"):
            kernel_byte_budget(-4)

    @pytest.mark.parametrize("raw", ["abc", "0", "1.5"])
    def test_env_var_budget_malformed_is_configuration_error(self, raw, monkeypatch, capsys):
        # A configuration error (exit 2) naming the variable and the
        # value - from the library, `solve` and `tune` alike, never an
        # InternalError dump or a traceback.
        monkeypatch.setenv(ENV_BYTE_BUDGET, raw)
        with pytest.raises(ConfigurationError, match=ENV_BYTE_BUDGET):
            kernel_byte_budget()
        with pytest.raises(ConfigurationError, match=ENV_BYTE_BUDGET):
            repro.solve(np.zeros((8, 8)), repro.SolveConfig(block_size=4))
        for argv in (
            ["solve", "--n", "32"],
            ["tune", "--n", "3000", "--nodes", "2", "--ranks-per-node", "2"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert ENV_BYTE_BUDGET in err and raw in err

    def test_compute_width_doubles_chunk(self):
        # Halving the compute itemsize doubles the k-slab the same
        # budget can hold (the float32 bandwidth saving).
        f64 = tune_kernel_tiling(128, 128, 512, 8)
        f32 = tune_kernel_tiling(128, 128, 512, 4)
        assert f32.k_chunk == 2 * f64.k_chunk

    def test_backend_compute_itemsize(self):
        a64 = np.zeros((2, 2))
        a32 = np.zeros((2, 2), dtype=np.float32)
        assert get_backend("tiled").compute_itemsize(a64, a64) == 8
        assert get_backend("tiled").compute_itemsize(a32, a32) == 4
        # An advertised compute dtype wins over the operand dtype.
        assert get_backend("tiled-f32").compute_itemsize(a64, a64) == 4

    def test_peak_temporary_under_budget(self):
        # The acceptance criterion: at b=256 float64 the tiled kernel's
        # peak temporary allocation stays under the byte budget (numpy
        # data blocks are tracked by tracemalloc via PyTraceMalloc_Track).
        budget = 1 << 20  # 1 MiB, well below the 256x256x8x64 slab
        backend = TiledBackend(byte_budget=budget, name="tiled-traced")
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 10, (256, 256))
        b = rng.uniform(0, 10, (256, 256))
        c = rng.uniform(0, 10, (256, 256))
        backend.srgemm_accumulate(c, a, b)  # warm any lazy allocations
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            backend.srgemm_accumulate(c, a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= budget, f"peak temporary {peak - base} exceeds budget {budget}"

    def test_reference_exceeds_small_budget_baseline(self):
        # Sanity check that the measurement above is meaningful: the
        # broadcast formulation, one full-k (m, k, n) slab, blows through
        # the same budget.
        budget = 1 << 20
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 10, (256, 256))
        b = rng.uniform(0, 10, (256, 256))
        c = rng.uniform(0, 10, (256, 256))
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            MIN_PLUS.plus(c, MIN_PLUS.plus_reduce(a[:, :, None] + b[None, :, :], axis=1), out=c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base > budget


class TestPathKernels:
    def _paths_case(self, seed=0, n=24, b=6):
        rng = np.random.default_rng(seed)
        w = rng.uniform(1.0, 10.0, (n, n))
        w[rng.uniform(size=(n, n)) < 0.4] = np.inf
        np.fill_diagonal(w, 0.0)
        return w, b

    def test_one_rank_paths_backend_invariant(self):
        w, b = self._paths_case()

        def one_rank(name):
            res = repro.solve(w, block_size=b, n_nodes=1, ranks_per_node=1,
                              track_paths=True, kernel_backend=name)
            return res.dist, res.next_hops

        dist_ref, nxt_ref = one_rank("tiled")
        for name in available_backends():
            dist, nxt = one_rank(name)
            # Hop pointers must be bitwise invariant: every backend
            # derives k-chunk boundaries from the shared tuner and path
            # numerics never take the reduced-precision route.
            np.testing.assert_array_equal(dist, dist_ref, err_msg=name)
            np.testing.assert_array_equal(nxt, nxt_ref, err_msg=name)

    def test_paths_never_use_f32(self):
        f32 = get_backend("tiled-f32")
        rng = np.random.default_rng(3)
        c = rng.uniform(5, 10, (7, 7))
        c_nxt = np.full((7, 7), -1, dtype=np.int64)
        a = rng.uniform(0, 5, (7, 4))
        a_nxt = rng.integers(0, 7, (7, 4)).astype(np.int64)
        b = rng.uniform(0, 5, (4, 7))
        ref = get_backend("tiled")
        c1, n1 = c.copy(), c_nxt.copy()
        c2, n2 = c.copy(), c_nxt.copy()
        f32.srgemm_accumulate_paths(c1, n1, a, a_nxt, b)
        ref.srgemm_accumulate_paths(c2, n2, a, a_nxt, b)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(n1, n2)


class TestModeledCostScale:
    def test_kernel_duration_scales(self):
        cost = CostModel(SUMMIT)
        env = Environment()
        gpu = SimGPU(env, SUMMIT.node.gpu, cost)
        s = gpu.stream()
        s.kernel(128, 128, 128, label="base")
        env.run()
        base = env.now
        env2 = Environment()
        gpu2 = SimGPU(env2, SUMMIT.node.gpu, cost)
        s2 = gpu2.stream()
        s2.kernel(128, 128, 128, label="scaled", cost_scale=2.0)
        env2.run()
        assert env2.now == pytest.approx(2.0 * base)

    def test_nonpositive_scale_rejected(self):
        cost = CostModel(SUMMIT)
        env = Environment()
        gpu = SimGPU(env, SUMMIT.node.gpu, cost)
        with pytest.raises(ValueError):
            gpu.stream().kernel(8, 8, 8, cost_scale=0.0)

    def test_shipped_backends_model_paper_kernel(self):
        # All shipped backends model the same fp32 cuASR kernel the
        # cost model is calibrated against - the scale must stay 1.0 or
        # every calibrated benchmark assertion in the repo shifts.
        for name, backend in registered_backends().items():
            assert backend.modeled_cost_scale == 1.0, name


class TestDriverIntegration:
    def test_solver_config_resolves_backend(self):
        from repro import SolveConfig
        from repro.core.driver import MachineHandles, SolveWorld, open_solve, plan_run
        from repro.machine import SUMMIT

        rp = plan_run(
            np.zeros((16, 16)),
            SolveConfig(block_size=8, n_nodes=1, ranks_per_node=4, kernel_backend="tiled"),
            SUMMIT,
        )
        ctx = open_solve(SolveWorld(MachineHandles.create(SUMMIT, 1)), rp)
        assert ctx.backend.name == "tiled"

    def test_apsp_backend_equivalence(self):
        from repro import solve
        from repro.graphs import uniform_random_dense

        w = uniform_random_dense(48, seed=2)
        ref = solve(w, block_size=12, n_nodes=1, ranks_per_node=4, validate=True)
        tld = solve(
            w, block_size=12, n_nodes=1, ranks_per_node=4, validate=True,
            kernel_backend="tiled",
        )
        np.testing.assert_array_equal(ref.dist, tld.dist)

    def test_apsp_unknown_backend_raises(self):
        from repro import solve
        from repro.graphs import uniform_random_dense

        w = uniform_random_dense(16, seed=0)
        with pytest.raises(ConfigurationError):
            solve(w, block_size=8, n_nodes=1, ranks_per_node=4, kernel_backend="nope")

    def test_oog_plan_takes_backend(self):
        from repro.core.oog_srgemm import oog_srgemm_plan, run_oog_pipeline
        from repro.machine.host import HostCpu

        rng = np.random.default_rng(4)
        a = rng.uniform(0, 10, (12, 12))
        b = rng.uniform(0, 10, (12, 12))
        expected = MIN_PLUS.plus(np.zeros((12, 12)), naive_srgemm(a, b))
        for name in available_backends():
            c = np.zeros((12, 12))
            env = Environment()
            cost = CostModel(SUMMIT)
            gpu = SimGPU(env, SUMMIT.node.gpu, cost)
            host = HostCpu(env, SUMMIT.node, cost)
            tiles = oog_srgemm_plan(a, b, c, mx=5, nx=7, backend=name)
            env.process(run_oog_pipeline(env, gpu, host, tiles, n_streams=2))
            env.run()
            backend = get_backend(name)
            if backend.rtol == 0.0:
                np.testing.assert_array_equal(c, expected, err_msg=name)
            else:
                np.testing.assert_allclose(c, expected, rtol=backend.rtol, err_msg=name)
