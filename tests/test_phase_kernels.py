"""The kernel waist - ``srgemm_grid(phase=...)`` and ``fw_closure`` -
and wrapper composition.

The blocked schedule runs three Floyd-Warshall phases - DiagUpdate,
PanelUpdate and the MinPlus outer product - through one grid entry
whose ``phase`` is a label (the metered family ``kernel.srgemm_{phase}``).
For comparison-⊕ semirings a grid of every phase, on every backend, must
be bit-identical to the reference fused kernel, and the observability /
verification wrappers (:class:`MeteredBackend`,
:class:`ChecksummedBackend`) must compose over it transparently, alone
or stacked.

The grid's contract is that it is *unobservable*: every backend, and
every wrapper stack, must produce the bits (and the counters) of the
loop of one-tile grids it stands for, whichever path - one native call
or the fallback loop - the backend takes for a given set of operands.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.context import panel_grid
from repro.graphs import banded_graph, ring_of_cliques
from repro.obs.metered import MeteredBackend
from repro.obs.metrics import MetricsRegistry
from repro.semiring import MIN_PLUS, SEMIRINGS
from repro.semiring.backends import (
    CNativeBackend,
    ReferenceBackend,
    TiledBackend,
    available_backends,
    get_backend,
)
from repro.semiring.backends import cnative as cnative_mod
from repro.semiring.backends.base import GRID_PHASES, KernelBackend
from repro.semiring.closure import closure_by_squaring, floyd_warshall, fw_inplace
from repro.verify.backend import ChecksummedBackend
from repro.verify.runtime import VerifyRuntime

#: Kernel families: a one-tile grid of each phase, and of the grid's
#: default phase (``srgemm_accumulate``, the per-tile kernel it runs).
PHASES = ["srgemm_accumulate", "srgemm_diag", "srgemm_panel", "srgemm_outer"]

#: The names kept on every backend as one-tile grids, by phase.
KEPT_NAMES = {
    "srgemm_diag": "diag",
    "srgemm_panel": "panel",
    "srgemm_outer": "outer",
    "panel_row_update": "panel",
    "panel_col_update": "panel",
}

#: Comparison-⊕ semirings: exact under any association, so bit identity
#: is required from every backend whose rtol is 0.
EXACT_SEMIRINGS = sorted(name for name, sr in SEMIRINGS.items() if sr.idempotent_plus)


def _operands(m, n, k, semiring, seed=0):
    rng = np.random.default_rng(seed + 11 * m + 5 * n + k)
    a = rng.uniform(0.0, 10.0, (m, k))
    b = rng.uniform(0.0, 10.0, (k, n))
    c = rng.uniform(0.0, 10.0, (m, n))
    if semiring.dtype is not None and np.dtype(semiring.dtype).kind == "b":
        return a > 5, b > 5, c > 5
    return a, b, c


def _product(backend, family, c, a, b, semiring=MIN_PLUS):
    """``C ← C ⊕ A ⊗ B`` in place as a one-tile grid of ``family``'s
    phase (the default phase for ``srgemm_accumulate``); returns ``c``."""
    phase = family.removeprefix("srgemm_")
    kwargs = {} if phase == "accumulate" else {"phase": phase}
    backend.srgemm_grid([[c]], [a], [b], semiring=semiring, **kwargs)
    return c


def _sparse_block(n, seed=0):
    """A weight block with inf entries — the shape real solves feed in."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(1.0, 10.0, (n, n))
    w[rng.uniform(size=(n, n)) < 0.35] = np.inf
    np.fill_diagonal(w, 0.0)
    return w


class TestPhaseEquivalence:
    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("sr_name", EXACT_SEMIRINGS)
    def test_backend_phase_matrix_matches_reference(self, sr_name, phase):
        sr = SEMIRINGS[sr_name]
        a, b, c = _operands(17, 13, 9, sr)
        expected = get_backend("reference").srgemm_accumulate(c.copy(), a, b, semiring=sr)
        for name, backend in available_backends().items():
            got = _product(backend, phase, c.copy(), a, b, semiring=sr)
            if backend.rtol == 0.0:
                np.testing.assert_array_equal(got, expected, err_msg=f"{name}.{phase}")
            else:
                np.testing.assert_allclose(
                    got, expected, rtol=backend.rtol, err_msg=f"{name}.{phase}"
                )

    @pytest.mark.parametrize("phase", PHASES)
    def test_phase_entries_handle_inf(self, phase):
        # Tropical identity element: unreachable entries must survive
        # every specialized code path (no fast-math reassociation).
        w = _sparse_block(24, seed=3)
        expected = get_backend("reference").srgemm_accumulate(w.copy(), w, w)
        for name, backend in available_backends().items():
            if backend.rtol != 0.0:
                continue
            got = _product(backend, phase, w.copy(), w, w)
            np.testing.assert_array_equal(got, expected, err_msg=f"{name}.{phase}")

    @pytest.mark.parametrize("phase", PHASES)
    def test_phase_entries_honor_k_chunk(self, phase):
        # A grid of any phase is the per-tile kernel at any k_chunk.
        a, b, c = _operands(9, 9, 9, MIN_PLUS)
        for name, backend in available_backends().items():
            full = _product(backend, phase, c.copy(), a, b)
            chunked = backend.srgemm_accumulate(c.copy(), a, b, k_chunk=2)
            np.testing.assert_array_equal(full, chunked, err_msg=f"{name}.{phase}")

    def test_closure_by_squaring_backend_invariant(self):
        # The squaring chain is diag-phase grids; every exact backend
        # must reproduce the reference chain bit-for-bit.  (FW itself
        # associates path sums differently, so it is only an allclose
        # oracle here.)
        w = _sparse_block(20, seed=7)
        expected = closure_by_squaring(w, backend="reference")
        np.testing.assert_allclose(expected, floyd_warshall(w), rtol=1e-12)
        for name, backend in available_backends().items():
            got = closure_by_squaring(w, backend=name)
            if backend.rtol == 0.0:
                np.testing.assert_array_equal(got, expected, err_msg=name)
            else:
                np.testing.assert_allclose(got, expected, rtol=backend.rtol, err_msg=name)


def _wrap(kind, inner):
    if kind == "checksummed":
        return ChecksummedBackend(VerifyRuntime("checksum", inner, semiring=MIN_PLUS))
    if kind == "metered":
        return MeteredBackend(MetricsRegistry(), inner)
    if kind == "stacked":
        # Metering outside, checksums inside: the composition every
        # `--verify checksum` run with metrics enabled actually builds.
        return MeteredBackend(
            MetricsRegistry(), ChecksummedBackend(VerifyRuntime("checksum", inner))
        )
    raise AssertionError(kind)


class TestWrapperComposition:
    @pytest.mark.parametrize("wrapper", ["checksummed", "metered", "stacked"])
    @pytest.mark.parametrize("phase", PHASES)
    def test_wrapped_backends_stay_bit_exact(self, wrapper, phase):
        w = _sparse_block(16, seed=1)
        a, b, c = _operands(16, 16, 16, MIN_PLUS, seed=2)
        expected_uv = get_backend("reference").srgemm_accumulate(c.copy(), a, b)
        expected_inf = get_backend("reference").srgemm_accumulate(w.copy(), w, w)
        for name, inner in available_backends().items():
            if inner.rtol != 0.0:
                continue  # f32 path: allclose-only contract, checked below
            wrapped = _wrap(wrapper, inner)
            got = _product(wrapped, phase, c.copy(), a, b)
            np.testing.assert_array_equal(got, expected_uv, err_msg=f"{wrapper}({name}).{phase}")
            got = _product(wrapped, phase, w.copy(), w, w)
            np.testing.assert_array_equal(got, expected_inf, err_msg=f"{wrapper}({name}).{phase}")

    @pytest.mark.parametrize("wrapper", ["checksummed", "metered", "stacked"])
    def test_wrapped_f32_stays_allclose(self, wrapper):
        inner = get_backend("tiled-f32")
        a, b, c = _operands(16, 16, 16, MIN_PLUS, seed=4)
        expected = get_backend("reference").srgemm_accumulate(c.copy(), a, b)
        wrapped = _wrap(wrapper, inner)
        for phase in PHASES:
            got = _product(wrapped, phase, c.copy(), a, b)
            np.testing.assert_allclose(got, expected, rtol=inner.rtol, err_msg=phase)

    def test_wrappers_preserve_identity_contract(self):
        inner = get_backend("tiled")
        metered = _wrap("metered", inner)
        checked = _wrap("checksummed", inner)
        assert metered.name == inner.name  # metering is transparent
        assert checked.name == f"checksummed({inner.name})"
        for wrapped in (metered, checked):
            assert wrapped.compute_dtype == inner.compute_dtype
            assert wrapped.rtol == inner.rtol
            assert wrapped.modeled_cost_scale == inner.modeled_cost_scale
            assert wrapped.byte_budget == inner.byte_budget

    def test_metered_phase_counter_families(self):
        reg = MetricsRegistry()
        metered = MeteredBackend(reg, get_backend("reference"))
        a, b, c = _operands(8, 8, 8, MIN_PLUS)
        metered.srgemm(a, b)  # the fresh product: a one-tile outer grid
        for phase in PHASES[1:] + ["srgemm_outer"]:
            _product(metered, phase, c.copy(), a, b)
        flat = reg.flat()
        # Aggregate family counts every product...
        assert flat["kernel.srgemm.calls"] == 5
        # ...phase families additionally split them, by the grid's phase.
        assert flat["kernel.srgemm_diag.calls"] == 1
        assert flat["kernel.srgemm_panel.calls"] == 1
        assert flat["kernel.srgemm_outer.calls"] == 3
        assert flat["kernel.flops"] == 5 * 2.0 * 8 * 8 * 8
        assert flat["kernel.srgemm_outer.flops"] == 3 * 2.0 * 8 * 8 * 8
        # Physical wall time accrues (the profile sweep's speed signal).
        assert flat["kernel.wall_seconds"] > 0.0

    def test_checksummed_phase_entries_verified(self):
        runtime = VerifyRuntime("checksum", get_backend("tiled"), semiring=MIN_PLUS)
        wrapped = ChecksummedBackend(runtime)
        a, b, c = _operands(12, 12, 12, MIN_PLUS, seed=9)
        for phase in PHASES:
            _product(wrapped, phase, c.copy(), a, b)
        assert runtime.counters["ops_checked"] == len(PHASES)
        assert runtime.counters.get("sdc_detected", 0) == 0

    @pytest.mark.parametrize("wrapper", [None, "checksummed", "metered", "stacked"])
    def test_kept_names_are_one_tile_grids(self, wrapper):
        """The five names ``benchmarks/e2e`` reads off a backend are the
        one-tile grid of their phase (a panel update against a copy of
        the panel), bits and counters, on every backend, bare or wrapped."""
        diag, _, _ = _operands(8, 8, 8, MIN_PLUS, seed=6)
        a, b, c = _operands(8, 8, 8, MIN_PLUS, seed=7)
        for backend_name, inner in available_backends().items():
            for name, phase in KEPT_NAMES.items():
                kept = inner if wrapper is None else _wrap(wrapper, inner)
                grid = inner if wrapper is None else _wrap(wrapper, inner)
                got, want = c.copy(), c.copy()
                if name == "panel_row_update":
                    kept.panel_row_update(got, diag)
                    grid.srgemm_grid([[want]], [diag], [want.copy()], phase=phase)
                elif name == "panel_col_update":
                    kept.panel_col_update(got, diag)
                    grid.srgemm_grid([[want]], [want.copy()], [diag], phase=phase)
                else:
                    assert getattr(kept, name)(got, a, b) is got
                    grid.srgemm_grid([[want]], [a], [b], phase=phase)
                msg = f"{wrapper}({backend_name}).{name}"
                np.testing.assert_array_equal(got, want, err_msg=msg)
                if wrapper is not None:
                    assert TestGridWrapperComposition._counters(kept) == (
                        TestGridWrapperComposition._counters(grid)
                    ), msg


# ---------------------------------------------------------------------------
# The grid entry
# ---------------------------------------------------------------------------

#: The semirings ``cnative`` compiles (the grid's one-call path).
COMPILED_SEMIRINGS = ["min_plus", "max_plus", "max_min", "min_max"]
GRID_SHAPES = [(3, 4), (1, 5), (5, 1), (1, 1)]


def _grid(nr, nc, dtype=np.float64, b=8, seed=0, inf=True):
    """``(c_tiles, a_rows, b_cols)`` of b x b tiles, a third of the
    entries ``inf`` (the identity real solves feed in)."""
    rng = np.random.default_rng([seed, nr, nc])

    def tile():
        t = rng.uniform(0.0, 10.0, (b, b))
        if inf:
            t[rng.uniform(size=(b, b)) < 0.3] = np.inf
        return t.astype(dtype)

    return (
        [[tile() for _ in range(nc)] for _ in range(nr)],
        [tile() for _ in range(nr)],
        [tile() for _ in range(nc)],
    )


def _copy_tiles(c_tiles):
    return [[c.copy() for c in c_row] for c_row in c_tiles]


def _tile_loop(backend, c_tiles, a_rows, b_cols, semiring, phase):
    """The loop of one-tile grids a grid call stands for; returns fresh
    tiles."""
    out = _copy_tiles(c_tiles)
    for a, c_row in zip(a_rows, out):
        for b, c in zip(b_cols, c_row):
            backend.srgemm_grid([[c]], [a], [b], semiring=semiring, phase=phase)
    return out


def _assert_tiles_equal(got, want, msg):
    assert len(got) == len(want), msg
    for g_row, w_row in zip(got, want):
        assert len(g_row) == len(w_row), msg
        for g, w in zip(g_row, w_row):
            np.testing.assert_array_equal(g, w, err_msg=msg)


def _grid_sizes(monkeypatch, backend):
    """Records the tile count of every grid call on ``backend``."""
    sizes = []
    grid_entry = backend.srgemm_grid

    def spy(c_tiles, *args, **kwargs):
        sizes.append(sum(len(c_row) for c_row in c_tiles))
        return grid_entry(c_tiles, *args, **kwargs)

    monkeypatch.setattr(backend, "srgemm_grid", spy)
    return sizes


class _CallSpy:
    """Counts calls through one backend entry (instance-level patch)."""

    def __init__(self, monkeypatch, backend, entry):
        self.calls = 0
        inner = getattr(backend, entry)

        def spy(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(backend, entry, spy)


class TestGridEntry:
    @pytest.mark.parametrize("phase", GRID_PHASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("sr_name", COMPILED_SEMIRINGS)
    def test_grid_matches_per_tile_loop(self, sr_name, dtype, phase):
        sr = SEMIRINGS[sr_name]
        reference = get_backend("reference")
        for nr, nc in GRID_SHAPES:
            c_tiles, a_rows, b_cols = _grid(nr, nc, dtype)
            want_ref = _tile_loop(reference, c_tiles, a_rows, b_cols, sr, phase)
            for name, backend in available_backends().items():
                msg = f"{name} {sr_name} {np.dtype(dtype).name} {phase} {nr}x{nc}"
                got = _copy_tiles(c_tiles)
                assert backend.srgemm_grid(got, a_rows, b_cols, semiring=sr, phase=phase) is got
                # Unobservable: the bits of this backend's own tile loop...
                _assert_tiles_equal(
                    got, _tile_loop(backend, c_tiles, a_rows, b_cols, sr, phase), msg
                )
                # ...which for exact backends are the reference's bits.
                if backend.rtol == 0.0:
                    _assert_tiles_equal(got, want_ref, msg)

    @pytest.mark.parametrize("nr,nc", [(0, 0), (0, 3), (3, 0)])
    def test_empty_grids_are_noops(self, nr, nc):
        _, a_rows, b_cols = _grid(nr, nc)
        c_tiles = [[] for _ in range(nr)]
        for name, backend in available_backends().items():
            assert backend.srgemm_grid(c_tiles, a_rows, b_cols) == c_tiles, name
        reg = MetricsRegistry()
        MeteredBackend(reg, get_backend("reference")).srgemm_grid(c_tiles, a_rows, b_cols)
        assert not any(key.startswith("kernel.") for key in reg.flat())  # as the empty loop

    def test_uncovered_semiring_takes_the_loop(self):
        # plus_times is not compiled: only allclose, and only via the loop.
        sr = SEMIRINGS["plus_times"]
        c_tiles, a_rows, b_cols = _grid(2, 3, inf=False)
        want = _tile_loop(get_backend("reference"), c_tiles, a_rows, b_cols, sr, "outer")
        for name, backend in available_backends().items():
            got = backend.srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols, semiring=sr)
            for g_row, w_row in zip(got, want):
                for g, w in zip(g_row, w_row):
                    np.testing.assert_allclose(g, w, rtol=max(backend.rtol, 1e-12), err_msg=name)

    def test_grid_structure_is_validated(self):
        c_tiles, a_rows, b_cols = _grid(2, 3)
        for name, backend in available_backends().items():
            with pytest.raises(ValueError, match="tile rows"):
                backend.srgemm_grid(c_tiles[:1], a_rows, b_cols)
            with pytest.raises(ValueError, match="column operands"):
                backend.srgemm_grid([row[:2] for row in c_tiles], a_rows, b_cols)
            with pytest.raises(ValueError, match="unknown grid phase"):
                backend.srgemm_grid(c_tiles, a_rows, b_cols, phase="fused")

    def test_mismatched_tile_shape_raises_like_validate_accumulate(self):
        c_tiles, a_rows, b_cols = _grid(2, 3)
        c_tiles[1][2] = np.zeros((8, 7))
        for name, backend in available_backends().items():
            with pytest.raises(ValueError, match="accumulator shape"):
                backend.srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols)
        c_tiles, a_rows, b_cols = _grid(2, 3)
        b_cols[1] = np.zeros((7, 8))
        for name, backend in available_backends().items():
            with pytest.raises(ValueError, match="inner dimensions differ"):
                backend.srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols)


needs_cnative = pytest.mark.skipif(
    "cnative" not in available_backends(), reason="no C compiler on PATH"
)


#: A byte budget below one 8 x 8 panel block: the tiled kernels then cut
#: each block into tiles narrower than the block.
SUB_PANEL_BUDGET = 256

_BUDGETED = {
    "reference": lambda budget: ReferenceBackend(byte_budget=budget),
    "tiled": lambda budget: TiledBackend(byte_budget=budget),
    "tiled-f32": lambda budget: TiledBackend(compute_dtype=np.float32, byte_budget=budget),
    "cnative": lambda budget: CNativeBackend(byte_budget=budget),
}


class TestPanelGrid:
    """A PanelUpdate is one grid call over a rank's panel blocks
    (:func:`repro.core.context.panel_grid`), with the blocks' copies as
    the alias-free operand: the bits of the per-block
    ``panel_row_update`` / ``panel_col_update`` it replaced."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("sr_name", COMPILED_SEMIRINGS)
    @pytest.mark.parametrize("budget", [None, SUB_PANEL_BUDGET], ids=["budget-default", "budget-sub-panel"])
    @pytest.mark.parametrize("name", sorted(_BUDGETED))
    def test_panel_grid_is_the_per_block_panel_update(self, name, budget, sr_name, dtype):
        if name not in available_backends():
            pytest.skip(f"{name} backend unavailable")
        backend = get_backend(name) if budget is None else _BUDGETED[name](budget)
        sr = SEMIRINGS[sr_name]
        ctx = SimpleNamespace(backend=backend, semiring=sr)
        rng = np.random.default_rng([3, len(sr_name)])

        def block():
            x = rng.uniform(0.0, 10.0, (8, 8))
            x[rng.uniform(size=(8, 8)) < 0.3] = sr.zero
            return x.astype(dtype)

        diag = block()
        for axis in ("row", "col"):
            panels = [block() for _ in range(5)]
            want = [p.copy() for p in panels]
            for p in want:
                getattr(backend, f"panel_{axis}_update")(p, diag, semiring=sr)
            state = SimpleNamespace(ctx=ctx, blocks=dict(enumerate(panels)), nxt=None)
            panel_grid(state, list(range(len(panels))), diag, axis)
            for got, expected in zip(panels, want):
                np.testing.assert_array_equal(got, expected, err_msg=f"{name} {axis}")

    @pytest.mark.parametrize("variant", ["baseline", "async", "offload"])
    @pytest.mark.parametrize("name", sorted(_BUDGETED))
    def test_sparse_solve_matches_the_dense_reference_solve(self, name, variant):
        """``exploit_sparsity`` drops empty panel blocks from the grid
        (the staged offload panels take every block); what is left is
        the dense reference solve, bit for bit on the exact backends."""
        if name not in available_backends():
            pytest.skip(f"{name} backend unavailable")
        config = repro.SolveConfig(variant=variant, block_size=5, n_nodes=2, ranks_per_node=2)
        for w in (ring_of_cliques(5, 8), banded_graph(40, 2, seed=1)):
            want = repro.solve(w, config.replace(kernel_backend="reference")).dist
            got = repro.solve(w, config.replace(
                exploit_sparsity=variant != "offload", kernel_backend=name,
            )).dist
            if get_backend(name).rtol == 0.0:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=get_backend(name).rtol)

    def test_metered_solve_counts_panel_updates_as_srgemm_panel(self):
        """Flops are unchanged; the 24 per-block panel updates this solve
        made (the ``kernel.panel_update`` family, now retired) count as
        the tiles of panel-phase grids, beside the 12 look-ahead ones."""
        w = repro.graphs.uniform_random_dense(64, seed=4)
        got = repro.solve(w, repro.SolveConfig(
            variant="async", block_size=16, n_nodes=2, ranks_per_node=2,
            obs=repro.ObsSinks(metrics=True),
        )).metrics.flat()
        tile_flops = 2.0 * 16**3
        assert got["kernel.flops"] == 491520.0  # recorded before the panel grid
        assert not any(key.startswith("kernel.panel_update.") for key in got)
        assert got["kernel.srgemm_panel.calls"] == 12 + 24
        assert got["kernel.srgemm_panel.flops"] == (12 + 24) * tile_flops
        assert got["kernel.srgemm.flops"] == got["kernel.flops"]


@needs_cnative
class TestCNativeGridPaths:
    """Which path ``cnative`` takes is decided by what it can observe
    about the operands - and is never visible in the result."""

    def _run(self, monkeypatch, c_tiles, a_rows, b_cols, phase="outer"):
        """Grid call on cnative; returns (result tiles, per-tile calls)."""
        backend = get_backend("cnative")
        spy = _CallSpy(monkeypatch, backend, "srgemm_accumulate")
        got = backend.srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols, phase=phase)
        want = _tile_loop(get_backend("reference"), c_tiles, a_rows, b_cols, MIN_PLUS, phase)
        _assert_tiles_equal(got, want, "cnative grid")
        return got, spy.calls

    @pytest.mark.parametrize("phase", GRID_PHASES)
    def test_uniform_contiguous_grid_is_one_native_call(self, monkeypatch, phase):
        _, calls = self._run(monkeypatch, *_grid(3, 4), phase=phase)
        assert calls == 0

    def test_wrong_dtype_tile_falls_back(self, monkeypatch):
        c_tiles, a_rows, b_cols = _grid(2, 3)
        c_tiles[0][1] = c_tiles[0][1].astype(np.float32)
        _, calls = self._run(monkeypatch, c_tiles, a_rows, b_cols)
        assert calls == 6

    def test_read_only_operand_falls_back(self, monkeypatch):
        c_tiles, a_rows, b_cols = _grid(2, 3)
        a_rows[1].setflags(write=False)
        _, calls = self._run(monkeypatch, c_tiles, a_rows, b_cols)
        assert calls == 6

    def test_ragged_grid_falls_back(self, monkeypatch):
        rng = np.random.default_rng(5)
        heights, widths, k = (8, 5), (8, 3, 6), 8
        a_rows = [rng.uniform(0, 10, (m, k)) for m in heights]
        b_cols = [rng.uniform(0, 10, (k, n)) for n in widths]
        c_tiles = [[rng.uniform(0, 10, (m, n)) for n in widths] for m in heights]
        _, calls = self._run(monkeypatch, c_tiles, a_rows, b_cols)
        assert calls == 6

    def test_non_contiguous_tile_falls_back_and_writes_through(self, monkeypatch):
        # Tiles that are views into one matrix: the column-sliced ones
        # are strided, so the grid takes the loop - and the loop's staged
        # copy must land back in the parent matrix.
        c_tiles, a_rows, b_cols = _grid(2, 2)
        parent = np.block(c_tiles)
        views = [[parent[i * 8 : (i + 1) * 8, j * 8 : (j + 1) * 8] for j in range(2)]
                 for i in range(2)]
        assert not views[0][0].flags.c_contiguous
        backend = get_backend("cnative")
        spy = _CallSpy(monkeypatch, backend, "srgemm_accumulate")
        backend.srgemm_grid(views, a_rows, b_cols)
        assert spy.calls == 4
        want = _tile_loop(get_backend("reference"), c_tiles, a_rows, b_cols, MIN_PLUS, "outer")
        np.testing.assert_array_equal(parent, np.block(want))

    def test_one_tile_grid_takes_the_tile_entry(self, monkeypatch):
        # Only the grid's size decides: one tile marshals less through
        # the tile entry than through the pointer arrays.
        backend = get_backend("cnative")
        native = _CallSpy(monkeypatch, backend, "_native_grid")
        _, calls = self._run(monkeypatch, *_grid(1, 1))
        assert (native.calls, calls) == (0, 1)

    def test_async_solve_makes_no_per_tile_outer_calls(self, monkeypatch):
        w = repro.graphs.uniform_random_dense(128, seed=12)
        config = repro.SolveConfig(
            variant="async", block_size=16, kernel_backend="cnative", n_nodes=2, ranks_per_node=2
        )
        want = repro.solve(w, config.replace(kernel_backend="reference"))
        backend = get_backend("cnative")
        tile = _CallSpy(monkeypatch, backend, "srgemm_accumulate")
        grid = _CallSpy(monkeypatch, backend, "_native_grid")
        sizes = _grid_sizes(monkeypatch, backend)
        got = repro.solve(w, config)
        # A one-tile grid takes the tile entry; every other is one native call.
        assert tile.calls == sizes.count(1)
        assert grid.calls == len(sizes) - sizes.count(1)
        # OuterUpdate + the two look-ahead strips, per rank per iteration.
        assert grid.calls > 8
        np.testing.assert_array_equal(got.dist, want.dist)
        assert got.makespan == want.makespan


def _edge_operands(m, n, k, sr, dtype, seed):
    """Operands the micro-kernel's edges must survive: random values, a
    third of them the ⊕-identity (``inf`` for the min semirings), plus a
    whole identity row in ``a`` and column in ``b``."""
    rng = np.random.default_rng([seed, m, n, k])

    def mat(rows, cols):
        x = rng.uniform(0.0, 10.0, (rows, cols))
        x[rng.uniform(size=x.shape) < 0.3] = sr.zero
        return x

    a, b, c = mat(m, k), mat(k, n), mat(m, n)
    a[rng.integers(m), :] = sr.zero
    b[:, rng.integers(n)] = sr.zero
    return a.astype(dtype), b.astype(dtype), c.astype(dtype)


@needs_cnative
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("sr_name", COMPILED_SEMIRINGS)
class TestCNativeMicroKernel:
    """The register-blocked kernel is the reference's bits at every
    ``m % MR`` / ``n % NR`` edge, through the per-tile entries and the
    grid entry alike."""

    @staticmethod
    def _setup(sr_name, dtype):
        sr = SEMIRINGS[sr_name]
        backend = get_backend("cnative")
        mr, nr = backend._unit_for(sr, np.dtype(dtype)).micro_tile
        return sr, backend, get_backend("reference"), mr, nr

    def test_every_edge_shape_matches_reference(self, sr_name, dtype):
        sr, backend, reference, mr, nr = self._setup(sr_name, dtype)
        dims = sorted({1, mr - 1, mr, mr + 1, nr - 1, nr, nr + 1, 2 * nr + 3, 129} - {0})
        for m in dims:
            for n in dims:
                for k in (1, 7, 128):
                    msg = f"{sr_name} {np.dtype(dtype).name} ({m}, {n}, {k})"
                    a, b, c = _edge_operands(m, n, k, sr, dtype, seed=1)
                    a2, _, c2 = _edge_operands(m, n, k, sr, dtype, seed=2)
                    blank = np.full_like(c, sr.zero)  # an all-identity accumulator
                    want = [reference.srgemm_accumulate(x.copy(), y, b, semiring=sr)
                            for x, y in ((c, a), (c2, a2), (blank, a))]
                    np.testing.assert_array_equal(
                        _product(backend, "srgemm_outer", c.copy(), a, b, sr), want[0], err_msg=msg)
                    np.testing.assert_array_equal(
                        _product(backend, "srgemm_diag", blank.copy(), a, b, sr), want[2], err_msg=msg)
                    got = backend.srgemm_grid([[c.copy()], [c2.copy()]], [a, a2], [b], semiring=sr)
                    _assert_tiles_equal(got, [[want[0]], [want[1]]], msg)

    def test_non_contiguous_accumulator_is_staged_and_written_back(self, sr_name, dtype):
        # A panel stripe: a column slice of a wider matrix.
        sr, backend, reference, mr, nr = self._setup(sr_name, dtype)
        m, n, k = 2 * mr + 1, 2 * nr + 3, 7  # micro-tiles and both edges
        a, b, c = _edge_operands(m, n, k, sr, dtype, seed=3)
        parent = np.full((m, n + 5), 77, dtype=dtype)
        parent[:, 2 : n + 2] = c
        stripe = parent[:, 2 : n + 2]
        assert not stripe.flags.c_contiguous
        assert _product(backend, "srgemm_panel", stripe, a, b, sr) is stripe
        np.testing.assert_array_equal(stripe, reference.srgemm_accumulate(c.copy(), a, b, semiring=sr))
        assert (parent[:, :2] == 77).all() and (parent[:, n + 2 :] == 77).all()

    def test_edge_only_grid(self, sr_name, dtype, monkeypatch):
        # Tiles narrower than NR and shorter than MR: no micro-tile at
        # all, still one native call.
        sr, backend, reference, mr, nr = self._setup(sr_name, dtype)
        m, n, k = mr - 1, nr - 1, 7
        a_rows = [_edge_operands(m, n, k, sr, dtype, seed=i)[0] for i in range(3)]
        b_cols = [_edge_operands(m, n, k, sr, dtype, seed=i)[1] for i in range(4)]
        c_tiles = [[_edge_operands(m, n, k, sr, dtype, seed=10 * i + j)[2] for j in range(4)]
                   for i in range(3)]
        want = _tile_loop(reference, c_tiles, a_rows, b_cols, sr, "outer")
        spy = _CallSpy(monkeypatch, backend, "srgemm_accumulate")
        _assert_tiles_equal(
            backend.srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols, semiring=sr), want, sr_name)
        assert spy.calls == 0

    def test_native_closure_is_fw_inplace(self, sr_name, dtype):
        sr, backend, *_ = self._setup(sr_name, dtype)
        rng = np.random.default_rng(17)
        # max_plus closes over *longest* paths: flip the signs so its
        # blocks are as cycle-free as min_plus's positive ones.
        sign = -1.0 if sr_name == "max_plus" else 1.0
        for b in (1, 5, 16, 33, 128):
            dense = sign * rng.uniform(0.0, 10.0, (b, b))
            sparse = dense.copy()
            sparse[rng.uniform(size=(b, b)) < 0.6] = sr.zero
            # A diagonal that improves its own row and column inside the
            # sweep that reads them (min_plus: negative): the snapshot case.
            negative = dense.copy()
            np.fill_diagonal(negative, -sign * rng.uniform(0.0, 1.0, b))
            for name, block in (("dense", dense), ("sparse", sparse), ("negative", negative)):
                block = block.astype(dtype)
                with np.errstate(over="ignore"):  # float32 improving cycles reach ±inf
                    want = fw_inplace(block.copy(), semiring=sr)
                got = block.copy()
                assert backend.fw_closure(got, semiring=sr) is got
                np.testing.assert_array_equal(got, want, err_msg=f"{name} b={b}")
                # A block of a larger matrix is a strided view.
                parent = np.full((b + 3, b + 3), 77, dtype=dtype)
                parent[1 : b + 1, 2 : b + 2] = block
                backend.fw_closure(parent[1 : b + 1, 2 : b + 2], semiring=sr)
                np.testing.assert_array_equal(parent[1 : b + 1, 2 : b + 2], want)
                assert (parent == 77).sum() >= (b + 3) ** 2 - b * b


class TestClosureEntry:
    """``fw_closure`` is on the waist: the default is ``fw_inplace``, the
    wrappers forward it, and DiagUpdate goes through it."""

    def test_default_and_wrappers_are_fw_inplace(self):
        block = _sparse_block(12, seed=5)
        want = fw_inplace(block.copy())

        class Proxy(KernelBackend):  # knows nothing of the entry (the benchmark's tracer)
            pass

        for name, backend in {**available_backends(), "proxy": Proxy()}.items():
            for wrapper in (None, "metered", "checksummed", "stacked"):
                wrapped = backend if wrapper is None else _wrap(wrapper, backend)
                got = wrapped.fw_closure(block.copy())
                np.testing.assert_array_equal(got, want, err_msg=f"{wrapper}({name})")

    @needs_cnative
    @pytest.mark.parametrize("verify", ["off", "checksum"])
    def test_diag_update_runs_the_backend_closure(self, monkeypatch, verify):
        w = repro.graphs.uniform_random_dense(64, seed=4)
        config = repro.SolveConfig(
            variant="async", block_size=16, kernel_backend="cnative", n_nodes=2,
            ranks_per_node=2, verify=verify,
        )
        want = repro.solve(w, config.replace(kernel_backend="reference"))
        spy = _CallSpy(monkeypatch, get_backend("cnative"), "fw_closure")
        got = repro.solve(w, config)
        assert spy.calls == 64 // 16
        np.testing.assert_array_equal(got.dist, want.dist)
        assert got.makespan == want.makespan
        np.testing.assert_array_equal(
            repro.core.blocked_fw(w, 16, backend="cnative"),
            repro.core.blocked_fw(w, 16, backend="reference"),
        )
        assert spy.calls == 2 * (64 // 16)


@needs_cnative
class TestCNativeKernelCache:
    """``$REPRO_CNATIVE_CACHE`` may outlive a kernel text, holds one
    object per (semiring, dtype) pair and unit kind actually used, and
    may be shared by processes that cold-start together."""

    TILE = "void srgemm_tile(void) {}\n"  # a library without the other symbols
    MIN_PLUS_F64 = ("min_plus", np.dtype(np.float64))

    def _build(self, source, lib_path):
        src = lib_path.with_suffix(".c")
        src.write_text(source)
        subprocess.run(
            [cnative_mod.find_c_compiler(), "-shared", "-fPIC", "-o", str(lib_path), str(src)],
            check=True,
        )
        src.unlink()

    def _exact(self, backend):
        c_tiles, a_rows, b_cols = _grid(2, 2)
        want = _tile_loop(get_backend("reference"), c_tiles, a_rows, b_cols, MIN_PLUS, "outer")
        _assert_tiles_equal(backend.srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols), want, "")
        _assert_tiles_equal(_tile_loop(backend, c_tiles, a_rows, b_cols, MIN_PLUS, "outer"), want, "")

    def test_object_of_another_kernel_text_is_not_reused(self, tmp_path, monkeypatch):
        # The name every version before the source hash cached under, this
        # pair's name under another text's hash, and its name when the
        # hash covered the text alone (an object built with other flags,
        # or on another host sharing the cache) - all holding a library
        # that lacks srgemm_grid: reusing any was an AttributeError.
        monkeypatch.setenv(cnative_mod.ENV_CNATIVE_CACHE, str(tmp_path))
        source = cnative_mod._unit_source(*self.MIN_PLUS_F64)
        source_only = hashlib.sha256(source.encode()).hexdigest()[:12]
        stale = ["srgemm.so", "srgemm-min_plus-f64-000000000000.so",
                 f"srgemm-min_plus-f64-{source_only}.so"]
        for name in stale:
            self._build(self.TILE, tmp_path / name)
        backend = CNativeBackend()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._exact(backend)
        assert list(backend._units) == [self.MIN_PLUS_F64]  # compiled its own object
        assert len(list(tmp_path.glob("srgemm-min_plus-f64-*.so"))) == 3  # beside the stale ones

    def test_name_covers_flags_and_compiler_target(self, monkeypatch):
        source = cnative_mod._unit_source(*self.MIN_PLUS_F64)
        cc = cnative_mod.find_c_compiler()
        probe = cnative_mod._target_probe(cc)
        assert "__VERSION__" in probe
        assert cnative_mod._target_probe(cc) == probe  # else no process would hit the cache
        name = cnative_mod._unit_name(*self.MIN_PLUS_F64, source, probe)
        # Another CPU (or compiler) behind the same flags...
        other_host = probe.replace("__VERSION__", "__VERSION_OF_ANOTHER_CC__")
        assert cnative_mod._unit_name(*self.MIN_PLUS_F64, source, other_host) != name
        # ...and the same compiler given another flag ladder.
        monkeypatch.setattr(cnative_mod, "_RUNGS", cnative_mod._RUNGS[1:])
        assert cnative_mod._unit_name(*self.MIN_PLUS_F64, source, probe) != name

    def test_describe_names_the_emitted_width_and_rung(self):
        tuned, untuned, portable = (" ".join(rung) for rung in cnative_mod._RUNGS)
        width = cnative_mod._emitted_width
        assert width("avx512f", tuned) == "512-bit"
        assert width("avx2", tuned) == "256-bit"
        assert width("avx512f", untuned) == width("generic", portable) == "the compiler's preferred width"
        backend = get_backend("cnative")
        unit = backend._unit_for(MIN_PLUS, np.dtype(np.float64))
        assert unit.rung in (tuned, untuned, portable)
        assert f"for {unit.target} at {width(unit.target, unit.rung)} (rung: " in backend.describe()

    def test_missing_symbol_degrades_to_tiled(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cnative_mod.ENV_CNATIVE_CACHE, str(tmp_path))
        f64 = np.dtype(np.float64)
        probe = cnative_mod._target_probe(cnative_mod.find_c_compiler())
        name = cnative_mod._unit_name(
            "min_plus", f64, cnative_mod._unit_source("min_plus", f64), probe)
        self._build(self.TILE, tmp_path / name)
        backend = CNativeBackend()
        with pytest.warns(RuntimeWarning, match="lacks a symbol"):
            self._exact(backend)
        assert backend._degraded and not backend._units

    @staticmethod
    def _cached(cache):
        """The cache directory's objects, hashes stripped; anything that
        is not a published object is a leaked temporary."""
        names = sorted(p.name for p in cache.iterdir())
        assert all(name.endswith(".so") for name in names), names
        return [name.rsplit("-", 1)[0] for name in names]

    def test_one_object_per_pair_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cnative_mod.ENV_CNATIVE_CACHE, str(tmp_path))
        backend = CNativeBackend()
        w = repro.graphs.uniform_random_dense(32, seed=3)
        config = repro.SolveConfig(variant="async", block_size=8, n_nodes=1, ranks_per_node=2)
        got = repro.solve(w, config.replace(kernel_backend=backend))
        want = repro.solve(w, config.replace(kernel_backend="reference"))
        np.testing.assert_array_equal(got.dist, want.dist)
        # An unarmed solve compiles no guard unit...
        assert self._cached(tmp_path) == ["srgemm-min_plus-f64"]
        # ...and an armed one the guard unit of each pair it checks, once.
        for _ in range(2):
            armed = repro.solve(w, config.replace(kernel_backend=backend, verify="checksum"))
            np.testing.assert_array_equal(armed.dist, want.dist)
            assert self._cached(tmp_path) == ["guard-min_plus-f64", "srgemm-min_plus-f64"]
        a, b, c = (x.astype(np.float32) for x in _operands(9, 9, 9, MIN_PLUS))
        _product(backend, "srgemm_outer", c, a, b, SEMIRINGS["max_min"])
        assert self._cached(tmp_path) == [
            "guard-min_plus-f64", "srgemm-max_min-f32", "srgemm-min_plus-f64",
        ]
        assert set(backend._units) == {self.MIN_PLUS_F64, ("max_min", np.dtype(np.float32))}
        assert set(backend._guards) == {self.MIN_PLUS_F64}

    def test_kernel_unit_text_is_unchanged_by_the_guard_unit(self):
        """The guard is a second unit, so the kernel units' text - and
        with it every ``srgemm-*.so`` name and cold compile - is the
        text it was before the guard existed (hash recorded then)."""
        digest = hashlib.sha256()
        for semiring_name in cnative_mod._SEMIRING_OPS:
            for dtype in cnative_mod._DTYPES:
                digest.update(cnative_mod._unit_source(semiring_name, dtype).encode())
        assert digest.hexdigest() == (
            "48ce483289811b8d2c5a5c4c34563ae0c5b47a3cf171ffd61ca2dadad022ad0f"
        )

    def test_failed_compile_warns_once_never_spawns_again(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cnative_mod.ENV_CNATIVE_CACHE, str(tmp_path))
        spawned = []
        run = subprocess.run

        def failing_cc(cmd, **kwargs):
            spawned.append(cmd)
            return run(["false"], **{**kwargs, "input": None})

        monkeypatch.setattr(cnative_mod.subprocess, "run", failing_cc)
        backend = CNativeBackend()
        with pytest.warns(RuntimeWarning, match="compile failed") as caught:
            self._exact(backend)
            first_pair = len(spawned)
            # Another pair: degraded already, so no second warning or spawn.
            a, b, c = (x.astype(np.float32) for x in _operands(9, 9, 9, MIN_PLUS))
            max_min = SEMIRINGS["max_min"]
            want = _product(get_backend("reference"), "srgemm_outer", c.copy(), a, b, max_min)
            got = _product(backend, "srgemm_outer", c.copy(), a, b, max_min)
            np.testing.assert_array_equal(got, want)
        assert len(caught) == 1
        assert len(spawned) == first_pair
        probes = [cmd for cmd in spawned if "-dM" in cmd]
        compiles = [cmd for cmd in spawned if "-dM" not in cmd]
        assert len(probes) <= 1
        # Each rung of the ladder once, tuned first.
        rungs = cnative_mod._RUNGS
        assert len(compiles) == len(rungs)
        assert [tuple(cmd[1 : 1 + len(rung)]) for cmd, rung in zip(compiles, rungs)] == list(rungs)
        assert list(tmp_path.iterdir()) == []  # the temporary is cleaned up

    def test_concurrent_cold_starts_all_load_the_native_kernel(self, tmp_path):
        # Processes starting together on one fresh cache used to share
        # one <stem>.c / <stem>.so.tmp: some lost the rename race, some
        # loaded a half-written object, and all of those silently ran
        # the tiled path.
        script = (
            "import warnings, numpy as np\n"
            "from repro.semiring.backends import get_backend\n"
            "warnings.simplefilter('error')\n"
            "backend = get_backend('cnative')\n"
            "tile = np.ones((8, 8))\n"
            "out = np.full((8, 8), 3.0)\n"
            "backend.srgemm_grid([[out]], [tile], [tile])\n"
            "assert (out == 2.0).all()\n"
            "print('native' if backend._units else 'tiled')\n"
        )
        env = dict(os.environ, **{cnative_mod.ENV_CNATIVE_CACHE: str(tmp_path)})
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(6)
        ]
        results = [proc.communicate(timeout=120) + (proc.returncode,) for proc in procs]
        assert [(out.strip(), err, code) for out, err, code in results] == [("native", "", 0)] * 6
        assert self._cached(tmp_path) == ["srgemm-min_plus-f64"]


class TestGridWrapperComposition:
    @staticmethod
    def _counters(wrapped):
        """Every counter the stack keeps, wall time aside."""
        out = {}
        layer = wrapped
        while layer is not None:
            if isinstance(layer, MeteredBackend):
                out.update({k: v for k, v in layer.registry.flat().items()
                            if k != "kernel.wall_seconds"})
                assert layer.registry.flat().get("kernel.wall_seconds", 0.0) > 0.0
            if isinstance(layer, ChecksummedBackend):
                out.update({f"verify.{k}": v for k, v in layer.runtime.counters.items()})
            layer = getattr(layer, "inner", None)
        return out

    @pytest.mark.parametrize("wrapper", ["checksummed", "metered", "stacked"])
    @pytest.mark.parametrize("phase", GRID_PHASES)
    def test_wrapped_grid_matches_wrapped_tile_loop(self, wrapper, phase):
        c_tiles, a_rows, b_cols = _grid(3, 2, b=12)
        want = _tile_loop(get_backend("reference"), c_tiles, a_rows, b_cols, MIN_PLUS, phase)
        for name, inner in available_backends().items():
            if inner.rtol != 0.0:
                continue
            looped, gridded = _wrap(wrapper, inner), _wrap(wrapper, inner)
            _assert_tiles_equal(
                _tile_loop(looped, c_tiles, a_rows, b_cols, MIN_PLUS, phase), want, name
            )
            got = gridded.srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols, phase=phase)
            _assert_tiles_equal(got, want, f"{wrapper}({name}).grid[{phase}]")
            assert self._counters(gridded) == self._counters(looped), f"{wrapper}({name})"

    def test_metered_grid_counts_tiles_in_phase_family(self):
        reg = MetricsRegistry()
        c_tiles, a_rows, b_cols = _grid(3, 2)
        MeteredBackend(reg, get_backend("reference")).srgemm_grid(
            c_tiles, a_rows, b_cols, phase="panel"
        )
        flat = reg.flat()
        assert flat["kernel.srgemm.calls"] == 6
        assert flat["kernel.srgemm_panel.calls"] == 6
        assert flat["kernel.srgemm_panel.flops"] == 6 * 2.0 * 8 * 8 * 8
        assert flat["kernel.flops"] == 6 * 2.0 * 8 * 8 * 8
        assert "kernel.srgemm_outer.calls" not in flat

    @needs_cnative
    def test_metered_keeps_the_one_call_path_checksummed_too(self, monkeypatch):
        inner = get_backend("cnative")
        per_tile = _CallSpy(monkeypatch, inner, "srgemm_accumulate")
        native = _CallSpy(monkeypatch, inner, "_native_grid")
        grid = _CallSpy(monkeypatch, inner, "srgemm_grid")
        c_tiles, a_rows, b_cols = _grid(3, 2)
        _wrap("metered", inner).srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols)
        assert (grid.calls, native.calls) == (1, 1)
        # The guarded cycle runs over the whole grid around one inner call.
        checked = _wrap("checksummed", inner)
        checked.srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols)
        assert (grid.calls, native.calls) == (2, 2)
        assert per_tile.calls == 0
        assert checked.runtime.counters == {"ops_checked": 6}

    @needs_cnative
    def test_armed_async_solve_makes_one_native_call_per_grid(self, monkeypatch):
        w = repro.graphs.uniform_random_dense(128, seed=12)
        config = repro.SolveConfig(
            variant="async", block_size=16, kernel_backend="cnative", n_nodes=2, ranks_per_node=2
        )
        want = repro.solve(w, config)
        backend = get_backend("cnative")
        native = _CallSpy(monkeypatch, backend, "_native_grid")
        # Per-tile calls made while a grid of several tiles is on the stack
        # (a one-tile grid takes the tile entry).
        calls = {"grid": 0, "tile_in_grid": 0}
        in_grid = []
        grid_entry = backend.srgemm_grid

        def grid_spy(c_tiles, *args, **kwargs):
            several = sum(len(c_row) for c_row in c_tiles) > 1
            calls["grid"] += several
            in_grid.append(several)
            try:
                return grid_entry(c_tiles, *args, **kwargs)
            finally:
                in_grid.pop()

        monkeypatch.setattr(backend, "srgemm_grid", grid_spy)
        tile_entry = backend.srgemm_accumulate

        def tile_spy(*args, **kwargs):
            calls["tile_in_grid"] += any(in_grid)
            return tile_entry(*args, **kwargs)

        monkeypatch.setattr(backend, "srgemm_accumulate", tile_spy)
        got = repro.solve(
            w, config.replace(verify="checksum", obs=repro.ObsSinks(metrics=True))
        )
        assert calls["grid"] > 8
        assert native.calls == calls["grid"]
        assert calls["tile_in_grid"] == 0
        assert got.certificate["passed"] and got.certificate["sdc_detected"] == 0
        assert got.metrics.flat()["kernel.srgemm_outer.calls"] > calls["grid"]
        np.testing.assert_array_equal(got.dist, want.dist)
        assert got.makespan == want.makespan
