"""A rank's blocks are views of one local matrix, and a grid over them
reaches the kernel waist by position.

``distribute`` and every ``build_states`` (after a restore, an OOM
degrade or a re-plan) give each rank one C-contiguous ``(rows, cols, b,
b)`` slab; a grid over a rank's own blocks is a ``TileGrid`` that every
backend and wrapper must treat exactly like the list grid it names.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import ProcessGrid, distribute, driver
from repro.core.distribution import RankBlocks
from repro.faults import CheckpointStore, resolve_fault_plan
from repro.graphs import uniform_random_dense
from repro.obs.metered import MeteredBackend
from repro.obs.metrics import MetricsRegistry
from repro.sched import ClusterScheduler, HealthPolicy, ResiliencePolicy
from repro.semiring import MIN_PLUS, SEMIRINGS
from repro.semiring.backends import available_backends, get_backend
from repro.semiring.backends.base import GRID_PHASES, TileGrid
from repro.verify.backend import ChecksummedBackend
from repro.verify.runtime import VerifyRuntime

ROOT = Path(__file__).resolve().parents[1]
#: n = 40 in 8 x 8 blocks on a 2 x 2 grid: 5 block rows, so the four
#: ranks' slabs are 3x3, 3x2, 2x3 and 2x2 blocks.
SHAPE = dict(block_size=8, n_nodes=2, ranks_per_node=2)
CRASH = ("crash:rank=1,at=1.5e-4", "policy:timeout=5e-4,ckpt=2")


def _assert_local_matrix(blocks):
    """Every block is the view of the slab at its position, and the map
    refuses a rebinding."""
    assert isinstance(blocks, RankBlocks)
    slab = blocks.slab
    assert slab.flags.c_contiguous and slab.shape[:2] == (len(blocks.rows), len(blocks.cols))
    base, tile_bytes = slab.ctypes.data, slab.strides[1]
    assert sorted(blocks) == [(i, j) for i in blocks.rows for j in blocks.cols]
    for p, i in enumerate(blocks.rows):
        for q, j in enumerate(blocks.cols):
            blk = blocks[(i, j)]
            assert blk is blocks[(i, j)]
            assert np.shares_memory(blk, slab)
            assert blk.shape == slab.shape[2:] and blk.flags.c_contiguous
            assert blk.ctypes.data == base + (p * len(blocks.cols) + q) * tile_bytes
    key = next(iter(blocks))
    with pytest.raises(TypeError):
        blocks[key] = blocks[key].copy()


@pytest.fixture
def final_blocks(monkeypatch):
    """The blocks of every state a solve's result is built from."""
    seen = []
    real = driver.build_result

    def spy(ctx, rp, states, *args, **kwargs):
        seen.append([state.blocks for state in states])
        return real(ctx, rp, states, *args, **kwargs)

    monkeypatch.setattr(driver, "build_result", spy)
    return seen


@pytest.fixture
def restores(monkeypatch):
    calls = []
    real = CheckpointStore.restore

    def spy(self, k, rank):
        calls.append((k, rank))
        return real(self, k, rank)

    monkeypatch.setattr(CheckpointStore, "restore", spy)
    return calls


class TestSlabInvariant:
    def test_distribute_gives_each_rank_one_slab(self):
        w = uniform_random_dense(40, seed=1)
        grid = ProcessGrid(2, 2)
        for rank, blocks in enumerate(distribute(w, 8, grid)):
            _assert_local_matrix(blocks)
            assert blocks.rows == grid.local_block_rows(rank, 5)
            assert blocks.cols == grid.local_block_cols(rank, 5)
            for (i, j), blk in blocks.items():
                np.testing.assert_array_equal(blk, w[8 * i:8 * i + 8, 8 * j:8 * j + 8])
            assert not np.shares_memory(blocks.slab, w)

    def test_a_clean_solve(self, final_blocks):
        repro.solve(uniform_random_dense(40, seed=1), repro.SolveConfig(**SHAPE))
        for blocks in final_blocks[-1]:
            _assert_local_matrix(blocks)

    def test_after_a_crash_and_a_checkpoint_restore(self, final_blocks, restores):
        res = repro.solve(uniform_random_dense(40, seed=1),
                          repro.SolveConfig(fault_plan=list(CRASH), **SHAPE))
        assert res.fault_counters["faults.restarts"] == 1 and restores
        for blocks in final_blocks[-1]:
            _assert_local_matrix(blocks)

    def test_after_an_oom_degrade(self, final_blocks, restores):
        res = repro.solve(uniform_random_dense(40, seed=1),
                          repro.SolveConfig(fault_plan=["oom:rank=0,k=2", "policy:ckpt=1"],
                                            **SHAPE))
        assert res.report.landed_variant == "offload-pipelined" and restores
        for blocks in final_blocks[-1]:
            _assert_local_matrix(blocks)

    def test_after_a_resharded_re_plan(self, final_blocks):
        """Quarantine leaves one healthy node: the scheduler re-plans the
        job onto a smaller grid and reshards its checkpoint."""
        policy = ResiliencePolicy(health=HealthPolicy(fault_threshold=1, probation=0.01))
        sched = ClusterScheduler(n_nodes=2, resilience=policy)
        plan = resolve_fault_plan("crash:rank=1,at=0.00005", seed=0).replace(
            max_restarts=0, oom_degrade=False, checkpoint_interval=2)
        handle = sched.submit(uniform_random_dense(30, seed=0), variant="async", block_size=5,
                              n_nodes=2, ranks_per_node=3, fault_plan=plan)
        assert handle.wait().status == "done"
        assert sched.fleet_metrics().flat()["fleet.resilience.replans"] >= 1
        assert len(final_blocks[-1]) != 6  # the re-planned world
        for blocks in final_blocks[-1]:
            _assert_local_matrix(blocks)


@pytest.mark.parametrize("variant", ["baseline", "async", "offload-pipelined"])
def test_a_restored_solve_on_cnative_is_the_clean_solve(variant):
    """A restore builds new slabs: an address kept from the first
    epoch's would write into a dead local matrix."""
    if "cnative" not in available_backends():
        pytest.skip("cnative backend unavailable")
    w = uniform_random_dense(40, seed=2)
    config = repro.SolveConfig(variant=variant, kernel_backend="cnative", **SHAPE)
    clean = repro.solve(w, config)
    restored = repro.solve(w, config.replace(fault_plan=list(CRASH)))
    assert restored.fault_counters["faults.restarts"] == 1
    assert restored.dist.tobytes() == clean.dist.tobytes()
    assert clean.dist.tobytes() == repro.solve(w, config.replace(kernel_backend="tiled")).dist.tobytes()


# -- TileGrid equivalence -------------------------------------------------------
def _wrapped(kind: str, inner, blocks):
    """``(backend, counted)``: ``inner`` behind one wrapper (a checksummed
    one guarding ``blocks``), and a callable reading what it counts."""
    if kind == "plain":
        return inner, lambda: None
    if kind == "metered":
        registry = MetricsRegistry()
        backend = MeteredBackend(registry, inner)
        return backend, lambda: {k: v for k, v in registry.flat().items()
                                 if k.startswith("kernel.") and "wall" not in k}
    if kind == "checksummed":
        vrt = VerifyRuntime("checksum", inner)
        vrt.register_rank(0, blocks)
        return ChecksummedBackend(vrt), lambda: dict(vrt.counters)
    backend = importlib.import_module("benchmarks.e2e.tracing").TracingBackend(inner)
    return backend, lambda: (backend.calls, backend.flops, backend.bytes_computed)


def _slab_case(dtype, seed):
    """A 4 x 5 local matrix of 8 x 8 blocks (~30 % inf) and operands for
    a 3 x 4 grid over block rows 1..3 and block columns 1..4."""
    rng = np.random.default_rng(seed)
    slab = rng.uniform(0.5, 9.0, (4, 5, 8, 8))
    slab[rng.random(slab.shape) < 0.3] = np.inf
    a_rows = [rng.uniform(0.5, 9.0, (8, 8)).astype(dtype) for _ in range(3)]
    b_cols = [rng.uniform(0.5, 9.0, (8, 8)).astype(dtype) for _ in range(4)]
    return slab.astype(dtype), a_rows, b_cols


@pytest.mark.parametrize("kind", ["plain", "metered", "checksummed", "tracing"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("backend", ["tiled", "tiled-f32", "cnative"])
def test_tile_grid_is_the_list_grid(backend, dtype, kind, monkeypatch):
    """Same tiles, same counters, same ``kernel.*`` metrics, bit for bit,
    for every phase, semiring and band shape of the grid."""
    if backend not in available_backends():
        pytest.skip(f"{backend} backend unavailable")
    monkeypatch.syspath_prepend(str(ROOT))  # the e2e harness's TracingBackend
    for sr_name in ("min_plus", "max_min"):
        sr = SEMIRINGS[sr_name]
        slab, a_rows, b_cols = _slab_case(dtype, seed=len(sr_name))
        sides = []
        for positional in (True, False):
            blocks = RankBlocks(slab.copy(), range(4), range(5))
            wrapped, counted = _wrapped(kind, get_backend(backend), blocks)
            for phase in GRID_PHASES:
                for rows, cols in (([1, 2, 3], [1, 2, 3, 4]), ([2], [1, 3]), ([1, 3], [4])):
                    keys = [[(i, j) for j in cols] for i in rows]
                    if positional:
                        c_tiles = blocks.grid(keys)
                        assert isinstance(c_tiles, TileGrid)
                    else:
                        c_tiles = [[blocks[key] for key in row] for row in keys]
                    out = wrapped.srgemm_grid(c_tiles, a_rows[:len(rows)], b_cols[:len(cols)],
                                              semiring=sr, phase=phase)
                    assert out is c_tiles
            sides.append((blocks.slab, counted()))
        (got, got_counts), (want, want_counts) = sides
        msg = f"{backend} {kind} {sr_name} {np.dtype(dtype).name}"
        assert got.tobytes() == want.tobytes(), msg
        assert got_counts == want_counts, msg


def test_tile_grid_rows_and_bands_yield_the_stored_blocks():
    blocks = distribute(uniform_random_dense(40, seed=1), 8, ProcessGrid(2, 2))[0]
    keys = [[(i, j) for j in (2, 4)] for i in (0, 2, 4)]
    grid = blocks.grid(keys)
    assert len(grid) == 3
    assert [[id(c) for c in row] for row in grid] == [[id(blocks[k]) for k in row] for row in keys]
    band = grid[1:]
    assert isinstance(band, TileGrid) and [id(c) for c in band[0]] == [id(blocks[k]) for k in keys[1]]
    assert [id(c) for c in grid.flat] == [id(blocks[k]) for row in keys for k in row]
    with pytest.raises(ValueError, match="column operands"):
        get_backend("tiled").srgemm_grid(grid, [blocks[(0, 0)]] * 3, [blocks[(0, 0)]], MIN_PLUS)
