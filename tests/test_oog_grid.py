"""The offload OuterUpdate as one positional grid per rank-iteration.

``_outer_tiles`` computes every staged b x b tile of OuterUpdate(k) on a
rank as one ``srgemm_grid`` over an ``(R, C, b, b)`` staging stack, and
each chunk's apply merges its part into the rank's local matrix with one
⊕.  These tests hold it to the per-chunk form it replaced (a ``vstack`` /
``hstack`` operand pair and a 1 x 1 grid per chunk, merged block by
block): the same staged values, the same merged blocks, the same tile
plan, the same memflip targets, and the same guarded repair counts.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.distribution import RankBlocks
from repro.core.executor import _outer_tiles
from repro.faults.injector import FaultInjector
from repro.graphs import uniform_random_dense
from repro.semiring import SEMIRINGS
from repro.semiring.backends import available_backends, get_backend
from repro.verify.backend import ChecksummedBackend
from repro.verify.runtime import VerifyRuntime

B = 4
#: A rank's local block rows and columns; OuterUpdate(K) excludes K from
#: both, and the look-ahead skips SKIP_ROWS / SKIP_COLS.
ROWS, COLS = [0, 3, 6, 9, 12, 15, 18], [1, 3, 5, 7, 9, 11]
K, SKIP_ROWS, SKIP_COLS = 9, (12,), (3,)
SHAPE = dict(block_size=8, n_nodes=2, ranks_per_node=2)

#: plus_times rides along: its ⊕ is not exact in every order, so its
#: bits hold only if a b x b tile sums over k as the 2b x 2b chunk did.
CASES = [
    (sr, dtype)
    for sr in ("min_plus", "max_min", "or_and", "plus_times")
    for dtype in ((np.bool_,) if sr == "or_and" else (np.float64, np.float32))
]


def _random(rng, sr, dtype, shape):
    if sr == "or_and":
        return rng.random(shape) < 0.3
    out = rng.uniform(0.5, 9.0, shape)
    out[rng.random(shape) < 0.2] = SEMIRINGS[sr].zero
    return out.astype(dtype)


def _rank(backend, sr, dtype, mx, nx, seed=0, verify=None):
    """A one-rank stand-in for what ``_outer_tiles`` reads: its local
    matrix, the two received panels, and a context of ``backend``
    (behind the ABFT guard when ``verify`` is a mode)."""
    rng = np.random.default_rng(seed)
    semiring = SEMIRINGS[sr]
    blocks = RankBlocks(_random(rng, sr, dtype, (len(ROWS), len(COLS), B, B)), ROWS, COLS)
    col_panel = {i: _random(rng, sr, dtype, (B, B)) for i in ROWS}
    row_panel = {j: _random(rng, sr, dtype, (B, B)) for j in COLS}
    vrt = None
    if verify is not None:
        vrt = VerifyRuntime(verify, backend, semiring=semiring)
        vrt.register_rank(0, blocks)
        backend = ChecksummedBackend(vrt)
    ctx = SimpleNamespace(
        config=SimpleNamespace(mx_blocks=mx, nx_blocks=nx, compute_numerics=True),
        b=B, semiring=semiring, verify=vrt, faults=None, backend=backend,
    )
    state = SimpleNamespace(
        ctx=ctx, me=0, blocks=blocks,
        local_rows=lambda exclude=(): [i for i in ROWS if i not in exclude],
        local_cols=lambda exclude=(): [j for j in COLS if j not in exclude],
    )
    return state, row_panel, col_panel


def _chunks(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


def _per_chunk_reference(state, row_panel, col_panel, mx, nx):
    """The replaced form: ``(plan, products, merged slab)`` - each
    chunk's (m, n, k, h2d, label), its product as a 1 x 1 grid over
    stacked operands, and the local matrix after a block-by-block ⊕."""
    ctx = state.ctx
    semiring = ctx.semiring
    slab = state.blocks.slab.copy()
    merged = RankBlocks(slab, ROWS, COLS)
    rows = state.local_rows(exclude=(K, *SKIP_ROWS))
    cols = state.local_cols(exclude=(K, *SKIP_COLS))
    plan, products = [], []
    for ci, rs in enumerate(_chunks(rows, mx)):
        for cj, cs in enumerate(_chunks(cols, nx)):
            h2d = []
            if cj == 0:
                h2d.append(((K, "A", ci), B * len(rs), B))
            if ci == 0:
                h2d.append(((K, "B", cj), B, B * len(cs)))
            plan.append((B * len(rs), B * len(cs), B, h2d, f"outer{K}[{ci},{cj}]"))
            a = np.vstack([col_panel[i] for i in rs])
            bmat = np.hstack([row_panel[j] for j in cs])
            x = semiring.zeros((a.shape[0], bmat.shape[1]), dtype=a.dtype)
            ctx.backend.srgemm_grid([[x]], [a], [bmat], semiring=semiring, phase="outer")
            products.append(x)
            for ri, i in enumerate(rs):
                for rj, j in enumerate(cs):
                    blk = merged[(i, j)]
                    semiring.plus(blk, x[ri * B : (ri + 1) * B, rj * B : (rj + 1) * B], out=blk)
    return plan, products, slab


def _as_2d(x):
    """A staged ``(nr, nc, b, b)`` chunk as the ``(nr·b, nc·b)`` product."""
    nr, nc = x.shape[:2]
    return x.transpose(0, 2, 1, 3).reshape(nr * B, nc * B)


def _run(tiles):
    """Each tile's compute then apply, in plan order; the staged chunks."""
    staged = []
    for tile in tiles:
        x = tile.compute()
        staged.append(_as_2d(x).copy())
        tile.apply(x)
    return staged


@pytest.mark.parametrize("mx,nx", [(1, 1), (2, 2), (3, 3), (1, 3), (3, 2)])
@pytest.mark.parametrize("sr,dtype", CASES, ids=[f"{s}-{np.dtype(d).name}" for s, d in CASES])
@pytest.mark.parametrize("backend", ["tiled", "tiled-f32", "cnative"])
def test_staged_products_are_the_per_chunk_products(backend, sr, dtype, mx, nx):
    """Bit for bit: every chunk's staged tiles, the merged local matrix
    and the tile plan, with ragged last chunks and chunks whose blocks
    straddle ``k`` and the look-ahead skips."""
    if backend not in available_backends():
        pytest.skip(f"{backend} backend unavailable")
    state, row_panel, col_panel = _rank(get_backend(backend), sr, dtype, mx, nx)
    plan, products, merged = _per_chunk_reference(state, row_panel, col_panel, mx, nx)
    tiles = _outer_tiles(state, K, row_panel, col_panel, SKIP_ROWS, SKIP_COLS)
    assert [(t.m, t.n, t.k, t.h2d, t.label) for t in tiles] == plan
    staged = _run(tiles)
    for got, want in zip(staged, products):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert state.blocks.slab.tobytes() == merged.tobytes()


def test_region_is_a_view_on_a_run_and_an_index_across_a_gap():
    blocks = RankBlocks(np.zeros((len(ROWS), len(COLS), B, B)), ROWS, COLS)
    assert blocks.region([3, 6], [5, 7, 9]) == (slice(1, 3), slice(2, 5))
    rows, cols = blocks.region([6, 15], [7])
    assert rows.ravel().tolist() == [2, 5] and cols.ravel().tolist() == [3]


# -- target=oog memflips ---------------------------------------------------------
#: Recorded on the per-chunk form: a 56-vertex solve on a 2 x 2 grid in
#: 8 x 8 blocks with two unguarded staged-product flips; rank 0's at
#: k = 2 lands on a chunk straddling k.  The digest of the corrupted
#: distances (equal on both variants), and each flip's entries in its
#: chunk's (nr·b, nc·b) product, in firing order.
FLIP_PLAN = ["memflip:rank=0,k=2,target=oog,bits=3", "memflip:rank=3,k=1,target=oog,bits=2"]
FLIP_DIGEST = "1eba2b59d20d67bfb17bee37fca477b3bdf9052fca6f6a01fb812981ac243bdd"
FLIP_ENTRIES = [[171, 206], [119, 131, 205]]


@pytest.mark.parametrize("variant", ["offload", "offload-pipelined"])
def test_an_unguarded_oog_flip_lands_on_the_recorded_entries(variant, monkeypatch):
    seen = []
    real = FaultInjector.flip_entries

    def spy(self, arr, bits):
        before = arr.ravel().copy()
        flipped = real(self, arr, bits)
        seen.append(np.flatnonzero(arr.ravel() != before).tolist())
        return flipped

    monkeypatch.setattr(FaultInjector, "flip_entries", spy)
    w = uniform_random_dense(56, seed=7)
    config = repro.SolveConfig(variant=variant, fault_plan=FLIP_PLAN, fault_seed=5,
                               check_negative_cycles=False, **SHAPE)
    result = repro.solve(w, config)
    assert seen == FLIP_ENTRIES
    assert result.fault_counters["faults.oog_flips"] == 2
    assert hashlib.sha256(result.dist.tobytes()).hexdigest() == FLIP_DIGEST


# -- the guarded staging ---------------------------------------------------------
def _flip(tile):
    """Negate one positive finite entry: below every row/col minimum."""
    pos = np.flatnonzero(np.isfinite(tile) & (tile > 0))[0]
    tile.flat[pos] = -tile.flat[pos]


class TestGuardedStaging:
    @pytest.mark.parametrize("sr", ["min_plus", "max_min"])
    @pytest.mark.parametrize("backend", ["tiled", "tiled-f32", "cnative"])
    def test_guarded_staging_merges_like_the_unguarded(self, backend, sr):
        if backend not in available_backends():
            pytest.skip(f"{backend} backend unavailable")
        inner = get_backend(backend)
        plain, row_panel, col_panel = _rank(inner, sr, np.float64, 2, 2)
        _run(_outer_tiles(plain, K, row_panel, col_panel, SKIP_ROWS, SKIP_COLS))
        guarded, row_panel, col_panel = _rank(inner, sr, np.float64, 2, 2, verify="checksum")
        _run(_outer_tiles(guarded, K, row_panel, col_panel, SKIP_ROWS, SKIP_COLS))
        assert guarded.blocks.slab.tobytes() == plain.blocks.slab.tobytes()
        vrt = guarded.ctx.verify
        updated = 5 * 4  # rows and columns left after K and the skips
        # One check per staged tile product and one per merged block.
        assert vrt.counters["ops_checked"] == 2 * updated
        assert vrt.counters.get("sdc_detected", 0) == 0
        assert not vrt._transient  # every staged tile's sums were consumed

    @pytest.mark.parametrize("backend", ["tiled", "cnative"])
    def test_guarded_staging_repairs_each_flagged_chunk_once(self, backend):
        """Two corrupted tiles in one chunk and one in another: one
        detection and one repair per chunk, and the clean merge."""
        if backend not in available_backends():
            pytest.skip(f"{backend} backend unavailable")
        inner = get_backend(backend)
        plain, row_panel, col_panel = _rank(inner, "min_plus", np.float64, 2, 2)
        _run(_outer_tiles(plain, K, row_panel, col_panel, SKIP_ROWS, SKIP_COLS))
        state, row_panel, col_panel = _rank(inner, "min_plus", np.float64, 2, 2,
                                            verify="checksum")
        tiles = _outer_tiles(state, K, row_panel, col_panel, SKIP_ROWS, SKIP_COLS)
        staged = [tile.compute() for tile in tiles]
        _flip(staged[0][0, 0])
        _flip(staged[0][1, 1])
        _flip(staged[3][0, 1])
        for tile, x in zip(tiles, staged):
            tile.apply(x)
        vrt = state.ctx.verify
        assert vrt.counters["sdc_detected"] == 2
        assert vrt.counters["repaired"] == 2
        assert vrt.counters.get("escalated", 0) == 0
        assert state.blocks.slab.tobytes() == plain.blocks.slab.tobytes()

    @pytest.mark.parametrize("variant", ["offload", "offload-pipelined"])
    def test_guarded_staging_repairs_a_solve_flip(self, variant):
        w = uniform_random_dense(56, seed=7)
        config = repro.SolveConfig(variant=variant, verify="checksum", **SHAPE)
        clean = repro.solve(w, config)
        hit = repro.solve(w, config.replace(fault_plan=FLIP_PLAN, fault_seed=5))
        cert = hit.certificate
        assert hit.fault_counters["faults.oog_flips"] == 2
        assert (cert["sdc_detected"], cert["repaired"], cert["escalated"]) == (2, 2, 0)
        assert cert["ops_checked"] == clean.certificate["ops_checked"] + 2 * 4  # 2x2 re-runs
        assert hit.dist.tobytes() == clean.dist.tobytes()


# -- chunk size is invisible to the counters --------------------------------------
@pytest.mark.parametrize("verify", ["off", "checksum"])
@pytest.mark.parametrize("variant", ["offload", "offload-pipelined"])
def test_chunk_size_moves_no_kernel_counter(variant, verify):
    """An ooG product counts one outer call and one checked op per b x b
    block product, as the GPU-resident OuterUpdate does, whatever the
    chunk size (which moves only the simulated pipeline)."""
    w = uniform_random_dense(56, seed=7)
    reads = []
    for oog in (1, 2, 3):
        result = repro.solve(w, repro.SolveConfig(
            variant=variant, verify=verify, mx_blocks=oog, nx_blocks=oog,
            obs=repro.ObsSinks(metrics=True), **SHAPE,
        ))
        kernel = {k: v for k, v in result.metrics.flat().items()
                  if k.startswith("kernel.") and k != "kernel.wall_seconds"}
        checked = (result.certificate or {}).get("ops_checked")
        reads.append((result.dist.tobytes(), kernel, checked))
    assert reads[0] == reads[1] == reads[2]
    assert reads[0][1]["kernel.srgemm_outer.calls"] > 0
