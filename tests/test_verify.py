"""Tests for the ABFT verification layer (:mod:`repro.verify`).

Covers: the (min,+) checksum algebra (bit-exact prediction against
brute-force recomputation, including infinities and narrowed compute
dtypes), configuration gating, memflip fault specs, the
zero-false-positive contract on clean runs (with makespans pinned
bit-exactly against the pre-feature recordings for *every* verify
mode), the SDC detection matrix (seeded bit-flips on resident blocks
across variants, modes, and seeds - each detected and either repaired
in place or escalated to checkpoint/restart, final distances bit-exact
against the fault-free oracle), localized repair of corrupted ooG
staging buffers, the monotonicity sentinel, certificate determinism,
the CLI exit codes for the two new error classes, and the guarded grid
(``VerifyRuntime.accumulate_grid``: bit-for-bit the per-tile guarded
loop - tiles, stored sums, counters - with per-tile localisation,
deferred escalation, the non-uniform fallback and the row-band walk).
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import warnings

import numpy as np
import pytest

from repro import solve
from repro.errors import (
    ConfigurationError,
    SilentCorruptionError,
    ValidationError,
    VerificationError,
    exit_code_for,
)
from repro.faults import FaultPlan, MemoryFault
from repro.graphs import uniform_random_dense
from repro.semiring import MIN_PLUS, NO_HOP, PLUS_TIMES, SEMIRINGS
from repro.semiring.backends import CNativeBackend, TiledBackend, available_backends, get_backend
from repro.semiring.backends import cnative as cnative_mod
from repro.core.distribution import RankBlocks
from repro.semiring.backends.base import (
    GRID_PHASES,
    KernelBackend,
    OperandList,
    StoredSums,
    predicted_accumulate_grid,
)
from repro.verify import (
    ChecksummedBackend,
    VerifyRuntime,
    block_checksums,
    checksums_match,
    predicted_accumulate,
    predicted_merge,
)

#: Same shared workload as test_faults: 48 vertices, b=8, 4 ranks on 2
#: nodes.
N, B, NODES, RPN = 48, 8, 2, 2

#: The pre-fault-framework makespans (see test_faults).  Verification
#: runs inside existing kernel closures and adds no simulated events,
#: so *every* verify mode - including off - must reproduce these
#: bit-for-bit.
PRE_FAULT_MAKESPANS = {
    "baseline": 0.00032133007058823555,
    "pipelined": 0.0003952467576470589,
    "async": 0.0003952467576470589,
    "offload": 0.0004660122352941178,
}


def run(w, variant, **kw):
    return solve(w, variant=variant, block_size=B, n_nodes=NODES, ranks_per_node=RPN, **kw)


@pytest.fixture(scope="module")
def w48():
    return uniform_random_dense(N, seed=3)


@pytest.fixture(scope="module")
def oracle(w48):
    return run(w48, "baseline").dist


# ---------------------------------------------------------------------------
# Checksum algebra
# ---------------------------------------------------------------------------
class TestChecksumAlgebra:
    """rowsum(C (+) A (x) B) must equal the *predicted* checksums
    bit-for-bit - (+) is min (exact selection), so the distributive law
    holds in IEEE floats, not just in exact arithmetic."""

    @staticmethod
    def _rand(rng, shape, inf_frac=0.0):
        a = rng.uniform(0.5, 9.0, size=shape)
        if inf_frac:
            a[rng.random(shape) < inf_frac] = np.inf
        return a

    @pytest.mark.parametrize("inf_frac", [0.0, 0.3], ids=["finite", "with-inf"])
    def test_accumulate_prediction_bit_exact(self, inf_frac):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = self._rand(rng, (8, 8), inf_frac)
            a = self._rand(rng, (8, 8), inf_frac)
            b = self._rand(rng, (8, 8), inf_frac)
            pre = block_checksums(c, MIN_PLUS)
            predicted = predicted_accumulate(pre, a, b, MIN_PLUS)
            get_backend("tiled").srgemm_accumulate(c, a, b, MIN_PLUS)
            assert checksums_match(predicted, block_checksums(c, MIN_PLUS))

    def test_prediction_catches_any_downward_flip(self):
        """A sign flip of a positive entry lowers a row *and* column
        minimum, so it always breaks both checksums."""
        rng = np.random.default_rng(12)
        c = self._rand(rng, (6, 6))
        a = self._rand(rng, (6, 6))
        b = self._rand(rng, (6, 6))
        pre = block_checksums(c, MIN_PLUS)
        predicted = predicted_accumulate(pre, a, b, MIN_PLUS)
        get_backend("tiled").srgemm_accumulate(c, a, b, MIN_PLUS)
        for i in range(6):
            for j in range(6):
                saved = c[i, j]
                c[i, j] = -saved
                assert not checksums_match(predicted, block_checksums(c, MIN_PLUS))
                c[i, j] = saved
        assert checksums_match(predicted, block_checksums(c, MIN_PLUS))

    def test_f32_compute_dtype_prediction_matches_tiled_backend(self):
        """Predictions must replicate the narrowed-operand rounding of
        tiled-f32 (operands cast to f32, accumulation in the C dtype) -
        otherwise every op under that backend is a false positive."""
        backend = get_backend("tiled-f32")
        rng = np.random.default_rng(13)
        c = rng.uniform(0.5, 9.0, size=(16, 16))
        a = rng.uniform(0.5, 9.0, size=(16, 16))
        b = rng.uniform(0.5, 9.0, size=(16, 16))
        pre = block_checksums(c, MIN_PLUS)
        predicted = predicted_accumulate(
            pre, a, b, MIN_PLUS, compute_dtype=backend.compute_dtype
        )
        backend.srgemm_accumulate(c, a, b, MIN_PLUS)
        assert checksums_match(predicted, block_checksums(c, MIN_PLUS))

    def test_merge_prediction_bit_exact(self):
        rng = np.random.default_rng(14)
        blk = rng.uniform(0.5, 9.0, size=(8, 8))
        x = rng.uniform(0.5, 9.0, size=(8, 8))
        predicted = predicted_merge(block_checksums(blk, MIN_PLUS), x, MIN_PLUS)
        MIN_PLUS.plus(blk, x, out=blk)
        assert checksums_match(predicted, block_checksums(blk, MIN_PLUS))

    def test_empty_k_prediction_is_identity(self):
        rng = np.random.default_rng(15)
        c = rng.uniform(0.5, 9.0, size=(4, 4))
        pre = block_checksums(c, MIN_PLUS)
        predicted = predicted_accumulate(
            pre, np.empty((4, 0)), np.empty((0, 4)), MIN_PLUS
        )
        assert checksums_match(predicted, pre)

    @pytest.mark.parametrize("compute_dtype", [None, np.float32])
    def test_grid_prediction_is_the_per_tile_prediction(self, compute_dtype):
        """One algebra: the stacked form over an nr x nc grid returns,
        tile for tile, the one-tile prediction (its 1 x 1 case)."""
        rng = np.random.default_rng(16)
        nr, nc, m, n, k = 3, 2, 5, 7, 4
        c = self._rand(rng, (nr, nc, m, n), 0.2)
        a = self._rand(rng, (nr, m, k), 0.2)
        b = self._rand(rng, (nc, k, n), 0.2)
        tiles = c.reshape(nr * nc, m, n)  # row-major over the grid
        pre = (MIN_PLUS.plus_reduce(tiles, axis=2), MIN_PLUS.plus_reduce(tiles, axis=1))
        rows, cols = predicted_accumulate_grid(pre, a, b, MIN_PLUS, compute_dtype)
        assert rows.shape == (nr * nc, m) and cols.shape == (nr * nc, n)
        for i in range(nr):
            for j in range(nc):
                want = predicted_accumulate(
                    block_checksums(c[i, j], MIN_PLUS), a[i], b[j], MIN_PLUS, compute_dtype
                )
                assert checksums_match(want, (rows[i * nc + j], cols[i * nc + j]))
                assert (rows.dtype, cols.dtype) == (want[0].dtype, want[1].dtype)


# ---------------------------------------------------------------------------
# Configuration gating and fault specs
# ---------------------------------------------------------------------------
class TestConfiguration:
    def test_bad_mode_rejected(self, w48):
        with pytest.raises(ConfigurationError, match="verify"):
            run(w48, "baseline", verify="paranoid")

    def test_requires_numerics(self, w48):
        with pytest.raises(ConfigurationError, match="compute_numerics"):
            run(w48, "baseline", verify="checksum", compute_numerics=False)

    def test_requires_idempotent_plus(self, w48):
        with pytest.raises(ConfigurationError, match="idempotent"):
            run(w48, "baseline", verify="checksum", semiring=PLUS_TIMES,
                check_negative_cycles=False)

    def test_memflip_spec_grammar(self):
        plan = FaultPlan.from_specs(
            ["memflip:rank=1,k=3", "memflip:rank=0,k=2,target=oog,bits=2",
             "memflip:rank=0,k=4,target=checkpoint", "memflip:rank=2,k=1,i=0,j=3"]
        )
        assert plan.memory_faults == (
            MemoryFault(1, 3),
            MemoryFault(0, 2, target="oog", bits=2),
            MemoryFault(0, 4, target="checkpoint"),
            MemoryFault(2, 1, block=(0, 3)),
        )
        assert plan.armed()

    @pytest.mark.parametrize(
        "spec",
        [
            "memflip:rank=0",  # missing k
            "memflip:rank=0,k=2,target=gpu",  # unknown target
            "memflip:rank=0,k=2,bits=0",  # bits >= 1
            "memflip:rank=0,k=2,i=1",  # i without j
            "memflip:rank=0,k=2,target=oog,i=0,j=0",  # block only for target=block
        ],
    )
    def test_bad_memflip_specs(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_specs([spec])

    def test_memflip_json_round_trip(self):
        plan = FaultPlan.from_specs(
            ["memflip:rank=1,k=3,i=2,j=4", "memflip:rank=0,k=2,target=oog"]
        )
        assert FaultPlan.from_json(plan.to_json()) == plan


# ---------------------------------------------------------------------------
# Clean runs: zero false positives, zero cost
# ---------------------------------------------------------------------------
class TestCleanRuns:
    @pytest.mark.parametrize("variant", list(PRE_FAULT_MAKESPANS))
    @pytest.mark.parametrize("mode", ["off", "checksum", "full"])
    def test_makespan_pinned_per_mode(self, w48, variant, mode):
        """Verification adds no simulated events: every mode reproduces
        the pre-feature makespan bit-for-bit."""
        r = run(w48, variant, verify=mode)
        assert r.report.elapsed == PRE_FAULT_MAKESPANS[variant]

    @pytest.mark.parametrize("variant", ["baseline", "async", "offload"])
    @pytest.mark.parametrize("mode", ["checksum", "full"])
    def test_zero_false_positives(self, w48, oracle, variant, mode):
        r = run(w48, variant, verify=mode, validate=True)
        cert = r.verification
        assert cert["passed"]
        assert cert["sdc_detected"] == 0
        assert cert["repaired"] == 0
        assert cert["escalated"] == 0
        assert cert["sentinel_violations"] == 0
        assert cert["ops_checked"] > 0
        if mode == "full":
            assert cert["sentinel_samples"] > 0
            assert cert["audit"]["triangle_violations"] == 0
            assert cert["audit"]["sssp_mismatches"] == 0
        else:
            assert cert["sentinel_samples"] == 0
            assert "audit" not in cert
        assert np.array_equal(r.dist, oracle)
        assert r.report.verification is cert
        assert "PASSED" in r.report.summary()

    def test_off_mode_has_no_certificate(self, w48):
        r = run(w48, "baseline")
        assert r.verification is None
        assert r.report.verification is None


# ---------------------------------------------------------------------------
# SDC detection matrix
# ---------------------------------------------------------------------------
class TestDetectionMatrix:
    """Every seeded resident-block bit-flip must be detected and the
    final distances bit-exact against the fault-free oracle (repair in
    place, or escalation to checkpoint/restart)."""

    @pytest.mark.parametrize("seed", [0, 1, 2], ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("mode", ["checksum", "full"])
    @pytest.mark.parametrize("variant", ["baseline", "async", "offload"])
    def test_block_flip_detected_and_recovered(self, w48, oracle, variant, mode, seed):
        r = run(
            w48, variant, verify=mode,
            fault_plan=["memflip:rank=0,k=2", "policy:ckpt=2"],
            fault_seed=seed,
        )
        cert = r.verification
        fc = r.fault_counters
        assert fc.get("faults.block_flips", 0) >= 1
        assert cert["sdc_detected"] >= 1
        # A flipped resident block is caught by the *pre*-check of the
        # next guarded op; its operands are suspect, so the runtime
        # escalates to checkpoint/restart rather than repairing.
        assert cert["escalated"] + cert["repaired"] >= 1
        if cert["escalated"]:
            assert fc.get("faults.restarts", 0) >= 1
        assert cert["passed"]
        assert np.array_equal(r.dist, oracle)

    def test_unrepairable_without_checkpoints_raises(self, w48):
        """Escalation with no restart path must surface as
        SilentCorruptionError, never a silently wrong answer."""
        with pytest.raises(SilentCorruptionError):
            run(w48, "baseline", verify="checksum",
                fault_plan=["memflip:rank=0,k=2", "policy:restarts=0,ckpt=2"],
                fault_seed=0)

    def test_off_mode_misses_the_corruption(self, w48, oracle):
        """Coverage measurement: the same flip with verify=off flows
        into the result undetected."""
        r = run(
            w48, "baseline", check_negative_cycles=False,
            fault_plan=["memflip:rank=0,k=2", "policy:ckpt=2"],
            fault_seed=0,
        )
        assert r.fault_counters.get("faults.block_flips", 0) >= 1
        assert not np.array_equal(r.dist, oracle)


# ---------------------------------------------------------------------------
# Localized repair: ooG staging buffers
# ---------------------------------------------------------------------------
class TestOogRepair:
    def test_staged_tile_flip_repaired_in_place(self, w48, oracle):
        r = run(
            w48, "offload", verify="checksum",
            fault_plan=["memflip:rank=0,k=2,target=oog"],
            fault_seed=0,
        )
        cert = r.verification
        fc = r.fault_counters
        assert fc.get("faults.oog_flips", 0) >= 1
        assert cert["sdc_detected"] >= 1
        assert cert["repaired"] >= 1
        assert cert["escalated"] == 0
        assert not fc.get("faults.restarts")  # repaired locally, no restart
        assert cert["passed"]
        assert np.array_equal(r.dist, oracle)

    @pytest.mark.parametrize("mode", ["checksum", "full"])
    def test_oog_repair_bit_exact_across_modes(self, w48, oracle, mode):
        r = run(
            w48, "offload", verify=mode,
            fault_plan=["memflip:rank=1,k=3,target=oog,bits=3"],
            fault_seed=1,
        )
        assert r.verification["repaired"] >= 1
        assert np.array_equal(r.dist, oracle)


# ---------------------------------------------------------------------------
# Monotonicity sentinel
# ---------------------------------------------------------------------------
class TestSentinel:
    """The sentinel covers what checksums cannot: an *upward* drift of
    a non-extremal entry (masked in both min-reductions)."""

    def _runtime(self, blocks):
        vrt = VerifyRuntime("full", get_backend("tiled"), semiring=MIN_PLUS, seed=5)
        vrt.register_rank(0, blocks)
        return vrt

    def test_upward_drift_detected(self):
        rng = np.random.default_rng(21)
        blocks = {(0, 0): rng.uniform(1.0, 9.0, size=(8, 8))}
        vrt = self._runtime(blocks)
        vrt.sentinel_check(0, 0)  # baseline: clean
        assert vrt.counters.get("sentinel_violations", 0) == 0
        guard = next(iter(vrt._tiles.values()))
        pos = int(guard.sent_pos[0])
        blocks[(0, 0)].flat[pos] += 100.0  # distances never increase
        vrt.sentinel_check(0, 1)
        assert vrt.counters["sentinel_violations"] == 1
        assert vrt.counters["sdc_detected"] == 1
        with pytest.raises(SilentCorruptionError):
            vrt.raise_pending()

    def test_decrease_is_legal(self):
        rng = np.random.default_rng(22)
        blocks = {(0, 0): rng.uniform(1.0, 9.0, size=(8, 8))}
        vrt = self._runtime(blocks)
        vrt.sentinel_check(0, 0)
        blocks[(0, 0)] *= 0.5  # relaxation only ever lowers distances
        vrt.sentinel_check(0, 1)
        assert vrt.counters.get("sentinel_violations", 0) == 0
        vrt.raise_pending()  # no-op

    def test_checksum_mode_samples_nothing(self):
        vrt = VerifyRuntime("checksum", get_backend("tiled"), semiring=MIN_PLUS)
        vrt.register_rank(0, {(0, 0): np.ones((4, 4))})
        vrt.sentinel_check(0, 0)
        assert vrt.counters.get("sentinel_samples", 0) == 0
        # ...and seeds no sentinel state it would never read.
        assert next(iter(vrt._tiles.values())).sent_pos is None

    @pytest.mark.parametrize("mode", ["checksum", "full"])
    def test_registration_sums_are_the_per_block_sums(self, mode):
        """Registration checksums come from one stacked pass when the
        rank's blocks are uniform, block by block when they are not -
        the same sums either way; ``full``-mode sentinel positions keep
        their per-block seeding."""
        rng = np.random.default_rng(23)
        for shapes in ([(8, 8)] * 4, [(8, 8), (8, 3), (3, 8), (3, 3)]):
            blocks = {
                (t // 2, t % 2): rng.uniform(1.0, 9.0, size=sh) for t, sh in enumerate(shapes)
            }
            vrt = VerifyRuntime(mode, get_backend("tiled"), semiring=MIN_PLUS, seed=5)
            vrt.register_rank(3, blocks)
            assert vrt.counters["blocks_tracked"] == 4
            for key, arr in blocks.items():
                guard = vrt._tiles[id(arr)]
                assert (guard.rank, guard.key) == (3, key)
                assert checksums_match((guard.row, guard.col), block_checksums(arr, MIN_PLUS))
                if mode == "full":
                    pos = np.random.default_rng([5, 3, *key]).integers(arr.size, size=4)
                    np.testing.assert_array_equal(guard.sent_pos, pos)
                    np.testing.assert_array_equal(guard.sent_vals, arr.flat[pos])


# ---------------------------------------------------------------------------
# The guarded grid
# ---------------------------------------------------------------------------
COMPARISON_SEMIRINGS = ["min_plus", "max_plus", "max_min", "min_max"]
GRID_SHAPES = [(3, 4), (1, 5), (5, 1), (1, 1)]


def _grid_case(nr, nc, dtype=np.float64, seed=0, b=8, inf=True):
    """``(c_tiles, a_rows, b_cols)`` of b x b tiles, ~30% ``inf``."""
    rng = np.random.default_rng(seed + 31 * nr + nc)

    def tile(m=b, n=b):
        t = rng.uniform(0.5, 9.0, (m, n))
        if inf:
            t[rng.random((m, n)) < 0.3] = np.inf
        return t.astype(dtype)

    return (
        [[tile() for _ in range(nc)] for _ in range(nr)],
        [tile() for _ in range(nr)],
        [tile() for _ in range(nc)],
    )


def _copy_tiles(c_tiles):
    return [[c.copy() for c in c_row] for c_row in c_tiles]


def _guarded(inner, c_tiles, semiring=MIN_PLUS, tracked=lambda i, j: True):
    """A fresh checksum-mode runtime over ``inner`` with private copies
    of ``c_tiles``; tiles with ``tracked(i, j)`` are registered as rank
    2's resident blocks, the rest stay untracked (``_transient``)."""
    vrt = VerifyRuntime("checksum", inner, semiring=semiring)
    tiles = _copy_tiles(c_tiles)
    vrt.register_rank(
        2,
        {(i, j): c for i, c_row in enumerate(tiles) for j, c in enumerate(c_row) if tracked(i, j)},
    )
    return vrt, tiles


def _hop_case(c_tiles, a_rows, seed=0):
    """``(c_hop_tiles, a_hop_rows)`` for a grid: next hops of the
    accumulators start unknown, the row operands' are random vertices."""
    rng = np.random.default_rng(seed)
    return (
        [[np.full(c.shape, NO_HOP) for c in c_row] for c_row in c_tiles],
        [rng.integers(0, 50, a.shape) for a in a_rows],
    )


def _tile_loop(vrt, tiles, a_rows, b_cols, semiring, phase, hops=None):
    """The per-tile guarded loop a guarded grid stands for."""
    for i, (a, c_row) in enumerate(zip(a_rows, tiles)):
        for j, (b, c) in enumerate(zip(b_cols, c_row)):
            hop = None if hops is None else (hops[0][i][j], hops[1][i])
            vrt.accumulate(c, a, b, semiring, phase, hop)


def _assert_same_array(got, want, msg):
    assert got.dtype == want.dtype and got.shape == want.shape, msg
    np.testing.assert_array_equal(got, want, err_msg=msg)


def _assert_same_state(got, want, msg):
    """``(runtime, tiles)`` pairs agree on everything the guard keeps:
    tile contents, stored sums of tracked tiles, ``_transient`` sums of
    untracked ones, and every counter."""
    (g_vrt, g_tiles), (w_vrt, w_tiles) = got, want
    assert g_vrt.counters == w_vrt.counters, msg
    assert len(g_vrt._transient) == len(w_vrt._transient), msg
    for g_row, w_row in zip(g_tiles, w_tiles):
        for g, w in zip(g_row, w_row):
            _assert_same_array(g, w, msg)
            g_guard, w_guard = g_vrt._tiles.get(id(g)), w_vrt._tiles.get(id(w))
            if w_guard is None:
                assert g_guard is None, msg
                g_sums, w_sums = g_vrt._transient[id(g)], w_vrt._transient[id(w)]
            else:
                assert (g_guard.rank, g_guard.key) == (w_guard.rank, w_guard.key), msg
                g_sums, w_sums = (g_guard.row, g_guard.col), (w_guard.row, w_guard.col)
            _assert_same_array(g_sums[0], w_sums[0], msg)
            _assert_same_array(g_sums[1], w_sums[1], msg)


class _CorruptsTarget(TiledBackend):
    """Tiled numerics, except that the product into ``target`` (by
    identity) comes out with one entry pushed below every true value -
    a downward flip both min-checksums see - and, with next hops, a
    wrong hop there.  Every grid of the tiled backend, one-tile ones
    included, funnels into ``srgemm_accumulate`` (with next hops,
    ``srgemm_accumulate_paths``)."""

    target = None

    def srgemm_accumulate(self, c, a, b, semiring=MIN_PLUS, k_chunk=None):
        super().srgemm_accumulate(c, a, b, semiring=semiring, k_chunk=k_chunk)
        if c is self.target:
            c[1, 2] = -1.0
        return c

    def srgemm_accumulate_paths(self, c, c_nxt, a, a_nxt, b, k_chunk=None):
        super().srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b, k_chunk=k_chunk)
        if c is self.target:
            c[1, 2], c_nxt[1, 2] = -1.0, 99
        return c


def _spy(monkeypatch, obj, name):
    calls = []
    real = getattr(obj, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(obj, name, spy)
    return calls


def _spy_native_guard(monkeypatch, backend, sr, dtype):
    """Count calls into ``backend``'s compiled guard entries for one
    (semiring, dtype) pair - the sums pass and the band - and record
    every fall-back to the NumPy defaults on the base class."""
    native = {"sums": 0, "band": 0}
    unit = backend._guard_for(sr, np.dtype(dtype))
    assert unit is not None, "guard unit did not compile"

    def counted(name, fn):
        def call(*args):
            native[name] += 1
            return fn(*args)

        return call

    monkeypatch.setitem(
        backend._guards, (sr.name, np.dtype(dtype)),
        unit._replace(sums=counted("sums", unit.sums), band=counted("band", unit.band)),
    )
    numpy_calls = []
    for entry in ("tile_sums", "predict_sums"):
        default = getattr(KernelBackend, entry)

        def spy(*args, _default=default, _entry=entry, **kwargs):
            numpy_calls.append(_entry)
            return _default(*args, **kwargs)

        monkeypatch.setattr(KernelBackend, entry, spy)
    return native, numpy_calls


def _slab_guarded(inner, c_tiles, semiring=MIN_PLUS, slab=True):
    """A fresh checksum-mode runtime whose rank 2 holds copies of
    ``c_tiles`` as its blocks ``(i + 1, j + 1)``, every block tracked,
    with one more block row and column in front: registered as one
    local matrix (``slab``; the guard keeps the sums in its tables) or as
    a plain map of copies.  Returns ``(runtime, tiles, grid)``, ``grid``
    the positional form of ``tiles`` (None for the plain map)."""
    nr, nc = len(c_tiles), len(c_tiles[0])
    first = c_tiles[0][0]
    local = np.full((nr + 1, nc + 1, *first.shape), 4.0, dtype=first.dtype)
    for i, c_row in enumerate(c_tiles):
        for j, c in enumerate(c_row):
            local[i + 1, j + 1] = c
    blocks = RankBlocks(local, range(nr + 1), range(nc + 1))
    if not slab:
        blocks = {key: blk.copy() for key, blk in blocks.items()}
    vrt = VerifyRuntime("checksum", inner, semiring=semiring)
    vrt.register_rank(2, blocks)
    keys = [[(i + 1, j + 1) for j in range(nc)] for i in range(nr)]
    tiles = [[blocks[key] for key in row] for row in keys]
    return vrt, tiles, (blocks.grid(keys) if slab else None)


def _no_list_band(monkeypatch):
    """Fail any guarded band that falls back to looking guards up tile
    by tile (the list path's first step)."""

    def refuse(cls, c_tiles):
        raise AssertionError("a registered local matrix took the list path")

    monkeypatch.setattr(OperandList, "grid", classmethod(refuse))


class TestGuardedGrid:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("sr_name", COMPARISON_SEMIRINGS)
    @pytest.mark.parametrize("backend", ["tiled", "tiled-f32", "cnative"])
    def test_grid_is_the_per_tile_guarded_loop_bit_for_bit(
        self, backend, sr_name, dtype, monkeypatch
    ):
        if backend not in available_backends():
            pytest.skip(f"{backend} backend unavailable")
        inner, sr = get_backend(backend), SEMIRINGS[sr_name]
        if backend == "cnative":  # the guard's passes must be the native entries
            native, numpy_calls = _spy_native_guard(monkeypatch, inner, sr, dtype)
        for phase in GRID_PHASES:
            for nr, nc in GRID_SHAPES:
                msg = f"{backend} {sr_name} {np.dtype(dtype).name} {phase} {nr}x{nc}"
                c_tiles, a_rows, b_cols = _grid_case(nr, nc, dtype)
                # A mix of resident blocks and untracked (staging) tiles.
                tracked = lambda i, j: (i + j) % 3 != 1  # noqa: E731
                looped = _guarded(inner, c_tiles, sr, tracked)
                gridded = _guarded(inner, c_tiles, sr, tracked)
                for _ in range(2):  # second pass: sums stored by the first are the baseline
                    _tile_loop(*looped, a_rows, b_cols, sr, phase)
                    out = gridded[0].accumulate_grid(gridded[1], a_rows, b_cols, sr, phase)
                    assert out is gridded[1]
                    _assert_same_state(gridded, looped, msg)
                assert gridded[0].counters["ops_checked"] == 2 * nr * nc, msg
                assert set(gridded[0].counters) == {"blocks_tracked", "ops_checked"}, msg
                gridded[0].raise_pending()
        if backend == "cnative":
            # Per phase and shape: two registrations, then one band per
            # grid pass.
            cases = len(GRID_PHASES) * len(GRID_SHAPES)
            assert native == {"sums": cases * 2, "band": cases * 2}
            assert numpy_calls == []

    def test_one_corrupt_tile_is_found_and_repaired_alone(self):
        nr, nc = 3, 4
        c_tiles, a_rows, b_cols = _grid_case(nr, nc)
        want = get_backend("tiled").srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols)
        inner = _CorruptsTarget()
        faulty = _copy_tiles(c_tiles)
        inner.target = faulty[1][2]
        inner.srgemm_grid(faulty, a_rows, b_cols)  # what the guard is up against
        vrt, tiles = _guarded(inner, c_tiles)
        inner.target = tiles[1][2]
        vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS)
        vrt.raise_pending()  # repaired in place: nothing escalates
        assert vrt.counters == {
            "blocks_tracked": nr * nc, "ops_checked": nr * nc, "sdc_detected": 1, "repaired": 1,
        }
        for i in range(nr):
            for j in range(nc):
                np.testing.assert_array_equal(tiles[i][j], want[i][j])
                assert np.array_equal(tiles[i][j], faulty[i][j]) == ((i, j) != (1, 2))
                guard = vrt._tiles[id(tiles[i][j])]
                want_sums = block_checksums(want[i][j], MIN_PLUS)
                assert checksums_match((guard.row, guard.col), want_sums)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("backend", ["tiled", "tiled-f32", "cnative"])
    def test_hop_grid_is_the_per_tile_guarded_loop_bit_for_bit(self, backend, dtype):
        """A grid with next hops takes the same cycle as one without:
        bit for bit the one-tile guarded cycle with hops per tile -
        distances, next hops, stored sums, counters - on a narrowing
        backend too (path kernels run at operand width, and so does
        their prediction)."""
        if backend not in available_backends():
            pytest.skip(f"{backend} backend unavailable")
        inner = get_backend(backend)
        for nr, nc in GRID_SHAPES:
            msg = f"{backend} {np.dtype(dtype).name} {nr}x{nc}"
            c_tiles, a_rows, b_cols = _grid_case(nr, nc, dtype)
            c_hops, a_hops = _hop_case(c_tiles, a_rows)
            tracked = lambda i, j: (i + j) % 3 != 1  # noqa: E731
            looped = _guarded(inner, c_tiles, MIN_PLUS, tracked)
            gridded = _guarded(inner, c_tiles, MIN_PLUS, tracked)
            loop_hops, grid_hops = _copy_tiles(c_hops), _copy_tiles(c_hops)
            for phase in ("panel", "outer"):  # second pass: the first's sums are the baseline
                _tile_loop(*looped, a_rows, b_cols, MIN_PLUS, phase, (loop_hops, a_hops))
                gridded[0].accumulate_grid(
                    gridded[1], a_rows, b_cols, MIN_PLUS, phase, (grid_hops, a_hops)
                )
                _assert_same_state(gridded, looped, msg)
                for g_row, w_row in zip(grid_hops, loop_hops):
                    for g, w in zip(g_row, w_row):
                        _assert_same_array(g, w, msg)
            assert gridded[0].counters["ops_checked"] == 2 * nr * nc, msg
            assert set(gridded[0].counters) == {"blocks_tracked", "ops_checked"}, msg
            gridded[0].raise_pending()

    @pytest.mark.parametrize("budget", [None, 1], ids=["one-band", "band-per-row"])
    def test_corrupt_tile_of_a_hop_grid_is_repaired_alone(self, budget, monkeypatch):
        """One inner grid call per band carries the next hops, and a
        tile the inner kernel corrupts is repaired alone - distances and
        next hops - by the path kernel, bit-exact to the clean product."""
        nr, nc = 3, 4
        c_tiles, a_rows, b_cols = _grid_case(nr, nc)
        c_hops, a_hops = _hop_case(c_tiles, a_rows)
        want, want_hops = _copy_tiles(c_tiles), _copy_tiles(c_hops)
        get_backend("tiled").srgemm_grid(want, a_rows, b_cols, hops=(want_hops, a_hops))
        inner = _CorruptsTarget(byte_budget=budget)
        vrt, tiles = _guarded(inner, c_tiles)
        hops = _copy_tiles(c_hops)
        inner.target = tiles[1][2]
        grid_calls = _spy(monkeypatch, inner, "srgemm_grid")
        ChecksummedBackend(vrt).srgemm_grid(tiles, a_rows, b_cols, hops=(hops, a_hops))
        vrt.raise_pending()  # repaired in place: nothing escalates
        assert len(grid_calls) == (1 if budget is None else nr)
        assert vrt.counters == {
            "blocks_tracked": nr * nc, "ops_checked": nr * nc, "sdc_detected": 1, "repaired": 1,
        }
        for i in range(nr):
            for j in range(nc):
                np.testing.assert_array_equal(tiles[i][j], want[i][j])
                np.testing.assert_array_equal(hops[i][j], want_hops[i][j])
                guard = vrt._tiles[id(tiles[i][j])]
                want_sums = block_checksums(want[i][j], MIN_PLUS)
                assert checksums_match((guard.row, guard.col), want_sums)

    def test_at_rest_flip_flags_that_block_and_defers(self):
        c_tiles, a_rows, b_cols = _grid_case(3, 4, inf=False)
        vrt, tiles = _guarded(get_backend("tiled"), c_tiles)
        vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS)
        tiles[2][1][3, 4] *= -1.0  # resident corruption between two grids
        vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS)  # returns: escalation is deferred
        assert vrt.counters == {
            "blocks_tracked": 12, "ops_checked": 24, "sdc_detected": 1, "escalated": 1,
        }
        with pytest.raises(SilentCorruptionError, match="resident corruption") as info:
            vrt.raise_pending()
        assert (info.value.rank, info.value.block, info.value.op) == (2, (2, 1), "srgemm_outer")
        # Stored sums were resynced: the same upset is not re-detected.
        vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS)
        vrt.raise_pending()
        assert vrt.counters["sdc_detected"] == 1 and vrt.counters["ops_checked"] == 36

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("sr_name", COMPARISON_SEMIRINGS)
    @pytest.mark.parametrize("backend", ["tiled", "tiled-f32", "cnative"])
    def test_table_backed_grid_is_the_per_tile_guarded_loop(self, backend, sr_name, dtype,
                                                            monkeypatch):
        """A positional grid over a registered local matrix keeps its
        sums in the rank's tables: tiles, stored sums and counters are
        the per-tile guarded loop's, bit for bit, and every stored sum
        is its table row."""
        if backend not in available_backends():
            pytest.skip(f"{backend} backend unavailable")
        inner, sr = get_backend(backend), SEMIRINGS[sr_name]
        if backend == "cnative":
            _, numpy_calls = _spy_native_guard(monkeypatch, inner, sr, dtype)
        _no_list_band(monkeypatch)
        for phase in GRID_PHASES:
            for nr, nc in GRID_SHAPES:
                msg = f"{backend} {sr_name} {np.dtype(dtype).name} {phase} {nr}x{nc}"
                c_tiles, a_rows, b_cols = _grid_case(nr, nc, dtype)
                looped = _slab_guarded(inner, c_tiles, sr, slab=False)
                gridded = _slab_guarded(inner, c_tiles, sr)
                for _ in range(2):  # second pass: sums stored by the first are the baseline
                    _tile_loop(*looped[:2], a_rows, b_cols, sr, phase)
                    out = gridded[0].accumulate_grid(gridded[2], a_rows, b_cols, sr, phase)
                    assert out is gridded[2]
                    _assert_same_state(gridded[:2], looped[:2], msg)
                vrt = gridded[0]
                (_, row_table, col_table), = vrt._slabs.values()
                for guard in vrt._tiles.values():
                    assert np.shares_memory(guard.row, row_table), msg
                    assert np.shares_memory(guard.col, col_table), msg
                assert vrt.counters["ops_checked"] == 2 * nr * nc, msg
                vrt.raise_pending()
        if backend == "cnative":
            assert numpy_calls == []

    @pytest.mark.parametrize("budget", [None, 1], ids=["one-band", "band-per-row"])
    def test_table_backed_corrupt_tile_is_repaired_alone(self, budget, monkeypatch):
        nr, nc = 3, 4
        c_tiles, a_rows, b_cols = _grid_case(nr, nc)
        want = get_backend("tiled").srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols)
        _no_list_band(monkeypatch)
        results = []
        for slab in (True, False):
            inner = _CorruptsTarget(byte_budget=budget)
            vrt, tiles, grid = _slab_guarded(inner, c_tiles, slab=slab)
            inner.target = tiles[1][2]
            if slab:
                vrt.accumulate_grid(grid, a_rows, b_cols, MIN_PLUS)
            else:
                _tile_loop(vrt, tiles, a_rows, b_cols, MIN_PLUS, "outer")
            vrt.raise_pending()  # repaired in place: nothing escalates
            assert vrt.counters == {
                "blocks_tracked": (nr + 1) * (nc + 1), "ops_checked": nr * nc,
                "sdc_detected": 1, "repaired": 1,
            }
            for i in range(nr):
                for j in range(nc):
                    np.testing.assert_array_equal(tiles[i][j], want[i][j])
                    guard = vrt._tiles[id(tiles[i][j])]
                    assert checksums_match((guard.row, guard.col),
                                           block_checksums(want[i][j], MIN_PLUS))
            results.append((vrt, tiles))
        _assert_same_state(*results, "repair")

    def test_table_backed_flags_in_row_major_order(self, monkeypatch):
        """At-rest flips in two blocks between two grids: both flag, in
        the per-tile loop's order, and the first names the escalation."""
        nr, nc = 3, 4
        c_tiles, a_rows, b_cols = _grid_case(nr, nc, inf=False)
        _no_list_band(monkeypatch)
        raised, states = [], []
        for slab in (True, False):
            vrt, tiles, grid = _slab_guarded(get_backend("tiled"), c_tiles, slab=slab)

            def run():
                if slab:
                    vrt.accumulate_grid(grid, a_rows, b_cols, MIN_PLUS, "panel")
                else:
                    _tile_loop(vrt, tiles, a_rows, b_cols, MIN_PLUS, "panel")

            run()
            tiles[2][1][3, 4] *= -1.0
            tiles[0][3][5, 0] *= -1.0
            run()
            with pytest.raises(SilentCorruptionError, match="resident corruption") as info:
                vrt.raise_pending()
            raised.append((info.value.rank, info.value.block, info.value.op))
            assert vrt.counters == {
                "blocks_tracked": (nr + 1) * (nc + 1), "ops_checked": 2 * nr * nc,
                "sdc_detected": 2, "escalated": 2,
            }
            run()  # resynced: the same upsets are not re-detected
            vrt.raise_pending()
            states.append((vrt, tiles))
        assert raised == [(2, (1, 4), "srgemm_panel")] * 2
        _assert_same_state(*states, "flags")

    @pytest.mark.parametrize("case", ["ragged", "mixed-dtype"])
    def test_non_uniform_grid_takes_the_per_tile_guarded_path(self, case, monkeypatch):
        rng = np.random.default_rng(41)
        if case == "ragged":  # the last block row/column of a padded-free matrix
            ms, ns, k = (8, 8, 3), (8, 5), 8
            a_rows = [rng.uniform(0.5, 9.0, (m, k)) for m in ms]
            b_cols = [rng.uniform(0.5, 9.0, (k, n)) for n in ns]
            c_tiles = [[rng.uniform(0.5, 9.0, (m, n)) for n in ns] for m in ms]
        else:
            c_tiles, a_rows, b_cols = _grid_case(3, 2)
            c_tiles[1][1] = c_tiles[1][1].astype(np.float32)
        inner = TiledBackend()
        looped, gridded = _guarded(inner, c_tiles), _guarded(inner, c_tiles)
        _tile_loop(*looped, a_rows, b_cols, MIN_PLUS, "outer")
        grid_shapes = []
        grid_entry = inner.srgemm_grid

        def grid_spy(c_tiles, *args, **kwargs):
            grid_shapes.append((len(c_tiles), len(c_tiles[0])))
            return grid_entry(c_tiles, *args, **kwargs)

        monkeypatch.setattr(inner, "srgemm_grid", grid_spy)
        ChecksummedBackend(gridded[0]).srgemm_grid(gridded[1], a_rows, b_cols)
        assert grid_shapes == [(1, 1)] * 6  # one guarded one-tile grid per tile
        _assert_same_state(gridded, looped, case)

    def test_small_byte_budget_walks_row_bands(self, monkeypatch):
        """The snapshot is a budgeted kernel temporary: below one tile
        row's bytes the grid is walked a tile row at a time, each band
        its own guarded cycle around its own inner grid call."""
        nr, nc = 4, 3
        c_tiles, a_rows, b_cols = _grid_case(nr, nc)
        whole = _guarded(TiledBackend(), c_tiles)
        whole[0].accumulate_grid(whole[1], a_rows, b_cols, MIN_PLUS)
        for budget, bands in ((1, nr), (2 * nc * 8 * 8 * 8, 2), (nr * nc * 8 * 8 * 8, 1)):
            inner = TiledBackend(byte_budget=budget)
            grid_calls = _spy(monkeypatch, inner, "srgemm_grid")
            banded = _guarded(inner, c_tiles)
            banded[0].accumulate_grid(banded[1], a_rows, b_cols, MIN_PLUS)
            assert len(grid_calls) == bands
            _assert_same_state(banded, whole, f"budget {budget}")
        # A corrupt tile in a later band is still found and repaired alone.
        inner = _CorruptsTarget(byte_budget=1)
        vrt, tiles = _guarded(inner, c_tiles)
        inner.target = tiles[3][0]
        vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS)
        assert (vrt.counters["sdc_detected"], vrt.counters["repaired"]) == (1, 1)
        for got_row, want_row in zip(tiles, whole[1]):
            for got, want in zip(got_row, want_row):
                np.testing.assert_array_equal(got, want)
                guard = vrt._tiles[id(got)]
                assert checksums_match((guard.row, guard.col), block_checksums(want, MIN_PLUS))

    def test_flag_order_is_pre_op_compares_then_post_op_compares(self):
        """Several tiles flag in one grid (one band): every pre-op
        compare (row-major) is recorded before any post-op compare
        (row-major), and the first recorded escalation is the one
        raised.  The per-tile loop interleaves them tile by tile, so it
        would name tile (0, 0) here; counters agree either way."""
        c_tiles, a_rows, b_cols = _grid_case(2, 3, inf=False)
        inner = _CorruptsTarget()
        vrt, tiles = _guarded(inner, c_tiles)
        vrt.reference = inner  # the repair is corrupt too: post-op mismatch persists
        inner.target = tiles[0][0]
        tiles[1][2][0, 0] *= -1.0  # at rest, later in row-major order
        tiles[0][1][0, 0] *= -1.0  # at rest, earlier
        vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS, "panel")
        assert vrt.counters == {
            "blocks_tracked": 6, "ops_checked": 6, "sdc_detected": 3, "escalated": 3,
        }
        with pytest.raises(SilentCorruptionError, match="resident corruption") as info:
            vrt.raise_pending()
        assert (info.value.block, info.value.op) == ((0, 1), "srgemm_panel")

    @pytest.mark.parametrize(
        "op", ["srgemm_outer", "panel_row_update", "panel_col_update", "grid:srgemm_panel"]
    )
    def test_persisting_mismatch_names_the_op_that_ran(self, op):
        """Inner result *and* reference repair corrupt: the escalation
        carries the phase of the guarded grid that ran (a panel update is
        a one-tile panel grid), not the fused kernel the repair happens
        to use."""
        c_tiles, a_rows, b_cols = _grid_case(2, 2, inf=False)
        inner = _CorruptsTarget()
        vrt, tiles = _guarded(inner, c_tiles)
        vrt.reference = inner
        inner.target = tiles[1][0]
        checked = ChecksummedBackend(vrt)
        if op == "srgemm_outer":
            checked.srgemm_outer(tiles[1][0], a_rows[1], b_cols[0])
        elif op.startswith("panel"):
            getattr(checked, op)(tiles[1][0], a_rows[1])
        else:
            checked.srgemm_grid(tiles, a_rows, b_cols, phase="panel")
        assert vrt.counters["sdc_detected"] == 1 and "repaired" not in vrt.counters
        with pytest.raises(SilentCorruptionError, match="persisted after reference repair") as info:
            vrt.raise_pending()
        assert (info.value.rank, info.value.block) == (2, (1, 0))
        assert info.value.op == ("srgemm_panel" if "panel" in op else "srgemm_outer")

    @pytest.mark.parametrize("variant", ["baseline", "async", "offload"])
    def test_verified_solve_on_the_default_backend(self, w48, oracle, variant):
        """End to end on whatever ``$REPRO_SRGEMM_BACKEND`` selects (CI
        runs this class a second time under ``tiled``, where the inner
        grid entry is the base-class loop): a resident-block flip is
        detected, recovered and the result stays bit-exact."""
        clean = run(w48, variant, verify="checksum")
        assert clean.verification["sdc_detected"] == 0
        assert clean.makespan == PRE_FAULT_MAKESPANS[variant]
        r = run(
            w48, variant, verify="checksum",
            fault_plan=["memflip:rank=1,k=3", "policy:ckpt=2"], fault_seed=4,
        )
        cert = r.verification
        assert cert["passed"] and cert["sdc_detected"] >= 1
        assert cert["repaired"] + cert["escalated"] >= 1
        for got in (clean.dist, r.dist):
            np.testing.assert_array_equal(got, oracle)


# ---------------------------------------------------------------------------
# The native guard unit (cnative's guard_band / tile_sums)
# ---------------------------------------------------------------------------
needs_cnative = pytest.mark.skipif(
    "cnative" not in available_backends(), reason="no C compiler on PATH"
)

EDGE_DIMS = (1, 3, 16, 17)


def _edge_matrix(rng, shape, sr, dtype, both_infs):
    """Values with a third of the entries the ⊕-identity and, when
    ``both_infs``, a tenth its opposite infinity (never both in ⊗ operands
    of a (x,+) semiring: inf + -inf is not a distance)."""
    x = rng.uniform(0.5, 9.0, shape)
    x[rng.random(shape) < 0.3] = sr.zero
    if both_infs:
        x[rng.random(shape) < 0.1] = -sr.zero
    return x.astype(dtype)


class _CorruptingCNative(CNativeBackend):
    """The native kernel, except that the grid product leaves one entry
    of ``target`` (by identity) beyond every true value: ``fault`` is
    the entry and its value.  Its guarded bands run the native band up
    to the prediction, then this product."""

    target = None
    fault = ((1, 2), -1.0)

    def srgemm_grid(self, c_tiles, a_rows, b_cols, semiring=MIN_PLUS, phase="outer", hops=None):
        super().srgemm_grid(c_tiles, a_rows, b_cols, semiring=semiring, phase=phase, hops=hops)
        if any(c is self.target for c_row in c_tiles for c in c_row):
            self.target[self.fault[0]] = self.fault[1]
        return c_tiles


class _ComposedCNative(_CorruptingCNative):
    """The composed guard cycle over the native entries: the base
    class's ``guard_band`` (``tile_sums``, ``predict_sums``,
    ``srgemm_grid``, ``tile_sums``)."""

    guard_band = KernelBackend.guard_band


#: ``srgemm_tile``'s C signature, for a tile callback handed to the band.
_TILE_FN = ctypes.CFUNCTYPE(
    None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_long, ctypes.c_long, ctypes.c_long,
)


@contextlib.contextmanager
def _planted_in_band(backend, sr, target, fault):
    """Within the block, ``backend``'s guard band runs its products
    through a tile callback: the real ``srgemm_tile``, then, when the
    product is into ``target`` (by address), ``fault = (entry, value)``
    is set in it."""
    key = (sr.name, target.dtype)
    unit = backend._unit_for(sr, target.dtype)
    entry = ctypes.c_double if target.dtype == np.float64 else ctypes.c_float
    offset = int(np.ravel_multi_index(fault[0], target.shape)) * target.itemsize
    address = target.__array_interface__["data"][0]

    @_TILE_FN
    def tile(c, a, b, m, n, k):
        unit.tile(c, a, b, m, n, k)
        if c == address:
            entry.from_address(c + offset).value = fault[1]

    backend._units[key] = unit._replace(tile_address=ctypes.cast(tile, ctypes.c_void_p).value)
    try:
        yield
    finally:
        backend._units[key] = unit


def _band_case(c_tiles, sr, table):
    """``(grid, stored, tiles)`` for a direct call of the band entry on
    private copies of ``c_tiles``: on the table path a positional grid
    over a slab with one more block row and column in front, its stored
    sums the slab's tables; on the list path the tiles themselves, tile
    (0, 1) untracked."""
    nr, nc = len(c_tiles), len(c_tiles[0])
    first = c_tiles[0][0]
    tiled = TiledBackend()
    if table:
        local = np.full((nr + 1, nc + 1, *first.shape), 4.0, dtype=first.dtype)
        for i, c_row in enumerate(c_tiles):
            for j, c in enumerate(c_row):
                local[i + 1, j + 1] = c
        blocks = RankBlocks(local, range(nr + 1), range(nc + 1))
        grid = blocks.grid([[(i + 1, j + 1) for j in range(nc)] for i in range(nr)])
        _, (rows, cols) = tiled.tile_sums(blocks.tiles, sr)
        return grid, StoredSums(rows, cols, grid.flat.index), [list(row) for row in grid]
    grid = OperandList.grid(_copy_tiles(c_tiles))
    _, (rows, cols) = tiled.tile_sums(grid.flat, sr)
    tracked = np.ones(nr * nc, dtype=bool)
    tracked[1] = False
    return grid, StoredSums(rows, cols, tracked=tracked), list(grid)


def _assert_same_band(got, want, msg):
    """Two ``(GuardBand or None, StoredSums, tiles)`` triples agree bit
    for bit."""
    (g_band, g_stored, g_tiles), (w_band, w_stored, w_tiles) = got, want
    assert (g_band is None) == (w_band is None), msg
    if w_band is not None:
        _assert_same_array(g_band.snap, w_band.snap, msg)
        for name in ("pre", "predicted", "actual"):
            for g, w in zip(getattr(g_band, name), getattr(w_band, name)):
                _assert_same_array(g, w, f"{msg} {name}")
        _assert_same_array(g_band.flags, w_band.flags, f"{msg} flags")
    _assert_same_array(g_stored.rows, w_stored.rows, f"{msg} stored rows")
    _assert_same_array(g_stored.cols, w_stored.cols, f"{msg} stored cols")
    for g_row, w_row in zip(g_tiles, w_tiles):
        for g, w in zip(g_row, w_row):
            _assert_same_array(g, w, f"{msg} tiles")


def _beyond(sr):
    """A value beyond every distance in ``⊕``'s direction: every sum of a
    row or column holding it becomes it."""
    return -sr.zero


@needs_cnative
class TestNativeGuard:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("sr_name", COMPARISON_SEMIRINGS)
    def test_native_entries_equal_the_numpy_defaults(self, sr_name, dtype, monkeypatch):
        """The native sums pass, and the band's prediction (two products
        through the kernel unit), equal the NumPy defaults."""
        sr, backend = SEMIRINGS[sr_name], get_backend("cnative")
        native, numpy_calls = _spy_native_guard(monkeypatch, backend, sr, dtype)
        numpy_default = TiledBackend()  # the base class's entries
        mixing_ok = sr_name in ("max_min", "min_max")  # ⊗ selects: no inf - inf
        rng = np.random.default_rng(7)
        nr, nc = 2, 3
        for m in EDGE_DIMS:
            for n in EDGE_DIMS:
                tiles = [_edge_matrix(rng, (m, n), sr, dtype, True) for _ in range(nr * nc)]
                for snapshot in (False, True):
                    got_snap, got = backend.tile_sums(tiles, sr, snapshot=snapshot)
                    want_snap, want = numpy_default.tile_sums(tiles, sr, snapshot=snapshot)
                    for g, w in zip(got, want):
                        _assert_same_array(g, w, f"{sr_name} sums {m}x{n}")
                    if snapshot:
                        _assert_same_array(got_snap, want_snap, f"{sr_name} snapshot {m}x{n}")
                    else:
                        assert got_snap is None
                for k in EDGE_DIMS:
                    msg = f"{sr_name} {np.dtype(dtype).name} predict ({m}, {n}, {k})"
                    a_rows = [_edge_matrix(rng, (m, k), sr, dtype, mixing_ok) for _ in range(nr)]
                    b_cols = [_edge_matrix(rng, (k, n), sr, dtype, mixing_ok) for _ in range(nc)]
                    grid = OperandList.grid([[t.copy() for t in tiles[i * nc:(i + 1) * nc]]
                                             for i in range(nr)])
                    # Stored sums that match nothing: the band is flagged
                    # and returns what it computed.
                    stored = StoredSums(*(np.full_like(x, np.nan) for x in want))
                    got = backend.guard_band(grid, a_rows, b_cols, stored, sr).predicted
                    expect = numpy_default.predict_sums(want, a_rows, b_cols, sr)
                    for g, w in zip(got, expect):
                        _assert_same_array(g, w, msg)
        cases = len(EDGE_DIMS) ** 2
        assert native == {"sums": 2 * cases, "band": cases * len(EDGE_DIMS)}
        # The default-entry calls above, and nothing of cnative's, took NumPy.
        assert numpy_calls.count("tile_sums") == 2 * cases
        assert numpy_calls.count("predict_sums") == cases * len(EDGE_DIMS)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("sr_name", COMPARISON_SEMIRINGS)
    def test_band_entry_is_the_composed_cycle_bit_for_bit(self, sr_name, dtype, monkeypatch):
        """The one-call band equals the composed four-call cycle -
        snapshot, pre-op, predicted and post-op sums, flags, stored sums
        and tiles - on the table and the list path, clean and with a
        planted at-rest flip (bit 0) and a planted post-op fault (bit 1,
        through a tile callback on the native side); and a guarded grid
        over either escalates and repairs the same, in the same order."""
        sr = SEMIRINGS[sr_name]
        native, composed = CNativeBackend(), _ComposedCNative()
        counts, numpy_calls = _spy_native_guard(monkeypatch, native, sr, dtype)
        rng = np.random.default_rng(11)
        nr, nc = 2, 3
        bands = 0

        def run(backend, target, fn):
            """``fn()`` on ``backend`` with, when ``target`` is given, the
            post-op fault planted in it (the native side: in the band)."""
            if target is None or backend is composed:
                composed.target = target
                try:
                    return fn()
                finally:
                    composed.target = None
            with _planted_in_band(native, sr, target, composed.fault):
                return fn()

        for m, n, k in itertools.product(EDGE_DIMS, repeat=3):
            c_tiles = [[_edge_matrix(rng, (m, n), sr, dtype, False) for _ in range(nc)]
                       for _ in range(nr)]
            # No operand holds _beyond(sr), so no true sum is it and a
            # planted one always shows.
            a_rows = [_edge_matrix(rng, (m, k), sr, dtype, False) for _ in range(nr)]
            b_cols = [_edge_matrix(rng, (k, n), sr, dtype, False) for _ in range(nc)]
            composed.fault = ((m - 1, n - 1), _beyond(sr))
            for table, planted in itertools.product((True, False), (False, True)):
                msg = f"{sr_name} {np.dtype(dtype).name} ({m}, {n}, {k}) table={table} {planted}"
                # The entry itself.
                bands_run, states = [], []
                for backend in (native, composed):
                    grid, stored, tiles = _band_case(c_tiles, sr, table)
                    if planted:
                        tiles[1][2][0, 0] = _beyond(sr)  # at rest: its stored sums are stale
                    band = run(backend, tiles[0][1] if planted else None,
                               lambda: backend.guard_band(grid, a_rows, b_cols, stored, sr))
                    bands_run.append((band, stored, tiles))
                _assert_same_band(*bands_run, msg)
                band = bands_run[0][0]
                if planted:
                    assert band.flags.tolist() == [0, 2, 0, 0, 0, 1], msg
                else:
                    assert band is None, msg
                # A guarded grid over it: counters, repairs, escalation order.
                for backend in (native, composed):
                    if table:
                        vrt, tiles, grid = _slab_guarded(backend, c_tiles, sr)
                    else:
                        vrt, tiles = _guarded(backend, c_tiles, sr, lambda i, j: (i, j) != (0, 1))
                        grid = tiles
                    vrt.accumulate_grid(grid, a_rows, b_cols, sr, "panel")  # stores the sums
                    if planted:
                        tiles[1][2][0, 0] = _beyond(sr)
                    run(backend, tiles[0][1] if planted else None,
                        lambda: vrt.accumulate_grid(grid, a_rows, b_cols, sr, "outer"))
                    escalation, vrt._escalate = vrt._escalate, None
                    states.append((vrt, tiles, escalation))
                (g_vrt, g_tiles, g_esc), (w_vrt, w_tiles, w_esc) = states
                _assert_same_state((g_vrt, g_tiles), (w_vrt, w_tiles), msg)
                if planted:
                    assert g_vrt.counters["sdc_detected"] == 2, msg
                    assert (g_vrt.counters["repaired"], g_vrt.counters["escalated"]) == (1, 1), msg
                    assert (str(g_esc), g_esc.rank, g_esc.block, g_esc.op) == (
                        str(w_esc), w_esc.rank, w_esc.block, w_esc.op
                    ), msg
                    assert "resident corruption" in str(g_esc), msg
                    assert (g_esc.block, g_esc.op) == ((2, 3) if table else (1, 2), "srgemm_outer")
                else:
                    assert g_esc is None and w_esc is None, msg
                bands += 3  # the entry, then two guarded grids
        # Every NumPy prediction was the composed side's.
        assert counts["band"] == numpy_calls.count("predict_sums") == bands

    def test_corrupt_tile_of_a_native_grid_is_found_and_repaired_alone(self, monkeypatch):
        """A subclass that replaces the grid product (the fault) runs the
        native band up to the prediction, then its product and one native
        post-op sums pass."""
        nr, nc = 3, 4
        c_tiles, a_rows, b_cols = _grid_case(nr, nc)
        want = get_backend("tiled").srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols)
        inner = _CorruptingCNative()
        native, numpy_calls = _spy_native_guard(monkeypatch, inner, MIN_PLUS, np.float64)
        vrt, tiles = _guarded(inner, c_tiles)
        inner.target = tiles[1][2]
        vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS)
        vrt.raise_pending()  # repaired in place: nothing escalates
        assert vrt.counters == {
            "blocks_tracked": nr * nc, "ops_checked": nr * nc, "sdc_detected": 1, "repaired": 1,
        }
        # Registration, the band, the post-op pass.
        assert native == {"sums": 2, "band": 1} and numpy_calls == []
        for i in range(nr):
            for j in range(nc):
                np.testing.assert_array_equal(tiles[i][j], want[i][j])
                guard = vrt._tiles[id(tiles[i][j])]
                assert checksums_match((guard.row, guard.col), block_checksums(want[i][j], MIN_PLUS))

    def test_corrupt_tile_planted_in_the_native_band_is_found_and_repaired_alone(
        self, monkeypatch
    ):
        """The same fault planted inside the one native call (a tile
        callback that corrupts the product into one tile): found by the
        band's own compare and repaired alone."""
        nr, nc = 3, 4
        c_tiles, a_rows, b_cols = _grid_case(nr, nc)
        want = get_backend("tiled").srgemm_grid(_copy_tiles(c_tiles), a_rows, b_cols)
        inner = CNativeBackend()
        native, numpy_calls = _spy_native_guard(monkeypatch, inner, MIN_PLUS, np.float64)
        vrt, tiles = _guarded(inner, c_tiles)
        with _planted_in_band(inner, MIN_PLUS, tiles[1][2], ((1, 2), -1.0)):
            vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS)
        vrt.raise_pending()  # repaired in place: nothing escalates
        assert vrt.counters == {
            "blocks_tracked": nr * nc, "ops_checked": nr * nc, "sdc_detected": 1, "repaired": 1,
        }
        assert native == {"sums": 1, "band": 1} and numpy_calls == []
        for i in range(nr):
            for j in range(nc):
                np.testing.assert_array_equal(tiles[i][j], want[i][j])
                guard = vrt._tiles[id(tiles[i][j])]
                assert checksums_match((guard.row, guard.col), block_checksums(want[i][j], MIN_PLUS))

    @pytest.mark.parametrize("phase", ["outer", "panel"])
    def test_at_rest_flip_escalates_through_the_native_path(self, phase, monkeypatch):
        c_tiles, a_rows, b_cols = _grid_case(3, 4, inf=False)
        inner = get_backend("cnative")
        native, numpy_calls = _spy_native_guard(monkeypatch, inner, MIN_PLUS, np.float64)
        vrt, tiles = _guarded(inner, c_tiles)
        vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS, phase)
        tiles[2][1][3, 4] *= -1.0  # resident corruption between two grids
        vrt.accumulate_grid(tiles, a_rows, b_cols, MIN_PLUS, phase)
        assert vrt.counters == {
            "blocks_tracked": 12, "ops_checked": 24, "sdc_detected": 1, "escalated": 1,
        }
        with pytest.raises(SilentCorruptionError, match="resident corruption") as info:
            vrt.raise_pending()
        want = (2, (2, 1), f"srgemm_{phase}")
        assert (info.value.rank, info.value.block, info.value.op) == want
        assert native == {"sums": 1, "band": 2} and numpy_calls == []

    def test_failed_guard_compile_warns_once_and_guards_through_numpy(
        self, tmp_path, monkeypatch, w48
    ):
        monkeypatch.setenv(cnative_mod.ENV_CNATIVE_CACHE, str(tmp_path))
        config = dict(verify="checksum", kernel_backend="cnative")
        healthy = run(w48, "async", **config)
        backend = CNativeBackend()
        assert backend._unit_for(MIN_PLUS, np.dtype(np.float64)) is not None  # kernel compiled
        spawned = []
        real_run = cnative_mod.subprocess.run

        def failing_cc(cmd, **kwargs):
            spawned.append(cmd)
            return real_run(["false"], **{**kwargs, "input": None})

        monkeypatch.setattr(cnative_mod.subprocess, "run", failing_cc)
        config["kernel_backend"] = backend
        with pytest.warns(RuntimeWarning, match="guard unit compile failed") as caught:
            degraded = run(w48, "async", **config)
        assert len(caught) == 1
        assert len(spawned) == len(cnative_mod._RUNGS)  # each rung once, then never again
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = run(w48, "async", **config)
        assert len(spawned) == len(cnative_mod._RUNGS)
        assert backend._degraded and not backend._guards
        # Guarded all the same, through the NumPy entries: same certificate.
        for r in (degraded, again):
            assert r.verification == healthy.verification
            assert r.verification["ops_checked"] > 0
            np.testing.assert_array_equal(r.dist, healthy.dist)
        assert sorted(p.name.split("-")[0] for p in tmp_path.iterdir()) == ["srgemm"]


# ---------------------------------------------------------------------------
# Certificate
# ---------------------------------------------------------------------------
class TestCertificate:
    def test_deterministic_across_identical_runs(self, w48):
        a = run(w48, "async", verify="full", fault_seed=7).verification
        b = run(w48, "async", verify="full", fault_seed=7).verification
        assert a == b

    def test_deterministic_under_faults(self, w48):
        plan = ["memflip:rank=0,k=2", "policy:ckpt=2"]
        a = run(w48, "async", verify="full", fault_plan=plan, fault_seed=3).verification
        b = run(w48, "async", verify="full", fault_plan=plan, fault_seed=3).verification
        assert a == b

    def test_residual_audit_flags_corrupt_distances(self, w48, oracle):
        """Feeding the audit a corrupted matrix must fail the
        certificate - this is the end-of-run net under everything
        else."""
        vrt = VerifyRuntime("full", get_backend("tiled"), semiring=MIN_PLUS, seed=0)
        bad = oracle.copy()
        # Inflate a random half of the entries: a uniform row/column
        # shift would cancel out of the triangle slack, a random
        # scatter cannot.
        mask = np.random.default_rng(1).random(bad.shape) < 0.5
        bad[mask] += 50.0
        cert = vrt.build_certificate(bad, w48)
        assert not cert["passed"]
        assert (
            cert["audit"]["triangle_violations"] > 0
            or cert["audit"]["sssp_mismatches"] > 0
        )
        good = vrt.build_certificate(oracle, w48)
        assert good["passed"]


# ---------------------------------------------------------------------------
# Error classes and exit codes
# ---------------------------------------------------------------------------
class TestErrors:
    def test_exit_codes(self):
        assert exit_code_for(SilentCorruptionError("x")) == 10
        assert exit_code_for(VerificationError("x")) == 11
        assert exit_code_for(ValidationError("x")) == 3

    def test_verification_error_is_a_validation_error(self):
        assert issubclass(VerificationError, ValidationError)

    def test_silent_corruption_error_carries_location(self):
        exc = SilentCorruptionError("bad tile", rank=2, block=(1, 3), op=7)
        assert (exc.rank, exc.block, exc.op) == (2, (1, 3), 7)
