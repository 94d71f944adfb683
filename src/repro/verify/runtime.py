"""ABFT verification runtime.

One :class:`VerifyRuntime` is shared by every simulated rank of a run
(blocks are rank-private, so guards never contend).  It tracks each
resident distance block's row/col ``⊕``-checksums - stored per rank in
two sum tables, one row per block - validates every
checksummed kernel call, repairs flagged tiles in place from their
operands via the full-width ``tiled`` kernel, and — when repair is impossible —
*defers* escalation: the runtime records a pending
:class:`~repro.errors.SilentCorruptionError` and the executor raises it
at the next op boundary of the detecting rank program.  Raising inside
a kernel closure would fail the owning stream's Process event, and the
simulation engine aborts the whole run on any unwaited failed event —
bypassing the driver's supervisor.  At an op boundary the error flows
through the normal recovery path (restart from the newest uncorrupted
checkpoint), exactly like a rank crash.

Verification runs synchronously inside the kernel/host closures that
already model the numerics, so it adds **zero simulated time**: the
makespan of a run is bit-identical across ``--verify`` modes (the
physical wall-clock overhead is what
``benchmarks/bench_ablation_verify_overhead.py`` measures).  Repair
likewise charges no modeled time — a known modeling limitation
documented in docs/FAULTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SilentCorruptionError
from ..semiring.backends import get_backend
from ..semiring.backends.base import (
    OperandList,
    TileGrid,
    grid_hop_tiles,
    stack_tiles,
    validate_grid,
)
from ..semiring.minplus import MIN_PLUS, Semiring
from .checksums import (
    Checksums,
    block_checksums,
    checksums_match,
    mismatched_tiles,
    predicted_accumulate,
    predicted_merge,
    uniform_tiles,
)

__all__ = ["VerifyRuntime", "VERIFY_MODES"]

#: Valid values of ``SolveConfig.verify`` / the CLI ``--verify`` knob.
VERIFY_MODES = ("off", "checksum", "full")


@dataclass
class _Guard:
    """Verification state of one tracked (resident) distance block.
    ``row`` / ``col`` are its rows of the rank's sum tables (its own
    arrays when the rank's blocks differ in shape), written in place
    (:meth:`store`)."""

    rank: int
    key: Tuple[int, int]
    arr: np.ndarray
    row: np.ndarray
    col: np.ndarray
    # Sentinel state, ``full`` mode only: sampled flat indices and the
    # last readings at those positions.
    sent_pos: Optional[np.ndarray] = None
    sent_vals: Optional[np.ndarray] = None

    def store(self, sums: Checksums) -> None:
        self.row[...], self.col[...] = sums


class VerifyRuntime:
    """Checksummed-kernel bookkeeping, sentinel, repair, certificate."""

    def __init__(
        self,
        mode: str,
        inner,
        semiring: Semiring = MIN_PLUS,
        seed: int = 0,
        sentinel_samples: int = 4,
        audit_triples: int = 256,
        audit_sources: int = 2,
    ):
        if mode not in ("checksum", "full"):
            raise ValueError(f"verify mode must be 'checksum' or 'full', got {mode!r}")
        self.mode = mode
        self.inner = inner
        self.semiring = semiring
        self.seed = abs(int(seed))
        self.sentinel_samples = int(sentinel_samples)
        self.audit_triples = int(audit_triples)
        self.audit_sources = int(audit_sources)
        #: The repair kernel: full width, pure NumPy, always available.
        self.reference = get_backend("tiled")
        self.counters: Dict[str, int] = {}
        self._tiles: Dict[int, _Guard] = {}
        self._rank_ids: Dict[int, List[int]] = {}
        #: id(slab) -> (slab, row-sum table, col-sum table) of each rank
        #: registered with a local matrix; table row t is the block at
        #: the slab's flat position t.
        self._slabs: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._rank_slab: Dict[int, int] = {}
        self._transient: Dict[int, Checksums] = {}
        self._escalate: Optional[SilentCorruptionError] = None

    # -- lifecycle -----------------------------------------------------------
    def begin_epoch(self) -> None:
        """Reset per-epoch state before a (re)start; counters persist so
        the certificate reflects the whole run."""
        self._escalate = None
        self._transient.clear()

    def register_rank(self, rank: int, blocks: Dict[Tuple[int, int], np.ndarray]) -> None:
        """(Re)register a rank's resident blocks: record their current
        checksums and, in ``full`` mode, seed the sentinel baselines.
        Called at every rank program build, so restarts re-anchor on the
        restored arrays.  Uniform blocks' sums go into two tables, one
        row per block in key order; the blocks of a local matrix
        (``blocks.tiles``, positional) are in key order already, and a
        grid of them reads and writes its sums by position."""
        for old_id in self._rank_ids.pop(rank, []):
            self._tiles.pop(old_id, None)
        self._slabs.pop(self._rank_slab.pop(rank, None), None)
        keys = sorted(blocks)
        slab_tiles = getattr(blocks, "tiles", None)
        arrs = [blocks[key] for key in keys] if slab_tiles is None else slab_tiles
        if len(arrs) and uniform_tiles(arrs):
            tables = self.inner.tile_sums(arrs, self.semiring)[1]
            sums = zip(*tables)
            if slab_tiles is not None:
                slab = slab_tiles.slab
                self._slabs[id(slab)] = (slab, *tables)
                self._rank_slab[rank] = id(slab)
        else:
            sums = (block_checksums(arr, self.semiring) for arr in arrs)
        ids: List[int] = []
        for key, arr, (row, col) in zip(keys, arrs, sums):
            guard = _Guard(rank, key, arr, row, col)
            if self.mode == "full":
                rng = np.random.default_rng([self.seed, rank, key[0], key[1]])
                guard.sent_pos = rng.integers(arr.size, size=min(self.sentinel_samples, arr.size))
                guard.sent_vals = arr.flat[guard.sent_pos].copy()
            self._tiles[id(arr)] = guard
            ids.append(id(arr))
        self._rank_ids[rank] = ids
        self.counters["blocks_tracked"] = len(self._tiles)

    def raise_pending(self) -> None:
        """Raise (and clear) any deferred escalation.  Called by the
        executor between ops, where the engine's failure propagation
        reaches the driver's supervisor instead of aborting the run."""
        if self._escalate is not None:
            exc, self._escalate = self._escalate, None
            raise exc

    # -- internal helpers ----------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _flag(
        self,
        message: str,
        guard: Optional[_Guard] = None,
        op: Optional[str] = None,
    ) -> None:
        self._count("escalated")
        if self._escalate is None:
            self._escalate = SilentCorruptionError(
                message,
                rank=guard.rank if guard else None,
                block=guard.key if guard else None,
                op=op,
            )

    def _precheck(self, guard: Optional[_Guard], actual: Checksums, op: str) -> None:
        """Compare a tracked block's stored checksums against its current
        contents.  A mismatch means the block was corrupted *at rest*
        since its last checksummed op — its true value is gone, so the
        only remedy is escalation.  Stored sums are resynced so one
        upset does not cascade into a detection per subsequent op."""
        if guard is None:
            return
        if not checksums_match((guard.row, guard.col), actual):
            self._count("sdc_detected")
            self._flag(
                f"resident corruption in block {guard.key} of rank {guard.rank} "
                f"(stored checksums diverge before {op})",
                guard,
                op,
            )
            guard.store(actual)

    # -- guarded kernels (called from ChecksummedBackend) --------------------
    def accumulate(self, c, a, b, semiring: Semiring, phase: str, hops=None) -> np.ndarray:
        """Guarded one-tile product: the inner backend runs it as a
        one-tile ``phase`` grid, and a mismatch escalates as
        ``srgemm_{phase}``.  Repair always goes through the full-width
        ``tiled`` kernel (exact equivalent for comparison-⊕ semirings).

        ``hops = (c_nxt, a_nxt)`` makes it the (min,+) product that also
        updates ``c``'s next hops.  Path kernels run at operand width,
        so the prediction skips the compute-dtype cast."""
        op = f"srgemm_{phase}"
        guard = self._tiles.get(id(c))
        pre = block_checksums(c, semiring)
        self._precheck(guard, pre, op)
        c_pre = c.copy()
        width = self.inner.compute_dtype if hops is None else None
        predicted = predicted_accumulate(pre, a, b, semiring, width)
        hop = None if hops is None else (hops[0], hops[0].copy(), hops[1])
        self.inner.srgemm_grid(
            [[c]], [a], [b], semiring=semiring, phase=phase,
            hops=None if hops is None else ([[hops[0]]], [hops[1]]),
        )
        self._count("ops_checked")
        actual = block_checksums(c, semiring)
        if not checksums_match(predicted, actual):
            self._count("sdc_detected")
            actual = self._repair_accumulate(guard, c, c_pre, pre, a, b, semiring, op, hop)
        if guard is not None:
            guard.store(actual)
        else:
            self._transient[id(c)] = actual
        return c

    def accumulate_grid(
        self,
        c_tiles: Sequence[Sequence[np.ndarray]],
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        semiring: Semiring,
        phase: str = "outer",
        hops=None,
    ) -> Sequence[Sequence[np.ndarray]]:
        """Guarded grid product: what :meth:`accumulate` does for one
        tile, for every tile of ``C[i][j] ← C[i][j] ⊕ A[i] ⊗ B[j]``, in a
        constant number of array operations around **one**
        ``inner.srgemm_grid`` call.  ``hops = (c_hop_tiles, a_hop_rows)``,
        of the grid's shape, carries next hops through the same cycle.

        Every tile is still pre-compared against its stored sums,
        snapshotted, predicted, post-compared and individually
        repairable.  Order when several tiles flag: all pre-op compares
        in row-major order, then all post-op compares in row-major
        order (the first recorded escalation wins, as everywhere).

        The snapshot (distance tiles, and hop tiles beside them) is a
        kernel temporary like any other (DESIGN decision 6): the grid is
        walked in bands of whole tile rows whose snapshot fits
        ``inner.resolved_byte_budget()``.  A grid whose tiles, row
        operands or column operands are not each of one shape and dtype
        takes the one-tile guarded cycle per tile instead.  A positional
        grid (:class:`~repro.semiring.backends.base.TileGrid`) of a
        registered local matrix keeps its stored sums in the rank's
        tables: one gather before the product, one scatter after."""
        op = validate_grid(c_tiles, a_rows, b_cols, phase)
        if isinstance(c_tiles, TileGrid):
            tiles = c_tiles.flat
        else:
            tiles = [c for c_row in c_tiles for c in c_row]
        if not len(tiles):
            return c_tiles
        hop_tiles = [] if hops is None else [
            cell[1] for cell in grid_hop_tiles(c_tiles, a_rows, b_cols, semiring, phase, hops)
        ]
        if not (
            uniform_tiles(tiles) and uniform_tiles(a_rows) and uniform_tiles(b_cols)
            and (hops is None or uniform_tiles(hop_tiles))
        ):
            for i, (a, c_row) in enumerate(zip(a_rows, c_tiles)):
                for j, (b, c) in enumerate(zip(b_cols, c_row)):
                    hop = None if hops is None else (hops[0][i][j], hops[1][i])
                    self.accumulate(c, a, b, semiring, phase, hop)
            return c_tiles
        tile_bytes = tiles[0].nbytes + (hop_tiles[0].nbytes if hop_tiles else 0)
        step = max(1, self.inner.resolved_byte_budget() // (len(b_cols) * tile_bytes))
        b_cols = OperandList(b_cols)
        for r0 in range(0, len(a_rows), step):
            band = slice(r0, r0 + step)
            band_hops = None if hops is None else (hops[0][band], hops[1][band])
            self._accumulate_band(
                c_tiles[band], a_rows[band], b_cols, semiring, phase, op, band_hops
            )
        return c_tiles

    def _accumulate_band(self, c_tiles, a_rows, b_cols, semiring, phase, op, hops) -> None:
        """One guarded cycle over a uniform grid (a band of whole tile
        rows of the caller's).  Both array passes are the inner backend's
        guard entries, so a native backend checks at kernel speed; the
        product in between is still ``inner.srgemm_grid``, which is what
        the sums check."""
        inner = self.inner
        # Each operand list is handed to several entries: let the backend
        # keep what it derives from one (cnative: its pointer array).
        a_rows = OperandList(a_rows)
        tables = self._slabs.get(id(c_tiles.slab)) if isinstance(c_tiles, TileGrid) else None
        if tables is not None:
            # Tiles of a registered local matrix: every one is tracked,
            # and its stored sums are its tables' rows at its position.
            tiles = c_tiles.flat
            _, row_table, col_table = tables
            guards = None
        else:
            c_tiles = OperandList.grid(c_tiles)
            tiles = c_tiles.flat
            guards = [self._tiles.get(id(c)) for c in tiles]

        def guard_of(t):
            return self._tiles.get(id(tiles[t])) if guards is None else guards[t]

        # The snapshot (the repair pre-image) is taken in the pass that
        # takes the pre-op sums.
        snap, pre = inner.tile_sums(tiles, semiring, snapshot=True)
        pre_row, pre_col = pre
        # Pre-op: stored sums against contents (an untracked tile stands
        # in for itself); the exact per-tile verdict stays _precheck's.
        if guards is None:
            stored = (row_table[tiles.index], col_table[tiles.index])
        else:
            stored = (
                stack_tiles([g.row if g is not None else r for g, r in zip(guards, pre_row)]),
                stack_tiles([g.col if g is not None else c for g, c in zip(guards, pre_col)]),
            )
        for t in mismatched_tiles(stored, pre):
            self._precheck(guard_of(t), (pre_row[t], pre_col[t]), op)
        if hops is None:
            predicted = inner.predict_sums(pre, a_rows, b_cols, semiring)
        else:
            # Path kernels run at operand width: predict at full width.
            hop_tiles = [h for h_row in hops[0] for h in h_row]
            hop_snap = stack_tiles(hop_tiles)
            predicted = self.reference.predict_sums(pre, a_rows, b_cols, semiring)
        inner.srgemm_grid(c_tiles, a_rows, b_cols, semiring=semiring, phase=phase, hops=hops)
        self._count("ops_checked", len(tiles))
        _, actual = inner.tile_sums(tiles, semiring)
        act_row, act_col = actual
        for t in mismatched_tiles(predicted, actual):
            self._count("sdc_detected")
            i, j = divmod(int(t), len(b_cols))
            hop = None if hops is None else (hop_tiles[t], hop_snap[t], hops[1][i])
            act_row[t], act_col[t] = self._repair_accumulate(
                guard_of(t), tiles[t], snap[t], (pre_row[t], pre_col[t]), a_rows[i], b_cols[j],
                semiring, op, hop,
            )
        if guards is None:
            row_table[tiles.index], col_table[tiles.index] = act_row, act_col
            return
        # An untracked tile's sums are views into this band's stacked sums.
        for c, guard, row, col in zip(tiles, guards, act_row, act_col):
            if guard is not None:
                guard.store((row, col))
            else:
                self._transient[id(c)] = (row, col)

    def _repair_accumulate(
        self, guard, c, c_pre, pre, a, b, semiring, op: str, hop=None
    ) -> Checksums:
        """Localized repair: rebuild the flagged tile from its operands
        with the ``tiled`` backend, then re-verify against a full-width
        prediction (``tiled`` never narrows, so the reduced-precision
        prediction no longer applies).  ``op`` is the guarded product the
        mismatch was caught in (``srgemm_{phase}``), named by a
        persisting escalation.  ``hop = (c_nxt, c_nxt_pre, a_nxt)``
        restores the tile's next hops too and repairs with the path
        kernel."""
        np.copyto(c, c_pre)
        if hop is None:
            self.reference.srgemm_accumulate(c, a, b, semiring=semiring)
        else:
            c_nxt, c_nxt_pre, a_nxt = hop
            np.copyto(c_nxt, c_nxt_pre)
            self.reference.srgemm_accumulate_paths(c, c_nxt, a, a_nxt, b)
        predicted = predicted_accumulate(pre, a, b, semiring, None)
        actual = block_checksums(c, semiring)
        if checksums_match(predicted, actual):
            self._count("repaired")
        else:
            self._flag(
                "post-op checksum mismatch persisted after reference repair "
                "(operands themselves are suspect)",
                guard,
                op,
            )
        return actual

    def wrap_closure(self, blk: np.ndarray, fn: Callable[[], None]) -> Callable[[], None]:
        """Guard a DiagUpdate closure (FW on the pivot block).  Checksums
        do not distribute over the O(b³) closure, so the invariant checked
        is monotonicity: the closure may only improve distances, i.e. the
        pre-image must be absorbed elementwise (``new ⊕ old == new``)."""
        semiring = self.semiring

        def wrapped():
            guard = self._tiles.get(id(blk))
            self._precheck(guard, block_checksums(blk, semiring), "diag_update")
            pre = blk.copy()
            fn()
            self._count("ops_checked")
            if not np.array_equal(semiring.plus(blk, pre), blk):
                self._count("sdc_detected")
                self._flag(
                    "diagonal closure violated monotonicity (distance increased)",
                    guard,
                    "diag_update",
                )
            if guard is not None:
                guard.store(block_checksums(blk, semiring))

        return wrapped

    # -- ooGSrGemm staging ---------------------------------------------------
    def verify_staged(self, tiles: Sequence[np.ndarray], recompute: Optional[Callable] = None) -> None:
        """Validate a staged ooG chunk - its tile objects, the entries of
        its staging grid - against the checksums taken when they were
        computed (corruption window: d2h transfer + host residence).  A
        chunk with a flagged tile counts one detection and is repaired
        whole by its retained compute closure, which re-runs the chunk
        in place as one guarded grid."""
        semiring = self.semiring
        flagged = False
        for x in tiles:
            recorded = self._transient.pop(id(x), None)
            if recorded is not None and not checksums_match(recorded, block_checksums(x, semiring)):
                flagged = True
        if not flagged:
            return
        self._count("sdc_detected")
        if recompute is None:
            self._flag("staged ooG tile corrupted and no compute closure retained")
            return
        recompute()
        for x in tiles:
            self._transient.pop(id(x), None)  # verified inside the guarded compute
        self._count("repaired")

    def guarded_merge(self, blk: np.ndarray, xs: np.ndarray) -> None:
        """Guarded ooG apply step ``blk ← blk ⊕ xs`` (``xs`` was verified
        by :meth:`verify_staged`)."""
        semiring = self.semiring
        guard = self._tiles.get(id(blk))
        pre = block_checksums(blk, semiring)
        self._precheck(guard, pre, "oog_merge")
        blk_pre = blk.copy()
        predicted = predicted_merge(pre, xs, semiring)
        semiring.plus(blk, xs, out=blk)
        self._count("ops_checked")
        actual = block_checksums(blk, semiring)
        if not checksums_match(predicted, actual):
            self._count("sdc_detected")
            # The merge is a deterministic elementwise host op: re-merge
            # from the snapshot and re-verify.
            np.copyto(blk, blk_pre)
            semiring.plus(blk, xs, out=blk)
            actual = block_checksums(blk, semiring)
            if checksums_match(predicted, actual):
                self._count("repaired")
            else:
                self._flag("ooG merge checksum mismatch persisted", guard, "oog_merge")
        if guard is not None:
            guard.store(actual)

    # -- monotonicity sentinel -----------------------------------------------
    def sentinel_check(self, rank: int, k: int) -> None:
        """Sampled per-iteration check that no distance increased across
        ``k`` — the complement of the min-checksums, which an upward flip
        of a non-extremal entry can mask.  Runs in ``full`` mode only."""
        if self.mode != "full":
            return
        semiring = self.semiring
        for arr_id in self._rank_ids.get(rank, ()):
            guard = self._tiles.get(arr_id)
            if guard is None:
                continue
            vals = guard.arr.flat[guard.sent_pos]
            self._count("sentinel_samples", len(vals))
            # Monotone ⟺ old readings absorbed: new ⊕ old == new.
            ok = semiring.plus(vals, guard.sent_vals) == vals
            bad = int(np.count_nonzero(~ok))
            if bad:
                self._count("sdc_detected")
                self._count("sentinel_violations", bad)
                self._flag(
                    f"monotonicity sentinel: {bad} sampled distance(s) increased "
                    f"in block {guard.key} of rank {rank} at k={k}",
                    guard,
                    "sentinel",
                )
            guard.sent_vals = vals.copy()

    # -- certificate ---------------------------------------------------------
    def build_certificate(
        self,
        dist: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
    ) -> dict:
        """Assemble the run's verification certificate.  In ``full`` mode
        with a collected (min,+) result, append a residual audit: a
        seeded sampled triangle-inequality check plus per-source
        comparison against Bellman-Ford from
        :mod:`repro.graphs.oracle`."""
        cert = {
            "mode": self.mode,
            "blocks_tracked": self.counters.get("blocks_tracked", 0),
            "ops_checked": self.counters.get("ops_checked", 0),
            "sentinel_samples": self.counters.get("sentinel_samples", 0),
            "sdc_detected": self.counters.get("sdc_detected", 0),
            "repaired": self.counters.get("repaired", 0),
            "escalated": self.counters.get("escalated", 0),
            "sentinel_violations": self.counters.get("sentinel_violations", 0),
        }
        audit_ok = True
        if dist is not None and weights is not None and self.semiring is MIN_PLUS:
            cert["audit"] = audit = self._residual_audit(dist, weights)
            audit_ok = audit["triangle_violations"] == 0 and audit["sssp_mismatches"] == 0
        cert["passed"] = bool(audit_ok)
        return cert

    def _residual_audit(self, dist: np.ndarray, weights: np.ndarray) -> dict:
        from ..graphs.oracle import bellman_ford

        n = dist.shape[0]
        rng = np.random.default_rng([self.seed, 0xAB_F7])
        # Exact candidates can differ from relaxation-ordered path sums
        # by association, so the audit uses a tolerance scaled to the
        # backend's contract instead of the checksums' exact equality.
        tol = max(1e-9, 10.0 * float(getattr(self.inner, "rtol", 0.0)))
        n_triples = min(self.audit_triples, n * n)
        i = rng.integers(n, size=n_triples)
        k = rng.integers(n, size=n_triples)
        j = rng.integers(n, size=n_triples)
        cand = dist[i, k] + dist[k, j]
        with np.errstate(invalid="ignore"):
            slack = dist[i, j] - cand
        finite = np.isfinite(cand)
        viol = int(np.count_nonzero(slack[finite] > tol * (1.0 + np.abs(cand[finite]))))
        sources = rng.choice(n, size=min(self.audit_sources, n), replace=False)
        mismatches = 0
        for s in sources:
            ref = bellman_ford(weights, int(s))
            if not np.allclose(dist[s], ref, rtol=tol, atol=tol):
                mismatches += 1
        return {
            "triangle_samples": int(n_triples),
            "triangle_violations": viol,
            "sssp_sources": int(len(sources)),
            "sssp_mismatches": int(mismatches),
        }
