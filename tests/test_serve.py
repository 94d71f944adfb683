"""Tests for the serving layer: artifacts, cache, queries, updates.

The oracle discipline throughout: every query answer is compared
bit-exactly against the in-memory ``ApspResult.dist`` (or a rank-1
patched copy of it) that produced the artifact.  Floating-point
equality here is deliberate - the serving layer stores and returns the
solver's bytes, it never re-derives them.
"""

from __future__ import annotations

import gc
import json
import os
import weakref
from collections import Counter

import numpy as np
import pytest

import repro
from repro.errors import ArtifactError, ConfigurationError, NegativeCycleError, QueryError
from repro.graphs import erdos_renyi, uniform_random_dense
from repro.semiring import INF
from repro.semiring.backends import available_backends
from repro.serve import (
    Artifact,
    BlockCache,
    MemoryArtifact,
    ServeConfig,
    load_artifact,
    save_artifact,
)
from repro.serve import incremental

CLUSTER = dict(n_nodes=2, ranks_per_node=2)


@pytest.fixture(scope="module")
def solved():
    """One 40-vertex solve shared by the read-only tests."""
    w = erdos_renyi(40, 0.3, seed=3)
    res = repro.solve(w, variant="async", block_size=8, **CLUSTER)
    return w, res


@pytest.fixture()
def artifact_dir(solved, tmp_path):
    w, res = solved
    path = tmp_path / "art"
    res.save(path, block_size=16, graph=w)
    return path


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("block_size", [1, 7, 16, 40, 64])
    def test_roundtrip_bit_exact(self, solved, tmp_path, block_size):
        w, res = solved
        path = tmp_path / f"b{block_size}"
        res.save(path, block_size=block_size, graph=w)
        art = load_artifact(path)
        np.testing.assert_array_equal(art.dist(), res.dist)
        assert art.dist().dtype == res.dist.dtype
        np.testing.assert_array_equal(art.load_graph(), w)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_roundtrip_dtypes(self, tmp_path, dtype):
        dist = uniform_random_dense(20, seed=5).astype(dtype)
        path = tmp_path / "art"
        save_artifact(dist, path, block_size=6)
        art = load_artifact(path)
        assert art.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(art.dist(), dist)

    def test_result_save_returns_artifact(self, solved, tmp_path):
        w, res = solved
        art = res.save(tmp_path / "a", graph=w)
        assert isinstance(art, Artifact)
        assert art.n == 40
        assert art.certificate == res.certificate
        assert art.solve_header["variant"] == "async"

    def test_identical_tiles_are_deduplicated(self, tmp_path):
        # A constant matrix: every off-diagonal tile has identical bytes.
        dist = np.zeros((32, 32))
        art = save_artifact(dist, tmp_path / "a", block_size=8)
        blocks = list((tmp_path / "a" / "blocks").glob("*.blk"))
        assert len(blocks) == 1  # 16 logical tiles, one physical file
        np.testing.assert_array_equal(art.dist(), dist)

    def test_overwrite_refuses_non_artifact_dir(self, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "data.txt").write_text("keep me")
        with pytest.raises(ArtifactError):
            save_artifact(np.zeros((4, 4)), target, overwrite=True)
        assert (target / "data.txt").read_text() == "keep me"

    def test_overwrite_replaces_existing_artifact(self, tmp_path):
        a = np.zeros((4, 4))
        b = np.ones((6, 6))
        save_artifact(a, tmp_path / "a")
        with pytest.raises(ArtifactError):
            save_artifact(b, tmp_path / "a")  # refused without overwrite
        save_artifact(b, tmp_path / "a", overwrite=True)
        np.testing.assert_array_equal(load_artifact(tmp_path / "a").dist(), b)

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "nope")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError):
            load_artifact(bad)

    def test_load_rejects_wrong_version(self, tmp_path):
        save_artifact(np.zeros((4, 4)), tmp_path / "a")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        for version in (0, 99):
            manifest["version"] = version
            (tmp_path / "a" / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(ArtifactError, match=f"version {version} .*versions 1, 2"):
                load_artifact(tmp_path / "a")


class TestCorruption:
    def test_corrupted_block_is_refused(self, artifact_dir):
        blk = sorted((artifact_dir / "blocks").glob("*.blk"))[0]
        raw = bytearray(blk.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        blk.write_bytes(bytes(raw))
        art = load_artifact(artifact_dir)
        with pytest.raises(ArtifactError, match="CRC32"):
            art.dist()

    def test_corruption_refused_through_server(self, artifact_dir):
        blk = sorted((artifact_dir / "blocks").glob("*.blk"))[-1]
        raw = bytearray(blk.read_bytes())
        raw[0] ^= 0x01
        blk.write_bytes(bytes(raw))
        srv = repro.serve(artifact_dir)
        with pytest.raises(ArtifactError):
            srv.submatrix(range(srv.n), range(srv.n))

    def test_missing_block_file_is_refused(self, artifact_dir):
        blk = sorted((artifact_dir / "blocks").glob("*.blk"))[0]
        blk.unlink()
        art = load_artifact(artifact_dir)
        with pytest.raises(ArtifactError):
            art.dist()

    def test_failed_graph_rewrite_keeps_old_graph(self, artifact_dir, solved, monkeypatch):
        # The graph payload goes through a temp file + rename like the
        # manifest: a write that dies half way leaves the old one loadable.
        w, _ = solved
        art = load_artifact(artifact_dir)

        def torn_savez(file, **arrays):
            fh = open(file, "wb") if isinstance(file, (str, os.PathLike)) else file
            fh.write(b"PK\x03\x04 half a zip")
            fh.flush()
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            art.rewrite_graph(np.zeros_like(w))
        monkeypatch.undo()
        np.testing.assert_array_equal(load_artifact(artifact_dir).load_graph(), w)


def _block_file(path, key):
    """The block file that holds tile ``key`` of the artifact at ``path``."""
    manifest = json.loads((path / "manifest.json").read_text())
    for bi, bj, digest, *_ in manifest["blocks"]:
        if (bi, bj) == key:
            return path / "blocks" / f"{digest}.blk"
    raise KeyError(key)


class TestReadPath:
    """A cache miss is one read of one block file: what it hands back,
    and what it refuses."""

    def test_miss_is_a_plain_read_only_tile(self, artifact_dir, solved):
        _, res = solved
        srv = repro.serve(artifact_dir, cache_bytes=16 * 16 * res.dist.itemsize)
        # (2, 1) is a ragged 8 x 16 edge tile; the one-tile budget evicts
        # (0, 0) for it, so the second (0, 0) is a miss again.
        for bi, bj in [(0, 0), (2, 1), (0, 0)]:
            misses = srv.cache.misses
            tile = srv.engine.block(bi, bj)
            assert srv.cache.misses == misses + 1
            assert type(tile) is np.ndarray  # a plain array, not an np.memmap
            assert not tile.flags.writeable and tile.flags.c_contiguous
            assert tile.tobytes() == _block_file(artifact_dir, (bi, bj)).read_bytes()
            np.testing.assert_array_equal(
                tile, res.dist[bi * 16 : (bi + 1) * 16, bj * 16 : (bj + 1) * 16]
            )
            with pytest.raises(ValueError):
                tile[0, 0] = 0.0

    @pytest.mark.parametrize("damage", ["truncate", "extend", "delete"])
    def test_wrong_length_or_missing_file_is_refused(self, artifact_dir, damage):
        from repro.cli import main

        art = load_artifact(artifact_dir)
        art.load_block(1, 1)  # verified: a CRC that checked out once is not re-run
        blk = _block_file(artifact_dir, (1, 1))
        size = blk.stat().st_size
        if damage == "truncate":
            blk.write_bytes(blk.read_bytes()[:-1])
            reason = f"holds {size - 1} bytes, expected {size}"
        elif damage == "extend":
            blk.write_bytes(blk.read_bytes() + b"\0")
            reason = f"holds {size + 1} bytes, expected {size}"
        else:
            blk.unlink()
            reason = f"block file {blk.name} is missing"
        with pytest.raises(ArtifactError, match=reason):
            art.load_block(1, 1)
        with pytest.raises(ArtifactError, match=reason):
            art.dist()
        assert main(["query", str(artifact_dir), "--pair", "16,16"]) == 17
        assert art.load_block(0, 0).shape == (16, 16)  # the rest still reads

    def test_flipped_byte_in_unread_block_is_refused_by_crc(self, artifact_dir, solved):
        from repro.errors import exit_code_for

        _, res = solved
        srv = repro.serve(artifact_dir)
        assert srv.distance(0, 0) == res.dist[0, 0]
        blk = _block_file(artifact_dir, (2, 2))
        raw = bytearray(blk.read_bytes())
        raw[5] ^= 0x10
        blk.write_bytes(bytes(raw))
        for _ in range(2):  # a refused block is never marked verified
            with pytest.raises(ArtifactError, match="CRC32") as err:
                srv.distance(39, 39)
            assert exit_code_for(err.value) == 17
        assert (2, 2) not in srv.cache
        assert srv.cache.misses == 3
        assert srv.distance(0, 39) == res.dist[0, 39]


class TestBlockCache:
    def test_hit_miss_accounting(self):
        cache = BlockCache(1 << 20)
        tile = np.zeros((4, 4))
        loads = []

        def loader():
            loads.append(1)
            return tile

        assert cache.get("a", loader) is tile
        assert cache.get("a", loader) is tile
        assert len(loads) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_lru_eviction_order_and_bytes(self):
        tile_bytes = np.zeros((8, 8)).nbytes  # 512
        cache = BlockCache(tile_bytes * 2)
        a, b, c = (np.zeros((8, 8)) for _ in range(3))
        cache.get("a", lambda: a)
        cache.get("b", lambda: b)
        cache.get("a", lambda: a)  # touch: b is now least recent
        cache.get("c", lambda: c)  # evicts b, not a
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1
        assert cache.resident_bytes == tile_bytes * 2
        cache.get("b", lambda: b)  # evicts a (LRU after the touch)
        assert "a" not in cache
        assert cache.evictions == 2

    def test_oversize_pass_through(self):
        cache = BlockCache(64)
        big = np.zeros((64, 64))
        out = cache.get("big", lambda: big)
        assert out is big
        assert len(cache) == 0
        assert cache.stats()["oversize"] == 1
        assert cache.resident_bytes == 0

    def test_put(self):
        from repro.obs.metrics import MetricsRegistry

        tile_bytes = np.zeros((8, 8)).nbytes  # 512
        cache = BlockCache(tile_bytes * 2, metrics=MetricsRegistry())
        old, new, big = np.zeros((8, 8)), np.ones((8, 8)), np.zeros((64, 64))
        cache.get("a", lambda: old)
        cache.put("a", new)  # replaces: the bytes of one tile, not two
        assert cache.get("a", lambda: old) is new
        assert cache.resident_bytes == tile_bytes and len(cache) == 1
        cache.put("b", old)  # a new key is admitted, no load counted
        assert cache.resident_bytes == 2 * tile_bytes
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)
        cache.put("a", big)  # oversize: the stale entry goes, the new one is not held
        assert "a" not in cache and cache.stats()["oversize"] == 1
        assert cache.resident_bytes == tile_bytes
        gauges = cache._metrics.flat()
        assert (gauges["serve.cache.bytes"], gauges["serve.cache.blocks"]) == (tile_bytes, 1)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            BlockCache(0)
        with pytest.raises(ConfigurationError):
            BlockCache(True)


class TestQueries:
    def test_point_queries_bit_exact(self, artifact_dir, solved):
        _, res = solved
        srv = repro.serve(artifact_dir)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, t = rng.integers(0, srv.n, size=2)
            assert srv.distance(int(s), int(t)) == res.dist[s, t]

    def test_batch_matches_dist(self, artifact_dir, solved):
        _, res = solved
        srv = repro.serve(artifact_dir)
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, srv.n, size=(200, 2))
        np.testing.assert_array_equal(
            srv.batch(pairs), res.dist[pairs[:, 0], pairs[:, 1]]
        )

    def test_submatrix_matches_dist(self, artifact_dir, solved):
        _, res = solved
        srv = repro.serve(artifact_dir)
        rows, cols = [0, 3, 17, 39], [1, 16, 38]
        np.testing.assert_array_equal(
            srv.submatrix(rows, cols), res.dist[np.ix_(rows, cols)]
        )
        # Full-matrix extraction equals the solver's matrix exactly.
        np.testing.assert_array_equal(
            srv.submatrix(range(srv.n), range(srv.n)), res.dist
        )

    def test_k_nearest_matches_dist(self, artifact_dir, solved):
        _, res = solved
        srv = repro.serve(artifact_dir)
        got = srv.k_nearest(5, 10)
        vals = res.dist[5].copy()
        vals[5] = np.inf
        want = np.lexsort((np.arange(len(vals)), vals))[:10]
        assert [v for v, _ in got] == [int(v) for v in want if np.isfinite(vals[v])][:len(got)]
        for v, d in got:
            assert d == res.dist[5, v]

    def test_k_nearest_ties_break_by_vertex_id(self):
        dist = np.full((6, 6), 2.0)
        np.fill_diagonal(dist, 0.0)
        dist[0, 4] = dist[0, 2] = 1.0  # tie at 1.0; then a 3-way tie at 2.0
        srv = repro.serve(dist)
        assert srv.k_nearest(0, 4) == [(2, 1.0), (4, 1.0), (1, 2.0), (3, 2.0)]

    def test_k_nearest_stops_at_unreachable(self):
        dist = np.array(
            [[0.0, 1.0, np.inf], [np.inf, 0.0, np.inf], [np.inf, np.inf, 0.0]]
        )
        srv = repro.serve(dist)
        assert srv.k_nearest(0, 5) == [(1, 1.0)]
        assert srv.k_nearest(2, 5) == []

    def test_query_errors(self, artifact_dir):
        srv = repro.serve(artifact_dir)
        with pytest.raises(QueryError):
            srv.distance(0, srv.n)
        with pytest.raises(QueryError):
            srv.distance(-1, 0)
        with pytest.raises(QueryError):
            srv.distance(0.5, 1)
        with pytest.raises(QueryError):
            srv.batch(np.zeros((0, 2)))
        with pytest.raises(QueryError):
            srv.batch([[0, 1, 2]])
        with pytest.raises(QueryError):
            srv.k_nearest(0, 0)
        with pytest.raises(QueryError):
            srv.submatrix([], [0])

    def test_cache_counters_through_server(self, artifact_dir):
        srv = repro.serve(artifact_dir)
        srv.distance(0, 0)
        srv.distance(1, 1)  # same 16x16 tile
        stats = srv.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["resident_blocks"] == 1

    def test_tiny_cache_still_answers_correctly(self, artifact_dir, solved):
        # A cache that can hold a single tile must thrash, not corrupt.
        _, res = solved
        tile_bytes = 16 * 16 * 8
        srv = repro.serve(artifact_dir, cache_bytes=tile_bytes)
        np.testing.assert_array_equal(
            srv.submatrix(range(srv.n), range(srv.n)), res.dist
        )
        assert srv.cache_stats()["evictions"] > 0
        assert srv.cache_stats()["resident_bytes"] <= tile_bytes


class TestAsyncBatch:
    def test_chunked_progress_and_result(self, artifact_dir, solved):
        _, res = solved
        srv = repro.serve(artifact_dir, batch_chunk=3)
        pairs = [(i, (i * 7) % srv.n) for i in range(10)]
        handle = srv.submit_batch(pairs)
        assert handle.status == "pending"
        assert len(handle) == 10
        handle.poll()
        assert handle.answered == 3
        assert handle.status == "running"
        assert handle.wait() == "done"
        np.testing.assert_array_equal(
            handle.result(), [res.dist[s, t] for s, t in pairs]
        )

    def test_result_drives_to_completion(self, artifact_dir, solved):
        _, res = solved
        srv = repro.serve(artifact_dir)
        handle = srv.submit_batch([(0, 1)])
        np.testing.assert_array_equal(handle.result(), [res.dist[0, 1]])
        assert handle.done

    def test_invalid_pairs_fail_at_submit(self, artifact_dir):
        srv = repro.serve(artifact_dir)
        with pytest.raises(QueryError):
            srv.submit_batch([(0, srv.n)])

    def test_handle_is_awaitable(self, artifact_dir, solved):
        import asyncio

        _, res = solved
        srv = repro.serve(artifact_dir)

        async def drive():
            return await srv.submit_batch([(2, 3), (4, 5)])

        out = asyncio.run(drive())
        np.testing.assert_array_equal(out, res.dist[[2, 4], [3, 5]])


class TestBackendsPinned:
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_point_queries_bit_identical_per_backend(self, tmp_path, backend):
        """Serving answers must be the solver's bytes for every kernel
        backend, not just the default one."""
        w = erdos_renyi(24, 0.4, seed=9)
        res = repro.solve(w, variant="async", block_size=8,
                          kernel_backend=backend, **CLUSTER)
        path = tmp_path / backend
        res.save(path, block_size=8, graph=w)
        srv = repro.serve(path)
        for s in range(0, 24, 5):
            for t in range(0, 24, 7):
                assert srv.distance(s, t) == res.dist[s, t]
        np.testing.assert_array_equal(
            srv.submatrix(range(24), range(24)), res.dist
        )


class TestMemoryServing:
    def test_serve_result_directly(self, solved):
        _, res = solved
        srv = repro.serve(res)
        assert srv.distance(0, 1) == res.dist[0, 1]
        assert srv.certificate == res.certificate

    def test_serve_bare_matrix(self):
        dist = uniform_random_dense(12, seed=2)
        srv = repro.serve(dist, block_size=5)
        np.testing.assert_array_equal(
            srv.submatrix(range(12), range(12)), dist
        )

    def test_memory_artifact_updates(self):
        w = erdos_renyi(16, 0.5, seed=4)
        base = repro.serve(MemoryArtifact(
            np.array(repro.solve(w, block_size=4).dist), graph=w))
        assert base.update_edge(0, 9, 1e-4) is True
        assert base.distance(0, 9) == pytest.approx(1e-4)

    def test_serve_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            repro.serve(object())

    def test_closed_server_refuses_queries(self, solved):
        _, res = solved
        with repro.serve(res) as srv:
            srv.distance(0, 1)
        with pytest.raises(ConfigurationError):
            srv.distance(0, 1)


class TestIncremental:
    def _served(self, tmp_path, n=30, seed=6):
        w = erdos_renyi(n, 0.3, seed=seed)
        res = repro.solve(w, variant="async", block_size=8, **CLUSTER)
        path = tmp_path / "art"
        res.save(path, block_size=8, graph=w)
        return w, res, repro.serve(path), path

    def test_decrease_patches_only_dirty_tiles(self, tmp_path):
        w, res, srv, path = self._served(tmp_path)
        assert srv.update_edge(0, 17, 1e-3) is True
        base = res.dist
        expected = np.minimum(base, base[:, 0, None] + (1e-3 + base[None, 17, :]))
        np.testing.assert_array_equal(
            repro.serve(path).submatrix(range(30), range(30)), expected
        )
        stats = srv.stats()["incremental"]
        assert stats["fast_updates"] == 1
        assert stats["recomputes"] == 0
        assert 0 < stats["dirty_blocks"] <= 16

    def test_rewritten_tiles_are_read_from_the_cache(self, tmp_path, monkeypatch):
        """A rewrite lands in the cache: re-reading every tile a decrease
        rewrote is a hit, never a read of the file just written."""
        n, b = 30, 8
        w = np.ceil(erdos_renyi(n, 0.3, seed=6) * 64) / 64  # every (min,+) sum exact
        res = repro.solve(w, variant="async", block_size=b, **CLUSTER)
        path = tmp_path / "art"
        res.save(path, block_size=b, graph=w)
        srv = repro.serve(path, ServeConfig(obs=repro.ObsSinks(metrics=True)))
        written, loads = [], []
        rewrite, load = Artifact.rewrite_block, Artifact.load_block

        def spy_rewrite(self, bi, bj, data):
            written.append((bi, bj))
            return rewrite(self, bi, bj, data)

        def spy_load(self, bi, bj):
            loads.append((bi, bj))
            return load(self, bi, bj)

        monkeypatch.setattr(Artifact, "rewrite_block", spy_rewrite)
        monkeypatch.setattr(Artifact, "load_block", spy_load)
        assert srv.update_edge(0, 17, 0.015625) is True
        assert written
        w[0, 17] = 0.015625
        fresh = repro.solve(w, variant="async", block_size=b, **CLUSTER).dist
        misses, read = srv.metrics.flat()["serve.cache.misses"], len(loads)
        for bi, bj in written:
            tile = srv.engine.block(bi, bj)
            assert not tile.flags.writeable
            np.testing.assert_array_equal(tile, fresh[bi * b:(bi + 1) * b, bj * b:(bj + 1) * b])
        assert srv.metrics.flat()["serve.cache.misses"] == misses
        assert len(loads) == read
        everything = np.arange(n)
        np.testing.assert_array_equal(srv.submatrix(everything, everything), fresh)
        srv.close()
        np.testing.assert_array_equal(repro.serve(path).submatrix(everything, everything), fresh)

    def test_noop_increase_is_fast(self, tmp_path):
        w, res, srv, path = self._served(tmp_path)
        # Raising an absent edge's weight can't carry any shortest path.
        absent = np.argwhere(np.isinf(w))[0]
        u, v = int(absent[0]), int(absent[1])
        assert srv.update_edge(u, v, 1e6) is True
        np.testing.assert_array_equal(
            repro.serve(path).submatrix(range(30), range(30)), res.dist
        )

    def test_invalidating_increase_reschedules_solve(self, tmp_path):
        w, res, srv, path = self._served(tmp_path)
        # Find an edge that carries some shortest path: cheapest real edge.
        finite = np.isfinite(w) & ~np.eye(len(w), dtype=bool)
        u, v = map(int, np.argwhere(finite)[np.argmin(w[finite])])
        assert srv.update_edge(u, v, 1e5) is False
        srv.close()
        w2 = w.copy()
        w2[u, v] = 1e5
        ref = repro.solve(w2, variant="async", block_size=8, **CLUSTER).dist
        # The broken pairs are repaired, summed in another order than a
        # fresh solve: the rank-1 patch's tolerance (the dyadic twin
        # below is bit-exact).
        np.testing.assert_allclose(
            repro.serve(path).submatrix(range(30), range(30)), ref, rtol=1e-12
        )
        assert srv.stats()["incremental"]["repairs"] == 1
        assert srv.stats()["incremental"]["recomputes"] == 0

    def test_invalidating_increase_repairs_bit_exact_on_dyadic_weights(self, tmp_path):
        w = np.ceil(erdos_renyi(30, 0.3, seed=6) * 64) / 64  # every (min,+) sum exact
        res = repro.solve(w, variant="async", block_size=8, **CLUSTER)
        path = tmp_path / "art"
        res.save(path, block_size=8, graph=w)
        u, v = _carrying_edge(w)
        with repro.serve(path) as srv:
            assert srv.update_edge(u, v, 1e5) is False
            stats = srv.stats()["incremental"]
        assert (stats["repairs"], stats["recomputes"]) == (1, 0)
        w[u, v] = 1e5
        np.testing.assert_array_equal(load_artifact(path).dist(), _solve8(w))

    def test_remove_and_reinsert(self, tmp_path):
        w, res, srv, path = self._served(tmp_path)
        finite = np.isfinite(w) & ~np.eye(len(w), dtype=bool)
        u, v = map(int, np.argwhere(finite)[np.argmin(w[finite])])
        c = float(w[u, v])
        srv.remove_edge(u, v)          # carried shortest paths: re-solve
        srv.insert_edge(u, v, c)       # comes back via the rank-1 patch
        srv.close()
        # Bit-exact oracle: the rank-1 formula over the *same* baseline
        # the patcher saw (the post-removal re-solve).
        w_cut = w.copy()
        w_cut[u, v] = np.inf
        base = repro.solve(w_cut, variant="async", block_size=8, **CLUSTER).dist
        expected = np.minimum(base, base[:, u, None] + (c + base[None, v, :]))
        got = repro.serve(path).submatrix(range(30), range(30))
        np.testing.assert_array_equal(got, expected)
        # ...and ULP-close to a from-scratch solve of the restored graph.
        ref = repro.solve(w, variant="async", block_size=8, **CLUSTER).dist
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_batch_update_coalesces_recomputes(self, tmp_path):
        w, res, srv, path = self._served(tmp_path)
        finite = np.isfinite(w) & ~np.eye(len(w), dtype=bool)
        edges = np.argwhere(finite)[np.argsort(w[finite])[:3]]
        updates = [(int(u), int(v), float(w[u, v]) * 100) for u, v in edges]
        updates.append((0, 17, 1e-3))  # one decrease rides along
        srv.batch_update(updates)
        assert srv.stats()["incremental"]["recomputes"] <= 1
        srv.close()
        w2 = w.copy()
        for u, v, c in updates:
            w2[u, v] = c
        ref = repro.solve(w2, variant="async", block_size=8, **CLUSTER).dist
        np.testing.assert_array_equal(
            repro.serve(path).submatrix(range(30), range(30)), ref
        )

    def test_negative_cycle_refused(self, tmp_path):
        w, res, srv, path = self._served(tmp_path)
        with pytest.raises(NegativeCycleError):
            srv.update_edge(3, 3, -1.0)
        with pytest.raises(NegativeCycleError):
            srv.update_edge(0, 17, -1e6)

    def test_update_requires_graph_payload(self, solved, tmp_path):
        w, res = solved
        path = tmp_path / "nograph"
        res.save(path)  # no graph payload
        srv = repro.serve(path)
        with pytest.raises(ArtifactError):
            srv.update_edge(0, 1, 0.5)

    def test_bad_weights_refused(self, tmp_path):
        _, _, srv, _ = self._served(tmp_path)
        with pytest.raises(QueryError):
            srv.update_edge(0, 1, float("nan"))
        with pytest.raises(QueryError):
            srv.update_edge(0, 1, float("-inf"))

    @pytest.mark.parametrize("exact", [True, False], ids=["dyadic", "generic"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_cross_store_equivalence(self, tmp_path, dtype, exact):
        """One update stream through the dense IncrementalApsp, an
        in-memory server and an on-disk server: same answers, same
        counters, same distances after every step.

        The three differ only in where tiles live and in how a re-solve
        is obtained (``blocked_fw`` vs a scheduler job), and those two
        solvers agree to the ULP, not the bit.  With weights on a 1/64
        grid every (min,+) sum is exact, so all three must then agree
        bit for bit with each other and with a fresh solve; with generic
        weights the two servers still must, the dense one and a fresh
        solve to the dtype's tolerance (a repaired pair sums in another
        order), and after a re-solve the servers match a fresh solve
        bit for bit.
        """
        from repro.extensions import IncrementalApsp

        n, b = 30, 8  # ragged edge tiles: 30 = 3 * 8 + 6
        everything = np.arange(n)
        w = erdos_renyi(n, 0.3, seed=6)
        if exact:
            w = np.ceil(w * 64) / 64
        w = w.astype(dtype)
        res = repro.solve(w, variant="async", block_size=b, **CLUSTER)
        path = tmp_path / "art"
        res.save(path, block_size=b, graph=w)
        dense = IncrementalApsp(w, block_size=b)
        mem = repro.serve(res, graph=w, block_size=b)
        disk = repro.serve(path)
        assert disk.dtype == mem.dtype == dense.dist.dtype == dtype

        def fresh():
            return repro.solve(
                dense.weights, variant="async", block_size=b, **CLUSTER).dist

        def check(resolved=False):
            served = disk.submatrix(everything, everything)
            np.testing.assert_array_equal(mem.submatrix(everything, everything), served)
            for srv in (mem, disk):
                np.testing.assert_array_equal(srv.artifact.load_graph(), dense.weights)
                assert srv.stats()["incremental"] == mem.stats()["incremental"]
                assert (srv.patcher.fast_updates, srv.patcher.recomputes) == (
                    dense.fast_updates, dense.recomputes)
            if exact:
                np.testing.assert_array_equal(dense.dist, served)
                assert dense.dirty_blocks == disk.patcher.dirty_blocks
                np.testing.assert_array_equal(served, fresh())
            else:
                rtol = 1e-12 if dtype == np.float64 else 1e-6
                np.testing.assert_allclose(dense.dist, served, rtol=rtol)
                np.testing.assert_allclose(served, fresh(), rtol=rtol)
                if resolved:
                    np.testing.assert_array_equal(served, fresh())
            return served

        def apply(op, *args):
            got = [getattr(store, op)(*args) for store in (dense, mem, disk)]
            assert got[0] == got[1] == got[2], (op, args, got)
            return got[0]

        def edges(mask):
            real = np.isfinite(dense.weights) & ~np.eye(n, dtype=bool)
            return [(int(u), int(v)) for u, v in np.argwhere(real & mask)]

        def carrying():  # the cheapest edge is the shortest path between its ends
            real = np.where(np.eye(n, dtype=bool), np.inf, dense.weights)
            return tuple(map(int, np.unravel_index(np.argmin(real), real.shape)))

        dist = check()
        assert apply("update_edge", 0, 17, 0.015625) is True           # decrease
        assert apply("update_edge", 5, 5, 2.0) is True                  # self-loop
        dist = check()
        slack = edges(dense.weights > dist + 0.5)                       # off every path
        u, v = slack[0]
        assert apply("update_edge", u, v, float(dense.weights[u, v]) + 1.0) is True
        absent = np.argwhere(np.isinf(dense.weights))
        u, v = map(int, absent[len(absent) // 2])
        assert apply("insert_edge", u, v, 0.25) is True                 # new edge
        assert apply("insert_edge", u, v, 3.0) is True                  # keeps 0.25
        assert apply("remove_edge", *map(int, absent[0])) is True       # was absent
        check()
        assert dense.recomputes == 0 and dense.fast_updates == 5
        u, v = carrying()
        assert apply("update_edge", u, v, 512.0) is False               # repaired
        check()
        assert (dense.repairs, dense.recomputes) == (1, 0)
        # The next cheapest edge broke 61 pairs spread over 27 of the 30
        # columns: the closure over them alone is 0.73 n³, past the crossover.
        assert apply("remove_edge", *carrying()) is False
        dist = check(resolved=True)
        assert (dense.repairs, dense.recomputes) == (1, 1)
        slack = edges(dense.weights > dist + 0.5)
        (fu, fv), (cu, cv) = slack[-1], carrying()
        batch = [
            (3, 21, 0.03125),                                           # decrease
            (7, 7, 0.0),                                                # self-loop
            (cu, cv, 768.0),                                            # repaired in place
            (fu, fv, float(dense.weights[fu, fv]) + 2.0),               # free increase
            (22, 4, 0.0625),                                            # decrease
        ]
        assert apply("batch_update", batch) == 1
        check()
        assert (dense.fast_updates, dense.repairs, dense.recomputes) == (8, 2, 1)
        hub = _hub_updates(n, 9, 13)                                    # 59 decreases
        assert apply("batch_update", hub) == 0
        check()
        assert apply("update_edge", 9, 13, 1.0) is False                # past the crossover
        check(resolved=True)
        assert (dense.fast_updates, dense.repairs, dense.recomputes) == (8 + 59, 2, 2)
        assert apply("update_edge", 11, 2, 0.125) is True               # patch after it
        final = check()
        disk.close()
        np.testing.assert_array_equal(
            repro.serve(path).submatrix(everything, everything), final)

    @staticmethod
    def _files(path):
        return {str(f.relative_to(path)): f.read_bytes()
                for f in sorted(path.rglob("*")) if f.is_file()}

    def test_refused_update_leaves_artifact_untouched(self, tmp_path):
        w, res, srv, path = self._served(tmp_path)
        srv.update_edge(0, 17, 1e-3)
        srv.close()
        before = self._files(path)
        base = repro.serve(path).submatrix(range(30), range(30))
        srv = repro.serve(path)
        refused = [
            (NegativeCycleError, srv.update_edge, (0, 17, -1e6)),  # closes a cycle
            (NegativeCycleError, srv.update_edge, (3, 3, -1.0)),
            (NegativeCycleError, srv.insert_edge, (17, 0, -1e6)),
            (NegativeCycleError, srv.batch_update, ([(0, 17, -1e6), (1, 2, 0.5)],)),
            (QueryError, srv.update_edge, (0, 1, float("nan"))),
            (QueryError, srv.update_edge, (0, 30, 1.0)),
            (QueryError, srv.insert_edge, (0, 1, float("-inf"))),
            (QueryError, srv.remove_edge, (-1, 1)),
        ]
        for error, call, args in refused:
            with pytest.raises(error):
                call(*args)
            assert srv.artifact.load_graph()[0, 17] == 1e-3  # cached graph too
            np.testing.assert_array_equal(srv.submatrix(range(30), range(30)), base)
        assert srv.stats()["incremental"] == {
            "fast_updates": 0, "repairs": 0, "recomputes": 0, "dirty_blocks": 0}
        srv.close()
        # Nothing was written: same files, same bytes, same answers.
        assert self._files(path) == before
        srv = repro.serve(path)
        np.testing.assert_array_equal(srv.submatrix(range(30), range(30)), base)
        # The artifact is not bricked: a valid update still lands, as the
        # rank-1 patch of what was there and ULP-close to a fresh solve.
        assert srv.update_edge(4, 9, 2e-3) is True
        srv.close()
        got = repro.serve(path).submatrix(range(30), range(30))
        np.testing.assert_array_equal(
            got, np.minimum(base, base[:, 4, None] + (2e-3 + base[None, 9, :])))
        w2 = load_artifact(path).load_graph()
        assert (w2[0, 17], w2[4, 9]) == (1e-3, 2e-3)
        ref = repro.solve(w2, variant="async", block_size=8, **CLUSTER).dist
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_oom_degraded_solve_artifact_can_resolve(self, tmp_path, monkeypatch):
        """The solve header records the variant the run *landed on*, so
        an artifact saved from an OOM-degraded solve re-solves (it used
        to die on ``unknown variant 'baseline->offload'``)."""
        monkeypatch.setattr(incremental, "RESOLVE_SHARE", 0.0)  # every increase re-solves
        w = uniform_random_dense(48, seed=0)
        shape = dict(block_size=6, n_nodes=2, ranks_per_node=3)
        res = repro.solve(w, variant="baseline", **shape,
                          fault_plan=["oom:rank=2,k=3", "policy:ckpt=2,restarts=3"])
        assert res.report.variant == "baseline->offload"
        path = tmp_path / "degraded"
        res.save(path, graph=w)
        assert load_artifact(path).solve_header["variant"] == "offload"
        u, v = map(int, np.argwhere((res.dist == w) & ~np.eye(48, dtype=bool))[0])
        edited = w.copy()
        edited[u, v] = 3 * w[u, v]
        fresh = repro.solve(edited, variant="offload", **shape).dist

        def record(variant):
            manifest = path / "manifest.json"
            doc = json.loads(manifest.read_text())
            doc["solve"]["variant"] = variant
            manifest.write_text(json.dumps(doc))

        saved = self._files(path)
        # "baseline->offload" is what artifacts written before this fix hold.
        for recorded in ("offload", "baseline->offload", "baseline->warp"):
            for name, payload in saved.items():
                (path / name).write_bytes(payload)
            record(recorded)
            with repro.serve(path) as srv:
                if recorded.endswith("offload"):
                    assert srv.update_edge(u, v, 3 * w[u, v]) is False
                    np.testing.assert_array_equal(srv.artifact.dist(), fresh)
                else:
                    with pytest.raises(ArtifactError, match="'variant'.*'baseline->warp'"):
                        srv.update_edge(u, v, 3 * w[u, v])

    @pytest.mark.parametrize("on_disk", [True, False], ids=["disk", "memory"])
    def test_non_min_plus_artifact_refuses_min_plus_arithmetic(self, tmp_path, on_disk):
        """The semiring is part of the answer's identity: the rank-1
        patch and k-nearest are (min,+) arithmetic, so on a max_min
        artifact they refuse before any write (update_edge used to
        return True and leave d(0, 5) at 9.70 against a fresh solve's
        19.996); reads keep working."""
        w = uniform_random_dense(48, seed=1)
        res = repro.solve(w, semiring="max_min", block_size=8, n_nodes=2, ranks_per_node=2)
        path = tmp_path / "bottleneck"
        res.save(path, graph=w)
        assert load_artifact(path).solve_header["semiring"] == "max_min"
        before = self._files(path)
        srv = repro.serve(path) if on_disk else repro.serve(res, graph=w)
        refused = [
            (srv.update_edge, (0, 5, 2 * w.max())),
            (srv.insert_edge, (0, 5, 0.5)),
            (srv.remove_edge, (0, 5)),
            (srv.batch_update, ([(0, 5, 0.5)],)),
            (srv.k_nearest, (0, 3)),
        ]
        for call, args in refused:
            with pytest.raises(QueryError, match="max_min semiring"):
                call(*args)
        assert srv.distance(0, 5) == res.dist[0, 5]
        np.testing.assert_array_equal(srv.batch([(0, 5), (7, 2)]), res.dist[[0, 7], [5, 2]])
        np.testing.assert_array_equal(srv.submatrix(range(48), range(48)), res.dist)
        np.testing.assert_array_equal(srv.artifact.load_graph(), w)
        srv.close()
        assert self._files(path) == before

    def test_manifest_semiring_key_is_optional_and_checked(self, tmp_path):
        w, res, srv, path = self._served(tmp_path)
        srv.close()
        manifest = path / "manifest.json"
        doc = json.loads(manifest.read_text())
        assert doc["solve"].pop("semiring") == "min_plus"
        manifest.write_text(json.dumps(doc))  # as written before the key existed
        with repro.serve(path) as srv:
            assert srv.update_edge(0, 17, 1e-3) is True
            assert srv.k_nearest(0, 1)[0][1] <= 1e-3
        doc["solve"]["semiring"] = "min_pls"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="unknown semiring 'min_pls'"):
            repro.serve(path)

    @pytest.mark.parametrize("staged", [False, True], ids=["patched", "resolved"])
    def test_mid_batch_refusal_commits_the_prefix(self, tmp_path, staged):
        w, res, srv, path = self._served(tmp_path)
        prefix = [(0, 17, 1e-3), (5, 5, 1.0), (4, 9, 2e-3)]
        if staged:  # the cheapest edge carries a path: the prefix needs a re-solve
            finite = np.isfinite(w) & ~np.eye(len(w), dtype=bool)
            u, v = map(int, np.argwhere(finite)[np.argmin(w[finite])])
            prefix.append((u, v, 1e5))
        with pytest.raises(NegativeCycleError):
            srv.batch_update(prefix + [(9, 4, -1e6), (1, 2, 1e-3)])
        assert srv.stats()["incremental"]["fast_updates"] == 2
        assert srv.stats()["incremental"]["repairs"] == int(staged)
        assert srv.stats()["incremental"]["recomputes"] == 0
        srv.close()
        # On disk: exactly the prefix, in the graph and in the tiles.
        w2 = w.copy()
        for u, v, c in prefix:
            if u != v:
                w2[u, v] = c
        reopened = load_artifact(path)
        np.testing.assert_array_equal(reopened.load_graph(), w2)
        if staged:  # repaired: the rank-1 patch's tolerance
            np.testing.assert_allclose(reopened.dist(), _solve8(w2), rtol=1e-12)
        else:
            expected = res.dist
            for u, v, c in ((0, 17, 1e-3), (4, 9, 2e-3)):
                expected = np.minimum(
                    expected, expected[:, u, None] + (c + expected[None, v, :]))
            np.testing.assert_array_equal(reopened.dist(), expected)

    @pytest.mark.parametrize("on_disk", [True, False], ids=["disk", "memory"])
    def test_self_loop_rule(self, tmp_path, on_disk):
        # One rule at every site: a non-negative self-loop is a no-op that
        # returns True and is not counted; a negative one is refused.
        w, res, srv, path = self._served(tmp_path)
        if not on_disk:
            srv = repro.serve(res, graph=w, block_size=8)
        assert srv.update_edge(3, 3, 0.0) is True
        assert srv.insert_edge(3, 3, 5.0) is True
        assert srv.batch_update([(3, 3, 1.0), (4, 4, 0.0)]) == 0
        with pytest.raises(NegativeCycleError):
            srv.batch_update([(3, 3, 1.0), (4, 4, -0.5)])
        assert srv.stats()["incremental"] == {
            "fast_updates": 0, "repairs": 0, "recomputes": 0, "dirty_blocks": 0}
        np.testing.assert_array_equal(srv.artifact.load_graph(), w)
        np.testing.assert_array_equal(srv.submatrix(range(30), range(30)), res.dist)


def _solve8(w):
    return repro.solve(w, variant="async", block_size=8, **CLUSTER).dist


def _rank_one(dist, u, v, c):
    return np.minimum(dist, dist[:, u, None] + (c + dist[None, v, :]))


def _manifest(path):
    return json.loads((path / "manifest.json").read_text())


def _hub_updates(n, u, v, c=0.015625):
    """Edges of weight ``c`` into u, out of v and from u to v: nearly
    every pair's shortest path then runs through (u, v), so raising it
    breaks too much to repair and re-solves."""
    return ([(i, u, c) for i in range(n) if i != u]
            + [(v, j, c) for j in range(n) if j != v] + [(u, v, c)])


def _carrying_edge(w):
    """The cheapest edge is the shortest path between its ends, so
    raising it invalidates the patch and re-solves."""
    real = np.where(np.eye(len(w), dtype=bool), np.inf, w)
    return tuple(map(int, np.unravel_index(np.argmin(real), real.shape)))


def _torn_savez(file, **arrays):
    fh = open(file, "wb") if isinstance(file, (str, os.PathLike)) else file
    fh.write(b"PK\x03\x04 half a zip")
    fh.flush()
    raise OSError("disk full")


@pytest.fixture()
def saved30(tmp_path):
    """A 30-vertex artifact with its graph, 8 x 8 tiles (ragged edge)."""
    w = erdos_renyi(30, 0.3, seed=6)
    res = repro.solve(w, variant="async", block_size=8, **CLUSTER)
    path = tmp_path / "art"
    res.save(path, block_size=8, graph=w)
    return w, res, path


def _reweighted(seed, dtype, dyadic, n=30):
    """An erdos_renyi graph shifted by vertex potentials p, w(i, j) +
    p(i) - p(j): some edges go negative, every cycle keeps its positive
    weight.  ``dyadic`` keeps every weight and (min,+) sum exact."""
    rng = np.random.default_rng(seed)
    w = erdos_renyi(n, 0.3, seed=seed)
    if dyadic:
        w = np.ceil(w * 64) / 64
        p = rng.integers(0, 6, n).astype(float)
    else:
        p = rng.uniform(0.0, 6.0, n)
    return (w + p[:, None] - p[None, :]).astype(dtype)


def _open_updater(kind, w, tmp_path):
    """The same stream runs through the three stores: the updater
    behind an on-disk server, an in-memory server, IncrementalApsp."""
    from repro.extensions import IncrementalApsp

    if kind == "dense":
        return IncrementalApsp(w, block_size=8)
    res = repro.solve(w, variant="async", block_size=8, **CLUSTER)
    if kind == "memory":
        return repro.serve(res, graph=w, block_size=8).patcher
    res.save(tmp_path / "art", block_size=8, graph=w)
    return repro.serve(tmp_path / "art").patcher


def _on_path_edges(updater):
    """Edges that are themselves a shortest path between their ends:
    raising one breaks at least that pair."""
    w, d = updater.artifact.load_graph(), updater.artifact.dist()
    tight = np.isfinite(w) & (w == d) & ~np.eye(len(w), dtype=bool)
    return [(int(u), int(v)) for u, v in np.argwhere(tight)]


class TestRepair:
    """An increase on a shortest path repairs exactly the broken pairs
    (the set A) on the kernel waist, and re-solves past the crossover.

    30 vertices in 8 x 8 tiles (ragged edge), some negative weights.
    Dyadic weights make every (min,+) sum exact, so a repair must then
    equal a fresh solve bit for bit; generic ones sum in another order
    and must agree to the dtype's tolerance.
    """

    @pytest.mark.parametrize("weights", ["dyadic", "generic"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("kind", ["disk", "memory", "dense"])
    def test_random_on_path_increases(self, tmp_path, monkeypatch, kind, dtype, weights):
        exact = weights == "dyadic"
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        w = _reweighted(41, dtype, exact)
        assert (w < 0).any()
        updater = _open_updater(kind, w, tmp_path)
        seen = []
        real = incremental.RankOneUpdater._broken_pairs

        def broken_pairs(self, *args):
            found = real(self, *args)
            seen.append(found)
            return found

        monkeypatch.setattr(incremental.RankOneUpdater, "_broken_pairs", broken_pairs)
        rng = np.random.default_rng(7)
        n = len(w)
        for step in range(8):
            edges = _on_path_edges(updater)
            u, v = edges[rng.integers(len(edges))]
            old = float(updater.artifact.load_graph()[u, v])
            raised = INF if step % 3 == 2 else old + (
                float(rng.integers(1, 8)) if exact else float(rng.uniform(0.5, 8.0)))
            before = updater.artifact.dist()
            assert updater.update_edge(u, v, raised) is False
            after = updater.artifact.dist()
            fresh = _solve8(updater.artifact.load_graph())
            rows, cols, mask, _ = seen[-1]
            broken = np.zeros((n, n), dtype=bool)
            broken[np.ix_(rows, cols)] = mask
            # Outside A the bits are the old ones; every pair a fresh
            # solve moves lies in A.
            np.testing.assert_array_equal(after[~broken], before[~broken])
            moved = ~np.isclose(fresh, before, rtol=rtol, atol=0)
            assert not (moved & ~broken).any(), np.argwhere(moved & ~broken)
            if exact:
                np.testing.assert_array_equal(after, fresh)
            else:
                np.testing.assert_allclose(after, fresh, rtol=rtol)
        assert updater.repairs + updater.recomputes == 8
        assert updater.repairs >= 4

    @pytest.mark.parametrize("kind", ["disk", "memory", "dense"])
    def test_a_zero_weight_cycle_keeps_the_empty_path(self, tmp_path, kind):
        """d(3, 3) = 0 is the empty path, which uses no edge, though the
        zero-weight cycle 3 -> 7 -> 3 through the raised edge ties it.
        The two are a component of their own, so the repair is small."""
        w = np.ceil(erdos_renyi(30, 0.3, seed=5) * 64) / 64
        w[[3, 7], :] = w[:, [3, 7]] = np.inf
        w[3, 7] = w[7, 3] = w[3, 3] = w[7, 7] = 0.0
        updater = _open_updater(kind, w, tmp_path)
        assert updater.update_edge(3, 7, 1.0) is False
        assert updater.repairs == 1
        w[3, 7] = 1.0
        np.testing.assert_array_equal(updater.artifact.dist(), _solve8(w))

    # The hub edges are 1/64, so these two run on non-negative weights
    # (a 1/64 edge beside a negative one could close a negative cycle).

    @pytest.mark.parametrize("kind", ["disk", "memory", "dense"])
    def test_a_hub_edge_past_the_crossover_re_solves(self, tmp_path, kind):
        w = np.ceil(erdos_renyi(30, 0.3, seed=5) * 64) / 64
        updater = _open_updater(kind, w, tmp_path)
        n = updater.artifact.n
        assert updater.batch_update(_hub_updates(n, 9, 13)) == 0
        assert updater.update_edge(9, 13, 1.0) is False
        assert (updater.repairs, updater.recomputes) == (0, 1)
        np.testing.assert_array_equal(
            updater.artifact.dist(), _solve8(updater.artifact.load_graph()))

    @pytest.mark.parametrize("kind", ["disk", "memory", "dense"])
    def test_a_repair_then_a_staged_resolve_in_one_batch(self, tmp_path, kind):
        w = np.ceil(erdos_renyi(30, 0.3, seed=5) * 64) / 64
        updater = _open_updater(kind, w, tmp_path)
        n = len(w)
        u, v = _on_path_edges(updater)[0]
        batch = [(u, v, float(w[u, v]) + 3.0)]                  # repaired in place
        batch += _hub_updates(n, 9, 13)                         # decreases
        batch += [(9, 13, 1.0)]                                 # stages the re-solve
        batch += [(4, 9, 2.0),                                  # a spoke: covered by it
                  (3, 21, 0.03125)]                             # absorbed, then re-solved
        assert updater.batch_update(batch) == 3
        assert (updater.repairs, updater.recomputes) == (1, 1)
        final = w.copy()
        for a, b, c in batch:
            final[a, b] = c
        np.testing.assert_array_equal(updater.artifact.load_graph(), final)
        np.testing.assert_array_equal(updater.artifact.dist(), _solve8(final))

    @pytest.mark.parametrize("kind", ["disk", "memory", "dense"])
    def test_a_refusal_after_a_repair_commits_the_prefix(self, tmp_path, kind):
        w = _reweighted(5, np.float64, True)
        updater = _open_updater(kind, w, tmp_path)
        u, v = _on_path_edges(updater)[0]
        prefix = [(u, v, float(w[u, v]) + 3.0), (4, 9, 0.015625)]
        with pytest.raises(NegativeCycleError):
            updater.batch_update(prefix + [(9, 4, -1e6), (1, 2, 0.015625)])
        assert (updater.fast_updates, updater.repairs, updater.recomputes) == (1, 1, 0)
        expected = w.copy()
        for a, b, c in prefix:
            expected[a, b] = c
        store = load_artifact(tmp_path / "art") if kind == "disk" else updater.artifact
        np.testing.assert_array_equal(store.load_graph(), expected)
        np.testing.assert_array_equal(store.dist(), _solve8(expected))


class TestEditLog:
    """An accepted edge change is one ``[u, v, w]`` row in the
    manifest's edit log; ``graph.npz`` is rewritten only to compact it."""

    def test_updates_log_rows_and_leave_graph_npz_alone(self, saved30):
        w, _, path = saved30
        graph_npz = (path / "graph.npz").read_bytes()
        doc = _manifest(path)
        assert (doc["version"], doc["edits"]) == (2, [])
        u, v = _carrying_edge(w)
        w2 = w.copy()
        w2[0, 17], w2[u, v] = 1e-3, 512.0
        with repro.serve(path) as srv:
            assert srv.update_edge(0, 17, 1e-3) is True      # rank-1 patch
            assert _manifest(path)["edits"] == [[0, 17, 1e-3]]
            assert srv.update_edge(u, v, 512.0) is False     # repair
            assert _manifest(path)["edits"] == [[0, 17, 1e-3], [u, v, 512.0]]
        assert (path / "graph.npz").read_bytes() == graph_npz
        reopened = load_artifact(path)
        np.testing.assert_array_equal(reopened.load_graph(), w2)
        np.testing.assert_allclose(reopened.dist(), _solve8(w2), rtol=1e-12)

    def test_a_batch_is_one_manifest_rename(self, saved30, monkeypatch):
        w, _, path = saved30
        renamed = []
        real = os.replace

        def replace(src, dst):
            renamed.append(os.path.basename(os.fspath(dst)))
            real(src, dst)

        srv = repro.serve(path)
        monkeypatch.setattr(os, "replace", replace)
        batch = [(0, 17, 1e-3), (4, 9, 2e-3), (*_carrying_edge(w), 512.0), (3, 21, 0.03)]
        assert srv.batch_update(batch) == 1
        assert renamed.count("manifest.json") == 1
        assert "graph.npz" not in renamed
        assert renamed[-1] == "manifest.json"  # tile files first, the commit last
        assert len(_manifest(path)["edits"]) == 4

    def test_more_than_n_rows_fold_into_graph_npz(self, saved30):
        w, _, path = saved30
        n = len(w)
        pairs = [tuple(map(int, p)) for p in np.argwhere(~np.eye(n, dtype=bool))][: n + 1]
        graph_npz = (path / "graph.npz").read_bytes()
        expected = w.copy()
        with repro.serve(path) as srv:
            for k, (u, v) in enumerate(pairs):
                assert srv.insert_edge(u, v, 1e-3) is True
                expected[u, v] = min(expected[u, v], 1e-3)
                if k < n:  # n rows: not yet more than n
                    assert len(_manifest(path)["edits"]) == k + 1
                    assert (path / "graph.npz").read_bytes() == graph_npz
            # The (n + 1)-th row was committed, then the log folded.
            with np.load(path / "graph.npz") as folded:
                np.testing.assert_array_equal(folded["weights"], expected)
            # Until the next flush the manifest still lists the folded
            # rows; replaying them over the new payload changes nothing.
            assert len(_manifest(path)["edits"]) == n + 1
            np.testing.assert_array_equal(load_artifact(path).load_graph(), expected)
            assert "0 logged edit(s)" in srv.describe()
        assert _manifest(path)["edits"] == []
        reopened = load_artifact(path)
        np.testing.assert_array_equal(reopened.load_graph(), expected)
        np.testing.assert_allclose(reopened.dist(), _solve8(expected), rtol=1e-12)

    def test_version_1_reads_as_version_2_and_is_rewritten(self, saved30):
        w, res, path = saved30
        doc = _manifest(path)
        doc["version"] = 1
        del doc["edits"]
        (path / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
        np.testing.assert_array_equal(load_artifact(path).load_graph(), w)
        with repro.serve(path) as srv:
            assert srv.distance(0, 17) == res.dist[0, 17]
            assert srv.k_nearest(0, 3) == repro.serve(res).k_nearest(0, 3)
            assert _manifest(path)["version"] == 1  # reads write nothing
            assert srv.update_edge(0, 17, 1e-3) is True
        doc = _manifest(path)
        assert (doc["version"], doc["edits"]) == (2, [[0, 17, 1e-3]])
        np.testing.assert_array_equal(
            load_artifact(path).dist(), _rank_one(res.dist, 0, 17, 1e-3))

    @pytest.mark.parametrize(
        "row", [[0, 30, 1.0], [0, 1], ["0", 1, 1.0], [0, 1, "1.0"], [0, 1, None],
                [0, 1, float("nan")], [0, 1, -float("inf")], {"u": 0}])
    def test_malformed_edit_rows_are_refused(self, saved30, row):
        _, _, path = saved30
        doc = _manifest(path)
        doc["edits"] = [[2, 3, 0.5], row]
        (path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="malformed edit-log row"):
            load_artifact(path)

    def test_describe_counts_logged_edits(self, saved30):
        _, _, path = saved30
        assert "graph payload: yes, 0 logged edit(s)" in load_artifact(path).describe()
        with repro.serve(path) as srv:
            srv.batch_update([(0, 17, 1e-3), (4, 9, 2e-3)])
            assert "graph payload: yes, 2 logged edit(s)" in srv.describe()
        assert "2 logged edit(s)" in load_artifact(path).describe()


class TestCommitPoints:
    """Kill-points of an update: the manifest rename or the compaction's
    ``savez_compressed`` fails on each write path.  Reopened, the
    directory is exactly the old artifact or the new one, tiles and
    graph, and its distances solve its own graph."""

    @staticmethod
    def _fail_manifest_rename(monkeypatch):
        real = os.replace

        def replace(src, dst):
            if os.path.basename(os.fspath(dst)) == "manifest.json":
                raise OSError("disk full")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)

    @pytest.mark.parametrize("point", ["manifest-rename", "compaction-savez"])
    @pytest.mark.parametrize("route", ["decrease", "resolve", "compaction", "repair"])
    def test_failure_leaves_the_old_or_the_new_artifact(
            self, saved30, monkeypatch, route, point):
        w, _, path = saved30
        n = len(w)
        if route == "resolve":
            monkeypatch.setattr(incremental, "RESOLVE_SHARE", 0.0)  # every increase re-solves
        if route == "compaction":  # n rows in the log: the next update folds it
            fill = [(0, v, min(0.25, float(w[0, v]))) for v in range(1, n)]
            with repro.serve(path) as srv:
                srv.batch_update(fill + [(1, 0, min(0.25, float(w[1, 0])))])
            assert len(_manifest(path)["edits"]) == n
        old = load_artifact(path)
        old_dist, old_graph = old.dist(), old.load_graph().copy()
        increase = route in ("resolve", "repair")
        u, v, c = (*_carrying_edge(w), 512.0) if increase else (0, 17, 1e-3)
        new_graph = old_graph.copy()
        new_graph[u, v] = c
        new_dist = _solve8(new_graph) if increase else _rank_one(old_dist, u, v, c)
        graph_npz = (path / "graph.npz").read_bytes()

        if point == "manifest-rename":
            self._fail_manifest_rename(monkeypatch)
        else:
            monkeypatch.setattr(np, "savez_compressed", _torn_savez)
        with repro.serve(path) as srv:
            if point == "manifest-rename":
                with pytest.raises(OSError, match="disk full"):
                    srv.update_edge(u, v, c)
                # The live server forgot the batch as well.
                np.testing.assert_array_equal(srv.submatrix(range(n), range(n)), old_dist)
                np.testing.assert_array_equal(srv.artifact.load_graph(), old_graph)
            elif route == "compaction":  # committed; only the fold failed
                with pytest.warns(RuntimeWarning, match="compacting the edit log"):
                    assert srv.update_edge(u, v, c) is True
            else:  # no compaction is due, so savez never runs
                assert srv.update_edge(u, v, c) is (route == "decrease")
        monkeypatch.undo()

        committed = point == "compaction-savez"
        reopened = load_artifact(path)
        if committed and route == "repair":  # summed in another order than a solve
            np.testing.assert_allclose(reopened.dist(), new_dist, rtol=1e-12)
        else:
            np.testing.assert_array_equal(
                reopened.dist(), new_dist if committed else old_dist)
        np.testing.assert_array_equal(
            reopened.load_graph(), new_graph if committed else old_graph)
        np.testing.assert_allclose(
            reopened.dist(), _solve8(reopened.load_graph()), rtol=1e-12)
        assert (path / "graph.npz").read_bytes() == graph_npz
        assert not list(path.rglob("*.tmp"))
        if route == "compaction" and committed:
            # The log stayed; the next commit folds it.
            assert len(_manifest(path)["edits"]) == n + 1
            with repro.serve(path) as srv:
                assert srv.update_edge(4, 9, 2e-3) is True
            new_graph[4, 9] = 2e-3
            assert _manifest(path)["edits"] == []
            with np.load(path / "graph.npz") as folded:
                np.testing.assert_array_equal(folded["weights"], new_graph)

    def test_disk_full_during_update_edge(self, saved30, monkeypatch):
        """A decrease once wrote ``graph.npz`` after flushing its tiles,
        so a full disk left d(0, 17) patched with the graph's (0, 17)
        unchanged.  A decrease now writes no graph at all."""
        _, _, path = saved30
        monkeypatch.setattr(np, "savez_compressed", _torn_savez)
        with repro.serve(path) as srv:
            assert srv.update_edge(0, 17, 1e-3) is True
        monkeypatch.undo()
        reopened = load_artifact(path)
        assert reopened.load_graph()[0, 17] == reopened.dist()[0, 17] == 1e-3
        np.testing.assert_allclose(
            reopened.dist(), _solve8(reopened.load_graph()), rtol=1e-12)

    def test_no_resolve_outlives_its_update(self, saved30, monkeypatch):
        """Each re-solve's scheduler, job and result are garbage once
        its update returns (a cached private scheduler kept every one:
        13.5 MiB per re-solve at n=768)."""
        from repro.sched import JobHandle

        monkeypatch.setattr(incremental, "RESOLVE_SHARE", 0.0)  # every increase re-solves
        results = []
        real = JobHandle.result

        def result(handle):
            out = real(handle)
            results.append(weakref.ref(out))
            return out

        monkeypatch.setattr(JobHandle, "result", result)
        _, _, path = saved30
        with repro.serve(path) as srv:
            for k in range(5):
                edge = _carrying_edge(srv.artifact.load_graph())
                assert srv.update_edge(*edge, 512.0) is False
                gc.collect()
                assert len(results) == k + 1
                assert all(ref() is None for ref in results)


    def test_a_failed_tile_write_mid_repair_discards_the_batch(self, saved30, monkeypatch):
        """The repair's second tile write fails: the decrease before it
        in the batch and the repair's first tile are both forgotten."""
        w, _, path = saved30
        n = len(w)
        old = load_artifact(path)
        old_dist, old_graph = old.dist(), old.load_graph().copy()
        state = {"repairing": False, "writes": 0}
        repair, rewrite = incremental.RankOneUpdater._repair, Artifact.rewrite_block

        def spy_repair(self, *args):
            state["repairing"] = True
            return repair(self, *args)

        def failing_rewrite(self, bi, bj, data):
            if state["repairing"]:
                state["writes"] += 1
                if state["writes"] == 2:
                    raise OSError("disk full")
            return rewrite(self, bi, bj, data)

        monkeypatch.setattr(incremental.RankOneUpdater, "_repair", spy_repair)
        monkeypatch.setattr(Artifact, "rewrite_block", failing_rewrite)
        with repro.serve(path) as srv:
            with pytest.raises(OSError, match="disk full"):
                srv.batch_update([(0, 17, 1e-3), (*_carrying_edge(w), 512.0)])
            assert state["writes"] == 2
            assert srv.stats()["incremental"]["repairs"] == 0
            np.testing.assert_array_equal(srv.submatrix(range(n), range(n)), old_dist)
            np.testing.assert_array_equal(srv.artifact.load_graph(), old_graph)
        monkeypatch.undo()
        reopened = load_artifact(path)
        np.testing.assert_array_equal(reopened.dist(), old_dist)
        np.testing.assert_array_equal(reopened.load_graph(), old_graph)
        assert _manifest(path)["edits"] == []
        assert set(_block_inodes(path)) == {r[2] for r in _manifest(path)["blocks"]}
        assert not list(path.rglob("*.tmp"))


def _block_inodes(path):
    return {f.stem: f.stat().st_ino for f in (path / "blocks").glob("*.blk")}


class TestSpareBlocks:
    """A block file the last commit stopped referencing is kept as a
    spare, and the next new tile is written into it instead of into a
    new file, so a stream of updates creates no inodes; ``close()``
    deletes the spares."""

    @staticmethod
    def _tiles(path):
        """A full tile and a ragged one, each with bytes no other tile
        shares (so rewriting it frees its file)."""
        rows = _manifest(path)["blocks"]
        count = Counter(row[2] for row in rows)
        unique = [row for row in rows if count[row[2]] == 1]
        full = next(r for r in unique if r[4] == r[5] == 8)
        ragged = next(r for r in unique if r[5] < 8)
        return full, ragged

    def test_a_new_tile_reuses_a_spare_file(self, saved30):
        _, _, path = saved30
        full, ragged = self._tiles(path)
        before = _block_inodes(path)
        art = load_artifact(path)
        art.rewrite_block(full[0], full[1], art.load_block(full[0], full[1]) + 1.0)
        art.flush()
        assert full[2] in _block_inodes(path)  # kept as a spare, not deleted
        patched = art.load_block(ragged[0], ragged[1]) + 1.0
        art.rewrite_block(ragged[0], ragged[1], patched)
        art.flush()
        row = next(r for r in _manifest(path)["blocks"] if r[:2] == ragged[:2])
        # The 8 x 8 spare now holds the 8 x 6 tile, truncated to size.
        assert _block_inodes(path)[row[2]] == before[full[2]]
        np.testing.assert_array_equal(
            load_artifact(path).load_block(ragged[0], ragged[1]), patched)
        art.close()
        assert set(_block_inodes(path)) == {r[2] for r in _manifest(path)["blocks"]}

    def test_a_vanished_spare_falls_back_to_a_new_file(self, saved30):
        _, _, path = saved30
        full, ragged = self._tiles(path)
        art = load_artifact(path)
        art.rewrite_block(full[0], full[1], art.load_block(full[0], full[1]) + 1.0)
        art.flush()
        (path / "blocks" / f"{full[2]}.blk").unlink()  # the one spare
        patched = art.load_block(ragged[0], ragged[1]) + 1.0
        art.rewrite_block(ragged[0], ragged[1], patched)
        art.close()
        np.testing.assert_array_equal(
            load_artifact(path).load_block(ragged[0], ragged[1]), patched)
        assert set(_block_inodes(path)) == {r[2] for r in _manifest(path)["blocks"]}
        assert not list(path.rglob("*.tmp"))

    def test_a_spare_holding_the_bytes_is_taken_as_is(self, saved30):
        _, _, path = saved30
        full, _ = self._tiles(path)
        inode = _block_inodes(path)[full[2]]
        art = load_artifact(path)
        original = np.array(art.load_block(full[0], full[1]))
        art.rewrite_block(full[0], full[1], original + 1.0)
        art.flush()
        art.rewrite_block(full[0], full[1], original)  # back: no write
        art.close()
        assert full in _manifest(path)["blocks"]
        assert _block_inodes(path)[full[2]] == inode
        np.testing.assert_array_equal(load_artifact(path).load_block(full[0], full[1]), original)

    def test_updates_create_files_only_past_the_spares(self, saved30):
        w, _, path = saved30
        nb = _manifest(path)["nb"]
        with repro.serve(path) as srv:
            assert srv.update_edge(*_carrying_edge(w), 512.0) is False
            for k in range(1, 8):
                files = _block_inodes(path)
                spares = len(files) - len({r[2] for r in _manifest(path)["blocks"]})
                dirty = srv.stats()["incremental"]["dirty_blocks"]
                assert srv.update_edge(0, 3 * k, 1e-3 * k) is True
                written = srv.stats()["incremental"]["dirty_blocks"] - dirty
                created = set(_block_inodes(path).values()) - set(files.values())
                assert len(created) <= max(0, written - spares)
                assert len(_block_inodes(path)) <= 2 * nb * nb  # one spare per tile at most
        assert set(_block_inodes(path)) == {r[2] for r in _manifest(path)["blocks"]}
        reopened = load_artifact(path)
        np.testing.assert_allclose(
            reopened.dist(), _solve8(reopened.load_graph()), rtol=1e-12)

    def test_a_commit_does_not_list_blocks(self, saved30, monkeypatch):
        """A commit finds the files it stopped referencing among the
        digests its rewrites released; it never lists ``blocks/``."""
        import pathlib

        w, _, path = saved30

        def listing(*args, **kwargs):
            raise AssertionError("blocks/ listed during an update")

        with repro.serve(path) as srv:
            monkeypatch.setattr(pathlib.Path, "glob", listing)
            monkeypatch.setattr(os, "scandir", listing)
            monkeypatch.setattr(os, "listdir", listing)
            assert srv.update_edge(0, 17, 1e-3) is True
            assert srv.update_edge(*_carrying_edge(w), 512.0) is False
            assert srv.update_edge(4, 9, 2e-3) is True
            monkeypatch.undo()
            files = _block_inodes(path)
            live = {r[2] for r in _manifest(path)["blocks"]}
            assert live <= set(files)
            assert len(files) - len(live) == len(srv.artifact._spares)
        assert set(_block_inodes(path)) == {r[2] for r in _manifest(path)["blocks"]}

    def test_close_sweeps_orphans_and_discarded_writes(self, saved30, monkeypatch):
        """Files a discarded batch wrote are released to the next
        commit; an orphan a crashed process left is deleted by the next
        writer's close, and never by a reader's."""
        _, _, path = saved30
        orphan = path / "blocks" / f"{'0' * 64}.blk"
        orphan.write_bytes(b"left by a crashed update")
        with repro.serve(path) as srv:
            srv.distance(0, 17)
        assert orphan.exists()  # a reader deletes nothing
        with repro.serve(path) as srv:
            TestCommitPoints._fail_manifest_rename(monkeypatch)
            with pytest.raises(OSError, match="disk full"):
                srv.update_edge(0, 17, 1e-3)
            monkeypatch.undo()
            stray = set(_block_inodes(path)) - {r[2] for r in _manifest(path)["blocks"]}
            assert stray - {orphan.stem}  # the discarded batch's tiles
            assert srv.update_edge(4, 9, 2e-3) is True
            nb = _manifest(path)["nb"]
            assert len(_block_inodes(path)) <= 2 * nb * nb + 1
        assert not orphan.exists()
        assert set(_block_inodes(path)) == {r[2] for r in _manifest(path)["blocks"]}
        reopened = load_artifact(path)
        assert reopened.load_graph()[4, 9] == 2e-3 and reopened.load_graph()[0, 17] != 1e-3

    def test_failed_write_into_a_spare_keeps_the_last_commit(self, saved30, monkeypatch):
        _, _, path = saved30
        with repro.serve(path) as srv:
            assert srv.update_edge(0, 17, 1e-3) is True
            committed = load_artifact(path).dist()
            real = os.replace

            def replace(src, dst):
                if os.fspath(dst).endswith(".blk"):
                    raise OSError("disk full")
                real(src, dst)

            monkeypatch.setattr(os, "replace", replace)
            with pytest.raises(OSError, match="disk full"):
                srv.update_edge(4, 9, 2e-3)
            monkeypatch.undo()
            np.testing.assert_array_equal(srv.submatrix(range(30), range(30)), committed)
        reopened = load_artifact(path)
        np.testing.assert_array_equal(reopened.dist(), committed)
        assert reopened.load_graph()[4, 9] != 2e-3
        assert not list(path.rglob("*.tmp"))


class TestServeConfig:
    def test_explicit_beats_env(self):
        cfg = ServeConfig.from_env(
            {"REPRO_SERVE_CACHE_BYTES": "1024"}, cache_bytes=2048
        )
        assert cfg.effective_cache_bytes == 2048

    def test_env_beats_default(self):
        cfg = ServeConfig.from_env({"REPRO_SERVE_CACHE_BYTES": "1024"})
        assert cfg.cache_bytes == 1024

    def test_default_when_unset(self):
        from repro.serve import DEFAULT_CACHE_BYTES

        cfg = ServeConfig.from_env({})
        assert cfg.cache_bytes is None
        assert cfg.effective_cache_bytes == DEFAULT_CACHE_BYTES

    def test_backend_env_precedence(self):
        cfg = ServeConfig.from_env(
            {"REPRO_SRGEMM_BACKEND": "tiled"}, kernel_backend="cnative"
        )
        assert cfg.kernel_backend == "cnative"
        assert ServeConfig.from_env(
            {"REPRO_SRGEMM_BACKEND": "tiled"}
        ).kernel_backend == "tiled"

    def test_bad_env_value_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig.from_env({"REPRO_SERVE_CACHE_BYTES": "lots"})
        with pytest.raises(ConfigurationError):
            ServeConfig.from_env({"REPRO_SERVE_CACHE_BYTES": "-5"})

    def test_field_validation(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(cache_bytes=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(cache_bytes=True)
        with pytest.raises(ConfigurationError):
            ServeConfig(batch_chunk=0)
        with pytest.raises(ConfigurationError):
            ServeConfig().replace(nonsense=1)

    def test_frozen(self):
        import dataclasses

        cfg = ServeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.cache_bytes = 7


class TestObservability:
    def test_metrics_catalog_and_sink(self, artifact_dir, tmp_path):
        out = tmp_path / "metrics.json"
        cfg = ServeConfig(obs=repro.ObsSinks(metrics_out=str(out)))
        with repro.serve(artifact_dir, cfg) as srv:
            srv.distance(0, 1)
            srv.distance(0, 2)
            srv.batch([(0, 1), (2, 3)])
            srv.k_nearest(0, 3)
        payload = json.loads(out.read_text())
        flat = {name: m["value"] for name, m in payload["metrics"].items()}
        assert flat["serve.queries.point"] == 2
        assert flat["serve.queries.batch"] == 1
        assert flat["serve.queries.batch_pairs"] == 2
        assert flat["serve.queries.k_nearest"] == 1
        assert flat["serve.cache.hits"] + flat["serve.cache.misses"] >= 4
        assert payload["serve"]["cache"]["hits"] >= 1

    def test_incremental_metrics(self, tmp_path):
        w = erdos_renyi(16, 0.4, seed=8)
        res = repro.solve(w, block_size=4)
        path = tmp_path / "a"
        res.save(path, block_size=4, graph=w)
        cfg = ServeConfig(obs=repro.ObsSinks(metrics=True))
        srv = repro.serve(path, cfg)
        srv.update_edge(0, 9, 1e-4)
        flat = srv.metrics.flat()
        assert flat["serve.incremental.fast_updates"] == 1
        assert flat["serve.incremental.dirty_blocks"] >= 1

    def test_no_metrics_by_default(self, artifact_dir):
        srv = repro.serve(artifact_dir)
        assert srv.metrics is None


class TestIncrementalExtension:
    """The in-memory IncrementalApsp now honors dtype/backend/metrics."""

    def test_float32_preserved(self):
        from repro.extensions import IncrementalApsp

        w = erdos_renyi(12, 0.5, seed=1).astype(np.float32)
        inc = IncrementalApsp(w, block_size=4)
        assert inc.dist.dtype == np.float32
        assert inc.weights.dtype == np.float32

    def test_backend_is_honored(self):
        from repro.extensions import IncrementalApsp

        w = erdos_renyi(12, 0.5, seed=1)
        ref = IncrementalApsp(w, block_size=4, backend="tiled")
        for name in sorted(available_backends()):
            other = IncrementalApsp(w, block_size=4, backend=name)
            if "f32" in name:  # reduced-precision backend, by design
                np.testing.assert_allclose(other.dist, ref.dist, rtol=1e-5)
            else:
                np.testing.assert_array_equal(other.dist, ref.dist)
            other.update_edge(0, 5, 100.0)  # exercise the recompute path

    def test_metrics_counters(self):
        from repro.extensions import IncrementalApsp
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        w = erdos_renyi(12, 0.5, seed=1)
        inc = IncrementalApsp(w, block_size=4, metrics=registry)
        inc.update_edge(0, 5, 1e-4)
        assert registry.flat()["serve.incremental.fast_updates"] == 1
