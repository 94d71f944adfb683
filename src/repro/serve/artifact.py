"""Persistent solve artifacts: a distance matrix at rest, in blocks.

An *artifact* is a directory holding one solved APSP instance so that
point queries never pay for a solve again:

``manifest.json``
    The header: format version, matrix shape/dtype/block size, the run
    certificate and solve provenance carried over from the
    :class:`~repro.core.driver.ApspResult`, the block table - one
    ``[bi, bj, sha256, crc32, rows, cols]`` row per tile - and the edit
    log - one ``[u, v, w]`` row per accepted edge change, oldest first.
``blocks/<sha256>.blk``
    Raw C-contiguous bytes of one ``b x b`` tile (ragged at the edge),
    *content-addressed*: the filename is the SHA-256 of the bytes, so
    identical tiles (all-infinite regions, symmetric halves) are stored
    once and integrity is checkable offline.
``graph.npz`` (optional)
    The weight matrix the solve consumed, enabling the incremental
    update path (:mod:`repro.serve.incremental`); without it the
    artifact is read-only.  The current graph is this payload with the
    edit log replayed over it in order.

Reads are one read per miss; only tiles a query touches are read, so
a server over a matrix much larger than RAM holds just the tiles its
cache admits.  Every block's CRC32 is verified on its first load and a
mismatch *refuses* the block (:class:`~repro.errors.ArtifactError`,
exit code 17) - the store would rather answer nothing than answer
wrong.  Round trips are bit-exact for every dtype: blocks are raw
bytes, never re-encoded.

Writes commit in one place, :meth:`Artifact.flush`: new tiles go to
new content files and accepted edge changes to the in-memory log, and
one atomic rename of ``manifest.json`` then repoints the tiles and
appends the log rows together.  A block file the commit no longer
references is kept as a *spare*: the next new tile renames it to its
temp name and overwrites it instead of creating a file, so a stream of
updates makes no new inodes (creating files slows down as files churn,
and that made update latency swing from run to run).  A commit finds
such files among the digests its rewrites released, without listing
``blocks/``; :meth:`Artifact.close` deletes the spares and any orphan
a crashed writer left.  ``graph.npz`` is rewritten
only to compact the log - after that rename, once the log holds more than
``n`` rows - so it folds committed rows only, and replaying them again
over the new payload changes nothing (each row assigns a weight).  A
failure at any point leaves the directory the old artifact or the new
one.  Version 1 manifests (no edit log) read as version 2 with an
empty log; builds that predate the log refuse version 2 with exit 17.

``save_artifact`` / ``load_artifact`` are the module-level entry
points; :meth:`repro.core.driver.ApspResult.save` is the method-form
sugar.  :class:`MemoryArtifact` adapts an in-memory result to the same
interface so ``repro.serve(result)`` needs no disk at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import warnings
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Optional, Union

import numpy as np

from ..errors import ArtifactError, ConfigurationError

__all__ = [
    "Artifact",
    "MemoryArtifact",
    "save_artifact",
    "load_artifact",
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "MANIFEST_NAME",
]

ARTIFACT_FORMAT = "repro-apsp-artifact"
ARTIFACT_VERSION = 2
#: Manifest versions this build reads: version 1 predates the edit log
#: and reads as version 2 with an empty one.
READABLE_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"
BLOCKS_DIR = "blocks"
GRAPH_NAME = "graph.npz"

PathLike = Union[str, os.PathLike]


def _block_grid(n: int, b: int) -> int:
    return -(-n // b)


def _block_shape(n: int, b: int, bi: int, bj: int) -> tuple[int, int]:
    return (min(b, n - bi * b), min(b, n - bj * b))


def default_artifact_block_size(n: int) -> int:
    """A serving-oriented default tile: large enough that one query's
    block amortizes its read, small enough that a byte-budget cache
    holds many distinct tiles (~128 rows, clamped to the matrix)."""
    return max(1, min(n, 128))


class Artifact:
    """One persisted APSP solve, lazily readable block by block.

    Construct via :func:`load_artifact` / :func:`save_artifact`, not
    directly.  A block loads as a read-only array over the bytes of
    one read of its file; only tiles a query touches are read.
    """

    def __init__(self, path: Path, manifest: dict):
        self.path = Path(path)
        # A plain string ending in a separator: every cache miss appends
        # one file name to it, at a tenth of the cost of a pathlib join.
        self._blocks_dir = os.path.join(self.path, BLOCKS_DIR, "")
        self.manifest = manifest
        self.n: int = int(manifest["n"])
        self.dtype = np.dtype(manifest["dtype"])
        self.block_size: int = int(manifest["block_size"])
        self.nb: int = int(manifest["nb"])
        #: (bi, bj) -> {"hash", "crc32", "rows", "cols"}
        self._blocks = _block_table(manifest["blocks"])
        #: The edit log, oldest first: the committed rows, then any
        #: logged since the last flush (copied: ``manifest`` stays the
        #: committed state).
        self._edits: list[list] = list(manifest.get("edits", ()))
        #: Content hashes whose CRC already checked out in this process.
        self._verified: set[str] = set()
        #: Digests of block files no committed row references, kept for
        #: reuse: a tile rewrite renames a spare and overwrites it rather
        #: than creating a file (creates slow down under churn on ext4).
        self._spares: dict[str, None] = {}
        #: Digests that may have lost their last reference since the last
        #: commit - each rewritten tile's old hash and new one (a
        #: discarded batch leaves its files behind) - so that a commit
        #: finds its garbage without listing ``blocks/``.
        self._released: dict[str, None] = {}
        #: Set by the first tile rewrite: only a writer sweeps ``blocks/``.
        self._wrote = False
        self._graph_cache: Optional[np.ndarray] = None
        self._manifest_dirty = False

    # -- identity ---------------------------------------------------------
    @property
    def content_id(self) -> str:
        """SHA-256 over the ordered block hashes + shape header: two
        artifacts with the same id hold bit-identical distances."""
        h = hashlib.sha256()
        h.update(f"{self.n}:{self.dtype.str}:{self.block_size}:".encode())
        for key in sorted(self._blocks):
            h.update(self._blocks[key]["hash"].encode())
        return h.hexdigest()

    @property
    def certificate(self) -> Optional[dict]:
        return self.manifest.get("certificate")

    @property
    def solve_header(self) -> dict:
        """Provenance of the producing solve (variant, machine, ...)."""
        return dict(self.manifest.get("solve") or {})

    @property
    def has_graph(self) -> bool:
        return (self.path / GRAPH_NAME).exists()

    # -- reads ------------------------------------------------------------
    def block_keys(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._blocks))

    def block_nbytes(self, bi: int, bj: int) -> int:
        entry = self._blocks[(bi, bj)]
        return entry["rows"] * entry["cols"] * self.dtype.itemsize

    def _block_path(self, digest: str) -> str:
        return f"{self._blocks_dir}{digest}.blk"

    def load_block(self, bi: int, bj: int) -> np.ndarray:
        """The (bi, bj) tile as a read-only ``(rows, cols)`` array over
        the bytes of one read of its block file.

        The read asks for one byte more than the tile holds, so a file
        of the wrong length is refused without a ``stat`` (``fstat``
        runs only to word the refusal).  The first load of each
        distinct content hash verifies its CRC32 (and, on mismatch,
        refuses with :class:`ArtifactError`); subsequent loads of the
        same content skip the scan.
        """
        entry = self._blocks.get((bi, bj))
        if entry is None:
            raise ArtifactError(
                self.path, f"block ({bi}, {bj}) outside the {self.nb}x{self.nb} grid"
            )
        digest = entry["hash"]
        shape = (entry["rows"], entry["cols"])
        nbytes = shape[0] * shape[1] * self.dtype.itemsize
        try:
            fd = os.open(self._block_path(digest), os.O_RDONLY)
        except FileNotFoundError:
            raise ArtifactError(self.path, f"block file {digest}.blk is missing") from None
        try:
            raw = os.read(fd, nbytes + 1)
            while len(raw) < nbytes:  # one read stops short of 2 GiB on Linux
                more = os.read(fd, nbytes + 1 - len(raw))
                if not more:
                    break
                raw += more
            if len(raw) != nbytes:
                raise ArtifactError(
                    self.path,
                    f"block ({bi}, {bj}) file {digest}.blk holds "
                    f"{os.fstat(fd).st_size} bytes, expected {nbytes}",
                )
        finally:
            os.close(fd)
        if digest not in self._verified:
            crc = zlib.crc32(raw)
            if crc != entry["crc32"]:
                raise ArtifactError(
                    self.path,
                    f"block ({bi}, {bj}) failed its CRC32 integrity check "
                    f"(stored {entry['crc32']}, computed {crc}); refusing to serve it",
                )
            self._verified.add(digest)
        return np.frombuffer(raw, dtype=self.dtype).reshape(shape)

    def dist(self) -> np.ndarray:
        """Materialize the full n x n distance matrix (tests, re-solve
        seeding; defeats the point of out-of-core serving otherwise)."""
        out = np.empty((self.n, self.n), dtype=self.dtype)
        b = self.block_size
        for (bi, bj), entry in self._blocks.items():
            out[
                bi * b : bi * b + entry["rows"], bj * b : bj * b + entry["cols"]
            ] = self.load_block(bi, bj)
        return out

    def load_graph(self) -> np.ndarray:
        """The current weight matrix: ``graph.npz`` with the edit log
        replayed over it in order (cached; change it through
        :meth:`log_edit`)."""
        if self._graph_cache is None:
            path = self.path / GRAPH_NAME
            if not path.exists():
                raise ArtifactError(
                    self.path,
                    "artifact was saved without its graph (save with graph=w "
                    "to enable edge updates)",
                )
            with np.load(path) as data:
                graph = np.array(data["weights"])
            if graph.shape != (self.n, self.n):
                raise ArtifactError(
                    self.path,
                    f"graph payload shape {graph.shape} does not match n={self.n}",
                )
            for u, v, w in self._edits:
                graph[u, v] = w
            self._graph_cache = graph
        return self._graph_cache

    # -- writes (incremental patching) ------------------------------------
    def rewrite_block(self, bi: int, bj: int, data: np.ndarray) -> np.ndarray:
        """Replace tile (bi, bj) with new contents (content-addressed:
        writes one new block file, repoints the manifest row) and return
        the stored tile, read-only, as :meth:`load_block` would.  The
        manifest itself persists on :meth:`flush`."""
        entry = self._blocks.get((bi, bj))
        if entry is None:
            raise ArtifactError(
                self.path, f"block ({bi}, {bj}) outside the {self.nb}x{self.nb} grid"
            )
        expected = (entry["rows"], entry["cols"])
        if data.shape != expected or data.dtype != self.dtype:
            raise ArtifactError(
                self.path,
                f"rewrite of block ({bi}, {bj}) must be {expected} {self.dtype}, "
                f"got {data.shape} {data.dtype}",
            )
        payload = np.ascontiguousarray(data).tobytes()
        tile = np.frombuffer(payload, dtype=self.dtype).reshape(expected)
        digest = hashlib.sha256(payload).hexdigest()
        if digest == entry["hash"]:
            return tile
        self._released[entry["hash"]] = None
        self._released[digest] = None
        self._wrote = True
        path = self._block_path(digest)
        if digest in self._spares:
            del self._spares[digest]  # spares keep their bytes: live again
        elif not os.path.exists(path):
            spare = self._block_path(self._spares.popitem()[0]) if self._spares else None
            _atomic_write(path, lambda fh: fh.write(payload), reuse=spare)
        entry["hash"] = digest
        entry["crc32"] = zlib.crc32(payload)
        self._verified.add(digest)
        self._manifest_dirty = True
        return tile

    def log_edit(self, u: int, v: int, weight: float) -> None:
        """Set edge (u, v) to ``weight`` in the graph and append the
        ``[u, v, weight]`` row to the edit log; the row persists on
        :meth:`flush`, in the same rename as the tiles."""
        self.load_graph()[u, v] = weight
        self._edits.append([u, v, weight])
        self._manifest_dirty = True

    def rewrite_graph(self, weights: np.ndarray) -> None:
        """Compact the edit log: write ``weights`` - the current graph,
        :meth:`load_graph` - as ``graph.npz`` (temp file, then rename)
        and empty the log.

        Refused while anything is uncommitted, so only committed rows
        are folded.  Until the next flush drops them, the manifest on
        disk still lists the folded rows, and replaying them over the
        new payload yields the same graph.
        """
        if weights.shape != (self.n, self.n):
            raise ArtifactError(
                self.path, f"graph must be ({self.n}, {self.n}), got {weights.shape}"
            )
        if self._manifest_dirty:
            raise ArtifactError(
                self.path, "flush before compacting: the edit log holds uncommitted rows"
            )
        _atomic_write(
            self.path / GRAPH_NAME, lambda fh: np.savez_compressed(fh, weights=weights)
        )
        self._graph_cache = weights
        self._edits = []
        self._manifest_dirty = True

    def flush(self) -> None:
        """Commit: write the manifest - block table and edit log - in
        one atomic rename, keep the block files it no longer references
        as spares (up to one per tile; the rest are deleted), then
        compact the log if it holds more than ``n`` rows.  The files
        it no longer references are among the digests the rewrites
        since the last commit released; ``blocks/`` is not listed.

        A failed compaction only warns: the update is committed, the
        log stays, and the next flush tries again.
        """
        if not self._manifest_dirty:
            return
        manifest = dict(
            self.manifest,
            version=ARTIFACT_VERSION,
            blocks=[
                [bi, bj, e["hash"], e["crc32"], e["rows"], e["cols"]]
                for (bi, bj), e in sorted(self._blocks.items())
            ],
            edits=list(self._edits),
        )
        _atomic_write_bytes(
            self.path / MANIFEST_NAME, json.dumps(manifest, sort_keys=True).encode()
        )
        self.manifest = manifest
        self._manifest_dirty = False
        live = {e["hash"] for e in self._blocks.values()}
        for stale in self._released:
            if stale in live or stale in self._spares:
                continue
            if len(self._spares) < len(self._blocks):
                self._spares[stale] = None
            else:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self._block_path(stale))
        self._released.clear()
        if len(self._edits) > self.n:
            try:
                self.rewrite_graph(self.load_graph())
            except OSError as exc:
                warnings.warn(
                    f"{self.path}: compacting the edit log into {GRAPH_NAME} "
                    f"failed ({exc}); the log stays and the next flush retries",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def discard(self) -> None:
        """Forget everything since the last commit - tile rewrites, log
        rows, the cached graph - so this object is again what is on
        disk (the block files written since stay released, and the next
        commit keeps or deletes them)."""
        self._blocks = _block_table(self.manifest["blocks"])
        self._edits = list(self.manifest.get("edits", ()))
        self._graph_cache = None
        self._manifest_dirty = False

    def close(self) -> None:
        """Flush, then, if this object rewrote a tile, delete every
        block file the manifest does not reference - the spares, and
        any orphan a crashed process left - so that at rest the
        directory holds only those files.  The one listing of
        ``blocks/``; a reader never deletes."""
        self.flush()
        if self._wrote:
            live = {e["hash"] for e in self._blocks.values()}
            for entry in os.scandir(self._blocks_dir):
                digest, ext = os.path.splitext(entry.name)
                if ext == ".blk" and digest not in live:
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(entry.path)
        self._spares.clear()
        self._released.clear()

    def describe(self) -> str:
        unique = len({e["hash"] for e in self._blocks.values()})
        total = sum(self.block_nbytes(bi, bj) for bi, bj in self._blocks)
        lines = [
            f"artifact {self.path}",
            f"  n={self.n} dtype={self.dtype.name} block_size={self.block_size} "
            f"grid={self.nb}x{self.nb}",
            f"  blocks: {len(self._blocks)} ({unique} unique, {total} logical bytes)",
            f"  graph payload: "
            + (f"yes, {len(self._edits)} logged edit(s)" if self.has_graph else "no"),
            f"  content id: {self.content_id[:16]}...",
        ]
        solve = self.solve_header
        if solve:
            lines.append(
                "  solved by: "
                + ", ".join(f"{k}={solve[k]}" for k in sorted(solve) if solve[k] is not None)
            )
        if self.certificate is not None:
            lines.append(f"  certificate: {self.certificate}")
        return "\n".join(lines)


class MemoryArtifact:
    """The :class:`Artifact` reading interface over an in-memory
    distance matrix, so ``repro.serve(result)`` works without disk.

    Rewrites and logged edits mutate the held matrices; :meth:`flush`
    and :meth:`discard` are no-ops (there is nothing at rest to commit
    or to fall back to).
    """

    path = "<memory>"

    def __init__(
        self,
        dist: np.ndarray,
        *,
        block_size: Optional[int] = None,
        graph: Optional[np.ndarray] = None,
        certificate: Optional[dict] = None,
        solve: Optional[dict] = None,
    ):
        dist = np.asarray(dist)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ConfigurationError(
                f"distance matrix must be square, got {dist.shape}"
            )
        self._dist = np.array(dist, copy=True)
        self.n = dist.shape[0]
        self.dtype = self._dist.dtype
        self.block_size = int(block_size or default_artifact_block_size(self.n))
        if self.block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {self.block_size}")
        self.nb = _block_grid(self.n, self.block_size)
        self._graph = None if graph is None else np.array(graph, copy=True)
        self._certificate = certificate
        self._solve = dict(solve or {})

    @property
    def certificate(self) -> Optional[dict]:
        return self._certificate

    @property
    def solve_header(self) -> dict:
        return dict(self._solve)

    @property
    def has_graph(self) -> bool:
        return self._graph is not None

    @property
    def content_id(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n}:{self.dtype.str}:{self.block_size}:".encode())
        h.update(np.ascontiguousarray(self._dist).tobytes())
        return h.hexdigest()

    def block_keys(self) -> Iterator[tuple[int, int]]:
        return ((bi, bj) for bi in range(self.nb) for bj in range(self.nb))

    def _slices(self, bi: int, bj: int) -> tuple[slice, slice]:
        b = self.block_size
        if not (0 <= bi < self.nb and 0 <= bj < self.nb):
            raise ArtifactError(
                self.path, f"block ({bi}, {bj}) outside the {self.nb}x{self.nb} grid"
            )
        return (
            slice(bi * b, min(self.n, (bi + 1) * b)),
            slice(bj * b, min(self.n, (bj + 1) * b)),
        )

    def block_nbytes(self, bi: int, bj: int) -> int:
        rows, cols = _block_shape(self.n, self.block_size, bi, bj)
        return rows * cols * self.dtype.itemsize

    def load_block(self, bi: int, bj: int) -> np.ndarray:
        si, sj = self._slices(bi, bj)
        view = self._dist[si, sj]
        view.setflags(write=False)
        return view

    def dist(self) -> np.ndarray:
        return np.array(self._dist, copy=True)

    def load_graph(self) -> np.ndarray:
        if self._graph is None:
            raise ArtifactError(
                self.path,
                "in-memory artifact has no graph (serve with graph=w to "
                "enable edge updates)",
            )
        return self._graph

    def rewrite_block(self, bi: int, bj: int, data: np.ndarray) -> np.ndarray:
        si, sj = self._slices(bi, bj)
        if data.shape != self._dist[si, sj].shape or data.dtype != self.dtype:
            raise ArtifactError(
                self.path,
                f"rewrite of block ({bi}, {bj}) must be "
                f"{self._dist[si, sj].shape} {self.dtype}, got {data.shape} {data.dtype}",
            )
        self._dist[si, sj] = data
        return self.load_block(bi, bj)

    def log_edit(self, u: int, v: int, weight: float) -> None:
        self.load_graph()[u, v] = weight

    def flush(self) -> None:
        pass

    def discard(self) -> None:
        pass

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return (
            f"in-memory artifact: n={self.n} dtype={self.dtype.name} "
            f"block_size={self.block_size} grid={self.nb}x{self.nb} "
            f"graph={'yes' if self.has_graph else 'no'}"
        )


def _block_table(rows) -> dict[tuple[int, int], dict]:
    return {
        (int(bi), int(bj)): {
            "hash": digest, "crc32": int(crc), "rows": int(r), "cols": int(c)
        }
        for bi, bj, digest, crc, r, c in rows
    }


def _atomic_write(path: PathLike, write: Callable[[BinaryIO], Any], *,
                  reuse: Optional[str] = None) -> None:
    """``write(fh)`` into a temp file beside ``path``, then rename it
    over ``path``: a failed write or rename leaves the old file as it
    was, and no temp file.  ``reuse`` names a garbage file that becomes
    the temp file (renamed, overwritten, truncated) instead of a new
    one; if it is gone or not writable, a new file is made."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        fh = _take_spare(reuse, tmp) if reuse is not None else None
        reused = fh is not None
        if not reused:
            fh = open(tmp, "wb")
        with fh:
            write(fh)
            if reused:
                fh.truncate()
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _take_spare(spare: str, tmp: str) -> Optional[BinaryIO]:
    """``spare`` renamed to ``tmp`` and open for overwriting, or None
    (leaving no ``tmp``) when it is gone or cannot be written."""
    try:
        os.replace(spare, tmp)
        return open(tmp, "r+b")
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        return None


def _atomic_write_bytes(path: PathLike, payload: bytes) -> None:
    _atomic_write(path, lambda fh: fh.write(payload))


def _solve_header_from(result) -> dict:
    report = getattr(result, "report", None)
    if report is None:
        return {}
    return {
        # What a re-solve needs to reproduce this answer: the variant
        # the run *landed on* (after OOM degradation ``report.variant``
        # reads ``planned->landed``, which is not a variant name) and
        # the semiring the distances are a closure under.
        "variant": report.landed_variant,
        "semiring": report.semiring,
        "machine": report.machine,
        "n_nodes": report.n_nodes,
        "ranks": report.ranks,
        "block_size": report.block_size,
        "makespan": report.makespan,
    }


def save_artifact(
    source: Any,
    path: PathLike,
    *,
    block_size: Optional[int] = None,
    graph: Optional[np.ndarray] = None,
    certificate: Optional[dict] = None,
    solve: Optional[dict] = None,
    overwrite: bool = False,
) -> Artifact:
    """Persist a solve as a block artifact directory; returns the
    loaded :class:`Artifact`.

    ``source`` is an :class:`~repro.core.driver.ApspResult` (its
    certificate and run provenance ride along automatically) or a bare
    distance matrix.  ``graph`` optionally stores the weight matrix so
    the artifact supports edge updates.  An existing *artifact*
    directory is replaced only with ``overwrite=True``; any other
    existing path is refused.
    """
    dist = getattr(source, "dist", source)
    if dist is None:
        raise ArtifactError(
            path, "result holds no distance matrix (solve with collect=True)"
        )
    dist = np.asarray(dist)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ArtifactError(path, f"distance matrix must be square, got {dist.shape}")
    if certificate is None:
        certificate = getattr(source, "certificate", None)
    if solve is None:
        solve = _solve_header_from(source)
    n = dist.shape[0]
    b = int(block_size or default_artifact_block_size(n))
    if b < 1:
        raise ArtifactError(path, f"block_size must be >= 1, got {b}")
    if graph is not None:
        graph = np.asarray(graph)
        if graph.shape != (n, n):
            raise ArtifactError(
                path, f"graph must match the distance matrix ({n}, {n}), got {graph.shape}"
            )

    target = Path(path)
    if target.exists():
        if not overwrite:
            raise ArtifactError(path, "path exists (pass overwrite=True to replace)")
        if not (target / MANIFEST_NAME).exists():
            raise ArtifactError(
                path, "refusing to overwrite: existing path is not an artifact"
            )
        import shutil

        shutil.rmtree(target)
    blocks_dir = target / BLOCKS_DIR
    blocks_dir.mkdir(parents=True, exist_ok=True)

    nb = _block_grid(n, b)
    rows_table = []
    for bi in range(nb):
        for bj in range(nb):
            tile = np.ascontiguousarray(
                dist[bi * b : min(n, (bi + 1) * b), bj * b : min(n, (bj + 1) * b)]
            )
            payload = tile.tobytes()
            digest = hashlib.sha256(payload).hexdigest()
            block_path = blocks_dir / f"{digest}.blk"
            if not block_path.exists():
                _atomic_write_bytes(block_path, payload)
            rows_table.append(
                [bi, bj, digest, zlib.crc32(payload), tile.shape[0], tile.shape[1]]
            )

    if graph is not None:
        np.savez_compressed(target / GRAPH_NAME, weights=graph)

    manifest = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "n": n,
        "dtype": dist.dtype.name,
        "block_size": b,
        "nb": nb,
        "certificate": certificate,
        "solve": solve or {},
        "blocks": rows_table,
        "edits": [],
    }
    _atomic_write_bytes(
        target / MANIFEST_NAME, json.dumps(manifest, sort_keys=True).encode()
    )
    return Artifact(target, manifest)


def load_artifact(path: PathLike) -> Artifact:
    """Open an artifact directory, validating its manifest (not its
    blocks: those verify CRC lazily on first read)."""
    target = Path(path)
    manifest_path = target / MANIFEST_NAME
    if not target.is_dir() or not manifest_path.exists():
        raise ArtifactError(path, "not an artifact directory (no manifest.json)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(path, f"unreadable manifest: {exc}") from None
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(path, f"not a {ARTIFACT_FORMAT} manifest")
    version = manifest.get("version")
    if type(version) is not int or version not in READABLE_VERSIONS:
        raise ArtifactError(
            path,
            f"unsupported artifact version {manifest.get('version')!r} "
            f"(this build reads versions {', '.join(map(str, READABLE_VERSIONS))})",
        )
    for key in ("n", "dtype", "block_size", "nb", "blocks"):
        if key not in manifest:
            raise ArtifactError(path, f"manifest is missing {key!r}")
    if not isinstance(manifest.get("edits", []), list):
        raise ArtifactError(path, "manifest 'edits' is not a list")
    try:
        np.dtype(manifest["dtype"])
    except TypeError:
        raise ArtifactError(path, f"unknown dtype {manifest['dtype']!r}") from None
    artifact = Artifact(target, manifest)
    n, b, nb = artifact.n, artifact.block_size, artifact.nb
    if nb != _block_grid(n, b):
        raise ArtifactError(path, f"manifest nb={nb} inconsistent with n={n}, b={b}")
    expected = {(bi, bj) for bi in range(nb) for bj in range(nb)}
    have = set(artifact._blocks)
    if have != expected:
        missing = sorted(expected - have)[:4]
        extra = sorted(have - expected)[:4]
        raise ArtifactError(
            path, f"block table incomplete (missing {missing}, unexpected {extra})"
        )
    for (bi, bj), entry in artifact._blocks.items():
        if (entry["rows"], entry["cols"]) != _block_shape(n, b, bi, bj):
            raise ArtifactError(
                path,
                f"block ({bi}, {bj}) shape {(entry['rows'], entry['cols'])} "
                f"inconsistent with n={n}, b={b}",
            )
    for row in artifact._edits:
        # A row is what RankOneUpdater accepts: two vertices and a
        # weight that is neither NaN nor -inf.
        if not (
            isinstance(row, list)
            and len(row) == 3
            and all(type(i) is int and 0 <= i < n for i in row[:2])
            and type(row[2]) in (int, float)
            and -np.inf < row[2]
        ):
            raise ArtifactError(path, f"malformed edit-log row {row!r}")
    return artifact
