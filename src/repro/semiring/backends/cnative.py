"""Native-compiled SrGemm backend (system C compiler + ctypes).

The multi-stage blocked-FW kernel (Lund & Smith; see PAPERS.md)
expressed as a tiny C translation unit compiled *at first use* with
whatever ``cc``/``gcc``/``clang`` the host provides, then loaded
through :mod:`ctypes`.  This is the repo's fastest path: the fused
``i/t/j`` loop with register-blocked ``j``-strips measures >10x the
reference backend at b=256 float64.

Phase specialization is a strip-width parameter on one symbol family:

* ``srgemm_diag``  - full-width strips (``jb = n``): the diagonal
  block is small and k-serial, so plain streaming wins;
* ``srgemm_panel`` / ``srgemm_outer`` - 64-wide ``j``-strips keep the
  ``C`` row segment register/L1-resident across the whole ``t`` loop
  (the prototype's measured sweet spot).

Strip order cannot change results: every compiled semiring has a
comparison ``⊕``, which is exact under any association.

``srgemm_grid`` is one more C symbol: it takes a tile kernel and three
pointer arrays (tiles, row operands, column operands) and loops the
kernel over the grid *inside C*, so a rank's whole OuterUpdate costs
one ctypes call instead of one per tile.  The tile kernel arrives as a
function pointer, so one symbol serves all eight instantiations and
calls them out of line: the translation unit - and its cold compile
time - stays the size of one kernel family (a ``_grid`` twin per
instantiation measured +0.06 s on a 0.5 s compile).  Tiles are
disjoint, so the order the grid is walked in cannot change results
either.  Every array's shape, dtype and layout is checked in Python
before any pointer is taken; a grid the C entry does not cover (ragged
shapes, a strided or read-only array, an uncompiled semiring or dtype,
a failed compile) takes the per-tile loop instead.

Correctness notes:

* **No ``-ffast-math``.**  Distance matrices carry ``inf`` for
  "no edge"; fast-math licenses the compiler to assume no inf/nan and
  would miscompile the relaxation.  Plain ``-O3 -march=native`` only.
* The C kernels require C-contiguous operands; non-contiguous
  accumulators (panel stripes are column slices) are staged through a
  contiguous copy and written back.
* Only the four comparison-⊕ semirings on float32/float64 are
  compiled; anything else falls back to the tiled NumPy path, so the
  backend is total over ``SEMIRINGS``.

The compiled library is cached under ``$REPRO_CNATIVE_CACHE`` (default:
a per-user directory under the system temp dir) as
``srgemm-<source hash>.so``, so recompiles only happen when the kernel
text changes and a cache directory shared across versions never hands
out a stale object.  If compilation fails at runtime - or the loaded
object lacks a symbol - the backend degrades to the tiled path instead
of erroring.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from typing import Optional, Sequence

import numpy as np

from ..minplus import MIN_PLUS, Semiring
from .base import validate_accumulate, validate_grid
from .tiled import TiledBackend

__all__ = ["CNativeBackend", "find_c_compiler", "ENV_CNATIVE_CACHE"]

#: Environment override for the compile cache directory.
ENV_CNATIVE_CACHE = "REPRO_CNATIVE_CACHE"

#: Register-blocked strip width for panel/outer phases (measured
#: sweet spot on the prototype; wide enough for full vector lanes,
#: narrow enough that a C-row strip stays in registers/L1).
PANEL_JB = 64
OUTER_JB = 64

#: Strip width per ``srgemm_grid`` phase (0 = full width): a grid call
#: strips exactly as the per-tile entry it stands for.
_GRID_PHASE_JB = {"diag": 0, "panel": PANEL_JB, "outer": OUTER_JB}

_C_SOURCE = r"""
#define DEFINE_SRGEMM(NAME, T, CAND, BETTER)                            \
void NAME(void *restrict cv, const void *restrict av,                   \
          const void *restrict bv, long m, long n, long k, long jb) {   \
    T *restrict c = cv;                                                 \
    const T *restrict a = av;                                           \
    const T *restrict b = bv;                                           \
    if (jb < 1 || jb > n) jb = n > 0 ? n : 1;                           \
    for (long j0 = 0; j0 < n; j0 += jb) {                               \
        long j1 = j0 + jb < n ? j0 + jb : n;                            \
        for (long i = 0; i < m; i++) {                                  \
            T *restrict crow = c + i * n;                               \
            const T *restrict arow = a + i * k;                         \
            for (long t = 0; t < k; t++) {                              \
                T x = arow[t];                                          \
                const T *restrict brow = b + t * n;                     \
                for (long j = j0; j < j1; j++) {                        \
                    T y = brow[j];                                      \
                    T cand = (CAND);                                    \
                    T cur = crow[j];                                    \
                    /* unconditional select-store vectorizes to        \
                       vmin/vmax; a guarded store would branch */      \
                    crow[j] = (cand BETTER cur) ? cand : cur;           \
                }                                                       \
            }                                                           \
        }                                                               \
    }                                                                   \
}

typedef void (*srgemm_tile_fn)(void *restrict, const void *restrict,
                               const void *restrict, long, long, long, long);

/* c[i*nc + j] (+)= a[i] (x) b[j] over uniform (m, n, k) tiles.  One
   symbol for every instantiation: the tile kernel arrives as a pointer,
   so it is called out of line and the unit stays one family big. */
void srgemm_grid(srgemm_tile_fn tile, void *const *c, const void *const *a,
                 const void *const *b, long nr, long nc,
                 long m, long n, long k, long jb) {
    for (long i = 0; i < nr; i++)
        for (long j = 0; j < nc; j++)
            tile(c[i * nc + j], a[i], b[j], m, n, k, jb);
}

DEFINE_SRGEMM(srgemm_min_plus_f64, double, x + y, <)
DEFINE_SRGEMM(srgemm_max_plus_f64, double, x + y, >)
DEFINE_SRGEMM(srgemm_max_min_f64, double, x < y ? x : y, >)
DEFINE_SRGEMM(srgemm_min_max_f64, double, x > y ? x : y, <)
DEFINE_SRGEMM(srgemm_min_plus_f32, float, x + y, <)
DEFINE_SRGEMM(srgemm_max_plus_f32, float, x + y, >)
DEFINE_SRGEMM(srgemm_max_min_f32, float, x < y ? x : y, >)
DEFINE_SRGEMM(srgemm_min_max_f32, float, x > y ? x : y, <)
"""

#: Semirings the C translation unit covers.
_COMPILED_SEMIRINGS = ("min_plus", "max_plus", "max_min", "min_max")


def find_c_compiler() -> Optional[str]:
    """First usable C compiler on PATH, or None."""
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _source_tag() -> str:
    return hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:12]


def _cache_dir() -> str:
    override = os.environ.get(ENV_CNATIVE_CACHE)
    if override:
        return override
    return os.path.join(tempfile.gettempdir(), f"repro-cnative-{os.getuid()}-{_source_tag()}")


def _compile_library(cc: str) -> ctypes.CDLL:
    """Compile (or reuse) the kernel shared object and load it."""
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    # Named by source hash: $REPRO_CNATIVE_CACHE may outlive a kernel
    # text, and an object built from another text lacks our symbols.
    stem = os.path.join(cache, f"srgemm-{_source_tag()}")
    lib_path = stem + ".so"
    if not os.path.exists(lib_path):
        src_path = stem + ".c"
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        base = [cc, "-O3", "-funroll-loops", "-shared", "-fPIC", "-o"]
        tmp_path = lib_path + ".tmp"
        for flags in (["-march=native"], []):  # retry portable if -march fails
            proc = subprocess.run(
                base[:1] + flags + base[1:] + [tmp_path, src_path],
                capture_output=True,
                text=True,
            )
            if proc.returncode == 0:
                break
        else:
            raise RuntimeError(f"cnative kernel compile failed:\n{proc.stderr}")
        os.replace(tmp_path, lib_path)  # atomic: concurrent compiles race safely
    return ctypes.CDLL(lib_path)


def _bind(lib: ctypes.CDLL) -> dict:
    """ctypes signatures: ``(semiring, dtype) -> (tile kernel, grid
    kernel)``, the grid kernel being the library's one ``srgemm_grid``
    bound to that tile kernel.  Pointers travel as plain addresses
    (``c_void_p``); the callers validate dtype and layout before taking
    them."""
    try:
        grid = lib.srgemm_grid
        tiles = {
            (sr, np.dtype(np_type)): getattr(lib, f"srgemm_{sr}_{suffix}")
            for sr in _COMPILED_SEMIRINGS
            for suffix, np_type in (("f64", np.float64), ("f32", np.float32))
        }
    except AttributeError as exc:
        raise RuntimeError(f"cnative kernel library lacks a symbol: {exc}") from None
    grid.restype = None
    grid.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_long] * 6
    table = {}
    for key, tile in tiles.items():
        tile.restype = None
        tile.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 4
        table[key] = (tile, functools.partial(grid, ctypes.cast(tile, ctypes.c_void_p)))
    return table


def _addresses(arrays) -> ctypes.Array:
    """``void *[]`` of the arrays' base addresses.  The caller has
    checked every array is a ``carray`` (C-contiguous, aligned,
    writeable - what the writable buffer export below needs) and keeps
    it alive across the native call.  ``arr.ctypes.data`` would do but
    builds a helper object per array: 1.0 us against 0.27 us here,
    which is most of what a grid call spends per tile."""
    addressof, from_buffer = ctypes.addressof, ctypes.c_char.from_buffer
    return (ctypes.c_void_p * len(arrays))(*[addressof(from_buffer(arr)) for arr in arrays])


class CNativeBackend(TiledBackend):
    """System-cc compiled multi-stage kernel; tiled NumPy fallback for
    semirings/dtypes the C translation unit does not cover."""

    def __init__(self, byte_budget: Optional[int] = None):
        super().__init__(byte_budget=byte_budget, name="cnative")
        self._cc = find_c_compiler()
        self.available = self._cc is not None
        self.unavailable_reason = (
            None if self.available else "no C compiler (cc/gcc/clang) on PATH"
        )
        self._kernels: Optional[dict] = None  # lazy; False = compile failed

    # -- lazy compile --------------------------------------------------------
    def _kernel_for(self, semiring: Semiring, dtype: np.dtype):
        """The ``(tile, grid)`` C entries for a pair, or None."""
        if self._kernels is None:
            try:
                self._kernels = _bind(_compile_library(self._cc))
            except (OSError, RuntimeError) as exc:
                warnings.warn(
                    f"cnative kernel compilation failed ({exc}); "
                    "falling back to the tiled NumPy path",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self._kernels = False
        if not self._kernels:
            return None
        return self._kernels.get((semiring.name, dtype))

    # -- dispatch ------------------------------------------------------------
    def _native_accumulate(
        self, c: np.ndarray, a: np.ndarray, b: np.ndarray, semiring: Semiring, jb: int
    ) -> Optional[np.ndarray]:
        """Run the C kernel; None means "not covered, use fallback"."""
        if not self.available or semiring.name not in _COMPILED_SEMIRINGS:
            return None
        dtype = c.dtype
        if dtype not in (np.float64, np.float32) or a.dtype != dtype or b.dtype != dtype:
            return None
        kernels = self._kernel_for(semiring, dtype)
        if kernels is None:
            return None
        validate_accumulate(c, a, b)
        m, k = a.shape
        n = b.shape[1]
        if m == 0 or n == 0 or k == 0:
            return c
        a_c = np.ascontiguousarray(a)
        b_c = np.ascontiguousarray(b)
        # Panel stripes hand us column-slice views; the C kernel needs a
        # contiguous accumulator, so stage through a copy and write back.
        c_c = c if c.flags.c_contiguous else np.ascontiguousarray(c)
        # Addresses are taken per call, never cached: checkpoint restore
        # replaces block arrays, and a stale address is a silent wrong
        # answer.  a_c / b_c / c_c stay referenced until the call returns.
        kernels[0](c_c.ctypes.data, a_c.ctypes.data, b_c.ctypes.data, m, n, k, jb)
        if c_c is not c:
            np.copyto(c, c_c)
        return c

    def _native_grid(self, c_tiles, a_rows, b_cols, semiring: Semiring, jb: int) -> bool:
        """Run the whole grid in one C call; False means "not covered,
        use the per-tile loop" (which also owns raising on a tile whose
        shape does not match its operands).  Nothing is written before
        every tile has been checked."""
        if not self.available or semiring.name not in _COMPILED_SEMIRINGS:
            return False
        if len(a_rows) == 0 or len(b_cols) == 0:
            return False
        a0, b0 = a_rows[0], b_cols[0]
        dtype = a0.dtype
        if dtype not in (np.float64, np.float32) or a0.ndim != 2 or b0.ndim != 2:
            return False
        (m, k), n = a0.shape, b0.shape[1]
        if m == 0 or n == 0 or k == 0:
            return False
        flat_tiles = [c for c_row in c_tiles for c in c_row]
        for arrays, shape in ((a_rows, (m, k)), (b_cols, (k, n)), (flat_tiles, (m, n))):
            for arr in arrays:
                if arr.shape != shape or arr.dtype != dtype or not arr.flags.carray:
                    return False
        kernels = self._kernel_for(semiring, dtype)
        if kernels is None:
            return False
        kernels[1](
            _addresses(flat_tiles), _addresses(a_rows), _addresses(b_cols),
            len(a_rows), len(b_cols), m, n, k, jb,
        )
        return True

    def srgemm_accumulate(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        out = self._native_accumulate(c, a, b, semiring, OUTER_JB)
        if out is not None:
            return out
        return super().srgemm_accumulate(c, a, b, semiring=semiring, k_chunk=k_chunk)

    def srgemm_diag(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        out = self._native_accumulate(c, a, b, semiring, 0)  # full-width strips
        if out is not None:
            return out
        return super().srgemm_diag(c, a, b, semiring=semiring, k_chunk=k_chunk)

    def srgemm_panel(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        out = self._native_accumulate(c, a, b, semiring, PANEL_JB)
        if out is not None:
            return out
        return super().srgemm_panel(c, a, b, semiring=semiring, k_chunk=k_chunk)

    def srgemm_outer(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        out = self._native_accumulate(c, a, b, semiring, OUTER_JB)
        if out is not None:
            return out
        return super().srgemm_outer(c, a, b, semiring=semiring, k_chunk=k_chunk)

    def srgemm_grid(
        self,
        c_tiles: Sequence[Sequence[np.ndarray]],
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
        phase: str = "outer",
    ) -> Sequence[Sequence[np.ndarray]]:
        validate_grid(c_tiles, a_rows, b_cols, phase)
        if self._native_grid(c_tiles, a_rows, b_cols, semiring, _GRID_PHASE_JB[phase]):
            return c_tiles
        return super().srgemm_grid(c_tiles, a_rows, b_cols, semiring=semiring, phase=phase)

    def describe(self) -> str:
        cc = os.path.basename(self._cc) if self._cc else "none"
        return (
            f"system-cc compiled multi-stage C kernel (cc: {cc}, "
            f"strips: diag=full panel={PANEL_JB} outer={OUTER_JB}); {super().describe()}"
        )
