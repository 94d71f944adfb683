"""Native-compiled SrGemm backend (system C compiler + ctypes).

The multi-stage blocked-FW kernel (Lund & Smith; see PAPERS.md)
expressed as a small C translation unit compiled *at first use* with
whatever ``cc``/``gcc``/``clang`` the host provides, then loaded
through :mod:`ctypes`.  This is the repo's fastest path.

The micro-kernel
----------------
The tile kernel is register-blocked the way the paper's cuASR/CUTLASS
kernel is (thread tile held in registers across the ``k`` loop): the
accumulator is cut into ``MR x NR`` micro-tiles whose values live in a
*compile-time-sized local array* for the whole ``t`` loop -

* ``C`` is loaded once and stored once per micro-tile,
* the ``B`` row segment is loaded once per ``t`` for all ``MR`` rows,
* each ``t`` step is ``MR`` broadcasts of ``A`` and ``MR * NR`` add+select.

``MR`` and ``NR`` must be compile-time constants: with a run-time
width the compiler cannot prove the accumulator fits the register file
and re-loads/stores it on every ``t`` step (two loads and a store per
add+select - the kernel this one replaced, 10 GF/s where this one
measures 38 when its AVX-512 row is emitted at 512 bits).  The shape is
picked inside the C unit from the compiler's own target macros
(``_MICRO_TILES``: ``__AVX512F__`` / ``__AVX2__`` / neither), so a
16-register host gets a tile that does not spill; there is nothing to
set.  A target macro says what the host *can* run, not the width the
compiler *emits*: gcc's default for most AVX-512 targets is 256-bit
vectors, which turns the 16 zmm accumulators of the 8x16 tile into 32
ymm that spill (remainder-loop speed, 14 GF/s).  So the tuned rung of
the flag ladder (``_RUNGS``) pins ``-mprefer-vector-width=512``; on an
AVX2 or older target that preference is capped at what the ISA has,
which is the width its row is sized for.  ``m % MR`` / ``n % NR`` edges
run a plain ``i / t / j`` remainder loop.  DiagUpdate, PanelUpdate and
OuterUpdate products are all this one body, whatever ``phase`` a grid
names.

The vectorizer is fragile about micro-tile shape when left to its own
heuristics (docs/KERNELS.md §2 has the table: the same source went
from 38 to 2.7 GF/s on a 4x16 tile), so the lane loops carry
``#pragma omp simd`` and the unit is built with ``-fopenmp-simd``
(directive parsing only, no OpenMP runtime), which keeps them loops
until the vectorizer has seen them.
``benchmarks/bench_ablation_kernel_backends.py`` asserts the result.

One translation unit per (semiring, dtype)
------------------------------------------
A unit is a few ``#define`` lines (element type, ``⊗``, ``⊕``'s
comparison, the micro-tile ladder) in front of one shared body, and
exports ``srgemm_tile``, ``srgemm_grid`` (the tile kernel looped over a
grid of independent tiles *inside C*: a rank's whole OuterUpdate is one
ctypes call), ``srgemm_closure`` (DiagUpdate's Floyd-Warshall k-loop),
``srgemm_target`` (which row of the micro-tile ladder the compiler took)
and ``srgemm_rung`` (the flags it was built with).
It is generated, hashed, compiled and bound the first time its pair is
asked for, as
``$REPRO_CNATIVE_CACHE/srgemm-<semiring>-<f64|f32>-<hash>.so`` (default
directory: per-user, under the system temp dir).  A process pays for
the pairs it runs - a (min,+) float64 solve compiles one kernel
(0.17 s), not eight (0.54 s).  The hash covers everything the object
is a function of: the unit's text, the flag ladder, and one preprocessor
probe of the compiler (``__VERSION__``, every ISA macro, the resolved
``-march``), run once per backend.  An object built from another text,
with other flags, by another compiler or for another CPU is never
reused: in a cache shared between hosts a foreign-ISA object would be a
SIGILL, not a fallback.

The ABFT guard's two passes (``tile_sums`` / ``predict_sums`` on the
waist) come from a second unit per pair, ``guard-<semiring>-<f64|f32>-
<hash>.so`` (``guard_sums``, ``guard_predict``): the same ``#define``
lines in front of its own body, built by the same machinery at ``-O1``
(its ``omp simd`` loops run as fast as at ``-O3``, and it compiles in
60 % of the time) and only when a checksummed run first asks for it, so the
kernel units' text - and every unarmed compile - is what it was without
it.  It reads tiles in place through a pointer array and writes the
repair snapshot in the pass that takes the pre-op sums.

Concurrency rule: the source goes to the compiler on stdin and the
object is written to a ``mkstemp`` name in the cache directory, then
``os.replace``d onto the final name; only the final name is ever
loaded.  Any number of processes may cold-start against one directory:
each loads a complete object, and the directory ends with one ``.so``
per pair and no temporaries.

Correctness notes:

* **No ``-ffast-math``.**  Distance matrices carry ``inf`` for
  "no edge"; fast-math licenses the compiler to assume no inf/nan and
  would miscompile the relaxation.
* The select is the unconditional ``(cand BETTER cur) ? cand : cur``
  everywhere, so micro-tile, remainder loop and closure produce the
  reference backend's bits under any blocking.
* Every array's shape, dtype and layout is checked in Python before any
  pointer is taken.  The C kernels require C-contiguous operands; a
  non-contiguous accumulator (panel stripes are column slices) is
  staged through a contiguous copy and written back.
* Only the four comparison-⊕ semirings on float32/float64 are
  compiled; anything else - and everything, after a failed compile or a
  loaded object that lacks a symbol, which warn once - takes the tiled
  NumPy path (the guard: the NumPy entries), so the backend is total
  over ``SEMIRINGS``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..minplus import MIN_PLUS, Semiring
from .base import OperandList, validate_accumulate, validate_grid
from .tiled import TiledBackend

__all__ = ["CNativeBackend", "find_c_compiler", "ENV_CNATIVE_CACHE"]

#: Environment override for the compile cache directory.
ENV_CNATIVE_CACHE = "REPRO_CNATIVE_CACHE"

#: Compiled semirings: name -> (``⊗`` of ``x`` and ``y``, the comparison
#: under which a candidate replaces the current value).
_SEMIRING_OPS = {
    "min_plus": ("x + y", "<"),
    "max_plus": ("x + y", ">"),
    "max_min": ("x < y ? x : y", ">"),
    "min_max": ("x > y ? x : y", "<"),
}

#: Compiled dtypes: NumPy dtype -> (file-name suffix, C type).
_DTYPES = {
    np.dtype(np.float64): ("f64", "double"),
    np.dtype(np.float32): ("f32", "float"),
}

#: ``MR x NR`` micro-tile per vector target (first defined macro wins;
#: None = neither), with the vector width in bits it is sized for, by
#: dtype suffix.  In every entry the ``MR * NR`` accumulators take
#: exactly half the target's vector registers at that width (16 of 32
#: zmm, 8 of 16 ymm / xmm), leaving room for the ``B`` segment, the
#: broadcast and the candidate, and every shape gives full micro-tiles
#: at the tile widths the benchmark runs (16, 32, 128).  Chosen by
#: measurement (docs/KERNELS.md §2) and guarded by
#: ``benchmarks/bench_ablation_kernel_backends.py``.
_MICRO_TILES = (
    ("__AVX512F__", "avx512f", 512, {"f64": (8, 16), "f32": (16, 16)}),
    ("__AVX2__", "avx2", 256, {"f64": (4, 8), "f32": (4, 16)}),
    (None, "generic", 128, {"f64": (4, 4), "f32": (4, 8)}),
)

#: Preferred-width flag of the tuned rung: without it gcc emits the
#: AVX-512 row at 256 bits, twice the registers its micro-tile fits.
_WIDTH_FLAG = "-mprefer-vector-width=512"

#: The compiler flag ladder, tuned first; each rung is tried once, in
#: order, until one compiles.  A compiler that refuses the width flag
#: (gcc off x86) drops it; one that refuses tuning gets the portable rung.
_RUNGS = (
    ("-march=native", _WIDTH_FLAG, "-fopenmp-simd"),
    ("-march=native", "-fopenmp-simd"),
    (),
)

#: Flags of the target probe: the ones every tuned rung has (the width
#: preference defines no macro), so the probe names the ISA of whichever
#: tuned rung compiles, and a compiler that refuses them can only build
#: the portable rung.
_PROBE_FLAGS = _RUNGS[1]

_C_BODY = r"""
/* The vector target the micro-tile ladder resolved to, and the flags
   (the rung of the flag ladder) the unit was compiled with. */
const char *srgemm_target(void) { return SRGEMM_TARGET; }
const char *srgemm_rung(void) { return SRGEMM_RUNG; }

#define SELECT(cand, cur) (((cand) BETTER (cur)) ? (cand) : (cur))

/* Remainder loop: c[i0:i1, j0:j1] over full k, accumulator in memory. */
static void srgemm_edge(T *restrict c, const T *restrict a, const T *restrict b,
                        long i0, long i1, long j0, long j1, long n, long k) {
    for (long i = i0; i < i1; i++) {
        T *restrict crow = c + i * n;
        const T *restrict arow = a + i * k;
        for (long t = 0; t < k; t++) {
            T x = arow[t];
            const T *restrict brow = b + t * n;
            for (long j = j0; j < j1; j++) {
                T y = brow[j];
                T cand = (CAND);
                crow[j] = SELECT(cand, crow[j]);
            }
        }
    }
}

/* One MR x NR micro-tile: accumulators are locals for the whole t loop
   (compile-time MR, NR: they stay in registers), B's row segment is
   loaded once per t for all MR rows, C is loaded and stored once. */
static inline void srgemm_micro(T *restrict c, const T *restrict a,
                                const T *restrict b, long n, long k) {
    T acc[MR][NR];
    for (int r = 0; r < MR; r++) {
        #pragma omp simd
        for (int q = 0; q < NR; q++) acc[r][q] = c[r * n + q];
    }
    for (long t = 0; t < k; t++) {
        const T *restrict brow = b + t * n;
        for (int r = 0; r < MR; r++) {
            T x = a[r * k + t];
            #pragma omp simd
            for (int q = 0; q < NR; q++) {
                T y = brow[q];
                T cand = (CAND);
                /* unconditional select vectorizes to vmin/vmax; a
                   guarded store would branch */
                acc[r][q] = SELECT(cand, acc[r][q]);
            }
        }
    }
    for (int r = 0; r < MR; r++) {
        #pragma omp simd
        for (int q = 0; q < NR; q++) c[r * n + q] = acc[r][q];
    }
}

/* c (m x n) (+)= a (m x k) (x) b (k x n), all C-contiguous. */
void srgemm_tile(void *restrict cv, const void *restrict av,
                 const void *restrict bv, long m, long n, long k) {
    T *restrict c = cv;
    const T *restrict a = av;
    const T *restrict b = bv;
    long mm = m - m % MR, nn = n - n % NR;
    for (long j = 0; j < nn; j += NR)
        for (long i = 0; i < mm; i += MR)
            srgemm_micro(c + i * n + j, a + i * k, b + j, n, k);
    if (nn < n) srgemm_edge(c, a, b, 0, mm, nn, n, n, k);
    if (mm < m) srgemm_edge(c, a, b, mm, m, 0, n, n, k);
}

/* c[i*nc + j] (+)= a[i] (x) b[j] over uniform (m, n, k) tiles. */
void srgemm_grid(void *const *c, const void *const *a, const void *const *b,
                 long nr, long nc, long m, long n, long k) {
    for (long i = 0; i < nr; i++)
        for (long j = 0; j < nc; j++)
            srgemm_tile(c[i * nc + j], a[i], b[j], m, n, k);
}

/* Floyd-Warshall k-loop on one C-contiguous n x n block.  Column k and
   row k are snapshotted (into the 2n-element scratch) before each
   sweep, so every sweep reads the pre-sweep pivots - element for
   element the rank-1 formulation d (+)= d[:, k] (x) d[k, :], also when
   d[k, k] would improve its own row and column (a negative diagonal). */
void srgemm_closure(void *restrict dv, void *restrict scratch, long n) {
    T *restrict d = dv;
    T *restrict colk = scratch;
    T *restrict rowk = colk + n;
    for (long k = 0; k < n; k++) {
        for (long i = 0; i < n; i++) colk[i] = d[i * n + k];
        for (long j = 0; j < n; j++) rowk[j] = d[k * n + j];
        for (long i = 0; i < n; i++) {
            T x = colk[i];
            T *restrict drow = d + i * n;
            for (long j = 0; j < n; j++) {
                T y = rowk[j];
                T cand = (CAND);
                drow[j] = SELECT(cand, drow[j]);
            }
        }
    }
}
"""


_GUARD_BODY = r"""
#include <string.h>

#define SELECT(cand, cur) (((cand) BETTER (cur)) ? (cand) : (cur))

/* rows[t*m + i] = (+)_j tile_t[i, j] and cols[t*n + j] = (+)_i tile_t[i, j]
   for count C-contiguous m x n tiles, read in place; with snap not NULL
   each tile is also copied to snap + t*m*n in the same pass. */
void guard_sums(const void *const *tiles, long count, long m, long n,
                void *snapv, void *rowsv, void *colsv) {
    T *snap = snapv, *rows = rowsv, *cols = colsv;
    for (long t = 0; t < count; t++) {
        const T *restrict tile = tiles[t];
        T *restrict row = rows + t * m;
        T *restrict col = cols + t * n;
        if (snap) memcpy(snap + t * m * n, tile, (size_t)(m * n) * sizeof(T));
        for (long j = 0; j < n; j++) col[j] = tile[j];
        for (long i = 0; i < m; i++) {
            const T *restrict src = tile + i * n;
            #pragma omp simd
            for (long j = 0; j < n; j++) col[j] = SELECT(src[j], col[j]);
            T acc = src[0];
            for (long j = 1; j < n; j++) acc = SELECT(src[j], acc);
            row[i] = acc;
        }
    }
}

/* out[q] = out[q] (+) x (x) v[q] for q < len: one step of a prediction
   (both use it: (x) commutes in every compiled semiring).  Out of line,
   so the unit has one vectorized loop body to compile, not two. */
static __attribute__((noinline)) void fold(T *restrict out, const T *restrict v, T x, long len) {
    #pragma omp simd
    for (long q = 0; q < len; q++) {
        T y = v[q];
        T cand = (CAND);
        out[q] = SELECT(cand, out[q]);
    }
}

/* Predicted sums of c[i][j] (+)= a[i] (x) b[j] over an nr x nc grid of
   (m, n, k) tiles, tile t = i*nc + j, from their pre-op sums:
     rows[t*m + r] = pre_rows[t*m + r] (+) (+)_s a[i][r, s] (x) rowsum(b[j])[s]
     cols[t*n + q] = pre_cols[t*n + q] (+) (+)_s colsum(a[i])[s] (x) b[j][s, q]
   scratch holds nr*k*(m + 1) + nc*k elements: each a[i] transposed (the
   row prediction then runs along contiguous memory), the colsums of the
   a[i] and the rowsums of the b[j]. */
void guard_predict(const void *const *av, const void *const *bv, long nr, long nc,
                   long m, long n, long k, const void *pre_rowsv, const void *pre_colsv,
                   void *rowsv, void *colsv, void *scratch) {
    const T *pre_rows = pre_rowsv, *pre_cols = pre_colsv;
    T *rows = rowsv, *cols = colsv;
    T *at = scratch;            /* nr x (k x m) */
    T *ca = at + nr * k * m;    /* nr x k */
    T *rb = ca + nr * k;        /* nc x k */
    for (long i = 0; i < nr; i++) {
        const T *a = av[i];
        for (long s = 0; s < k; s++) {
            T acc = a[s];
            for (long r = 0; r < m; r++) {
                acc = SELECT(a[r * k + s], acc);
                at[(i * k + s) * m + r] = a[r * k + s];
            }
            ca[i * k + s] = acc;
        }
    }
    for (long j = 0; j < nc; j++) {
        const T *b = bv[j];
        for (long s = 0; s < k; s++) {
            T acc = b[s * n];
            for (long q = 1; q < n; q++) acc = SELECT(b[s * n + q], acc);
            rb[j * k + s] = acc;
        }
    }
    for (long i = 0; i < nr; i++) {
        for (long j = 0; j < nc; j++) {
            long t = i * nc + j;
            T *row = rows + t * m, *col = cols + t * n;
            for (long r = 0; r < m; r++) row[r] = pre_rows[t * m + r];
            for (long q = 0; q < n; q++) col[q] = pre_cols[t * n + q];
            for (long s = 0; s < k; s++) {
                fold(row, at + (i * k + s) * m, rb[j * k + s], m);
                fold(col, (const T *)bv[j] + s * n, ca[i * k + s], n);
            }
        }
    }
}
"""


def find_c_compiler() -> Optional[str]:
    """First usable C compiler on PATH, or None."""
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _defines(semiring_name: str, dtype: np.dtype) -> list:
    """The ``#define`` lines every unit of a pair opens with: element
    type, ``⊗`` and ``⊕``'s comparison."""
    times, better = _SEMIRING_OPS[semiring_name]
    return [f"#define T {_DTYPES[dtype][1]}", f"#define CAND {times}", f"#define BETTER {better}"]


def _unit_source(semiring_name: str, dtype: np.dtype) -> str:
    """The translation unit of one (semiring, dtype) pair."""
    suffix = _DTYPES[dtype][0]
    lines = _defines(semiring_name, dtype)
    for i, (macro, target, _, shapes) in enumerate(_MICRO_TILES):
        mr, nr = shapes[suffix]
        guard = "#else" if macro is None else f"#{'elif' if i else 'if'} defined({macro})"
        lines += [guard, f'#define SRGEMM_TARGET "{target}"', f"#define MR {mr}", f"#define NR {nr}"]
    lines.append("#endif")
    return "\n".join(lines) + "\n" + _C_BODY


def _guard_source(semiring_name: str, dtype: np.dtype) -> str:
    """The guard unit of one (semiring, dtype) pair."""
    return "\n".join(_defines(semiring_name, dtype)) + "\n" + _GUARD_BODY


#: Unit kinds: file-name prefix -> (the text of a pair's unit, its
#: optimization level).  The guard's loops are plain ``omp simd`` loops,
#: as fast at ``-O1`` as at ``-O3``, where the unit compiles in 60 % of
#: the time - a cost the first armed solve pays.
_KINDS = {"srgemm": (_unit_source, "-O3"), "guard": (_guard_source, "-O1")}


def _cache_dir() -> str:
    override = os.environ.get(ENV_CNATIVE_CACHE)
    if override:
        return override
    return os.path.join(tempfile.gettempdir(), f"repro-cnative-{os.getuid()}")


def _target_probe(cc: str) -> str:
    """What ``cc`` makes of the tuned flags: the predefined macros of an
    empty unit (``cc -dM -E``: ``__VERSION__``, every ISA macro, the
    resolved ``-march`` such as ``__sapphirerapids__``), or its complaint
    if it refuses them.  About 9 ms; part of every object's name."""
    proc = subprocess.run(
        [cc, *_PROBE_FLAGS, "-dM", "-E", "-x", "c", "-"],
        input="", capture_output=True, text=True,
    )
    return f"{proc.returncode}\n{proc.stdout}{proc.stderr}"


def _unit_name(
    semiring_name: str, dtype: np.dtype, source: str, probe: str, kind: str = "srgemm"
) -> str:
    """File name of a pair's shared object, hashed from everything the
    object is a function of: the unit's text, the flag ladder that builds
    it and the compiler's target probe.  The cache may outlive a kernel
    text or a compiler, and hosts may share it (an NFS home, a CI cache):
    an object built any other way is not this kernel."""
    key = "\0".join((source, repr(_RUNGS), probe))
    tag = hashlib.sha256(key.encode()).hexdigest()[:12]
    return f"{kind}-{semiring_name}-{_DTYPES[dtype][0]}-{tag}.so"


def _compile_unit(
    cc: str, probe: str, semiring_name: str, dtype: np.dtype, kind: str = "srgemm"
) -> ctypes.CDLL:
    """Compile (or reuse) one pair's shared object of ``kind`` and load it."""
    unit_source, opt = _KINDS[kind]
    source = unit_source(semiring_name, dtype)
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    lib_path = os.path.join(cache, _unit_name(semiring_name, dtype, source, probe, kind))
    if not os.path.exists(lib_path):
        # Concurrent cold starts share the directory: build under a name
        # no other process has, publish atomically, load only lib_path.
        fd, tmp_path = tempfile.mkstemp(dir=cache, suffix=".tmp")
        os.close(fd)
        try:
            base = [opt, "-shared", "-fPIC", "-x", "c", "-o", tmp_path, "-"]
            for flags in _RUNGS:
                rung = f'-DSRGEMM_RUNG="{" ".join(flags)}"'  # what srgemm_rung() reports
                proc = subprocess.run(
                    [cc, *flags, rung, *base], input=source, capture_output=True, text=True
                )
                if proc.returncode == 0:
                    break
            else:
                raise RuntimeError(f"cnative {kind} unit compile failed:\n{proc.stderr}")
            os.replace(tmp_path, lib_path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
    return ctypes.CDLL(lib_path)


class _Unit(NamedTuple):
    """One pair's bound C entries.  Pointers travel as plain addresses
    (``c_void_p``); the callers validate dtype and layout before taking
    them."""

    tile: object  # (c, a, b, m, n, k)
    grid: object  # (c[], a[], b[], nr, nc, m, n, k)
    closure: object  # (d, scratch[2n], n)
    target: str  # vector target the unit was compiled for
    rung: str  # the flags it was compiled with
    micro_tile: tuple  # its (MR, NR)


def _target_row(target: str) -> tuple:
    """``_MICRO_TILES``' (vector bits, shapes by dtype suffix) for a
    target name."""
    return next((bits, shapes) for _, name, bits, shapes in _MICRO_TILES if name == target)


def _emitted_width(target: str, rung: str) -> str:
    """The vector width a unit built for ``target`` by ``rung`` emits.
    The width flag lifts the compiler's preference to 512 bits, capped
    by the ISA, so with it the target row's own width is what is
    emitted; without it, the width is the compiler's choice."""
    if _WIDTH_FLAG in rung.split():
        return f"{_target_row(target)[0]}-bit"
    return "the compiler's preferred width"


def _bind(lib: ctypes.CDLL, dtype: np.dtype) -> _Unit:
    try:
        tile, grid, closure = lib.srgemm_tile, lib.srgemm_grid, lib.srgemm_closure
        target, rung = lib.srgemm_target, lib.srgemm_rung
    except AttributeError as exc:
        raise RuntimeError(f"cnative kernel library lacks a symbol: {exc}") from None
    tile.restype = grid.restype = closure.restype = None
    tile.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 3
    grid.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 5
    closure.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_long]
    for text in (target, rung):
        text.restype, text.argtypes = ctypes.c_char_p, []
    name = target().decode()
    shape = _target_row(name)[1][_DTYPES[dtype][0]]
    return _Unit(tile, grid, closure, name, rung().decode(), shape)


class _GuardUnit(NamedTuple):
    """One pair's bound guard entries (addresses, as in :class:`_Unit`)."""

    sums: object  # (tiles[], count, m, n, snap | NULL, rows, cols)
    predict: object  # (a[], b[], nr, nc, m, n, k, pre_rows, pre_cols, rows, cols, scratch)


def _bind_guard(lib: ctypes.CDLL, dtype: np.dtype) -> _GuardUnit:
    try:
        sums, predict = lib.guard_sums, lib.guard_predict
    except AttributeError as exc:
        raise RuntimeError(f"cnative guard library lacks a symbol: {exc}") from None
    sums.restype = predict.restype = None
    sums.argtypes = [ctypes.c_void_p] + [ctypes.c_long] * 3 + [ctypes.c_void_p] * 3
    predict.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_long] * 5 + [ctypes.c_void_p] * 5
    return _GuardUnit(sums, predict)


def _pointers(arrays, shape: tuple, dtype: np.dtype) -> Optional[np.ndarray]:
    """The arrays' base addresses as the ``void *[]`` a unit takes (a
    ``uintp`` array; pass its ``ctypes.data``), or None unless every
    array is a ``carray`` (C-contiguous, aligned, writeable - what the
    writable buffer export below needs) of ``shape`` and ``dtype``.  An
    :class:`~.base.OperandList` keeps the result, and the next entry it
    is handed to reuses it instead of checking and taking addresses
    again.  ``arr.ctypes.data`` would do but builds a helper object per
    array: 1.0 us against 0.27 us here, which is most of what a grid
    call spends per tile."""
    key = (shape, dtype)
    bound = getattr(arrays, "bound", None)
    if bound is not None and bound[0] == key:
        return bound[1]
    addressof, from_buffer = ctypes.addressof, ctypes.c_char.from_buffer
    addrs = [
        addressof(from_buffer(arr))
        for arr in arrays
        if arr.shape == shape and arr.dtype == dtype and arr.flags.carray
    ]
    if len(addrs) != len(arrays):
        return None
    ptrs = np.array(addrs, dtype=np.uintp)
    if isinstance(arrays, OperandList):
        arrays.bound = (key, ptrs)
    return ptrs


class CNativeBackend(TiledBackend):
    """System-cc compiled register-blocked kernel; tiled NumPy fallback
    for semirings/dtypes no translation unit covers."""

    def __init__(self, byte_budget: Optional[int] = None):
        super().__init__(byte_budget=byte_budget, name="cnative")
        self._cc = find_c_compiler()
        self.available = self._cc is not None
        self.unavailable_reason = (
            None if self.available else "no C compiler (cc/gcc/clang) on PATH"
        )
        #: (semiring name, dtype) -> its bound unit, compiled on first use.
        self._units: dict[tuple, _Unit] = {}
        #: (semiring name, dtype) -> its bound guard unit, compiled when a
        #: checksummed run first asks for the pair's guard entries.
        self._guards: dict[tuple, _GuardUnit] = {}
        #: ``_target_probe`` of ``cc``, run with the first unit asked for.
        self._probe: Optional[str] = None
        #: Set by the first failed compile or bind, of either kind: every
        #: pair then takes the NumPy paths, and ``cc`` is not spawned again.
        self._degraded = False

    # -- lazy compile --------------------------------------------------------
    def _unit_for(self, semiring: Semiring, dtype: np.dtype) -> Optional[_Unit]:
        """The C kernel entries of a pair; None means "not covered"."""
        return self._load(self._units, "srgemm", _bind, semiring, dtype)

    def _guard_for(self, semiring: Semiring, dtype: np.dtype) -> Optional[_GuardUnit]:
        """The C guard entries of a pair; None means "not covered"."""
        return self._load(self._guards, "guard", _bind_guard, semiring, dtype)

    def _load(self, units: dict, kind: str, bind, semiring: Semiring, dtype: np.dtype):
        unit = units.get((semiring.name, dtype))
        if unit is not None:
            return unit
        if (
            self._degraded
            or not self.available
            or semiring.name not in _SEMIRING_OPS
            or dtype not in _DTYPES
        ):
            return None
        try:
            if self._probe is None:
                self._probe = _target_probe(self._cc)
            unit = bind(_compile_unit(self._cc, self._probe, semiring.name, dtype, kind), dtype)
        except (OSError, RuntimeError) as exc:
            fallback = "the tiled NumPy path" if kind == "srgemm" else "the NumPy guard entries"
            warnings.warn(
                f"cnative {kind} unit compilation failed ({exc}); falling back to {fallback}",
                RuntimeWarning,
                stacklevel=4,
            )
            self._degraded = True
            return None
        units[semiring.name, dtype] = unit
        return unit

    # -- dispatch ------------------------------------------------------------
    def _native_accumulate(
        self, c: np.ndarray, a: np.ndarray, b: np.ndarray, semiring: Semiring
    ) -> bool:
        """Run the C tile kernel; False means "not covered, use fallback"."""
        dtype = c.dtype
        if a.dtype != dtype or b.dtype != dtype:
            return False
        unit = self._unit_for(semiring, dtype)
        if unit is None:
            return False
        validate_accumulate(c, a, b)
        m, k = a.shape
        n = b.shape[1]
        if m == 0 or n == 0 or k == 0:
            return True
        a_c = np.ascontiguousarray(a)
        b_c = np.ascontiguousarray(b)
        # Column panels are column-slice views; the C kernel needs a
        # contiguous accumulator, so stage through a copy and write back.
        c_c = c if c.flags.c_contiguous else np.ascontiguousarray(c)
        # Addresses are taken per call, never cached: checkpoint restore
        # replaces block arrays, and a stale address is a silent wrong
        # answer.  a_c / b_c / c_c stay referenced until the call returns.
        unit.tile(c_c.ctypes.data, a_c.ctypes.data, b_c.ctypes.data, m, n, k)
        if c_c is not c:
            np.copyto(c, c_c)
        return True

    def _native_grid(self, c_tiles, a_rows, b_cols, semiring: Semiring) -> bool:
        """Run the whole grid in one C call; False means "not covered,
        use the per-tile loop" (which also owns raising on a tile whose
        shape does not match its operands).  Nothing is written before
        every tile has been checked."""
        if len(a_rows) == 0 or len(b_cols) == 0:
            return False
        a0, b0 = a_rows[0], b_cols[0]
        dtype = a0.dtype
        if a0.ndim != 2 or b0.ndim != 2:
            return False
        (m, k), n = a0.shape, b0.shape[1]
        if m == 0 or n == 0 or k == 0:
            return False
        flat_tiles = getattr(c_tiles, "flat", None)
        if flat_tiles is None:
            flat_tiles = [c for c_row in c_tiles for c in c_row]
        pointers = [
            _pointers(a_rows, (m, k), dtype),
            _pointers(b_cols, (k, n), dtype),
            _pointers(flat_tiles, (m, n), dtype),
        ]
        if any(ptrs is None for ptrs in pointers):
            return False
        unit = self._unit_for(semiring, dtype)
        if unit is None:
            return False
        a_ptrs, b_ptrs, c_ptrs = (ptrs.ctypes.data for ptrs in pointers)
        unit.grid(c_ptrs, a_ptrs, b_ptrs, len(a_rows), len(b_cols), m, n, k)
        return True

    def srgemm_accumulate(
        self,
        c: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        k_chunk: Optional[int] = None,
    ) -> np.ndarray:
        if self._native_accumulate(c, a, b, semiring):
            return c
        return super().srgemm_accumulate(c, a, b, semiring=semiring, k_chunk=k_chunk)

    def srgemm_grid(
        self,
        c_tiles: Sequence[Sequence[np.ndarray]],
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
        phase: str = "outer",
        hops=None,
    ) -> Sequence[Sequence[np.ndarray]]:
        validate_grid(c_tiles, a_rows, b_cols, phase)
        # There is no native hop kernel: a grid with next hops takes the default.
        if hops is None:
            # One tile: the tile entry marshals less than the pointer-array
            # call (which loops the same srgemm_tile, so the bits agree).
            if len(a_rows) == 1 and len(b_cols) == 1:
                self.srgemm_accumulate(c_tiles[0][0], a_rows[0], b_cols[0], semiring=semiring)
                return c_tiles
            if self._native_grid(c_tiles, a_rows, b_cols, semiring):
                return c_tiles
        return super().srgemm_grid(
            c_tiles, a_rows, b_cols, semiring=semiring, phase=phase, hops=hops
        )

    # -- guard entries -------------------------------------------------------
    def tile_sums(
        self,
        tiles: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
        snapshot: bool = False,
    ):
        first = tiles[0]
        dtype = first.dtype
        covered = first.ndim == 2 and first.size > 0
        ptrs = _pointers(tiles, first.shape, dtype) if covered else None
        unit = self._guard_for(semiring, dtype) if ptrs is not None else None
        if unit is None:
            return super().tile_sums(tiles, semiring=semiring, snapshot=snapshot)
        count, (m, n) = len(tiles), first.shape
        snap = np.empty((count, m, n), dtype) if snapshot else None
        rows, cols = np.empty((count, m), dtype), np.empty((count, n), dtype)
        unit.sums(
            ptrs.ctypes.data, count, m, n,
            None if snap is None else snap.ctypes.data, rows.ctypes.data, cols.ctypes.data,
        )
        return snap, (rows, cols)

    def predict_sums(
        self,
        pre,
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        semiring: Semiring = MIN_PLUS,
    ):
        a0, b0 = a_rows[0], b_cols[0]
        dtype, nr, nc = a0.dtype, len(a_rows), len(b_cols)
        unit = None
        if a0.ndim == 2 and b0.ndim == 2 and a0.size > 0 and b0.size > 0:
            (m, k), n = a0.shape, b0.shape[1]
            a_ptrs = _pointers(a_rows, (m, k), dtype)
            b_ptrs = _pointers(b_cols, (k, n), dtype)
            pre_ok = all(
                sums.shape == (nr * nc, width) and sums.dtype == dtype and sums.flags.carray
                for sums, width in zip(pre, (m, n))
            )
            if a_ptrs is not None and b_ptrs is not None and pre_ok:
                unit = self._guard_for(semiring, dtype)
        if unit is None:
            return super().predict_sums(pre, a_rows, b_cols, semiring=semiring)
        rows, cols = np.empty((nr * nc, m), dtype), np.empty((nr * nc, n), dtype)
        scratch = np.empty(nr * k * (m + 1) + nc * k, dtype)
        unit.predict(
            a_ptrs.ctypes.data, b_ptrs.ctypes.data, nr, nc, m, n, k,
            pre[0].ctypes.data, pre[1].ctypes.data,
            rows.ctypes.data, cols.ctypes.data, scratch.ctypes.data,
        )
        return rows, cols

    def fw_closure(self, blk: np.ndarray, semiring: Semiring = MIN_PLUS, hops=None) -> np.ndarray:
        n = blk.shape[0]
        covered = blk.ndim == 2 and blk.shape[1] == n and n > 0 and blk.flags.writeable
        unit = self._unit_for(semiring, blk.dtype) if covered and hops is None else None
        if unit is None:
            return super().fw_closure(blk, semiring=semiring, hops=hops)
        # A block of a larger matrix is a strided view: stage it like a
        # non-contiguous accumulator.
        d = blk if blk.flags.c_contiguous else np.ascontiguousarray(blk)
        scratch = np.empty(2 * n, dtype=blk.dtype)
        unit.closure(d.ctypes.data, scratch.ctypes.data, n)
        if d is not blk:
            np.copyto(blk, d)
        return blk

    def describe(self) -> str:
        cc = os.path.basename(self._cc) if self._cc else "none"
        # Target and rung are the compiler's choice, so they are read back
        # from the default pair's unit (compiled here if nothing has yet).
        unit = self._unit_for(MIN_PLUS, np.dtype(np.float64))
        if unit is None:
            tiles = "micro-tile: none compiled"
        else:
            shapes = " ".join(
                f"{suffix}={mr}x{nr}" for suffix, (mr, nr) in _target_row(unit.target)[1].items()
            )
            tiles = (
                f"micro-tile: {shapes} for {unit.target} at {_emitted_width(unit.target, unit.rung)} "
                f"(rung: {unit.rung or 'portable, no tuning flags'})"
            )
        return (
            f"system-cc compiled register-blocked C kernel (cc: {cc}, {tiles}); "
            f"{super().describe()}"
        )
