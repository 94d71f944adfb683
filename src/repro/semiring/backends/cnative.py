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

The ABFT guard's entries (``guard_band`` and ``tile_sums`` on the
waist) come from a second unit per pair, ``guard-<semiring>-<f64|f32>-
<hash>.so`` (``guard_band``, ``guard_sums``): the same ``#define``
lines in front of its own body, built by the same machinery at ``-O1``
and only when a checksummed run first asks for it, so the kernel units'
text - and every unarmed compile - is what it was without it.  A clean
guarded band is one call: it reads tiles in place through a pointer
array, writes the repair snapshot in the pass that takes the pre-op
sums, and runs the prediction's two small products and the grid
product through the kernel unit's ``srgemm_tile``, passed by address.

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
  ``tiled`` backend's bits under any blocking.
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
from .base import (
    GuardBand,
    OperandList,
    SlabTiles,
    StoredSums,
    validate_accumulate,
    validate_grid,
)
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
#include <stddef.h>

#define SELECT(cand, cur) (((cand) BETTER (cur)) ? (cand) : (cur))

/* The kernel unit's srgemm_tile, c (m x n) (+)= a (m x k) (x) b (k x n),
   reached by address: this unit is compiled apart from it. */
typedef void (*tile_fn)(void *, const void *, const void *, long, long, long);

/* The row reduction's clause.  GCC starts each lane of a min/max clause
   at the infinity of its side (infinities are honoured: no fast-math).
   Other compilers may start it at the largest finite value, which would
   win over a row of infinities; they take a user reduction whose every
   lane starts from the original value instead ((+) is idempotent, so it
   needs no identity element; GCC runs it at 2/3 the speed). */
#if defined(__GNUC__) && !defined(__clang__)
#define ROW_REDUCTION reduction(RED : acc)
#else
#pragma omp declare reduction(sel : T : omp_out = SELECT(omp_in, omp_out)) \
    initializer(omp_priv = omp_orig)
#define ROW_REDUCTION reduction(sel : acc)
#endif

/* row[i] = (+)_j x[i, j] and col[j] = (+)_i x[i, j] over a C-contiguous
   m x n array, in one pass.  Each row's reduction is a vector loop whose
   lanes are independent chains (one serial chain per row was
   latency-bound); j starts at 0, so a row of whole vectors has no
   scalar tail. */
static void sums_of(const T *restrict x, long m, long n, T *restrict row, T *restrict col) {
    memcpy(col, x, (size_t)n * sizeof(T));
    for (long i = 0; i < m; i++) {
        const T *restrict src = x + i * n;
        T acc = src[0];
        #pragma omp simd ROW_REDUCTION
        for (long j = 0; j < n; j++) {
            col[j] = SELECT(src[j], col[j]);
            acc = SELECT(src[j], acc);
        }
        row[i] = acc;
    }
}

/* rows[t*m + i] = (+)_j tile_t[i, j] and cols[t*n + j] = (+)_i tile_t[i, j]
   for count C-contiguous m x n tiles, read in place; with snap not NULL
   each tile is also copied to snap + t*m*n in the same pass. */
void guard_sums(const void *const *tiles, long count, long m, long n,
                void *snapv, void *rowsv, void *colsv) {
    T *snap = snapv, *rows = rowsv, *cols = colsv;
    for (long t = 0; t < count; t++) {
        const T *tile = tiles[t];
        if (snap) memcpy(snap + t * m * n, tile, (size_t)(m * n) * sizeof(T));
        sums_of(tile, m, n, rows + t * m, cols + t * n);
    }
}

/* Predicted sums of c[i][j] (+)= a[i] (x) b[j] over an nr x nc grid of
   (m, n, k) tiles, tile t = i*nc + j, from their pre-op sums, the a[i]
   stacked in as (nr x m x k) and the b[j] in bs (nc x k x n):
     rows[t*m + r] = pre_rows[t*m + r] (+) (+)_s a[i][r, s] (x) rowsum(b[j])[s]
     cols[t*n + q] = pre_cols[t*n + q] (+) (+)_s colsum(a[i])[s] (x) b[j][s, q]
   run as two small products through tile ((x) commutes in every compiled
   semiring): grid row i's row sums, an nc x m block, are
   rowsums(b) (nc x k) (x) a[i]^T (k x m), and all column sums, an
   nr x (nc*n) block, are colsums(a) (nr x k) (x) [b[0] .. b[nc-1]]
   (k x nc*n).  scratch holds nr*k*(m + 1) + nc*k*(n + 1) + m + n
   elements. */
static void predict(tile_fn tile, const T *as, const T *bs, long nr, long nc,
                    long m, long n, long k,
                    const T *pre_rows, const T *pre_cols, T *rows, T *cols, T *scratch) {
    T *at = scratch;            /* nr x (k x m): a[i] transposed */
    T *ca = at + nr * k * m;    /* nr x k: colsums of a[i] */
    T *rb = ca + nr * k;        /* nc x k: rowsums of b[j] */
    T *bw = rb + nc * k;        /* k x (nc*n): the b[j] side by side */
    T *unused = bw + k * nc * n;  /* the other sums of a[i] / b[j] */
    for (long i = 0; i < nr; i++) {
        const T *a = as + i * m * k;
        sums_of(a, m, k, unused, ca + i * k);
        for (long r = 0; r < m; r++)
            for (long s = 0; s < k; s++) at[(i * k + s) * m + r] = a[r * k + s];
    }
    for (long j = 0; j < nc; j++) {
        const T *b = bs + j * k * n;
        sums_of(b, k, n, rb + j * k, unused);
        for (long s = 0; s < k; s++)
            memcpy(bw + (s * nc + j) * n, b + s * n, (size_t)n * sizeof(T));
    }
    memcpy(rows, pre_rows, (size_t)(nr * nc * m) * sizeof(T));
    memcpy(cols, pre_cols, (size_t)(nr * nc * n) * sizeof(T));
    for (long i = 0; i < nr; i++) tile(rows + i * nc * m, rb, at + i * k * m, nc, m, k);
    tile(cols, ca, bw, nr, nc * n, k);
}

/* Per-tile verdicts: flags[t] |= bit where the m row sums or n column
   sums of tile t differ (==: a selective (+) never rounds).  Returns the
   number of tiles that differ. */
static long compare(const T *want_rows, const T *want_cols, const size_t *index,
                    const unsigned char *tracked, const T *rows, const T *cols,
                    long count, long m, long n, unsigned char bit, unsigned char *flags) {
    long differ = 0;
    for (long t = 0; t < count; t++) {
        if (tracked && !tracked[t]) continue;
        size_t w = index ? index[t] : (size_t)t;
        const T *wr = want_rows + w * m, *wc = want_cols + w * n;
        const T *r = rows + t * m, *c = cols + t * n;
        int bad = 0;
        for (long i = 0; i < m; i++) bad |= wr[i] != r[i];
        for (long j = 0; j < n; j++) bad |= wc[j] != c[j];
        if (bad) {
            flags[t] |= bit;
            differ++;
        }
    }
    return differ;
}

/* One guarded band: c[i*nc + j] (+)= a[i] (x) b[j] over an nr x nc grid
   of (m, n, k) tiles, checked by (+)-sums; the a[i] are stacked in as
   (nr x m x k), the b[j] in bs (nc x k x n).  work holds, in order, the
   snapshot (T*m*n), the pre-op row and column sums (T*m, T*n), the
   predicted ones, the post-op ones and predict's scratch.  Tile t's
   stored sums are rows index[t] of stored_rows / stored_cols (index
   NULL: row t); tracked (NULL: every tile) says which tiles have any -
   an untracked tile stands in for itself.

   Each tile's snapshot and pre-op sums are taken, its product run
   through tile and its post-op sums taken; the pre-op sums are compared
   with the stored sums (flags bit 0), the post-op sums predicted from
   the pre-op sums and the operands (neither of which the products
   touch) and compared with the taken ones (bit 1).  A band with no flag
   writes its post-op sums to the stored rows.  With product 0 the entry
   returns after the prediction: the caller runs the product and the
   post-op half.
   Returns the number of failed compares: 0 is a clean band. */
long guard_band(tile_fn tile, long product, void *const *c, const void *asv,
                const void *bsv, long nr, long nc, long m, long n, long k,
                void *stored_rowsv, void *stored_colsv, const size_t *index,
                const unsigned char *tracked, void *workv, unsigned char *flags) {
    long count = nr * nc;
    const T *as = asv, *bs = bsv;
    T *stored_rows = stored_rowsv, *stored_cols = stored_colsv;
    T *snap = workv;
    T *pre_rows = snap + count * m * n, *pre_cols = pre_rows + count * m;
    T *pred_rows = pre_cols + count * n, *pred_cols = pred_rows + count * m;
    T *act_rows = pred_cols + count * n, *act_cols = act_rows + count * m;
    T *scratch = act_cols + count * n;
    memset(flags, 0, (size_t)count);
    /* Tile by tile, so each tile is read from memory once: snapshot and
       pre-op sums, product, post-op sums. */
    for (long i = 0; i < nr; i++) {
        for (long j = 0; j < nc; j++) {
            long t = i * nc + j;
            T *ct = c[t];
            memcpy(snap + t * m * n, ct, (size_t)(m * n) * sizeof(T));
            sums_of(ct, m, n, pre_rows + t * m, pre_cols + t * n);
            if (product) {
                tile(ct, as + i * m * k, bs + j * k * n, m, n, k);
                sums_of(ct, m, n, act_rows + t * m, act_cols + t * n);
            }
        }
    }
    long flagged = compare(stored_rows, stored_cols, index, tracked, pre_rows, pre_cols,
                           count, m, n, 1, flags);
    predict(tile, as, bs, nr, nc, m, n, k, pre_rows, pre_cols, pred_rows, pred_cols, scratch);
    if (!product) return flagged;
    flagged += compare(pred_rows, pred_cols, NULL, NULL, act_rows, act_cols,
                       count, m, n, 2, flags);
    if (flagged) return flagged;
    for (long t = 0; t < count; t++) {
        size_t w = index ? index[t] : (size_t)t;
        memcpy(stored_rows + w * m, act_rows + t * m, (size_t)m * sizeof(T));
        memcpy(stored_cols + w * n, act_cols + t * n, (size_t)n * sizeof(T));
    }
    return 0;
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
    """The guard unit of one (semiring, dtype) pair; ``RED`` names ``⊕``
    as an OpenMP reduction."""
    red = "min" if _SEMIRING_OPS[semiring_name][1] == "<" else "max"
    lines = [*_defines(semiring_name, dtype), f"#define RED {red}"]
    return "\n".join(lines) + "\n" + _GUARD_BODY


#: Unit kinds: file-name prefix -> (the text of a pair's unit, its
#: optimization flags).  The guard's loops are plain ``omp simd`` loops
#: and its products run in the kernel unit, so ``-O1`` serves it, where
#: the unit compiles in about half the time of ``-O3`` - a cost the
#: first armed solve pays.  Without ``-ftree-vectorize`` the row
#: reduction's vector loop keeps a scalar epilogue per row, and a b=16
#: band takes 2.4x as long.
_KINDS = {
    "srgemm": (_unit_source, ("-O3",)),
    "guard": (_guard_source, ("-O1", "-ftree-vectorize")),
}


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
    unit_source, opts = _KINDS[kind]
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
            base = [*opts, "-shared", "-fPIC", "-x", "c", "-o", tmp_path, "-"]
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
    tile_address: int  # srgemm_tile's address, which the guard unit calls
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
    address = ctypes.cast(tile, ctypes.c_void_p).value
    return _Unit(tile, address, grid, closure, name, rung().decode(), shape)


class _GuardUnit(NamedTuple):
    """One pair's bound guard entries (addresses, as in :class:`_Unit`)."""

    sums: object  # (tiles[], count, m, n, snap | NULL, rows, cols)
    # (tile fn, product, c[], a stack, b stack, nr, nc, m, n, k,
    #  stored rows, stored cols, index | NULL, tracked | NULL, work, flags)
    band: object


def _bind_guard(lib: ctypes.CDLL, dtype: np.dtype) -> _GuardUnit:
    try:
        sums, band = lib.guard_sums, lib.guard_band
    except AttributeError as exc:
        raise RuntimeError(f"cnative guard library lacks a symbol: {exc}") from None
    sums.restype = None
    sums.argtypes = [ctypes.c_void_p] + [ctypes.c_long] * 3 + [ctypes.c_void_p] * 3
    band.restype = ctypes.c_long
    band.argtypes = (
        [ctypes.c_void_p, ctypes.c_long] + [ctypes.c_void_p] * 3 + [ctypes.c_long] * 5
        + [ctypes.c_void_p] * 6
    )
    return _GuardUnit(sums, band)


def _address(arr: np.ndarray) -> int:
    """Base address of a writable array, through the buffer export
    (``arr.ctypes.data`` builds a helper object: 2-3x the cost)."""
    return ctypes.addressof(ctypes.c_char.from_buffer(arr))


def _pointers(arrays, shape: tuple, dtype: np.dtype) -> Optional[np.ndarray]:
    """The arrays' base addresses as the ``void *[]`` a unit takes (a
    ``uintp`` array; pass its :func:`_address`), or None unless every
    array is a ``carray`` (C-contiguous, aligned, writeable - what the
    writable buffer export below needs) of ``shape`` and ``dtype``.

    :class:`~.base.SlabTiles` (a positional grid's tiles) take every
    address from the slab's base in one array op.  That is done per
    call and never kept: a checkpoint restore builds a new slab, and a
    stale address is a silent wrong answer.  Any other list costs about
    1 us per array (the checks plus the buffer export; ``arr.ctypes.data``
    would add a helper object each), which is most of what a list grid
    call spends per tile.  An :class:`~.base.OperandList` keeps the
    result, and the next entry it is handed to reuses it instead of
    checking and taking addresses again."""
    if isinstance(arrays, SlabTiles):
        slab = arrays.slab
        if slab.shape[-2:] != shape or slab.dtype != dtype or not slab.flags.carray:
            return None
        return arrays.index * slab.strides[-3] + _address(slab)
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
        # builds a new local matrix, and a stale address is a silent wrong
        # answer.  An operand may be read-only (a served tile), which the
        # buffer export of _address refuses, so these go through
        # ``ctypes.data`` (a helper object per array).  a_c / b_c / c_c
        # stay referenced until the call returns.
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
        a_ptrs, b_ptrs, c_ptrs = (_address(ptrs) for ptrs in pointers)
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
            _address(ptrs), count, m, n,
            None if snap is None else _address(snap), _address(rows), _address(cols),
        )
        return snap, (rows, cols)

    def guard_band(
        self,
        c_tiles,
        a_rows: Sequence[np.ndarray],
        b_cols: Sequence[np.ndarray],
        stored: StoredSums,
        semiring: Semiring = MIN_PLUS,
        phase: str = "outer",
        hops=None,
    ) -> Optional[GuardBand]:
        """The whole band in one call into the guard unit, which runs the
        prediction's two products and the grid product through the kernel
        unit's ``srgemm_tile``.  A backend whose :meth:`srgemm_grid` is
        replaced (a subclass's planted fault, a test's call spy) keeps
        its product: the call stops after the prediction, and the product
        and the post-op half run as in the default.  A grid with next
        hops, or one the units do not cover, takes the default."""
        own_product = self._own_product()
        band = False if hops is not None else self._native_band(
            c_tiles, a_rows, b_cols, stored, semiring, own_product
        )
        if band is False:
            return super().guard_band(c_tiles, a_rows, b_cols, stored, semiring, phase, hops)
        if own_product:
            return band
        return self._close_band(c_tiles, a_rows, b_cols, stored, semiring, phase, None, band)

    def _own_product(self) -> bool:
        """True when :meth:`srgemm_grid` is this class's own."""
        return getattr(self.srgemm_grid, "__func__", None) is CNativeBackend.srgemm_grid

    def _native_band(
        self, c_tiles, a_rows, b_cols, stored: StoredSums, semiring: Semiring, own_product: bool
    ):
        """:meth:`guard_band` through the guard unit (without the product
        and the post-op half unless ``own_product``): a :class:`GuardBand`,
        None for a clean band, or False when the units do not cover the
        band.  Nothing is written before every array has been checked."""
        a0, b0 = a_rows[0], b_cols[0]
        dtype = a0.dtype
        if a0.ndim != 2 or b0.ndim != 2:
            return False
        (m, k), n = a0.shape, b0.shape[1]
        nr, nc = len(a_rows), len(b_cols)
        c_ptrs = _pointers(c_tiles.flat, (m, n), dtype)
        covered = (
            m and n and k and c_ptrs is not None
            and all(a.shape == (m, k) for a in a_rows) and all(b.shape == (k, n) for b in b_cols)
            and all(
                x.ndim == 2 and x.shape[1] == width and x.dtype == dtype and x.flags.carray
                for x, width in ((stored.rows, m), (stored.cols, n))
            )
        )
        if not covered:
            return False
        # The operands are read only: one contiguous copy of each list
        # costs less than checking and taking every array's address.
        a_stack, b_stack = np.concatenate(a_rows), np.concatenate(b_cols)
        if not a_stack.dtype == b_stack.dtype == dtype:
            return False
        unit = self._unit_for(semiring, dtype)
        guard = self._guard_for(semiring, dtype) if unit is not None else None
        if guard is None:
            return False
        count = nr * nc
        # The work buffer's layout is guard_band's: snapshot, pre-op,
        # predicted and post-op sums, then the prediction's scratch.
        sizes = (count * m * n, count * m, count * n, count * m, count * n, count * m, count * n)
        work = np.empty(sum(sizes) + nr * k * (m + 1) + nc * k * (n + 1) + m + n, dtype)
        flags = np.empty(count, np.uint8)
        index, tracked = (
            None if x is None else np.ascontiguousarray(x, x_type)
            for x, x_type in ((stored.index, np.uintp), (stored.tracked, np.bool_))
        )
        failed = guard.band(
            unit.tile_address, own_product, _address(c_ptrs), _address(a_stack),
            _address(b_stack), nr, nc, m, n, k,
            _address(stored.rows), _address(stored.cols),
            None if index is None else _address(index),
            None if tracked is None else _address(tracked),
            _address(work), _address(flags),
        )
        if own_product and not failed:
            return None
        snap, pre_r, pre_c, pred_r, pred_c, act_r, act_c, _ = np.split(work, np.cumsum(sizes))
        return GuardBand(
            snap.reshape(count, m, n),
            (pre_r.reshape(count, m), pre_c.reshape(count, n)),
            (pred_r.reshape(count, m), pred_c.reshape(count, n)),
            (act_r.reshape(count, m), act_c.reshape(count, n)) if own_product else None,
            flags,
        )

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
        unit.closure(_address(d), _address(scratch), n)
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
