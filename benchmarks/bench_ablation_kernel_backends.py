"""Ablation: SrGemm kernel backend micro-benchmark.

Unlike the figure-reproduction sweeps, this one measures *real* kernel
throughput (wall clock, not the simulator): the same fused
``C ← C ⊕ A ⊗ B`` update at the block sizes the paper's Figure 5
sweeps, per registered backend, through the per-tile kernel and through
the kernel waist as a one-tile outer-phase ``srgemm_grid`` (the call an
ooG tile makes).  It documents the backend ladder: the ``reference`` broadcast
kernel materializes an ``(m, k_chunk, n)`` slab and reduces it;
``tiled`` bounds a rank-1 scratch by the byte budget; and ``cnative``
runs a register-blocked micro-kernel compiled by the system C compiler.

One Python call per update is what the table times, so at b = 16 / 32
it reads mostly ctypes marshalling (a 16^3 update is 0.2 us of
arithmetic).  The ``cnative`` micro-kernel is therefore also timed
*kernel-only* - one pre-marshalled grid call over many tiles - at the
tile widths the end-to-end benchmark runs, beside the same unit's
remainder loop alone (tiles one row short of a micro-tile, which the
micro-kernel cannot take), for the float64 and the float32 unit.  That
pair is the guard on the micro-tile shape and on the width it is
emitted at: the autovectorizer has turned a well-chosen-looking shape
into a 2.7 GF/s kernel before, and a compiler that emits the AVX-512
row at 256 bits spills its accumulators and runs it at remainder-loop
speed (docs/KERNELS.md §2).  Only a measurement notices either, so
``test_micro_tile_guard`` - the one test here that needs no
pytest-benchmark, run by CI's ``kernels`` job - asserts it.

Outputs:

* ``benchmarks/results/ablation_kernel_backends.txt`` - human table;
* ``benchmarks/results/BENCH_kernels.json`` - machine-readable
  per-backend GF/s by block size, so the perf trajectory is trackable
  across PRs.

The shape assertions are the acceptance criteria of the backend work:
tiled >= reference at b=256, and - whenever a compiled-family backend
is available - best available >= 20x reference at b=128 and the
``cnative`` micro-kernel ``GUARD_FLOOR`` times its own remainder loop
at 16- and 32-wide tiles.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from common import RESULTS_DIR, write_table

from repro.semiring import MIN_PLUS, srgemm_flops
from repro.semiring.backends import available_backends, get_backend
from repro.semiring.backends.cnative import _pointers

BLOCKS = (16, 32, 64, 128, 256)
REPEATS = 3
#: Backends with a natively-compiled inner loop; when any is available
#: the >=20x-over-reference acceptance criterion is enforced.
COMPILED_FAMILY = ("cnative",)
#: Tile widths of the kernel-only micro-tile guard (the 16- and 32-wide
#: tiles of the end-to-end workloads).
GUARD_BLOCKS = (16, 32)
GUARD_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))
GUARD_REPEATS = 7
#: Least micro-tile / remainder-loop ratio, by the unit's vector target.
#: Float64 on the AVX-512 host of docs/KERNELS.md §2: a 512-bit build
#: reads 2.53 / 2.67 at 16^3 / 32^3, a 256-bit one 1.23 / 1.11, an AVX2
#: build 1.87 / 1.86 and a generic one 1.41 / 1.23, so the floor fails
#: only a spilled or scalar tile.  The generic row need only not lose.
GUARD_FLOOR = {"avx512f": 1.5, "avx2": 1.5, "generic": 1.0}


def _tile(backend):
    return backend.srgemm_accumulate


def _one_tile_grid(backend):
    def call(c, a, b, semiring):
        backend.srgemm_grid([[c]], [a], [b], semiring=semiring, phase="outer")

    return call


def _bench_entry(backend, entry, b: int, rng: np.random.Generator) -> float:
    """Best-of-REPEATS GF/s for one b x b x b update through ``entry``
    (``_tile`` or ``_one_tile_grid``)."""
    a = rng.uniform(0.0, 10.0, (b, b))
    bb = rng.uniform(0.0, 10.0, (b, b))
    c = rng.uniform(0.0, 10.0, (b, b))
    fn = entry(backend)
    fn(c.copy(), a, bb, semiring=MIN_PLUS)  # warm-up (JIT/compile/cache)
    best = float("inf")
    for _ in range(REPEATS):
        work = c.copy()
        t0 = time.perf_counter()
        fn(work, a, bb, semiring=MIN_PLUS)
        best = min(best, time.perf_counter() - t0)
    return srgemm_flops(b, b, b) / best / 1e9


def _kernel_only(unit, m: int, n: int, k: int, dtype, rng: np.random.Generator) -> float:
    """Best-of-GUARD_REPEATS GF/s of one ``cnative`` unit over a column
    of ``(m, n, k)`` tiles, addresses marshalled outside the clock.  The
    column cycles through a cache-resident set of tiles (128 KiB), so
    the clock holds arithmetic, not memory traffic; revisiting a tile
    is harmless here (⊕ is idempotent and the C loop is sequential)."""
    tiles = max(1, int(2e7 / srgemm_flops(m, n, k)))
    distinct = max(1, min(tiles, (128 << 10) // (dtype.itemsize * (m * n + m * k))))

    def operand(shape):
        return rng.uniform(0.0, 10.0, shape).astype(dtype)

    c = [operand((m, n)) for _ in range(distinct)]
    a = [operand((m, k)) for _ in range(distinct)]
    b = [operand((k, n))]
    cycle = [i % distinct for i in range(tiles)]
    pointers = (  # kept referenced across the timed calls
        _pointers([c[i] for i in cycle], (m, n), dtype),
        _pointers([a[i] for i in cycle], (m, k), dtype),
        _pointers(b, (k, n), dtype),
    )
    args = (*(ptrs.ctypes.data for ptrs in pointers), tiles, 1, m, n, k)
    best = float("inf")
    for _ in range(GUARD_REPEATS + 1):  # the first pass warms the cache
        t0 = time.perf_counter()
        unit.grid(*args)
        best = min(best, time.perf_counter() - t0)
    return tiles * srgemm_flops(m, n, k) / best / 1e9


def run_micro_tile_guard() -> dict:
    """{(dtype name, b): (target, micro-kernel GF/s, remainder-loop GF/s)}
    for ``cnative``'s (min,+) units at b x b x b, kernel-only."""
    rng = np.random.default_rng(1)
    backend = get_backend("cnative")
    guard = {}
    for dtype in GUARD_DTYPES:
        unit = backend._unit_for(MIN_PLUS, dtype)
        mr, _ = unit.micro_tile
        for b in GUARD_BLOCKS:
            guard[dtype.name, b] = (
                unit.target,
                _kernel_only(unit, b, b, b, dtype, rng),
                _kernel_only(unit, mr - 1, b, b, dtype, rng),
            )
    return guard


def assert_micro_tile_guard(guard: dict) -> None:
    """A micro-tile the vectorizer mishandles, or emits at half the width
    its accumulators were sized for, runs at (or below) the speed of the
    plain loop it replaced."""
    for (dtype, b), (target, micro, rest) in guard.items():
        floor = GUARD_FLOOR[target]
        assert micro >= floor * rest, (
            f"cnative {dtype} micro-tile ({target}) runs {micro:.1f} GF/s at {b}^3, "
            f"{micro / rest:.2f}x its own remainder loop ({rest:.1f} GF/s), under the "
            f"{floor}x floor: check the emitted vector width and the _MICRO_TILES shape"
        )


def test_micro_tile_guard():
    if "cnative" not in available_backends():
        pytest.skip("cnative needs a C compiler")
    assert_micro_tile_guard(run_micro_tile_guard())


def run_sweep() -> dict:
    """{(name, b): fused GF/s} plus {(name+'#outer', b): outer GF/s}."""
    rng = np.random.default_rng(0)
    rates: dict[tuple[str, int], float] = {}
    for name in sorted(available_backends()):
        backend = get_backend(name)
        for b in BLOCKS:
            rates[(name, b)] = _bench_entry(backend, _tile, b, rng)
            rates[(f"{name}#outer", b)] = _bench_entry(backend, _one_tile_grid, b, rng)
    return rates


def _write_json(rates: dict, guard: dict) -> None:
    names = sorted(available_backends())
    payload = {
        "bench": "ablation_kernel_backends",
        "unit": "GF/s",
        "blocks": list(BLOCKS),
        "semiring": "min_plus",
        "dtype": "float64",
        "backends": {
            name: {
                "fused": {str(b): rates[(name, b)] for b in BLOCKS},
                "outer": {str(b): rates[(f"{name}#outer", b)] for b in BLOCKS},
            }
            for name in names
        },
        "best_backend_at_256": max(names, key=lambda n: rates[(f"{n}#outer", 256)]),
        "best_over_reference_at_256": max(
            rates[(f"{n}#outer", 256)] for n in names
        )
        / rates[("reference", 256)],
        "cnative_kernel_only": {
            f"{dtype}@{b}": {"target": target, "micro_tile": micro, "remainder_loop": rest}
            for (dtype, b), (target, micro, rest) in guard.items()
        },
        "cnative": get_backend("cnative").describe() if guard else None,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_kernels.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def test_ablation_kernel_backends(benchmark):
    rates = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    names = sorted(available_backends())
    compiled = any(n in names for n in COMPILED_FAMILY)
    guard = run_micro_tile_guard() if compiled else {}
    rows = []
    for b in BLOCKS:
        best = max(rates[(f"{n}#outer", b)] for n in names)
        rows.append(
            [b]
            + [f"{rates[(name, b)]:.3f}" for name in names]
            + [f"{best / rates[('reference', b)]:.1f}x"]
        )
    write_table(
        "ablation_kernel_backends",
        "Ablation: SrGemm kernel backend throughput, fused C ⊕= A ⊗ B at "
        "b x b x b (GF/s, best of 3, one Python call per update; tropical "
        "semiring, float64 operands; tiled-f32 = float32 compute path; "
        "best/ref uses each backend's one-tile outer grid)",
        ["block"] + [f"{n} GF/s" for n in names] + ["best/ref"],
        rows,
        chart="\n".join(
            f"cnative {dtype} kernel-only at {b}^3 (best of {GUARD_REPEATS}, {target}): "
            f"micro-tile {micro:.1f} GF/s, remainder loop alone {rest:.1f} GF/s "
            f"({micro / rest:.2f}x, floor {GUARD_FLOOR[target]}x)"
            for (dtype, b), (target, micro, rest) in guard.items()
        ),
    )
    _write_json(rates, guard)

    # Acceptance criterion: the cache-blocked kernel beats the
    # broadcast reference at the largest block, where the reference's
    # (m, k_chunk, n) slab falls out of cache.
    assert rates[("tiled", 256)] > rates[("reference", 256)]
    # The float32 path should not be slower than the float64 tiled
    # kernel at the bandwidth-bound large block (it halves traffic;
    # allow wide margin for cast overhead on small problems).
    assert rates[("tiled-f32", 256)] > 0.7 * rates[("tiled", 256)]
    # Tentpole criterion: with any natively-compiled backend available,
    # the best outer-phase rate must reach >=20x the reference at b=128.
    if compiled:
        best = max(rates[(f"{n}#outer", 128)] for n in names)
        assert best >= 20.0 * rates[("reference", 128)], (
            f"best available backend reached only "
            f"{best / rates[('reference', 128)]:.1f}x reference at b=128"
        )
    assert_micro_tile_guard(guard)
