"""Ablation: SrGemm kernel backend micro-benchmark.

Unlike the figure-reproduction sweeps, this one measures *real* kernel
throughput (wall clock, not the simulator): the same fused
``C ← C ⊕ A ⊗ B`` update at the block sizes the paper's Figure 5
sweeps, per registered backend, plus the phase-specialized
``srgemm_outer`` entry point the bulk of a solve actually dispatches
through.  It documents the backend ladder: the ``reference`` broadcast
kernel materializes an ``(m, k_chunk, n)`` slab and reduces it;
``tiled`` bounds a rank-1 scratch by the byte budget; and ``cnative``
fuses the triple loop to native code via the system C compiler.

Outputs:

* ``benchmarks/results/ablation_kernel_backends.txt`` - human table;
* ``benchmarks/results/BENCH_kernels.json`` - machine-readable
  per-backend GF/s by block size, so the perf trajectory is trackable
  across PRs.

The shape assertions are the acceptance criteria of the backend work:
tiled >= reference at b=256, and - whenever a compiled-family backend
is available - best available >= 10x reference at b=256.
"""

from __future__ import annotations

import json
import time

import numpy as np
from common import RESULTS_DIR, write_table

from repro.semiring import MIN_PLUS, srgemm_flops
from repro.semiring.backends import available_backends, get_backend

BLOCKS = (64, 128, 256)
REPEATS = 3
#: Backends with a natively-compiled inner loop; when any is available
#: the >=10x-over-reference acceptance criterion is enforced.
COMPILED_FAMILY = ("cnative",)


def _bench_entry(backend, entry: str, b: int, rng: np.random.Generator) -> float:
    """Best-of-REPEATS GF/s for one b x b x b update through ``entry``."""
    a = rng.uniform(0.0, 10.0, (b, b))
    bb = rng.uniform(0.0, 10.0, (b, b))
    c = rng.uniform(0.0, 10.0, (b, b))
    fn = getattr(backend, entry)
    fn(c.copy(), a, bb, semiring=MIN_PLUS)  # warm-up (JIT/compile/cache)
    best = float("inf")
    for _ in range(REPEATS):
        work = c.copy()
        t0 = time.perf_counter()
        fn(work, a, bb, semiring=MIN_PLUS)
        best = min(best, time.perf_counter() - t0)
    return srgemm_flops(b, b, b) / best / 1e9


def run_sweep() -> dict:
    """{(name, b): fused GF/s} plus {(name+'#outer', b): outer GF/s}."""
    rng = np.random.default_rng(0)
    rates: dict[tuple[str, int], float] = {}
    for name in sorted(available_backends()):
        backend = get_backend(name)
        for b in BLOCKS:
            rates[(name, b)] = _bench_entry(backend, "srgemm_accumulate", b, rng)
            rates[(f"{name}#outer", b)] = _bench_entry(backend, "srgemm_outer", b, rng)
    return rates


def _write_json(rates: dict) -> None:
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
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_kernels.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def test_ablation_kernel_backends(benchmark):
    rates = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    names = sorted(available_backends())
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
        "b x b x b (GF/s, best of 3; tropical semiring, float64 operands; "
        "tiled-f32 = float32 compute path; best/ref uses each backend's "
        "phase-specialized outer entry)",
        ["block"] + [f"{n} GF/s" for n in names] + ["best/ref"],
        rows,
    )
    _write_json(rates)

    # Acceptance criterion: the cache-blocked kernel beats the
    # broadcast reference at the largest block, where the reference's
    # (m, k_chunk, n) slab falls out of cache.
    assert rates[("tiled", 256)] > rates[("reference", 256)]
    # The float32 path should not be slower than the float64 tiled
    # kernel at the bandwidth-bound large block (it halves traffic;
    # allow wide margin for cast overhead on small problems).
    assert rates[("tiled-f32", 256)] > 0.7 * rates[("tiled", 256)]
    # Tentpole criterion: with any natively-compiled backend available,
    # the best outer-phase rate must reach >=10x the reference at b=256.
    if any(n in names for n in COMPILED_FAMILY):
        best = max(rates[(f"{n}#outer", 256)] for n in names)
        assert best >= 10.0 * rates[("reference", 256)], (
            f"best available backend reached only "
            f"{best / rates[('reference', 256)]:.1f}x reference at b=256"
        )
