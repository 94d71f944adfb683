"""Ablation: physical cost of ABFT verification vs block size and backend.

Verification (docs/FAULTS.md) is free in *simulated* time by
construction - the checksum algebra runs inside the existing kernel
closures and adds no events - so the interesting cost is physical:
wall-clock spent taking, predicting and re-taking min-checksums around
every guarded SrGemm.  Two backends: ``tiled``, whose guard passes
are the waist's NumPy defaults, and ``cnative``, whose guard unit runs
them natively beside its kernel.

Per b x b block-product the kernel does O(b^3) work and the checksums
O(b^2), so over a fixed matrix the checksum work is O(n^3 / b): the
guard's *absolute* cost falls as the block size grows - the same
asymptotic argument classic ABFT GEMM makes, and the reason the
paper-scale b=768 regime makes verification cheap.  Its cost relative
to the unguarded solve need not fall: the unguarded solve sheds its own
per-call overhead with b too, on ``cnative`` faster than the guard does.
This sweep holds the matrix fixed and grows the block size on both
backends; it asserts that the checksum guard's absolute cost falls from
the smallest block to the largest on each, and that simulated makespans
are bit-identical across verify modes.
"""

from __future__ import annotations

import time

import numpy as np
from common import write_table

from repro import solve
from repro.graphs import uniform_random_dense

N = 192
BLOCKS = (8, 16, 32, 64)
BACKENDS = ("tiled", "cnative")
NODES = 2
RPN = 2
MODES = ("off", "checksum", "full")
REPEATS = 3


def run_one(w: np.ndarray, backend: str, b: int, mode: str) -> tuple[float, float]:
    """(best physical wall-clock seconds, simulated elapsed)."""
    best = float("inf")
    elapsed = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        res = solve(
            w,
            variant="async",
            block_size=b,
            n_nodes=NODES,
            ranks_per_node=RPN,
            verify=mode,
            kernel_backend=backend,
        )
        best = min(best, time.perf_counter() - t0)
        elapsed = res.report.elapsed
    return best, elapsed


def run_sweep():
    w = uniform_random_dense(N, seed=3)
    out = {}
    for backend in BACKENDS:
        for b in BLOCKS:
            for mode in MODES:
                out[(backend, b, mode)] = run_one(w, backend, b, mode)
    return out


def test_ablation_verify_overhead(benchmark):
    times = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for backend in BACKENDS:
        for b in BLOCKS:
            off, sim_off = times[(backend, b, "off")]
            # Simulated makespan is pinned bit-identical across modes.
            for mode in MODES:
                assert times[(backend, b, mode)][1] == sim_off
            row = [backend, b]
            for mode in MODES:
                row.append(f"{times[(backend, b, mode)][0]:.4f}")
            row.append(f"{(times[(backend, b, 'checksum')][0] - off) * 1e3:+.1f}")
            row.append(f"{(times[(backend, b, 'checksum')][0] / off - 1) * 100:+.0f}%")
            row.append(f"{(times[(backend, b, 'full')][0] / off - 1) * 100:+.0f}%")
            rows.append(row)
    write_table(
        "ablation_verify_overhead",
        f"Ablation: physical wall-clock cost of ABFT verification vs block "
        f"size and backend (n={N}, async, {NODES} nodes x {RPN} ranks, best "
        f"of {REPEATS}; simulated makespans bit-identical across modes)",
        ["backend", "block", "off (s)", "checksum (s)", "full (s)",
         "checksum cost (ms)", "checksum ovh", "full ovh"],
        rows,
    )

    # O(b^2) checksums per O(b^3) product: over a fixed matrix the
    # guard's absolute cost falls with block size, on either backend.
    for backend in BACKENDS:
        small, large = (
            times[(backend, b, "checksum")][0] - times[(backend, b, "off")][0]
            for b in (BLOCKS[0], BLOCKS[-1])
        )
        assert large < small, backend
