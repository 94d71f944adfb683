"""Ablation: physical cost of ABFT verification vs block size.

Verification (docs/FAULTS.md) is free in *simulated* time by
construction - the checksum algebra runs inside the existing kernel
closures and adds no events - so the interesting cost is physical:
NumPy wall-clock spent predicting and re-reducing min-checksums around
every guarded SrGemm.  Per b x b block-product the kernel does O(b^3)
work and the checksums O(b^2), so the relative overhead should *fall*
as the block size grows - the same asymptotic argument classic ABFT
GEMM makes, and the reason the paper-scale b=768 regime makes
verification cheap.  This sweep holds the matrix fixed and grows the
block size; it asserts the monotone trend and that simulated makespans
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
NODES = 2
RPN = 2
MODES = ("off", "checksum", "full")
REPEATS = 3


def run_one(w: np.ndarray, b: int, mode: str) -> tuple[float, float]:
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
        )
        best = min(best, time.perf_counter() - t0)
        elapsed = res.report.elapsed
    return best, elapsed


def run_sweep():
    w = uniform_random_dense(N, seed=3)
    out = {}
    for b in BLOCKS:
        for mode in MODES:
            out[(b, mode)] = run_one(w, b, mode)
    return out


def test_ablation_verify_overhead(benchmark):
    times = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for b in BLOCKS:
        off, sim_off = times[(b, "off")]
        # Simulated makespan is pinned bit-identical across modes.
        for mode in MODES:
            assert times[(b, mode)][1] == sim_off
        row = [b]
        for mode in MODES:
            row.append(f"{times[(b, mode)][0]:.3f}")
        row.append(f"{(times[(b, 'checksum')][0] / off - 1) * 100:+.0f}%")
        row.append(f"{(times[(b, 'full')][0] / off - 1) * 100:+.0f}%")
        rows.append(row)
    write_table(
        "ablation_verify_overhead",
        f"Ablation: physical wall-clock cost of ABFT verification vs block "
        f"size (n={N}, async, {NODES} nodes x {RPN} ranks, best of "
        f"{REPEATS}; simulated makespans bit-identical across modes)",
        ["block", "off (s)", "checksum (s)", "full (s)",
         "checksum ovh", "full ovh"],
        rows,
    )

    # O(b^2) checksums over O(b^3) kernels: relative overhead shrinks
    # with block size.
    small = times[(BLOCKS[0], "checksum")][0] / times[(BLOCKS[0], "off")][0]
    large = times[(BLOCKS[-1], "checksum")][0] / times[(BLOCKS[-1], "off")][0]
    assert large < small
