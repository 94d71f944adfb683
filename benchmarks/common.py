"""Shared harness for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's figures: it sweeps the
same axes, prints the same rows/series (as a text table), writes the
table under ``benchmarks/results/`` for EXPERIMENTS.md, and asserts the
*shape* of the result (who wins, roughly by how much, where crossovers
fall) - not absolute numbers, since the testbed here is a simulator.

All sweeps run the simulator in *hollow* mode (full event structure,
modeled costs, no NumPy numerics) with the paper's block size b = 768
as the virtual scale, so paper-scale vertex counts are reachable in
seconds.  Numerical correctness is covered by the test suite, and
``tests/test_distributed_variants.py::TestDriverValidation::
test_hollow_matches_full_timing`` pins that hollow mode does not change
the schedule.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import solve
from repro.core.report import PerfReport

#: The paper's block size; hollow sweeps use dim_scale = B_VIRT so one
#: physical "block" row models one 768-wide block.
B_VIRT = 768.0

RESULTS_DIR = Path(__file__).parent / "results"


def hollow_apsp(
    variant: str,
    nb: int,
    n_nodes: int,
    ranks_per_node: int = 4,
    scale: float = B_VIRT,
    **kw,
) -> PerfReport:
    """Run one hollow simulation of ``nb`` block rows (virtual
    n = nb * scale) and return its report."""
    w = np.zeros((nb, nb), dtype=np.float32)
    res = solve(
        w,
        variant=variant,
        block_size=1,
        n_nodes=n_nodes,
        ranks_per_node=ranks_per_node,
        dim_scale=scale,
        compute_numerics=False,
        collect=False,
        **kw,
    )
    return res.report


def write_table(
    name: str,
    title: str,
    header: list[str],
    rows: list[list[str]],
    chart: str = "",
) -> str:
    """Format, print, and persist a result table (plus an optional
    ASCII chart of the figure's shape); returns the text."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) for i in range(len(header))
    ]
    lines = [title, ""]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(r)))
    if chart:
        lines += ["", chart]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print("\n" + text)
    return text


def gb(x: float) -> str:
    return f"{x / 1e9:.2f}"


def pf(report: PerfReport) -> float:
    return report.petaflops
