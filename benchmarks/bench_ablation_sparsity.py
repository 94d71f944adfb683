"""Ablation: block-sparsity exploitation on structured graphs.

The paper's conclusion points at "structured sparse graphs, where
exploiting sparsity becomes paramount" (its supernodal APSP citation).
This ablation runs the solver with and without block-sparsity
exploitation on structured (banded / community) graphs and on
unstructured random sparsity, measuring simulated time and
communication volume.  Expected shape: structure pays, random
sparsity does not (few blocks are entirely empty) - the argument for
supernodal/structure-aware methods.
"""

from __future__ import annotations

from common import write_table

from repro import solve
from repro.graphs import banded_graph, erdos_renyi, ring_of_cliques

GRAPHS = {
    "banded(w=2)": lambda: banded_graph(48, 2, seed=1),
    "cliques(6x8)": lambda: ring_of_cliques(6, 8),
    "random(p=.08)": lambda: erdos_renyi(48, 0.08, seed=2),
    "dense": lambda: erdos_renyi(48, 1.0, seed=3),
}


def run_one(w, sparse):
    return solve(
        w,
        variant="async",
        block_size=6,
        n_nodes=2,
        ranks_per_node=4,
        dim_scale=128.0,
        exploit_sparsity=sparse,
    ).report


def run_sweep():
    out = {}
    for name, gen in GRAPHS.items():
        w = gen()
        out[name] = (run_one(w, False), run_one(w, True))
    return out


def test_ablation_sparsity(benchmark):
    table = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for name, (dense_rep, sparse_rep) in table.items():
        t_save = 1 - sparse_rep.elapsed / dense_rep.elapsed
        comm_d = dense_rep.internode_bytes + dense_rep.intranode_bytes
        comm_s = sparse_rep.internode_bytes + sparse_rep.intranode_bytes
        c_save = 1 - comm_s / comm_d
        rows.append([name, f"{dense_rep.elapsed:.4f}", f"{sparse_rep.elapsed:.4f}",
                     f"{t_save * 100:.1f}%", f"{c_save * 100:.1f}%"])
    write_table(
        "ablation_sparsity",
        "Ablation: block-sparsity exploitation (async variant, n=6,144 "
        "virtual, 2 nodes x 4 ranks).  Structure pays; unstructured "
        "random sparsity leaves few empty blocks",
        ["graph", "dense run (s)", "sparse run (s)", "time saved", "comm saved"],
        rows,
    )

    def saving(name):
        d, s = table[name]
        return 1 - s.elapsed / d.elapsed

    # Structured graphs save materially.
    assert saving("banded(w=2)") > 0.08
    assert saving("cliques(6x8)") > 0.05
    # Unstructured sparsity and dense graphs save (almost) nothing.
    assert abs(saving("random(p=.08)")) < 0.05
    assert abs(saving("dense")) < 0.02
