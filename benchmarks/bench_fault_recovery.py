"""Recovery overhead: makespan vs checkpoint interval under one crash.

The paper's projected flagship run (§5.2.3: 4,096 GPUs for 22 hours)
is squarely in the regime where a node loss mid-solve is expected, so
the interesting question for the fault subsystem is the classic
checkpoint-interval trade-off: a small interval C pays snapshot cost
every C iterations but replays almost nothing after a crash; a large C
is nearly free until the crash, then throws away up to C-1 iterations
of work.  This sweep injects one rank crash at ~40% of the clean
makespan and measures the whole recovered run for each C.
"""

from __future__ import annotations

import numpy as np

from common import B_VIRT, write_table

from repro import solve

NODES = 4
RPN = 4
NB = 32
INTERVALS = (1, 2, 4, 8)


def run_one(fault_plan=None, checkpoint_interval=None):
    w = np.zeros((NB, NB), dtype=np.float32)
    return solve(
        w,
        variant="baseline",
        block_size=1,
        n_nodes=NODES,
        ranks_per_node=RPN,
        dim_scale=B_VIRT,
        compute_numerics=False,
        collect=False,
        fault_plan=fault_plan,
        checkpoint_interval=checkpoint_interval,
    )


def run_sweep():
    clean = run_one()
    crash_at = 0.4 * clean.report.elapsed
    out = {"clean": clean}
    for c in INTERVALS:
        out[c] = run_one(
            fault_plan=[f"crash:rank=5,at={crash_at!r}"], checkpoint_interval=c
        )
    return out


def test_fault_recovery_interval_sweep(benchmark):
    table = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    clean = table["clean"].report.elapsed
    rows = [["none (no crash)", f"{clean:.3f}", "-", "-", "-"]]
    for c in INTERVALS:
        r = table[c]
        f = r.fault_counters
        rows.append(
            [
                str(c),
                f"{r.report.elapsed:.3f}",
                f"{int(f['faults.checkpoints'])} ({f['faults.checkpoint_time']:.3f} s)",
                f"{int(f['faults.replayed_iters'])}",
                f"{r.report.elapsed / clean:.2f}x",
            ]
        )
    write_table(
        "fault_recovery",
        f"Recovery: makespan vs checkpoint interval, one rank crash at 40% "
        f"(n={int(NB * B_VIRT):,}, {NODES} nodes x {RPN} ranks, baseline)",
        ["interval C", "makespan (s)", "checkpoints", "replayed iters", "vs clean"],
        rows,
    )

    # Every recovered run finished, crashed exactly once, and paid for it.
    for c in INTERVALS:
        f = table[c].fault_counters
        assert f["faults.crashes"] == 1 and f["faults.restarts"] == 1
        assert table[c].report.elapsed > clean
    # Checkpoint count falls with the interval; replayed work grows.
    ckpts = [table[c].fault_counters["faults.checkpoints"] for c in INTERVALS]
    assert ckpts == sorted(ckpts, reverse=True)
    replayed = [table[c].fault_counters["faults.replayed_iters"] for c in INTERVALS]
    assert replayed == sorted(replayed)
    assert replayed[-1] > replayed[0]
