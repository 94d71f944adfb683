"""Schedule-IR refactor acceptance tests.

Pins the exactness contract of the single executor
(:mod:`repro.core.executor`): every pre-refactor variant must come out
*bit-identical* (distance hashes) and *cost-identical* (simulated
makespans) to runs recorded on the commit before the refactor, the new
``offload-pipelined`` variant must be correct and actually overlap,
``start_k`` must be validated and resumable at {0, mid, nb} for every
variant, and a crash + checkpoint restart must recover bit-exactly
under the new executor (the CI schedule-equivalence job runs this
module).  ``tests/data/lowering_pins.json`` holds each (variant, case)'s
makespan and ordered-span digest, recorded before each op got one
body for both residencies; and a host DiagUpdate
(``diag_on_gpu=False``) must match the oracle on every variant.
"""

from __future__ import annotations

import copy
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro import SolveConfig, solve
from repro.cli import main as cli_main
from repro.core import (
    RankState,
    collect,
    contiguous_placement,
    execute_schedule,
    optimal_placement,
)
from repro.core.context import FwContext
from repro.core.driver import plan_run
from repro.core.schedule import (
    BULK_SYNC,
    LOOKAHEAD,
    Checkpoint,
    DiagBcast,
    DiagUpdate,
    OuterUpdate,
    PanelBcast,
    PanelUpdate,
    WaitOuter,
)
from repro.core.variants import VARIANTS, Variant
from repro.errors import ConfigurationError
from repro.extensions.paths import path_length, reconstruct_path
from repro.faults import CheckpointStore, FaultPlan
from repro.faults.injector import FaultInjector, FaultRuntime
from repro.graphs import floyd_warshall, uniform_random_dense
from repro.machine import SUMMIT, CostModel, SimCluster
from repro.mpi.comm import SimMPI
from repro.semiring.path_kernels import NO_HOP
from repro.sim import Environment

# ---------------------------------------------------------------------------
# Recorded pre-refactor runs (captured on commit b5009eb, before the
# schedule IR existed).  The executor must reproduce them exactly.
# ---------------------------------------------------------------------------

#: Real workload: uniform_random_dense(30, seed), b=5, 2 nodes x 3 ranks.
REAL_KW = dict(block_size=5, n_nodes=2, ranks_per_node=3)
RECORDED_ELAPSED = {
    "baseline": 0.0002740077794117649,
    "pipelined": 0.000346252455882353,
    "reordering": 0.000346252455882353,
    "async": 0.00034372901838235296,
    "offload": 0.0003222435441176473,
}
#: SHA-256 of the distance matrix bytes - identical across variants.
RECORDED_DIST_SHA = {
    0: "a212b9afbc9074bd6042ae010bbbd2b369c9014a7246079a921f1247fc8c7c3a",
    1: "b95b93ea5d1ab404adbfde5466cb4fa02b32771a864e3d75b8cf76d431a720f2",
    2: "9f4b377f89436d306998b3acf3f0b58d9dbfef734a721084d009ff05f4866906",
}
#: Hollow paper-scale workload: nb=24 blocks of b=1 scaled by 768
#: (B_VIRT), 4 nodes x 4 ranks, no numerics.
HOLLOW_KW = dict(
    block_size=1, n_nodes=4, ranks_per_node=4, dim_scale=768.0,
    compute_numerics=False, collect=False, check_negative_cycles=False,
)
RECORDED_HOLLOW_ELAPSED = {
    "baseline": 0.2967301259294111,
    "pipelined": 0.18224039364705866,
    "reordering": 0.17412427538823486,
    "async": 0.14802366061176453,
    "offload": 0.33496098522352896,
}

ALL_VARIANTS = ["baseline", "pipelined", "reordering", "async", "offload",
                "offload-pipelined"]
PAPER_VARIANTS = sorted(RECORDED_ELAPSED)


def dist_sha(dist: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(dist).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Variant x policy matrix: correctness + bit/cost exactness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestVariantMatrix:
    def test_matches_reference_and_recorded_bits(self, variant, seed):
        w = uniform_random_dense(30, seed=seed)
        result = solve(w, variant=variant, **REAL_KW)
        ref = floyd_warshall(w)
        assert np.allclose(result.dist, ref)
        # Bit-exact across all six variants and vs the pre-refactor runs.
        assert dist_sha(result.dist) == RECORDED_DIST_SHA[seed]


@pytest.mark.parametrize("variant", PAPER_VARIANTS)
def test_recorded_makespans_real(variant):
    w = uniform_random_dense(30, seed=0)
    result = solve(w, variant=variant, **REAL_KW)
    assert result.report.elapsed == RECORDED_ELAPSED[variant]


@pytest.mark.parametrize("variant", PAPER_VARIANTS)
def test_recorded_makespans_hollow(variant):
    w = np.zeros((24, 24), dtype=np.float32)
    result = solve(w, variant=variant, **HOLLOW_KW)
    assert result.report.elapsed == RECORDED_HOLLOW_ELAPSED[variant]


def test_offload_pipelined_overlaps_hollow():
    """The new sixth variant: look-ahead Me-ParallelFw beats the
    bulk-synchronous offload at paper scale because PanelBcast(k+1)
    rides under the ooGSrGemm tile pipeline."""
    w = np.zeros((24, 24), dtype=np.float32)
    plain = solve(w, variant="offload", **HOLLOW_KW)
    piped = solve(w, variant="offload-pipelined", **HOLLOW_KW)
    assert piped.report.elapsed < plain.report.elapsed


@pytest.mark.parametrize("variant", ["baseline", "pipelined", "reordering", "async"])
def test_next_matrix_matches_reference(variant):
    """Next-hop matrices through the executor: every finite pair's
    traced path exists and realizes the reference distance."""
    w = uniform_random_dense(18, seed=4)
    result = solve(w, variant=variant, block_size=3, n_nodes=2,
                   ranks_per_node=2, track_paths=True)
    ref = floyd_warshall(w)
    assert np.allclose(result.dist, ref)
    nxt = result.next_hops
    n = w.shape[0]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if np.isfinite(ref[i, j]):
                p = reconstruct_path(nxt, i, j)
                assert p is not None and p[0] == i and p[-1] == j
                assert path_length(w, p) == pytest.approx(ref[i, j])
            else:
                assert nxt[i, j] == NO_HOP


def _documented_rows() -> dict[str, tuple[str, ...]]:
    """The "named variants" table of docs/SCHEDULES.md, as printed:
    variant -> (schedule, residency, bcast, placement)."""
    text = (Path(__file__).parent.parent / "docs" / "SCHEDULES.md").read_text()
    table = text.split("## The named variants")[1].split("\n\n")[1]
    rows = [
        [cell.strip(" `") for cell in line.strip("|").split("|")]
        for line in table.strip().splitlines()[2:]
    ]
    return {row[0]: tuple(row[1:]) for row in rows}


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_variant_table_row_is_selectable_everywhere(variant, capsys):
    """docs/SCHEDULES.md's table *is* ``core.variants.VARIANTS``: each
    variant plans to exactly its documented row, and ``repro-apsp
    variants`` prints that row."""
    documented = _documented_rows()
    assert list(documented) == [v.value for v in Variant] == [v.value for v in VARIANTS]
    assert Variant.parse(variant.replace("-", "_")) is Variant(variant)
    # 4 nodes x 4 ranks on a 4x4 grid: contiguous (1x4 tiles) and
    # optimal (2x2 tiles) placements differ, so the column is observable.
    rp = plan_run(
        uniform_random_dense(16, seed=0),
        SolveConfig(variant=variant, block_size=2, n_nodes=4, ranks_per_node=4),
        SUMMIT,
    )
    placements = {
        "contiguous": contiguous_placement(rp.grid, 4),
        "optimal": optimal_placement(rp.grid, 4),
    }
    assert placements["contiguous"] != placements["optimal"]
    kind = next(k for k, p in placements.items() if p == rp.placement)
    assert (rp.schedule.name, rp.residency.name, rp.bcast.name, kind) == documented[variant]

    assert cli_main(["variants"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(VARIANTS)
    printed = {line.split()[0]: tuple(line.split()[1:5]) for line in lines}
    assert printed[variant] == documented[variant]


# ---------------------------------------------------------------------------
# Schedule IR structure
# ---------------------------------------------------------------------------


class TestScheduleStructure:
    def test_bulk_sync_iteration_shape(self):
        ops = BULK_SYNC.iteration(2, 6)
        assert ops == [
            Checkpoint(2),
            DiagUpdate(2),
            DiagBcast(2),
            PanelUpdate(2, "row", wait=True),
            PanelUpdate(2, "col", wait=True),
            PanelBcast(2),
            OuterUpdate(2, wait=True),
        ]
        assert BULK_SYNC.prologue(0, 6) == []

    def test_lookahead_overlap_structure(self):
        """PanelBcast(k+1) sits between the async OuterUpdate(k) launch
        and its join - the comm/compute overlap, visible as data."""
        ops = LOOKAHEAD.iteration(2, 6)
        launch = ops.index(OuterUpdate(2, wait=False))
        bcast = ops.index(PanelBcast(3))
        join = ops.index(WaitOuter())
        assert launch < bcast < join

    def test_lookahead_last_iteration_degenerates(self):
        """No k+1 to look ahead to: the final iteration is just
        checkpoint, launch, join."""
        assert LOOKAHEAD.iteration(5, 6) == [
            Checkpoint(5),
            OuterUpdate(5, wait=False),
            WaitOuter(),
        ]

    def test_lookahead_resume_prologue_skips_updates(self):
        """Resume carries already-updated start_k panels: only the
        broadcast is replayed (and nothing at all at start_k == nb)."""
        assert LOOKAHEAD.prologue(3, 6) == [PanelBcast(3)]
        assert LOOKAHEAD.prologue(6, 6) == []
        assert LOOKAHEAD.prologue(0, 6)[:1] == [DiagUpdate(0)]

    def test_full_op_stream_covers_all_iterations(self):
        ks = [op.k for op in BULK_SYNC.ops(0, 4) if isinstance(op, OuterUpdate)]
        assert ks == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# start_k validation + resume equivalence (manual worlds mirroring the
# driver's internals, so start_k can be driven directly)
# ---------------------------------------------------------------------------

N, B = 30, 5
NODES, RPN = 2, 3


class World:
    """A hand-assembled run (the driver without its frontend), exposing
    program/start_k directly."""

    def __init__(self, variant: str, blocks_by_rank=None, fault_plan=None):
        self.w = uniform_random_dense(N, seed=0)
        rp = plan_run(
            self.w,
            SolveConfig(variant=variant, block_size=B, n_nodes=NODES, ranks_per_node=RPN),
            SUMMIT,
        )
        self.n_orig, self.nb, self.grid = rp.n_orig, rp.nb, rp.grid
        n_ranks = rp.n_ranks
        env = Environment()
        cost = CostModel(SUMMIT)
        cluster = SimCluster(env, SUMMIT, NODES, cost, None)
        mpi = SimMPI(env, cluster, [rp.placement.node_of(r) for r in range(n_ranks)], None)
        self.ctx = FwContext(env, cluster, mpi, rp)
        if fault_plan is not None:
            injector = FaultInjector(fault_plan, None)
            injector.attach(mpi)
            mpi.injector = injector
            self.ctx.faults = FaultRuntime(injector, CheckpointStore())
        if blocks_by_rank is None:
            rp.distribute()
            blocks_by_rank = rp.locals_
        self.states = [
            RankState(self.ctx, r, blocks_by_rank[r]) for r in range(n_ranks)
        ]

    def program(self, state, start_k: int = 0):
        return execute_schedule(state, self.ctx.schedule, self.ctx.residency, start_k)

    def run(self, start_k: int = 0) -> np.ndarray:
        env = self.ctx.env
        procs = [
            env.process(self.program(state, start_k=start_k), name=f"rank{state.me}")
            for state in self.states
        ]
        env.run()
        assert all(p.processed and p.ok for p in procs)
        return collect([s.blocks for s in self.states], self.n_orig, B, self.grid)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
class TestStartK:
    def test_rejects_out_of_range(self, variant):
        world = World(variant)
        state = world.states[0]
        for bad in (-1, world.nb + 1):
            # Must raise at build time, not on first resume of the
            # generator (a silent empty program would corrupt recovery).
            with pytest.raises(ConfigurationError):
                world.program(state, start_k=bad)

    def test_resume_from_mid(self, variant):
        """start_k = mid: restore every rank from a checkpoint taken at
        the top of iteration mid and replay; bit-identical result."""
        full = World(variant).run(start_k=0)
        mid = 3
        ckpt = World(variant, fault_plan=FaultPlan(checkpoint_interval=mid))
        ckpt.run(start_k=0)
        store = ckpt.ctx.faults.store
        assert mid in store.checkpoints()
        n_ranks = NODES * RPN
        resumed = World(
            variant, blocks_by_rank=[store.restore(mid, r) for r in range(n_ranks)]
        ).run(start_k=mid)
        assert resumed.tobytes() == full.tobytes()

    def test_resume_from_nb_is_noop(self, variant):
        """start_k = nb: a completed sweep; the program only drains."""
        world = World(variant)
        full = world.run(start_k=0)
        done = World(
            variant,
            blocks_by_rank=[copy.deepcopy(s.blocks) for s in world.states],
        ).run(start_k=world.nb)
        assert done.tobytes() == full.tobytes()

    def test_start_zero_matches_driver(self, variant):
        """The manual world is faithful: start_k=0 equals solve()."""
        via_driver = solve(uniform_random_dense(N, seed=0), variant=variant, **REAL_KW)
        assert World(variant).run(start_k=0).tobytes() == via_driver.dist.tobytes()


# ---------------------------------------------------------------------------
# Fault smoke under the new executor: one crash + checkpoint resume per
# variant, bit-compared to the fault-free run
# ---------------------------------------------------------------------------

SMOKE_PLAN = ("crash:rank=1,at=1.5e-4", "policy:timeout=5e-4,ckpt=2")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_crash_checkpoint_resume_smoke(variant):
    w = uniform_random_dense(48, seed=1)
    kw = dict(block_size=8, n_nodes=2, ranks_per_node=2)
    clean = solve(w, variant=variant, **kw)
    faulty = solve(w, variant=variant, fault_plan=SMOKE_PLAN, **kw)
    assert faulty.fault_counters["faults.crashes"] >= 1
    assert faulty.fault_counters["faults.restarts"] >= 1
    assert faulty.dist.tobytes() == clean.dist.tobytes()


# ---------------------------------------------------------------------------
# Host DiagUpdate (diag_on_gpu=False, §4.2's host FW) on every variant:
# the closure reads the pivot block only after the rank's stream work
# that writes it has landed
# ---------------------------------------------------------------------------

HOST_DIAG_KW = dict(block_size=16, n_nodes=2, ranks_per_node=2, diag_on_gpu=False)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_host_diag_update_matches_oracle(variant, seed):
    w = uniform_random_dense(96, seed=seed)
    result = solve(w, variant=variant, validate=True, **HOST_DIAG_KW)
    assert np.allclose(result.dist, floyd_warshall(w))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_host_diag_update_starts_after_the_stream(variant):
    """Every host ``DiagUpdate`` span starts no earlier than the end of
    every span its rank's GPU began before it."""
    w = uniform_random_dense(96, seed=0)
    config = SolveConfig(variant=variant, trace=True, **HOST_DIAG_KW)
    spans = solve(w, config).tracer.spans
    rp = plan_run(w, config, SUMMIT)
    gpus = SUMMIT.node.gpus_per_node
    host_diags = [s for s in spans if s.category == "DiagUpdate"]
    assert len(host_diags) == rp.nb
    for d in host_diags:
        k = int(d.label[len("DiagUpdate("):-1])
        owner = rp.grid.owner(k, k)
        gpu = f"node{rp.placement.node_of(owner)}.gpu{rp.placement.local_index(owner) % gpus}."
        assert d.actor == f"node{rp.placement.node_of(owner)}.host"
        earlier = [s for s in spans if s.actor.startswith(gpu) and s.start <= d.start]
        late = [s for s in earlier if s.end > d.start]
        assert not late, f"{d.label} starts at {d.start} under {late}"


# ---------------------------------------------------------------------------
# Lowering pins: the makespan and the ordered span timeline of every
# (variant, case), so a reordered event shows even when makespans tie
# ---------------------------------------------------------------------------

LOWERING_PINS_PATH = Path(__file__).parent / "data" / "lowering_pins.json"
PIN_KW = dict(block_size=8, n_nodes=2, ranks_per_node=2)
GPU_RESIDENT_VARIANTS = ["baseline", "pipelined", "reordering", "async"]
#: The supervisor pins' residency-switching plan: rank 2 runs out of
#: HBM at k=3 and the run lands on the offload residency.
OOM_DEGRADE = ["oom:rank=2,k=3", "policy:ckpt=2,restarts=3"]


def _pin_weights(kind: str) -> np.ndarray:
    if kind == "hollow":
        return np.zeros((24, 24), dtype=np.float32)
    w = uniform_random_dense(40, seed=0)
    if kind == "holed":
        # Vertices 32.. are unreachable from the rest: all-infinite
        # blocks that exploit_sparsity skips for the whole run.
        w[:32, 32:] = np.inf
    return w


def _lowering_cases() -> dict[str, tuple[str, dict]]:
    """Pin id (``<variant>/<case>``, so ``-k <variant>`` selects it) ->
    (weights kind, solve keywords)."""
    cases = {}
    for v in ALL_VARIANTS:
        cases[f"{v}/real"] = ("real", dict(variant=v, **PIN_KW))
        cases[f"{v}/real-checksum"] = ("real", dict(variant=v, verify="checksum", **PIN_KW))
        cases[f"{v}/hollow"] = ("hollow", dict(variant=v, **HOLLOW_KW))
    for v in GPU_RESIDENT_VARIANTS:
        cases[f"{v}/sparse"] = ("holed", dict(variant=v, exploit_sparsity=True, **PIN_KW))
    for v in ("baseline", "pipelined"):
        cases[f"{v}/oom-degrade"] = ("real", dict(variant=v, fault_plan=OOM_DEGRADE, **PIN_KW))
    return cases


def spans_sha(tracer) -> str:
    """SHA-256 of the tracer's spans in recording order."""
    h = hashlib.sha256()
    for s in tracer.spans:
        h.update(f"{s.actor}|{s.category}|{s.label}|{s.start!r}|{s.end!r}\n".encode())
    return h.hexdigest()


def _lowering_record(case: str) -> dict:
    kind, kw = _lowering_cases()[case]
    result = solve(_pin_weights(kind), trace=True, **kw)
    return {"elapsed": result.report.elapsed, "spans": spans_sha(result.tracer)}


@pytest.fixture(scope="module")
def lowering_pins():
    import json

    return json.loads(LOWERING_PINS_PATH.read_text())


@pytest.mark.parametrize("case", list(_lowering_cases()))
def test_lowering_pin(lowering_pins, case):
    assert _lowering_record(case) == lowering_pins[case]


if __name__ == "__main__":  # re-record: PYTHONPATH=src python tests/test_schedule_ir.py
    import json

    recorded = {case: _lowering_record(case) for case in _lowering_cases()}
    LOWERING_PINS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} pins -> {LOWERING_PINS_PATH}")
