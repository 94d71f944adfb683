"""Armed-run pins for the one epoch/recovery loop.

``repro.solve`` (a private event heap) and a one-job ``repro.submit``
(the scheduler's shared heap) drive the same supervisor generator
(:func:`repro.core.driver.run_solve`); what differs is how each *waits
on its world*.  These pins hold both worlds to the values recorded at
the commit before the two hand-written loops were merged: makespan,
``faults.*`` counters, the reported variant and - for failing plans -
error class and message, over six variants x eleven fault plans x the two
entry points.  Distances are compared to the fault-free solve rather
than to a stored digest, so a non-default ``$REPRO_SRGEMM_BACKEND``
still passes.

Re-record (only when a change is *meant* to move recovery timing)::

    PYTHONPATH=src python tests/test_supervisor_pins.py
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

import repro
from repro.errors import ReproError
from repro.graphs import uniform_random_dense

PINS_PATH = Path(__file__).parent / "data" / "supervisor_pins.json"

ALL_VARIANTS = ["baseline", "pipelined", "reordering", "async", "offload",
                "offload-pipelined"]
SHAPE = dict(block_size=6, n_nodes=2, ranks_per_node=3)
ENTRIES = ["solve", "submit"]

#: name -> (fault specs, extra SolveConfig fields)
PLANS = {
    "crash-timeout": (["crash:rank=1,at=2e-5",
                       "policy:ckpt=2,restarts=3,timeout=1e-4"], {}),
    "crash-deadlock": (["crash:rank=1,at=2e-5", "policy:ckpt=2,restarts=3"], {}),
    "two-crashes-one-epoch": (["crash:rank=1,at=2e-5", "crash:rank=4,at=3e-5",
                               "policy:ckpt=2,restarts=3,timeout=1e-4"], {}),
    "later-crash-consumed": (["crash:rank=1,at=2e-5", "crash:rank=4,at=9e-3",
                              "policy:ckpt=2,restarts=3,timeout=1e-4"], {}),
    "oom-degrade": (["oom:rank=2,k=3", "policy:ckpt=2,restarts=3"], {}),
    "oom-no-degrade": (["oom:rank=2,k=3",
                        "policy:ckpt=2,restarts=3,oom_degrade=false"], {}),
    "restart-budget-0": (["crash:rank=1,at=2e-5",
                          "policy:ckpt=2,restarts=0,timeout=1e-4"], {}),
    "restart-budget-0-deadlock": (["crash:rank=1,at=2e-5",
                                   "policy:ckpt=2,restarts=0"], {}),
    "checkpoint-only": (["policy:ckpt=2"], {}),
    "message-drop": (["drop:src=0,dst=1,nth=1", "policy:timeout=1e-4"], {}),
    "memflip-checksum": (["memflip:rank=0,k=2", "policy:ckpt=2,restarts=3"],
                         {"verify": "checksum"}),
}


def _weights():
    return uniform_random_dense(48, seed=0)


@lru_cache(maxsize=None)
def _clean_dist(variant: str) -> bytes:
    return repro.solve(_weights(), variant=variant, **SHAPE).dist.tobytes()


def _run(entry: str, variant: str, plan: str):
    specs, extra = PLANS[plan]
    kw = dict(variant=variant, fault_plan=specs, **SHAPE, **extra)
    if entry == "solve":
        return repro.solve(_weights(), **kw)
    return repro.submit(_weights(), **kw).result()


def _outcome(entry: str, variant: str, plan: str):
    """(pinned record, result-or-None) of one armed run."""
    try:
        result = _run(entry, variant, plan)
    except ReproError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}, None
    return {
        "makespan": result.makespan,
        "variant": result.report.variant,
        "faults": {k: v for k, v in sorted(result.faults.items()) if v},
    }, result


def _key(variant: str, plan: str, entry: str) -> str:
    return f"{variant}/{plan}/{entry}"


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("plan", list(PLANS))
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_armed_run_matches_recording(pins, variant, plan, entry):
    got, result = _outcome(entry, variant, plan)
    assert got == pins[_key(variant, plan, entry)]
    if result is not None:
        assert result.dist.tobytes() == _clean_dist(variant)


def test_recording_covers_the_interesting_outcomes(pins):
    """The matrix is only a pin if it exercises each branch of the loop:
    restarts, degradation (shape-preserving), both final-error classes."""
    assert len(pins) == len(ALL_VARIANTS) * len(PLANS) * len(ENTRIES)
    assert pins["baseline/oom-degrade/solve"]["variant"] == "baseline->offload"
    assert pins["pipelined/oom-degrade/submit"]["variant"] == "pipelined->offload-pipelined"
    assert pins["baseline/oom-no-degrade/solve"]["error"] == "GpuOutOfMemory"
    assert pins["baseline/restart-budget-0/submit"]["error"] in (
        "RankFailure", "CommTimeoutError")
    assert pins["baseline/crash-deadlock/solve"]["faults"]["faults.restarts"] == 1.0
    assert pins["baseline/checkpoint-only/solve"]["faults"].get("faults.restarts") is None


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_solve_and_submit_agree_under_timeout_detection(pins, variant):
    """Detection by ``recv_timeout`` is a rank-program event, identical
    on either heap: the two entry points agree to the last bit."""
    for plan in ("crash-timeout", "two-crashes-one-epoch", "message-drop",
                 "restart-budget-0"):
        assert pins[_key(variant, plan, "solve")] == pins[_key(variant, plan, "submit")]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_solve_and_submit_differ_by_the_grace_under_deadlock_detection(pins, variant):
    """With no receive timeout the private heap restarts the moment it
    drains; the shared heap cannot see "drained" and waits out
    ``failure_grace`` (0.05 s) from the first failure at t=2e-5.
    Everything after the restart is the same replay, so the makespans
    differ by the grace minus what the private world spent draining
    (documented in docs/FAULTS.md "Checkpoint/restart")."""
    solo = pins[_key(variant, "crash-deadlock", "solve")]
    fleet = pins[_key(variant, "crash-deadlock", "submit")]
    assert solo["faults"]["faults.restarts"] == fleet["faults"]["faults.restarts"] == 1.0
    assert solo["faults"]["faults.crashes"] == fleet["faults"]["faults.crashes"] == 1.0
    gap = fleet["makespan"] - solo["makespan"]
    grace = repro.sched.ClusterScheduler().failure_grace
    assert grace - 1e-3 < gap <= grace + 2e-5


def test_later_crash_is_consumed_by_the_private_drain(pins):
    """The documented quirk: draining a private heap runs into the
    not-yet-due watchdog of a later crash and consumes it (one crash
    counted, the drain's clock paid); the shared heap never drains, so
    the finished epoch's watchdog early-outs."""
    solo = pins["baseline/later-crash-consumed/solve"]
    fleet = pins["baseline/later-crash-consumed/submit"]
    assert solo["makespan"] == 0.009434659148235316
    assert fleet["makespan"] == pins["baseline/crash-timeout/submit"]["makespan"] \
        == 0.006796196352941152
    assert solo["faults"]["faults.crashes"] == fleet["faults"]["faults.crashes"] == 1.0
    assert pins["baseline/crash-deadlock/solve"]["makespan"] == 0.0004888293564705882
    assert pins["baseline/crash-deadlock/submit"]["makespan"] == 0.050454659148235353


if __name__ == "__main__":  # re-record
    recorded = {
        _key(v, p, e): _outcome(e, v, p)[0]
        for v in ALL_VARIANTS for p in PLANS for e in ENTRIES
    }
    PINS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} pins -> {PINS_PATH}")
