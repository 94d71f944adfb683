"""Armed-run pins for the one epoch/recovery loop.

``repro.solve`` (a private event heap) and a one-job ``repro.submit``
(the scheduler's shared heap) run the same supervisor
(:func:`repro.core.driver.run_solve`) with the same dead-world rule, so
every fault plan gives both the same outcome.  Each record holds one
(variant, plan) - makespan, ``faults.*`` counters, the reported variant
and, for failing plans, error class and message - and both entry points
are checked against it, over six variants x twelve fault plans.
Distances are compared to the fault-free solve rather than to a stored
digest, so a non-default ``$REPRO_SRGEMM_BACKEND`` still passes.

Re-record (only when a change is *meant* to move recovery timing; the
script refuses a plan on which the two entry points disagree)::

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
    # No failure arms the grace reaper: the world is kicked when the
    # heap drains.
    "message-drop-no-timeout": (["drop:src=0,dst=1,nth=1",
                                 "policy:ckpt=2,restarts=3"], {}),
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


def _key(variant: str, plan: str) -> str:
    return f"{variant}/{plan}"


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("plan", list(PLANS))
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_armed_run_matches_recording(pins, variant, plan, entry):
    got, result = _outcome(entry, variant, plan)
    assert got == pins[_key(variant, plan)]
    if result is not None:
        assert result.dist.tobytes() == _clean_dist(variant)


def test_recording_covers_the_interesting_outcomes(pins):
    """The matrix is only a pin if it exercises each branch of the loop:
    restarts (after the grace, after a timeout, after a drained heap),
    degradation (shape-preserving), both final-error classes."""
    assert len(pins) == len(ALL_VARIANTS) * len(PLANS)
    assert pins["baseline/oom-degrade"]["variant"] == "baseline->offload"
    assert pins["pipelined/oom-degrade"]["variant"] == "pipelined->offload-pipelined"
    assert pins["baseline/oom-no-degrade"]["error"] == "GpuOutOfMemory"
    assert pins["baseline/restart-budget-0"]["error"] in ("RankFailure", "CommTimeoutError")
    assert pins["baseline/crash-deadlock"]["faults"]["faults.restarts"] == 1.0
    assert pins["baseline/message-drop-no-timeout"]["faults"]["faults.restarts"] == 1.0
    assert pins["baseline/checkpoint-only"]["faults"].get("faults.restarts") is None


if __name__ == "__main__":  # re-record
    recorded = {}
    for v in ALL_VARIANTS:
        for p in PLANS:
            solo, fleet = (_outcome(e, v, p)[0] for e in ENTRIES)
            assert solo == fleet, (v, p, solo, fleet)
            recorded[_key(v, p)] = fleet
    PINS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} pins -> {PINS_PATH}")
