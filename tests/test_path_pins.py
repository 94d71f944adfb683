"""Bit-exact pins of the path-tracking solve.

One record per (variant, verify mode, kernel backend, sparsity) case
of a tie-heavy graph on a 2x2 rank grid: sha256 of ``dist`` and of
``next_hops``, the makespan, the MPI message and internode byte
counters, and the ``kernel.srgemm_paths`` call and flop counters.
Weights sit on a 1/4 grid, so many candidate paths tie and every
kernel's strict-improvement tie-break is on the line.  The last eight
vertices have no edge in from the rest, so the run has unreachable
pairs (``NO_HOP`` off the diagonal) and all-infinite blocks for
``exploit_sparsity`` to skip.

The recording was taken before next hops moved onto the grid entries,
and every case then equalled the sequential blocked path sweep that the
one-rank solve now replaces; :func:`test_one_rank_solve_is_the_oracle`
keeps that equality.

Rows recorded on the retired chunked-broadcast ``reference`` backend
stay pinned and replay on its successor ``tiled``, which reproduces
them bit for bit.

Re-record (only when a change is *meant* to move path numerics or
timing; the script refuses a case that differs from the one-rank
solve, and keeps the rows of a retired backend as recorded)::

    PYTHONPATH=src python tests/test_path_pins.py
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graphs import erdos_renyi
from repro.semiring import available_backends

PINS_PATH = Path(__file__).parent / "data" / "path_pins.json"

VARIANTS = ["baseline", "pipelined", "reordering", "async"]
VERIFY = ["off", "checksum"]
BACKENDS = ["reference", "tiled", "cnative"]
RETIRED = {"reference": "tiled"}  # retired backend -> the one its rows replay on
SPARSITY = [False, True]
SHAPE = dict(block_size=8, n_nodes=2, ranks_per_node=2)


def _weights() -> np.ndarray:
    w = erdos_renyi(40, 0.2, seed=28)
    w = np.round(w * 4.0) / 4.0  # ties: a 1/4 grid on [1, 10]
    w[:32, 32:] = np.inf  # vertices 32.. are unreachable from the rest
    np.fill_diagonal(w, 0.0)
    return w


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _key(variant: str, verify: str, backend: str, sparse: bool) -> str:
    return f"{variant}/{verify}/{backend}/{'sparse' if sparse else 'dense'}"


def _cases():
    return [
        (v, m, b, s) for v in VARIANTS for m in VERIFY for b in BACKENDS for s in SPARSITY
    ]


def _record(variant: str, verify: str, backend: str, sparse: bool) -> dict:
    result = repro.solve(
        _weights(),
        repro.SolveConfig(
            variant=variant, verify=verify, kernel_backend=RETIRED.get(backend, backend),
            exploit_sparsity=sparse, track_paths=True,
            obs=repro.ObsSinks(metrics=True), **SHAPE,
        ),
    )
    flat = result.metrics.flat()
    return {
        "dist": _sha(result.dist),
        "next_hops": _sha(result.next_hops),
        "elapsed": result.report.elapsed,
        "messages": result.report.messages,
        "internode_bytes": result.report.internode_bytes,
        "srgemm_paths_calls": flat["kernel.srgemm_paths.calls"],
        "srgemm_paths_flops": flat["kernel.srgemm_paths.flops"],
    }


@lru_cache(maxsize=None)
def _one_rank(backend: str) -> tuple:
    """(sha of dist, sha of next hops) of the one-rank solve."""
    result = repro.solve(
        _weights(), block_size=8, n_nodes=1, ranks_per_node=1, track_paths=True,
        kernel_backend=RETIRED.get(backend, backend),
    )
    return _sha(result.dist), _sha(result.next_hops)


def _skip_unavailable(backend: str) -> None:
    if RETIRED.get(backend, backend) not in available_backends():
        pytest.skip(f"kernel backend {backend!r} unavailable on this host")


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("variant,verify,backend,sparse", _cases(),
                         ids=[_key(*case) for case in _cases()])
def test_tracked_run_matches_recording(pins, variant, verify, backend, sparse):
    _skip_unavailable(backend)
    assert _record(variant, verify, backend, sparse) == pins[_key(variant, verify, backend, sparse)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_rank_solve_is_the_oracle(pins, backend):
    """Every pinned case has the one-rank solve's bits."""
    _skip_unavailable(backend)
    want = _one_rank(backend)
    for case in _cases():
        rec = pins[_key(*case)]
        assert (rec["dist"], rec["next_hops"]) == want, _key(*case)


def test_recording_exercises_ties_and_skips(pins):
    """The pin is only one if the graph has unreachable pairs and the
    sparse runs skip work."""
    assert len(pins) == len(_cases())
    dense = pins[_key("async", "off", "tiled", False)]
    sparse = pins[_key("async", "off", "tiled", True)]
    assert sparse["srgemm_paths_calls"] < dense["srgemm_paths_calls"]
    result = repro.solve(_weights(), block_size=8, n_nodes=1, ranks_per_node=1,
                         track_paths=True)
    off_diag = ~np.eye(40, dtype=bool)
    assert (result.next_hops[off_diag] == repro.semiring.NO_HOP).any()


if __name__ == "__main__":  # re-record
    kept = json.loads(PINS_PATH.read_text())
    recorded = {}
    for case in _cases():
        if case[2] in RETIRED:
            recorded[_key(*case)] = kept[_key(*case)]
            continue
        rec = _record(*case)
        assert (rec["dist"], rec["next_hops"]) == _one_rank(case[2]), case
        recorded[_key(*case)] = rec
    PINS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} pins -> {PINS_PATH}")
