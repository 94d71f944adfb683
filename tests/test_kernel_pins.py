"""Bit-exact pins of the kernel layer under every solve and sweep.

Two tables in ``tests/data/kernel_pins.json``:

* ``solve`` - one record per (variant, verify mode, kernel backend,
  semiring) of ``erdos_renyi(40)`` at ``b = 8`` on a 2x2 rank grid, plus
  the two offload variants at ``mx_blocks = nx_blocks = 1`` beside the
  default 2 (one-block ooG chunks against two-block ones):
  sha256 of ``dist``, the simulated makespan (``report.elapsed``), every
  ``kernel.*`` counter but ``kernel.wall_seconds``, and the integer
  counts of the verification certificate.
* ``sweep`` - sha256 of the sequential ``blocked_fw`` at ``b`` in
  {5, 8, 40} and of ``closure_by_squaring`` on the leading ``b x b``
  block, per backend and semiring (``plus_times`` has no closure by
  squaring; its record is the error it raises).

Weights are given each semiring's identities (a missing edge is ``⊕``'s
zero, the diagonal ``⊗``'s one; ``plus_times`` keeps a zero diagonal and
small weights, so its path sums stay finite).

Rows recorded on the retired chunked-broadcast ``reference`` backend
stay pinned and replay on its successor ``tiled``, which reproduces
them bit for bit.  The three ``blocked_fw/*/reference/plus_times``
sweeps are not kept: ``plus_times``'s ``⊕`` is not idempotent, the two
kernels sum in different orders, and the results differ by rounding.

Re-record (only when a change is *meant* to move kernel numerics,
counters or timing; rows of a retired backend are kept as recorded)::

    PYTHONPATH=src python tests/test_kernel_pins.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import blocked_fw
from repro.graphs import erdos_renyi
from repro.semiring import SEMIRINGS, available_backends, closure_by_squaring

PINS_PATH = Path(__file__).parent / "data" / "kernel_pins.json"

VARIANTS = ["baseline", "pipelined", "reordering", "async", "offload", "offload-pipelined"]
VERIFY = ["off", "checksum"]
BACKENDS = ["reference", "tiled", "cnative"]
RETIRED = {"reference": "tiled"}  # retired backend -> the one its rows replay on
SOLVE_SEMIRINGS = ["min_plus", "max_min"]
SWEEP_SEMIRINGS = ["min_plus", "max_min", "or_and", "plus_times"]
SWEEP_BLOCKS = [5, 8, 40]
SHAPE = dict(block_size=8, n_nodes=2, ranks_per_node=2)


def _weights(semiring: str) -> np.ndarray:
    sr = SEMIRINGS[semiring]
    w = erdos_renyi(40, 0.3, seed=31)
    edge = np.isfinite(w)
    if semiring == "or_and":
        out = edge
    elif semiring == "plus_times":
        out = np.where(edge, w / 100.0, sr.zero)  # path weights stay small
    else:
        out = np.where(edge, w, sr.zero)
    out = out.astype(sr.dtype)
    # ⊕ is not idempotent for plus_times: a diagonal one would double
    # each row every sweep, so its diagonal stays zero.
    np.fill_diagonal(out, sr.zero if semiring == "plus_times" else sr.one)
    return out


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _solve_cases():
    cases = [
        (v, m, b, s, 2) for v in VARIANTS for m in VERIFY for b in BACKENDS for s in SOLVE_SEMIRINGS
    ]
    cases += [
        (v, m, b, s, 1)
        for v in ("offload", "offload-pipelined")
        for m in VERIFY
        for b in BACKENDS
        for s in SOLVE_SEMIRINGS
    ]
    return cases


def _solve_key(variant, verify, backend, semiring, oog) -> str:
    return f"{variant}/{verify}/{backend}/{semiring}/oog{oog}"


def _record_solve(variant, verify, backend, semiring, oog) -> dict:
    result = repro.solve(
        _weights(semiring),
        repro.SolveConfig(
            variant=variant, verify=verify, kernel_backend=RETIRED.get(backend, backend),
            semiring=semiring,
            mx_blocks=oog, nx_blocks=oog, obs=repro.ObsSinks(metrics=True), **SHAPE,
        ),
    )
    counters = {
        key: value
        for key, value in result.metrics.flat().items()
        if key.startswith("kernel.") and key != "kernel.wall_seconds"
    }
    certificate = {
        key: value
        for key, value in (result.certificate or {}).items()
        if isinstance(value, int) and not isinstance(value, bool)
    }
    return {
        "dist": _sha(result.dist),
        "elapsed": result.report.elapsed,
        "kernel": counters,
        "certificate": certificate,
    }


def _sweep_cases():
    return [
        (kind, b, backend, sr)
        for kind in ("blocked_fw", "closure_by_squaring")
        for b in SWEEP_BLOCKS
        for backend in BACKENDS
        for sr in SWEEP_SEMIRINGS
        if (kind, backend, sr) != ("blocked_fw", "reference", "plus_times")
    ]


def _sweep_key(kind, b, backend, semiring) -> str:
    return f"{kind}/b{b}/{backend}/{semiring}"


def _record_sweep(kind, b, backend, semiring) -> str:
    sr = SEMIRINGS[semiring]
    w = _weights(semiring)
    backend = RETIRED.get(backend, backend)
    try:
        if kind == "blocked_fw":
            out = blocked_fw(w, b, semiring=sr, backend=backend)
        else:
            out = closure_by_squaring(w[:b, :b], semiring=sr, backend=backend)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return _sha(out)


def _skip_unavailable(backend: str) -> None:
    if RETIRED.get(backend, backend) not in available_backends():
        pytest.skip(f"kernel backend {backend!r} unavailable on this host")


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("case", _solve_cases(), ids=[_solve_key(*c) for c in _solve_cases()])
def test_solve_matches_recording(pins, case):
    _skip_unavailable(case[2])
    assert _record_solve(*case) == pins["solve"][_solve_key(*case)]


@pytest.mark.parametrize("case", _sweep_cases(), ids=[_sweep_key(*c) for c in _sweep_cases()])
def test_sweep_matches_recording(pins, case):
    _skip_unavailable(case[2])
    assert _record_sweep(*case) == pins["sweep"][_sweep_key(*case)]


def test_recording_covers_every_case_and_stacked_tiles(pins):
    assert set(pins["solve"]) == {_solve_key(*c) for c in _solve_cases()}
    assert set(pins["sweep"]) == {_sweep_key(*c) for c in _sweep_cases()}
    # An ooG product is one grid of b x b tiles however its chunks are
    # sized: two-block chunks count the outer products one-block ones do.
    for semiring in SOLVE_SEMIRINGS:
        stacked = pins["solve"][_solve_key("offload", "off", "tiled", semiring, 2)]
        single = pins["solve"][_solve_key("offload", "off", "tiled", semiring, 1)]
        assert stacked["dist"] == single["dist"]
        calls = "kernel.srgemm_outer.calls"
        assert stacked["kernel"][calls] == single["kernel"][calls]


if __name__ == "__main__":  # re-record
    kept = json.loads(PINS_PATH.read_text())
    recorded = {
        "solve": {
            _solve_key(*c): kept["solve"][_solve_key(*c)] if c[2] in RETIRED else _record_solve(*c)
            for c in _solve_cases()
        },
        "sweep": {
            _sweep_key(*c): kept["sweep"][_sweep_key(*c)] if c[2] in RETIRED else _record_sweep(*c)
            for c in _sweep_cases()
        },
    }
    PINS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded['solve'])} solve and {len(recorded['sweep'])} sweep pins")
