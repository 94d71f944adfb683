"""The parent side: spawn children, pool their rounds, report.

One *run* of one workload = a few child processes in sequence (each sets
up from scratch and measures its share of ``--seconds``).  The rounds of
all children are pooled and every end-to-end metric is the median over
rounds, with its quartiles and sample count; ``setup_s`` and
``peak_rss_mb`` are medians over children.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from .catalogue import (
    END_TO_END_NAMES,
    METRICS,
    PER_LAYER_NAMES,
    SETUP_REPEATS,
    workload as lookup,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The run could not produce a result (not: an op failed its oracle)."""


def summarize(values: list[float]) -> dict:
    """Median with quartiles, the sample count and the samples."""
    if len(values) >= 2:
        q25, _, q75 = statistics.quantiles(values, n=4)
    else:
        q25 = q75 = values[0]
    return {"value": statistics.median(values), "q25": q25, "q75": q75,
            "n": len(values), "values": values}


def _prepare_oracles(name: str, seed: int, workdir: Path) -> float:
    """SciPy Floyd-Warshall of the workload's inputs, computed once per
    run and shared by the children; returns the seconds it took (kept
    out of ``setup_s``)."""
    import numpy as np
    from scipy.sparse.csgraph import floyd_warshall

    from .workloads import FAMILIES

    t0 = time.perf_counter()
    for i, graph in enumerate(FAMILIES[lookup(name).family].oracle_graphs(name, seed)):
        np.save(workdir / f"oracle-{i}.npy", floyd_warshall(graph))
    return time.perf_counter() - t0


def _spawn_child(name: str, seed: int, child: int, seconds: float, trace: int,
                 workdir: Path) -> dict:
    child_dir = workdir / f"child-{child}"
    tmp = child_dir / "tmp"
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_ENV})
    env.update({
        "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)]),
        "PYTHONHASHSEED": "0",
        "REPRO_CNATIVE_CACHE": str(child_dir / "cnative"),
        "TMPDIR": str(tmp),
    })
    out = child_dir / "result.json"
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", name, "--seed", str(seed), "--child", str(child),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--workdir", str(workdir), "--out", str(out),
        "--trace-out", str(RESULTS / f"trace-{name}.json"),
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        # run() kills the child and waits for it when the timeout expires.
        proc = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name}: child {child} exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchmarkError(
            f"{name}: child {child} exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; returns its record for ``latest.json``."""
    if not (SRC / "repro").is_dir():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")
    workdir = WORK / f"{name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        oracle_s = _prepare_oracles(name, seed, workdir)
        n_children = 1 if trace else SETUP_REPEATS
        children = [
            _spawn_child(name, seed, c, seconds / n_children, trace, workdir)
            for c in range(n_children)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = [r for child in children for r in child["rounds"]]
    metrics = {key: summarize([r[key] for r in rounds]) for key in rounds[0]}
    metrics["setup_s"] = summarize([c["setup_s"] for c in children])
    metrics["peak_rss_mb"] = summarize([c["peak_rss_mb"] for c in children])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    messages = [m for c in children for m in c["failure_messages"]]
    sim = metrics.get("sim_makespan_s")
    if sim is not None and min(sim["values"]) != max(sim["values"]):
        failed += 1  # simulated time must not depend on the host
        messages.append("sim_makespan_s differs between rounds")
    metrics["failed_ratio"] = {"value": failed / attempted, "n": attempted}
    metrics["ops_per_round"] = {"value": children[0]["ops_per_round"], "n": len(rounds)}

    layer = {}
    if trace:
        layer = {key: 0.0 for key in PER_LAYER_NAMES}
        unknown = set(children[0]["layer"]) - set(layer)
        if unknown:
            raise BenchmarkError(f"{name}: metrics missing from the catalogue: {sorted(unknown)}")
        layer.update(children[0]["layer"])
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failure_messages": messages[:10],
        "metrics": metrics,
        "layer": layer,
        "layer_self_s": children[0]["layer_self_s"],
        "setup_detail": {
            key: statistics.median(c["setup_detail"][key] for c in children)
            for key in children[0]["setup_detail"]
        },
        "oracle_s": oracle_s,
    }


def contract_line(record: dict) -> str:
    """The one-line JSON result the driver reads (last line of stdout)."""
    if record["traced"]:
        metrics = {k: {"value": record["layer"][k], "unit": METRICS[k].unit}
                   for k in PER_LAYER_NAMES}
    else:
        metrics = {k: {"value": record["metrics"][k]["value"], "unit": METRICS[k].unit}
                   for k in END_TO_END_NAMES}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def print_record(record: dict, out=sys.stdout) -> None:
    """Every metric by name, with its unit."""
    name = record["workload"]
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {name}  seed={record['seed']}  {mode}  "
          f"ops={record['attempted']} failed={record['failed']}", file=out)
    for message in record["failure_messages"]:
        print(f"   FAILED: {message}", file=out)
    if record["traced"]:
        for key in PER_LAYER_NAMES:
            if record["layer"][key]:
                print(f"   {key:42s} {record['layer'][key]:>16.6g} {METRICS[key].unit}", file=out)
        selfs = record["layer_self_s"]
        root = selfs.get("root", 0.0)
        if root:
            parts = "  ".join(f"{layer}={t / root:.1%}" for layer, t in sorted(selfs.items())
                              if layer != "root")
            print(f"   self time by layer (sums to the {root:.4f} s root span): {parts}",
                  file=out)
    else:
        for key, m in record["metrics"].items():
            spread = f"[{m['q25']:.6g} .. {m['q75']:.6g}]" if "q25" in m else ""
            print(f"   {key:42s} {m['value']:>16.6g} {METRICS[key].unit:6s} "
                  f"{spread} n={m['n']}", file=out)
        detail = "  ".join(f"{k}={v:.3f}" for k, v in record["setup_detail"].items())
        print(f"   set-up detail (s): {detail}  oracle_s={record['oracle_s']:.3f}", file=out)


def _first_line(command: list[str]) -> Optional[str]:
    try:
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def provenance(seed: int) -> dict:
    """What was measured, and on what: enough to tell two result files
    of different programs or machines apart."""
    import hashlib

    import numpy
    import scipy
    from repro.semiring.backends import get_backend
    from repro.semiring.backends.cnative import find_c_compiler

    cc = find_c_compiler()
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    kernel_source = SRC / "repro" / "semiring" / "backends" / "cnative.py"
    return {
        "seed": seed,
        "git_commit": _first_line(["git", "rev-parse", "HEAD"]),
        "backend": get_backend("cnative").describe(),
        "cc": cc,
        "cc_version": _first_line([cc, "--version"]) if cc else None,
        # The compile flags and the kernel text live in this file.
        "cnative_py_sha256": hashlib.sha256(kernel_source.read_bytes()).hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: "1" for var in THREAD_ENV},
    }
