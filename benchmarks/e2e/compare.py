"""``compare A.json B.json``: is B no worse than A, metric by metric?

One row per (workload, metric).  Each bounded metric is judged by its own
direction and bound; a metric whose spread is wider than its bound is
*unresolved*, not unchanged, unless every sample of B reads better than
every sample of A.  Exact metrics (simulated time, op counts, layer
counts) must be identical.  Nothing is ever combined into one score.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .catalogue import END_TO_END, PER_LAYER, WORKLOAD_METRICS


def _spread(summary: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    if "q25" not in summary or not summary["value"]:
        return 0.0
    return abs(summary["q75"] - summary["q25"]) / abs(summary["value"])


def _worse_by(metric, a: float, b: float) -> float:
    """How much worse B is than A as a share of A (negative = better)."""
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def _all_better(metric, a: dict, b: dict) -> bool:
    if "values" not in a or "values" not in b:
        return False
    if metric.better == "lower":
        return max(b["values"]) < min(a["values"])
    return min(b["values"]) > max(a["values"])


def judge(metric, a: dict, b: dict) -> tuple[str, str]:
    """``(status, detail)`` for one bounded or exact metric."""
    if metric.exact:
        if a["value"] == b["value"]:
            return "identical", f"{a['value']:.9g}"
        return "REGRESSION", f"exact metric differs: {a['value']!r} -> {b['value']!r}"
    worse = _worse_by(metric, a["value"], b["value"])
    detail = (f"{a['value']:.6g} -> {b['value']:.6g} {metric.unit} "
              f"({-worse:+.1%} {'better' if worse < 0 else 'worse'}, bound {metric.bound:.0%}, "
              f"IQR A {_spread(a):.1%} B {_spread(b):.1%})")
    if max(_spread(a), _spread(b)) > metric.bound and not _all_better(metric, a, b):
        return "unresolved", detail
    if worse > metric.bound:
        return "REGRESSION", detail
    return ("better" if worse < -metric.bound else "ok"), detail


def compare(path_a: Path, path_b: Path, out=sys.stdout) -> int:
    a_doc = json.loads(Path(path_a).read_text())
    b_doc = json.loads(Path(path_b).read_text())
    regressions = 0
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            print(f"{name:22s} {'(all)':34s} MISSING in {path_b}", file=out)
            regressions += 1
            continue
        for metric in END_TO_END + WORKLOAD_METRICS:
            if metric.name not in a["end_to_end"]:
                continue
            if metric.name not in b["end_to_end"]:
                status, detail = "REGRESSION", "metric missing from B"
            else:
                status, detail = judge(metric, a["end_to_end"][metric.name],
                                       b["end_to_end"][metric.name])
            regressions += status == "REGRESSION"
            print(f"{name:22s} {metric.name:34s} {status:11s} {detail}", file=out)
        for metric in PER_LAYER:
            va, vb = a["per_layer"].get(metric.name), b["per_layer"].get(metric.name)
            if va is None or vb is None or (va == 0 and vb == 0):
                continue
            if metric.exact:
                status, detail = judge(metric, {"value": va}, {"value": vb})
                regressions += status == "REGRESSION"
            else:
                change = (vb - va) / abs(va) if va else float("inf")
                status, detail = "layer", f"{va:.6g} -> {vb:.6g} {metric.unit} ({change:+.1%})"
            print(f"{name:22s} {metric.name:34s} {status:11s} {detail}", file=out)
    print(f"{regressions} regression(s)", file=out)
    return 1 if regressions else 0
