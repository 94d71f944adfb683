"""Tests for the observability layer (:mod:`repro.obs`).

The load-bearing guarantee is *zero cost when off*: a run without
metrics/tracing must be event-for-event identical to the pre-obs
engine.  The recorded constants below were captured from the engine
before the obs layer existed; if any of them moves, the None-slot
hooks leaked cost into the simulation.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from repro import ObsSinks, solve
from repro.graphs import uniform_random_dense
from repro.obs import (
    MeteredBackend,
    MetricsRegistry,
    chrome_trace,
    text_timeline,
    validate_chrome_trace,
)
from repro.semiring.backends import get_backend

#: (makespan, sha256(dist)) recorded from the pre-obs engine for
#: uniform_random_dense(30, seed=3), b=5, 2 nodes x 3 ranks.
RECORDED = {
    "baseline": (0.0002740077794117649, "c1f95e788147ac98e0d9dd9a049b115a5252b438ca87c18962c158d9a0788f9c"),
    "pipelined": (0.000346252455882353, "c1f95e788147ac98e0d9dd9a049b115a5252b438ca87c18962c158d9a0788f9c"),
    "reordering": (0.000346252455882353, "c1f95e788147ac98e0d9dd9a049b115a5252b438ca87c18962c158d9a0788f9c"),
    "async": (0.00034372901838235296, "c1f95e788147ac98e0d9dd9a049b115a5252b438ca87c18962c158d9a0788f9c"),
    "offload": (0.0003222435441176473, "c1f95e788147ac98e0d9dd9a049b115a5252b438ca87c18962c158d9a0788f9c"),
    "offload-pipelined": (0.00034917284558823536, "c1f95e788147ac98e0d9dd9a049b115a5252b438ca87c18962c158d9a0788f9c"),
}


@pytest.fixture(scope="module")
def graph():
    return uniform_random_dense(30, seed=3)


def _run(graph, variant, metrics=False, **kw):
    return solve(graph, variant=variant, block_size=5, n_nodes=2, ranks_per_node=3,
                 obs=ObsSinks(metrics=metrics), **kw)


class TestZeroCostWhenOff:
    @pytest.mark.parametrize("variant", sorted(RECORDED))
    def test_metrics_off_matches_pre_obs_recording(self, graph, variant):
        expected_makespan, expected_digest = RECORDED[variant]
        result = _run(graph, variant)
        assert result.report.elapsed == expected_makespan
        assert hashlib.sha256(result.dist.tobytes()).hexdigest() == expected_digest
        assert result.metrics is None
        assert result.report.metrics is None

    @pytest.mark.parametrize("variant", sorted(RECORDED))
    def test_metrics_on_is_makespan_bit_identical(self, graph, variant):
        expected_makespan, expected_digest = RECORDED[variant]
        result = _run(graph, variant, metrics=True)
        assert result.report.elapsed == expected_makespan
        assert hashlib.sha256(result.dist.tobytes()).hexdigest() == expected_digest

    def test_trace_plus_metrics_still_bit_identical(self, graph):
        result = _run(graph, "async", metrics=True, trace=True)
        assert result.report.elapsed == RECORDED["async"][0]


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7.0)
        for x in (1.0, 3.0):
            reg.histogram("h").observe(x)
        assert reg.value("c") == 3.5
        assert reg.value("g") == 7.0
        h = reg.get("h")
        assert h.count == 2 and h.sum == 4.0 and h.min == 1.0 and h.max == 3.0
        assert h.mean == 2.0

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_flat_and_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.histogram("h").observe(5.0)
        reg.label("backend", "reference")
        flat = reg.flat()
        assert flat["a"] == 2.0
        assert flat["h.count"] == 1.0 and flat["h.sum"] == 5.0
        parsed = json.loads(reg.to_json())
        assert parsed["labels"]["backend"] == "reference"
        assert parsed["metrics"]["a"]["kind"] == "counter"


class TestMeteredBackend:
    def test_counts_flops_and_is_numerically_transparent(self):
        inner = get_backend("reference")
        reg = MetricsRegistry()
        metered = MeteredBackend(reg, inner)
        assert metered.name == inner.name
        assert metered.modeled_cost_scale == inner.modeled_cost_scale
        rng = np.random.default_rng(0)
        a, b = rng.random((4, 6)), rng.random((6, 5))
        c = np.full((4, 5), np.inf)
        expect = np.min(a[:, :, None] + b[None, :, :], axis=1)
        metered.srgemm_grid([[c]], [a], [b])
        np.testing.assert_allclose(c, expect)
        assert reg.value("kernel.srgemm.calls") == 1
        assert reg.value("kernel.srgemm.flops") == 2 * 4 * 5 * 6
        assert reg.value("kernel.flops") == 2 * 4 * 5 * 6
        assert reg.labels["kernel.backend"] == inner.name


class TestRunMetricsContent:
    def test_comm_kernel_and_phase_metrics(self, graph):
        result = _run(graph, "async", metrics=True)
        reg = result.metrics
        flat = reg.flat()
        # transport: per-scope totals match the MPI world's accounting
        assert flat["comm.internode.bytes"] > 0
        assert flat["comm.internode.bytes"] + flat["comm.intranode.bytes"] == (
            pytest.approx(result.report.internode_bytes + result.report.intranode_bytes)
        )
        # per-class counters cover the four broadcast classes
        for cls in ("diag_row", "diag_col", "panel_row", "panel_col"):
            assert flat[f"comm.{cls}.messages"] > 0
        # kernel flops flow through the metered backend
        assert flat["kernel.flops"] > 0
        assert flat["kernel.srgemm.calls"] > 0
        # executor phase histograms exist for the min-plus outer product
        assert any(k.startswith("phase.") for k in flat)
        # finalize: run gauges mirror the report
        assert reg.value("run.makespan") == result.report.elapsed
        assert reg.labels["run.variant"] == "async"

    def test_offload_oog_counters(self, graph):
        result = _run(graph, "offload", metrics=True)
        flat = result.metrics.flat()
        assert flat["oog.tiles"] > 0
        assert flat["oog.h2d_bytes_virtual"] > 0

    def test_verify_counters_flow_through(self, graph):
        result = _run(graph, "async", metrics=True, verify="checksum")
        flat = result.metrics.flat()
        assert flat["verify.ops_checked"] > 0
        assert result.report.elapsed > 0


class TestChromeTraceExport:
    def test_schema_round_trip(self, graph):
        result = _run(graph, "pipelined", trace=True)
        obj = chrome_trace(result.tracer)
        # serialize -> parse -> validate, as a consumer would
        parsed = json.loads(json.dumps(obj))
        n_events = validate_chrome_trace(parsed)
        assert n_events == sum(1 for e in parsed["traceEvents"] if e["ph"] == "X")
        assert n_events > 0
        # every span of the tracer made it across, in microseconds
        assert n_events == len(result.tracer.spans)
        xs = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        span0 = result.tracer.spans[0]
        match = [e for e in xs if e["name"] == span0.label and e["ts"] == pytest.approx(span0.start * 1e6)]
        assert match and match[0]["dur"] == pytest.approx(span0.duration * 1e6)
        # thread metadata names every actor
        names = {e["args"]["name"] for e in parsed["traceEvents"] if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {s.actor for s in result.tracer.spans} <= names

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"no": "traceEvents"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": -1.0, "dur": 1.0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Q", "name": "x", "pid": 1, "tid": 1}]})

    def test_text_timeline(self, graph):
        result = _run(graph, "baseline", trace=True)
        text = text_timeline(result.tracer)
        actor = result.tracer.spans[0].actor
        assert actor in text
        one = text_timeline(result.tracer, actor=actor)
        assert actor in one and len(one) <= len(text)


class TestPerfModelValidation:
    @pytest.fixture(scope="class")
    def profile(self):
        from repro.obs.validation import run_profile

        w = uniform_random_dense(36, seed=1)
        return run_profile(w, block_size=6, n_nodes=2, ranks_per_node=3)

    def test_fitted_rel_error_is_finite_and_small(self, profile):
        rows = profile.report.eq1_fitted
        assert len(rows) == 3
        for row in rows:
            assert math.isfinite(row.rel_err)
            assert abs(row.rel_err) < 0.5  # fitted constants track the sim
        # machine-spec rows exist too (huge error expected at toy n)
        assert all(math.isfinite(r.rel_err) for r in profile.report.eq1)

    def test_constants_fitted_from_signal(self, profile):
        c = profile.report.constants
        assert c.t_f > 0 and c.t_w > 0 and c.t_l >= 0
        assert "t_f" in c.fitted and "t_w" in c.fitted

    def test_eq5_row_for_offload(self, profile):
        assert profile.report.eq5_k_min > 0
        offload_rows = [r for r in profile.report.eq5 if "offload" in r["variant"]]
        assert offload_rows and "satisfied" in offload_rows[0]

    def test_report_serializes(self, profile):
        d = json.loads(json.dumps(profile.report.to_dict()))
        assert d["machine"] == "summit"
        assert len(d["eq1_fitted"]) == 3
        assert d["constants"]["t_f"] > 0

    def test_summary_mentions_each_model(self, profile):
        s = profile.report.summary()
        assert "Eq. 1" in s and "3.4.1" in s and "Eq. 5" in s
