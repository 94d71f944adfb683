"""Cross-cutting invariants: full-run determinism (identical schedules
for identical inputs) and the reporting surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.graphs import uniform_random_dense


def run(variant="async", trace=False, **kw):
    w = uniform_random_dense(32, seed=9)
    return solve(
        w,
        variant=variant,
        block_size=kw.pop("block_size", 4),
        n_nodes=kw.pop("n_nodes", 2),
        ranks_per_node=kw.pop("ranks_per_node", 4),
        trace=trace,
        **kw,
    )


class TestDeterminism:
    @pytest.mark.parametrize("variant",
                             ["baseline", "pipelined", "async", "offload"])
    def test_identical_runs_identical_schedules(self, variant):
        a = run(variant, dim_scale=512.0)
        b = run(variant, dim_scale=512.0)
        assert a.report.elapsed == b.report.elapsed  # bit-exact, not approx
        assert a.report.messages == b.report.messages
        assert a.report.internode_bytes == b.report.internode_bytes
        assert np.array_equal(a.dist, b.dist)

    def test_trace_does_not_change_schedule(self):
        plain = run("async", dim_scale=512.0)
        traced = run("async", trace=True, dim_scale=512.0)
        assert traced.report.elapsed == plain.report.elapsed

    def test_path_tracking_same_distances(self):
        plain = run("async")
        tracked = run("async", track_paths=True)
        assert np.array_equal(plain.dist, tracked.dist)

    def test_trace_span_times_within_run(self):
        res = run("pipelined", trace=True, dim_scale=512.0)
        for span in res.tracer.spans:
            assert 0.0 <= span.start <= span.end <= res.report.elapsed + 1e-12


class TestReporting:
    def test_breakdown_with_trace(self):
        res = run("pipelined", trace=True, dim_scale=512.0)
        text = res.report.breakdown(res.tracer)
        assert "SrGemm" in text
        assert "overlap" in text

    def test_breakdown_without_trace(self):
        res = run("pipelined")
        assert "no trace" in res.report.breakdown(res.tracer)

    def test_counters_match_spans(self):
        res = run("baseline", trace=True, dim_scale=512.0)
        n_srgemm_spans = len(res.tracer.spans_by_category("SrGemm"))
        assert res.report.counters["SrGemm.count"] == n_srgemm_spans

    def test_busy_never_exceeds_makespan(self):
        res = run("async", trace=True, dim_scale=512.0)
        for actor in res.tracer.actors():
            assert res.tracer.busy_time(actor) <= res.report.elapsed + 1e-12
