"""All optional features at once: the flags must compose.

One run with path tracking + sparsity exploitation + segmented ring +
stragglers on a structured graph, against the oracle - the kind of
configuration a downstream user will eventually construct.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.extensions import path_length, reconstruct_path
from repro.graphs import banded_graph, floyd_warshall, ring_of_cliques


def everything_on(w, variant="async", **kw):
    return solve(
        w,
        variant=variant,
        block_size=5,
        n_nodes=2,
        ranks_per_node=4,
        track_paths=True,
        exploit_sparsity=True,
        ring_segments=3,
        stragglers={1: 2.5},
        trace=True,
        **kw,
    )


class TestAllFlagsTogether:
    @pytest.mark.parametrize("variant", ["baseline", "pipelined", "reordering", "async"])
    def test_correct_distances(self, variant):
        w = banded_graph(30, 3, seed=4)
        res = everything_on(w, variant)
        ref = floyd_warshall(w)
        assert np.allclose(
            np.where(np.isinf(res.dist), -1, res.dist),
            np.where(np.isinf(ref), -1, ref),
        )

    def test_paths_still_valid(self):
        w = ring_of_cliques(4, 7)
        res = everything_on(w)
        for i in (0, 9, 27):
            for j in (3, 15, 20):
                if i == j:
                    continue
                p = reconstruct_path(res.next_hops, i, j)
                assert p is not None
                assert path_length(w, p) == pytest.approx(res.dist[i, j])

    def test_report_and_trace_populated(self):
        w = banded_graph(24, 2, seed=8)
        res = everything_on(w)
        assert res.report.messages > 0
        assert res.tracer.spans
        assert res.report.breakdown(res.tracer)

    @given(st.integers(0, 10**5), st.integers(10, 26))
    @settings(max_examples=10, deadline=None)
    def test_property_all_flags_match_oracle(self, seed, n):
        w = banded_graph(n, 2, seed=seed)
        res = everything_on(w)
        ref = floyd_warshall(w)
        assert np.allclose(
            np.where(np.isinf(res.dist), -1, res.dist),
            np.where(np.isinf(ref), -1, ref),
        )
