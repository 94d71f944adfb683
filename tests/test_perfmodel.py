"""Tests for the analytic performance models and tuning, including
agreement between the models and the simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.machine import SUMMIT
from repro.perfmodel import (
    OffloadStageCosts,
    best_grid,
    best_node_grid,
    min_offload_block_size,
    oog_pipeline_cost,
    oog_stage_costs,
    parallel_fw_cost,
    predict_runtime,
    recommend_block_size,
    recommend_streams,
    refined_comm_cost,
    tune,
)


class TestEq1:
    def test_terms(self, cost):
        br = parallel_fw_cost(cost, n=100_000, b=768, p_r=24, p_c=32, gpus_share=2)
        # Compute: 2n^3 / (P/2 GPUs) / rate(768)
        expected_comp = 2 * 1e15 / (24 * 32 / 2) / cost.srgemm_rate(768)
        assert br.compute == pytest.approx(expected_comp)
        # Latency: 2 (n/b) t_l
        assert br.latency == pytest.approx(2 * (100_000 / 768) * cost.internode_latency)
        # Bandwidth: t_w n^2 (1/Pr + 1/Pc) bytes
        assert br.bandwidth == pytest.approx(
            1e10 * 4 * (1 / 24 + 1 / 32) / 25e9
        )
        assert br.total == pytest.approx(br.compute + br.latency + br.bandwidth)

    def test_compute_scales_inverse_with_ranks(self, cost):
        small = parallel_fw_cost(cost, 50_000, 768, 8, 8)
        big = parallel_fw_cost(cost, 50_000, 768, 16, 16)
        assert small.compute == pytest.approx(4 * big.compute)

    def test_larger_block_reduces_latency_term(self, cost):
        a = parallel_fw_cost(cost, 50_000, 256, 8, 8)
        b = parallel_fw_cost(cost, 50_000, 1024, 8, 8)
        assert b.latency < a.latency


class TestRefinedCommModel:
    def test_formula(self, cost):
        t = refined_comm_cost(cost, n=10_000, p_r=8, p_c=8, q_r=2, q_c=2)
        assert t == pytest.approx((1e8 * 4) * (2 / 8 + 2 / 8) / 25e9)

    def test_square_tile_beats_flat_tile(self, cost):
        """Q_r ≈ Q_c minimizes per-node volume (Eq. 2)."""
        flat = refined_comm_cost(cost, 10_000, 8, 8, 1, 4)
        square = refined_comm_cost(cost, 10_000, 8, 8, 2, 2)
        assert square < flat

    def test_one_rank_per_node_reduces_to_eq1(self, cost):
        base = parallel_fw_cost(cost, 10_000, 768, 8, 8).bandwidth
        refined = refined_comm_cost(cost, 10_000, 8, 8, 1, 1)
        assert refined == pytest.approx(base)


class TestOffloadModel:
    def test_stage_costs(self, cost):
        st = oog_stage_costs(cost, m=10_000, n=10_000, k=768)
        assert st.srgemm == pytest.approx(2 * 1e8 * 768 / cost.srgemm_rate(768))
        assert st.transfer == pytest.approx(
            (1e8 + 2 * 768 * 10_000) * 4 / 50e9
        )
        assert st.host_update == pytest.approx(3 * 1e8 * 4 / SUMMIT.node.dram_bw)

    def test_pipeline_composition(self):
        st = OffloadStageCosts(srgemm=5.0, transfer=3.0, host_update=1.0)
        assert oog_pipeline_cost(st, 1) == 9.0
        # Two streams: best pairing is max(5, 3+1) = 5.
        assert oog_pipeline_cost(st, 2) == 5.0
        assert oog_pipeline_cost(st, 3) == 5.0

    def test_two_streams_suboptimal_case(self):
        st = OffloadStageCosts(srgemm=3.0, transfer=3.0, host_update=3.0)
        assert oog_pipeline_cost(st, 2) == 6.0
        assert oog_pipeline_cost(st, 3) == 3.0

    def test_min_block_size_eq5(self, cost):
        """Eq. 5 with the paper's constants: a few hundred, below the
        practical 768 (its §5.3.1 discussion)."""
        k = min_offload_block_size(cost)
        assert 250 <= k <= 768
        # Per-rank NVLink share doubles the floor.
        assert min_offload_block_size(cost, link_share=4) == pytest.approx(2 * k)

    def test_big_block_is_compute_bound(self, cost):
        """Above the Eq. 5 floor, t0 dominates t1 and t2."""
        k = 2 * min_offload_block_size(cost)
        st = oog_stage_costs(cost, 50_000, 50_000, k)
        assert st.srgemm >= st.transfer
        assert st.srgemm >= st.host_update


class TestTuning:
    def test_best_grid(self):
        assert best_grid(768) == (24, 32)
        assert best_grid(64) == (8, 8)

    def test_best_node_grid_square(self, cost):
        q_r, q_c, t = best_node_grid(cost, 100_000, 24, 32, 12)
        assert (q_r, q_c) == (3, 4)
        assert t > 0

    def test_best_node_grid_invalid(self, cost):
        with pytest.raises(ValueError):
            best_node_grid(cost, 1000, 5, 5, 4)

    def test_recommended_block_in_plateau(self, cost):
        b = recommend_block_size(cost, 300_000, 24, 32)
        assert 512 <= b <= 2048

    def test_offload_floor_respected(self, cost):
        b = recommend_block_size(cost, 300_000, 24, 32, offload=True)
        assert b >= min_offload_block_size(cost)

    def test_recommend_streams(self, cost):
        # Compute-dominant tile: already saturated with 1 stream?  The
        # helper returns the smallest count hitting the 3-stream bound.
        s_small = recommend_streams(cost, 2048, 2048, 2048)
        s_typical = recommend_streams(cost, 20_000, 20_000, 768)
        assert 1 <= s_small <= 3
        assert 1 <= s_typical <= 3

    def test_predict_runtime_overlap_vs_not(self, cost):
        over = predict_runtime(cost, 50_000, 768, 16, 16, 2, 2, overlap=True)
        sync = predict_runtime(cost, 50_000, 768, 16, 16, 2, 2, overlap=False)
        assert over.total <= sync.total

    def test_tune_end_to_end(self, cost):
        rep = tune(cost, 300_000, 64, 12)
        assert rep.p_r * rep.p_c == 768
        assert rep.p_r % rep.q_r == 0 and rep.p_c % rep.q_c == 0
        assert rep.q_r * rep.q_c == 12
        assert rep.block_size >= 128
        assert rep.predicted.total > 0
        assert "grid" in rep.summary()


class TestModelAgainstSimulator:
    """The headline sanity check: simulated runs land near Eq. 1."""

    def run_sim(self, variant, nb=48, nodes=4, rpn=4, scale=768.0):
        w = np.zeros((nb, nb), dtype=np.float32)
        res = solve(
            w,
            variant=variant,
            block_size=1,
            n_nodes=nodes,
            ranks_per_node=rpn,
            dim_scale=scale,
            compute_numerics=False,
            collect=False,
        )
        return res.report

    def test_async_close_to_overlap_model(self, cost):
        rep = self.run_sim("async")
        r = rep
        pred = predict_runtime(
            cost,
            n=r.n_virtual,
            b=768,
            p_r=r.grid_pr,
            p_c=r.grid_pc,
            q_r=2,
            q_c=2,
            gpus_share=1,
            overlap=True,
        )
        # Within 2x of the ideal overlap model (the sim pays real
        # pipeline fill, diagonal chains and stragglers).
        assert pred.total * 0.8 <= rep.elapsed <= pred.total * 2.2

    def test_baseline_close_to_sum_model(self, cost):
        rep = self.run_sim("baseline")
        pred = predict_runtime(
            cost,
            n=rep.n_virtual,
            b=768,
            p_r=rep.grid_pr,
            p_c=rep.grid_pc,
            q_r=1,
            q_c=4,
            gpus_share=1,
            overlap=False,
        )
        assert pred.total * 0.5 <= rep.elapsed <= pred.total * 2.5

    def test_baseline_slower_than_async(self):
        assert self.run_sim("baseline").elapsed > self.run_sim("async").elapsed


class TestComputeBoundThreshold:
    """§5.2.2: 'On 64 nodes, 120k is the theoretical estimate of the
    smallest problem size when Floyd-Warshall becomes compute-bound.'"""

    def test_paper_configuration_magnitude(self, cost):
        from repro.perfmodel import compute_bound_threshold

        # With the launcher-default (contiguous 1x12) placement the
        # estimate lands at ~82k; with the optimal placement ~49k -
        # both the same order as the paper's ~120k (their estimate
        # assumes an effective broadcast bandwidth below the raw NIC
        # line, which shifts the crossover up).
        n_star = compute_bound_threshold(cost, 64, 12, q_r=1, q_c=12)
        assert 40_000 < n_star < 250_000

    def test_threshold_scales_with_machine(self, cost):
        from repro.machine import FRONTIER_LIKE, CostModel
        from repro.perfmodel import compute_bound_threshold

        # Faster kernels + faster NIC: Frontier's crossover moves, and
        # in the direction the rate/bandwidth ratio says.
        summit = compute_bound_threshold(cost, 16, 8)
        frontier = compute_bound_threshold(CostModel(FRONTIER_LIKE), 16, 8)
        ratio_rates = (
            CostModel(FRONTIER_LIKE).srgemm_rate(768) / cost.srgemm_rate(768)
        )
        ratio_bw = FRONTIER_LIKE.node.nic_bw / 25e9
        # 8 ranks land on 8 GCDs on Frontier but share 6 GPUs on Summit.
        ratio_gpus = 8 / 6
        assert frontier == pytest.approx(
            summit * ratio_rates * ratio_gpus / ratio_bw, rel=0.05
        )

    def test_matches_simulated_crossover(self, cost):
        """Self-consistency: the async variant's advantage over the
        baseline peaks near the predicted n* and decays beyond it."""
        from repro.perfmodel import compute_bound_threshold

        n_star = compute_bound_threshold(cost, 16, 8)
        nbs = (16, 24, 32, 48, 64, 96)
        gaps = {}
        for nb in nbs:
            w = np.zeros((nb, nb), dtype=np.float32)
            t = {}
            for v in ("baseline", "async"):
                t[v] = solve(
                    w, variant=v, block_size=1, n_nodes=16, ranks_per_node=8,
                    dim_scale=768.0, compute_numerics=False, collect=False,
                ).report.elapsed
            gaps[nb * 768] = t["baseline"] / t["async"]
        peak_n = max(gaps, key=gaps.get)
        assert 0.5 * n_star <= peak_n <= 2.5 * n_star
        # Beyond the threshold the gap decays.
        beyond = [n for n in gaps if n > 2 * n_star]
        if beyond:
            assert gaps[max(beyond)] < gaps[peak_n]
