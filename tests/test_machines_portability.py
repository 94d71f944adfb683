"""Tests for the non-Summit machine presets (the paper's §7 claim that
the models and algorithms port to other accelerated architectures)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.graphs import floyd_warshall
from repro.machine import (
    FRONTIER_LIKE,
    MACHINES,
    SUMMIT,
    WORKSTATION,
    CostModel,
)
from repro.perfmodel import min_offload_block_size, recommend_streams, tune


class TestPresets:
    def test_registry(self):
        assert set(MACHINES) == {"summit", "frontier-like", "workstation"}

    def test_frontier_outmuscles_summit(self):
        assert FRONTIER_LIKE.node_peak_flops() > 3 * SUMMIT.node_peak_flops()
        assert FRONTIER_LIKE.node.nic_bw > SUMMIT.node.nic_bw

    def test_workstation_single_node(self):
        assert WORKSTATION.max_nodes == 1


class TestModelPortability:
    def test_eq5_floor_tracks_link_speed(self):
        """The offload block-size floor moves with the host link: a
        PCIe box needs much larger blocks than NVLink'd Summit."""
        floor = {m.name: min_offload_block_size(CostModel(m))
                 for m in (SUMMIT, FRONTIER_LIKE, WORKSTATION)}
        assert floor["workstation"] > 3 * floor["summit"]
        # Frontier's faster link is offset by its faster kernels: the
        # floor stays in the same few-hundred range.
        assert 0.5 * floor["summit"] < floor["frontier-like"] < 2 * floor["summit"]

    def test_tuner_runs_on_every_machine(self):
        for m in (SUMMIT, FRONTIER_LIKE, WORKSTATION):
            nodes = min(4, m.max_nodes)
            rep = tune(CostModel(m), 50_000, nodes, 4)
            assert rep.predicted.total > 0

    def test_frontier_predicted_faster_than_summit(self):
        t_s = tune(CostModel(SUMMIT), 300_000, 64, 12).predicted.total
        t_f = tune(CostModel(FRONTIER_LIKE), 300_000, 64, 16).predicted.total
        assert t_f < t_s

    def test_stream_recommendation_varies(self):
        # On the PCIe box transfers are slow: at small blocks offload
        # needs every stream; Summit saturates earlier.
        s_ws = recommend_streams(CostModel(WORKSTATION), 20_000, 20_000, 512)
        assert 1 <= s_ws <= 3


class TestEndToEndOnOtherMachines:
    @pytest.mark.parametrize("machine", [FRONTIER_LIKE, WORKSTATION])
    def test_all_variants_correct(self, machine, dense24):
        ref = floyd_warshall(dense24)
        nodes = min(2, machine.max_nodes)
        for variant in ("baseline", "async", "offload"):
            res = solve(dense24, variant=variant, block_size=4, n_nodes=nodes,
                        ranks_per_node=4, machine=machine)
            assert np.allclose(res.dist, ref), (machine.name, variant)

    def test_frontier_simulated_faster_than_summit(self):
        w = np.zeros((48, 48), dtype=np.float32)
        kw = dict(block_size=1, n_nodes=4, ranks_per_node=4, dim_scale=768.0,
                  compute_numerics=False, collect=False)
        t_s = solve(w, variant="async", machine=SUMMIT, **kw).report.elapsed
        t_f = solve(w, variant="async", machine=FRONTIER_LIKE, **kw).report.elapsed
        assert t_f < t_s

    def test_workstation_peak_memory_wall_lower(self):
        """24 GB HBM per GPU but only one node: the wall is reachable."""
        from repro.errors import GpuOutOfMemory

        w = np.zeros((192, 192), dtype=np.float32)
        # n = 196,608 virtual: the per-rank local matrix (38.7 GB)
        # exceeds the 24 GB cards, while the four ranks together
        # (155 GB) still fit the 256 GB host DRAM.
        with pytest.raises(GpuOutOfMemory):
            solve(w, variant="async", block_size=1, n_nodes=1, ranks_per_node=4,
                  machine=WORKSTATION, dim_scale=1024.0,
                  compute_numerics=False, collect=False)
        # Offload still goes through (panels + tiles only on the GPU).
        res = solve(w, variant="offload", block_size=1, n_nodes=1, ranks_per_node=4,
                    machine=WORKSTATION, dim_scale=1024.0,
                    compute_numerics=False, collect=False,
                    mx_blocks=8, nx_blocks=8)
        assert res.report.elapsed > 0
