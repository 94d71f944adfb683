"""Tests for the public entry point (:mod:`repro.api`).

Covers the facade's contract: the frozen ``SolveConfig`` is the whole
solve vocabulary (semiring and placement included, through ``solve``
and ``submit`` alike), each ``from_env`` precedence rule (explicit >
environment > default) for the two environment knobs, sink validation
before solving (exit code 12), and the public export list.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro
from repro.api import ObsSinks, SolveConfig, config_to_jsonable, resolve_machine, solve
from repro.core import ProcessGrid, RankPlacement, blocked_fw, tiled_placement
from repro.errors import ConfigurationError, SinkError
from repro.graphs import uniform_random_dense
from repro.semiring import INF, MAX_MIN


@pytest.fixture(scope="module")
def graph():
    return uniform_random_dense(24, seed=7)


CLUSTER = dict(block_size=4, n_nodes=2, ranks_per_node=3)


def _run_both(graph, config):
    """The same config through ``repro.solve`` and ``repro.submit``."""
    return solve(graph, config), repro.submit(graph, config).result()


class TestSolveFacade:
    @pytest.mark.parametrize("semiring", ["max_min", MAX_MIN])
    def test_semiring_by_name_and_object(self, semiring):
        """The bottleneck semiring of test_distributed_variants, set on
        the config: solve and submit both match the sequential oracle
        bit for bit."""
        cap = np.random.default_rng(1).uniform(1, 100, (12, 12))
        np.fill_diagonal(cap, INF)
        cfg = SolveConfig(variant="pipelined", block_size=3, n_nodes=2,
                          ranks_per_node=2, semiring=semiring,
                          check_negative_cycles=False)
        ref = blocked_fw(cap, 3, semiring=MAX_MIN, check_negative_cycles=False)
        for result in _run_both(cap, cfg):
            np.testing.assert_array_equal(result.dist, ref)

    def test_explicit_placement(self, graph):
        """A 2x2 intranode tile where async picks 1x4: the run reports
        the requested tile, its internode volume differs from the
        default's, and it stays bit-exact - identically under submit."""
        cfg = SolveConfig(variant="async", block_size=4, n_nodes=2,
                          ranks_per_node=4, grid=(2, 4))
        pl = tiled_placement(ProcessGrid(2, 4), 2, 2)
        default = solve(graph, cfg)
        ref = blocked_fw(graph, 4)
        placed, submitted = _run_both(graph, cfg.replace(placement=pl))
        for result in (placed, submitted):
            assert (result.report.placement_qr, result.report.placement_qc) == (2, 2)
            np.testing.assert_array_equal(result.dist, ref)
        assert submitted.makespan == placed.makespan
        assert (default.report.placement_qr, default.report.placement_qc) == (1, 4)
        assert placed.report.internode_bytes != default.report.internode_bytes

    def test_bad_semiring_and_placement_rejected(self, graph):
        with pytest.raises(ConfigurationError, match="known:.*'min_plus'"):
            solve(graph, semiring="min_pls")
        with pytest.raises(ConfigurationError, match="got int"):
            solve(graph, semiring=3)
        with pytest.raises(ConfigurationError, match="RankPlacement, got dict"):
            solve(graph, placement={"qr": 1, "qc": 2})
        with pytest.raises(ConfigurationError, match="known:"):
            repro.sched.ClusterScheduler().submit(graph, semiring="nope")

    HOLLOW = dict(compute_numerics=False, collect=False)

    @pytest.mark.parametrize("fields, message", [
        (dict(block_size=0), r"block size must be >= 1, got 0"),
        (dict(n_streams=0), r"n_streams must be >= 1, got 0"),
        (dict(mx_blocks=0), r"offload tile must be at least one block"),
        (dict(nx_blocks=0), r"offload tile must be at least one block"),
        (dict(ring_segments=0), r"ring_segments must be >= 1, got 0"),
        (dict(exploit_sparsity=True, **HOLLOW),
         r"exploit_sparsity needs compute_numerics=True"),
        (dict(exploit_sparsity=True, variant="offload"),
         r"exploit_sparsity is not supported by the offload schedule"),
        (dict(track_paths=True, semiring="max_min"),
         r"track_paths requires the \(min,\+\) semiring"),
        (dict(track_paths=True, variant="offload-pipelined"),
         r"track_paths is not supported by the offload schedule"),
        (dict(verify="sometimes"),
         r"verify must be 'off', 'checksum' or 'full', got 'sometimes'"),
        (dict(verify="checksum", **HOLLOW),
         r"verification needs compute_numerics=True"),
        (dict(verify="checksum", semiring="plus_times"),
         r"ABFT checksums require an idempotent ⊕ .*plus_times is not"),
    ])
    def test_option_rules_refuse_before_any_simulation(
        self, graph, monkeypatch, fields, message
    ):
        """The cross-field rules of the one config, from both entry
        points, with the planner as the only thing that has run."""
        sched = repro.sched.ClusterScheduler(n_nodes=2)

        def built(*args, **kwargs):
            raise AssertionError("a simulation object was built before validation")

        monkeypatch.setattr("repro.core.driver.SimMPI", built)
        monkeypatch.setattr("repro.core.driver.MachineHandles.create", built)
        monkeypatch.setattr("repro.sim.engine.Environment.process", built)
        config = SolveConfig(**{**CLUSTER, **fields})
        with pytest.raises(ConfigurationError, match=message):
            solve(graph, config)
        with pytest.raises(ConfigurationError, match=message):
            sched.submit(graph, config)

    def test_jsonable_semiring_and_placement(self):
        pl = tiled_placement(ProcessGrid(3, 2), 1, 2)
        cfg = SolveConfig(semiring=MAX_MIN, grid=(3, 2), placement=pl)
        doc = json.loads(json.dumps(config_to_jsonable(cfg)))
        assert doc["semiring"] == "max_min"
        assert config_to_jsonable(SolveConfig())["semiring"] == "min_plus"
        assert config_to_jsonable(SolveConfig())["placement"] is None
        assert RankPlacement(ProcessGrid(*doc["grid"]), doc["placement"]["qr"],
                             doc["placement"]["qc"],
                             tuple(doc["placement"]["rank_to_node"])) == pl

    def test_overrides_on_top_of_config(self, graph):
        base = SolveConfig(variant="baseline", **CLUSTER)
        result = solve(graph, base, variant="offload")
        assert result.report.variant == "offload"

    def test_default_config(self, graph):
        result = solve(graph)
        assert result.report.variant == "async"
        assert result.dist is not None

    def test_result_vocabulary(self, graph):
        result = solve(graph, SolveConfig(**CLUSTER, obs=ObsSinks(metrics=True)))
        assert result.makespan == result.report.elapsed
        assert result.certificate is None  # verify off
        assert result.faults is None  # no plan armed
        assert result.metrics is not None
        assert result.report.makespan == result.report.elapsed

    def test_grid_tuple(self, graph):
        result = solve(graph, SolveConfig(**CLUSTER, grid=(3, 2)))
        assert (result.report.grid_pr, result.report.grid_pc) == (3, 2)

    def test_rejects_non_config(self, graph):
        with pytest.raises(ConfigurationError):
            solve(graph, config={"variant": "async"})

    def test_unknown_override_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            solve(graph, SolveConfig(), block_sze=4)

    def test_config_is_frozen(self):
        cfg = SolveConfig()
        with pytest.raises(Exception):
            cfg.variant = "offload"

    def test_replace_derives(self):
        cfg = SolveConfig(variant="baseline").replace(variant="offload")
        assert cfg.variant == "offload"
        assert SolveConfig().replace() == SolveConfig()

    def test_resolve_machine(self):
        from repro.machine import MACHINES

        spec = resolve_machine("summit")
        assert spec is MACHINES["summit"]
        assert resolve_machine(spec) is spec
        with pytest.raises(ConfigurationError):
            resolve_machine("not-a-machine")
        with pytest.raises(ConfigurationError):
            resolve_machine(42)


class TestFromEnvPrecedence:
    """One test per precedence rule, per knob (explicit > env > default)."""

    def test_backend_explicit_beats_env(self):
        env = {"REPRO_SRGEMM_BACKEND": "tiled"}
        cfg = SolveConfig.from_env(environ=env, kernel_backend="cnative")
        assert cfg.kernel_backend == "cnative"

    def test_backend_env_beats_default(self):
        cfg = SolveConfig.from_env(environ={"REPRO_SRGEMM_BACKEND": "tiled"})
        assert cfg.kernel_backend == "tiled"

    def test_backend_default_when_unset(self):
        cfg = SolveConfig.from_env(environ={})
        assert cfg.kernel_backend is None  # engine resolves "cnative", else "tiled"

    ENV_PLAN = json.dumps(
        {"message_faults": [{"kind": "drop", "src": 0, "dst": 1, "nth": 1}]}
    )

    def test_fault_plan_explicit_beats_env(self):
        cfg = SolveConfig.from_env(
            environ={"REPRO_FAULT_PLAN": self.ENV_PLAN},
            fault_plan="drop:src=1,dst=0,nth=2",
        )
        assert cfg.fault_plan == "drop:src=1,dst=0,nth=2"

    def test_fault_plan_env_beats_default(self):
        cfg = SolveConfig.from_env(environ={"REPRO_FAULT_PLAN": self.ENV_PLAN})
        from repro.faults import FaultPlan

        assert isinstance(cfg.fault_plan, FaultPlan)
        assert len(cfg.fault_plan.message_faults) == 1
        assert cfg.fault_plan.message_faults[0].kind == "drop"

    def test_fault_plan_default_when_unset(self):
        cfg = SolveConfig.from_env(environ={})
        assert cfg.fault_plan is None

    def test_reads_process_env_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SRGEMM_BACKEND", "tiled")
        assert SolveConfig.from_env().kernel_backend == "tiled"


class TestSinkValidation:
    def test_unwritable_dir_raises_before_solve(self, graph, tmp_path):
        cfg = SolveConfig(obs=ObsSinks(metrics_out=str(tmp_path / "no" / "m.json")))
        with pytest.raises(SinkError) as ei:
            solve(graph, cfg)
        assert "does not exist" in str(ei.value)

    def test_directory_target_rejected(self, tmp_path):
        with pytest.raises(SinkError):
            ObsSinks(trace_out=str(tmp_path)).validate()

    def test_good_paths_pass(self, tmp_path):
        ObsSinks(metrics_out=str(tmp_path / "m.json"), trace_out=str(tmp_path / "t.json")).validate()

    def test_enabled_property(self):
        assert not ObsSinks().enabled
        assert ObsSinks(metrics=True).enabled
        assert ObsSinks(trace_out="x.json").enabled

    def test_cli_exit_code_12(self, tmp_path):
        from repro.cli import main

        code = main(["solve", "--n", "8", "--metrics-out", str(tmp_path / "no" / "m.json")])
        assert code == 12

    def test_cli_profile_validates_derived_sinks_first(self, tmp_path):
        from repro.cli import main

        code = main(["profile", "--n", "8", "--trace-out", str(tmp_path / "no" / "t.json")])
        assert code == 12

    def test_sinks_written_by_solve(self, graph, tmp_path):
        mpath, tpath = tmp_path / "m.json", tmp_path / "t.json"
        solve(graph, SolveConfig(**CLUSTER, obs=ObsSinks(metrics_out=str(mpath), trace_out=str(tpath))))
        metrics = json.loads(mpath.read_text())
        assert metrics["run"]["variant"] == "async"
        assert metrics["metrics"]["comm.internode.bytes"]["value"] > 0
        from repro.obs import validate_chrome_trace

        assert validate_chrome_trace(json.loads(tpath.read_text())) > 0


class TestDeprecatedEntryPoint:
    def test_public_all_exports(self):
        for name in ("solve", "SolveConfig", "ObsSinks", "ApspResult", "Variant",
                     "FaultPlan", "SinkError"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_keyword_engine_is_gone(self):
        import repro.core

        assert not hasattr(repro, "apsp")
        assert not hasattr(repro.core, "apsp")
