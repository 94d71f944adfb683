"""Tests for the public entry point (:mod:`repro.api`).

Covers the facade's contract: ``solve()`` equals the engine, the
frozen ``SolveConfig``, each ``from_env`` precedence rule (explicit >
environment > default) for the two environment knobs, sink validation
before solving (exit code 12), and the public export list.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np
import pytest

import repro
from repro.api import ObsSinks, SolveConfig, resolve_machine, solve
from repro.core import apsp
from repro.errors import ConfigurationError, SinkError
from repro.graphs import uniform_random_dense


@pytest.fixture(scope="module")
def graph():
    return uniform_random_dense(24, seed=7)


CLUSTER = dict(block_size=4, n_nodes=2, ranks_per_node=3)


class TestSolveFacade:
    def test_matches_engine(self, graph):
        via_engine = apsp(graph, variant="async", **CLUSTER)
        via_facade = solve(graph, SolveConfig(variant="async", **CLUSTER))
        assert via_facade.report.elapsed == via_engine.report.elapsed
        np.testing.assert_array_equal(via_facade.dist, via_engine.dist)

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
        cfg = SolveConfig.from_env(environ=env, kernel_backend="reference")
        assert cfg.kernel_backend == "reference"

    def test_backend_env_beats_default(self):
        cfg = SolveConfig.from_env(environ={"REPRO_SRGEMM_BACKEND": "tiled"})
        assert cfg.kernel_backend == "tiled"

    def test_backend_default_when_unset(self):
        cfg = SolveConfig.from_env(environ={})
        assert cfg.kernel_backend is None  # engine resolves "reference"

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
    def test_engine_path_does_not_warn(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            apsp(graph, variant="baseline", **CLUSTER)

    def test_public_all_exports(self):
        for name in ("solve", "SolveConfig", "ObsSinks", "ApspResult", "Variant",
                     "FaultPlan", "SinkError"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
        assert not hasattr(repro, "apsp")  # the deprecated shim is gone
