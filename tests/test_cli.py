"""Tests for the repro-apsp command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import load_matrix, save_matrix, uniform_random_dense


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.variant == "async"
        assert args.n == 128
        assert args.nodes == 1

    def test_bad_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--variant", "bogus"])


class TestCommands:
    def test_variants_lists_all(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        for v in ("baseline", "pipelined", "reordering", "async", "offload"):
            assert v in out

    def test_placement_diagram(self, capsys):
        assert main(["placement", "--pr", "4", "--pc", "6", "--qr", "2", "--qc", "3"]) == 0
        out = capsys.readouterr().out
        assert "K=2x2" in out

    def test_solve_small_with_validation(self, capsys):
        rc = main(
            [
                "solve", "--n", "24", "--block", "4", "--nodes", "2",
                "--ranks-per-node", "2", "--variant", "async", "--validate",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "validation: OK" in out
        assert "simulated time" in out

    def test_solve_with_density_and_trace(self, capsys):
        rc = main(
            [
                "solve", "--n", "20", "--block", "4", "--density", "0.4",
                "--nodes", "1", "--ranks-per-node", "2", "--trace",
            ]
        )
        assert rc == 0
        assert "per-category busy time" in capsys.readouterr().out

    def test_solve_io_roundtrip(self, tmp_path, capsys):
        w = uniform_random_dense(16, seed=1)
        inp = tmp_path / "in.npz"
        outp = tmp_path / "out.npz"
        save_matrix(inp, w)
        rc = main(
            [
                "solve", "--input", str(inp), "--block", "4", "--nodes", "1",
                "--ranks-per-node", "2", "--output", str(outp),
            ]
        )
        assert rc == 0
        dist = load_matrix(outp)
        from repro.graphs import floyd_warshall

        assert np.allclose(dist, floyd_warshall(w))

    def test_tune(self, capsys):
        rc = main(["tune", "--n", "300000", "--nodes", "64", "--ranks-per-node", "12"])
        assert rc == 0
        assert "predicted" in capsys.readouterr().out

    def test_tune_offload_shows_eq5(self, capsys):
        rc = main(
            ["tune", "--n", "300000", "--nodes", "64", "--ranks-per-node", "12",
             "--offload"]
        )
        assert rc == 0
        assert "Eq. 5" in capsys.readouterr().out

    def test_offload_variant_cli(self, capsys):
        rc = main(
            [
                "solve", "--n", "16", "--block", "4", "--nodes", "1",
                "--ranks-per-node", "2", "--variant", "offload", "--validate",
            ]
        )
        assert rc == 0

    def test_analyze(self, tmp_path, capsys):
        rc = main(
            [
                "solve", "--n", "24", "--block", "4", "--nodes", "1",
                "--ranks-per-node", "2", "--output", str(tmp_path / "d.npz"),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["analyze", str(tmp_path / "d.npz"), "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "diameter" in out and "top closeness" in out

    def test_machine_preset(self, capsys):
        rc = main(
            [
                "solve", "--n", "16", "--block", "4", "--nodes", "1",
                "--ranks-per-node", "2", "--machine", "frontier-like", "--validate",
            ]
        )
        assert rc == 0

    def test_paths_and_sparse_flags(self, capsys):
        rc = main(
            [
                "solve", "--n", "16", "--block", "4", "--nodes", "1",
                "--ranks-per-node", "2", "--density", "0.3", "--paths",
                "--sparse", "--validate",
            ]
        )
        assert rc == 0


class TestFaultFlags:
    ARGS = ["solve", "--n", "48", "--block", "8", "--nodes", "2", "--ranks-per-node", "2"]

    def test_faults_flag_prints_counters(self, capsys):
        rc = main(
            self.ARGS
            + ["--faults", "drop:src=0,dst=1,nth=1", "--recv-timeout", "5e-4", "--validate"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault injection / recovery:" in out
        assert "faults.dropped" in out and "faults.retransmits" in out

    def test_chaos_run_validates(self, capsys):
        rc = main(
            self.ARGS
            + [
                "--faults", "crash:rank=1,at=1.5e-4",
                "--faults", "nic:node=0,factor=4,t0=0,t1=2e-4",
                "--recv-timeout", "5e-4", "--checkpoint-interval", "2", "--validate",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults.restarts" in out
        assert "validation: OK" in out

    def test_fault_plan_env_var(self, capsys, monkeypatch):
        from repro.faults import FAULT_PLAN_ENV, FaultPlan

        plan = FaultPlan.from_specs(["dup:src=0,dst=1,nth=1"])
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        rc = main(self.ARGS + ["--validate"])
        assert rc == 0
        assert "faults.duplicates_suppressed" in capsys.readouterr().out


class TestExitCodes:
    """Each error class maps to a distinct, stable exit code."""

    def test_bad_fault_spec_is_fault_plan_error(self, capsys):
        rc = main(
            ["solve", "--n", "16", "--block", "4", "--nodes", "1",
             "--ranks-per-node", "2", "--faults", "explode:rank=0"]
        )
        assert rc == 13
        assert "error:" in capsys.readouterr().err

    def test_invalid_weights_is_validation_error(self, tmp_path, capsys):
        w = uniform_random_dense(16, seed=0)
        w[3, 4] = np.nan
        path = tmp_path / "bad.npz"
        save_matrix(path, w)
        rc = main(
            ["solve", "--input", str(path), "--block", "4", "--nodes", "1",
             "--ranks-per-node", "2"]
        )
        assert rc == 3
        assert "NaN" in capsys.readouterr().err

    def test_unrecovered_crash_is_rank_failure(self, capsys):
        rc = main(
            ["solve", "--n", "48", "--block", "8", "--nodes", "2",
             "--ranks-per-node", "2", "--faults", "crash:rank=1,at=1.5e-4",
             "--faults", "policy:restarts=0"]
        )
        assert rc == 8
        assert "rank" in capsys.readouterr().err

    def test_mapping_is_ordered_most_specific_first(self):
        from repro.errors import (
            BackendUnavailableError,
            CheckpointError,
            CommTimeoutError,
            ConfigurationError,
            GpuOutOfMemory,
            NegativeCycleError,
            RankFailure,
            ReproError,
            ValidationError,
            exit_code_for,
        )

        assert exit_code_for(ConfigurationError("x")) == 2
        assert exit_code_for(ValidationError("x")) == 3
        assert exit_code_for(NegativeCycleError(0, -1.0)) == 4
        assert exit_code_for(GpuOutOfMemory(100, 10, 50)) == 5
        # BackendUnavailableError subclasses ConfigurationError but keeps
        # its own code.
        assert exit_code_for(BackendUnavailableError("cnative", "no C compiler")) == 6
        assert exit_code_for(CommTimeoutError("x", rank=0, src=1, tag=2)) == 7
        assert exit_code_for(RankFailure("x")) == 8
        assert exit_code_for(CheckpointError("x")) == 9
        assert exit_code_for(ReproError("x")) == 1
        # FaultPlanError subclasses ConfigurationError but keeps its own
        # code, and InternalError marks unexpected (non-Repro) bugs.
        from repro.errors import FaultPlanError, InternalError

        assert exit_code_for(FaultPlanError("x")) == 13
        assert exit_code_for(InternalError(ValueError("boom"))) == 14
        # The serving layer's failure classes (docs/SERVING.md).
        from repro.errors import ArtifactError, QueryError

        assert exit_code_for(ArtifactError("p", "bad")) == 17
        assert exit_code_for(QueryError("x")) == 18

    def test_every_error_class_has_its_own_code_row_and_doc_line(self):
        # Each ReproError subclass, at any depth: an exit code no other
        # class (nor the generic 1) has, its own row in the mapping, and
        # a line with that code in the module docstring's table.
        import inspect
        import re

        import repro.errors as errors

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        classes = set(subclasses(errors.ReproError))
        rows = dict(errors._EXIT_CODE_TABLE)
        doc = {name: int(code) for name, code
               in re.findall(r"^(\w+) +(\d+)$", errors.__doc__, re.M)}
        codes = {}
        for cls in sorted(classes, key=lambda c: c.__name__):
            # One 0 per required argument builds any of them.
            params = list(inspect.signature(cls.__init__).parameters.values())[1:]
            required = [p for p in params
                        if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD]
            code = errors.exit_code_for(cls(*[0] * len(required)))
            assert rows.get(cls) == code, cls.__name__
            assert doc.get(cls.__name__) == code, cls.__name__
            codes[cls.__name__] = code
        assert len(classes) >= 17
        assert 1 not in codes.values()
        assert len(set(codes.values())) == len(codes), codes
        assert errors.exit_code_for(errors.ReproError("x")) == 1


class TestServeQueryCLI:
    @pytest.fixture()
    def artifact(self, tmp_path):
        path = tmp_path / "art"
        rc = main(
            ["serve", "build", str(path), "--n", "32", "--block", "8",
             "--artifact-block", "8", "--nodes", "2", "--ranks-per-node", "2",
             "--density", "0.4"]
        )
        assert rc == 0
        return path

    def test_build_and_info(self, artifact, capsys):
        assert main(["serve", "info", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "n=32" in out
        assert "graph payload: yes" in out

    def test_query_pairs_nearest_submatrix(self, artifact, capsys):
        rc = main(
            ["query", str(artifact), "--pair", "0,31", "--pair", "5,7",
             "--nearest", "0,3", "--submatrix", "0,1:2,3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "d(0, 31) =" in out
        assert "nearest to 0" in out
        assert "cache:" in out

    def test_query_metrics_out(self, artifact, tmp_path, capsys):
        sink = tmp_path / "m.json"
        rc = main(["query", str(artifact), "--pair", "1,2",
                   "--metrics-out", str(sink)])
        assert rc == 0
        import json

        payload = json.loads(sink.read_text())
        # --pair goes through the batch path; counters are lazy, so the
        # untouched point counter is simply absent.
        assert "serve.queries.point" not in payload["metrics"]
        assert payload["metrics"]["serve.queries.batch"]["value"] == 1
        assert payload["serve"]["cache"]["misses"] == 1

    def test_update_edges(self, artifact, capsys):
        rc = main(["serve", "update", str(artifact), "--edge", "0,9,0.0001"])
        assert rc == 0
        assert "1 fast" in capsys.readouterr().out
        rc = main(["query", str(artifact), "--pair", "0,9"])
        assert rc == 0
        assert "d(0, 9) = 0.0001" in capsys.readouterr().out

    def test_info_counts_logged_edits(self, artifact, capsys):
        assert main(["serve", "update", str(artifact), "--edge", "0,9,0.0001",
                     "--edge", "3,4,0.0002"]) == 0
        capsys.readouterr()
        assert main(["serve", "info", str(artifact)]) == 0
        assert "graph payload: yes, 2 logged edit(s)" in capsys.readouterr().out

    def test_unreadable_version_exits_17(self, artifact, capsys):
        import json

        manifest = artifact / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["version"] = 3
        manifest.write_text(json.dumps(doc))
        assert main(["serve", "info", str(artifact)]) == 17
        assert "unsupported artifact version 3" in capsys.readouterr().err

    def test_update_resolve_with_malformed_budget_exits_2(self, artifact, capsys, monkeypatch):
        # Raising a tight edge runs the kernel (a repair), which reads the budget.
        assert main(["serve", "update", str(artifact), "--edge", "0,5,0.001"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_SRGEMM_BYTE_BUDGET", "abc")
        assert main(["serve", "update", str(artifact), "--edge", "0,5,50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $REPRO_SRGEMM_BYTE_BUDGET") and "'abc'" in err

    def test_missing_artifact_exits_17(self, tmp_path, capsys):
        rc = main(["query", str(tmp_path / "nope"), "--pair", "0,1"])
        assert rc == 17
        assert "artifact" in capsys.readouterr().err

    def test_bad_query_exits_18(self, artifact, capsys):
        assert main(["query", str(artifact), "--pair", "0,999"]) == 18
        assert main(["query", str(artifact), "--pair", "zero,one"]) == 18
        assert main(["query", str(artifact), "--submatrix", "0,1"]) == 18
        assert main(["query", str(artifact), "--submatrix", "0-2:3,4"]) == 18
        assert main(["serve", "update", str(artifact), "--edge", "1,2"]) == 18

    def test_corrupt_artifact_exits_17(self, artifact, capsys):
        blk = sorted((artifact / "blocks").glob("*.blk"))[0]
        raw = bytearray(blk.read_bytes())
        raw[-1] ^= 0xFF
        blk.write_bytes(bytes(raw))
        rc = main(["query", str(artifact), "--submatrix",
                   ",".join(map(str, range(32))) + ":" + ",".join(map(str, range(32)))])
        assert rc == 17
        assert "CRC32" in capsys.readouterr().err
