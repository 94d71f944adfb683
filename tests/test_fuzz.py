"""Tests for the coverage-driven scenario fuzzer (repro/fuzz/).

Covers the tentpole acceptance criteria:

* a planted corrupted kernel backend (registered only for the test) is
  found by a fixed-seed 200-scenario budget, shrunk to a minimal
  repro, and the repro replays bit-exact from the scenario database;
* the clean build passes the same fixed-seed 200-scenario budget with
  zero oracle violations;

plus unit coverage of the generator, sandboxed executor, oracle
families, delta-debugging shrinker, corpus, coverage map, and the
``fuzz`` CLI subcommand.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, InternalError
from repro.fuzz import (
    Corpus,
    CorpusRecord,
    CoverageMap,
    FuzzSession,
    GeneratorConfig,
    GraphSpec,
    OracleSuite,
    Outcome,
    Scenario,
    ScenarioExecutor,
    ScenarioGenerator,
    bit_exact_backends,
    run_scenario,
    shrink,
)
from repro.fuzz.executor import HARD_CRASH_EXIT_CODE, TIMEOUT_EXIT_CODE

# Deterministic budgets: CI smoke uses the same seeds.
CLEAN_SEED = 2026
PLANTED_SEED = 5


def small_scenario(**overrides):
    base = dict(
        graph=GraphSpec(kind="uniform", n=12, seed=3),
        variant="async",
        block_size=4,
        kernel_backend="tiled",
        machine="workstation",
        n_nodes=1,
        ranks_per_node=2,
        verify="checksum",
    )
    base.update(overrides)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# scenario identity
# ---------------------------------------------------------------------------


class TestScenario:
    def test_round_trip_and_content_addressed_id(self):
        sc = small_scenario(fault_specs=("straggler:rank=1,factor=2.5",))
        again = Scenario.from_dict(json.loads(json.dumps(sc.to_dict())))
        assert again == sc
        assert again.scenario_id == sc.scenario_id
        assert sc.replace(fault_seed=sc.fault_seed + 1).scenario_id != sc.scenario_id

    def test_from_dict_rejects_unknown_keys(self):
        raw = small_scenario().to_dict()
        raw["bogus"] = 1
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            Scenario.from_dict(raw)
        raw = small_scenario().to_dict()
        raw["graph"]["bogus"] = 1
        with pytest.raises(ConfigurationError, match="unknown graph keys"):
            Scenario.from_dict(raw)

    def test_graph_spec_validation(self):
        with pytest.raises(ConfigurationError, match="unknown graph kind"):
            GraphSpec(kind="mystery", n=8)
        with pytest.raises(ConfigurationError, match="rows"):
            GraphSpec(kind="grid-road", n=9, rows=2, cols=2)

    def test_fault_classes_exclude_policy(self):
        sc = small_scenario(
            fault_specs=("drop:nth=1", "crash:rank=0,at=0.1", "policy:timeout=0.001")
        )
        assert sc.fault_classes() == ("crash", "drop")
        assert small_scenario().fault_classes() == ("none",)

    def test_graph_builds_are_deterministic(self):
        g = GraphSpec(kind="erdos-renyi", n=16, seed=9, density=0.4)
        assert np.array_equal(g.build(), g.build())


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_same_seed_same_stream(self):
        gen = ScenarioGenerator(seed=4)
        a = [gen.draw() for _ in range(10)]
        b = ScenarioGenerator(seed=4)
        assert [s.scenario_id for s in a] == [b.draw().scenario_id for _ in range(10)]
        c = ScenarioGenerator(seed=5)
        assert [s.scenario_id for s in a] != [c.draw().scenario_id for _ in range(10)]

    def test_generated_scenarios_satisfy_invariants(self):
        gen = ScenarioGenerator(seed=1)
        pool = set(bit_exact_backends())
        for _ in range(80):
            sc = gen.draw()
            assert sc.kernel_backend in pool
            assert 2 <= sc.block_size <= sc.graph.n
            ranks = sc.n_nodes * sc.ranks_per_node
            kinds = [s.partition(":")[0] for s in sc.fault_specs]
            # message faults must arm a retransmit deadline, or the
            # run is a designed deadlock
            if {"drop", "dup", "corrupt"} & set(kinds):
                assert any(k == "policy" and "timeout=" in s
                           for k, s in zip(kinds, sc.fault_specs))
            # every spec parses through the hardened parser
            plan = sc.fault_plan()
            if plan is not None:
                for f in plan.stragglers + plan.crashes + plan.ooms:
                    assert 0 <= f.rank < ranks
                for w in plan.nic_windows:
                    assert 0 <= w.node < sc.n_nodes

    def test_bit_exact_pool_excludes_f32(self):
        assert "tiled-f32" not in bit_exact_backends()
        assert "tiled" in bit_exact_backends()

    def test_coverage_bias_prefers_cold_cells(self):
        cov = CoverageMap()
        cfg = GeneratorConfig(
            variants=("baseline",), fault_classes=("none", "straggler"),
            verify_modes=("off", "full"), p_faulted=1.0,
        )
        # pre-heat every cell except (baseline, straggler, full)
        for f in ("none", "straggler"):
            for m in ("off", "full"):
                if (f, m) != ("straggler", "full"):
                    for _ in range(50):
                        cov.registry.counter(cov._cell("baseline", f, m)).inc()
        gen = ScenarioGenerator(seed=0, config=cfg, coverage=cov)
        hits = sum(
            1
            for _ in range(40)
            if (lambda s: "straggler" in s.fault_classes() and s.verify == "full")(
                gen.draw()
            )
        )
        assert hits > 20  # ~10 expected unbiased, ~37 biased

    def test_multi_class_scenarios_are_drawn_and_legal(self):
        """Some armed scenarios stack several fault classes; every
        stacked draw still parses, keeps per-class invariants (message
        faults arm a deadline even as companions), and emits exactly
        one merged policy spec."""
        cfg = GeneratorConfig(p_faulted=1.0, p_multi_fault=1.0)
        gen = ScenarioGenerator(seed=3, config=cfg)
        multi = 0
        for _ in range(60):
            sc = gen.draw()
            classes = [c for c in sc.fault_classes() if c != "none"]
            if len(classes) > 1:
                multi += 1
            n_policies = sum(1 for s in sc.fault_specs if s.startswith("policy:"))
            assert n_policies <= 1
            if {"drop", "dup", "corrupt"} & set(classes):
                assert any("timeout=" in s for s in sc.fault_specs
                           if s.startswith("policy:"))
            sc.fault_plan()  # parses through the hardened parser
        assert multi > 20  # p_multi_fault=1.0: every armed draw stacks

    def test_multi_fault_off_keeps_single_class(self):
        cfg = GeneratorConfig(p_faulted=1.0, p_multi_fault=0.0)
        gen = ScenarioGenerator(seed=3, config=cfg)
        for _ in range(30):
            classes = [c for c in gen.draw().fault_classes() if c != "none"]
            assert len(classes) == 1


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


class TestExecutor:
    def test_ok_outcome_carries_digests(self):
        out = run_scenario(small_scenario())
        assert out.ok and out.exit_code == 0
        assert out.dist_digest and out.makespan > 0
        assert out.certificate and out.certificate["mode"] == "checksum"
        assert out.measurement is not None
        again = Outcome.from_dict(json.loads(json.dumps(out.to_dict())))
        assert again.digest_key() == out.digest_key()

    def test_handled_error_keeps_table_exit_code(self):
        out = run_scenario(small_scenario(kernel_backend="no-such-backend"))
        assert out.status == "error"
        assert out.exit_code == 2  # ConfigurationError
        assert out.error_type == "ConfigurationError"
        assert out.traceback

    def test_unexpected_error_is_exit_14(self, monkeypatch):
        import repro.core.driver as driver

        def boom(*a, **k):
            raise ValueError("kaboom")

        monkeypatch.setattr(driver, "run_private", boom)
        out = run_scenario(small_scenario())
        assert out.status == "error" and out.exit_code == 14
        assert out.error_type == "InternalError"

    def test_isolated_run_matches_in_process(self):
        sc = small_scenario()
        inproc = run_scenario(sc)
        sandboxed = ScenarioExecutor(timeout=120.0, isolate=True).run(sc)
        assert sandboxed.digest_key() == inproc.digest_key()

    def test_isolated_timeout_is_exit_124(self):
        sc = small_scenario(
            graph=GraphSpec(kind="uniform", n=96, seed=0), block_size=4,
            machine="summit", n_nodes=2, ranks_per_node=4,
        )
        ex = ScenarioExecutor(timeout=0.01, isolate=True)
        out = ex.run(sc)
        assert out.status == "timeout" and out.exit_code == TIMEOUT_EXIT_CODE
        assert ex.kills == 1


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class TestOracles:
    def test_clean_scenario_has_no_violations(self):
        sc = small_scenario(check_determinism=True)
        assert OracleSuite().check(sc, run_scenario(sc)) == []

    def test_crash_family_flags_unexpected_exit_codes(self):
        suite = OracleSuite()
        sc = small_scenario()
        for code in (14, TIMEOUT_EXIT_CODE, HARD_CRASH_EXIT_CODE):
            v = suite.check(sc, Outcome(status="error", exit_code=code))
            assert [x.family for x in v] == ["crash"]
        # modeled failures (e.g. RankFailure exit 8) are not findings
        assert suite.check(sc, Outcome(status="error", exit_code=8)) == []

    def test_equivalence_catches_wrong_distances(self):
        sc = small_scenario()
        out = run_scenario(sc)
        forged = Outcome.from_dict({**out.to_dict(), "dist_digest": "0" * 24})
        v = OracleSuite().check(sc, forged)
        assert "equivalence" in [x.family for x in v]

    def test_certificate_consistency_rules(self):
        suite = OracleSuite()
        sc = small_scenario(verify="off")
        out = run_scenario(sc)
        assert out.certificate is None
        # verify=off with a certificate is a violation
        forged = Outcome.from_dict(
            {**out.to_dict(), "certificate": {"mode": "checksum", "passed": True}}
        )
        assert "certificate" in [x.family for x in suite.check(sc, forged)]
        # armed verify without a certificate is a violation
        sc2 = small_scenario(verify="checksum")
        out2 = run_scenario(sc2)
        forged2 = Outcome.from_dict({**out2.to_dict(), "certificate": None})
        assert "certificate" in [x.family for x in suite.check(sc2, forged2)]
        # detections on a run with no memory fault armed are a violation
        cert = dict(out2.certificate)
        cert["sdc_detected"] = 3
        forged3 = Outcome.from_dict({**out2.to_dict(), "certificate": cert})
        v = suite.check(sc2, forged3)
        assert any("no memory fault" in x.detail for x in v)

    def test_determinism_family_reruns(self):
        flip = {"n": 0}

        def flaky_runner(scenario):
            flip["n"] += 1
            out = run_scenario(scenario)
            out.dist_digest = f"run{flip['n']}"
            return out

        suite = OracleSuite(runner=flaky_runner)
        sc = small_scenario(check_determinism=True)
        out = flaky_runner(sc)
        v = suite.check(sc, out)
        assert "determinism" in [x.family for x in v]


# ---------------------------------------------------------------------------
# shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_minimization_preserves_the_failure_oracle(self):
        # Oracle: fails whenever a corrupt fault is armed.  The shrinker
        # must keep that property at every accepted step and in the
        # final minimal scenario.
        sc = small_scenario(
            graph=GraphSpec(kind="uniform", n=32, seed=1),
            block_size=8,
            n_nodes=2,
            ranks_per_node=2,
            variant="offload-pipelined",
            fault_specs=(
                "corrupt:nth=2,bits=2",
                "straggler:rank=1,factor=3",
                "nic:node=0,factor=2,t0=0,t1=0.1",
                "policy:timeout=0.001,retries=5",
            ),
            check_determinism=True,
        )
        seen = []

        def still_fails(candidate):
            seen.append(candidate)
            return any(s.startswith("corrupt") for s in candidate.fault_specs)

        result = shrink(sc, still_fails, max_evals=150)
        assert result.evals == len(seen) and result.steps
        minimal = result.scenario
        assert still_fails(minimal)
        # irrelevant faults dropped, the failing one kept
        kinds = {s.partition(":")[0] for s in minimal.fault_specs}
        assert "corrupt" in kinds
        assert "straggler" not in kinds and "nic" not in kinds
        # the retransmit policy survives while a message fault remains
        assert any(s.startswith("policy") and "timeout=" in s
                   for s in minimal.fault_specs)
        # strictly simpler execution
        assert minimal.graph.n < sc.graph.n
        assert minimal.n_nodes * minimal.ranks_per_node <= 2
        assert minimal.variant == "baseline"
        assert not minimal.check_determinism

    def test_shrinker_never_returns_a_passing_scenario(self):
        sc = small_scenario(fault_specs=("straggler:rank=0,factor=2",))
        result = shrink(sc, lambda c: "straggler" in c.fault_classes(), max_evals=60)
        assert "straggler" in result.scenario.fault_classes()

    def test_eval_budget_is_respected(self):
        sc = small_scenario(
            graph=GraphSpec(kind="uniform", n=40, seed=2), block_size=4
        )
        result = shrink(sc, lambda c: True, max_evals=7)
        assert result.evals <= 7


# ---------------------------------------------------------------------------
# the diag_on_gpu axis (§4.2's host DiagUpdate)
# ---------------------------------------------------------------------------


class TestHostDiagAxis:
    def test_default_keeps_the_scenario_id(self):
        sc = small_scenario()
        assert "diag_on_gpu" not in sc.to_dict()
        host = sc.replace(diag_on_gpu=False)
        assert host.to_dict()["diag_on_gpu"] is False
        assert host.scenario_id != sc.scenario_id
        assert Scenario.from_dict(json.loads(json.dumps(host.to_dict()))) == host
        assert host.to_solve_config().diag_on_gpu is False
        assert sc.to_solve_config().diag_on_gpu is True

    def test_drawn_host_diag_scenarios_pass_the_oracles(self):
        gen = ScenarioGenerator(seed=7)
        host = [sc for sc in (gen.draw() for _ in range(80)) if not sc.diag_on_gpu]
        lookahead = [sc for sc in host if sc.variant != "baseline"]
        assert lookahead
        suite = OracleSuite()
        for sc in lookahead[:4]:
            assert not suite.check(sc, run_scenario(sc)), sc.describe()

    def test_shrinker_restores_the_gpu_diag_unless_it_matters(self):
        sc = small_scenario(diag_on_gpu=False)
        restored = shrink(sc, lambda c: True)
        assert restored.scenario.diag_on_gpu
        assert "diag-on-gpu" in [name for name, _ in restored.steps]
        assert not shrink(sc, lambda c: not c.diag_on_gpu).scenario.diag_on_gpu


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


class TestCorpus:
    def test_append_get_replay(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        corpus = Corpus(path)
        sc = small_scenario()
        corpus.append(CorpusRecord(scenario=sc, outcome=run_scenario(sc)))
        rec = corpus.get(sc.scenario_id[:6])  # prefix lookup
        assert rec.scenario == sc
        replay = corpus.replay(sc.scenario_id)
        assert replay.bit_exact
        with pytest.raises(ConfigurationError, match="no scenario"):
            corpus.get("ffffffffffff")

    def test_add_deduplicates(self, tmp_path):
        corpus = Corpus(str(tmp_path / "c.jsonl"))
        rec = CorpusRecord(scenario=small_scenario())
        assert corpus.add(rec) is True
        assert corpus.add(rec) is False
        assert len(corpus.records()) == 1

    def test_replay_detects_digest_drift(self, tmp_path):
        corpus = Corpus(str(tmp_path / "c.jsonl"))
        sc = small_scenario()
        out = run_scenario(sc)
        out.dist_digest = "not-the-real-digest"
        corpus.append(CorpusRecord(scenario=sc, outcome=out))
        replay = corpus.replay(sc.scenario_id)
        assert not replay.bit_exact and "drift" in replay.detail

    def test_minimize_keeps_findings_only(self, tmp_path):
        from repro.fuzz import OracleViolation

        corpus = Corpus(str(tmp_path / "c.jsonl"))
        clean = CorpusRecord(scenario=small_scenario())
        finding = CorpusRecord(
            scenario=small_scenario(fault_seed=9),
            violations=[OracleViolation("equivalence", "boom")],
        )
        corpus.append(clean)
        corpus.append(finding)
        assert corpus.minimize() == 1
        kept = corpus.records()
        assert len(kept) == 1 and kept[0].is_finding


# ---------------------------------------------------------------------------
# coverage map + session
# ---------------------------------------------------------------------------


class TestSession:
    def test_coverage_map_counts_cells(self):
        cov = CoverageMap()
        cov.record(small_scenario(fault_specs=("straggler:rank=0,factor=2",)))
        cov.record(small_scenario(fault_specs=("straggler:rank=0,factor=2",)))
        assert cov.hits("async", "straggler", "checksum") == 2
        assert cov.summary()["cells_hit"] == 1

    def test_coverage_map_counts_class_pairs(self):
        cov = CoverageMap()
        cov.record(small_scenario(fault_specs=(
            "straggler:rank=0,factor=2", "crash:rank=0,at=1e-4",
            "policy:ckpt=1,restarts=2",
        )))
        # each class cell credited, plus the unordered pair cell
        assert cov.hits("async", "straggler", "checksum") == 1
        assert cov.hits("async", "crash", "checksum") == 1
        assert cov.pair_hits("async", "crash", "straggler", "checksum") == 1
        assert cov.pair_hits("async", "straggler", "crash", "checksum") == 1
        summary = cov.summary()
        assert summary["pair_cells_hit"] == 1 and summary["pair_hits"] == 1
        assert ("async", "crash+straggler", "checksum") in cov.pair_cells()
        # single-class records contribute no pair cells
        cov2 = CoverageMap()
        cov2.record(small_scenario(fault_specs=("straggler:rank=0,factor=2",)))
        assert cov2.summary()["pair_cells_hit"] == 0

    def test_small_session_is_clean_and_replayable(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        report = FuzzSession(budget=15, seed=8, corpus_path=path).run()
        assert report.executed == 15
        assert report.ok, report.summary()
        corpus = Corpus(path)
        assert len(corpus.records()) == 15
        for rep in corpus.replay_all():
            assert rep.bit_exact, rep.detail
        # metrics registry carries the session counters
        flat = report.coverage
        assert flat["hits"] >= 15

    def test_clean_build_passes_200_scenario_budget(self):
        # Tentpole acceptance: fixed-seed 200-scenario budget, zero
        # oracle violations on a clean tree.
        report = FuzzSession(budget=200, seed=CLEAN_SEED).run()
        assert report.executed == 200
        assert report.ok, report.summary()
        assert report.coverage["cells_hit"] > 80


# ---------------------------------------------------------------------------
# the planted corrupted backend (tentpole acceptance)
# ---------------------------------------------------------------------------


def make_planted_backend():
    """A kernel backend that silently corrupts the outer-product phase -
    the SDC the fuzzer must catch.  Registered only for the duration of
    the planted test.

    The corruption is *stateless* (same inputs -> same wrong output) so
    the minimal repro stays deterministic and replays bit-exact, and it
    *shrinks* an entry - a too-short distance survives every subsequent
    ``min`` accumulate, unlike an inflated one which a later relaxation
    can silently repair.
    """
    from repro.semiring import MIN_PLUS
    from repro.semiring.backends import TiledBackend

    class _Planted(TiledBackend):
        def srgemm_grid(self, c_tiles, a_rows, b_cols, semiring=MIN_PLUS, phase="outer",
                        hops=None):
            super().srgemm_grid(c_tiles, a_rows, b_cols, semiring, phase, hops)
            if phase == "outer":  # every outer-product tile
                for c in (c for c_row in c_tiles for c in c_row):
                    if np.isfinite(c[0, 0]) and c[0, 0] > 0:
                        c[0, 0] *= 0.75  # silent SDC: path shorter than possible
            return c_tiles

    return _Planted(name="planted-corrupt")


@pytest.fixture
def planted_backend():
    from repro.semiring import backends as registry

    backend = make_planted_backend()
    registry.register_backend(backend, overwrite=True)
    try:
        yield backend
    finally:
        registry._REGISTRY.pop("planted-corrupt", None)


class TestPlantedBackend:
    def test_fuzzer_finds_shrinks_and_replays_the_plant(
        self, planted_backend, tmp_path
    ):
        path = str(tmp_path / "corpus.jsonl")
        config = GeneratorConfig(
            backends=tuple(bit_exact_backends())  # includes the plant now
        )
        assert "planted-corrupt" in config.backends
        session = FuzzSession(
            budget=200,
            seed=PLANTED_SEED,
            corpus_path=path,
            generator_config=config,
            max_findings=4,
            shrink_max_evals=80,
        )
        report = session.run()

        # 1. found within the fixed 200-scenario budget
        assert not report.ok, "planted corruption was not detected"
        planted = [
            f for f in report.findings
            if f.scenario.kernel_backend == "planted-corrupt"
        ]
        assert planted, report.summary()
        finding = next(f for f in planted if f.shrunk is not None)

        # 2. shrunk to a minimal repro that still uses the plant and
        #    still fails the same oracle
        minimal = finding.shrunk.scenario
        assert minimal.kernel_backend == "planted-corrupt"
        assert minimal.graph.n <= finding.scenario.graph.n

        # 3. the minimal repro replays bit-exact from the scenario DB
        corpus = Corpus(path)
        record = corpus.get(minimal.scenario_id)
        assert record.shrunk_from == finding.scenario.scenario_id
        replay = corpus.replay(minimal.scenario_id)
        assert replay.bit_exact, replay.detail
        assert record.violations, "minimal repro record lost its violations"

    def test_plant_is_invisible_once_unregistered(self):
        assert "planted-corrupt" not in bit_exact_backends()


# ---------------------------------------------------------------------------
# InternalError wrapping (satellite)
# ---------------------------------------------------------------------------


class TestInternalErrorWrapping:
    def test_unexpected_exception_dumps_replayable_scenario(self, monkeypatch):
        import repro.core.driver as driver
        from repro.api import SolveConfig, solve

        def boom(*a, **k):
            raise RuntimeError("wild pointer")

        monkeypatch.setattr(driver, "run_private", boom)
        graph = GraphSpec(kind="uniform", n=8, seed=0).build()
        config = SolveConfig(variant="async", block_size=4, fault_plan=())
        with pytest.raises(InternalError) as info:
            solve(graph, config)
        err = info.value
        assert err.original_type == "RuntimeError"
        assert isinstance(err.__cause__, RuntimeError)
        # the embedded scenario JSON parses and names the config
        payload = json.loads(err.scenario_json)
        assert payload["variant"] == "async" and payload["block_size"] == 4

    @staticmethod
    def _plant_rank_program(monkeypatch, program):
        import repro.core.driver as driver

        monkeypatch.setattr(driver, "execute_schedule", program)

    @staticmethod
    def _raises_value_error(state, *args):
        raise ValueError("index out of range in a rank program")
        yield  # pragma: no cover - makes this a generator

    def test_rank_program_bug_through_submit_is_internal_error(self, monkeypatch):
        import repro

        self._plant_rank_program(monkeypatch, self._raises_value_error)
        graph = GraphSpec(kind="uniform", n=8, seed=0).build()
        shape = dict(variant="async", block_size=4, n_nodes=1, ranks_per_node=2)
        handle = repro.submit(graph, fault_plan=(), **shape)
        with pytest.raises(InternalError) as info:
            handle.result()
        err = info.value
        assert err.original_type == "ValueError"
        assert isinstance(err.__cause__, ValueError)
        assert handle.report().exit_code == 14
        # the embedded scenario names the config and replays the bug
        payload = json.loads(err.scenario_json)
        assert {k: payload[k] for k in shape} == shape
        with pytest.raises(InternalError, match="ValueError"):
            repro.solve(graph, **{k: payload[k] for k in shape})

    def test_fleet_bug_is_reported_by_the_crash_oracle(self, monkeypatch):
        self._plant_rank_program(monkeypatch, self._raises_value_error)
        sc = fleet_scenario()
        out = run_scenario(sc)
        assert out.status == "error" and out.exit_code == 14
        assert "InternalError" in out.error
        assert "crash" in [v.family for v in OracleSuite().check(sc, out)]

    @pytest.mark.parametrize("entry", ["solve", "submit"])
    def test_unarmed_deadlock_is_internal_error(self, monkeypatch, entry):
        """A rank program that blocks forever with no fault armed: the
        drained heap kicks the world and the bug surfaces as
        InternalError 14 from either entry point - no hang, no bare
        RuntimeError."""
        import repro

        def blocks_forever(state, *args):
            yield state.ctx.env.event()  # nobody will ever trigger it

        self._plant_rank_program(monkeypatch, blocks_forever)
        graph = GraphSpec(kind="uniform", n=8, seed=0).build()
        kw = dict(variant="async", block_size=4, n_nodes=1, ranks_per_node=2,
                  fault_plan=())
        if entry == "solve":
            with pytest.raises(InternalError) as info:
                repro.solve(graph, **kw)
        else:
            handle = repro.submit(graph, **kw)
            report = handle.wait()
            assert report.status == "failed" and report.exit_code == 14
            with pytest.raises(InternalError) as info:
                handle.result()
        assert info.value.original_type == "RuntimeError"
        assert "did not complete cleanly" in str(info.value)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFuzzCli:
    def test_run_replay_corpus_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "corpus.jsonl")
        rc = main(["fuzz", "run", "--budget", "6", "--seed", "8", "--corpus", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6/6 scenarios" in out and "clean" in out

        rc = main(["fuzz", "corpus", "ls", "--corpus", path])
        assert rc == 0
        listing = capsys.readouterr().out
        assert "6 record(s)" in listing

        some_id = Corpus(path).records()[0].scenario_id
        rc = main(["fuzz", "replay", some_id, "--corpus", path])
        assert rc == 0
        assert "BIT-EXACT" in capsys.readouterr().out

    def test_run_report_json(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        rc = main(
            ["fuzz", "run", "--budget", "4", "--seed", "8",
             "--report-json", str(report_path)]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert payload["executed"] == 4 and payload["ok"] is True

    def test_replay_unknown_id_exits_with_config_error(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "corpus.jsonl")
        Corpus(path).append(CorpusRecord(scenario=small_scenario()))
        rc = main(["fuzz", "replay", "ffffffffffff", "--corpus", path])
        assert rc == 2  # ConfigurationError
        capsys.readouterr()


# ---------------------------------------------------------------------------
# fleet scenarios (multi-job + resilience; PR 9)
# ---------------------------------------------------------------------------

RESILIENCE = {
    "retry": {"max_attempts": 3, "backoff_base": 0.002, "backoff_factor": 2.0,
              "jitter": 0.25, "seed": 99},
    "health": {"fault_threshold": 2, "probation": 0.02},
    "retry_budget": 16,
}


def fleet_scenario(**overrides):
    """A 3-job fleet where job 0/2 crash once (terminal for the attempt
    via policy:restarts=0) and re-admit from the ckpt=1 snapshot."""
    base = dict(
        fault_specs=("crash:rank=0,at=0.0001", "policy:restarts=0,ckpt=1"),
        fault_seed=21,
        jobs=3,
        resilience=dict(RESILIENCE),
    )
    base.update(overrides)
    return small_scenario(**base)


class TestFleetScenario:
    def test_fleet_round_trip_and_distinct_id(self):
        sc = fleet_scenario(deadline=2.0)
        again = Scenario.from_dict(json.loads(json.dumps(sc.to_dict())))
        assert again == sc and again.scenario_id == sc.scenario_id
        assert sc.is_fleet
        assert sc.replace(jobs=2).scenario_id != sc.scenario_id

    def test_pre_fleet_ids_are_stable(self):
        # Fleet fields must not leak into the canonical JSON at their
        # defaults, or every pre-fleet corpus id would shift.
        plain = small_scenario()
        raw = plain.to_dict()
        assert not {"jobs", "resilience", "deadline"} & set(raw)
        assert not plain.is_fleet

    def test_fleet_field_validation(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            small_scenario(jobs=0)
        with pytest.raises(ConfigurationError, match="deadline"):
            small_scenario(deadline=0.0, resilience=dict(RESILIENCE))
        # a deadline without the layer that enforces it is a config bug
        with pytest.raises(ConfigurationError, match="resilience"):
            small_scenario(deadline=1.0)
        # the policy dict is validated eagerly, not at run time
        with pytest.raises(Exception):
            small_scenario(resilience={"retry": {"max_attempts": "many"}})

    def test_job_graphs_are_distinct_but_deterministic(self):
        sc = fleet_scenario()
        assert sc.job_graph(0) == sc.graph
        g1, g2 = sc.job_graph(1), sc.job_graph(2)
        assert g1.seed == sc.graph.seed + 1 and g2.seed == sc.graph.seed + 2
        assert np.array_equal(g1.build(), g1.build())


class TestFleetGenerator:
    def test_fleet_draws_are_legal(self):
        from repro.api import resolve_machine

        gen = ScenarioGenerator(
            seed=13, config=GeneratorConfig(p_fleet=1.0, p_faulted=0.9)
        )
        fleets = 0
        for _ in range(60):
            sc = gen.draw()
            if not sc.is_fleet:
                continue
            fleets += 1
            # memflip scenarios never convert (the applied-flip escape
            # exemption would hollow out the retry-determinism oracle)
            assert "memflip" not in sc.fault_classes()
            # the shared fleet builds the real cluster: capacity-checked
            assert sc.n_nodes <= resolve_machine(sc.machine).max_nodes
            if sc.deadline is not None:
                assert sc.resilience is not None and sc.deadline >= 0.5
            # crash/OOM must be terminal for the attempt so recovery
            # goes through the scheduler's retry layer
            kinds = {s.partition(":")[0] for s in sc.fault_specs}
            if kinds & {"crash", "oom", "drop", "dup", "corrupt"}:
                policy = [s for s in sc.fault_specs if s.startswith("policy")]
                assert len(policy) == 1
                assert "restarts=0" in policy[0]
                assert "oom_degrade=false" in policy[0]
        assert fleets >= 30

    def test_fleet_draws_replay_in_stream(self):
        cfg = GeneratorConfig(p_fleet=0.5)
        a = ScenarioGenerator(seed=21, config=cfg)
        b = ScenarioGenerator(seed=21, config=cfg)
        ids = [a.draw().scenario_id for _ in range(12)]
        assert ids == [b.draw().scenario_id for _ in range(12)]


class TestFleetExecutor:
    def test_fleet_run_retries_and_stays_bit_exact(self):
        sc = fleet_scenario()
        out = run_scenario(sc)
        assert out.ok, out.error
        assert len(out.job_digests) == sc.jobs
        assert all(out.job_digests)
        assert out.fault_counters["fleet.resilience.retries"] >= 1
        # determinism: same scenario, same fleet, same bytes
        again = run_scenario(sc)
        assert again.digest_key() == out.digest_key()
        assert again.job_digests == out.job_digests
        # and the oracles agree the retried jobs match their references
        assert OracleSuite().check(sc, out) == []

    def test_exhausted_attempts_classify_as_fleet_failure(self):
        res = dict(RESILIENCE)
        res["retry"] = {**RESILIENCE["retry"], "max_attempts": 1}
        sc = fleet_scenario(resilience=res, jobs=2)
        out = run_scenario(sc)
        assert out.status == "error" and out.error_type == "FleetJobsFailed"
        assert out.exit_code > 0
        # the clean bystander still finished; the chaos tenant did not
        assert out.job_digests[0] is None and out.job_digests[1] is not None

    def test_single_armed_job_keeps_plain_digest(self):
        # jobs=1 + resilience runs on the scheduler but must produce the
        # same distance digest as the classic solve path
        armed = small_scenario(resilience=dict(RESILIENCE))
        plain = small_scenario()
        assert run_scenario(armed).dist_digest == run_scenario(plain).dist_digest


class TestResilienceOracle:
    def test_clean_fleet_has_no_violations(self):
        sc = fleet_scenario()
        assert OracleSuite().check(sc, run_scenario(sc)) == []

    def test_planted_job_divergence_is_flagged(self):
        sc = fleet_scenario()
        out = run_scenario(sc)
        forged = Outcome.from_dict(out.to_dict())
        forged.job_digests = [out.job_digests[0], "0" * 24, out.job_digests[2]]
        v = OracleSuite().check(sc, forged)
        assert "resilience" in [x.family for x in v]
        assert any("job 1" in x.detail for x in v)

    def test_retry_budget_overrun_is_flagged(self):
        sc = fleet_scenario()
        out = run_scenario(sc)
        forged = Outcome.from_dict(out.to_dict())
        forged.fault_counters = dict(
            out.fault_counters, **{"fleet.resilience.retries": 10_000}
        )
        v = OracleSuite().check(sc, forged)
        assert any("budget" in x.detail for x in v)

    def test_equivalence_family_defers_to_resilience_for_fleets(self):
        # the combined multi-job digest must not be compared against the
        # single-solve reference by the equivalence family
        sc = fleet_scenario()
        out = run_scenario(sc)
        families = [x.family for x in OracleSuite().check(sc, out)]
        assert "equivalence" not in families


class TestFleetShrinker:
    def test_fleet_passes_reduce_to_a_plain_scenario(self):
        # When the failure does not depend on the fleet fields, the
        # shrinker must strip them (jobs -> 1, deadline and resilience
        # gone), leaving a classic single-solve repro.
        sc = fleet_scenario(deadline=2.0)
        result = shrink(sc, lambda c: True, max_evals=120)
        assert result.scenario.jobs == 1
        assert result.scenario.resilience is None
        assert result.scenario.deadline is None
        assert not result.scenario.is_fleet
        names = {name for name, _ in result.steps}
        assert {"shrink-jobs", "no-resilience"} <= names

    def test_fleet_passes_preserve_retry_behaviour(self):
        # Predicate that needs the fleet: keep scenarios whose runs
        # still retry at least once.  The resilience policy must
        # survive minimization.
        sc = fleet_scenario()

        def still_retries(candidate):
            out = run_scenario(candidate)
            retries = (out.fault_counters or {}).get("fleet.resilience.retries", 0)
            return out.ok and retries >= 1

        result = shrink(sc, still_retries, max_evals=40)
        assert result.scenario.resilience is not None
        assert still_retries(result.scenario)
