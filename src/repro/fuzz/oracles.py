"""The fuzzer's oracle families: what "correct" means for a scenario.

Five families, per the paper's correctness story (bit-exact tropical
replay) and the repo's fitted perf model:

1. **equivalence** - the distance matrix must byte-match a clean
   single-rank reference solve (``tiled`` backend) of the same graph
   at the same block size (variant/backends/faults/verification must
   all be invisible in the result);
2. **resilience** - the retry-determinism oracle for fleet scenarios
   (multi-job and/or self-healing-armed, :mod:`repro.sched.resilience`):
   every job that ends DONE must byte-match the clean single-rank
   reference solve of its own graph *even when the scheduler retried,
   checkpoint-resumed, or re-planned it*, and the fleet must respect
   its configured retry budget;
3. **determinism** - running the same scenario twice must produce the
   same digest, makespan, and certificate;
4. **certificate** - the verification certificate must exist exactly
   when armed and be internally consistent with the faults report
   (counters non-negative, repairs never exceed detections, no SDC
   "detected" on runs that injected no memory faults);
5. **perf-model** - a clean instrumented run must not diverge from the
   pooled fitted Eq. 1 prediction (:mod:`repro.obs.validation`) beyond
   the pool's own fitted error bars.  At benchmark scale the constants
   predict within ~17% (pinned by tests/test_validation.py); fuzz-scale
   graphs (n = 8..40) sit far outside that regime - measured fit error
   there runs to ~4x - so this family only flags *gross* divergence
   (default: beyond 4x the pool's worst self-fit error and at least
   500%), the signature of a stalled schedule or double-charged cost,
   not ordinary small-n model misfit.

An executor-level **crash** family covers what the oracles never see:
wall-clock timeouts, hard child deaths, and
:class:`~repro.errors.InternalError` (unexpected exceptions).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

from .executor import Outcome, run_scenario
from .scenario import Scenario

__all__ = ["OracleViolation", "OracleSuite"]

#: Exit codes the crash family flags (InternalError / timeout / child
#: death); every other classified error is a *modeled* failure mode.
UNEXPECTED_EXIT_CODES = (14, 124, 125)


@dataclass
class OracleViolation:
    """One oracle finding (JSON-able, lands in the corpus record)."""

    family: str  # "equivalence" | "resilience" | "determinism" | "certificate" | "perf-model" | "crash"
    detail: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "OracleViolation":
        return cls(
            family=raw["family"], detail=raw.get("detail", ""), data=raw.get("data", {})
        )


def _reconstruct_measurement(raw: dict):
    from ..obs.validation import VariantMeasurement

    known = {f.name for f in dataclasses.fields(VariantMeasurement)}
    return VariantMeasurement(**{k: v for k, v in raw.items() if k in known})


class OracleSuite:
    """Stateful oracle runner: caches reference digests per graph and
    accumulates a per-machine calibration pool for the perf model."""

    def __init__(
        self,
        *,
        runner: Optional[Callable[[Scenario], Outcome]] = None,
        perf_min_fit: int = 8,
        perf_base_tolerance: float = 5.0,
        perf_safety: float = 4.0,
        perf_pool_cap: int = 64,
    ):
        #: How a scenario is re-executed for the determinism oracle;
        #: in-process by default (the simulation is deterministic, so
        #: sandboxing the double-run buys nothing).
        self.runner = runner or run_scenario
        self.perf_min_fit = perf_min_fit
        self.perf_base_tolerance = perf_base_tolerance
        self.perf_safety = perf_safety
        self.perf_pool_cap = perf_pool_cap
        self._ref_cache: dict[tuple, str] = {}
        self._perf_pools: dict[str, list] = {}
        #: Oracle work split, in seconds, for the throughput benchmark.
        self.timings: dict[str, float] = {}

    # -- reference solve ---------------------------------------------------
    def reference_digest(self, scenario: Scenario) -> str:
        """Digest of the clean single-rank baseline solve of the
        scenario's graph at its block size (cached per graph x b)."""
        return self._graph_reference_digest(
            scenario.graph, scenario.block_size, scenario.machine
        )

    def _graph_reference_digest(self, graph_spec, block_size: int, machine: str) -> str:
        key = (graph_spec, block_size)
        cached = self._ref_cache.get(key)
        if cached is not None:
            return cached
        from ..api import SolveConfig, solve
        from .executor import dist_digest

        result = solve(
            graph_spec.build(),
            SolveConfig(
                variant="baseline",
                block_size=block_size,
                kernel_backend="tiled",
                machine=machine,
                n_nodes=1,
                ranks_per_node=1,
                fault_plan=(),
            ),
        )
        digest = dist_digest(result.dist)
        self._ref_cache[key] = digest
        return digest

    # -- entry point -------------------------------------------------------
    def check(self, scenario: Scenario, outcome: Outcome) -> list[OracleViolation]:
        import time

        violations: list[OracleViolation] = []
        for family, fn in (
            ("crash", self._check_crash),
            ("equivalence", self._check_equivalence),
            ("resilience", self._check_resilience),
            ("determinism", self._check_determinism),
            ("certificate", self._check_certificate),
            ("perf-model", self._check_perf),
        ):
            t0 = time.perf_counter()
            violations.extend(fn(scenario, outcome))
            self.timings[family] = self.timings.get(family, 0.0) + time.perf_counter() - t0
        return violations

    # -- family: crash -----------------------------------------------------
    def _check_crash(self, scenario: Scenario, outcome: Outcome) -> list[OracleViolation]:
        if outcome.exit_code in UNEXPECTED_EXIT_CODES:
            return [
                OracleViolation(
                    "crash",
                    f"{outcome.status} (exit {outcome.exit_code}): "
                    f"{outcome.error_type or ''} {outcome.error or ''}".strip(),
                    {"exit_code": outcome.exit_code, "traceback": outcome.traceback},
                )
            ]
        return []

    # -- family: equivalence ----------------------------------------------
    @staticmethod
    def _flips_applied(outcome: Outcome) -> float:
        counters = outcome.fault_counters or {}
        return sum(
            counters.get(key, 0)
            for key in ("faults.block_flips", "faults.ckpt_flips", "faults.oog_flips")
        )

    def _check_equivalence(self, scenario: Scenario, outcome: Outcome) -> list[OracleViolation]:
        if not outcome.ok or outcome.dist_digest is None:
            return []
        if scenario.jobs > 1:
            # Multi-job fleets store a *combined* digest; per-job
            # equivalence is the resilience family's job.
            return []
        if "memflip" in scenario.fault_classes() and self._flips_applied(outcome) > 0:
            # An applied upset may escape even an armed verifier (the
            # closure is not checksum-guarded and the sentinel samples;
            # docs/FAULTS.md) - detector *coverage* is measured by the
            # SDC matrix, not asserted here.  Memflips that missed
            # (never applied) fall through: the result must match.
            return []
        expected = self.reference_digest(scenario)
        if outcome.dist_digest != expected:
            return [
                OracleViolation(
                    "equivalence",
                    "distance matrix diverged from the clean single-rank "
                    f"reference solve ({outcome.dist_digest} != {expected})",
                    {"got": outcome.dist_digest, "expected": expected},
                )
            ]
        return []

    # -- family: resilience -------------------------------------------------
    def _check_resilience(self, scenario: Scenario, outcome: Outcome) -> list[OracleViolation]:
        """The retry-determinism oracle for fleet scenarios: every job
        the self-healing layer carried to DONE - whether it was retried
        from a checkpoint, re-planned onto a shrunken fleet, or never
        failed at all - must byte-match the clean single-rank reference
        solve of its own graph.  The fleet's recovery bookkeeping must
        also respect its configured retry budget."""
        if not scenario.is_fleet or outcome.job_digests is None:
            return []
        out: list[OracleViolation] = []
        counters = outcome.fault_counters or {}
        retries = counters.get("fleet.resilience.retries", 0)
        if scenario.resilience is not None:
            budget = scenario.resilience.get("retry_budget", 32)
            if retries > budget:
                out.append(
                    OracleViolation(
                        "resilience",
                        f"fleet spent {retries:g} retries over its budget of {budget}",
                        {"retries": retries, "budget": budget},
                    )
                )
        if "memflip" in scenario.fault_classes() and self._flips_applied(outcome) > 0:
            return out  # applied upsets may legitimately escape (see equivalence)
        for j, digest in enumerate(outcome.job_digests):
            if digest is None:
                continue  # failed/poisoned/deadline-killed job: modeled outcome
            expected = self._graph_reference_digest(
                scenario.job_graph(j), scenario.block_size, scenario.machine
            )
            if digest != expected:
                out.append(
                    OracleViolation(
                        "resilience",
                        f"job {j} diverged from its clean solo solve after "
                        f"{retries:g} fleet retrie(s) ({digest} != {expected})",
                        {"job": j, "got": digest, "expected": expected,
                         "retries": retries},
                    )
                )
        return out

    # -- family: determinism ----------------------------------------------
    def _check_determinism(self, scenario: Scenario, outcome: Outcome) -> list[OracleViolation]:
        if not scenario.check_determinism:
            return []
        second = self.runner(scenario)
        first_key, second_key = outcome.digest_key(), second.digest_key()
        if first_key != second_key:
            return [
                OracleViolation(
                    "determinism",
                    "double run diverged: "
                    f"{first_key} != {second_key}",
                    {"first": list(first_key), "second": list(second_key)},
                )
            ]
        return []

    # -- family: certificate ----------------------------------------------
    def _check_certificate(self, scenario: Scenario, outcome: Outcome) -> list[OracleViolation]:
        if not outcome.ok:
            return []
        cert = outcome.certificate
        out: list[OracleViolation] = []
        if scenario.verify == "off":
            if cert is not None:
                out.append(
                    OracleViolation(
                        "certificate", "verify=off run produced a certificate", {"cert": cert}
                    )
                )
            return out
        if cert is None:
            return [
                OracleViolation(
                    "certificate", f"verify={scenario.verify} run produced no certificate"
                )
            ]
        if cert.get("mode") != scenario.verify:
            out.append(
                OracleViolation(
                    "certificate",
                    f"certificate mode {cert.get('mode')!r} != configured {scenario.verify!r}",
                    {"cert": cert},
                )
            )
        if not cert.get("passed", False):
            # A failing certificate must raise VerificationError, never
            # land on an ok outcome.
            out.append(
                OracleViolation(
                    "certificate", "completed run carries a failing certificate", {"cert": cert}
                )
            )
        counts = {
            k: cert.get(k, 0)
            for k in ("ops_checked", "sdc_detected", "repaired", "escalated",
                      "sentinel_violations")
        }
        if any(v < 0 for v in counts.values()):
            out.append(
                OracleViolation("certificate", f"negative certificate counters: {counts}")
            )
        if counts["repaired"] > counts["sdc_detected"]:
            out.append(
                OracleViolation(
                    "certificate",
                    f"repaired ({counts['repaired']}) exceeds detected "
                    f"({counts['sdc_detected']})",
                    {"cert": cert},
                )
            )
        # Faults-report consistency: detections/sentinel hits without
        # any injected upset mean the verifier is hallucinating SDC on
        # clean data - the inverse (an applied flip escaping) is a
        # measured-coverage outcome, not a violation (docs/FAULTS.md).
        detections = counts["sdc_detected"] + counts["sentinel_violations"]
        if detections > 0 and "memflip" not in scenario.fault_classes():
            out.append(
                OracleViolation(
                    "certificate",
                    f"verifier reported {detections:g} detection(s) with no "
                    "memory fault armed (false positive on clean data)",
                    {"cert": cert, "fault_counters": outcome.fault_counters},
                )
            )
        return out

    # -- family: perf-model ------------------------------------------------
    def _check_perf(self, scenario: Scenario, outcome: Outcome) -> list[OracleViolation]:
        if (
            not outcome.ok
            or outcome.measurement is None
            or scenario.fault_specs
            or not outcome.makespan
            # Eq. 1 models the GPU DiagUpdate; a host FW run is outside
            # it, so it is neither judged nor pooled.
            or not scenario.diag_on_gpu
        ):
            return []
        from ..api import resolve_machine
        from ..machine import CostModel
        from ..obs.validation import _fitted_prediction, fit_constants

        cost = CostModel(resolve_machine(scenario.machine))
        m = _reconstruct_measurement(outcome.measurement)
        pool = self._perf_pools.setdefault(scenario.machine, [])
        out: list[OracleViolation] = []
        if len(pool) >= self.perf_min_fit:
            constants = fit_constants(pool, cost)

            def rel_err(meas) -> float:
                predicted = _fitted_prediction(meas, constants, cost)
                return abs(predicted - meas.makespan) / meas.makespan

            # The pool's own worst self-fit error is the error bar; a
            # new clean run diverging far beyond it means either the
            # perf model or the scheduler regressed.
            band = max(rel_err(p) for p in pool)
            tolerance = max(self.perf_base_tolerance, self.perf_safety * band)
            err = rel_err(m)
            if err > tolerance:
                out.append(
                    OracleViolation(
                        "perf-model",
                        f"fitted Eq. 1 prediction diverged {err:.0%} from the "
                        f"measured makespan (tolerance {tolerance:.0%}, "
                        f"calibration pool {len(pool)})",
                        {
                            "rel_err": err,
                            "tolerance": tolerance,
                            "makespan": m.makespan,
                            "pool": len(pool),
                        },
                    )
                )
        pool.append(m)
        del pool[: -self.perf_pool_cap]
        return out
