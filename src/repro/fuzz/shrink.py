"""Delta-debugging shrinker: reduce a failing scenario to a minimal repro.

Given a scenario and a predicate ("does this scenario still trip the
same oracle family?"), :func:`shrink` greedily applies reduction passes
until a fixpoint:

1. drop fault specs one at a time (keeping any ``policy:`` spec until
   every message/crash fault that needs it is gone);
2. shrink the graph (halve ``n`` toward a floor, re-deriving the
   structured generators' shape parameters);
3. shrink the block size toward the small end;
4. simplify the execution: fleet reductions first (one job, no
   deadline, no resilience policy), then fewer ranks, simpler variant
   (toward ``baseline``), ``tiled`` backend, verify off, determinism
   check off, sparsity off, DiagUpdate back on the GPU.

Each candidate is re-run through the *same* oracle predicate, so the
minimized scenario provably still fails for the same reason - that is
the invariant the shrinker unit test pins down.  Passes are ordered
most-valuable-first (smaller fault plans and graphs dominate triage
cost), and the whole search is bounded by ``max_evals`` so a pathological
predicate cannot spin forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .scenario import GraphSpec, Scenario

__all__ = ["ShrinkResult", "shrink"]

#: Variant simplification ladder - each maps to a strictly "simpler"
#: schedule; baseline is the fixpoint.
_SIMPLER_VARIANT = {
    "offload-pipelined": "pipelined",
    "offload": "baseline",
    "async": "pipelined",
    "reordering": "baseline",
    "pipelined": "baseline",
}

#: Fault kinds whose liveness depends on an armed retransmit policy -
#: dropping the policy spec before these is a designed deadlock, not a
#: smaller repro.
_POLICY_DEPENDENT = ("drop", "corrupt", "crash", "oom")


@dataclass
class ShrinkResult:
    """The minimized scenario plus the search's audit trail."""

    scenario: Scenario
    evals: int = 0
    steps: list = field(default_factory=list)  # (pass-name, scenario_id) per accepted step

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "evals": self.evals,
            "steps": [list(s) for s in self.steps],
        }


def _graph_candidates(g: GraphSpec) -> list[GraphSpec]:
    """Strictly-smaller graph specs, preferring aggressive halving."""
    out: list[GraphSpec] = []
    for target in (g.n // 2, g.n - g.n // 4, g.n - 1):
        n = max(4, target)
        if n >= g.n:
            continue
        if g.kind == "grid-road":
            rows = max(2, min(g.rows or 2, n // 2))
            cols = max(2, n // rows)
            if rows * cols < g.n:
                out.append(
                    GraphSpec(kind=g.kind, n=rows * cols, seed=g.seed, rows=rows, cols=cols)
                )
        elif g.kind == "ring-cliques":
            n_cliques = max(2, min(g.n_cliques or 2, n // 2))
            clique = max(2, n // n_cliques)
            if n_cliques * clique < g.n:
                out.append(
                    GraphSpec(
                        kind=g.kind, n=n_cliques * clique, seed=g.seed,
                        n_cliques=n_cliques, clique_size=clique,
                    )
                )
        elif g.kind == "banded":
            out.append(
                GraphSpec(
                    kind=g.kind, n=n, seed=g.seed,
                    bandwidth=max(1, min(g.bandwidth, n - 1)),
                )
            )
        elif g.kind == "erdos-renyi":
            out.append(GraphSpec(kind=g.kind, n=n, seed=g.seed, density=g.density))
        else:
            out.append(GraphSpec(kind=g.kind, n=n, seed=g.seed))
    # dedupe, preserve aggressive-first order
    seen, uniq = set(), []
    for c in out:
        if c not in seen:
            seen.add(c)
            uniq.append(c)
    return uniq


def _policy_still_needed(specs: tuple[str, ...]) -> bool:
    return any(spec.partition(":")[0].strip() in _POLICY_DEPENDENT for spec in specs)


def shrink(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    *,
    max_evals: int = 200,
    log: Optional[Callable[[str], None]] = None,
) -> ShrinkResult:
    """Minimize ``scenario`` under the ``still_fails`` predicate.

    ``still_fails`` must return True when a candidate reproduces the
    original failure (same oracle family).  The scenario passed in is
    assumed failing; the result's scenario is guaranteed to satisfy the
    predicate (it is only replaced by candidates that do).
    """
    result = ShrinkResult(scenario=scenario)

    def attempt(name: str, candidate: Scenario) -> bool:
        if candidate == result.scenario or result.evals >= max_evals:
            return False
        result.evals += 1
        try:
            failed = bool(still_fails(candidate))
        except Exception:
            # A candidate that breaks the predicate machinery itself is
            # not a smaller repro of the *same* failure.
            failed = False
        if failed:
            result.scenario = candidate
            result.steps.append((name, candidate.scenario_id))
            if log is not None:
                log(f"shrink[{name}] -> {candidate.describe()}")
            return True
        return False

    progress = True
    while progress and result.evals < max_evals:
        progress = False
        s = result.scenario

        # Pass 1: drop fault specs one at a time (policy last).
        specs = list(s.fault_specs)
        order = sorted(
            range(len(specs)), key=lambda i: specs[i].startswith("policy")
        )
        for i in order:
            reduced = tuple(specs[:i] + specs[i + 1:])
            if specs[i].startswith("policy") and _policy_still_needed(reduced):
                continue
            if attempt("drop-fault", s.replace(fault_specs=reduced)):
                progress = True
                break
        if progress:
            continue

        # Pass 2: shrink the graph.
        for g in _graph_candidates(s.graph):
            cand = s.replace(graph=g, block_size=min(s.block_size, g.n))
            if attempt("shrink-graph", cand):
                progress = True
                break
        if progress:
            continue

        # Pass 3: shrink the block size.
        for b in (2, 4, s.block_size // 2):
            if 2 <= b < s.block_size and attempt(
                "shrink-block", s.replace(block_size=b)
            ):
                progress = True
                break
        if progress:
            continue

        # Pass 4: simplify the execution environment.  Fleet reductions
        # come first: a one-job fleet (or a plain solve, once the
        # resilience policy proves irrelevant) dominates triage cost the
        # same way a smaller fault plan does.
        for name, cand in (
            ("shrink-jobs", s.replace(jobs=1)),
            ("no-deadline", s.replace(deadline=None)),
            ("no-resilience", s.replace(resilience=None, deadline=None)),
            ("shrink-ranks", s.replace(n_nodes=1, ranks_per_node=1)),
            ("shrink-ranks", s.replace(n_nodes=1, ranks_per_node=min(2, s.ranks_per_node))),
            ("simplify-variant", s.replace(variant=_SIMPLER_VARIANT.get(s.variant, s.variant))),
            ("tiled-backend", s.replace(kernel_backend="tiled")),
            ("verify-off", s.replace(verify="off")),
            ("no-determinism", s.replace(check_determinism=False)),
            ("no-sparsity", s.replace(exploit_sparsity=False)),
            ("diag-on-gpu", s.replace(diag_on_gpu=True)),
        ):
            if attempt(name, cand):
                progress = True
                break

    return result
