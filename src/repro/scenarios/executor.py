"""Per-step delta-spliced re-verification of an update sequence.

:class:`ScenarioCampaign` compiles one query batch (:mod:`repro.api`) against
the step-0 snapshot, then walks the scenario: each step's directory edits are
applied, a fresh :class:`~repro.api.model.NetworkModel` is built over the
edited directory, and the *same* plan — rebound to the new model — executes
with the previous state's campaign as its delta baseline.  The baseline
chains: every step's recorded baseline is handed, in memory, to the next
step, so a K-step sequence costs one full campaign plus K splice-gated
re-verifications instead of K+1 full campaigns.

Invariant (asserted by the test suite, inherited from the delta layer):
each step's query answers are bit-identical to a scratch campaign over that
snapshot — delta, the store and worker count change which tier
answers, never the answer.  Anything the manifest diff cannot prove
untouched (a topology edit, say) falls back to a full re-execution.

Violations are recorded per step with full traces (loop port traces,
invariant violation cells, unreachable sources) and handed to
:mod:`repro.scenarios.reduce` for clustering.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.model import NetworkModel
from repro.api.planner import Plan, compile_plan, execute_plan
from repro.obs import get_tracer
from repro.api.queries import ForAllPairs, Invariant, Loop, Query, QueryResult, Reach
from repro.core.delta import CampaignBaseline
from repro.core.queries import CampaignStats
from repro.core.settings import RunSettings
from repro.scenarios import reduce as reduce_mod
from repro.scenarios.generator import Scenario, UpdateStep


def default_scenario_queries() -> List[Query]:
    """The fixed query batch a scenario replays per step: the all-pairs
    reachability matrix, network-wide loop freedom and source-IP
    invariance — the three answers whose transient regressions the
    generator's update kinds can cause."""
    return [ForAllPairs(Reach), Loop(), Invariant("IpSrc")]


@dataclass
class StepOutcome:
    """One verified state: step 0 is the pre-update baseline."""

    index: int
    kind: str
    description: str
    fingerprints: Tuple[str, ...]
    holds: Tuple[Optional[bool], ...]
    violations: List[Dict[str, object]]
    stats: Dict[str, object]
    delta: Dict[str, object]
    plan_cache_hit: bool
    wall_seconds: float
    engine_runs: int

    @property
    def executed_jobs(self) -> int:
        """Injection jobs this state actually executed (total minus
        delta-spliced)."""
        return CampaignStats.from_dict(self.stats).executed_jobs

    @property
    def spliced_jobs(self) -> int:
        return CampaignStats.from_dict(self.stats).jobs_spliced_by_delta

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "kind": self.kind,
            "description": self.description,
            "fingerprints": list(self.fingerprints),
            "holds": list(self.holds),
            "violations": len(self.violations),
            "executed_jobs": self.executed_jobs,
            "spliced_jobs": self.spliced_jobs,
            "engine_runs": self.engine_runs,
            "plan_cache_hit": self.plan_cache_hit,
            "wall_seconds": round(self.wall_seconds, 6),
            "delta": dict(self.delta),
            "stats": dict(self.stats),
        }


@dataclass
class ScenarioRun:
    """The executed scenario: per-step outcomes plus the clustered
    violations, serialised through the existing stats plumbing."""

    scenario: Scenario
    outcomes: List[StepOutcome]
    clusters: List["reduce_mod.ViolationCluster"]
    workers: int
    delta: bool

    @property
    def violations(self) -> List[Dict[str, object]]:
        return [v for outcome in self.outcomes for v in outcome.violations]

    @property
    def steps_delta_spliced(self) -> int:
        """Transient states (step >= 1) where delta splicing answered at
        least one injection port without executing it."""
        return sum(
            1 for o in self.outcomes if o.index > 0 and o.spliced_jobs > 0
        )

    def fingerprint(self) -> str:
        payload = (
            self.scenario.fingerprint(),
            tuple(outcome.fingerprints for outcome in self.outcomes),
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario.to_dict(),
            "scenario_steps": len(self.scenario.steps),
            "steps_delta_spliced": self.steps_delta_spliced,
            "violations_total": len(self.violations),
            "clusters": [cluster.to_dict() for cluster in self.clusters],
            "steps": [outcome.to_dict() for outcome in self.outcomes],
            "workers": self.workers,
            "delta": self.delta,
            "fingerprint": self.fingerprint(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# Violation extraction
# ---------------------------------------------------------------------------


def _violating_traces(result_dict: Dict[str, object]) -> List[Dict[str, object]]:
    """Pull the concrete evidence out of one failed query answer.  Works on
    the serialised form (``QueryResult.to_dict()``), so fresh and
    plan-cache-restored answers yield identical violation records."""
    kind = str(result_dict.get("kind", ""))
    value = result_dict.get("value")
    evidence = result_dict.get("evidence") or {}
    out: List[Dict[str, object]] = []
    if kind in ("all", "any", "not") and isinstance(value, list):
        for child in value:
            if isinstance(child, dict) and child.get("holds") is False:
                out.extend(_violating_traces(child))
        return out
    if kind == "loop" and isinstance(value, dict):
        for finding in value.get("findings", ()):
            out.append(
                {
                    "source": finding.get("source", ""),
                    "trace": list(finding.get("trace", ())),
                    "reason": finding.get("reason", ""),
                    "detected_at": finding.get("detected_at", ""),
                }
            )
        return out
    if kind == "invariant":
        for cell in evidence.get("violations", ()):
            if isinstance(cell, dict):
                out.append(
                    {
                        "source": cell.get("source", ""),
                        "trace": [cell.get("source", "")],
                        "reason": f"field {cell.get('field', '?')} not preserved",
                        "detail": {
                            k: v for k, v in cell.items() if k not in ("source",)
                        },
                    }
                )
        return out
    # Default (reach and any other decidable leaf): the source itself is the
    # evidence — there is no path to trace.
    query = str(result_dict.get("query", ""))
    out.append({"source": query, "trace": [], "reason": f"{kind} does not hold"})
    return out


def violations_for_step(
    index: int, step: Optional[UpdateStep], results: Sequence[QueryResult]
) -> List[Dict[str, object]]:
    """Every violation one verified state produced, as flat JSON-able
    records the reducer clusters."""
    violations: List[Dict[str, object]] = []
    for result in results:
        result_dict = result.to_dict()
        if result_dict.get("holds") is not False:
            continue
        for trace in _violating_traces(result_dict):
            record = {
                "step": index,
                "step_kind": step.kind if step is not None else "baseline",
                "query": result_dict.get("query", ""),
                "query_kind": result_dict.get("kind", ""),
                **trace,
            }
            record["fingerprint"] = reduce_mod.violation_fingerprint(record)
            violations.append(record)
    return violations


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------


class ScenarioCampaign:
    """Walk an update sequence, re-verifying each transient state.

    ``settings`` are :class:`~repro.core.settings.RunSettings` fields.
    ``delta`` toggles the chained-baseline splicing (off = every state runs
    from scratch — the comparison baseline the tests hold the delta path
    to).  ``store`` optionally adds the persistent tiers; answers are
    bit-identical with or without it.
    """

    def __init__(
        self,
        directory: str,
        scenario: Scenario,
        *,
        queries: Optional[Sequence[Query]] = None,
        workers: int = 1,
        store: Optional[object] = None,
        cluster_eps: float = 0.5,
        cluster_min_points: int = 2,
        **settings: object,
    ) -> None:
        reduce_mod.check_cluster_options(cluster_eps, cluster_min_points)
        self.directory = directory
        self.scenario = scenario
        self.queries = list(queries) if queries else default_scenario_queries()
        self.workers = workers
        self.store = store
        self.settings = RunSettings(**settings)
        self.cluster_eps = cluster_eps
        self.cluster_min_points = cluster_min_points

    def _check_base(self, model: NetworkModel) -> None:
        digest = model.fingerprint()
        if self.scenario.base_digest and digest != self.scenario.base_digest:
            raise ValueError(
                "scenario was generated against a different directory state "
                f"(expected {self.scenario.base_digest[:16]}, "
                f"found {digest[:16]}); re-export the workload or regenerate"
            )

    def _apply(self, step: UpdateStep) -> None:
        for name, text in step.writes:
            path = os.path.join(self.directory, name)
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)

    def _execute_state(
        self,
        plan: Plan,
        index: int,
        step: Optional[UpdateStep],
        baseline: Optional[CampaignBaseline],
    ) -> Tuple[StepOutcome, Optional[CampaignBaseline]]:
        started = time.perf_counter()
        with get_tracer().span(
            "scenario.state",
            state=index,
            edit=step.description if step is not None else "",
        ):
            result = execute_plan(
                plan,
                workers=self.workers,
                store=self.store,
                baseline=baseline,
            )
        wall = time.perf_counter() - started
        if result.job_errors:
            details = "; ".join(
                f"{key}: {error}" for key, error in result.job_errors
            )
            raise RuntimeError(f"state {index} had job errors: {details}")
        stats = dict(result.run["stats"])
        # A plan-cache hit rehydrates the stats of the run that computed the
        # answers; this state itself ran nothing.
        engine_runs = 0 if result.from_cache else result.stats.executed_jobs
        delta_info: Dict[str, object] = {}
        if result.campaign is not None:
            delta_info = dict(result.campaign.delta_info)
        outcome = StepOutcome(
            index=index,
            kind=step.kind if step is not None else "baseline",
            description=step.description if step is not None else "initial snapshot",
            fingerprints=tuple(r.fingerprint for r in result.results),
            holds=tuple(r.holds for r in result.results),
            violations=violations_for_step(index, step, result.results),
            stats=stats,
            delta=delta_info,
            plan_cache_hit=result.from_cache,
            wall_seconds=wall,
            engine_runs=engine_runs,
        )
        if result.campaign is not None:
            baseline = result.campaign.baseline
        return outcome, baseline

    def run(self) -> ScenarioRun:
        """Verify the initial snapshot and every transient state, then
        cluster whatever violated."""
        model = NetworkModel.from_directory(self.directory)
        self._check_base(model)
        plan = compile_plan(model, self.queries, **vars(self.settings))
        element_kinds = {
            element.name: element.kind for element in model.network()
        }
        outcomes: List[StepOutcome] = []
        baseline: Optional[CampaignBaseline] = None
        outcome, baseline = self._execute_state(plan, 0, None, baseline)
        outcomes.append(outcome)
        for step in self.scenario.steps:
            self._apply(step)
            step_model = NetworkModel.from_directory(self.directory)
            step_plan = replace(plan, model=step_model)
            outcome, baseline = self._execute_state(
                step_plan, step.index, step, baseline
            )
            outcomes.append(outcome)
        violations = [v for o in outcomes for v in o.violations]
        clusters = reduce_mod.cluster_violations(
            violations,
            element_kinds=element_kinds,
            eps=self.cluster_eps,
            min_points=self.cluster_min_points,
        )
        return ScenarioRun(
            scenario=self.scenario,
            outcomes=outcomes,
            clusters=clusters,
            workers=self.workers,
            delta=self.settings.delta,
        )
