"""SymNet core: symbolic execution of SEFL network models.

This is the paper's primary contribution — a symbolic execution engine whose
state is a *packet* (header variables at bit addresses + a metadata map),
where every execution path corresponds to a packet traversing the network.

Public entry points:

* :class:`repro.core.engine.SymbolicExecutor` — run symbolic execution over a
  :class:`repro.network.Network`;
* :class:`repro.core.state.ExecutionState` — the per-path symbolic state;
* :mod:`repro.core.checks` — path-level reachability, loop, invariance,
  header-visibility and memory-safety predicates built on the engine;
* :class:`repro.core.campaign.VerificationCampaign` — network-wide campaigns
  fanning one network out across many injection ports (optionally on a
  process pool) and aggregating the :mod:`repro.core.queries` objects.

The declarative front door over all of this lives in :mod:`repro.api`.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "CAMPAIGN_QUERIES": "facts",
        "CampaignJob": "jobs",
        "CampaignResult": "campaign",
        "CampaignStats": "queries",
        "ExecutionResult": "paths",
        "ExecutionSettings": "engine",
        "ExecutionState": "state",
        "InvariantReport": "queries",
        "JobReport": "jobs",
        "LoopFinding": "queries",
        "LoopReport": "queries",
        "MemorySafetyError": "errors",
        "ModelError": "errors",
        "NetworkSource": "sources",
        "PathRecord": "paths",
        "PathStatus": "paths",
        "ReachabilityMatrix": "queries",
        "SymNetError": "errors",
        "SymbolFactory": "values",
        "SymbolicExecutor": "engine",
        "VerificationCampaign": "campaign",
        "clear_runtime_cache": "jobs",
        "execute_job": "jobs",
        "free_input_ports": "sources",
        "schema_digest": "facts",
    },
    (
        "campaign", "checks", "delta", "engine", "errors", "executor", "facts",
        "jobs", "memo", "memory", "paths", "queries", "settings", "shapes",
        "sources", "state", "values",
    ),
)

__all__ = [
    "CAMPAIGN_QUERIES",
    "CampaignJob",
    "CampaignResult",
    "CampaignStats",
    "ExecutionResult",
    "ExecutionSettings",
    "ExecutionState",
    "InvariantReport",
    "JobReport",
    "LoopFinding",
    "LoopReport",
    "MemorySafetyError",
    "ModelError",
    "NetworkSource",
    "PathRecord",
    "PathStatus",
    "ReachabilityMatrix",
    "SymNetError",
    "SymbolFactory",
    "SymbolicExecutor",
    "VerificationCampaign",
    "checks",
    "clear_runtime_cache",
    "execute_job",
    "free_input_ports",
    "schema_digest",
]
