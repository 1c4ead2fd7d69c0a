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

from repro.core.campaign import (
    CAMPAIGN_QUERIES,
    CampaignJob,
    CampaignResult,
    JobReport,
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
    execute_job,
    free_input_ports,
)
from repro.core.engine import ExecutionSettings, SymbolicExecutor
from repro.core.errors import (
    MemorySafetyError,
    ModelError,
    SymNetError,
)
from repro.core.paths import ExecutionResult, PathRecord, PathStatus
from repro.core.queries import (
    CampaignStats,
    InvariantReport,
    LoopFinding,
    LoopReport,
    ReachabilityMatrix,
)
from repro.core.state import ExecutionState
from repro.core.strategy import (
    BreadthFirstStrategy,
    CoverageOrderedStrategy,
    DepthFirstStrategy,
    STRATEGIES,
    make_strategy,
)
from repro.core.values import SymbolFactory
from repro.core import checks

__all__ = [
    "BreadthFirstStrategy",
    "CAMPAIGN_QUERIES",
    "CampaignJob",
    "CampaignResult",
    "CampaignStats",
    "CoverageOrderedStrategy",
    "DepthFirstStrategy",
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
    "STRATEGIES",
    "SymNetError",
    "SymbolFactory",
    "SymbolicExecutor",
    "VerificationCampaign",
    "checks",
    "clear_runtime_cache",
    "execute_job",
    "free_input_ports",
    "make_strategy",
]
