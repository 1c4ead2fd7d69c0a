"""The session API — one front door to the whole analysis stack.

Construct a :class:`NetworkModel` (from a snapshot directory, a registered
workload, or an in-process :class:`~repro.network.Network`), describe the
questions as declarative :class:`Query` objects, and let the plan compiler
run the minimal set of engine jobs they jointly need:

>>> from repro.api import NetworkModel, ForAllPairs, Reach, Loop, Invariant
>>> model = NetworkModel.from_workload("department")        # doctest: +SKIP
... result = model.query(ForAllPairs(Reach), Loop(), Invariant("IpSrc"))
... result["loop()"].holds                 # loop-free?
... result["forall_pairs(reach)"].value    # the all-pairs matrix

Queries over the same injection ports share one symbolic execution; the
campaign machinery underneath contributes process-pool workers, the
three-tier verdict cache and warm starts.  ``repro.api.checks`` re-exports
the path-level predicates (:func:`~repro.core.checks.field_invariant` and
friends) for single-result workflows.
"""

from repro.api.model import NetworkModel
from repro.api.planner import (
    Plan,
    PlanContext,
    PlanResult,
    compile_plan,
    execute_plan,
)
from repro.api.queries import (
    AdmittedValues,
    All,
    Any,
    Any_,
    ForAllPairs,
    FromPorts,
    HeaderVisible,
    Invariant,
    Loop,
    Not,
    Query,
    QueryResult,
    Reach,
    normalize_port,
)
from repro.api.text import QueryParseError, parse_query
from repro.core import checks

__all__ = [
    "AdmittedValues",
    "All",
    "Any",
    "Any_",
    "ForAllPairs",
    "FromPorts",
    "HeaderVisible",
    "Invariant",
    "Loop",
    "NetworkModel",
    "Not",
    "Plan",
    "PlanContext",
    "PlanResult",
    "Query",
    "QueryParseError",
    "QueryResult",
    "Reach",
    "checks",
    "compile_plan",
    "execute_plan",
    "normalize_port",
    "parse_query",
]
