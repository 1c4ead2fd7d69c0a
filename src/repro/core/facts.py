"""Fact channels: what a job collects, how, and the shape of what comes back.

Two of the campaign layer's three declarations (the third is
:class:`~repro.core.settings.RunSettings`): :class:`Facts`, the channels a
job collects, and :data:`REPORT_FIELDS`, the answer fields of a
:class:`~repro.core.jobs.JobReport` with the *shape*
(:mod:`repro.core.shapes`) their baseline encoding and decoding and JSON
rendering are derived from.

A job collects by folding: its :class:`FactFold` takes each path the moment
it ends (the engine's ``_end``), so the job keeps no path record, and a
state-memo summary keeps the fold of its subtree — a *fact delta* — that a
replay folds in.  :func:`collect_facts` reads the fold into the report.

A new fact channel is one ``Facts`` field, one fold in :class:`FactFold`
and one ``REPORT_FIELDS`` row — all in this module — plus the
:class:`~repro.api.queries.Query` subclass that asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.checks import admitted_values, field_invariant, header_visible
from repro.core.errors import MemorySafetyError
from repro.core.paths import ExecutionResult, PathRecord, PathStatus
from repro.core.queries import AGGREGATIONS
from repro.core.shapes import Reason, Shape
from repro.sefl.fields import standard_fields
from repro.solver.solver import Solver

#: Query names the campaign understands; see queries.py for how to add one.
CAMPAIGN_QUERIES = tuple(AGGREGATIONS)

#: Header fields whose invariance the ``invariants`` query checks by default.
DEFAULT_INVARIANT_FIELDS = ("IpSrc", "IpDst")


# ---------------------------------------------------------------------------
# Fact channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Facts:
    """The fact channels one job collects.  Queries state what they read as
    a ``Facts``; the plan compiler merges them per injection port and once
    for the batch.  Construction normalises (kinds in
    :data:`CAMPAIGN_QUERIES` order, names sorted, one witness budget per
    field), so equal needs are equal objects in whatever order they were
    gathered."""

    #: Aggregation kinds (:data:`CAMPAIGN_QUERIES` names).
    kinds: Tuple[str, ...] = ()
    #: Fields checked for invariance on every delivered path (only with
    #: the ``invariants`` kind).
    invariant_fields: Tuple[str, ...] = ()
    #: Fields checked per delivered destination for header visibility (is
    #: the source's symbol still readable?).
    visibility_fields: Tuple[str, ...] = ()
    #: (field, samples): up to ``samples`` witness values per destination.
    witness_fields: Tuple[Tuple[str, int], ...] = ()
    #: One example port trace per delivered destination.
    record_examples: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.kinds) - set(CAMPAIGN_QUERIES)
        if unknown:
            known = ", ".join(CAMPAIGN_QUERIES)
            raise ValueError(f"unknown queries {sorted(unknown)}; known: {known}")
        checks_invariants = "invariants" in self.kinds
        # One field under different budgets: one pass at the largest.
        budgets: Dict[str, int] = {}
        for name, samples in self.witness_fields:
            budgets[name] = max(budgets.get(name, 0), samples)
        for name, value in (
            ("kinds", tuple(k for k in CAMPAIGN_QUERIES if k in self.kinds)),
            (
                "invariant_fields",
                tuple(sorted(set(self.invariant_fields))) if checks_invariants else (),
            ),
            ("visibility_fields", tuple(sorted(set(self.visibility_fields)))),
            ("witness_fields", tuple(sorted(budgets.items()))),
            ("record_examples", bool(self.record_examples)),
        ):
            object.__setattr__(self, name, value)

    def merge(self, other: "Facts") -> "Facts":
        """The union, channel by channel (construction re-normalises)."""
        return Facts(
            *(
                mine or theirs if isinstance(mine, bool) else mine + theirs
                for mine, theirs in zip(vars(self).values(), vars(other).values())
            )
        )

    @property
    def channels(self) -> int:
        """How many collection channels a job with these facts pays for
        (counted into ``execution_counters()['fact_channels']``)."""
        return sum(
            len(value) if isinstance(value, tuple) else int(value)
            for value in vars(self).values()
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            name: [list(v) if isinstance(v, tuple) else v for v in value]
            if isinstance(value, tuple)
            else value
            for name, value in vars(self).items()
        }


# ---------------------------------------------------------------------------
# Report fields
# ---------------------------------------------------------------------------


def loop_sort_key(loop: Mapping[str, object]) -> Tuple:
    """Canonical order for a report's loop findings: they must be
    comparable across tiers that find them in different orders, so
    discovery order is never kept."""
    return (
        str(loop.get("detected_at", "")),
        str(loop.get("reason", "")),
        tuple(str(port) for port in loop.get("trace", ())),
    )


class ReportField(Shape):
    """One answer field of a :class:`JobReport`."""

    def __init__(
        self,
        name: str,
        shape,
        order: Optional[Callable] = None,
        optional: bool = False,
    ) -> None:
        super().__init__(shape, order)
        self.name = name
        #: Planner-only: left out of ``to_dict`` while empty.
        self.optional = optional


#: The JobReport fields that *are* the answer — what a delta baseline
#: persists and two tiers must agree on — as opposed to provenance (pids,
#: timings, solver counters, the delta mark).
#: ``element`` and ``port`` complete :data:`SEMANTIC_FIELDS`.
REPORT_FIELDS = (
    ReportField("packet", str),
    ReportField("status_counts", {str: int}),
    ReportField("delivered_to", {str: int}),
    ReportField(
        "loops",
        [{"detected_at": str, "reason": Reason, "trace": [str], "cut_off": bool}],
        order=loop_sort_key,
    ),
    ReportField("drop_reasons", {Reason: int}),
    ReportField("invariants", {str: {str: int}}),
    #: field -> destination port -> {checked, visible, skipped} counters.
    ReportField("visibility", {str: {str: {str: int}}}, optional=True),
    #: field -> destination port -> concrete witness values in the order
    #: found: the first ``samples`` are what a ``samples`` budget finds.
    ReportField("witnesses", {str: {str: [int]}}, optional=True),
    #: destination port -> one example port trace demonstrating delivery.
    ReportField("delivered_examples", {str: [str]}, optional=True),
    ReportField("truncated", bool),
)
SEMANTIC_FIELDS = ("element", "port") + tuple(spec.name for spec in REPORT_FIELDS)


# ---------------------------------------------------------------------------
# The fold (worker side)
# ---------------------------------------------------------------------------


class FactFold:
    """One job's fact channels, folded as its paths terminate.

    :meth:`end` folds one termination of the live run — the channels read
    delivered paths and loops only — and hands back what a delivered path
    contributed (its *ending*), which a state-memo frame folds into its own
    fold: the subtree's **fact delta**.  :meth:`merge` folds such a delta
    where a run replays the subtree.  A delta's example traces are relative
    to the state its subtree was entered with; every other channel is a
    count, or, for witnesses, the first ``samples`` distinct values in
    termination order, and folding those first values of each part keeps
    the first values of the whole.

    The per-path checks run on ``solver``, which no job reports: their
    solver work is query work, not exploration cost."""

    __slots__ = (
        "facts", "solver", "delivered_to", "loops", "invariants", "visibility",
        "witnesses", "examples", "_variables",
    )

    def __init__(self, facts: Facts, solver: Optional[Solver] = None) -> None:
        self.facts = facts
        self.solver = solver if solver is not None else Solver()
        #: Delivered paths by last port, in first-termination order.
        self.delivered_to: Dict[str, int] = {}
        #: One entry per loop termination (live runs only: a memo summary
        #: never holds one).
        self.loops: List[Dict[str, object]] = []
        self.invariants = {
            name: {"checked": 0, "held": 0, "skipped": 0} for name in facts.invariant_fields
        }
        self.visibility: Dict[str, Dict[str, Dict[str, int]]] = {
            name: {} for name in facts.visibility_fields
        }
        #: field -> destination -> witness values in the order found.
        self.witnesses: Dict[str, Dict[str, List[int]]] = {
            name: {} for name, _ in facts.witness_fields
        }
        self.examples: Dict[str, List[str]] = {}
        self._variables = _variables(facts)

    def end(self, status: str, reason: str, port, state, cut_off: bool = False,
            recording: bool = False):
        """Fold one termination at ``port`` of ``state`` (``None`` for a
        failed egress branch: no channel reads one).  Returns a delivered
        path's ending, its witnesses worked out in full when ``recording``
        (a memo frame folds it too), else ``None``."""
        if status == PathStatus.DELIVERED:
            ending = self._ending(str(port), state, recording)
            self.add(ending)
            return ending
        if status == PathStatus.LOOP and "loops" in self.facts.kinds:
            self.loops.append({
                "detected_at": str(port) if port else "?",
                "reason": reason,
                "trace": list(state.port_trace),
                "cut_off": cut_off,
            })
        return None

    def _ending(self, destination: str, state, recording: bool) -> tuple:
        """What the path delivered at ``destination`` contributes: per
        invariant and per visibility field a verdict (``None``: skipped),
        per witness field its admitted values (``None``: not needed), and
        its port trace."""
        facts, solver = self.facts, self.solver
        invariants, visibility, witnesses = self._variables
        path = PathRecord(state, PathStatus.DELIVERED)
        held = []
        for variable in invariants:
            try:
                held.append(field_invariant(path, variable, solver))
            except MemorySafetyError:
                # The template did not allocate this field (e.g. TcpDst on
                # an ICMP packet): skipped, not a verdict.  Anything else
                # propagates — a broken query must not masquerade as an
                # inapplicable field (it becomes the job's error).
                held.append(None)
        visible = []
        for variable in visibility:
            # Is the symbol the source wrote into the field still provably
            # readable where the packet was delivered?
            try:
                history = state.variable_history(variable)
                visible.append(
                    header_visible(path, variable, history[0], solver) if history else None
                )
            except MemorySafetyError:
                visible.append(None)
        values = []
        for variable, (name, samples) in zip(witnesses, facts.witness_fields):
            found = self.witnesses[name].get(destination)
            if not recording and found is not None and len(found) >= samples:
                values.append(None)
                continue
            try:
                values.append(admitted_values(path, variable, solver, samples))
            except MemorySafetyError:
                values.append(())
        return destination, held, visible, values, state.port_trace

    def add(self, ending: tuple, start: int = 0) -> None:
        """Fold a delivered path's ``ending``; its example trace is what
        the path's port trace gained after ``start`` ports."""
        destination, held, visible, values, trace = ending
        self.delivered_to[destination] = self.delivered_to.get(destination, 0) + 1
        for cell, verdict in zip(self.invariants.values(), held):
            if verdict is None:
                cell["skipped"] += 1
            else:
                cell["checked"] += 1
                cell["held"] += verdict
        for per_destination, verdict in zip(self.visibility.values(), visible):
            cell = per_destination.setdefault(
                destination, {"checked": 0, "visible": 0, "skipped": 0}
            )
            if verdict is None:
                cell["skipped"] += 1
            else:
                cell["checked"] += 1
                cell["visible"] += verdict
        for (name, samples), found in zip(self.facts.witness_fields, values):
            if found is not None:
                _take(self.witnesses[name].setdefault(destination, []), found, samples)
        if self.facts.record_examples and destination not in self.examples:
            self.examples[destination] = trace.since(start)

    def merge(self, delta: "FactFold", trace) -> None:
        """Fold ``delta``, gathered below a state whose port trace is
        ``trace`` (any iterable of ports)."""
        counts = self.delivered_to
        for destination, count in delta.delivered_to.items():
            counts[destination] = counts.get(destination, 0) + count
        for name, theirs in delta.invariants.items():
            mine = self.invariants[name]
            for key, count in theirs.items():
                mine[key] += count
        for name, theirs in delta.visibility.items():
            per_destination = self.visibility[name]
            for destination, cell in theirs.items():
                mine = per_destination.setdefault(
                    destination, {"checked": 0, "visible": 0, "skipped": 0}
                )
                for key, count in cell.items():
                    mine[key] += count
        for name, samples in self.facts.witness_fields:
            per_destination = self.witnesses[name]
            for destination, found in delta.witnesses[name].items():
                _take(per_destination.setdefault(destination, []), found, samples)
        prefix = None
        for destination, suffix in delta.examples.items():
            if destination not in self.examples:
                if prefix is None:
                    prefix = list(trace)
                self.examples[destination] = prefix + suffix


@lru_cache(maxsize=64)
def _variables(facts: Facts) -> tuple:
    """The variables ``facts``' invariant, visibility and witness fields
    name."""
    fields = standard_fields()
    return tuple(
        tuple(fields.get(name, name) for name in names)
        for names in (
            facts.invariant_fields,
            facts.visibility_fields,
            [name for name, _ in facts.witness_fields],
        )
    )


def _take(found: List[int], values, samples: int) -> None:
    """Append ``values`` not in ``found`` until it holds ``samples``."""
    for value in values:
        if len(found) >= samples:
            return
        if value not in found:
            found.append(value)


def collect_facts(result: ExecutionResult, fold: FactFold, report) -> None:
    """Fill ``report`` (a :class:`~repro.core.jobs.JobReport`) with every
    channel ``fold``'s facts ask for.  Only plain data lands in the report:
    it has to cross the process boundary.  Drop reasons come off
    ``result``'s tally."""
    facts = fold.facts
    if "reachability" in facts.kinds:
        report.delivered_to = fold.delivered_to
    if "loops" in facts.kinds:
        report.loops = sorted(fold.loops, key=loop_sort_key)
    if "invariants" in facts.kinds:
        for (status, reason), count in result.reason_counts.items():
            if status != PathStatus.DELIVERED:
                report.drop_reasons[reason] = report.drop_reasons.get(reason, 0) + count
        report.invariants = fold.invariants
    if facts.record_examples:
        report.delivered_examples = fold.examples
    if facts.visibility_fields:
        report.visibility = fold.visibility
    if facts.witness_fields:
        report.witnesses = fold.witnesses
