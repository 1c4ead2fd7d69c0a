"""Fact channels: what a job collects, how, and the shape of what comes back.

Two of the campaign layer's three declarations (the third is
:class:`~repro.core.settings.RunSettings`): :class:`Facts`, the channels a
job collects, and :data:`REPORT_FIELDS`, the answer fields of a
:class:`~repro.core.jobs.JobReport` with the *shape* their baseline
decoding, symmetry renaming and JSON rendering are derived from.

A new fact channel is one ``Facts`` field, one collector called from
:func:`collect_facts` and one ``REPORT_FIELDS`` row — all in this module —
plus the :class:`~repro.api.queries.Query` subclass that asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.checks import admitted_values, field_invariant, header_visible
from repro.core.errors import MemorySafetyError
from repro.core.paths import ExecutionResult, PathStatus
from repro.core.queries import AGGREGATIONS
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

    @property
    def order_sensitive(self) -> bool:
        """True when a channel records discovery-order-sensitive artifacts
        (example traces, capped witness samples).  Such jobs never share a
        symmetry class: a renamed zone enumerates its Fork children in a
        different order, so "the first delivered path" is not
        renaming-stable; counts, loop sets and tallies are."""
        return self.record_examples or bool(self.witness_fields)

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
    comparable across symmetric jobs whose Fork children enumerate in
    different (renamed) orders, so discovery order is never kept."""
    return (
        str(loop.get("detected_at", "")),
        str(loop.get("reason", "")),
        tuple(str(port) for port in loop.get("trace", ())),
    )


class Text(str):
    """Shape leaf for port / element / message strings — what a symmetry
    renaming rewrites.  Plain ``str`` keys and leaves are names it never
    touches: header fields, path statuses, counter keys."""


def _builder(shape) -> Callable:
    """``shape`` compiled to ``build(value, text, ordered)``: a fresh copy of
    ``value`` with leaves coerced to their type (``Text`` ones through
    ``text``) and maps key-sorted if ``ordered``.  Shapes are the literals
    they describe: ``{Text: int}`` a map, ``[Text]`` a list, a dict with
    literal keys a record."""
    if shape is Text:
        return lambda value, text, ordered: text(str(value))
    if isinstance(shape, type):
        return lambda value, text, ordered: shape(value)
    if isinstance(shape, list):
        (item,) = map(_builder, shape)
        return lambda value, text, ordered: [item(v, text, ordered) for v in value]
    if all(isinstance(key, str) for key in shape):
        parts = [
            (key, _builder(sub), "" if sub is Text else ())
            for key, sub in shape.items()
        ]
        return lambda value, text, ordered: {
            key: build(value.get(key, default), text, ordered)
            for key, build, default in parts
        }
    ((key_of, item_of),) = ((_builder(k), _builder(v)) for k, v in shape.items())

    def build_map(value, text, ordered):
        items = sorted(value.items()) if ordered else value.items()
        rebuilt = {
            key_of(key, text, ordered): item_of(item, text, ordered)
            for key, item in items
        }
        if len(rebuilt) != len(value):
            raise ValueError(f"renaming collides on the keys of {sorted(value)}")
        return rebuilt

    return build_map


@dataclass(frozen=True)
class ReportField:
    """One answer field of a :class:`JobReport`."""

    name: str
    shape: object
    #: Sort key giving a list-valued field its canonical order.
    order: Optional[Callable] = None
    #: Planner-only: left out of ``to_dict`` while empty.
    optional: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "_build", _builder(self.shape))

    def rebuild(self, value, text: Callable[[str], str] = str, ordered: bool = False):
        """``value`` decoded from a JSON payload (the defaults), renamed
        (``text`` = a renaming's ``map_text``) or rendered (``ordered``)."""
        rebuilt = self._build(value, text, ordered)
        if self.order is not None:
            rebuilt.sort(key=self.order)
        return rebuilt


#: The JobReport fields that *are* the answer — what a delta baseline
#: persists, a renaming rewrites and two tiers must agree on — as opposed to
#: provenance (pids, timings, solver counters, symmetry/delta marks).
#: ``element`` and ``port`` complete :data:`SEMANTIC_FIELDS`.
REPORT_FIELDS = (
    ReportField("packet", str),
    ReportField("status_counts", {str: int}),
    ReportField("delivered_to", {Text: int}),
    ReportField(
        "loops",
        [{"detected_at": Text, "reason": Text, "trace": [Text], "cut_off": bool}],
        order=loop_sort_key,
    ),
    ReportField("drop_reasons", {Text: int}),
    ReportField("invariants", {str: {str: int}}),
    #: field -> destination port -> {checked, visible, skipped} counters.
    ReportField("visibility", {str: {Text: {str: int}}}, optional=True),
    #: field -> destination port -> sorted concrete witness values.
    ReportField("witnesses", {str: {Text: [int]}}, optional=True),
    #: destination port -> one example port trace demonstrating delivery.
    ReportField("delivered_examples", {Text: [Text]}, optional=True),
    ReportField("truncated", bool),
)
SEMANTIC_FIELDS = ("element", "port") + tuple(spec.name for spec in REPORT_FIELDS)


# ---------------------------------------------------------------------------
# Collectors (worker side)
# ---------------------------------------------------------------------------


def _check_invariants(
    result: ExecutionResult, facts: Facts, solver: Solver
) -> Dict[str, Dict[str, int]]:
    """Field invariance on every delivered path, computed where the states
    live (worker side)."""
    fields = standard_fields()
    report: Dict[str, Dict[str, int]] = {}
    for name in facts.invariant_fields:
        variable = fields.get(name, name)
        checked = held = skipped = 0
        for path in result.delivered():
            try:
                holds = field_invariant(path, variable, solver)
            except MemorySafetyError:
                # The template did not allocate this field (e.g. TcpDst on
                # an ICMP packet): skipped, not a verdict.  Anything else
                # propagates — a broken query must not masquerade as an
                # inapplicable field (it becomes the job's error).
                skipped += 1
                continue
            checked += 1
            held += 1 if holds else 0
        report[name] = {"checked": checked, "held": held, "skipped": skipped}
    return report


def _check_visibility(
    result: ExecutionResult, facts: Facts, solver: Solver
) -> Dict[str, Dict[str, Dict[str, int]]]:
    """Per-destination header visibility: is the symbol the source wrote into
    the field still provably readable where the packet was delivered?"""
    fields = standard_fields()
    report: Dict[str, Dict[str, Dict[str, int]]] = {}
    for name in facts.visibility_fields:
        variable = fields.get(name, name)
        per_destination: Dict[str, Dict[str, int]] = {}
        for path in result.delivered():
            destination = str(path.last_port)
            cell = per_destination.setdefault(
                destination, {"checked": 0, "visible": 0, "skipped": 0}
            )
            try:
                history = path.state.variable_history(variable)
                if not history:
                    cell["skipped"] += 1
                    continue
                visible = header_visible(path, variable, history[0], solver)
            except MemorySafetyError:
                cell["skipped"] += 1
                continue
            cell["checked"] += 1
            cell["visible"] += 1 if visible else 0
        report[name] = per_destination
    return report


def _collect_witnesses(
    result: ExecutionResult, facts: Facts, solver: Solver
) -> Dict[str, Dict[str, List[int]]]:
    """Concrete admitted values per delivered destination, up to the
    requested sample count per (field, destination).  Paths are scanned in
    the engine's (deterministic) discovery order, so the collected sets are
    reproducible; the final per-destination lists are sorted."""
    fields = standard_fields()
    report: Dict[str, Dict[str, List[int]]] = {}
    for name, samples in facts.witness_fields:
        variable = fields.get(name, name)
        per_destination: Dict[str, List[int]] = {}
        for path in result.delivered():
            destination = str(path.last_port)
            found = per_destination.setdefault(destination, [])
            if len(found) >= samples:
                continue
            try:
                values = admitted_values(path, variable, solver, samples)
            except MemorySafetyError:
                continue
            for value in values:
                if value not in found:
                    found.append(value)
                if len(found) >= samples:
                    break
        report[name] = {
            destination: sorted(values)
            for destination, values in per_destination.items()
        }
    return report


def collect_facts(
    result: ExecutionResult, facts: Facts, solver: Solver, report
) -> None:
    """Fill ``report`` (a :class:`~repro.core.jobs.JobReport`) with every
    channel ``facts`` asks for.  Only plain data lands in the report: it
    has to cross the process boundary."""
    if "reachability" in facts.kinds:
        for path in result.delivered():
            destination = str(path.last_port)
            report.delivered_to[destination] = (
                report.delivered_to.get(destination, 0) + 1
            )
    if "loops" in facts.kinds:
        for path in result.loops():
            report.loops.append(
                {
                    "detected_at": str(path.last_port) if path.last_port else "?",
                    "reason": path.stop_reason,
                    "trace": list(path.ports_visited),
                    "cut_off": path.cut_off,
                }
            )
        report.loops.sort(key=loop_sort_key)
    if "invariants" in facts.kinds:
        for path in result.paths:
            if path.status == PathStatus.DELIVERED:
                continue
            reason = path.stop_reason
            report.drop_reasons[reason] = report.drop_reasons.get(reason, 0) + 1
        report.invariants = _check_invariants(result, facts, solver)
    if facts.record_examples:
        for path in result.delivered():
            destination = str(path.last_port)
            report.delivered_examples.setdefault(
                destination, list(path.ports_visited)
            )
    if facts.visibility_fields:
        report.visibility = _check_visibility(result, facts, solver)
    if facts.witness_fields:
        report.witnesses = _collect_witnesses(result, facts, solver)
