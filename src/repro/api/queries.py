"""The declarative query object model of the session API.

A :class:`Query` is a *description* of a network-wide question — it carries
no execution state.  The plan compiler (:mod:`repro.api.planner`) inspects a
batch of queries for (a) the injection ports they jointly need and (b) the
raw per-job facts the campaign workers must collect, runs the minimal set of
engine jobs, and calls :meth:`Query.evaluate` to demultiplex each query's
answer out of the shared campaign result.

Leaf queries
    :class:`Reach`, :class:`Loop`, :class:`Invariant`,
    :class:`HeaderVisible`, :class:`AdmittedValues`
Combinators
    :class:`All`, :class:`Any_`, :class:`Not` (over queries with a boolean
    verdict)
Quantifiers over port sets
    :class:`ForAllPairs` (the model's default injection ports),
    :class:`FromPorts` (an explicit port set)

Every query type declares its textual form once — a ``name`` and an ordered
``params`` list of :class:`Param` — and :data:`QUERY_TYPES` maps each name
to its class.  :meth:`Query.describe` renders that declaration and
:func:`repro.api.text.parse_query` binds it, so the canonical text every
front end (CLI ``query``, serve, scenario ``--query``) speaks cannot drift
from the objects.  Every answer is a :class:`QueryResult` with a verdict, a
JSON-able value, evidence, and a stable fingerprint.

Verdicts are **three-valued**: a job cut short by ``max_paths`` or failed
has shown only part of its port's behaviour, so a leaf over it answers
``holds=None`` (unknown; ``evidence["incomplete_ports"]`` names the ports)
unless what *was* explored already settles it, and the combinators follow
Kleene logic.  No check falls through to "pass".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.facts import Facts
from repro.core.queries import InvariantReport, LoopReport, port_key
from repro.core.shapes import Shape

PortLike = Union[str, Tuple[str, str]]

#: Parameter kinds: how a value is spelt and read back.  ``ATOM`` is one
#: name — a port, an endpoint or a header field; ``LIST`` atoms joined by
#: ``+``; ``INT`` an integer; ``QUERIES`` every remaining positional
#: argument, each a query; ``TEMPLATE`` a query or the bare word ``reach``
#: (the :class:`Reach` class itself: the all-pairs matrix).
ATOM, LIST, INT, QUERIES, TEMPLATE = "atom", "list", "int", "queries", "template"


class Param(NamedTuple):
    """One parameter of a query's textual form: the attribute (and
    constructor keyword) holding its value, its kind, and whether it is
    spelt ``attr=value`` rather than by position.  A ``None`` value is
    omitted."""

    attr: str
    kind: str
    keyed: bool = False


def _text(value) -> str:
    """An atom's spelling: a port tuple as ``element:port``."""
    return port_key(*value) if isinstance(value, tuple) else str(value)


def _spell(kind: str, value) -> str:
    if kind == LIST:
        return "+".join(map(_text, value))
    if kind == QUERIES:
        return ", ".join(query.describe() for query in value)
    if kind == TEMPLATE:
        return "reach" if value is Reach else value.describe()
    return _text(value)


def normalize_port(port: PortLike, default_port: str = "in0") -> Tuple[str, str]:
    """Accept ``(element, port)`` tuples, ``"element:port"`` strings, or bare
    element names (which get the conventional ``in0`` input port)."""
    if isinstance(port, tuple):
        element, name = port
        return (str(element), str(name))
    element, sep, name = str(port).partition(":")
    if not element:
        raise ValueError(f"invalid port {port!r}")
    return (element, name if sep else default_port)


def _endpoint(at: Optional[PortLike]) -> Optional[str]:
    """An endpoint argument as text: a full ``element:port``, a bare element
    name, or ``None`` (anywhere)."""
    return None if at is None else _text(at)


def _endpoint_matches(endpoint: Optional[str], destination: str) -> bool:
    """Does the delivered-at port ``destination`` fall under ``endpoint``?
    A bare element matches every port of that element, ``None`` anything."""
    if endpoint is None:
        return True
    if ":" in endpoint:
        return destination == endpoint
    return destination.partition(":")[0] == endpoint


def _fingerprint_payload(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class QueryResult:
    """One query's demultiplexed answer.

    ``holds`` is the verdict — ``None`` when unknown (part of the query's
    scope was explored incompletely and the rest does not decide it) and for
    report-style queries such as the all-pairs matrix or witness sampling,
    which have none — ``value`` the JSON-able
    answer body, ``evidence`` supporting facts (example delivery traces, loop
    port traces, violation lists), and ``backend`` the aggregation object the
    answer was computed from (:class:`~repro.core.queries.ReachabilityMatrix`
    and friends) — kept for bit-identical comparison against legacy campaign
    results, never serialised.
    """

    query: str
    kind: str
    holds: Optional[bool]
    value: object
    evidence: Dict[str, object] = field(default_factory=dict)
    backend: object = None
    #: Fingerprint restored from a persistent plan-result cache entry
    #: (repro.store).  Backend objects are never serialised, so a cached
    #: answer carries the fingerprint its original computed — which the
    #: store-parity tests assert is bit-identical to a fresh execution.
    stored_fingerprint: Optional[str] = None
    _fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the answer: identical for any execution
        order, worker count, or cache configuration.  Computed on first
        read — a result is not changed once it is built."""
        if self.stored_fingerprint is not None:
            return self.stored_fingerprint
        if self._fingerprint is None:
            if self.backend is not None and hasattr(self.backend, "fingerprint"):
                payload: object = repr(self.backend.fingerprint())
            else:
                payload = self.value
            self._fingerprint = _fingerprint_payload(
                {"query": self.query, "kind": self.kind, "holds": self.holds,
                 "payload": payload}
            )
        return self._fingerprint

    def summary(self) -> str:
        """The answer in a word: the verdict; ``?`` when it is unknown
        because the exploration it rests on was cut short; for a report-style
        query, which has no verdict to give, the value in brief."""
        if self.holds is not None:
            return str(self.holds)
        if "incomplete_ports" in self.evidence:
            return "?"
        value = self.value if isinstance(self.value, dict) else {}
        if "reachable_pairs" in value:
            return f"{value['reachable_pairs']} pairs"
        return str(value.get("values", self.value))

    @classmethod
    def from_cached(cls, payload: Dict[str, object]) -> "QueryResult":
        """Rebuild an answer from its serialised form (plan-result cache)."""
        return cls(
            query=str(payload.get("query", "")),
            kind=str(payload.get("kind", "")),
            holds=payload.get("holds"),  # type: ignore[arg-type]
            value=payload.get("value"),
            evidence=dict(payload.get("evidence") or {}),
            stored_fingerprint=str(payload.get("fingerprint", "")) or None,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "query": self.query,
            "kind": self.kind,
            "holds": self.holds,
            "value": self.value,
            "evidence": self.evidence,
            "fingerprint": self.fingerprint,
        }


# ---------------------------------------------------------------------------
# Query base
# ---------------------------------------------------------------------------


class Query:
    """Base class: a declarative, executable-by-plan network question.

    A subclass declares its textual form as ``name`` plus ``params``;
    :meth:`describe` renders it and :func:`repro.api.text.parse_query`
    builds ``cls(first, **rest)`` from it — the first parameter by position
    (spread when it is ``QUERIES``), every other under its attribute name.
    """

    #: Whether the query has a boolean verdict (required under All/Any/Not).
    decidable = True
    name = ""
    params: Tuple[Param, ...] = ()
    #: The shape of the answer value, declared where the value holds
    #: reasons (:class:`~repro.core.shapes.Reason`): the stored plan record
    #: states them once (:func:`recode_answer`).
    value_shape: Optional[Shape] = None

    @classmethod
    def recode_value(cls, value, recode: Callable):
        """An answer value of this kind with ``recode(shape, value)``
        applied where it holds reasons."""
        return value if cls.value_shape is None else recode(cls.value_shape, value)

    def requirements(self) -> Facts:
        """The per-job fact channels this query reads."""
        raise NotImplementedError

    def injections(self) -> Tuple[Tuple[str, str], ...]:
        """Injection ports this query explicitly needs."""
        return ()

    def needs_default_injections(self) -> bool:
        """True when the query quantifies over the model's default ports."""
        return False

    def describe(self) -> str:
        """The canonical text: ``name(arg, ..., key=arg)``, read off
        ``params``."""
        args: List[str] = []
        for param in self.params:
            value = getattr(self, param.attr)
            if value is not None:
                text = _spell(param.kind, value)
                args.append(f"{param.attr}={text}" if param.keyed else text)
        return f"{self.name}({', '.join(args)})"

    def evaluate(self, ctx) -> QueryResult:
        return self._evaluate(ctx, ctx.resolve_scope(self))

    def _evaluate(self, ctx, scope: Tuple[str, ...]) -> QueryResult:
        raise NotImplementedError

    def _result(
        self,
        ctx,
        scope: Sequence[str],
        kind: str,
        holds: Optional[bool],
        value: object,
        evidence: Dict[str, object],
        settled: Optional[bool] = None,
        backend: object = None,
    ) -> QueryResult:
        """The answer over ``scope``.  ``holds`` is the verdict a complete
        exploration earns; with an incomplete job in scope only ``settled``
        — what the explored part already decides, if anything — is claimed."""
        incomplete = ctx.incomplete_ports(scope)
        if incomplete:
            holds = settled
            evidence = dict(evidence, incomplete_ports=incomplete)
        return QueryResult(
            query=self.describe(),
            kind=kind,
            holds=holds,
            value=value,
            evidence=evidence,
            backend=backend,
        )

    def __repr__(self) -> str:
        return self.describe()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash(self.describe())


# ---------------------------------------------------------------------------
# Leaf queries
# ---------------------------------------------------------------------------


class Reach(Query):
    """Can packets injected at ``src`` be delivered at ``dst``?

    ``src`` is an injection port (``"element:port"``, ``(element, port)`` or
    a bare element name, defaulting to ``in0``).  ``dst`` is a terminal
    output port, or a bare element name matching any of its ports.
    """

    name = "reach"
    params = (Param("src", ATOM), Param("dst", ATOM))

    def __init__(self, src: PortLike, dst: PortLike) -> None:
        self.src = normalize_port(src)
        self.dst = _endpoint(dst)

    @property
    def src_key(self) -> str:
        return port_key(*self.src)

    def requirements(self) -> Facts:
        return Facts(kinds=("reachability",), record_examples=True)

    def injections(self) -> Tuple[Tuple[str, str], ...]:
        return (self.src,)

    def _evaluate(self, ctx, scope: Tuple[str, ...]) -> QueryResult:
        matrix = ctx.subreport("reachability", (self.src_key,))
        counts = {
            destination: count
            for source, destination, count in matrix.pairs()
            if source == self.src_key and _endpoint_matches(self.dst, destination)
        }
        examples: Dict[str, List[str]] = {}
        for job in ctx.jobs_for((self.src_key,)):
            for destination, trace in sorted(job.delivered_examples.items()):
                if (
                    _endpoint_matches(self.dst, destination)
                    and destination not in examples
                ):
                    examples[destination] = list(trace)
        delivered = sum(counts.values()) > 0
        return self._result(
            ctx,
            (self.src_key,),
            "reach",
            holds=delivered,
            settled=True if delivered else None,  # a delivery found stays found
            value={"path_counts": dict(sorted(counts.items()))},
            evidence={
                "examples": examples,
                "destinations_from_source": matrix.destinations_from(
                    self.src_key
                ),
            },
        )


class _PortScoped(Query):
    """A leaf over one injection port or — ``port=None`` — over every
    default injection port of the model."""

    port: Optional[Tuple[str, str]] = None

    def injections(self) -> Tuple[Tuple[str, str], ...]:
        return (self.port,) if self.port is not None else ()

    def needs_default_injections(self) -> bool:
        return self.port is None


class Loop(_PortScoped):
    """Is the network loop-free (from one injection port, or — by default —
    from every default injection port)?  ``holds`` is True when **no** loop
    was found."""

    name = "loop"
    params = (Param("port", ATOM),)
    value_shape = LoopReport.VALUE_SHAPE

    def __init__(self, port: Optional[PortLike] = None) -> None:
        self.port = normalize_port(port) if port is not None else None

    def requirements(self) -> Facts:
        return Facts(kinds=("loops",))

    def _evaluate(self, ctx, scope: Tuple[str, ...]) -> QueryResult:
        report = ctx.subreport("loops", scope)
        return self._result(
            ctx,
            scope,
            "loop",
            holds=report.loop_free,
            settled=False if report.loop_proved else None,
            value=report.to_dict(),
            evidence={
                "findings": len(report.findings),
                "sources_with_loops": report.sources_with_loops(),
            },
            backend=report,
        )


class Invariant(_PortScoped):
    """Do the given header fields provably keep their injected values on
    every delivered path (from one port, or every default port)?

    A field that could not be checked anywhere (vacuous) reports ``holds``
    False — the tool never hands out a green verdict it did not earn.
    """

    name = "invariant"
    params = (Param("fields", LIST), Param("port", ATOM))
    value_shape = InvariantReport.VALUE_SHAPE

    def __init__(self, *fields: str, port: Optional[PortLike] = None) -> None:
        if len(fields) == 1 and isinstance(fields[0], (tuple, list)):
            fields = tuple(fields[0])
        if not fields:
            raise ValueError("Invariant needs at least one header field")
        self.fields = tuple(str(f) for f in fields)
        self.port = normalize_port(port) if port is not None else None

    def requirements(self) -> Facts:
        return Facts(kinds=("invariants",), invariant_fields=self.fields)

    def _evaluate(self, ctx, scope: Tuple[str, ...]) -> QueryResult:
        report = ctx.subreport("invariants", scope, fields=self.fields)
        vacuous = [f for f in self.fields if report.field_vacuous(f)]
        return self._result(
            ctx,
            scope,
            "invariant",
            holds=all(report.field_holds(f) for f in self.fields),
            settled=False if report.violations() else None,
            value=report.to_dict(),
            evidence={
                "violations": [
                    {"source": source, "field": name, **cell.to_dict()}
                    for source, name, cell in report.violations()
                ],
                "vacuous_fields": vacuous,
            },
            backend=report,
        )


class HeaderVisible(_PortScoped):
    """Is the symbol the source wrote into ``field`` still provably readable
    where the packets are delivered (at port/element ``at``, or anywhere)?

    Distinguishes a field that carries the sender's symbol end-to-end from
    one that was overwritten (NAT, encryption) — the §6 visibility test,
    lifted network-wide.
    """

    name = "header_visible"
    params = (Param("field_name", ATOM), Param("at", ATOM, keyed=True),
              Param("port", ATOM, keyed=True))

    def __init__(
        self,
        field_name: str,
        at: Optional[PortLike] = None,
        port: Optional[PortLike] = None,
    ) -> None:
        self.field_name = str(field_name)
        self.at = _endpoint(at)
        self.port = normalize_port(port) if port is not None else None

    def requirements(self) -> Facts:
        return Facts(visibility_fields=(self.field_name,))

    def _evaluate(self, ctx, scope: Tuple[str, ...]) -> QueryResult:
        checked = visible = skipped = 0
        by_source: Dict[str, Dict[str, Dict[str, int]]] = {}
        for job in ctx.jobs_for(scope):
            for destination, cell in sorted(
                job.visibility.get(self.field_name, {}).items()
            ):
                if not _endpoint_matches(self.at, destination):
                    continue
                checked += cell.get("checked", 0)
                visible += cell.get("visible", 0)
                skipped += cell.get("skipped", 0)
                by_source.setdefault(job.source_key, {})[destination] = dict(cell)
        return self._result(
            ctx,
            scope,
            "header_visible",
            holds=checked > 0 and visible == checked,
            settled=False if visible < checked else None,
            value={
                "field": self.field_name,
                "at": self.at,
                "checked": checked,
                "visible": visible,
                "skipped": skipped,
            },
            evidence={"by_source": by_source},
        )


class AdmittedValues(_PortScoped):
    """Which concrete values can ``field`` take on packets delivered at
    ``at`` (or anywhere)?  A report query — no boolean verdict — collecting
    up to ``samples`` solver witnesses per (injection, destination)."""

    decidable = False
    name = "admitted_values"
    params = (Param("field_name", ATOM), Param("at", ATOM, keyed=True),
              Param("samples", INT, keyed=True), Param("port", ATOM, keyed=True))

    def __init__(
        self,
        field_name: str,
        at: Optional[PortLike] = None,
        samples: int = 3,
        port: Optional[PortLike] = None,
    ) -> None:
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.field_name = str(field_name)
        self.at = _endpoint(at)
        self.samples = int(samples)
        self.port = normalize_port(port) if port is not None else None

    def requirements(self) -> Facts:
        return Facts(witness_fields=((self.field_name, self.samples),))

    def _evaluate(self, ctx, scope: Tuple[str, ...]) -> QueryResult:
        values = set()
        by_source: Dict[str, Dict[str, List[int]]] = {}
        for job in ctx.jobs_for(scope):
            for destination, found in sorted(
                job.witnesses.get(self.field_name, {}).items()
            ):
                if not _endpoint_matches(self.at, destination) or not found:
                    continue
                values.update(found)
                by_source.setdefault(job.source_key, {})[destination] = list(found)
        return self._result(
            ctx,
            scope,
            "admitted_values",
            holds=None,
            value={
                "field": self.field_name,
                "at": self.at,
                "values": sorted(values),
            },
            evidence={"by_source": by_source},
        )


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


class _Combinator(Query):
    params = (Param("queries", QUERIES),)

    def __init__(self, *queries: Query) -> None:
        if not queries:
            raise ValueError(f"{self.name}() needs at least one query")
        for query in queries:
            if not isinstance(query, Query):
                raise TypeError(f"{self.name}() takes queries, got {query!r}")
            if not query.decidable:
                raise TypeError(
                    f"{self.name}() needs queries with a boolean verdict; "
                    f"{query.describe()} is a report query"
                )
        self.queries = tuple(queries)

    @classmethod
    def recode_value(cls, value, recode: Callable):
        return [recode_answer(child, recode) for child in value]

    def requirements(self) -> Facts:
        merged = Facts()
        for query in self.queries:
            merged = merged.merge(query.requirements())
        return merged

    def injections(self) -> Tuple[Tuple[str, str], ...]:
        ports: List[Tuple[str, str]] = []
        for query in self.queries:
            ports.extend(query.injections())
        return tuple(sorted(set(ports)))

    def needs_default_injections(self) -> bool:
        return any(q.needs_default_injections() for q in self.queries)

    def _verdict(self, verdicts: Sequence[Optional[bool]]) -> Optional[bool]:
        """Kleene logic over the children's verdicts (``None`` = unknown)."""
        raise NotImplementedError

    def _evaluate(self, ctx, scope: Tuple[str, ...]) -> QueryResult:
        children = [query.evaluate(ctx) for query in self.queries]
        # The children already answered three-valued; ``scope`` is the union
        # of theirs, so the evidence names every job one of them rests on.
        verdict = self._verdict([child.holds for child in children])
        return self._result(
            ctx,
            scope,
            self.name,
            holds=verdict,
            settled=verdict,
            value=[child.to_dict() for child in children],
            evidence={"children": [child.fingerprint for child in children]},
        )


class All(_Combinator):
    """True when every sub-query holds; False as soon as one is known not
    to, whatever the unknowns."""

    name = "all"

    def _verdict(self, verdicts: Sequence[Optional[bool]]) -> Optional[bool]:
        if False in verdicts:
            return False
        return None if None in verdicts else True


class Any_(_Combinator):
    """True as soon as one sub-query is known to hold; False when every one
    is known not to."""

    name = "any"

    def _verdict(self, verdicts: Sequence[Optional[bool]]) -> Optional[bool]:
        if True in verdicts:
            return True
        return None if None in verdicts else False


class Not(_Combinator):
    """Negates a single sub-query's verdict."""

    name = "not"

    def __init__(self, *queries: Query) -> None:
        if len(queries) != 1:
            raise ValueError("not() takes exactly one query")
        super().__init__(*queries)

    def _verdict(self, verdicts: Sequence[Optional[bool]]) -> Optional[bool]:
        return None if verdicts[0] is None else not verdicts[0]


# ---------------------------------------------------------------------------
# Quantifiers over port sets
# ---------------------------------------------------------------------------


class _Quantifier(Query):
    """Shared machinery of ForAllPairs/FromPorts: a template — the
    :class:`Reach` *class* for the all-pairs matrix, or a query instance —
    evaluated over a quantifier-chosen injection scope."""

    decidable = False  # matrix mode has no boolean verdict; delegate mode
    # restores the template's own decidability in __init__.

    def __init__(self, template) -> None:
        if template is Reach:
            self.template = Reach
        elif isinstance(template, Query):
            self.template = template
            self.decidable = template.decidable
        else:
            raise TypeError(
                "quantifiers take the Reach class or a query instance, "
                f"not {template!r}"
            )

    def requirements(self) -> Facts:
        if self.template is Reach:
            return Facts(kinds=("reachability",))
        return self.template.requirements()

    def _scope_keys(self, ctx) -> Tuple[str, ...]:
        raise NotImplementedError

    def _evaluate(self, ctx, scope: Tuple[str, ...]) -> QueryResult:
        keys = self._scope_keys(ctx)
        if self.template is Reach:
            matrix = ctx.subreport("reachability", keys)
            return self._result(
                ctx,
                keys,
                "reach_matrix",
                holds=None,
                value=matrix.to_dict(),
                evidence={"reachable_pairs": matrix.pair_count()},
                backend=matrix,
            )
        return replace(self.template._evaluate(ctx, keys), query=self.describe())


class ForAllPairs(_Quantifier):
    """Quantify a template over **all** of the model's default injection
    ports.  ``ForAllPairs(Reach)`` is the all-pairs reachability matrix;
    ``ForAllPairs(Invariant("IpSrc"))`` forces network-wide scope even for a
    template that names a port."""

    name = "forall_pairs"
    params = (Param("template", TEMPLATE),)

    def needs_default_injections(self) -> bool:
        return True

    def _scope_keys(self, ctx) -> Tuple[str, ...]:
        return ctx.default_scope()


class FromPorts(_Quantifier):
    """Quantify a template over an explicit injection port set."""

    name = "from_ports"
    params = (Param("ports", LIST), Param("template", TEMPLATE))

    def __init__(self, ports: Sequence[PortLike], template) -> None:
        super().__init__(template)
        normalized = tuple(sorted({normalize_port(p) for p in ports}))
        if not normalized:
            raise ValueError("FromPorts needs at least one port")
        self.ports = normalized

    def injections(self) -> Tuple[Tuple[str, str], ...]:
        # The quantifier's scope *replaces* the template's own port (same as
        # ForAllPairs), so only the quantifier ports become jobs.
        return self.ports

    def needs_default_injections(self) -> bool:
        return False

    def _scope_keys(self, ctx) -> Tuple[str, ...]:
        return tuple(port_key(*p) for p in self.ports)


#: ``Any`` shadows ``typing.Any`` when star-imported; the trailing
#: underscore is the class's real name, this alias the ergonomic one.
Any = Any_

#: Every query type by its textual name: the table the parser binds a call
#: against.
QUERY_TYPES: Dict[str, type] = {
    cls.name: cls
    for cls in (Reach, Loop, Invariant, HeaderVisible, AdmittedValues,
                All, Any_, Not, ForAllPairs, FromPorts)
}


def recode_answer(answer: Dict[str, object], recode: Callable) -> Dict[str, object]:
    """An answer as :meth:`QueryResult.to_dict` renders it, with
    ``recode(shape, value)`` applied where its kind's value holds reasons
    (``Query.value_shape``; a combinator's children each by their own
    kind).  Key order is kept; anything that is not such an answer is
    returned as it is."""
    kind = QUERY_TYPES.get(answer.get("kind")) if isinstance(answer, dict) else None
    if kind is None:
        return answer
    value = kind.recode_value(answer.get("value"), recode)
    return answer if value is answer.get("value") else dict(answer, value=value)
