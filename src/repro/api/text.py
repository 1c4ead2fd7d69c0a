"""The textual form of the query object model: the wire format of the CLI
``query`` command, the serve protocol and scenario ``--query``.

The grammar is not written here: each query class declares its ``name`` and
``params`` (:class:`repro.api.queries.Param`), :meth:`Query.describe`
renders that declaration, and :func:`parse_query` binds a parsed call
against it — so every query round-trips by construction:
``parse_query(q.describe()) == q``.

::

    query  := NAME [ '(' args ')' ]         # a bare NAME is NAME()
    args   := arg (',' arg)*
    arg    := NAME '=' value | value
    value  := query | atom ('+' atom)*      # '+' builds lists (ports, fields)
    atom   := [:\\w*/.-]+                    # element:port, field names, ints

An atom is spelt with every character a topology file's element and port
names use (:data:`repro.network.ports.PORT_CHARS`, so ``sw:Gi1/0/1`` is one
atom) plus the ``:`` joining them.  An argument binds to its parameter by
position or as ``attr=value``, whatever the parameter's rendering.

Examples::

    reach(a:in0, b:out0)          loop()            loop(acl0:in0)
    invariant(IpSrc+IpDst)        invariant(IpSrc, acl0:in0)
    header_visible(IpSrc, at=r1:out0)
    admitted_values(TcpDst, at=r1:out0, samples=3)
    all(loop(), invariant(IpSrc)) not(reach(a:in0, b))
    forall_pairs(reach)           from_ports(a:in0+b:in0, loop())
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.api.queries import INT, LIST, QUERIES, QUERY_TYPES, TEMPLATE, Query, Reach
from repro.network.ports import PORT_CHARS


class QueryParseError(ValueError):
    """A textual query that does not parse (or names an unknown query)."""


_TOKEN = re.compile(rf"\s*(?:([:{PORT_CHARS}]+|[(),=+])|(\S))")

# AST nodes: ("call", name, [(key|None, node), ...]) | ("atom", text)
#            | ("list", [text, ...])
_Node = Tuple


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    for token, stray in _TOKEN.findall(text):
        if stray:
            raise QueryParseError(f"unexpected character {stray!r} in query {text!r}")
        tokens.append(token)
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryParseError(f"unexpected end of query {self.text!r}")
        self.pos += 1
        return token

    def parse(self) -> _Node:
        node = self.parse_value()
        if self.peek() is not None:
            raise QueryParseError(
                f"trailing input {self.peek()!r} in query {self.text!r}"
            )
        return node

    def parse_value(self) -> _Node:
        head = self.take()
        if head in "(),=+":
            raise QueryParseError(
                f"expected a name, got {head!r} in query {self.text!r}"
            )
        if self.peek() == "(":
            self.take()
            args: List[Tuple[Optional[str], _Node]] = []
            if self.peek() == ")":
                self.take()
                return ("call", head, args)
            while True:
                args.append(self.parse_arg())
                token = self.take()
                if token == ")":
                    return ("call", head, args)
                if token != ",":
                    raise QueryParseError(
                        f"expected ',' or ')', got {token!r} in query "
                        f"{self.text!r}"
                    )
        if self.peek() == "+":
            items = [head]
            while self.peek() == "+":
                self.take()
                items.append(self.take())
            return ("list", items)
        return ("atom", head)

    def parse_arg(self) -> Tuple[Optional[str], _Node]:
        # A keyword argument is NAME '=' value; anything else is positional.
        if (
            self.pos + 1 < len(self.tokens)
            and self.tokens[self.pos + 1] == "="
            and self.tokens[self.pos] not in "(),=+"
        ):
            key = self.take()
            self.take()  # the '=' peeked above
            return (key, self.parse_value())
        return (None, self.parse_value())


# ---------------------------------------------------------------------------
# AST -> query objects, by each class's declared parameters
# ---------------------------------------------------------------------------


def _value(kind: str, node: _Node, text: str):
    """One argument read as a value of parameter kind ``kind``."""
    if kind == TEMPLATE and node == ("atom", "reach"):
        return Reach
    if kind in (QUERIES, TEMPLATE):
        return _bind(node, text)
    if kind == LIST and node[0] == "list":
        return list(node[1])
    if node[0] != "atom":
        raise QueryParseError(f"expected a name, got a {node[0]} in {text!r}")
    if kind == LIST:
        return [node[1]]
    if kind == INT:
        try:
            return int(node[1])
        except ValueError:
            raise QueryParseError(f"expected an integer, got {node[1]!r}") from None
    return node[1]


def _bind(node: _Node, text: str) -> Query:
    """A parsed call as a query: look its name up in ``QUERY_TYPES``, bind
    each argument to a declared parameter by position or by name, and
    construct the class as :class:`~repro.api.queries.Query` documents."""
    if node[0] == "atom":
        # Bare names are sugar for zero-argument calls: "loop" == "loop()".
        node = ("call", node[1], [])
    if node[0] != "call":
        raise QueryParseError(f"expected a query in {text!r}")
    _, name, args = node
    cls = QUERY_TYPES.get(name)
    if cls is None:
        known = ", ".join(sorted(QUERY_TYPES))
        raise QueryParseError(f"unknown query {name!r}; known: {known}")
    by_name = {param.attr: param for param in cls.params}
    bound: Dict[str, object] = {}
    position = 0
    for key, arg in args:
        if key is None:
            if position == len(cls.params):
                raise QueryParseError(f"too many arguments to {name}() in {text!r}")
            param = cls.params[position]
            if param.kind != QUERIES:  # a query list takes every remaining one
                position += 1
        elif key in by_name:
            param = by_name[key]
        else:
            raise QueryParseError(
                f"unknown keyword {key!r} in {name}(); "
                f"allowed: {', '.join(by_name) or '(none)'}"
            )
        value = _value(param.kind, arg, text)
        if param.kind == QUERIES:
            bound.setdefault(param.attr, []).append(value)
        elif param.attr in bound:
            raise QueryParseError(f"{param.attr} given twice to {name}() in {text!r}")
        else:
            bound[param.attr] = value
    leading: Tuple = ()
    if cls.params and cls.params[0].attr in bound:
        first = cls.params[0]
        head = bound.pop(first.attr)
        leading = tuple(head) if first.kind == QUERIES else (head,)
    try:
        return cls(*leading, **bound)
    except (TypeError, ValueError) as exc:
        raise QueryParseError(f"bad {name}() in {text!r}: {exc}") from None


def parse_query(text: str) -> Query:
    """Parse one textual query into its query object."""
    if not text or not text.strip():
        raise QueryParseError("empty query")
    return _bind(_Parser(text).parse(), text)
