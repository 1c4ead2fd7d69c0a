"""Shapes: the one literal language for the plain data reports carry.

A shape is the literal it describes — ``{str: int}`` a map, ``[str]`` a
list, a dict with literal keys a record, a type a leaf — compiled once by
:class:`Shape`.  The job-report fields (:data:`repro.core.facts.REPORT_FIELDS`)
and the aggregation values that land in plan results
(:mod:`repro.core.queries`) are declared in it, and every walk over such
data is read off those declarations: decoding a JSON payload, JSON
rendering, and the reason table (``Reason`` leaves), which lets a persisted
payload state each reason text once and refer to it by id everywhere else.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence


class Reason(str):
    """Shape leaf for a stop or drop reason: text a persisted payload states
    once, in its :class:`ReasonTable`, and refers to by id everywhere
    else."""


class ReasonTable:
    """The reason texts one persisted payload (a delta baseline, a stored
    plan result) refers to by id.  Ids are assigned as reasons are
    recorded, in order of first appearance, and mean nothing else: every
    ordering is by text, and id 0 is a reason like any other."""

    def __init__(self, texts: Sequence[str] = ()) -> None:
        self.texts: List[str] = list(texts)
        self._ids = {text: index for index, text in enumerate(self.texts)}

    def id_of(self, text: str) -> int:
        index = self._ids.get(text)
        if index is None:
            index = self._ids[text] = len(self.texts)
            self.texts.append(text)
        return index

    def text_of(self, index) -> str:
        """The text of ``index`` (an int, or JSON's string spelling of one
        as an object key); ``ValueError`` if the table has no such id."""
        position = int(index)
        if not 0 <= position < len(self.texts):
            raise ValueError(f"reason id {index!r} is not in the table")
        return self.texts[position]

    @classmethod
    def from_payload(cls, payload: object) -> "ReasonTable":
        if not isinstance(payload, list) or not all(
            isinstance(text, str) for text in payload
        ):
            raise ValueError("the reason table is not a list of texts")
        return cls(payload)


def _builder(shape) -> Callable:
    """``shape`` compiled to ``build(value, ordered, reason)``: a fresh copy
    of ``value`` with leaves coerced to their type (``Reason`` ones through
    ``reason`` when one is given) and maps key-sorted if ``ordered``.
    Shapes are the literals they describe: ``{str: int}`` a map, ``[str]``
    a list, a dict with literal keys a record."""
    if shape is Reason:
        return lambda value, ordered, reason: (
            reason(value) if reason is not None else str(value)
        )
    if isinstance(shape, type):
        return lambda value, ordered, reason: shape(value)
    if isinstance(shape, list):
        (item,) = map(_builder, shape)
        return lambda value, ordered, reason: [item(v, ordered, reason) for v in value]
    if all(isinstance(key, str) for key in shape):
        parts = [
            (key, _builder(sub), "" if sub in (str, Reason) else ())
            for key, sub in shape.items()
        ]
        return lambda value, ordered, reason: {
            key: build(value.get(key, default), ordered, reason)
            for key, build, default in parts
        }
    ((key_of, item_of),) = ((_builder(k), _builder(v)) for k, v in shape.items())

    def build_map(value, ordered, reason):
        items = sorted(value.items()) if ordered else value.items()
        rebuilt = {
            key_of(key, ordered, reason): item_of(item, ordered, reason)
            for key, item in items
        }
        if len(rebuilt) != len(value):
            raise ValueError(f"the keys of {sorted(value)} collide")
        return rebuilt

    return build_map


def _mentions(shape, leaf) -> bool:
    if shape is leaf:
        return True
    if isinstance(shape, list):
        return _mentions(shape[0], leaf)
    if isinstance(shape, dict):
        return any(
            _mentions(key, leaf) or _mentions(sub, leaf) for key, sub in shape.items()
        )
    return False


class Shape:
    """A shape literal, compiled once."""

    def __init__(self, shape, order: Optional[Callable] = None) -> None:
        #: Sort key giving a list-valued shape its canonical order.
        self.order = order
        self._build = _builder(shape)
        self.has_reasons = _mentions(shape, Reason)

    def rebuild(
        self,
        value,
        ordered: bool = False,
        reasons: Optional[ReasonTable] = None,
    ):
        """``value`` decoded from a JSON payload (the defaults; ``reasons``
        when its reasons are ids into that table) or rendered
        (``ordered``)."""
        reason = reasons.text_of if reasons is not None else None
        rebuilt = self._build(value, ordered, reason)
        if self.order is not None:
            rebuilt.sort(key=self.order)
        return rebuilt

    def encode(self, value, reasons: ReasonTable):
        """``value`` with every reason stated as its id in ``reasons`` (new
        texts are added as they are met), order kept; ``value`` itself when
        the shape holds no reason."""
        if not self.has_reasons:
            return value
        return self._build(value, False, reasons.id_of)
