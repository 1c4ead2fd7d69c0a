"""The benchmark's own in-memory span recorder.

The traced pass wraps every call into a ``src/repro`` layer in one span —
``{id, name, start_ns, end_ns, parent, op_id}`` — and nests the spans the
program's own :class:`repro.obs.Tracer` exported (``plan.compile``,
``campaign``, ``job``, ``solver.check``, ...) under whichever benchmark span
was open around them.  Spans stay in memory until the run ends and are then
written as one Chrome trace-event file.

A span's *self time* is its duration minus the part of that interval its
children cover (children of one parent may overlap — pool workers run in
parallel — so coverage is the union of their intervals, clipped to the
parent).

Timestamps are ``time.perf_counter_ns()``: CLOCK_MONOTONIC, comparable
across the processes of one machine, so spans recorded by pool workers or by
a traced ``repro.cli serve`` subprocess land on the benchmark's timeline.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class NullRecorder:
    """Recorder of the timed pass: no spans, no timestamps."""

    def span(self, name: str, **attrs: object):
        return nullcontext()


class Recorder:
    """Spans of one traced run, grouped into operations by ``op_id``."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._stack: List[int] = []
        self._op_ids = itertools.count(1)
        self.op_id = 0

    def begin_op(self) -> int:
        """Start a new operation: spans recorded from here on share its id."""
        self.op_id = next(self._op_ids)
        return self.op_id

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: int = 0,
        op_id: Optional[int] = None,
        pid: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """Record one finished span (for spans timed on other threads or in
        other processes); returns its id."""
        span_id = next(self._ids)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start_ns": int(start_ns),
                "end_ns": int(end_ns),
                "parent": parent,
                "op_id": self.op_id if op_id is None else op_id,
                "pid": os.getpid() if pid is None else pid,
                "attrs": attrs,
            }
        )
        return span_id

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        """Time one layer call on the main thread; nests under the span that
        is open around it."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            end_ns = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start_ns": start_ns,
                    "end_ns": end_ns,
                    "parent": parent,
                    "op_id": self.op_id,
                    "pid": os.getpid(),
                    "attrs": attrs,
                }
            )

    def adopt(self, payloads: Iterable[Dict[str, object]], op_id: int) -> int:
        """Nest spans exported by a ``repro.obs.Tracer`` into operation
        ``op_id``.  Their ids are remapped into this recorder's id space;
        a span whose parent is not among ``payloads`` hangs off the
        innermost benchmark span of the operation that contains it in time
        (the layer call that caused it).  Returns how many were adopted."""
        payloads = list(payloads)
        hosts = [s for s in self.spans if s["op_id"] == op_id]
        mapping = {int(p["span_id"]): next(self._ids) for p in payloads}
        for payload in payloads:
            start_ns, end_ns = int(payload["start_ns"]), int(payload["end_ns"])
            parent = mapping.get(int(payload["parent_id"]), 0)
            if not parent:
                containing = [
                    s
                    for s in hosts
                    if s["start_ns"] <= start_ns and end_ns <= s["end_ns"]
                ]
                if containing:
                    parent = min(
                        containing, key=lambda s: s["end_ns"] - s["start_ns"]
                    )["id"]
            self.spans.append(
                {
                    "id": mapping[int(payload["span_id"])],
                    "name": str(payload["name"]),
                    "start_ns": start_ns,
                    "end_ns": end_ns,
                    "parent": parent,
                    "op_id": op_id,
                    "pid": int(payload.get("pid", 0)),
                    "attrs": dict(payload.get("attrs", {}), source="repro.obs"),
                }
            )
        return len(payloads)

    # -- analysis ---------------------------------------------------------------

    def of_op(self, op_id: int, name: Optional[str] = None) -> List[Dict[str, object]]:
        return [
            s
            for s in self.spans
            if s["op_id"] == op_id and (name is None or s["name"] == name)
        ]

    def self_times(self, op_id: int) -> Dict[int, int]:
        """Span id -> self time in ns for every span of one operation."""
        spans = self.of_op(op_id)
        children: Dict[int, List[Tuple[int, int]]] = {}
        for span in spans:
            children.setdefault(span["parent"], []).append(
                (span["start_ns"], span["end_ns"])
            )
        result = {}
        for span in spans:
            covered = _union_length(
                children.get(span["id"], ()), span["start_ns"], span["end_ns"]
            )
            result[span["id"]] = span["end_ns"] - span["start_ns"] - covered
        return result

    def self_seconds_by_name(self, op_id: int) -> Dict[str, float]:
        """Span name -> summed self time in seconds for one operation."""
        selfs = self.self_times(op_id)
        totals: Dict[str, float] = {}
        for span in self.of_op(op_id):
            totals[span["name"]] = (
                totals.get(span["name"], 0.0) + selfs[span["id"]] / 1e9
            )
        return totals

    def seconds(self, op_id: int, name: str) -> float:
        """Summed duration of every span called ``name`` in one operation."""
        return sum(
            (s["end_ns"] - s["start_ns"]) / 1e9 for s in self.of_op(op_id, name)
        )

    # -- export -----------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> int:
        """Write every span as a Chrome trace-event document (open it at
        https://ui.perfetto.dev); returns the span count."""
        base_ns = min((s["start_ns"] for s in self.spans), default=0)
        events = [
            {
                "name": span["name"],
                "cat": "bench",
                "ph": "X",
                "ts": (span["start_ns"] - base_ns) / 1000.0,
                "dur": max(span["end_ns"] - span["start_ns"], 1) / 1000.0,
                "pid": span["pid"],
                "tid": span["pid"],
                "args": dict(
                    span["attrs"],
                    id=span["id"],
                    parent=span["parent"],
                    op_id=span["op_id"],
                ),
            }
            for span in sorted(self.spans, key=lambda s: (s["start_ns"], s["id"]))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
            handle.write("\n")
        return len(events)


def _union_length(
    intervals: Iterable[Tuple[int, int]], low: int, high: int
) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered
