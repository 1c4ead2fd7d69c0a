"""Hierarchical span tracing with a zero-cost no-op default.

The engine answers "is this packet deliverable" in milliseconds; this
module answers "where did those milliseconds go".  A :class:`Tracer`
records a tree of timed spans — session → plan compile → campaign →
delta partition / engine job → solver check / store publish / delta
splice — and exports them as Chrome trace-event JSON (open the file at
https://ui.perfetto.dev) or JSONL.

Design constraints, in order:

* **Tracing never moves an answer.**  Spans carry telemetry out of the
  run; nothing in the run reads them back.  The bit-identity tests in
  ``tests/test_obs.py`` hold fingerprints equal across tracing
  {off, on} × workers {1, 2}.
* **Off is free.**  The process-global tracer defaults to
  :class:`NullTracer`, whose ``span()`` returns one shared no-op context
  manager — no allocation, no timestamps, no branches beyond the call
  itself.  Hot loops (the solver's per-path checks) additionally guard on
  ``tracer.enabled`` so even the keyword-argument dict is never built.
* **Spans cross the process boundary as plain data.**  Pool workers
  record into a local tracer and ship ``Span.to_payload()`` dicts back
  through the picklable ``JobReport.spans`` channel; the campaign driver
  re-parents them under its own campaign span with :meth:`Tracer.absorb`
  (span ids are remapped, so ids from different workers never collide).

Timestamps are ``time.perf_counter_ns()`` — CLOCK_MONOTONIC on Linux,
which is comparable across processes on one machine, so worker spans
land on the same timeline as the driver's without clock gymnastics.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "chrome_trace",
    "write_trace",
]


@dataclass
class Span:
    """One finished timed operation.  Plain data only: spans pickle, and
    their payload dicts travel in ``JobReport.spans``."""

    name: str
    span_id: int
    parent_id: int
    start_ns: int
    end_ns: int
    pid: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Span":
        return cls(
            name=str(payload.get("name", "")),
            span_id=int(payload.get("span_id", 0)),
            parent_id=int(payload.get("parent_id", 0)),
            start_ns=int(payload.get("start_ns", 0)),
            end_ns=int(payload.get("end_ns", 0)),
            pid=int(payload.get("pid", 0)),
            attrs=dict(payload.get("attrs", {})),
        )


class _ActiveSpan:
    """An open span: the context manager :meth:`Tracer.span` returns.
    Exposes ``span_id`` so callers can re-parent foreign spans under it."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "start_ns", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.span_id = 0
        self.parent_id = 0
        self.start_ns = 0
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self, failed=exc_type is not None)
        return False


class _NoopSpan:
    """The one shared do-nothing span of the :class:`NullTracer`."""

    __slots__ = ()
    span_id = 0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class NullTracer:
    """The default tracer: records nothing, allocates nothing."""

    enabled = False
    dropped = 0

    def span(self, name: str, **attrs: object) -> _NoopSpan:
        return _NOOP_SPAN

    def absorb(self, payloads: Iterable[Dict[str, object]], parent_id: int = 0) -> None:
        pass

    def annotate(self, **attrs: object) -> None:
        pass

    def export(self) -> List[Dict[str, object]]:
        return []


#: Spans one tracer records at most, bounding memory on pathological runs;
#: spans beyond it are counted in ``dropped`` instead (the trace file says
#: so in its metadata).
MAX_SPANS = 250_000


class Tracer:
    """A recording tracer: span nesting follows a per-thread stack, so a
    campaign running in a service executor thread and a solver running in
    the main thread never corrupt each other's parentage."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: List[Span] = []
        self.dropped = 0

    def _stack(self) -> List[_ActiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to this thread's innermost open span — for
        facts a stage only knows once it has run (a partition's class
        count), without handing span objects through its interface."""
        stack = self._stack()
        if stack:
            stack[-1].attrs.update(attrs)

    def span(self, name: str, **attrs: object) -> _ActiveSpan:
        return _ActiveSpan(self, name, attrs)

    def _open(self, active: _ActiveSpan) -> None:
        stack = self._stack()
        active.span_id = next(self._ids)
        active.parent_id = stack[-1].span_id if stack else 0
        stack.append(active)
        active.start_ns = time.perf_counter_ns()

    def _close(self, active: _ActiveSpan, failed: bool = False) -> None:
        end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is active:
            stack.pop()
        elif active in stack:  # defensive: mis-nested exit
            stack.remove(active)
        attrs = active.attrs
        if failed:
            attrs = dict(attrs, error=True)
        with self._lock:
            if len(self.spans) >= MAX_SPANS:
                self.dropped += 1
                return
            self.spans.append(
                Span(
                    name=active.name,
                    span_id=active.span_id,
                    parent_id=active.parent_id,
                    start_ns=active.start_ns,
                    end_ns=end_ns,
                    pid=os.getpid(),
                    attrs=attrs,
                )
            )

    def absorb(
        self, payloads: Iterable[Dict[str, object]], parent_id: int = 0
    ) -> None:
        """Graft spans recorded elsewhere (a pool worker) into this trace.

        Span ids are remapped into this tracer's id space — two workers
        both starting their counters at 1 must not collide — and foreign
        roots (parent unknown here) are re-parented under ``parent_id``,
        typically the campaign span that dispatched the job."""
        foreign = [Span.from_payload(p) for p in payloads]
        if not foreign:
            return
        with self._lock:
            mapping = {span.span_id: next(self._ids) for span in foreign}
            for span in foreign:
                if len(self.spans) >= MAX_SPANS:
                    self.dropped += 1
                    continue
                self.spans.append(
                    Span(
                        name=span.name,
                        span_id=mapping[span.span_id],
                        parent_id=mapping.get(span.parent_id, parent_id),
                        start_ns=span.start_ns,
                        end_ns=span.end_ns,
                        pid=span.pid,
                        attrs=span.attrs,
                    )
                )

    def export(self) -> List[Dict[str, object]]:
        """Every recorded span as a payload dict, in start order."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: (s.start_ns, s.span_id))
        return [span.to_payload() for span in spans]


# -- the process-global tracer ------------------------------------------------

_TRACER: object = NullTracer()


def get_tracer():
    """The process-global tracer (a :class:`NullTracer` unless tracing was
    turned on with :func:`set_tracer`)."""
    return _TRACER


def set_tracer(tracer) -> object:
    """Install ``tracer`` process-wide; returns the previous one so callers
    can restore it (``previous = set_tracer(t) ... set_tracer(previous)``)."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


# -- exporters ----------------------------------------------------------------


def chrome_trace(payloads: Sequence[Dict[str, object]], dropped: int = 0) -> Dict[str, object]:
    """Span payloads as a Chrome trace-event document (the ``{"traceEvents":
    [...]}`` format Perfetto and ``chrome://tracing`` open directly).

    Each span becomes one complete ("X") event; timestamps are rebased to
    the earliest span so the view starts at t=0.  ``pid``/``tid`` are the
    recording process id, which gives one track per worker process and
    makes nesting-by-time-containment render the span tree per worker."""
    base_ns = min((int(p["start_ns"]) for p in payloads), default=0)
    events = []
    for payload in payloads:
        start_ns = int(payload["start_ns"])
        duration_ns = max(int(payload["end_ns"]) - start_ns, 1)
        args = dict(payload.get("attrs", {}))
        args["span_id"] = payload.get("span_id", 0)
        args["parent_id"] = payload.get("parent_id", 0)
        events.append(
            {
                "name": str(payload.get("name", "")),
                "cat": "repro",
                "ph": "X",
                "ts": (start_ns - base_ns) / 1000.0,
                "dur": duration_ns / 1000.0,
                "pid": int(payload.get("pid", 0)),
                "tid": int(payload.get("pid", 0)),
                "args": args,
            }
        )
    document: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if dropped:
        document["otherData"] = {"dropped_spans": dropped}
    return document


def write_trace(path: str, tracer, indent: Optional[int] = None) -> int:
    """Write a tracer's spans to ``path``: JSONL (one span payload per
    line) for ``.jsonl`` paths, Chrome trace-event JSON otherwise.
    Returns the number of spans written."""
    payloads = tracer.export()
    if path.endswith(".jsonl"):
        with open(path, "w", encoding="utf-8") as handle:
            for payload in payloads:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        document = chrome_trace(payloads, dropped=getattr(tracer, "dropped", 0))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=indent)
            handle.write("\n")
    return len(payloads)
