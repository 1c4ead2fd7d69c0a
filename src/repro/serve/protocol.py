"""Wire protocol of the resident verification service.

One JSON object per line (UTF-8, ``\\n``-terminated), both directions — the
lowest-tech framing that every language and a shell pipe can speak.

Requests (client → server)::

    {"op": "query", "id": "r1",
     "network": {"directory": "/path"} |
                {"workload": "stanford", "options": {"zones": 4}},
     "queries": ["loop()", "forall_pairs(reach)"],
     ... optional run settings: <SETTINGS> ...}
    {"op": "ping", "id": "r2"}
    {"op": "stats", "id": "r3"}
    {"op": "metrics", "id": "r4"}

Any other key of a ``query`` message must be one of those settings (the
list is generated from :data:`SETTINGS`); an unknown one is an ``error``.

Responses (server → client), all tagged with the request ``id``:

* ``{"type": "accepted", "id", "jobs", "queries", "merged_requests"}`` —
  the request was admitted and compiled (possibly merged with other
  in-flight requests into one shared plan; ``jobs`` is the merged plan's
  engine-job count).
* ``{"type": "result", "id", "index", "query", "holds", "value",
  "evidence", "fingerprint", "jobs_reported", "jobs_total"}`` — one
  query's answer, **streamed the moment its injection ports have all
  reported**.  ``jobs_reported < jobs_total`` is positive proof the answer
  arrived before the plan's barrier.
* ``{"type": "done", "id", "fingerprint", "from_cache", "stats"}`` — every
  query of the request has been answered.
* ``{"type": "overloaded", "id", "pending", "max_pending"}`` — admission
  control refused the request (bounded queue full).  The service never
  degrades answers under load — it refuses loudly instead.
* ``{"type": "error", "id", "error"}`` — the request failed (parse error,
  unknown workload, execution failure).  Partial results already streamed
  for the request remain valid.
* ``{"type": "pong", "id"}`` / ``{"type": "stats", "id", ...}``.
* ``{"type": "metrics", "id", "prometheus", "slow_requests"}`` — the
  service's metrics registry rendered in Prometheus text exposition
  format, plus the most recent slow-request log entries (wall seconds,
  merged request count, query texts).

The server also prints one ``{"type": "ready", "host", "port"}`` line on
stdout once its socket is bound (``--port 0`` binds an ephemeral port, so
scripts must read it from here).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.core.settings import SETTING_NAMES

#: Setting keys of a ``query`` message, wire spelling -> ``RunSettings``
#: field.  The one alias: header-field overrides travel as ``fields``.
SETTINGS = {
    ("fields" if name == "field_values" else name): name for name in SETTING_NAMES
}
if __doc__:  # stripped under -OO
    __doc__ = __doc__.replace("<SETTINGS>", ", ".join(SETTINGS))


class ProtocolError(ValueError):
    """A line that is not a JSON object, or an unusable request."""


def encode(message: Dict[str, object]) -> bytes:
    """One response/request as a wire line (compact JSON + newline)."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> Dict[str, object]:
    """Parse one wire line into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(f"expected a JSON object, got {type(message).__name__}")
    return message


# -- response constructors (the one place response shapes are defined) -------


def ready(host: str, port: int) -> Dict[str, object]:
    return {"type": "ready", "host": host, "port": port}


def accepted(
    request_id: str, jobs: int, queries: int, merged_requests: int
) -> Dict[str, object]:
    return {
        "type": "accepted",
        "id": request_id,
        "jobs": jobs,
        "queries": queries,
        "merged_requests": merged_requests,
    }


def result(
    request_id: str,
    index: int,
    payload: Dict[str, object],
    jobs_reported: int,
    jobs_total: int,
) -> Dict[str, object]:
    message: Dict[str, object] = {
        "type": "result",
        "id": request_id,
        "index": index,
        "jobs_reported": jobs_reported,
        "jobs_total": jobs_total,
    }
    message.update(payload)
    return message


def done(
    request_id: str,
    fingerprint: str,
    from_cache: bool,
    stats: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    return {
        "type": "done",
        "id": request_id,
        "fingerprint": fingerprint,
        "from_cache": from_cache,
        "stats": stats or {},
    }


def overloaded(
    request_id: str, pending: int, max_pending: int
) -> Dict[str, object]:
    return {
        "type": "overloaded",
        "id": request_id,
        "pending": pending,
        "max_pending": max_pending,
    }


def error(request_id: str, message: str) -> Dict[str, object]:
    return {"type": "error", "id": request_id, "error": message}


def pong(request_id: str) -> Dict[str, object]:
    return {"type": "pong", "id": request_id}


def metrics(
    request_id: str,
    prometheus: str,
    slow_requests: List[Dict[str, object]],
) -> Dict[str, object]:
    return {
        "type": "metrics",
        "id": request_id,
        "prometheus": prometheus,
        "slow_requests": slow_requests,
    }
