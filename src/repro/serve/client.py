"""A small blocking client for the resident verification service.

Used by the test suite, the CI smoke script and examples; real clients
can speak the line-delimited JSON protocol from any language (see
:mod:`repro.serve.protocol`).
"""

from __future__ import annotations

import itertools
import json
import socket
from typing import Dict, List, Optional

_TERMINAL = {"done", "error", "overloaded"}


class ServiceClient:
    """One blocking connection to a running service."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("rb")
        self._ids = itertools.count(1)

    # -- raw protocol -----------------------------------------------------------

    def send(self, message: Dict[str, object]) -> None:
        self._socket.sendall(
            (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")
        )

    def receive(self) -> Dict[str, object]:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line.decode("utf-8"))

    # -- conveniences -----------------------------------------------------------

    def submit(
        self,
        network: Dict[str, object],
        queries: List[str],
        **settings: object,
    ) -> str:
        """Send one query request; returns its request id (does not wait)."""
        request_id = f"r{next(self._ids)}"
        message: Dict[str, object] = {
            "op": "query",
            "id": request_id,
            "network": network,
            "queries": list(queries),
        }
        message.update(settings)
        self.send(message)
        return request_id

    def drain(self, request_id: str) -> List[Dict[str, object]]:
        """Collect every message for ``request_id`` up to and including its
        terminal message (``done``/``error``/``overloaded``)."""
        messages: List[Dict[str, object]] = []
        while True:
            message = self.receive()
            if message.get("id") != request_id:
                continue
            messages.append(message)
            if message.get("type") in _TERMINAL:
                return messages

    def query(
        self,
        network: Dict[str, object],
        queries: List[str],
        **settings: object,
    ) -> List[Dict[str, object]]:
        """Submit and wait: the full message stream of one request."""
        return self.drain(self.submit(network, queries, **settings))

    def stats(self) -> Dict[str, object]:
        request_id = f"r{next(self._ids)}"
        self.send({"op": "stats", "id": request_id})
        while True:
            message = self.receive()
            if message.get("type") == "stats" and message.get("id") == request_id:
                return message

    def metrics(self) -> Dict[str, object]:
        request_id = f"r{next(self._ids)}"
        self.send({"op": "metrics", "id": request_id})
        while True:
            message = self.receive()
            if message.get("type") == "metrics" and message.get("id") == request_id:
                return message

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        self.close()
        return None


def read_ready_line(stream) -> Dict[str, object]:
    """Parse the server's startup ``ready`` line from a text stream (the
    stdout of a ``repro.cli serve`` subprocess)."""
    for line in stream:
        line = line.strip()
        if not line:
            continue
        message = json.loads(line)
        if message.get("type") == "ready":
            return message
        raise ValueError(f"expected a ready line, got {message!r}")
    raise ValueError("server exited before printing its ready line")
