"""Port naming helpers.

Ports are identified by ``(element name, port name)`` pairs; the helpers
below build the conventional names used by the generated models (``in0``,
``out3``, …) and global port identifiers used in traces and reports
(``"switch1:in0"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

#: The characters an element name and a port name are spelt with — the
#: topology file grammar (``link sw1:Gi1/0/1 -> r1:in0``) and the query
#: grammar's atom (:mod:`repro.api.text`) are both built from these.
ELEMENT_CHARS = r"\w.-"
PORT_CHARS = r"\w*/.-"


@dataclass(frozen=True)
class PortId:
    """Fully-qualified port identifier."""

    element: str
    port: str

    def __str__(self) -> str:
        return f"{self.element}:{self.port}"


def input_port(index: Union[int, str]) -> str:
    """Conventional input-port name for an index (``0`` → ``"in0"``)."""
    if isinstance(index, str):
        return index
    return f"in{index}"


def output_port(index: Union[int, str]) -> str:
    """Conventional output-port name for an index (``0`` → ``"out0"``)."""
    if isinstance(index, str):
        return index
    return f"out{index}"
