"""Network container: elements plus unidirectional links."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.errors import ModelError
from repro.network.element import NetworkElement
from repro.network.ports import PortId


@dataclass(frozen=True)
class Link:
    """A unidirectional link from an output port to an input port."""

    source: PortId
    destination: PortId

    def __str__(self) -> str:
        return f"{self.source} -> {self.destination}"


PortSpec = Union[PortId, Tuple[str, str]]


def _as_port_id(spec: PortSpec) -> PortId:
    if isinstance(spec, PortId):
        return spec
    element, port = spec
    return PortId(element, port)


class Network:
    """A set of network elements wired together with unidirectional links."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._elements: Dict[str, NetworkElement] = {}
        self._links: Dict[Tuple[str, str], PortId] = {}
        #: ``(element, output port)`` -> what the engine worked out about
        #: leaving by that port (:class:`repro.core.engine.Egress`): filled
        #: lazily, emptied by every mutator, gone with the network.
        self.egress_table: Dict[Tuple[str, str], object] = {}

    # -- elements ---------------------------------------------------------------

    def add_element(self, element: NetworkElement) -> NetworkElement:
        if element.name in self._elements:
            raise ModelError(f"duplicate element name {element.name!r}")
        self._elements[element.name] = element
        self.egress_table.clear()
        return element

    def add_elements(self, *elements: NetworkElement) -> None:
        for element in elements:
            self.add_element(element)

    def element(self, name: str) -> NetworkElement:
        if name not in self._elements:
            raise ModelError(f"unknown element {name!r}")
        return self._elements[name]

    def has_element(self, name: str) -> bool:
        return name in self._elements

    @property
    def elements(self) -> List[NetworkElement]:
        return list(self._elements.values())

    def __iter__(self) -> Iterator[NetworkElement]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    # -- links ------------------------------------------------------------------

    def add_link(self, source: PortSpec, destination: PortSpec) -> Link:
        """Connect an output port to an input port (unidirectional)."""
        src = _as_port_id(source)
        dst = _as_port_id(destination)
        self.element(src.element)  # raise ModelError on unknown elements
        self.element(dst.element)
        return self.add_link_permissive(src, dst)

    def add_link_permissive(self, source: PortSpec, destination: PortSpec) -> Link:
        """Record a link even when it references elements this network does
        not contain.

        The topology parser uses this so a typo'd element name in a link
        line becomes a :meth:`validate` finding (surfaced as a CLI warning)
        instead of a hard parse error.  Ports are still declared on the
        elements that do exist; duplicate source ports still raise.
        """
        src = _as_port_id(source)
        dst = _as_port_id(destination)
        src_element = self._elements.get(src.element)
        if src_element is not None:
            src_element.add_output_port(src.port)
        dst_element = self._elements.get(dst.element)
        if dst_element is not None:
            dst_element.add_input_port(dst.port)
        key = (src.element, src.port)
        if key in self._links:
            raise ModelError(f"output port {src} is already linked")
        self._links[key] = dst
        self.egress_table.clear()
        return Link(src, dst)

    def link_from(self, element: str, output_port: str) -> Optional[PortId]:
        """The input port the given output port is wired to, if any."""
        return self._links.get((element, output_port))

    @property
    def links(self) -> List[Link]:
        return [
            Link(PortId(element, port), destination)
            for (element, port), destination in self._links.items()
        ]

    def port_count(self) -> int:
        """Total number of declared ports (for Figure-11-style reporting)."""
        return sum(
            len(e.input_ports) + len(e.output_ports) for e in self._elements.values()
        )

    # -- validation ----------------------------------------------------------------

    def validate(self) -> List[str]:
        """Return a list of structural problems (empty when the model is sound)."""
        problems = []
        for (element, port), destination in self._links.items():
            src = self._elements.get(element)
            if src is None:
                problems.append(f"link from unknown element {element!r}")
                continue
            if not src.has_output_port(port):
                problems.append(f"link from undeclared output port {element}:{port}")
            dst = self._elements.get(destination.element)
            if dst is None:
                problems.append(f"link to unknown element {destination.element!r}")
            elif not dst.has_input_port(destination.port):
                problems.append(f"link to undeclared input port {destination}")
        return problems

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, elements={len(self._elements)}, "
            f"links={len(self._links)})"
        )
