"""Network elements: boxes with per-port SEFL programs."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.sefl.instructions import Instruction, NoOp

# The paper writes ``InputPort(*)`` for "any input port"; models use this key
# to attach the same program to every input port.
WILDCARD_PORT = "*"


class NetworkElement:
    """A network box: named input/output ports, each with a SEFL program.

    Providing a model for an element means "specifying the number of inputs
    and output ports and associating a set of SEFL instructions to each
    port" (§5).  Ports without an explicit program run :class:`NoOp`.
    """

    def __init__(
        self,
        name: str,
        input_ports: Optional[Iterable[str]] = None,
        output_ports: Optional[Iterable[str]] = None,
        kind: str = "generic",
    ) -> None:
        self.name = name
        self.kind = kind
        self._input_ports: List[str] = list(input_ports or [])
        self._output_ports: List[str] = list(output_ports or [])
        self._input_programs: Dict[str, Instruction] = {}
        self._output_programs: Dict[str, Instruction] = {}

    # -- port management --------------------------------------------------------

    @property
    def input_ports(self) -> List[str]:
        return list(self._input_ports)

    @property
    def output_ports(self) -> List[str]:
        return list(self._output_ports)

    def add_input_port(self, port: str) -> None:
        if port not in self._input_ports:
            self._input_ports.append(port)

    def add_output_port(self, port: str) -> None:
        if port not in self._output_ports:
            self._output_ports.append(port)

    def has_input_port(self, port: str) -> bool:
        return port in self._input_ports

    def has_output_port(self, port: str) -> bool:
        return port in self._output_ports

    def accepts_input(self, port: str) -> bool:
        """Whether a packet may enter at ``port``: it is declared, or a
        ``"*"`` input program covers every port."""
        return port in self._input_ports or WILDCARD_PORT in self._input_programs

    # -- program management -------------------------------------------------------

    def set_input_program(self, port: str, program: Instruction) -> None:
        """Attach ``program`` to an input port (``"*"`` for all inputs)."""
        if port != WILDCARD_PORT:
            self.add_input_port(port)
        self._input_programs[port] = program

    def set_output_program(self, port: str, program: Instruction) -> None:
        """Attach ``program`` to an output port (``"*"`` for all outputs)."""
        if port != WILDCARD_PORT:
            self.add_output_port(port)
        self._output_programs[port] = program

    def input_program(self, port: str) -> Instruction:
        if port in self._input_programs:
            return self._input_programs[port]
        if WILDCARD_PORT in self._input_programs:
            return self._input_programs[WILDCARD_PORT]
        return NoOp()

    def output_program(self, port: str) -> Instruction:
        if port in self._output_programs:
            return self._output_programs[port]
        if WILDCARD_PORT in self._output_programs:
            return self._output_programs[WILDCARD_PORT]
        return NoOp()

    def resolve_output_port(self, port: Union[int, str]) -> str:
        """Resolve a ``Forward`` / ``Fork`` target to an output-port name.

        Integers index into the element's output-port list in declaration
        order, so models can say ``Forward(1)`` as the paper's
        ``Forward(OutputPort(1))``.
        """
        if isinstance(port, int):
            if 0 <= port < len(self._output_ports):
                return self._output_ports[port]
            return f"out{port}"
        return port

    def __repr__(self) -> str:
        return (
            f"NetworkElement({self.name!r}, kind={self.kind!r}, "
            f"in={self._input_ports}, out={self._output_ports})"
        )
