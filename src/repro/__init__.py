"""SymNet reproduction — scalable symbolic execution for modern networks.

A from-scratch Python implementation of the system described in
"SymNet: scalable symbolic execution for modern networks"
(Stoenescu, Popovici, Negreanu, Raiciu — SIGCOMM 2016).

Package map
-----------

============================  ==================================================
``repro.sefl``                SEFL modeling language (instructions, expressions,
                              header fields, tags)
``repro.core``                the symbolic execution engine and verification
                              queries (reachability, loops, invariants, …)
``repro.solver``              the constraint solver backing the engine (the role
                              Z3 plays in the paper)
``repro.network``             topology model: elements, ports, links
``repro.models``              ready-made models: switches, routers, NATs,
                              firewalls, tunnels, encryption, TCP options, ASA
``repro.click``               Click modular router elements and config parser
``repro.parsers``             MAC table / FIB / ASA / topology file parsers
``repro.baselines``           Header Space Analysis and a Klee-style byte-level
                              symbolic executor used as evaluation baselines
``repro.testing``             conformance testing of models against a concrete
                              reference dataplane (§8.3)
``repro.workloads``           synthetic workload generators used by the
                              benchmark harness
``repro.store``               persistent verification store: checksummed
                              verdict, plan and baseline records
============================  ==================================================

Quickstart
----------

>>> from repro import Network, SymbolicExecutor, models
>>> net = Network()
>>> net.add_element(models.build_switch("sw", {"out0": [0xAA], "out1": [0xBB]}))
>>> result = SymbolicExecutor(net).inject(models.symbolic_tcp_packet(), "sw", "in0")
>>> sorted(p.last_port.port for p in result.delivered())
['out0', 'out1']
"""

from repro.core import (
    ExecutionResult,
    ExecutionSettings,
    ExecutionState,
    PathRecord,
    SymbolicExecutor,
)
from repro.network import Network, NetworkElement
from repro.solver import Solver
from repro import api, models, sefl
from repro.api import NetworkModel

__version__ = "1.0.0"

__all__ = [
    "ExecutionResult",
    "ExecutionSettings",
    "ExecutionState",
    "Network",
    "NetworkElement",
    "NetworkModel",
    "PathRecord",
    "Solver",
    "SymbolicExecutor",
    "api",
    "models",
    "sefl",
    "__version__",
]
