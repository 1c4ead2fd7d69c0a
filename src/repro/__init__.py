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

Each package is reachable as ``repro.<name>`` and, like the names exported
here, is imported when it is first used, so a program loads only the layers
it runs.

Quickstart
----------

>>> from repro import Network, SymbolicExecutor, models
>>> net = Network()
>>> net.add_element(models.build_switch("sw", {"out0": [0xAA], "out1": [0xBB]}))
>>> result = SymbolicExecutor(net).inject(models.symbolic_tcp_packet(), "sw", "in0")
>>> sorted(p.last_port.port for p in result.delivered())
['out0', 'out1']
"""

from importlib import import_module

__version__ = "1.0.0"


def _lazy_exports(namespace, exports, submodules=()):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package whose
    ``globals()`` is ``namespace``.

    ``exports`` maps each exported name to the submodule that defines it;
    every name in ``submodules`` is a submodule reachable as an attribute.
    Nothing is imported until it is first asked for, and each resolved value
    is then cached in the package namespace, so a name resolves once.  This
    is what keeps ``import repro.cli`` down to the modules a command runs."""
    package = namespace["__name__"]

    def __getattr__(name):
        if name in exports:
            value = getattr(import_module(f"{package}.{exports[name]}"), name)
        elif name in submodules:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports, *submodules})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "ExecutionResult": "core.paths",
        "ExecutionSettings": "core.engine",
        "ExecutionState": "core.state",
        "Network": "network.topology",
        "NetworkElement": "network.element",
        "NetworkModel": "api.model",
        "PathRecord": "core.paths",
        "Solver": "solver.solver",
        "SymbolicExecutor": "core.engine",
    },
    (
        "api", "baselines", "click", "core", "models", "network", "obs",
        "parsers", "scenarios", "sefl", "serve", "solver", "store", "testing",
        "workloads",
    ),
)

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
