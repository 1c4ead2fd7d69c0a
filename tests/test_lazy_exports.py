"""The lazy package exports: ``repro``, ``repro.core``, ``repro.models``,
``repro.parsers`` and ``repro.workloads`` import a submodule only when one
of its names is first asked for (PEP 562 ``__getattr__``).

Laziness must not change what a package exports: every ``__all__`` name
resolves to the object its defining module holds, ``from pkg import *``
binds exactly ``__all__``, and every submodule an eager ``import pkg`` used
to load is still reachable as an attribute.  Each check runs in a fresh
interpreter: this test process has imported everything already.
"""

import argparse
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _build_parser
from repro.network.topology import Network
from repro.workloads import CAMPAIGN_WORKLOADS
from repro.workloads.export import EXPORTERS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Package -> {defining module: exported names}; a name whose defining
#: module is the package's own submodule of the same name is a submodule
#: export.
EXPORTS = {
    "repro": {
        "repro.core.paths": ["ExecutionResult", "PathRecord"],
        "repro.core.engine": ["ExecutionSettings", "SymbolicExecutor"],
        "repro.core.state": ["ExecutionState"],
        "repro.network.topology": ["Network"],
        "repro.network.element": ["NetworkElement"],
        "repro.api.model": ["NetworkModel"],
        "repro.solver.solver": ["Solver"],
        "repro": ["__version__"],
        "repro.api": ["api"],
        "repro.models": ["models"],
        "repro.sefl": ["sefl"],
    },
    "repro.core": {
        "repro.core.facts": ["CAMPAIGN_QUERIES", "schema_digest"],
        "repro.core.jobs": [
            "CampaignJob", "JobReport", "clear_runtime_cache", "execute_job",
        ],
        "repro.core.campaign": ["CampaignResult", "VerificationCampaign"],
        "repro.core.queries": [
            "CampaignStats", "InvariantReport", "LoopFinding", "LoopReport",
            "ReachabilityMatrix",
        ],
        "repro.core.paths": ["ExecutionResult", "PathRecord", "PathStatus"],
        "repro.core.engine": ["ExecutionSettings", "SymbolicExecutor"],
        "repro.core.state": ["ExecutionState"],
        "repro.core.errors": ["MemorySafetyError", "ModelError", "SymNetError"],
        "repro.core.sources": ["NetworkSource", "free_input_ports"],
        "repro.core.values": ["SymbolFactory"],
        "repro.core.checks": ["checks"],
    },
    "repro.models": {
        "repro.models.host": [
            "ethernet_header", "ip_header", "symbolic_ip_packet",
            "symbolic_tcp_packet", "symbolic_udp_packet", "tcp_header",
            "udp_header",
        ],
        "repro.models.switch": [
            "SwitchModelStyle", "build_switch", "switch_basic", "switch_egress",
            "switch_ingress",
        ],
        "repro.models.router": [
            "RouterModelStyle", "build_router", "group_prefixes_by_port",
            "router_basic", "router_egress", "router_ingress",
        ],
        "repro.models.nat": ["build_nat"],
        "repro.models.firewall": ["build_acl_firewall", "build_stateful_firewall"],
        "repro.models.tunnel": ["build_decapsulator", "build_encapsulator"],
        "repro.models.encryption": ["build_decryptor", "build_encryptor"],
        "repro.models.tcp_options": [
            "ASA_DEFAULT_OPTION_POLICY", "OPTION_MSS", "OPTION_MPTCP",
            "OPTION_SACK_OK", "OPTION_TIMESTAMP", "OPTION_WSCALE",
            "build_tcp_options_filter", "tcp_options_metadata",
        ],
        "repro.models.asa": ["build_asa"],
        "repro.models.mirror": ["build_ip_mirror"],
    },
    "repro.parsers": {
        "repro.parsers.topology_file": [
            "load_network_directory", "parse_topology_file",
        ],
        "repro.parsers.asa_config": ["parse_asa_config"],
        "repro.parsers.mac_table": ["parse_mac_table", "switch_from_mac_table"],
        "repro.parsers.routing_table": [
            "parse_routing_table", "router_from_routing_table",
        ],
    },
    "repro.workloads": {
        "repro.workloads": ["CAMPAIGN_WORKLOADS", "build_campaign_network"],
        "repro.workloads.department": ["build_department_network"],
        "repro.workloads.enterprise": ["build_split_tcp_network"],
        "repro.workloads.stanford": [
            "build_stanford_like_backbone", "stanford_hsa_network",
        ],
        "repro.workloads.fibs": ["generate_fib"],
        "repro.workloads.mac_tables": ["generate_mac_table"],
    },
}

#: The submodules an eager ``import pkg`` loaded, each an attribute of pkg.
SUBMODULES = {
    "repro": ["api", "core", "models", "network", "obs", "sefl", "solver"],
    "repro.core": [
        "campaign", "checks", "delta", "engine", "errors", "executor", "facts",
        "jobs", "memo", "memory", "paths", "queries", "settings", "shapes",
        "sources", "state", "values",
    ],
    "repro.models": [
        "asa", "encryption", "firewall", "host", "mirror", "nat", "router",
        "switch", "tcp_options", "tunnel",
    ],
    "repro.parsers": [
        "asa_config", "mac_table", "routing_table", "service_acl",
        "topology_file",
    ],
    "repro.workloads": ["department", "enterprise", "fibs", "mac_tables", "stanford"],
}

PACKAGES = sorted(EXPORTS)

#: Answers the package's exports in a fresh interpreter, touching nothing
#: but the package before the lookups under test.
_PROBE = """
import importlib, json, sys
package, exports, submodules, star = json.loads(sys.argv[1])
out = {}
if star:
    namespace = {}
    exec(f"from {package} import *", namespace)
    bound = {name: namespace[name] for name in namespace if name != "__builtins__"}
    out["bound"] = sorted(bound)
else:
    pkg = importlib.import_module(package)
    out["listed"] = sorted(dir(pkg))
    bound = {name: getattr(pkg, name) for name in pkg.__all__}
    out["all"] = sorted(pkg.__all__)
    out["submodules"] = {
        name: getattr(pkg, name) is sys.modules[f"{package}.{name}"]
        for name in submodules
    }
    try:
        pkg.no_such_export
    except AttributeError as exc:
        out["unknown"] = str(exc)
out["same"] = {
    name: bound[name] is (
        sys.modules[module]
        if module == f"{package}.{name}"
        else getattr(importlib.import_module(module), name)
    )
    for module, names in exports.items()
    for name in names
    if name in bound
}
print(json.dumps(out))
"""


def _fresh_python(*args: str) -> str:
    """Run ``python -c *args`` in a fresh interpreter; its stdout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", *args],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout


def _probe(package: str, star: bool) -> dict:
    argument = json.dumps([package, EXPORTS[package], SUBMODULES[package], star])
    return json.loads(_fresh_python(_PROBE, argument))


def _exported(package: str) -> list:
    return sorted(name for names in EXPORTS[package].values() for name in names)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_defining_object(package):
    out = _probe(package, star=False)
    assert out["all"] == _exported(package)
    assert out["same"] == dict.fromkeys(_exported(package), True)
    assert set(out["all"]) <= set(out["listed"])


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_exactly_all(package):
    out = _probe(package, star=True)
    assert out["bound"] == _exported(package)
    assert out["same"] == dict.fromkeys(_exported(package), True)


@pytest.mark.parametrize("package", PACKAGES)
def test_eagerly_loaded_submodules_stay_reachable(package):
    out = _probe(package, star=False)
    assert out["submodules"] == dict.fromkeys(SUBMODULES[package], True)
    assert set(SUBMODULES[package]) <= set(out["listed"])


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_attribute_names_the_package(package):
    out = _probe(package, star=False)
    assert out["unknown"] == f"module {package!r} has no attribute 'no_such_export'"


@pytest.mark.parametrize(
    "module",
    [
        "repro.network",
        "repro.models.router",
        "repro.parsers.topology_file",
        "repro.workloads.export",
        "repro.click",
        "repro.baselines",
        "repro.testing",
    ],
)
def test_a_lower_layer_imports_first_in_a_fresh_interpreter(module):
    """``repro.network.topology`` imports ``repro.core.errors``, and
    ``repro.core.engine`` imports the topology: the cycle is harmless only
    because ``repro.core`` runs none of its submodules on import."""
    _fresh_python(f"import {module}")


def test_the_campaign_workload_registry():
    """Three workloads; each builds a network holding its injection ports."""
    assert sorted(CAMPAIGN_WORKLOADS) == ["department", "enterprise", "stanford"]
    for name, builder in CAMPAIGN_WORKLOADS.items():
        network, injections = builder()
        assert isinstance(network, Network), name
        assert injections, name
        for element, _ in injections:
            assert network.has_element(element), (name, element)


def test_a_workload_module_loads_when_the_workload_is_built():
    probe = (
        "import sys\n"
        "from repro.workloads import build_campaign_network\n"
        "modules = ['repro.workloads.' + name for name in "
        "('department', 'enterprise', 'stanford')]\n"
        "print([name for name in modules if name in sys.modules])\n"
        "build_campaign_network('stanford', zones=2)\n"
        "print([name for name in modules if name in sys.modules])\n"
    )
    assert _fresh_python(probe).splitlines() == ["[]", "['repro.workloads.stanford']"]


def test_the_scenario_workload_choices_are_the_exporters():
    (commands,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    (workload,) = [
        action for action in commands.choices["scenario"]._actions
        if action.dest == "workload"
    ]
    assert list(workload.choices) == sorted(EXPORTERS)
