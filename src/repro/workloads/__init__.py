"""Synthetic workload generators for the evaluation harness.

The paper's evaluation uses snapshots of real devices (the department core
switch, a public core-router FIB, the Stanford backbone dataset) and two
operational topologies (the Split-TCP enterprise deployment and the CS
department network).  Those datasets are not redistributable, so this
package generates deterministic synthetic equivalents whose *structure*
matches what the experiments depend on: per-port MAC grouping, prefix
overlap patterns, topology shape and rule counts.  See DESIGN.md §2 for the
substitution rationale.
"""

from functools import partial
from importlib import import_module
from typing import Callable, Dict, List, Tuple

from repro import _lazy_exports
from repro.network.topology import Network

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "build_department_network": "department",
        "build_split_tcp_network": "enterprise",
        "build_stanford_like_backbone": "stanford",
        "generate_fib": "fibs",
        "generate_mac_table": "mac_tables",
        "stanford_hsa_network": "stanford",
    },
    ("department", "enterprise", "export", "fibs", "mac_tables", "stanford"),
)


def _campaign_network(
    module: str, /, **options
) -> Tuple[Network, List[Tuple[str, str]]]:
    return import_module(f"{__name__}.{module}").campaign_network(**options)


#: Campaign-facing registry: workload name -> builder returning the network
#: plus its default injection ports.  Campaign workers rebuild workloads
#: from (name, options) pairs, so builders must be deterministic in their
#: arguments (they are: every generator is seeded).  A workload's module is
#: imported when the workload is first built.
CAMPAIGN_WORKLOADS: Dict[
    str, Callable[..., Tuple[Network, List[Tuple[str, str]]]]
] = {
    name: partial(_campaign_network, name)
    for name in ("department", "enterprise", "stanford")
}


def build_campaign_network(
    name: str, **options
) -> Tuple[Network, List[Tuple[str, str]]]:
    """Build a registered workload for a verification campaign.

    Returns the network and the workload's default injection ports.
    """
    try:
        builder = CAMPAIGN_WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGN_WORKLOADS))
        raise ValueError(f"unknown campaign workload {name!r}; known: {known}")
    return builder(**options)


__all__ = [
    "CAMPAIGN_WORKLOADS",
    "build_campaign_network",
    "build_department_network",
    "build_split_tcp_network",
    "build_stanford_like_backbone",
    "generate_fib",
    "generate_mac_table",
    "stanford_hsa_network",
]
