"""Configuration parsers that turn device snapshots into SEFL models (§7.1).

"All the user has to do is place all these files in a single directory,
together with a file describing the links between the boxes" — these parsers
implement that workflow:

* :mod:`repro.parsers.mac_table` — CISCO ``show mac address-table`` snapshots
  → switch models;
* :mod:`repro.parsers.routing_table` — forwarding-table snapshots → IP router
  models;
* :mod:`repro.parsers.asa_config` — a practical subset of the ASA
  configuration language → :class:`repro.models.asa.AsaConfig`;
* :mod:`repro.parsers.topology_file` — the links file + per-device snapshots
  → a fully wired :class:`repro.network.Network`.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "load_network_directory": "topology_file",
        "parse_asa_config": "asa_config",
        "parse_mac_table": "mac_table",
        "parse_routing_table": "routing_table",
        "parse_topology_file": "topology_file",
        "router_from_routing_table": "routing_table",
        "switch_from_mac_table": "mac_table",
    },
    ("asa_config", "mac_table", "routing_table", "service_acl", "topology_file"),
)

__all__ = [
    "load_network_directory",
    "parse_asa_config",
    "parse_mac_table",
    "parse_routing_table",
    "parse_topology_file",
    "router_from_routing_table",
    "switch_from_mac_table",
]
