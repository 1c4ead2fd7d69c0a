"""Ready-made SEFL models of network boxes (§7 of the paper).

Every function here returns either a packet-construction program (host
models) or a fully wired :class:`repro.network.NetworkElement`.  The models
follow the encodings the paper argues for: optimal branching factor (at most
one path per output link), egress filtering to minimise constraint counts,
per-flow state carried in packet metadata, and map-based ("pre-parsed") TCP
options.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        **dict.fromkeys(
            (
                "ethernet_header", "ip_header", "symbolic_ip_packet",
                "symbolic_tcp_packet", "symbolic_udp_packet", "tcp_header",
                "udp_header",
            ),
            "host",
        ),
        **dict.fromkeys(
            (
                "SwitchModelStyle", "build_switch", "switch_basic",
                "switch_egress", "switch_ingress",
            ),
            "switch",
        ),
        **dict.fromkeys(
            (
                "RouterModelStyle", "build_router", "group_prefixes_by_port",
                "router_basic", "router_egress", "router_ingress",
            ),
            "router",
        ),
        "build_nat": "nat",
        "build_acl_firewall": "firewall",
        "build_stateful_firewall": "firewall",
        "build_decapsulator": "tunnel",
        "build_encapsulator": "tunnel",
        "build_decryptor": "encryption",
        "build_encryptor": "encryption",
        **dict.fromkeys(
            (
                "ASA_DEFAULT_OPTION_POLICY", "OPTION_MSS", "OPTION_MPTCP",
                "OPTION_SACK_OK", "OPTION_TIMESTAMP", "OPTION_WSCALE",
                "build_tcp_options_filter", "tcp_options_metadata",
            ),
            "tcp_options",
        ),
        "build_asa": "asa",
        "build_ip_mirror": "mirror",
    },
    (
        "asa", "encryption", "firewall", "host", "mirror", "nat", "router",
        "switch", "tcp_options", "tunnel",
    ),
)

__all__ = [
    "ASA_DEFAULT_OPTION_POLICY",
    "OPTION_MSS",
    "OPTION_MPTCP",
    "OPTION_SACK_OK",
    "OPTION_TIMESTAMP",
    "OPTION_WSCALE",
    "RouterModelStyle",
    "SwitchModelStyle",
    "build_acl_firewall",
    "build_asa",
    "build_decapsulator",
    "build_decryptor",
    "build_encapsulator",
    "build_encryptor",
    "build_ip_mirror",
    "build_nat",
    "build_router",
    "build_stateful_firewall",
    "build_switch",
    "build_tcp_options_filter",
    "ethernet_header",
    "group_prefixes_by_port",
    "ip_header",
    "router_basic",
    "router_egress",
    "router_ingress",
    "switch_basic",
    "switch_egress",
    "switch_ingress",
    "symbolic_ip_packet",
    "symbolic_tcp_packet",
    "symbolic_udp_packet",
    "tcp_header",
    "tcp_options_metadata",
    "udp_header",
]
