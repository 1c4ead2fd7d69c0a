"""A Stanford-backbone-like topology for the SymNet / HSA comparison (Table 3).

The real dataset (16 operational-zone routers plus backbone routers, large
forwarding tables and ACLs) is not redistributable; this generator builds a
backbone with the same shape: ``zones`` zone routers, each owning a /16 and
holding many more-specific internal prefixes, dual-homed to two core
routers that know how to reach every zone.  The same forwarding state is
emitted twice — once as SEFL router models, once as HSA transfer functions —
so the two tools answer the same reachability question over the same rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.models.router import FibEntry, RouterModelStyle, build_router
from repro.network.element import NetworkElement
from repro.network.topology import Network
from repro.parsers.service_acl import service_acl_element
from repro.sefl.util import ip_to_number

if TYPE_CHECKING:
    from repro.baselines.hsa import HsaNetwork

#: Campus-wide blocked service ports, most infamous first.  Every zone edge
#: applies the same policy (the realistic case: one security baseline for
#: the whole backbone), which is exactly what makes the per-rule solver work
#: identical across zones modulo symbol names — the cross-job verdict cache's
#: best case.
SERVICE_ACL_PORTS = (23, 135, 137, 139, 445, 1433, 3389, 5900, 6379, 11211)

# Header layout used by the HSA encoding: only the destination address
# matters for backbone forwarding, so the header is 32 bits of IpDst.
HSA_HEADER_WIDTH = 32


@dataclass
class StanfordWorkload:
    """The generated backbone: topology, per-router FIBs and entry points."""

    network: Network
    fibs: Dict[str, List[FibEntry]]
    zone_routers: List[str]
    core_routers: List[str]

    def total_rules(self) -> int:
        return sum(len(fib) for fib in self.fibs.values())


def _zone_prefix(zone: int) -> Tuple[int, int]:
    return ip_to_number(f"10.{zone}.0.0"), 16


def _zone_fib(
    zone: int, zones: int, internal_prefixes: int, rng: random.Random
) -> List[FibEntry]:
    """FIB of a zone router: internal /24s on the hosts port, everything else
    up to the cores (split between the two uplinks)."""
    fib: List[FibEntry] = []
    base, base_len = _zone_prefix(zone)
    # The router owns its whole /16 (aggregate towards the hosts port) plus a
    # crowd of more-specific internal /24s — the overlaps the model generator
    # has to make mutually exclusive.
    fib.append((base, base_len, "hosts"))
    for _ in range(internal_prefixes):
        subnet = rng.randrange(256)
        fib.append((base | (subnet << 8), 24, "hosts"))
    # Other zones go up; alternate uplinks for rough load balancing.
    for other in range(zones):
        if other == zone:
            continue
        address, plen = _zone_prefix(other)
        fib.append((address, plen, "up0" if other % 2 == 0 else "up1"))
    # Default route to the first core.
    fib.append((0, 0, "up0"))
    return fib


def _core_fib(zones: int, internal_prefixes: int, rng: random.Random) -> List[FibEntry]:
    """FIB of a core router: one port per zone plus more-specific internal
    prefixes learned from the zones."""
    fib: List[FibEntry] = []
    for zone in range(zones):
        address, plen = _zone_prefix(zone)
        fib.append((address, plen, f"z{zone}"))
        for _ in range(internal_prefixes // zones):
            subnet = rng.randrange(256)
            fib.append((address | (subnet << 8), 24, f"z{zone}"))
    return fib


def build_stanford_like_backbone(
    zones: int = 16,
    internal_prefixes_per_zone: int = 200,
    style: RouterModelStyle = RouterModelStyle.EGRESS,
    seed: int = 11,
) -> StanfordWorkload:
    """Build the SEFL version of the backbone."""
    rng = random.Random(seed)
    network = Network("stanford-like")
    fibs: Dict[str, List[FibEntry]] = {}
    zone_names = [f"zr{zone}" for zone in range(zones)]
    core_names = ["core0", "core1"]

    for zone, name in enumerate(zone_names):
        fib = _zone_fib(zone, zones, internal_prefixes_per_zone, rng)
        fibs[name] = fib
        network.add_element(
            build_router(name, fib, style=style, input_ports=["in-hosts", "in-core0", "in-core1"])
        )
    for name in core_names:
        fib = _core_fib(zones, internal_prefixes_per_zone, rng)
        fibs[name] = fib
        network.add_element(
            build_router(name, fib, style=style, input_ports=[f"in-z{z}" for z in range(zones)])
        )

    for zone, name in enumerate(zone_names):
        network.add_link((name, "up0"), ("core0", f"in-z{zone}"))
        network.add_link((name, "up1"), ("core1", f"in-z{zone}"))
        network.add_link(("core0", f"z{zone}"), (name, "in-core0"))
        network.add_link(("core1", f"z{zone}"), (name, "in-core1"))

    return StanfordWorkload(
        network=network,
        fibs=fibs,
        zone_routers=zone_names,
        core_routers=core_names,
    )


def build_service_acl(name: str, rules: int) -> NetworkElement:
    """A zone-edge service ACL: drop traffic to/from the first ``rules``
    blocked service ports, forward everything else.

    Each rule's match (``TcpSrc == p or TcpDst == p``) mixes two symbolic
    variables, so probing it falls outside the interval-domain fast path and
    costs a real solve — the constraint shape whose repetition across
    symmetric zones the verdict cache exists to absorb.
    """
    if rules > len(SERVICE_ACL_PORTS):
        raise ValueError(
            f"at most {len(SERVICE_ACL_PORTS)} service ACL rules available"
        )
    return service_acl_element(name, SERVICE_ACL_PORTS[:rules])


def campaign_network(
    service_acl_rules: int = 0, **options
) -> Tuple[Network, List[Tuple[str, str]]]:
    """Campaign adapter: the backbone plus one injection port per zone.

    Injecting at every zone router's hosts-facing input yields the all-pairs
    zone-to-zone reachability matrix the paper computes on the Stanford
    dataset.  ``service_acl_rules > 0`` fronts every zone with the same
    zone-edge service ACL (and moves the injection ports onto the ACLs),
    modelling a campus-wide security baseline.
    """
    workload = build_stanford_like_backbone(**options)
    network = workload.network
    if service_acl_rules <= 0:
        return network, [(name, "in-hosts") for name in workload.zone_routers]
    injections = []
    for zone, router in enumerate(workload.zone_routers):
        acl_name = f"acl{zone}"
        network.add_element(build_service_acl(acl_name, service_acl_rules))
        network.add_link((acl_name, "out0"), (router, "in-hosts"))
        injections.append((acl_name, "in0"))
    return network, injections


def stanford_hsa_network(workload: StanfordWorkload) -> HsaNetwork:
    """Build the HSA encoding of the same backbone: every FIB rule becomes a
    prefix-match transfer rule on the 32-bit destination header."""
    from repro.baselines.hsa import (
        HsaNetwork,
        TransferFunction,
        TransferRule,
        WildcardExpr,
    )

    hsa = HsaNetwork(HSA_HEADER_WIDTH)
    for router, fib in workload.fibs.items():
        box = TransferFunction(router, HSA_HEADER_WIDTH)
        # Longest-prefix ordering is approximated the HSA way: more specific
        # rules are added first and the caller relies on disjoint groups.
        for address, plen, port in sorted(fib, key=lambda e: -e[1]):
            match = WildcardExpr.from_prefix(
                HSA_HEADER_WIDTH, 0, 32, address, plen
            )
            box.add_rule("*", TransferRule(match=match, out_ports=(port,)))
        hsa.add_box(box)
    network = workload.network
    for link in network.links:
        hsa.add_link(
            (link.source.element, link.source.port),
            (link.destination.element, link.destination.port),
        )
    return hsa
