"""What the network encoder's job forms group together.

No campaign stage reads ``repro.network.view`` any more: the job-level
symmetry tier that ran one engine job per class of equal forms was retired.
The encoder stays because the benchmark's ``network.view`` replay
(``bench/probes.py::probe_symmetry``) times it, so these tests are the net
under it:

* **the replay itself** — exactly the calls the probe makes, on department
  and on the stanford 16/12/4 workload ``cli-default`` queries;
* **partition parity** — on the pinned workloads and on seeded
  :func:`build_symmetric_case` topologies the grouping of ports by form
  fingerprint is exactly the one the retired tier recorded, so the encoder
  can never silently merge less — or more.  Classes are compared as sets of
  port-name sets: fingerprints are free to change.
"""

import random

import pytest

from repro.api import ForAllPairs, Invariant, Loop, NetworkModel, Reach, compile_plan
from repro.core.campaign import PACKET_TEMPLATES, NetworkSource, default_injection_ports
from repro.core.jobs import runtime_for
from repro.network.element import NetworkElement
from repro.network.topology import Network
from repro.network.view import CampaignSymmetryView, collect_constants, config_digest
from repro.sefl.expressions import Eq, OneOf, Or
from repro.sefl.fields import IpDst, TcpDst, TcpSrc
from repro.sefl.instructions import (
    Constrain,
    Fail,
    Fork,
    Forward,
    If,
    InstructionBlock,
    NoOp,
)
from repro.solver.intervals import IntervalSet

STANFORD_ACL = {"internal_prefixes_per_zone": 12, "service_acl_rules": 4}


# ===========================================================================
# Random symmetric-topology generator
# ===========================================================================


def _zone_names(rng: random.Random, zones: int):
    """Random, collision-free element names: the canonical form must not
    lean on lexicographic name order (zr10 sorts before zr2)."""
    names = set()
    while len(names) < zones:
        names.add(f"z{rng.randrange(16**6):06x}")
    return sorted(names, key=lambda _: rng.random())


def build_symmetric_case(seed: int, zones: int = 4, asymmetry: str = ""):
    """A hub fronted by ``zones`` cloned edge filters.

    Every zone shares one ACL shape (the same blocked service ports) and
    owns a disjoint address range the hub uses to steer egress.
    ``asymmetry`` perturbs exactly one zone:

    * ``"rule"``  — one extra ACL rule on zone 0;
    * ``"link"``  — zone 0's uplink rewired through an extra middlebox;
    * ``"const"`` — one constant in zone 0's ACL changed: its last rule
      re-blocks the first rule's port instead of its own, which keeps the
      rule count identical but makes the second Fail branch unsatisfiable
      (a semantic difference constant abstraction must not absorb).
    """
    rng = random.Random(seed)
    rules = rng.randint(2, 3)
    blocked = rng.sample(range(1024, 9000), rules)
    names = _zone_names(rng, zones)
    in_port = f"p{rng.randrange(16**4):04x}"

    network = Network(f"sym-{seed}")
    hub = NetworkElement(
        "hub",
        input_ports=[f"in{z}" for z in range(zones)],
        output_ports=[f"out{z}" for z in range(zones)],
        kind="hub",
    )
    network.add_element(hub)
    injections = []
    for z, name in enumerate(names):
        zone = NetworkElement(
            name, input_ports=[in_port], output_ports=["up"], kind="zone-acl"
        )
        ports = list(blocked)
        if z == 0 and asymmetry == "rule":
            ports.append(blocked[0] + 1)
        elif z == 0 and asymmetry == "const":
            ports[-1] = ports[0]
        checks = [
            If(
                Or(Eq(TcpSrc, port), Eq(TcpDst, port)),
                Fail(f"blocked service port {port}"),
                NoOp(),
            )
            for port in ports
        ]
        zone.set_input_program(in_port, InstructionBlock(*checks, Forward("up")))
        network.add_element(zone)
        if asymmetry == "link" and z == 0:
            relay = NetworkElement(
                "relay", input_ports=["in0"], output_ports=["out0"], kind="relay"
            )
            relay.set_input_program("in0", Forward("out0"))
            network.add_element(relay)
            network.add_link((name, "up"), ("relay", "in0"))
            network.add_link(("relay", "out0"), ("hub", f"in{z}"))
        else:
            network.add_link((name, "up"), ("hub", f"in{z}"))
        injections.append((name, in_port))

    for z in range(zones):
        # Hairpin check: traffic destined back to the source zone fails at
        # the hub, so every injection cone depends on its own zone's range
        # (the stanford own-/16 situation the cell abstraction must align).
        lo = (z + 1) << 16
        own = OneOf(IpDst, IntervalSet([(lo, lo + 0xFFFF)]))
        hub.set_input_program(
            f"in{z}",
            If(own, Fail("hairpin"), Fork(*(f"out{o}" for o in range(zones)))),
        )
        hub.set_output_program(
            f"out{z}",
            Constrain(OneOf(IpDst, IntervalSet([(lo, lo + 0xFFFF)]))),
        )
    return network, injections


# ===========================================================================
# The forms, as the benchmark's replay asks for them
# ===========================================================================


def form_digests(network, injections, packet="tcp"):
    """``element:port`` -> form fingerprint, by exactly the calls
    ``bench/probes.py::probe_symmetry`` makes: one view pinned to the
    packet template's constants, one ``job_form`` per injection port."""
    view = CampaignSymmetryView(network, collect_constants(PACKET_TEMPLATES[packet]()))
    digest = config_digest(("bench", packet))
    return {
        f"{element}:{port}": view.job_form(element, port, digest).fingerprint
        for element, port in injections
    }


def partition(network, injections):
    """The ports grouped by equal form fingerprint, as a set of frozensets."""
    classes = {}
    for port, fingerprint in form_digests(network, injections).items():
        classes.setdefault(fingerprint, set()).add(port)
    return {frozenset(members) for members in classes.values()}


def workload_partition(name, **options):
    runtime = runtime_for(NetworkSource.from_workload(name, **options))
    ports = default_injection_ports(runtime.network, runtime.registered_injections)
    return partition(runtime.network, ports)


def classes_of(*groups):
    return {frozenset(group) for group in groups}


def _acl_ports(zones):
    return [f"acl{zone}:in0" for zone in zones]


def test_the_bench_replay_finds_the_recorded_classes():
    """The probe's calls on its plans' networks and default injection
    ports: department's four vantage points are four forms, and the 16
    stanford zones two (even zones uplink via up0, odd via up1) — the
    classes the retired tier's partition found."""
    queries = (ForAllPairs(Reach), Loop(), Invariant("IpSrc"))
    found = {}
    for name, options in (
        ("department", {}),
        ("stanford", dict(zones=16, **STANFORD_ACL)),
    ):
        model = NetworkModel.from_workload(name, **options)
        plan = compile_plan(model, queries)
        digests = form_digests(model.network(), plan.injections, plan.packet)
        assert len(digests) == plan.job_count
        found[name] = digests
    assert len(set(found["department"].values())) == 4
    stanford = found["stanford"]
    assert len(set(stanford.values())) == 2
    assert {stanford[port] for port in _acl_ports(range(0, 16, 2))} != {
        stanford[port] for port in _acl_ports(range(1, 16, 2))
    }
    assert len({stanford[port] for port in _acl_ports(range(0, 16, 2))}) == 1


# ===========================================================================
# Partition parity with the recorded classes
# ===========================================================================


def test_pinned_workload_partitions_are_unchanged():
    classes = workload_partition("stanford", zones=16, **STANFORD_ACL)
    assert classes == classes_of(
        _acl_ports(range(0, 16, 2)), _acl_ports(range(1, 16, 2))
    )
    classes = workload_partition(
        "stanford", zones=4, internal_prefixes_per_zone=30, service_acl_rules=4
    )
    assert classes == classes_of(_acl_ports((0, 2)), _acl_ports((1, 3)))
    classes = workload_partition("stanford", zones=4)
    assert classes == classes_of(
        ["zr0:in-hosts", "zr2:in-hosts"], ["zr1:in-hosts", "zr3:in-hosts"]
    )
    classes = workload_partition("enterprise")
    assert classes == classes_of(["AP:in0"], ["R1:in-exit"])
    classes = workload_partition("department")
    assert classes == classes_of(
        ["cluster:in-node"],
        ["lab-sw1:in-host"],
        ["m1:in-internet"],
        ["office-sw0:in-host"],
    )


@pytest.mark.parametrize("asymmetry", ["", "rule", "link", "const"])
def test_seeded_topology_partitions_are_unchanged(asymmetry):
    """Recorded over seeds 7000..7019 (zones = 3 + seed % 3): the cloned
    zones always form one class, and a perturbed zone 0 — the first
    injection — is always alone."""
    for seed in range(7000, 7020):
        network, injections = build_symmetric_case(seed, 3 + seed % 3, asymmetry)
        ports = [f"{element}:{port}" for element, port in injections]
        expected = (
            classes_of(ports[:1], ports[1:]) if asymmetry else classes_of(ports)
        )
        assert partition(network, injections) == expected, (
            f"seed={seed} asymmetry={asymmetry!r}"
        )
