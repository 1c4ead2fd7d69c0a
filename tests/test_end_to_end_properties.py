"""Property-based end-to-end tests: symbolic execution must agree with the
concrete reference dataplane on randomly generated forwarding networks.

For every generated (switch → router) topology and probe packet, the port at
which the concrete dataplane delivers the packet must be admitted by some
symbolic path terminating at that same port, and vice versa — the soundness
property underlying both the verification queries and the conformance
testing framework.
"""

from hypothesis import given, settings, strategies as st

from repro import ExecutionSettings, Network, SymbolicExecutor, models
from repro.models.router import longest_prefix_match, router_egress
from repro.models.switch import switch_egress
from repro.sefl import EtherDst, IpDst
from repro.solver.ast import Const, Eq
from repro.solver.solver import Solver
from repro.testing import ConcretePacket, ReferenceDataplane, reference_router, reference_switch

SETTINGS = ExecutionSettings(record_failed_paths=False)

# Strategies for small but structurally interesting tables.
mac_tables = st.dictionaries(
    st.sampled_from(["out0", "out1", "uplink"]),
    st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=3,
)

fibs = st.lists(
    st.tuples(
        st.integers(0, (1 << 32) - 1),
        st.sampled_from([0, 8, 16, 24, 30, 32]),
        st.sampled_from(["ifA", "ifB", "ifC"]),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(mac_tables, st.integers(1, 60))
def test_switch_symbolic_and_concrete_agree(table, probe_mac):
    element = switch_egress("sw", table)
    network = Network()
    network.add_element(element)

    symbolic = SymbolicExecutor(network, settings=SETTINGS).inject(
        models.symbolic_tcp_packet(), "sw", "in0"
    )
    dataplane = ReferenceDataplane(network)
    dataplane.register("sw", reference_switch(table))
    concrete = dataplane.inject(ConcretePacket(fields={"EtherDst": probe_mac}), "sw", "in0")

    solver = Solver()
    admitted_ports = set()
    for path in symbolic.delivered():
        injected = path.state.variable_history(EtherDst)[0]
        query = list(path.constraints) + [Eq(injected, Const(probe_mac))]
        if solver.check(query).is_sat:
            admitted_ports.add(path.last_port.port)
    concrete_ports = {out.port for out in concrete}
    assert concrete_ports == admitted_ports


@settings(max_examples=40, deadline=None)
@given(fibs, st.integers(0, (1 << 32) - 1))
def test_router_symbolic_matches_reference_lpm(fib, destination):
    element = router_egress("r", fib)
    network = Network()
    network.add_element(element)

    symbolic = SymbolicExecutor(network, settings=SETTINGS).inject(
        models.symbolic_ip_packet(), "r", "in0"
    )
    expected_port = longest_prefix_match(fib, destination)

    solver = Solver()
    admitted_ports = set()
    for path in symbolic.delivered():
        injected = path.state.variable_history(IpDst)[0]
        query = list(path.constraints) + [Eq(injected, Const(destination))]
        if solver.check(query).is_sat:
            admitted_ports.add(path.last_port.port)

    if expected_port is None:
        assert admitted_ports == set()
    else:
        assert admitted_ports == {expected_port}


@settings(max_examples=25, deadline=None)
@given(mac_tables, fibs, st.integers(1, 60), st.integers(0, (1 << 32) - 1))
def test_switch_router_chain_agrees_with_reference(table, fib, probe_mac, destination):
    """A two-hop network: switch uplink feeds a router.  The concrete
    dataplane's verdict must be admitted by the symbolic result."""
    if "uplink" not in table:
        return
    network = Network()
    network.add_element(switch_egress("sw", table))
    network.add_element(router_egress("r", fib))
    network.add_link(("sw", "uplink"), ("r", "in0"))

    symbolic = SymbolicExecutor(network, settings=SETTINGS).inject(
        models.symbolic_tcp_packet(), "sw", "in0"
    )
    dataplane = ReferenceDataplane(network)
    dataplane.register("sw", reference_switch(table))
    dataplane.register("r", reference_router(fib))
    packet = ConcretePacket(fields={"EtherDst": probe_mac, "IpDst": destination})
    concrete = dataplane.inject(packet, "sw", "in0")

    solver = Solver()
    admitted = set()
    for path in symbolic.delivered():
        mac_term = path.state.variable_history(EtherDst)[0]
        dst_term = path.state.variable_history(IpDst)[0]
        query = list(path.constraints) + [
            Eq(mac_term, Const(probe_mac)),
            Eq(dst_term, Const(destination)),
        ]
        if solver.check(query).is_sat:
            admitted.add((path.last_port.element, path.last_port.port))
    observed = {(out.element, out.port) for out in concrete}
    assert observed == admitted
