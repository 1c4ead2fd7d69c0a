"""Tests for the switch and router models, including property-based
equivalence against reference lookups."""

import hashlib
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecutionSettings, Network, SymbolicExecutor, models
from repro.models.router import (
    RouterModelStyle,
    build_router,
    group_prefixes_by_port,
    longest_prefix_match,
    router_basic,
    router_egress,
    router_ingress,
)
from repro.models.switch import (
    SwitchModelStyle,
    build_switch,
    switch_basic,
    switch_egress,
    switch_ingress,
)
from repro.sefl import EtherDst, IpDst
from repro.solver.intervals import IntervalSet, prefix_to_interval
from repro.workloads.fibs import fib_subset, generate_fib

SETTINGS = ExecutionSettings(record_failed_paths=False)
# Seeds the sweep and router fuzz, like the other property suites.
SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260728"))


def run_element(element, packet):
    network = Network()
    network.add_element(element)
    executor = SymbolicExecutor(network, settings=SETTINGS)
    return executor.inject(packet, element.name, element.input_ports[0])


MAC_TABLE = {
    "out0": [0x0000AA0001, 0x0000AA0002, 0x0000AA0003],
    "out1": [0x0000BB0001],
    "out2": [0x0000CC0001, 0x0000CC0002],
}


class TestSwitchModels:
    @pytest.mark.parametrize("builder", [switch_basic, switch_ingress, switch_egress])
    def test_known_mac_goes_to_right_port(self, builder):
        element = builder("sw", MAC_TABLE)
        packet = models.symbolic_tcp_packet({EtherDst: 0x0000BB0001})
        result = run_element(element, packet)
        assert [p.last_port.port for p in result.delivered()] == ["out1"]

    @pytest.mark.parametrize("builder", [switch_basic, switch_ingress, switch_egress])
    def test_unknown_mac_is_dropped(self, builder):
        element = builder("sw", MAC_TABLE)
        packet = models.symbolic_tcp_packet({EtherDst: 0x0000DD0001})
        result = run_element(element, packet)
        assert not result.delivered()

    def test_symbolic_mac_path_counts(self):
        """Egress and ingress models have one path per output port; the basic
        model has one path per table entry (the paper's branching argument)."""
        symbolic = models.symbolic_tcp_packet()
        egress = run_element(switch_egress("sw", MAC_TABLE), symbolic)
        assert len(egress.delivered()) == len(MAC_TABLE)
        ingress = run_element(switch_ingress("sw", MAC_TABLE), symbolic)
        assert len(ingress.delivered()) == len(MAC_TABLE)
        basic = run_element(switch_basic("sw", MAC_TABLE), symbolic)
        total_entries = sum(len(v) for v in MAC_TABLE.values())
        assert len(basic.delivered()) == total_entries

    def test_egress_constraint_count_is_linear(self):
        """Each egress path carries a single Member constraint; ingress paths
        accumulate the negated groups of earlier ports."""
        symbolic = models.symbolic_tcp_packet()
        egress = run_element(switch_egress("sw", MAC_TABLE), symbolic)
        assert all(len(p.constraints) == 1 for p in egress.delivered())
        ingress = run_element(switch_ingress("sw", MAC_TABLE), symbolic)
        max_constraints = max(len(p.constraints) for p in ingress.delivered())
        assert max_constraints >= 2

    def test_build_switch_dispatch(self):
        for style in SwitchModelStyle:
            element = build_switch("sw", MAC_TABLE, style=style)
            assert element.kind == "switch"

    def test_empty_port_group_always_fails(self):
        table = {"out0": [1, 2], "out1": []}
        result = run_element(
            switch_egress("sw", table), models.symbolic_tcp_packet()
        )
        assert [p.last_port.port for p in result.delivered()] == ["out0"]

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["out0", "out1", "out2"]),
            st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 12),
    )
    def test_switch_models_agree_with_reference_lookup(self, table, probe_mac):
        # A MAC listed on two ports goes to the first of them.
        expected_port = None
        for port, macs in table.items():
            if probe_mac in macs:
                expected_port = port
                break
        packet = models.symbolic_tcp_packet({EtherDst: probe_mac})
        for builder in (switch_basic, switch_ingress, switch_egress):
            result = run_element(builder("sw", table), packet)
            ports = [p.last_port.port for p in result.delivered()]
            if expected_port is None:
                assert ports == []
            else:
                assert ports == [expected_port]

    def test_a_mac_on_two_ports_goes_to_the_first(self):
        table = {"p0": [5, 7], "p1": [5], "p2": [7, 5]}
        packet = models.symbolic_tcp_packet({EtherDst: 5})
        for builder in (switch_basic, switch_ingress, switch_egress):
            result = run_element(builder("sw", table), packet)
            assert [p.last_port.port for p in result.delivered()] == ["p0"]
        symbolic = run_element(switch_egress("sw", table), models.symbolic_tcp_packet())
        assert [p.last_port.port for p in symbolic.delivered()] == ["p0"]


FIB = [
    (0xC0A80001, 32, "if0"),  # 192.168.0.1/32
    (0x0A000000, 8, "if0"),   # 10.0.0.0/8
    (0xC0A80000, 24, "if1"),  # 192.168.0.0/24
    (0x0A0A0001, 32, "if1"),  # 10.10.0.1/32
]


class TestLpmGrouping:
    def test_paper_example_longest_prefix_match(self):
        """The exact pitfall of §7: 10.10.0.1 must go to if1, not if0."""
        groups = group_prefixes_by_port(FIB)
        assert 0x0A0A0001 in groups["if1"]
        assert 0x0A0A0001 not in groups["if0"]
        assert 0x0A0A0002 in groups["if0"]
        assert 0xC0A80001 in groups["if0"]
        assert 0xC0A80002 in groups["if1"]

    def test_groups_are_mutually_exclusive(self):
        groups = group_prefixes_by_port(FIB)
        ports = list(groups)
        for i, a in enumerate(ports):
            for b in ports[i + 1 :]:
                assert groups[a].intersection(groups[b]).is_empty()

    def test_groups_cover_exactly_the_announced_space(self):
        groups = group_prefixes_by_port(FIB)
        covered = groups["if0"].union(groups["if1"])
        announced = prefix_to_interval(0x0A000000, 8)
        assert covered.size() == announced.hi - announced.lo + 1 + 256

    def test_empty_fib(self):
        assert group_prefixes_by_port([]) == {}

    def test_default_route_covers_all(self):
        groups = group_prefixes_by_port([(0, 0, "default")])
        assert groups["default"].size() == 1 << 32

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, (1 << 32) - 1),
                st.integers(8, 32),
                st.sampled_from(["if0", "if1", "if2"]),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, (1 << 32) - 1),
    )
    def test_grouping_matches_reference_lpm(self, raw_fib, probe):
        fib = [
            ((address >> (32 - plen)) << (32 - plen) if plen else 0, plen, port)
            for address, plen, port in raw_fib
        ]
        # Drop conflicting duplicates (same prefix, different port).
        unique = {}
        for address, plen, port in fib:
            unique.setdefault((address, plen), port)
        fib = [(a, l, p) for (a, l), p in unique.items()]
        groups = group_prefixes_by_port(fib)
        expected = longest_prefix_match(fib, probe)
        actual = None
        for port, allowed in groups.items():
            if probe in allowed:
                actual = port
                break
        assert actual == expected


# -- the stack sweep against the reference lookup, address by address --------

SWEEP_WIDTH = 8


def sweep_disagreement(fib):
    """First address of the 8-bit space where ``group_prefixes_by_port`` and
    ``longest_prefix_match`` disagree (or a malformed group), else None."""
    groups = group_prefixes_by_port(fib, width=SWEEP_WIDTH)
    for port, allowed in groups.items():
        if allowed.is_empty() or allowed != IntervalSet(allowed.pairs()):
            return f"group {port} is not canonical: {allowed!r}"
    for address in range(1 << SWEEP_WIDTH):
        expected = longest_prefix_match(fib, address, width=SWEEP_WIDTH)
        actual = [port for port, allowed in groups.items() if address in allowed]
        if actual != ([expected] if expected is not None else []):
            return f"address {address}: sweep says {actual}, lookup says {expected}"
    return None


def shrink(fib):
    """Greedy: drop entries one at a time while the disagreement survives."""
    index = 0
    while index < len(fib):
        smaller = fib[:index] + fib[index + 1 :]
        if sweep_disagreement(smaller):
            fib = smaller
        else:
            index += 1
    return fib


def random_small_fib(rng, size=None, width=SWEEP_WIDTH):
    """Nested, duplicate, default-route and host-bits-set entries."""
    top = (1 << width) - 1
    fib = []
    for _ in range(rng.randint(1, 12) if size is None else size):
        roll = rng.random()
        if fib and roll < 0.25:  # the same prefix again, maybe on another port
            address, plen, _ = rng.choice(fib)
            address ^= rng.randint(0, top >> plen)  # different host bits
        elif fib and roll < 0.5:  # a more specific prefix inside an earlier one
            address, shorter, _ = rng.choice(fib)
            plen = rng.randint(shorter, width)
            address ^= rng.randint(0, top >> shorter)
        elif roll < 0.6:
            address, plen = rng.randint(0, top), 0  # default route
        else:
            address, plen = rng.randint(0, top), rng.randint(1, width)
        fib.append((address, plen, rng.choice(["if0", "if1", "if2", "if3"])))
    return fib


class TestStackSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_agrees_with_reference_lookup_on_every_address(self, seed):
        rng = random.Random(SEED + seed)
        for _ in range(150):
            fib = random_small_fib(rng)
            problem = sweep_disagreement(fib)
            if problem:
                minimal = shrink(fib)
                pytest.fail(f"{sweep_disagreement(minimal)} for FIB {minimal}")

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_sizes_around_a_power_of_two(self, bits):
        """The packed sort key gives the FIB position ``len(fib).bit_length()``
        bits: sizes on both sides of a power of two, with the first entry's
        prefix repeated (other host bits, other port) at the last position."""
        rng = random.Random(SEED + 100 + bits)
        top = (1 << SWEEP_WIDTH) - 1
        for size in (2**bits - 1, 2**bits, 2**bits + 1):
            if size < 2:
                continue
            for _ in range(4):
                fib = random_small_fib(rng, size)
                address, plen, port = fib[0]
                fib[-1] = (address ^ rng.randint(0, top >> plen), plen, port + "-last")
                problem = sweep_disagreement(fib)
                if problem:
                    minimal = shrink(fib)
                    pytest.fail(f"{sweep_disagreement(minimal)} for FIB {minimal}")

    def test_router_fib_grouping_is_pinned(self):
        """The 62 205-prefix FIB of Table 2's 33 % row: the groups, in dict
        order, hash to the digest captured before the sort key packed the
        FIB position."""
        fib = fib_subset(generate_fib(188_500, ports=16, seed=12), 0.33, seed=1)
        groups = group_prefixes_by_port(fib)
        text = repr([(port, list(allowed.pairs())) for port, allowed in groups.items()])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "90037f9b23901bf181ef0c1e55159ebabe12b06ef55d88c603991310ca18947a"
        )

    def test_first_entry_wins_for_a_duplicate_prefix(self):
        groups = group_prefixes_by_port(
            [(0x10, 4, "first"), (0x1F, 4, "second"), (0x00, 0, "default")],
            width=SWEEP_WIDTH,
        )
        assert groups == {
            "first": IntervalSet([(0x10, 0x1F)]),
            "default": IntervalSet([(0x00, 0x0F), (0x20, 0xFF)]),
        }

    def test_ports_are_listed_by_their_first_unshadowed_prefix(self):
        """The groups' dict order: each port at its first prefix in address
        order that is not a duplicate of an earlier entry's prefix.  Port
        ``late``'s first prefix in address order, 0x10/4, is a duplicate of
        ``a``'s, so ``late`` comes at its own 0x80/4, after ``d``; ``ghost``
        has nothing but a duplicate and attracts nothing."""
        fib = [
            (0x80, 4, "late"),
            (0x20, 4, "d"),
            (0x10, 4, "a"),
            (0x1F, 4, "late"),
            (0x20, 4, "ghost"),
            (0x00, 0, "c"),
        ]
        groups = group_prefixes_by_port(fib, width=SWEEP_WIDTH)
        assert list(groups) == ["c", "a", "d", "late"]
        assert groups == {
            "c": IntervalSet([(0x00, 0x0F), (0x30, 0x7F), (0x90, 0xFF)]),
            "a": IntervalSet([(0x10, 0x1F)]),
            "d": IntervalSet([(0x20, 0x2F)]),
            "late": IntervalSet([(0x80, 0x8F)]),
        }

    def test_adjacent_and_nested_prefixes_of_one_port_merge(self):
        groups = group_prefixes_by_port(
            [(0x00, 1, "a"), (0x80, 1, "a"), (0x40, 2, "a"), (0x44, 6, "b")],
            width=SWEEP_WIDTH,
        )
        assert repr(groups["a"]) == "IntervalSet([0,67], [72,255])"
        assert repr(groups["b"]) == "IntervalSet([68,71])"

    def test_prefix_length_out_of_range_is_rejected(self):
        with pytest.raises(ValueError):
            group_prefixes_by_port([(0, 9, "a")], width=SWEEP_WIDTH)
        with pytest.raises(ValueError):
            group_prefixes_by_port([(0, -1, "a")], width=SWEEP_WIDTH)


class TestRouterModels:
    @pytest.mark.parametrize("builder", [router_basic, router_ingress, router_egress])
    def test_concrete_destination_follows_lpm(self, builder):
        element = builder("r", FIB)
        packet = models.symbolic_ip_packet({IpDst: 0x0A0A0001})
        result = run_element(element, packet)
        assert [p.last_port.port for p in result.delivered()] == ["if1"]

    @pytest.mark.parametrize("builder", [router_basic, router_ingress, router_egress])
    def test_unrouted_destination_dropped(self, builder):
        element = builder("r", FIB)
        packet = models.symbolic_ip_packet({IpDst: 0x08080808})
        result = run_element(element, packet)
        assert not result.delivered()

    def test_symbolic_destination_path_counts(self):
        symbolic = models.symbolic_ip_packet()
        egress = run_element(router_egress("r", FIB), symbolic)
        assert len(egress.delivered()) == 2  # one per interface
        ingress = run_element(router_ingress("r", FIB), symbolic)
        assert len(ingress.delivered()) == 2
        basic = run_element(router_basic("r", FIB), symbolic)
        assert len(basic.delivered()) == len(FIB)

    def test_build_router_dispatch(self):
        for style in RouterModelStyle:
            assert build_router("r", FIB, style=style).kind == "router"

    @pytest.mark.parametrize("seed", range(3))
    def test_every_style_agrees_with_reference_lpm_on_duplicate_prefixes(self, seed):
        """Each FIB repeats prefixes, some with other host bits; every style
        must send each probe where ``longest_prefix_match`` does."""
        rng = random.Random(SEED + 200 + seed)
        for _ in range(4):
            fib = random_small_fib(rng, rng.randint(2, 12), width=32)
            address, plen, port = fib[0]
            fib.append((address | (rng.getrandbits(32) >> plen), plen, port + "-dup"))
            probes = [rng.getrandbits(32) for _ in range(3)]
            for address, plen, _ in fib:
                interval = prefix_to_interval(address, plen)
                probes += [interval.lo, interval.hi]
            elements = {style: build_router("r", fib, style=style) for style in RouterModelStyle}
            for probe in probes:
                expected = longest_prefix_match(fib, probe)
                packet = models.symbolic_ip_packet({IpDst: probe})
                for style, element in elements.items():
                    ports = [p.last_port.port for p in run_element(element, packet).delivered()]
                    assert ports == ([expected] if expected else []), (style, fib, probe)

    def test_duplicate_prefix_goes_to_the_first_entry(self):
        fib = [(0x0A000000, 8, "a"), (0x0A000000, 8, "b"), (0x0A0000FF, 8, "c")]
        packet = models.symbolic_ip_packet({IpDst: 0x0A010203})
        for builder in (router_basic, router_ingress, router_egress):
            result = run_element(builder("r", fib), packet)
            assert [p.last_port.port for p in result.delivered()] == ["a"]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, (1 << 32) - 1))
    def test_egress_router_agrees_with_reference_lpm(self, destination):
        element = router_egress("r", FIB)
        packet = models.symbolic_ip_packet({IpDst: destination})
        result = run_element(element, packet)
        expected = longest_prefix_match(FIB, destination)
        ports = [p.last_port.port for p in result.delivered()]
        if expected is None:
            assert ports == []
        else:
            assert ports == [expected]
