"""Tests for the map-based TCP options model (§7 / Figure 7 / §8.2)."""

import pytest

from repro import ExecutionSettings, Network, SymbolicExecutor, models
from repro.core import checks as V
from repro.models.tcp_options import (
    ALLOW,
    ASA_DEFAULT_OPTION_POLICY,
    DROP,
    OPTION_MPTCP,
    OPTION_MSS,
    OPTION_SACK_OK,
    OPTION_TIMESTAMP,
    OPTION_WSCALE,
    OptionPolicy,
    build_tcp_options_filter,
    option_var,
    size_var,
    tcp_options_metadata,
    value_var,
)
from repro.sefl import InstructionBlock, TcpDst
from repro.sefl.expressions import ConstantValue

SETTINGS = ExecutionSettings(record_failed_paths=True)


def run_options(option_kinds_or_map, packet_values=None, policy=ASA_DEFAULT_OPTION_POLICY):
    network = Network()
    network.add_element(build_tcp_options_filter("asa-options", policy))
    program = InstructionBlock(
        models.symbolic_tcp_packet(packet_values),
        tcp_options_metadata(option_kinds_or_map),
    )
    executor = SymbolicExecutor(network, settings=SETTINGS)
    return executor.inject(program, "asa-options", "in0")


class TestDefaultAsaPolicy:
    def test_mptcp_always_stripped(self):
        result = run_options({OPTION_MPTCP: 1, OPTION_MSS: 1})
        for path in result.reaching("asa-options", "out0"):
            assert V.field_concrete_value(path, option_var(OPTION_MPTCP)) == 0

    def test_mss_always_added_even_when_absent(self):
        result = run_options({OPTION_WSCALE: 1})
        for path in result.reaching("asa-options", "out0"):
            assert V.field_concrete_value(path, option_var(OPTION_MSS)) == 1
            assert V.field_concrete_value(path, size_var(OPTION_MSS)) == 4

    def test_mss_value_clamped_to_1380(self):
        result = run_options({OPTION_MSS: 1})
        for path in result.reaching("asa-options", "out0"):
            values = V.admitted_values(path, value_var(OPTION_MSS), samples=1)
            assert values and all(v <= 1380 for v in values)

    def test_sackok_stripped_for_http_only(self):
        http = run_options({OPTION_SACK_OK: 1, OPTION_MSS: 1}, {TcpDst: 80})
        assert all(
            V.field_concrete_value(p, option_var(OPTION_SACK_OK)) == 0
            for p in http.reaching("asa-options", "out0")
        )
        ssh = run_options({OPTION_SACK_OK: 1, OPTION_MSS: 1}, {TcpDst: 22})
        assert all(
            V.field_concrete_value(p, option_var(OPTION_SACK_OK)) == 1
            for p in ssh.reaching("asa-options", "out0")
        )

    def test_allowed_options_pass_in_any_combination(self):
        """The model shows all allowed options survive simultaneously — the
        property Klee got wrong on the C code (Table 4)."""
        kinds = {OPTION_MSS: 1, OPTION_WSCALE: 1, OPTION_SACK_OK: 1, OPTION_TIMESTAMP: 1}
        result = run_options(kinds, {TcpDst: 22})
        path = result.reaching("asa-options", "out0")[0]
        for kind in (OPTION_WSCALE, OPTION_SACK_OK, OPTION_TIMESTAMP):
            assert V.field_concrete_value(path, option_var(kind)) == 1

    def test_unknown_option_stripped(self):
        result = run_options({200: 1, OPTION_MSS: 1})
        for path in result.reaching("asa-options", "out0"):
            assert V.field_concrete_value(path, option_var(200)) == 0

    def test_branching_factor_is_small(self):
        """The model's path count stays tiny regardless of how many options
        the packet carries — the whole point of the map-based encoding."""
        result = run_options(
            {kind: 1 for kind in (2, 3, 4, 5, 8, 30, 77, 200)}, {TcpDst: 22}
        )
        assert len(result.delivered()) <= 4


class TestCustomPolicies:
    def test_drop_policy_rejects_packets_with_option(self):
        policy = OptionPolicy(verdicts={OPTION_MSS: ALLOW, 19: DROP})
        present = run_options({19: 1, OPTION_MSS: 1}, policy=policy)
        assert not present.reaching("asa-options", "out0")
        absent = run_options({OPTION_MSS: 1}, policy=policy)
        assert absent.reaching("asa-options", "out0")

    def test_drop_policy_with_symbolic_presence_creates_both_verdicts(self):
        policy = OptionPolicy(verdicts={OPTION_MSS: ALLOW, 19: DROP})
        result = run_options({19: None, OPTION_MSS: 1}, policy=policy)
        assert result.reaching("asa-options", "out0")  # option absent
        assert result.failed()  # option present -> dropped

    def test_policy_without_mss_insertion(self):
        policy = OptionPolicy(
            verdicts={OPTION_WSCALE: ALLOW},
            always_add_mss=False,
            mss_clamp=None,
            strip_sackok_for_http=False,
        )
        result = run_options({OPTION_WSCALE: 1}, policy=policy)
        path = result.reaching("asa-options", "out0")[0]
        assert path.state.metadata.resolve(option_var(OPTION_MSS), path.state.current_scope) is None

    def test_verdict_lookup_default(self):
        assert ASA_DEFAULT_OPTION_POLICY.verdict(OPTION_MSS) == ALLOW
        assert ASA_DEFAULT_OPTION_POLICY.verdict(123) == "strip"


class TestMetadataBuilder:
    def test_sequence_form_marks_options_present(self):
        block = tcp_options_metadata([2, 3])
        # 2 options x 3 metadata entries x (allocate + assign) = 12 instructions
        assert len(block) == 12

    def test_symbolic_presence_flag(self):
        network = Network()
        network.add_element(build_tcp_options_filter("f"))
        program = InstructionBlock(
            models.symbolic_tcp_packet({TcpDst: 22}),
            tcp_options_metadata([OPTION_TIMESTAMP], symbolic_presence=True),
        )
        result = SymbolicExecutor(network, settings=SETTINGS).inject(program, "f", "in0")
        path = result.reaching("f", "out0")[0]
        # Presence is symbolic, so the final value is not pinned to 0 or 1.
        assert V.field_concrete_value(path, option_var(OPTION_TIMESTAMP)) is None
