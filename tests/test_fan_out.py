"""The engine's fan-out kernel, by its counters and its records.

A ``Fork`` names its ports; the engine decides which of them can carry the
packet off the state's solved path condition, clones a state only for those,
and records the others as flyweights — ``PathRecord``s whose ``state`` is
built on first access from the fork's shared parent.  That the kernel
explores exactly what the interpreter would is the property suite's job
(``tests/test_strategies.py``); here are the exact clone counts, what a
flyweight answers, and the rule that a verdict of "unknown" is never silent.
"""

import json

import pytest

from repro import ExecutionSettings, Network, NetworkElement, SymbolicExecutor
from repro.api import Loop, NetworkModel, Reach
from repro.core.facts import FactFold, Facts
from repro.core.jobs import runtime_for
from repro.core.state import ExecutionState
from repro.models.router import router_egress
from repro.sefl import (
    Allocate,
    Assign,
    Constrain,
    CreateTag,
    Eq,
    Forward,
    InstructionBlock,
    IpDst,
    IpSrc,
    OneOf,
    Or,
    SymbolicValue,
    TcpDst,
)
from repro.solver import Solver


def ip(a, b, c, d):
    return (a << 24) | (b << 16) | (c << 8) | d


def packet_to(*spans):
    """A one-field packet whose destination lies in ``spans`` (anywhere: none)."""
    program = [
        CreateTag("L3", 0),
        Allocate(IpDst, 32),
        Assign(IpDst, SymbolicValue("dst", 32)),
    ]
    if spans:
        program.append(Constrain(OneOf(IpDst, list(spans))))
    return InstructionBlock(*program)


def egress_router(ports, behind=None):
    """``r``: port ``i`` of ``ports`` attracts ``10.i.0.0/16``; ``behind``
    names a port with a forwarding sink linked behind it."""
    fib = [(ip(10, index, 0, 0), 16, port) for index, port in enumerate(ports)]
    network = Network("egress")
    network.add_element(router_egress("r", fib))
    if behind is not None:
        sink = NetworkElement("sink", ["in0"], ["out0"])
        sink.set_input_program("in0", Forward("out0"))
        network.add_element(sink)
        network.add_link(("r", behind), ("sink", "in0"))
    return network


@pytest.fixture
def clones(monkeypatch):
    """Counts ``ExecutionState.clone`` calls in ``clones[0]``."""
    count = [0]
    clone = ExecutionState.clone

    def counting(self):
        count[0] += 1
        return clone(self)

    monkeypatch.setattr(ExecutionState, "clone", counting)
    return count


@pytest.fixture
def builds(monkeypatch):
    """Counts ``SymbolicExecutor._build`` calls (unbuilt egress children
    popped) in ``builds[0]``."""
    count = [0]
    build = SymbolicExecutor._build

    def counting(self, item, pending):
        count[0] += 1
        return build(self, item, pending)

    monkeypatch.setattr(SymbolicExecutor, "_build", counting)
    return count


PORTS = ["p0", "p1", "p2", "p3", "p4", "p5"]
ONLY_P2 = (ip(10, 2, 0, 0), ip(10, 2, 255, 255))


class TestCloneCounts:
    def test_one_feasible_port_costs_one_clone(self, clones):
        result = SymbolicExecutor(egress_router(PORTS)).inject(packet_to(ONLY_P2), "r")
        assert clones[0] == 1  # the living port's; the five dead ports share the parent
        assert [p.status for p in result] == ["failed"] * 2 + ["delivered"] + ["failed"] * 3
        assert result.solver_fast_paths == 1 + len(PORTS)  # the packet's Constrain + one per port

    def test_every_port_feasible_reuses_the_original_for_the_last(self, clones):
        result = SymbolicExecutor(egress_router(PORTS)).inject(packet_to(), "r")
        assert clones[0] == len(PORTS) - 1
        assert len(result.delivered()) == len(PORTS)

    def test_unrecorded_dead_ports_build_nothing(self, clones):
        """Without failed-path records no dead port's flyweight reads the
        fork's parent, so the one living port takes it."""
        settings = ExecutionSettings(record_failed_paths=False)
        executor = SymbolicExecutor(egress_router(PORTS), settings=settings)
        result = executor.inject(packet_to(ONLY_P2), "r")
        assert [str(p.last_port) for p in result] == ["r:p2"]
        assert clones[0] == 0

    def test_a_folding_run_hands_the_parent_to_the_last_living_port(self, clones):
        """A run that folds its facts keeps no record, so no dead port's
        flyweight reads the fork's parent: the living port takes it."""
        fold = FactFold(Facts(kinds=("reachability",)))
        SymbolicExecutor(egress_router(PORTS)).inject(packet_to(ONLY_P2), "r", fold=fold)
        assert fold.delivered_to == {"r:p2": 1}
        assert clones[0] == 0

    def test_one_backbone_job_clones_about_half_as_often(self, clones):
        """One injection port of the ``backbone-*`` network (stanford, 48
        zones): 196 clones when every egress branch was cloned, run and
        dropped; the whole 98-port operation went 18 814 -> 9 694."""
        model = NetworkModel.from_workload(
            "stanford", zones=48, internal_prefixes_per_zone=50, service_acl_rules=6
        )
        (answer,) = model.query(Loop(("acl0", "in0")))
        assert answer.holds is True
        assert 0 < clones[0] <= 102


class TestOneChildPath:
    """A living egress port whose guard reads a plain variable and that has
    a next hop is queued unbuilt and built when popped, in every run: bare or
    campaign, memo on or off, either solver mode."""

    @pytest.mark.parametrize("incremental", [True, False])
    def test_a_bare_run_builds_its_child_when_popped(self, builds, clones, incremental):
        settings = ExecutionSettings(use_incremental_solver=incremental)
        executor = SymbolicExecutor(egress_router(PORTS, behind="p1"), settings=settings)
        result = executor.inject(packet_to(), "r")
        assert builds[0] == 1  # p1's: the only port with a next hop
        assert clones[0] == len(PORTS) - 1
        assert [str(p.last_port) for p in result] == [
            "r:p0", "r:p2", "r:p3", "r:p4", "r:p5", "sink:out0",
        ]
        assert result.paths[-1].ports_visited == ["r:in0", "r:p1", "sink:in0", "sink:out0"]

    def test_a_memo_off_campaign_job_builds_its_child_when_popped(self, builds):
        from repro.core.campaign import VerificationCampaign

        campaign = VerificationCampaign(
            egress_router(PORTS, behind="p1"), queries=("reachability",),
            state_memo=False,
        )
        campaign.add_injection("r", "in0")
        result = campaign.run(workers=1)
        assert builds[0] > 0
        assert result.stats.state_memo_hits == result.stats.state_memo_misses == 0
        assert ("r:in0", "sink:out0", 1) in result.reachability.pairs()


#: The bench's queries over exported stanford (16 zones, 12 prefixes per
#: zone, 4 ACL rules) on one worker, memo on: the answers' fingerprints and
#: the counters, captured when every living egress child was built before
#: the memo was asked for it (783 clones for 400 replays).
STANFORD_16_FINGERPRINTS = [
    "edfcc11fcd2578c48f7b8e94c6a576f63e7911210a0aa7549953f01e930ff90f",
    "33f10dfbab16d52ddbb283cbf8e1d61a58008294facacef3dd28f1ee7ae2ba38",
    "8d973295ce7944567f3b7f1f4c50b31a6bc1bc675d389e8cabc24b1144f1986f",
]
STANFORD_16_COUNTERS = {
    "engine_steps": 226,
    "state_memo_hits": 400,
    "state_memo_misses": 226,
    "solver_calls": 4,
    "solver_fast_paths": 1552,
    "solver_cache_hits": 60,
    "solver_cache_misses": 4,
    "solver_shared_cache_hits": 0,
    "solver_cache_merged": 0,
    "solver_shared_round_trips": 0,
}


class TestMemoAnsweredChildren:
    def test_a_memo_answered_child_is_never_built(self, clones, tmp_path):
        """A core router forks every packet to all its ports, and the memo
        answers for most of the children: they are replayed off the parent
        and never cloned, so the operation clones fewer states than it
        replays — and answers and counts exactly as when each was built."""
        from repro.api import Invariant, ForAllPairs
        from repro.workloads.export import export_stanford_directory

        export_stanford_directory(
            str(tmp_path), zones=16, internal_prefixes_per_zone=12, service_acl_rules=4
        )
        model = NetworkModel.from_directory(str(tmp_path))
        clones[0] = 0
        run = model.query(
            ForAllPairs(Reach), Loop(), Invariant("IpSrc"),
            workers=1, symmetry=False, delta=False,
        )
        stats = run.stats.to_dict()
        assert [answer.fingerprint for answer in run.results] == STANFORD_16_FINGERPRINTS
        assert {
            name: value for name, value in stats.items()
            if name.startswith(("solver_", "state_memo_", "engine_steps"))
            and not isinstance(value, float)
        } == STANFORD_16_COUNTERS
        assert 0 < clones[0] < stats["state_memo_hits"]


#: ``ExecutionResult.to_json()`` of the run below minus ``path_id`` and the
#: two timings, recorded when dead egress branches were interpreted states.
EGRESS_ROUTER_JSON = {
    "injected_at": "r:in0",
    "solver_calls": 0,
    "solver_fast_paths": 4,
    "solver_cache_hits": 0,
    "solver_cache_misses": 0,
    "truncated": False,
    "path_count": 3,
    "paths": [
        {
            "status": status,
            "stop_reason": reason,
            "tags": {"L3": 0},
            "headers": {"128": "s1_dst"},
            "metadata": {},
            "constraint_count": 2,
            "ports_visited": ["r:in0", f"r:{port}"],
            "last_port": f"r:{port}",
            "instructions": [
                "CreateTag",
                "Allocate",
                "Assign(IpDst)",
                "Constrain(OneOf(expression=IpDst, "
                "values=IntervalSet([167772160,167837695])))",
                "Fork('east', 'west', 'lan')",
                f"Constrain(OneOf(expression=IpDst, values=IntervalSet({spans})))",
            ],
        }
        for port, status, reason, spans in [
            (
                "east",
                "delivered",
                "delivered at r:east (no outgoing link)",
                "[167772160,167837695], [167903232,184549375]",
            ),
            (
                "west",
                "failed",
                "constraint unsatisfiable: Constrain(OneOf(expression=IpDst, "
                "values=IntervalSet([167837696,167903231])))",
                "[167837696,167903231]",
            ),
            (
                "lan",
                "failed",
                "constraint unsatisfiable: Constrain(OneOf(expression=IpDst, "
                "values=IntervalSet([3232235520,3232301055])))",
                "[3232235520,3232301055]",
            ),
        ]
    ],
}


def lpm_router_run():
    """The egress model with a longest-prefix hole: 10.1/16 cut out of 10/8."""
    fib = [
        (ip(10, 0, 0, 0), 8, "east"),
        (ip(10, 1, 0, 0), 16, "west"),
        (ip(192, 168, 0, 0), 16, "lan"),
    ]
    network = Network("egress")
    network.add_element(router_egress("r", fib))
    packet = packet_to((ip(10, 0, 0, 0), ip(10, 0, 255, 255)))
    return SymbolicExecutor(network).inject(packet, "r")


class TestFlyweightRecords:
    def test_report_is_what_the_interpreter_wrote(self):
        report = json.loads(lpm_router_run().to_json())
        del report["elapsed_seconds"], report["solver_time_seconds"]
        for path in report["paths"]:
            del path["path_id"]
        assert report == EGRESS_ROUTER_JSON

    def test_a_dead_state_is_built_once_and_disturbs_nobody(self, clones):
        result = lpm_router_run()
        east, west, lan = result.paths
        built = clones[0]
        assert west.status == lan.status == "failed"  # needs no state
        assert clones[0] == built

        state = west.state
        assert west.state is state and clones[0] == built + 1
        assert state.status == "failed" and state.stop_reason == west.stop_reason
        assert west.ports_visited == ["r:in0", "r:west"]
        assert lan.ports_visited == ["r:in0", "r:lan"]
        assert east.ports_visited == ["r:in0", "r:east"]
        assert [len(p.constraints) for p in result] == [2, 2, 2]
        assert len({p.path_id for p in result}) == 3
        # One symbolic destination, shared by the living and the dead.
        assert len({p.state.read_variable(IpDst) for p in result}) == 1
        assert west.constraints[0] == east.constraints[0] == lan.constraints[0]
        assert west.constraints[1] != lan.constraints[1]

    def test_flyweights_count_towards_max_paths(self):
        network = egress_router(PORTS[:4], behind="p2")
        settings = ExecutionSettings(max_paths=2)
        result = SymbolicExecutor(network, settings=settings).inject(packet_to(ONLY_P2), "r")
        # The fork's three dead ports are paths; the living one is still queued.
        assert result.truncated
        assert [p.status for p in result] == ["failed"] * 3


def choosy_network():
    """``a`` lets a packet through on a mixed disjunction — the residual a
    full solve has to case-split — and only ever uses ``out0``."""
    network = Network("choosy")
    box = NetworkElement("a", ["in0"], ["out0", "out1"])
    box.set_input_program(
        "in0",
        InstructionBlock(
            Constrain(Or(Eq(TcpDst, 80), Eq(IpSrc, 1))), Forward("out0")
        ),
    )
    network.add_element(box)
    return network


class TestUnknownIsNeverSilent:
    QUERIES = (Reach("a:in0", "a:out1"), Reach("a:in0", "a:out0"), Loop())

    def test_a_path_kept_alive_by_unknown_truncates_the_run(self):
        from repro import models

        network, packet = choosy_network(), models.symbolic_tcp_packet()
        for incremental in (True, False):
            settings = ExecutionSettings(use_incremental_solver=incremental)
            full = SymbolicExecutor(network, settings=settings).inject(packet, "a")
            starved = SymbolicExecutor(
                network, Solver(max_case_splits=0), settings
            ).inject(packet, "a")
            assert not full.truncated and full.solver_stats.unknown == 0
            assert starved.truncated and starved.solver_stats.unknown > 0
            # The path itself is the one a full solve keeps.
            assert [str(p.last_port) for p in starved] == ["a:out0"]
            assert [p.constraints for p in starved] == [p.constraints for p in full]

    def test_queries_over_it_answer_unknown_unless_already_decided(self, monkeypatch):
        model = NetworkModel.from_network(choosy_network())
        complete = model.query(*self.QUERIES)
        assert complete.stats.truncated_jobs == 0
        assert [answer.holds for answer in complete] == [False, True, True]
        for answer in complete:
            assert "incomplete_ports" not in answer.evidence

        # The process's solver for this network, starved; no verdict the
        # complete run cached may answer for it (shared_cache=False).
        monkeypatch.setattr(runtime_for(model.source), "solver", Solver(max_case_splits=0))
        starved = model.query(*self.QUERIES, shared_cache=False)
        assert starved.stats.truncated_jobs == 1
        # Absence proves nothing; the delivery that was found stays found.
        assert [answer.holds for answer in starved] == [None, True, None]
        for answer in starved:
            assert answer.evidence["incomplete_ports"] == ["a:in0"]
