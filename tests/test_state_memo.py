"""The state memo (``repro.core.memo``): the jobs of one campaign run explore
each state they share once, and a job that reaches a recorded state replays
its subtree.  A replay must produce exactly what exploring would have: the
same records, path by path and in order, the same tallies in the same order,
the same ``truncated`` flag and the same report answers.

The random networks are ``tests/test_strategies.py``'s, seed-pinned
(override with ``REPRO_DIFF_SEED``).  A subtree is recorded once its root has
been explored ``RECORD_AFTER`` times outside any recording, so every port is
injected ``RECORD_AFTER + 2`` times: the last round replays.  Four planted
faults — a replay that ignores its footprint, its ``max_paths`` headroom or
its symbol draws, and a subtree stored although it lived on an ``unknown``
verdict — must each change an answer.
"""

import random

import pytest

from repro import ExecutionSettings, Network, NetworkElement, SymbolicExecutor
from repro.api import NetworkModel
from repro.api.queries import ForAllPairs, Loop, Reach
from repro.core import memo as memo_module
from repro.core.campaign import VerificationCampaign
from repro.core.facts import REPORT_FIELDS, Facts
from repro.core.jobs import CampaignJob, clear_runtime_cache, execute_job, packet_program
from repro.core.memo import RECORD_AFTER, StateMemo
from repro.core.memory import HeaderMemory
from repro.core.queries import ensure_core_families
from repro.core.settings import RunSettings
from repro.core.sources import NetworkSource
from repro.core.state import ExecutionState
from repro.obs.metrics import MetricsRegistry
from repro.sefl import Assign, Eq, Fail, Fork, Forward, If, InstructionBlock, SymbolicValue, TcpDst
from repro.solver.ast import Const, Var
from repro.solver.form import PathCondition
from repro.solver.intervals import IntervalSet
from repro.solver.solver import Solver
from repro.solver.verdict_cache import VerdictCache
from test_strategies import PROPERTY_CASES, SEED, random_network

INJECTIONS = RECORD_AFTER + 2

#: Both record modes unbudgeted, then the budgets low enough to bite on the
#: random networks (a path there is two or three hops long).
POINTS = [
    {},
    {"record_failed_paths": False},
    {"max_paths": 2},
    {"max_paths": 3, "record_failed_paths": False},
    {"max_hops": 1},
    {"max_hops": 2, "record_failed_paths": False},
]


def _stacks(store):
    return {key: [list(slot.values) for slot in stack] for key, stack in store._slots.items()}


def _record(record):
    """Everything a path is, minus ``path_id`` and its port snapshots."""
    state = record.state
    return (
        record.status,
        record.stop_reason,
        str(record.last_port),
        record.cut_off,
        record.ports_visited,
        record.constraints,
        [instruction.description for instruction in state.instruction_trace],
        _stacks(state.header),
        _stacks(state.metadata),
        dict(state.tags),
        state.hop_count,
        state.current_scope,
    )


def _outcome(result):
    return (
        [_record(record) for record in result.paths],
        list(result.status_counts.items()),
        list(result.reason_counts.items()),
        result.terminations,
        result.truncated,
    )


def _ports(network):
    return [(element.name, port) for element in network for port in element.input_ports]


def _run(network, memo, ports=None, packet=RunSettings(), solver=None, **settings):
    """Every port injected ``INJECTIONS`` rounds, each on a fresh executor
    sharing one solver, verdict cache and ``memo``, as a campaign's jobs do:
    each result's outcome in order, and the solver's counters.  (The hop
    budget keeps the looped networks small.)"""
    solver = solver or Solver()
    settings.setdefault("max_hops", 16)
    cache = VerdictCache()
    outcomes = []
    for _ in range(INJECTIONS):
        for element, port in ports or _ports(network):
            executor = SymbolicExecutor(
                network,
                solver=solver,
                settings=ExecutionSettings(**settings),
                verdict_cache=cache,
                state_memo=memo,
            )
            outcomes.append(_outcome(executor.inject(packet_program(packet), element, port)))
    return outcomes, solver.stats


def _network(case):
    """Odd cases wire ``sink0`` back into the root: loops, proved and cut off."""
    network = random_network(case)
    if case % 2:
        network.add_link(("sink0", "out0"), ("root", "in0"))
    return network


# ---------------------------------------------------------------------------
# Replays equal exploration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", PROPERTY_CASES)
def test_replay_equals_exploration(case):
    network = _network(case)
    for point in POINTS:
        context = f"seed={SEED}+{case} {point}"
        explored, plain = _run(network, None, **point)
        replayed, stats = _run(network, StateMemo(), **point)
        assert len(replayed) == len(explored)
        for index, (got, expected) in enumerate(zip(replayed, explored)):
            assert got == expected, f"{context} injection {index}"
        assert plain.state_memo_hits == plain.state_memo_misses == 0, context
        assert stats.engine_steps == stats.state_memo_misses, context
        assert stats.engine_steps + stats.state_memo_hits <= plain.engine_steps, context
        if not point and case % 2 == 0:
            # A sink's subtree is always recorded, so its last round replays.
            assert stats.state_memo_hits, context


@pytest.mark.parametrize("case", PROPERTY_CASES[::4])
def test_replay_equals_exploration_on_unknown_verdicts(case):
    """A solver out of case splits answers "unknown": a subtree that lived
    on one is stored nowhere, and every injection still says truncated."""
    network = _network(case)
    explored, _ = _run(network, None, solver=Solver(max_case_splits=0))
    replayed, _ = _run(network, StateMemo(), solver=Solver(max_case_splits=0))
    assert replayed == explored, f"seed={SEED}+{case}"


@pytest.mark.parametrize("case", PROPERTY_CASES[::4])
def test_job_reports_equal_with_the_memo_on_and_off(case):
    """Campaign jobs of one run share their runtime's memo: every answer
    field of every report equals the memo-off run's, in order."""
    network = _network(case)
    facts = Facts(
        kinds=("reachability", "loops", "invariants"),
        invariant_fields=("IpDst", "TcpDst"),
        visibility_fields=("TcpDst",),
        witness_fields=(("TcpDst", 2),),
        record_examples=True,
    )
    reports = {}
    for memo in (False, True):
        clear_runtime_cache()
        source = NetworkSource.from_network(network)
        reports[memo] = [
            execute_job(CampaignJob(
                source, element, port, facts=facts, memo_scope="one run",
                settings=RunSettings(max_hops=16, state_memo=memo),
            ))
            for _ in range(INJECTIONS)
            for element, port in _ports(network)
        ]
    for on, off in zip(reports[True], reports[False]):
        assert on.error is off.error is None
        for spec in REPORT_FIELDS:
            assert getattr(on, spec.name) == getattr(off, spec.name), (
                f"seed={SEED}+{case} {on.source_key} {spec.name}"
            )
    assert sum(report.solver_state_memo_hits for report in reports[True])


# ---------------------------------------------------------------------------
# The kept digest equals a from-scratch digest after every mutation
# ---------------------------------------------------------------------------


def _store_digest(store):
    digest = 0
    for key, stack in store._slots.items():
        for index, slot in enumerate(stack):
            running = hash((key, index, slot.size))
            for value in slot.values:
                running = hash((running, value))
            digest ^= running
    return digest


def _condition_digest(condition):
    digest = 0
    for var, domain in condition.domains.items():
        los, his = domain.bounds
        digest ^= hash((var.name, len(los), los[:1], his[-1:]))
    for index, item in enumerate(condition.residual):
        digest ^= hash((index, item))
    return digest


def _scratch_digest(state):
    tags = 0
    for name, value in state.tags.items():
        tags ^= hash((name, value))
    condition = state.condition
    return hash((
        _condition_digest(condition), condition.unsat,
        _store_digest(state.header), _store_digest(state.metadata), tags,
    ))


def _checking_digests(monkeypatch, context):
    """Check every state's kept digest after every instruction, fan-out
    branch and step; returns the count of checks made."""
    from repro.core import engine

    checked = [0]

    def check(state):
        assert state.digest() == _scratch_digest(state), context
        checked[0] += 1

    execute, follow, step = (
        engine.SymbolicExecutor._execute,
        engine.SymbolicExecutor._follow,
        engine.SymbolicExecutor._step,
    )

    def checked_execute(self, instruction, outcome, element):
        outcomes = execute(self, instruction, outcome, element)
        for each in outcomes:
            check(each.state)
        return outcomes

    def checked_follow(self, state, *args):
        check(state)
        return follow(self, state, *args)

    def checked_step(self, state, *args):
        check(state)
        return step(self, state, *args)

    monkeypatch.setattr(engine.SymbolicExecutor, "_execute", checked_execute)
    monkeypatch.setattr(engine.SymbolicExecutor, "_follow", checked_follow)
    monkeypatch.setattr(engine.SymbolicExecutor, "_step", checked_step)
    return checked


@pytest.mark.parametrize("case", PROPERTY_CASES[::2])
def test_the_kept_digest_is_the_scratch_digest(case, monkeypatch):
    """On the random programs: their assignments, constraints, forks and
    symbols."""
    checked = _checking_digests(monkeypatch, f"seed={SEED}+{case}")
    _run(_network(case), StateMemo())
    assert checked[0]


def test_the_kept_digest_is_the_scratch_digest_on_the_department(monkeypatch):
    """Tags, metadata, the ASA's rewrites and its connection state."""
    checked = _checking_digests(monkeypatch, "department")
    model = NetworkModel.from_workload("department")
    _run(model.network(), StateMemo(), model.injection_ports())
    assert checked[0]


def test_the_digests_survive_scopes_clones_and_stack_moves():
    rng = random.Random(SEED)
    for _ in range(200):
        form, header = PathCondition(), HeaderMemory()
        variables = [Var(f"v{index}", 16) for index in range(3)]
        for _ in range(12):
            move = rng.randrange(6)
            if move == 0:
                form.push()
            elif move == 1 and form.depth:
                form.pop()
            elif move == 2:
                form.assume(_formula(rng, variables))
            elif move == 3:
                lo = rng.randrange(100)
                form.narrow(rng.choice(variables), IntervalSet([(lo, lo + rng.randrange(50))]))
            elif move == 4:
                address = 8 * rng.randrange(3)
                if rng.random() < 0.5 or not header.is_allocated(address):
                    header.allocate(address, 8)
                else:
                    header.deallocate(address)
            elif header.addresses():
                address = rng.choice(header.addresses())
                copy = header.clone()
                copy.write(address, Const(rng.randrange(4)))
                assert copy.digest == _store_digest(copy)
                header.write(address, rng.choice(variables))
            assert form.digest == _condition_digest(form)
            assert header.digest == _store_digest(header)
        while form.depth:
            form.pop()
        assert form.clone().digest == _condition_digest(form)


def _formula(rng, variables):
    from repro.solver import ast as sa

    var, other = rng.sample(variables, 2)
    choice = rng.randrange(3)
    if choice == 0:
        return sa.Le(var, Const(rng.randrange(100)))
    if choice == 1:
        return sa.Le(sa.Sub(var, other), Const(rng.randrange(10)))
    return sa.Or(sa.Eq(var, Const(1)), sa.Eq(other, Const(2)))


# ---------------------------------------------------------------------------
# Planted faults
# ---------------------------------------------------------------------------


def _differs(network, ports=None, packet=RunSettings(), solver=lambda: None, **settings):
    explored, _ = _run(network, None, ports, packet, solver(), **settings)
    replayed, stats = _run(network, StateMemo(), ports, packet, solver(), **settings)
    return replayed != explored


def _forwarder(name, program, outputs=("out0",)):
    element = NetworkElement(name, ["in0"], list(outputs))
    element.set_input_program("in0", program)
    return element


def test_a_replay_ignoring_its_footprint_is_caught(monkeypatch):
    """``q`` sends web traffic to ``p``, which rewrites the port: from ``p``
    the packet crosses ``q`` once and leaves.  Injected at ``p`` that
    subtree is recorded; injected at ``q``, the packet reaches ``p`` with the
    same future but ``q`` already on its path, so exploring it proves a
    loop at ``q`` — a replay may not hide that.  (No replay on the
    department network or the lattice's exports meets a snapshot port.)"""
    network = Network("footprint")
    network.add_elements(
        _forwarder("q", If(Eq(TcpDst, 80), Forward("to-p"), Forward("out0")), ("to-p", "out0")),
        _forwarder("p", InstructionBlock(Assign(TcpDst, 443), Forward("out0"))),
    )
    network.add_link(("q", "to-p"), ("p", "in0"))
    network.add_link(("p", "out0"), ("q", "in0"))
    web = RunSettings(field_values={"TcpDst": 80})
    ports = [("p", "in0")] * (RECORD_AFTER + 1) + [("q", "in0")]
    assert not _differs(network, ports, web)
    monkeypatch.setattr(
        memo_module.Recorder, "_fits",
        lambda self, summary, state: state.hop_count + summary.depth <= self.max_hops,
    )
    assert _differs(network, ports, web)


def test_a_replay_ignoring_the_path_budget_is_caught(monkeypatch):
    """``m``'s subtree ends two paths and is recorded from ``m`` itself.
    Reached from ``root``, one path has ended already: under a budget of
    two, exploring stops after the first of ``m``'s."""
    network = Network("budget")
    network.add_elements(
        _forwarder("root", Fork("out0", "out1"), ("out0", "out1")),
        _forwarder("m", Fork("out0", "out1"), ("out0", "out1")),
        _forwarder("s0", Forward("out0")),
        _forwarder("s1", Forward("out0")),
    )
    network.element("root").set_output_program("out0", Fail("port down"))
    network.add_link(("root", "out1"), ("m", "in0"))
    network.add_link(("m", "out0"), ("s0", "in0"))
    network.add_link(("m", "out1"), ("s1", "in0"))
    ports = [("m", "in0")] * (RECORD_AFTER + 1) + [("root", "in0")]
    assert not _differs(network, ports, max_paths=2)
    monkeypatch.setattr(
        memo_module.Recorder, "_fits",
        lambda self, summary, state: (
            summary.footprint.isdisjoint(state.port_snapshots)
            and state.hop_count + summary.depth <= self.max_hops
        ),
    )
    assert _differs(network, ports, max_paths=2)


def test_a_stored_subtree_that_lived_on_unknown_is_caught(monkeypatch):
    from repro.core import engine

    def survives(self, verdict):
        if verdict.verdict == "unknown":
            self._incomplete = True  # ... but the recording goes on
        return verdict.verdict != "unsat"

    monkeypatch.setattr(engine.SymbolicExecutor, "_survives", survives)
    assert any(
        _differs(_network(case), solver=lambda: Solver(max_case_splits=0))
        for case in PROPERTY_CASES
    )


def test_a_replay_that_draws_no_symbols_is_caught(monkeypatch):
    """``b`` draws a symbol.  Reached from ``root2`` its recorded subtree is
    replayed, then ``c`` draws the next one: named after ``b``'s draw."""
    network = Network("symbols")
    network.add_elements(
        _forwarder("root", Fork("out0", "out1"), ("out0", "out1")),
        _forwarder("root2", Fork("out0", "out1"), ("out0", "out1")),
        _forwarder("a", InstructionBlock(Assign(TcpDst, SymbolicValue("a", 16)), Forward("out0"))),
        _forwarder("b", InstructionBlock(Assign(TcpDst, SymbolicValue("b", 16)), Forward("out0"))),
        _forwarder("c", InstructionBlock(Assign(TcpDst, SymbolicValue("c", 16)), Forward("out0"))),
    )
    network.add_link(("root", "out0"), ("a", "in0"))
    network.add_link(("root", "out1"), ("b", "in0"))
    network.add_link(("root2", "out0"), ("c", "in0"))
    network.add_link(("root2", "out1"), ("b", "in0"))
    ports = [("root", "in0")] * (RECORD_AFTER + 1) + [("root2", "in0")]
    assert not _differs(network, ports)
    summary = memo_module.Summary.__init__

    def drawless(self, frame, draws):
        summary(self, frame, 0)

    monkeypatch.setattr(memo_module.Summary, "__init__", drawless)
    assert _differs(network, ports)


# ---------------------------------------------------------------------------
# The memo's scope: one campaign run
# ---------------------------------------------------------------------------


def _converging_network():
    """Four forwarders into one router: its state is reached by every job."""
    network = Network("converging")
    router = NetworkElement("r", ["in0"], ["out0", "out1"])
    router.set_input_program("in0", Fork("out0", "out1"))
    network.add_element(router)
    for index in range(4):
        network.add_element(_forwarder(f"s{index}", Forward("out0")))
        network.add_link((f"s{index}", "out0"), ("r", "in0"))
    return network, router


def _delivered(network, **settings):
    campaign = VerificationCampaign(network, queries=("reachability",), **settings)
    campaign.add_injections((f"s{index}", "in0") for index in range(4))
    result = campaign.run()
    return result.reachability.pairs(), result.stats


def test_a_program_replaced_between_campaigns_is_run(monkeypatch):
    network, router = _converging_network()
    before, stats = _delivered(network)
    assert stats.state_memo_hits
    router.set_output_program("out1", Fail("port down"))
    after, _ = _delivered(network)
    assert after != before
    assert after == _delivered(network, state_memo=False)[0]
    # The fault this guards against: one memo for the network's lifetime.
    from repro.core import jobs

    def lifelong(self, job):
        if self.state_memo is None:
            self.state_memo = StateMemo()
        return self.state_memo

    monkeypatch.setattr(jobs.Runtime, "memo_for", lifelong)
    network, router = _converging_network()
    assert _delivered(network)[0] == before
    router.set_output_program("out1", Fail("port down"))
    assert _delivered(network)[0] != after


def test_isolated_jobs_never_hit():
    model = NetworkModel.from_workload(
        "stanford", zones=6, internal_prefixes_per_zone=4, service_acl_rules=2
    )
    queries = (ForAllPairs(Reach), Loop())
    shared = model.query(*queries, symmetry=False, delta=False)
    isolated = model.query(*queries, symmetry=False, delta=False, shared_cache=False)
    assert shared.stats.state_memo_hits > 0
    assert isolated.stats.state_memo_hits == 0
    assert [answer.fingerprint for answer in shared.results] == [
        answer.fingerprint for answer in isolated.results
    ]


# ---------------------------------------------------------------------------
# The counters
# ---------------------------------------------------------------------------


def test_the_counters_reach_the_stats_json_and_the_registry():
    model = NetworkModel.from_workload(
        "stanford", zones=6, internal_prefixes_per_zone=4, service_acl_rules=2
    )
    runs = {
        memo: model.query(Loop(), symmetry=False, delta=False, state_memo=memo)
        for memo in (True, False)
    }
    on, off = (runs[memo].stats.to_dict() for memo in (True, False))
    assert on["engine_steps"] == on["state_memo_misses"] > 0
    assert on["state_memo_hits"] > 0
    assert off["state_memo_hits"] == off["state_memo_misses"] == 0
    assert on["engine_steps"] < off["engine_steps"]
    assert on["paths"] == off["paths"]
    jobs = runs[True].campaign.jobs
    assert sum(job.to_dict()["stats"]["solver_engine_steps"] for job in jobs) == (
        on["engine_steps"]
    )
    exposition = ensure_core_families(MetricsRegistry()).render_prometheus()
    for series in (
        "repro_engine_steps_total 0",
        'repro_state_memo_lookups_total{result="hit"} 0',
        'repro_state_memo_lookups_total{result="miss"} 0',
    ):
        assert series in exposition.splitlines()


def test_a_bare_executor_keeps_no_memo():
    network, _ = _converging_network()
    executor = SymbolicExecutor(network)
    assert executor.memo is None
    for strategy in ("bfs", "coverage"):
        settings = ExecutionSettings(strategy=strategy)
        assert SymbolicExecutor(network, settings=settings, state_memo=StateMemo()).memo is None
    settings = ExecutionSettings(use_incremental_solver=False)
    assert SymbolicExecutor(network, settings=settings, state_memo=StateMemo()).memo is None


def test_a_replayed_record_sets_every_slot():
    network, _ = _converging_network()
    memo, solver = StateMemo(), Solver()
    for _ in range(INJECTIONS):
        executor = SymbolicExecutor(network, solver=solver, state_memo=memo)
        records = executor.inject(packet_program(RunSettings()), "s0", "in0").paths
    assert solver.stats.state_memo_hits and records
    for record in records:
        for slot in ExecutionState.__slots__:
            getattr(record.state, slot)
