"""The state memo (``repro.core.memo``): the jobs of one campaign run explore
each state they share once, and a job that reaches a recorded state replays
its subtree — its tallies and its fact delta.  A replay must produce exactly
what exploring would have: the same tallies in the same order, the same
``truncated`` flag, the same fold of every fact channel and the same report
answers, for fewer engine steps.

The random networks are ``tests/test_strategies.py``'s, seed-pinned
(override with ``REPRO_DIFF_SEED``).  A subtree is recorded once its root has
been explored ``RECORD_AFTER`` times outside any recording, so every port is
injected ``RECORD_AFTER + 2`` times: the last round replays.  Seven planted
faults — a replay that ignores its footprint, its ``max_paths`` headroom or
its symbol draws, or drops the entering path's ports from an example trace,
or is made when a fork queues the child rather than when it is popped, a
subtree stored although it lived on an ``unknown`` verdict, and one stored
although a loop check read its entering path — must each be caught.
"""

import random

import pytest

from repro import ExecutionSettings, Network, NetworkElement, SymbolicExecutor
from repro.api import NetworkModel
from repro.api.queries import ForAllPairs, Loop, Reach
from repro.core import jobs as jobs_module
from repro.core import memo as memo_module
from repro.core.campaign import VerificationCampaign
from repro.core.facts import CAMPAIGN_QUERIES, REPORT_FIELDS, FactFold, Facts
from repro.core.jobs import CampaignJob, clear_runtime_cache, execute_job, packet_program
from repro.core.memo import RECORD_AFTER, StateMemo
from repro.core.memory import HeaderMemory
from repro.core.paths import PathStatus
from repro.core.queries import ensure_core_families
from repro.core.settings import RunSettings
from repro.core.sources import NetworkSource
from repro.obs.metrics import MetricsRegistry
from repro.sefl import (
    Assign, Constrain, Eq, Fail, Fork, Forward, If, InstructionBlock, IpDst, OneOf,
    SymbolicValue, TcpDst,
)
from repro.solver.ast import Const, Var
from repro.solver.form import AppendLog, PathCondition
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


#: Every fact channel: what a replay folds must equal what exploring folds.
ALL_FACTS = Facts(
    kinds=CAMPAIGN_QUERIES,
    invariant_fields=("IpDst", "TcpDst"),
    visibility_fields=("TcpDst",),
    witness_fields=(("TcpDst", 2),),
    record_examples=True,
)


def _folded(fold):
    """Every channel of a fold, in the order it was folded."""
    return (
        list(fold.delivered_to.items()),
        fold.loops,
        list(fold.invariants.items()),
        [(name, list(cells.items())) for name, cells in fold.visibility.items()],
        [(name, list(found.items())) for name, found in fold.witnesses.items()],
        list(fold.examples.items()),
    )


def _outcome(result, fold, symbols):
    """What one injection produced; ``symbols``, the executor's symbol
    count after it, names whatever it draws next."""
    return (
        _folded(fold),
        symbols,
        list(result.status_counts.items()),
        list(result.reason_counts.items()),
        result.terminations,
        result.truncated,
    )


def _ports(network):
    return [(element.name, port) for element in network for port in element.input_ports]


def _run(network, memo, ports=None, packet=RunSettings(), solver=None, **settings):
    """Every port injected ``INJECTIONS`` rounds, each on a fresh executor
    sharing one solver, verdict cache and ``memo``, and folding every fact
    channel, as a campaign's jobs do: each injection's outcome in order,
    and the solver's counters.  (The hop budget keeps the looped networks
    small.)"""
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
            fold = FactFold(ALL_FACTS)
            result = executor.inject(packet_program(packet), element, port, fold=fold)
            assert not result.paths  # a folding run keeps no record
            outcomes.append(_outcome(result, fold, executor.symbols.count))
    return outcomes, solver.stats


def _network(case):
    """Odd cases wire ``sink0`` back into the root: loops, proved and cut off."""
    network = random_network(case)
    if case % 2:
        network.add_link(("sink0", "out0"), ("root", "in0"))
    return network


LOOPED = [case for case in PROPERTY_CASES if case % 2]


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


def _report_mismatches(case):
    """Campaign jobs of one run share their runtime's memo: the answer
    fields of the memo-on run's reports that differ from the memo-off
    run's, and how many replays the memo-on run made."""
    network = _network(case)
    reports = {}
    for memo in (False, True):
        clear_runtime_cache()
        source = NetworkSource.from_network(network)
        reports[memo] = [
            execute_job(CampaignJob(
                source, element, port, facts=ALL_FACTS, memo_scope="one run",
                settings=RunSettings(max_hops=16, state_memo=memo),
            ))
            for _ in range(INJECTIONS)
            for element, port in _ports(network)
        ]
    mismatches = []
    for on, off in zip(reports[True], reports[False]):
        assert on.error is off.error is None
        mismatches.extend(
            f"seed={SEED}+{case} {on.source_key} {spec.name}"
            for spec in REPORT_FIELDS
            if getattr(on, spec.name) != getattr(off, spec.name)
        )
    return mismatches, sum(report.solver_state_memo_hits for report in reports[True])


@pytest.mark.parametrize("case", PROPERTY_CASES[::4])
def test_job_reports_equal_with_the_memo_on_and_off(case):
    """Every answer field of every report equals the memo-off run's."""
    mismatches, hits = _report_mismatches(case)
    assert mismatches == []
    assert hits


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

    execute, follow, step, replay = (
        engine.SymbolicExecutor._execute,
        engine.SymbolicExecutor._follow,
        engine.SymbolicExecutor._step,
        memo_module.Recorder.replay,
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

    def checked_replay(self, state, element, in_port, pending, swap=None, port=None):
        if swap is not None:  # an unbuilt child: its key and future off its parent's
            var, domain = swap
            child = state.clone()
            child.condition.narrow(var, domain, domain)
            assert state.digest(swap) == _scratch_digest(child) == child.digest(), context
            assert child.future().same_future(state, swap), context
            checked[0] += 1
        return replay(self, state, element, in_port, pending, swap, port)

    monkeypatch.setattr(engine.SymbolicExecutor, "_execute", checked_execute)
    monkeypatch.setattr(engine.SymbolicExecutor, "_follow", checked_follow)
    monkeypatch.setattr(engine.SymbolicExecutor, "_step", checked_step)
    monkeypatch.setattr(memo_module.Recorder, "replay", checked_replay)
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
                if rng.random() < 0.5 or not header.depth(address):
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
    replayed, then ``c`` draws the next one: named after ``b``'s draw, and
    the run ends with both drawn."""
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

    def drawless(self, frame, draws, delta):
        summary(self, frame, 0, delta)

    monkeypatch.setattr(memo_module.Summary, "__init__", drawless)
    assert _differs(network, ports)


def test_a_replay_that_drops_the_entering_ports_from_an_example_is_caught(monkeypatch):
    """A delta's example traces start where its subtree was entered: a
    replay must put the entering path's ports in front."""
    merge = FactFold.merge

    def prefixless(self, delta, trace):
        # Summaries fold their children behind a list of ports; a replay
        # folds behind the entering state's trace, an AppendLog.
        merge(self, delta, [] if isinstance(trace, AppendLog) else trace)

    monkeypatch.setattr(FactFold, "merge", prefixless)
    assert any(_report_mismatches(case)[0] for case in PROPERTY_CASES[::4])


def _stored_endings(monkeypatch):
    """Patch ``Summary`` to list the status of every ending it stores."""
    stored = []
    summary = memo_module.Summary.__init__

    def listing(self, frame, draws, delta):
        stored.extend(status for status, _, _ in frame.own)
        summary(self, frame, draws, delta)

    monkeypatch.setattr(memo_module.Summary, "__init__", listing)
    return stored


def test_no_summary_holds_a_loop_ending(monkeypatch):
    """A loop ending (proved, or cut off by the hop budget) means a loop
    check read the entering path's history: its subtree is poisoned, so
    the loop channel is only ever folded live, with the path's full
    trace.  On the looped odd cases loops end, and summaries are stored,
    but none holds one."""
    stored, loops = _stored_endings(monkeypatch), 0
    for case in LOOPED:
        for point in ({}, {"max_hops": 2}):
            outcomes, _ = _run(_network(case), StateMemo(), **point)
            loops += sum(len(outcome[0][1]) for outcome in outcomes)
    assert loops and stored
    assert PathStatus.LOOP not in stored


def test_a_summary_refuses_a_loop_ending(monkeypatch):
    """The rule the loop channel relies on, pinned: with poisoning
    planted away, storing a loop ending fails."""
    monkeypatch.setattr(memo_module.Recorder, "poison", lambda self: None)
    with pytest.raises(AssertionError, match="loop check"):
        for case in LOOPED:
            _run(_network(case), StateMemo())


# ---------------------------------------------------------------------------
# Unbuilt children: asked for when popped, never when queued
# ---------------------------------------------------------------------------


def _span(index):
    """``10.index.0.0/16``."""
    return ((10 << 24) | (index << 16), (10 << 24) | (index << 16) | 0xFFFF)


def _fork_then_fail_network():
    """``r`` forks web traffic to three router-style guarded ports, a sink
    behind each, and fails the rest: its program's forwarding outcome comes
    before a failing one.  Fronts ``f0``-``f2`` narrow the destination to
    anything, ``10/8`` and ``10.0/14``, so ``r`` is entered with three
    futures, but each guard narrows all three to its own ``/16``: the
    sinks' states are shared, and the memo answers for ``r``'s children.
    ``g`` hands ``sink0`` the state ``r``'s ``p0`` child has, in a run that
    ends one path: its summary is stored under any budget."""
    ports = ("p0", "p1", "p2")
    network = Network("fork-then-fail")
    router = _forwarder("r", If(Eq(TcpDst, 80), Fork(*ports), Fail("not web")), ports)
    network.add_element(router)
    for index, port in enumerate(ports):
        router.set_output_program(port, Constrain(OneOf(IpDst, [_span(index)])))
        network.add_element(_forwarder(f"sink{index}", Forward("out0")))
        network.add_link(("r", port), (f"sink{index}", "in0"))
    ten, ten_14 = (10 << 24, (11 << 24) - 1), ((10 << 24), _span(3)[1])
    for index, narrowing in enumerate(([], [Constrain(OneOf(IpDst, [ten]))],
                                       [Constrain(OneOf(IpDst, [ten_14]))])):
        network.add_element(_forwarder(f"f{index}", InstructionBlock(*narrowing, Forward("out0"))))
        network.add_link((f"f{index}", "out0"), ("r", "in0"))
    web_to_p0 = (Constrain(Eq(TcpDst, 80)), Constrain(OneOf(IpDst, [_span(0)])))
    network.add_element(_forwarder("g", InstructionBlock(*web_to_p0, Forward("out0"))))
    network.add_link(("g", "out0"), ("sink0", "in0"))
    return network


@pytest.mark.parametrize("point", [{}, {"max_paths": 2}])
def test_unbuilt_children_keep_the_termination_order(point, monkeypatch):
    """A fork's children are queued unbuilt and the memo is asked for each
    when it is popped: after ``r``'s failing outcome has ended, as when each
    child was built.  Replaying them as they are queued would tally them
    first (and, under a budget of two, replay a child where exploring it
    stops the run)."""
    hits = []
    replay = memo_module.Recorder.replay

    def counting(self, state, element, in_port, pending, swap=None, port=None):
        hit = replay(self, state, element, in_port, pending, swap, port)
        hits.append(hit and swap is not None)
        return hit

    monkeypatch.setattr(memo_module.Recorder, "replay", counting)
    network = _fork_then_fail_network()
    ports = [("g", "in0")] * (RECORD_AFTER + 1) + [(f"f{index}", "in0") for index in range(3)]
    explored, _ = _run(network, None, ports, **point)
    replayed, stats = _run(network, StateMemo(), ports, **point)
    assert len(replayed) == len(explored) == INJECTIONS * len(ports)
    for index, (got, expected) in enumerate(zip(replayed, explored)):
        assert got == expected, f"{point} injection {index}"
    assert stats.engine_steps == stats.state_memo_misses
    if not point:
        assert sum(hits) and stats.state_memo_hits > sum(hits)  # and whole fronts


@pytest.mark.parametrize("point", [{}, {"max_paths": 2}])
def test_a_replay_made_when_a_child_is_queued_is_caught(point, monkeypatch):
    from repro.core import engine

    fan_out = engine.SymbolicExecutor._fan_out

    def eager(self, state, element, exits, worklist, result):
        start = len(worklist)
        fan_out(self, state, element, exits, worklist, result)
        queued = worklist[start:]
        del worklist[start:]
        for item in queued:
            # A run without a recorder (the memo-off side) has nothing to ask.
            if len(item) == 3 or self._recorder is None or not self._recorder.replay(
                item[0], item[1].next_element, item[1].next_port, len(worklist),
                (item[3], item[4]), item[1].key,
            ):
                worklist.append(item)

    network = _fork_then_fail_network()
    ports = [("g", "in0")] * (RECORD_AFTER + 1) + [(f"f{index}", "in0") for index in range(3)]
    assert not _differs(network, ports, **point)
    monkeypatch.setattr(engine.SymbolicExecutor, "_fan_out", eager)
    assert _differs(network, ports, **point)


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
        return self.state_memos.setdefault(job.facts, StateMemo())

    monkeypatch.setattr(jobs.Runtime, "memo_for", lifelong)
    network, router = _converging_network()
    assert _delivered(network)[0] == before
    router.set_output_program("out1", Fail("port down"))
    assert _delivered(network)[0] != after


def test_jobs_of_different_facts_never_share_a_memo():
    """A summary's delta is of one ``Facts``: a runtime keeps a memo per run
    and facts, and a memo handed to a run folding other facts is refused."""
    network, _ = _converging_network()
    runtime = jobs_module.Runtime(network, None)
    source = NetworkSource.from_network(network)

    def memo(facts, scope="one run"):
        return runtime.memo_for(CampaignJob(source, "s0", "in0", facts=facts, memo_scope=scope))

    loops, reach = Facts(kinds=("loops",)), Facts(kinds=("reachability",))
    assert memo(loops) is memo(loops)
    assert memo(reach) is not memo(loops)
    assert memo(loops, "next run") is not memo(loops)
    shared = StateMemo()
    for facts in (loops, reach):
        executor = SymbolicExecutor(network, state_memo=shared)
        if facts is reach:
            with pytest.raises(ValueError, match="one Facts"):
                executor.inject(packet_program(RunSettings()), "s0", "in0", fold=FactFold(facts))
        else:
            executor.inject(packet_program(RunSettings()), "s0", "in0", fold=FactFold(facts))


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
    settings = ExecutionSettings(use_incremental_solver=False)
    assert SymbolicExecutor(network, settings=settings, state_memo=StateMemo()).memo is None
