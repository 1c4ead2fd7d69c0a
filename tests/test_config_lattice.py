"""One lattice: configuration changes which tier answers, never the answer.

Every work-avoidance tier, executor and front door is a coordinate of one
configuration lattice, read off the declarations:

* every tier switch of :class:`~repro.core.settings.RunSettings`
  (``TIER_SWITCHES``), its values its declared choices or derived from the
  type of its default — a bool takes both values, an int its default and
  one more — so a tier that is added or deleted moves the lattice without
  an edit here;
* the cache stack (``shared_cache``);
* the store: off, cold, or warm — primed by the same run over the snapshot
  as it was *before* the network's mutation, so a warm store holds that
  run's verdict segments and plan payloads;
* the delta baseline's source: none, the one the warm store recorded, or
  one passed in — a run over the pre-mutation snapshot, its baseline
  payload round-tripped through JSON as ``--save-baseline`` writes it
  (the service takes no baseline, so its points draw one of the others);
* one worker, or two — on one process pool lent to the whole module (the
  service front door on the service's own resident pool); tracing on or off;
* the front door: one merged plan (``execute_plan``), the same plan's facts
  folded by a bare ``VerificationCampaign``, one plan per query, or the
  resident service's ``query`` message.

The networks are seed-pinned (``REPRO_DIFF_SEED``) exported stanford
backbones (2–4 zones, 0–3 service-ACL rules, edge ASA on or off) and small
department networks, each mutated by 0–2 scenario-generator steps.  At
every sampled point — each network's first is the top corner, every tier on
over a warm store — the ``holds``, ``value`` and ``fingerprint`` of
``ForAllPairs(Reach), Loop(), Invariant("IpSrc")`` equal the reference
point's: everything off, one worker, isolated.  Under one more point's
low ``max_paths`` budget every verdict is the reference's or unknown, with
``incomplete_ports`` evidence.  A failure is shrunk greedily —
configuration, network, configuration — to the minimal failing point, and
one fault planted per work-avoidance tier must be shrunk to that tier.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.api import (
    ForAllPairs,
    Invariant,
    Loop,
    NetworkModel,
    Reach,
    compile_plan,
    execute_plan,
)
from repro.api.planner import PlanContext
from repro.core.campaign import VerificationCampaign, clear_runtime_cache
from repro.core.settings import SETTING_NAMES, TIER_SWITCHES, RunSettings
from repro.obs import NullTracer, Tracer, set_tracer
from repro.scenarios import generate_scenario
from repro.serve import VerificationService, protocol
from repro.store import VerificationStore, clear_load_cache
from repro.workloads.export import (
    export_department_style_directory,
    export_stanford_directory,
)

from test_canonical_cache import shrink_case

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260728"))

QUERIES = (ForAllPairs(Reach), Loop(), Invariant("IpSrc"))

STANFORD_CASES = 4
DEPARTMENT_CASES = 2
POINTS_PER_CASE = 7
#: A mutation is a prefix of one scenario this long, whose forwarding-loop
#: violation (when it has one) is injected at its second step.
SCENARIO_STEPS = 6


# ---------------------------------------------------------------------------
# The lattice, read off the declarations
# ---------------------------------------------------------------------------

_FIELDS = {spec.name: spec for spec in dataclasses.fields(RunSettings)}


def switch_values(name: str) -> Tuple[object, ...]:
    """A tier switch's lattice values: its declared choices (a retired
    tier's one value), else by the type of its default; the first is the
    reference ("off")."""
    choices = _FIELDS[name].metadata["choices"]
    if choices is not None:
        return tuple(choices)
    default = _FIELDS[name].default
    if type(default) is bool:
        return (False, True)
    if type(default) is int:
        return (default, default + 1)
    raise TypeError(
        f"the lattice derives no values for tier switch {name!r} "
        f"of type {type(default).__name__}"
    )


def _checked(result):
    if result.job_errors:
        raise RuntimeError(f"job errors: {result.job_errors}")
    return result


def _plan_door(directory, settings, workers, store, pool, baseline=None):
    plan = compile_plan(NetworkModel.from_directory(directory), QUERIES, **settings)
    result = execute_plan(
        plan, workers=workers, store=store, pool=pool, baseline=baseline
    )
    return [answer.to_dict() for answer in _checked(result)]


def _campaign_door(directory, settings, workers, store, pool, baseline=None):
    plan = compile_plan(NetworkModel.from_directory(directory), QUERIES, **settings)
    campaign = VerificationCampaign(
        plan.model.source, store=store, baseline=baseline,
        **vars(plan.settings), **vars(plan.facts),
    )
    for port, facts in plan.port_facts:
        campaign.add_injection(*port, facts=facts)
    context = PlanContext(plan, _checked(campaign.run(workers=workers, pool=pool)))
    return [query.evaluate(context).to_dict() for query in plan.queries]


def _per_query_door(directory, settings, workers, store, pool, baseline=None):
    model = NetworkModel.from_directory(directory)
    return [
        _checked(execute_plan(
            compile_plan(model, [query], **settings),
            workers=workers, store=store, pool=pool, baseline=baseline,
        ))[0].to_dict()
        for query in QUERIES
    ]


class _Session:
    def __init__(self):
        self.messages = []
        self.finished = asyncio.Event()

    def send_nowait(self, message):
        self.messages.append(message)
        if message["type"] in ("done", "error"):
            self.finished.set()


async def _serve_once(message, workers, store):
    service = VerificationService(workers=workers, store=store, batch_window=0)
    await service.start()
    session = _Session()
    try:
        await service.handle(session, message)
        await asyncio.wait_for(session.finished.wait(), timeout=120)
    finally:
        await service.stop()
    return session.messages


def _serve_door(directory, settings, workers, store, pool, baseline=None):
    assert baseline is None, "the service takes no baseline"
    wire = {name: key for key, name in protocol.SETTINGS.items()}
    message = {
        "op": "query",
        "id": "lattice",
        "network": {"directory": directory},
        "queries": [query.describe() for query in QUERIES],
        **{wire[name]: value for name, value in settings.items()},
    }
    messages = asyncio.run(_serve_once(message, workers, store))
    if messages[-1]["type"] != "done":
        raise RuntimeError(messages[-1].get("error"))
    results = {m["index"]: m for m in messages if m["type"] == "result"}
    return [results[index] for index in range(len(QUERIES))]


FRONT_DOORS = {
    "plan": _plan_door,
    "campaign": _campaign_door,
    "per-query": _per_query_door,
    "serve": _serve_door,
}

DIMENSIONS: Dict[str, Tuple[object, ...]] = {
    **{name: switch_values(name) for name in TIER_SWITCHES},
    "shared_cache": (False, True),
    "store": ("off", "cold", "warm"),
    "baseline": ("none", "store", "passed"),
    "workers": (1, 2),
    "tracing": (False, True),
    "front_door": tuple(FRONT_DOORS),
}
REFERENCE = {name: values[0] for name, values in DIMENSIONS.items()}
#: The top corner: every tier on, over a warm cache stack.
TOP = {
    **{name: DIMENSIONS[name][-1] for name in TIER_SWITCHES},
    "shared_cache": True,
    "store": "warm",
    "baseline": "store",
}
#: The coordinates that say which state the cache stack starts from.
CACHE_STACK = {"shared_cache", "store", "baseline"}


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

#: The smallest network of each family; a network names where it differs.
MINIMAL = {
    "stanford": dict(zones=2, service_acl_rules=0, edge_asa=False, steps=0, violation=False),
    "department": dict(switches=2, steps=0, violation=False),
}


class Network(NamedTuple):
    family: str
    seed: int
    params: Tuple[Tuple[str, object], ...]

    def describe(self) -> str:
        return f"{self.family}(seed={self.seed}, {dict(self.params)})"

    def materialise(self, directory: str):
        """Export the network into ``directory``; returns the scenario
        steps that mutate it."""
        params = {**MINIMAL[self.family], **dict(self.params)}
        if self.family == "stanford":
            export_stanford_directory(
                directory,
                zones=params["zones"],
                internal_prefixes_per_zone=4,
                service_acl_rules=params["service_acl_rules"],
                edge_asa=params["edge_asa"],
                seed=self.seed,
            )
        else:
            export_department_style_directory(
                directory, switches=params["switches"], macs_per_port=2, seed=self.seed
            )
        if not params["steps"]:
            return ()
        return generate_scenario(
            directory,
            steps=SCENARIO_STEPS,
            seed=self.seed,
            inject_violation=params["violation"],
        ).steps[:params["steps"]]


def _spread(rng: random.Random, values, count: int) -> list:
    """``count`` draws in which every value appears as evenly as possible:
    shuffled blocks of ``values``, back to back."""
    drawn: list = []
    while len(drawn) < count:
        block = list(values)
        rng.shuffle(block)
        drawn.extend(block)
    return drawn[:count]


class Case(NamedTuple):
    network: Network
    points: Tuple[Dict[str, object], ...]
    truncated: Dict[str, object]


def lattice_cases(seed: int = SEED) -> List[Case]:
    rng = random.Random(seed)
    families = [
        ("stanford", dict(zones=z, service_acl_rules=r, edge_asa=a))
        for z, r, a in zip(
            _spread(rng, (2, 3, 4), STANFORD_CASES),
            _spread(rng, (0, 1, 2, 3), STANFORD_CASES),
            _spread(rng, (False, True), STANFORD_CASES),
        )
    ] + [
        ("department", dict(switches=n))
        for n in _spread(rng, (2, 3), DEPARTMENT_CASES)
    ]
    mutations = _spread(rng, (0, 1, 2), len(families))
    violations = _spread(rng, (False, True), len(families))
    count = len(families) * (POINTS_PER_CASE + 1)
    columns = {name: _spread(rng, values, count) for name, values in DIMENSIONS.items()}
    points = [{name: columns[name][i] for name in DIMENSIONS} for i in range(count)]
    for point in points:
        if point["front_door"] == "serve" and point["baseline"] == "passed":
            other = next(
                p for p in points
                if p["front_door"] != "serve" and p["baseline"] != "passed"
            )
            point["baseline"], other["baseline"] = other["baseline"], "passed"
    cases = []
    for index, (family, params) in enumerate(families):
        params.update(steps=mutations[index], violation=violations[index])
        network = Network(
            family,
            rng.randrange(1, 1000),
            tuple((k, v) for k, v in params.items() if v != MINIMAL[family][k]),
        )
        mine = points[index * (POINTS_PER_CASE + 1):(index + 1) * (POINTS_PER_CASE + 1)]
        mine[0] = {**mine[0], **TOP}
        truncated = {**mine[-1], "max_paths": rng.randint(1, 3)}
        cases.append(Case(network, tuple(mine[:-1]), truncated))
    return cases


CASES = lattice_cases()


# ---------------------------------------------------------------------------
# Running one point
# ---------------------------------------------------------------------------


class Lattice:
    """Runs points over fresh exports, one lent pool for all of them."""

    def __init__(self, root, pool):
        self.root = root
        self.pool = pool
        self.runs = 0
        self._references: Dict[Network, list] = {}

    def _fresh(self) -> str:
        self.runs += 1
        path = os.path.join(self.root, f"run{self.runs}")
        os.makedirs(path)
        return path

    def answers(self, network: Network, point: Dict[str, object]) -> list:
        """The three answers at ``point``.  A warm store was primed by the
        same run over the snapshot before the network's mutation; only at
        a ``baseline="store"`` point does it keep the baseline that run
        recorded.  A passed-in baseline is a plan run's over that same
        snapshot, as ``--save-baseline`` writes it."""
        directory = self._fresh()
        steps = network.materialise(directory)
        door = FRONT_DOORS[point["front_door"]]
        settings = {name: point[name] for name in SETTING_NAMES if name in point}
        store = baseline = None
        if point["store"] != "off":
            store_dir = self._fresh()
            if point["store"] == "warm":
                door(directory, settings, point["workers"], VerificationStore(store_dir), self.pool)
                if point["baseline"] != "store":
                    for path in Path(store_dir, "baselines").iterdir():
                        path.unlink()
            store = VerificationStore(store_dir)
        if point["baseline"] == "passed":
            primed = execute_plan(
                compile_plan(NetworkModel.from_directory(directory), QUERIES, **settings),
                workers=point["workers"], pool=self.pool,
            )
            baseline = json.loads(json.dumps(_checked(primed).campaign.baseline_payload))
        for step in steps:
            for name, text in step.writes:
                Path(directory, name).write_text(text, encoding="utf-8", newline="\n")
        clear_runtime_cache()
        clear_load_cache()
        previous = set_tracer(Tracer() if point["tracing"] else NullTracer())
        try:
            return door(
                directory, settings, point["workers"], store, self.pool, baseline
            )
        finally:
            set_tracer(previous)

    def reference(self, network: Network) -> list:
        if network not in self._references:
            self._references[network] = self.answers(network, REFERENCE)
        return self._references[network]

    def failures(self, network: Network, point: Dict[str, object]) -> List[str]:
        """What differs from the reference at ``point`` (empty: nothing)."""
        want = self.reference(network)
        try:
            got = self.answers(network, point)
        except Exception as exc:  # the point failed outright
            return [f"raised {type(exc).__name__}: {exc}"]
        problems = []
        for query, expected, answer in zip(QUERIES, want, got):
            if "max_paths" in point:
                if answer["holds"] == expected["holds"] or (
                    answer["holds"] is None
                    and "incomplete_ports" in answer["evidence"]
                ):
                    continue
                problems.append(
                    f"{query.describe()}: holds {answer['holds']!r} without "
                    f"incomplete_ports, reference {expected['holds']!r}"
                )
            elif _answer(answer) != _answer(expected):
                problems.append(
                    f"{query.describe()}: holds {answer['holds']!r} "
                    f"fingerprint {answer['fingerprint'][:12]}, reference "
                    f"{expected['holds']!r} {expected['fingerprint'][:12]}"
                )
        return problems

    def shrink(self, network: Network, point: Dict[str, object]):
        """Greedy shrink of a failing point — configuration, then network,
        then configuration again on the smaller network: ``(network,
        coordinates that differ from the reference, failures)`` of the
        minimal failing point."""
        fixed = {k: v for k, v in point.items() if k not in DIMENSIONS}

        def config(diff):
            return {**REFERENCE, **fixed, **dict(diff)}

        def shrink_config(network, diff):
            if not diff:
                return diff
            return shrink_case(
                diff, lambda sub: bool(self.failures(network, config(sub)))
            )

        diff = shrink_config(network, tuple(
            (name, value) for name, value in point.items()
            if name in DIMENSIONS and value != REFERENCE[name]
        ))
        if network.params:
            network = network._replace(params=shrink_case(
                network.params,
                lambda sub: bool(
                    self.failures(network._replace(params=sub), config(diff))
                ),
            ))
        diff = shrink_config(network, diff)
        return network, dict(diff), self.failures(network, config(diff))

    def first_failure(self):
        """Run the lattice, every network's top corner first; the shrunk
        first failing point, or ``None`` when every point answers like the
        reference."""
        runs = [(case.network, case.points[0]) for case in CASES] + [
            (case.network, point)
            for case in CASES
            for point in case.points[1:] + (case.truncated,)
        ]
        for network, point in runs:
            if self.failures(network, point):
                return self.shrink(network, point)
        return None


def _answer(answer) -> tuple:
    value = json.loads(json.dumps(answer["value"], sort_keys=True, default=str))
    return (answer["holds"], value, answer["fingerprint"])


def _report(network, diff, problems) -> str:
    return (
        f"minimal failing point: {network.describe()} under {diff or 'the reference'}"
        + "".join(f"\n  {problem}" for problem in problems)
    )


@pytest.fixture(scope="module")
def lattice(tmp_path_factory):
    # Spawned, not forked: a worker inherits no fault a test plants.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        yield Lattice(str(tmp_path_factory.mktemp("lattice")), pool)


# ---------------------------------------------------------------------------
# The declarations drive the lattice
# ---------------------------------------------------------------------------


def test_every_tier_switch_has_lattice_values():
    """A tier switch of a type the lattice cannot enumerate fails here, not
    silently outside the lattice.  A switch with declared choices (a retired
    tier) takes exactly those; any other takes two values."""
    for name in TIER_SWITCHES:
        values = switch_values(name)
        choices = _FIELDS[name].metadata["choices"]
        assert len(set(values)) == (len(choices) if choices else 2), name
        for value in values:
            RunSettings(**{name: value})
    assert switch_values("symmetry") == (False,)
    with pytest.raises(TypeError, match="derives no values"):
        switch_values("field_values")


def test_lattice_samples_every_coordinate_value():
    points = [p for case in CASES for p in case.points + (case.truncated,)]
    assert len(points) >= 40
    for name, values in DIMENSIONS.items():
        assert {p[name] for p in points} == set(values), name
    assert {case.network.family for case in CASES} == set(MINIMAL)
    assert {dict(case.network.params).get("steps", 0) for case in CASES} == {0, 1, 2}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_configuration_changes_which_tier_answers_never_the_answer(lattice, index):
    case = CASES[index]
    for point in case.points + (case.truncated,):
        if lattice.failures(case.network, point):
            pytest.fail(_report(*lattice.shrink(case.network, point)))


# ---------------------------------------------------------------------------
# Planted faults: each is caught and shrunk to its own tier
# ---------------------------------------------------------------------------


def _switches_of(module) -> set:
    """The tier switches named after the module that implements the tier."""
    tier = module.__name__.rpartition(".")[2]
    return {name for name in TIER_SWITCHES if name.split("_")[0] == tier}


def _caught(lattice):
    shrunk = lattice.first_failure()
    assert shrunk is not None and shrunk[2], "the planted fault went unnoticed"
    return shrunk[1], _report(*shrunk)


def _mutated_stanford() -> Case:
    """The first stanford case whose network is mutated before it is asked."""
    return next(
        case for case in CASES
        if case.network.family == "stanford" and dict(case.network.params).get("steps")
    )


def test_splicing_a_touched_port_is_caught(lattice, monkeypatch):
    from repro.core import delta

    monkeypatch.setattr(delta, "affected_injections", lambda *args, **kw: set())
    diff, report = _caught(lattice)
    assert set(diff) - CACHE_STACK == _switches_of(delta), report
    # Which baseline the sampled lattice splices from first depends on its
    # draws, so the warm store's route (a store is read through the shared
    # cache) is shrunk from a point of its own.
    network = _mutated_stanford().network
    warm = {**REFERENCE, **{name: TOP[name] for name in CACHE_STACK}, "delta": True}
    shrunk = lattice.shrink(network, warm)
    diff, report = shrunk[1], _report(*shrunk)
    assert shrunk[2], report
    assert set(diff) - CACHE_STACK == _switches_of(delta), report
    assert diff.get("store") == "warm" and diff.get("baseline") == "store", report


def test_delta_off_never_splices_a_passed_baseline(lattice, monkeypatch):
    """The ``delta`` switch's meaning, with the splicing fault planted: a
    baseline handed in is spliced from — and the fault caught — only with
    ``delta`` on; with it off the answers stay the reference's."""
    from repro.core import delta

    monkeypatch.setattr(delta, "affected_injections", lambda *args, **kw: set())
    case = _mutated_stanford()
    passed = {**REFERENCE, "baseline": "passed"}
    assert lattice.failures(case.network, {**passed, "delta": True})
    assert not lattice.failures(case.network, {**passed, "delta": False})


def test_a_flipped_store_verdict_is_caught(lattice, monkeypatch):
    flip = {"sat": "unsat", "unsat": "sat"}
    load, get_plan = VerificationStore.load, VerificationStore.get_plan

    def flipped_load(self, refresh=False):
        return {key: flip.get(v, v) for key, v in load(self, refresh).items()}

    def flipped_plan(self, model_fingerprint, plan_fingerprint):
        stored = get_plan(self, model_fingerprint, plan_fingerprint)
        if stored is not None:
            # One stored report forgets where one of its paths was delivered.
            reports, _ = stored
            report = next(
                reports[key] for key in sorted(reports) if reports[key].delivered_to
            )
            report.delivered_to.pop(next(iter(report.delivered_to)))
        return stored

    monkeypatch.setattr(VerificationStore, "load", flipped_load)
    monkeypatch.setattr(VerificationStore, "get_plan", flipped_plan)
    diff, report = _caught(lattice)
    assert "store" in diff and set(diff) <= CACHE_STACK, report
