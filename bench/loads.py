"""The seven benchmark workloads and the loops that drive them.

Every workload is one class: ``setup`` generates the inputs from the seed
and writes them to files (the program under test only ever sees those files
or the requests built from them), ``prepare`` is the untimed part of an
operation (a fresh directory copy, the next seeded edit, dropping the
in-process runtime cache), ``op`` is what a user waits for, ``answer``
reduces the outcome to its semantic content, and ``replays`` re-runs single
layers for the traced pass.  ``README.md`` says why each workload exists.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import probes
from measure import cpu_seconds, percentile, process_cpu_seconds, timed
from spans import NullRecorder, Recorder

from repro.api import ForAllPairs, Invariant, Loop, NetworkModel, Reach
from repro.api.planner import compile_plan, execute_plan
from repro.core.campaign import clear_runtime_cache, execution_counters
from repro.obs import Tracer, set_tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: The query batch of every workload (serve-mixed alternates it with a
#: port-scoped loop query).
QUERIES = (ForAllPairs(Reach), Loop(), Invariant("IpSrc"))
QUERY_TEXTS = [query.describe() for query in QUERIES]

NULL = NullRecorder()


def child_env() -> Dict[str, str]:
    """Environment of CLI and server subprocesses: ``repro`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


def batch_answer(
    queries: Sequence[Dict[str, object]], bodies: bool = True
) -> Dict[str, object]:
    """Semantic content of one answered query batch (``QueryResult.to_dict``
    shaped entries): verdicts, reachability counts, and a digest — the
    benchmark's own, not a ``repro`` fingerprint — over them and, with
    ``bodies``, over the full answer bodies."""
    answer: Dict[str, object] = {
        "holds": {q["query"]: q["holds"] for q in queries},
    }
    for entry in queries:
        if entry["query"] == "forall_pairs(reach)":
            value = entry["value"]
            answer["reachable_pairs"] = value["reachable_pairs"]
            answer["sources"] = len(value["sources"])
            answer["destinations"] = len(value["destinations"])
            answer["delivered_paths"] = sum(p["paths"] for p in value["pairs"])
    digested = [answer, [q["value"] for q in queries] if bodies else None]
    answer["digest"] = hashlib.sha256(
        json.dumps(digested, sort_keys=True).encode()
    ).hexdigest()
    return answer


def report_answer(report: Dict[str, object], bodies: bool = True) -> Dict[str, object]:
    """:func:`batch_answer` of a ``PlanResult.to_dict()`` report (what the
    CLI writes), plus how the plan was executed."""
    stats = report["stats"]
    answer = batch_answer(report["queries"], bodies)
    answer.update(
        jobs=report["plan"]["jobs"],
        failed_jobs=stats["failed_jobs"],
        truncated_jobs=stats["truncated_jobs"],
        executed_jobs=stats["executed_jobs"],
        jobs_spliced=stats["jobs_spliced_by_delta"],
        execution_mode=report["execution_mode"],
    )
    return answer


def staged_query(rec, model, compile_options, fingerprint=False, **execute_options):
    """One query batch through the session API's public steps, each inside
    one span of ``rec`` — what ``NetworkModel.query`` does in one call."""
    with rec.span("parsers.build"):
        model.network()
    with rec.span("network.validate"):
        model.validate()
    if fingerprint:  # store-backed runs hash the directory; others never do
        with rec.span("api.model_fingerprint"):
            model.fingerprint()
    with rec.span("api.compile"):
        plan = compile_plan(model, QUERIES, **compile_options)
    with rec.span("api.execute"):
        return execute_plan(plan, **execute_options)


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


@dataclass
class TimedRun:
    """Samples of one timed pass."""

    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)


@dataclass
class TracedRun:
    """Outcome of one traced pass."""

    layers: Dict[str, float] = field(default_factory=dict)
    shares: List[Tuple[str, float]] = field(default_factory=list)
    op_wall_s: float = 0.0
    untraced_walls: List[float] = field(default_factory=list)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Base workload: closed loop of single operations
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    #: Discarded operations before timing (lazy imports, first-call caches).
    warmup_ops = 1
    #: Fewest operations a timed pass measures, whatever ``--seconds`` says.
    min_ops = 3
    #: Replay ``network.view`` — only where the operation really partitions
    #: its jobs by symmetry (elsewhere the replay would time work the
    #: operation never does).
    symmetry_replay = False
    #: Compare whole answer bodies between operations; off where every
    #: operation sees a different network and only verdicts and counts agree.
    same_bodies = True

    def __init__(self, seed: int, scratch: str, expected: Dict[str, object]) -> None:
        self.seed = seed
        self.scratch = scratch
        self.expected = expected
        self.rng = random.Random(seed)
        self.root = ""
        self.first_answer: Optional[Dict[str, object]] = None

    # -- lifecycle --------------------------------------------------------------

    def setup(self) -> None:
        self.root = tempfile.mkdtemp(prefix=self.name + "-", dir=self.scratch)
        # Start-up is set-up too: importing the program in a fresh
        # interpreter also compiles src/ to bytecode, so that no timed
        # operation — in this process or in a subprocess — pays for it.
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=child_env(), check=True
        )
        self.import_s = time.perf_counter() - started

    def teardown(self) -> None:
        if self.root:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = ""

    def prepare(self) -> None:
        """Untimed part of one operation: every op starts cold, on a heap
        without the previous operation's garbage."""
        clear_runtime_cache()
        gc.collect()

    def op(self, rec):
        raise NotImplementedError

    def traced_op(self, rec):
        """The operation of the traced pass (the timed one unless that runs
        in a subprocess the benchmark cannot put spans in)."""
        return self.op(rec)

    def answer(self, raw) -> Dict[str, object]:
        return report_answer(raw.to_dict(), self.same_bodies)

    def stats_of(self, raw) -> List[Dict[str, object]]:
        """``CampaignStats.to_dict()`` of every campaign the operation ran."""
        return [raw.stats.to_dict()]

    def replays(self, rec, raw, op_id: int) -> Dict[str, float]:
        """Layer metrics from replays, after the traced operations; ``raw``
        and ``op_id`` are the last traced operation's result and spans."""
        return {}

    # -- checking ---------------------------------------------------------------

    def check(self, answer: Dict[str, object]) -> List[str]:
        """Problems with one answer: disagreement with the by-construction
        expectations of ``expected.json``, incomplete exploration, or a
        different answer than the first operation gave."""
        problems = [
            f"{key}: expected {wanted!r}, got {answer.get(key)!r}"
            for key, wanted in self.expected["answer"].items()
            if answer.get(key) != wanted
        ]
        for key in ("failed_jobs", "truncated_jobs"):
            if answer.get(key):
                problems.append(f"{key} = {answer[key]}")
        if self.first_answer is None:
            self.first_answer = answer
        elif answer["digest"] != self.first_answer["digest"]:
            problems.append("answer differs from the first operation's")
        return problems

    def attempt(self, call, problems: List[str]):
        """Run one operation and check it; a raise or a wrong answer is a
        failed operation.  Returns ``(raw, wall, cpu)`` or ``None``."""
        self.prepare()
        try:
            raw, wall, cpu = timed(call)
            found = self.check(self.answer(raw))
        except Exception:  # a failing operation must not end the run
            problems.append(traceback.format_exc(limit=4))
            return None
        if found:
            problems.append("; ".join(found))
            return None
        return raw, wall, cpu

    # -- the timed pass ---------------------------------------------------------

    def run_timed(self, seconds: float) -> TimedRun:
        run = TimedRun()
        for _ in range(self.warmup_ops):
            self.prepare()
            self.op(NULL)
        started = time.perf_counter()
        while True:
            run.attempted += 1
            outcome = self.attempt(lambda: self.op(NULL), run.problems)
            if outcome is not None:
                run.walls.append(outcome[1])
                run.cpus.append(outcome[2])
            elapsed = time.perf_counter() - started
            last = run.walls[-1] if run.walls else 0.0
            if run.attempted >= self.min_ops and elapsed + last > seconds:
                break
        return run

    # -- the traced pass --------------------------------------------------------

    def run_traced(self, seconds: float, rec: Recorder) -> TracedRun:
        run = TracedRun()
        self.prepare()
        self.traced_op(NULL)
        per_op: List[Dict[str, float]] = []
        traced_walls: List[float] = []
        raw = None
        op_id = 0
        started = time.perf_counter()
        while True:
            run.attempted += 2
            plain = self.attempt(lambda: self.traced_op(NULL), run.problems)
            tracer = Tracer()
            previous = set_tracer(tracer)
            op_id = rec.begin_op()
            runs_before = execution_counters()["engine_runs"]

            def traced():
                with rec.span("op"):
                    return self.traced_op(rec)

            try:
                outcome = self.attempt(traced, run.problems)
            finally:
                set_tracer(previous)
            if plain is None or outcome is None:
                break
            engine_runs = execution_counters()["engine_runs"] - runs_before
            adopted = rec.adopt(tracer.export(), op_id)
            raw = outcome[0]
            run.untraced_walls.append(plain[1])
            traced_walls.append(outcome[1])
            layers = probes.span_layers(rec, op_id)
            layers["obs.spans"] = adopted
            layers["core.campaign.engine_runs"] = engine_runs
            per_op.append(layers)
            elapsed = time.perf_counter() - started
            if elapsed + plain[1] + outcome[1] > seconds:
                break
        if raw is None:
            return run
        run.layers = probes.median_layers(per_op)
        stats = self.stats_of(raw)
        run.layers.update(probes.stats_layers(stats))
        run.layers["obs.trace_overhead_ratio"] = statistics.median(
            traced_walls
        ) / statistics.median(run.untraced_walls)
        run.op_wall_s = rec.seconds(op_id, "op")
        run.shares = sorted(
            rec.self_seconds_by_name(op_id).items(), key=lambda item: -item[1]
        )
        run.layers.update(self.replays(rec, raw, op_id))
        run.layers.update(probes.symmetry_payoff(run.layers, len(stats)))
        return run

    def plan_replays(self, rec, network, plan, campaign) -> Dict[str, float]:
        """The replays every query-batch workload shares: symmetry (where
        the operation uses it), engine, solver, aggregation and demux."""
        rec.begin_op()
        layers: Dict[str, float] = {"api.plan_jobs": plan.job_count}
        if self.symmetry_replay:
            layers.update(probes.probe_symmetry(rec, network, plan))
        engine, constraint_sets = probes.probe_engine(rec, network, plan)
        layers.update(engine)
        layers.update(probes.probe_solver(rec, constraint_sets))
        layers.update(probes.probe_campaign(rec, plan, campaign))
        return layers


# ---------------------------------------------------------------------------
# Directory workloads: from_directory -> build -> validate -> query
# ---------------------------------------------------------------------------


class DirectoryQuery(Workload):
    compile_options: Dict[str, object] = {}
    workers = 1
    delta = True

    def export(self, directory: str) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        super().setup()
        self.directory = os.path.join(self.root, "net")
        os.mkdir(self.directory)
        self.export(self.directory)
        self.store = None

    def op(self, rec):
        return self.staged(rec, self.workers)

    def staged(self, rec, workers: int):
        return staged_query(
            rec,
            NetworkModel.from_directory(self.directory),
            self.compile_options,
            fingerprint=self.store is not None,
            workers=workers,
            store=self.store,
            delta=self.delta,
        )

    def replays(self, rec, raw, op_id: int) -> Dict[str, float]:
        network = raw.plan.model.network()
        layers = self.plan_replays(rec, network, raw.plan, raw.campaign)
        size, rules = probes.directory_input(self.directory)
        build_s = rec.seconds(op_id, "parsers.build")
        layers["parsers.bytes_in"] = size
        layers["parsers.rules_per_s"] = rules / build_s if build_s else 0.0
        return layers


class RouterFib(DirectoryQuery):
    """One core router carrying the 62 205-prefix FIB of Table 2's 33 % row."""

    name = "router-fib"
    compile_options = {"packet": "ip"}

    def export(self, directory: str) -> None:
        from repro.workloads.fibs import fib_as_text, fib_subset, generate_fib

        fib = fib_subset(generate_fib(188_500, ports=16, seed=12), 0.33, seed=1)
        self.fib_text = fib_as_text(fib)
        with open(os.path.join(directory, "core.fib"), "w", encoding="utf-8") as handle:
            handle.write(self.fib_text)
        with open(os.path.join(directory, "topology.txt"), "w", encoding="utf-8") as handle:
            handle.write("device core router core.fib\n")

    def replays(self, rec, raw, op_id: int) -> Dict[str, float]:
        layers = super().replays(rec, raw, op_id)
        layers.update(probes.probe_router(rec, self.fib_text))
        return layers


class Backbone(DirectoryQuery):
    """Stanford-style backbone: 48 zones, each a service ACL in front of a
    zone router dual-homed to two cores."""

    zones = 48
    acl_rules = 6

    def export(self, directory: str) -> None:
        from repro.workloads.export import export_stanford_directory

        export_stanford_directory(
            directory,
            zones=self.zones,
            internal_prefixes_per_zone=50,
            service_acl_rules=self.acl_rules,
        )


class BackboneCold(Backbone):
    """Every reducer and cache tier bypassed."""

    name = "backbone-cold"
    compile_options = {"symmetry": False}
    delta = False


class BackbonePool(BackboneCold):
    """The same inputs and queries on a two-worker pool with the default
    shared-cache tier."""

    name = "backbone-pool"
    workers = 2

    def answer(self, raw) -> Dict[str, object]:
        answer = super().answer(raw)
        answer["shared_tier_used"] = raw.stats.solver_shared_round_trips > 0
        return answer

    def replays(self, rec, raw, op_id: int) -> Dict[str, float]:
        layers = super().replays(rec, raw, op_id)
        # The executor's share: the same operation on one worker against
        # the pooled one, both traced.
        sequential_op = rec.begin_op()
        self.prepare()
        with rec.span("op"):
            self.staged(rec, 1)
        layers["core.campaign.pool_speedup"] = rec.seconds(
            sequential_op, "op"
        ) / rec.seconds(op_id, "op")
        return layers


class BackboneReverify(Backbone):
    """Edit one zone's ACL, re-verify against a primed store with default
    settings: delta splices every port the edit cannot reach."""

    name = "backbone-reverify"
    # Drop reasons name the blocked ports, which every edit changes.
    same_bodies = False

    def setup(self) -> None:
        from repro.store import VerificationStore

        super().setup()
        self.store = VerificationStore(os.path.join(self.root, "store"))
        self.seen_rules = set()
        # Prime: one cold run records verdicts, the plan and the baseline.
        # Symmetry off only keeps set-up short; it is not part of the plan
        # or job identity, so the baseline serves the default-settings ops.
        primed = NetworkModel.from_directory(self.directory).query(
            *QUERIES, store=self.store, symmetry=False
        )
        if primed.job_errors:
            raise RuntimeError(f"priming run failed: {primed.job_errors}")

    def prepare(self) -> None:
        from repro.parsers.service_acl import format_service_acl

        super().prepare()
        # Content the store has never seen, so the plan cache cannot answer.
        while True:
            ports = tuple(sorted(self.rng.sample(range(1024, 65536), self.acl_rules)))
            if ports not in self.seen_rules:
                break
        self.seen_rules.add(ports)
        zone = self.rng.randrange(self.zones)
        path = os.path.join(self.directory, f"acl{zone}.acl")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(format_service_acl(ports))

    def answer(self, raw) -> Dict[str, object]:
        answer = super().answer(raw)
        answer["from_cache"] = raw.from_cache
        return answer

    def replays(self, rec, raw, op_id: int) -> Dict[str, float]:
        layers = super().replays(rec, raw, op_id)
        layers.update(
            probes.probe_store(
                rec, self.store, self.directory, QUERIES, raw.to_dict()
            )
        )
        # The next edit against the baseline the store now holds: what the
        # next operation's delta partition will diff.
        self.prepare()
        network = NetworkModel.from_directory(self.directory).network()
        layers.update(
            probes.probe_delta(
                rec,
                probes.stored_manifest(self.store, self.directory),
                network,
                raw.plan.injections,
            )
        )
        return layers


# ---------------------------------------------------------------------------
# cli-default: the command a user types, as a subprocess
# ---------------------------------------------------------------------------


class CliDefault(Workload):
    """``python -m repro.cli query --workload stanford ...`` with no tuning
    flags: interpreter start, imports and report writing included."""

    name = "cli-default"
    #: Every operation is a fresh process, and set-up compiled the bytecode.
    warmup_ops = 0
    symmetry_replay = True
    options = {"zones": 16, "internal_prefixes_per_zone": 12, "service_acl_rules": 4}

    def setup(self) -> None:
        super().setup()
        self.report = os.path.join(self.root, "report.json")

    def prepare(self) -> None:
        super().prepare()
        if os.path.exists(self.report):
            os.unlink(self.report)

    def op(self, rec):
        command = [sys.executable, "-m", "repro.cli", "query", "--workload", "stanford"]
        for key, value in self.options.items():
            command += ["--workload-option", f"{key}={value}"]
        command += ["-o", self.report] + QUERY_TEXTS
        subprocess.run(
            command, env=child_env(), check=True, stdout=subprocess.DEVNULL
        )
        with open(self.report, encoding="utf-8") as handle:
            return json.load(handle)

    def traced_op(self, rec):
        """The same request staged in-process over the same workload
        options (``cli.import_s`` is measured by its own subprocess)."""
        model = NetworkModel.from_workload("stanford", **self.options)
        result = staged_query(rec, model, {})
        with rec.span("cli.report"):
            with open(self.report, "w", encoding="utf-8") as handle:
                handle.write(result.to_json())
        return result

    def answer(self, raw) -> Dict[str, object]:
        return report_answer(raw if isinstance(raw, dict) else raw.to_dict())

    def replays(self, rec, raw, op_id: int) -> Dict[str, float]:
        layers = self.plan_replays(
            rec, raw.plan.model.network(), raw.plan, raw.campaign
        )
        layers["cli.import_s"] = self.import_s
        return layers


# ---------------------------------------------------------------------------
# scenario-churn
# ---------------------------------------------------------------------------


class ScenarioChurn(Workload):
    """An eight-step update sequence re-verified state by state, each
    state's campaign chained as the next one's delta baseline."""

    name = "scenario-churn"
    symmetry_replay = True
    steps = 8
    #: The generator seed is pinned: with it the sequence is ASA and ACL
    #: churn around the seeded forwarding loop — edits that cannot create a
    #: loop themselves, so violations appear only between inject and revert
    #: by construction — and every ``--seed`` does the same amount of work.
    #: ``--seed`` picks the export seed, i.e. the addresses being edited.
    generator_seed = 5

    def setup(self) -> None:
        from repro.scenarios import generate_scenario
        from repro.workloads.export import export_stanford_directory

        super().setup()
        self.base = os.path.join(self.root, "base")
        self.work = os.path.join(self.root, "work")
        os.mkdir(self.base)
        export_stanford_directory(
            self.base,
            zones=6,
            internal_prefixes_per_zone=12,
            service_acl_rules=4,
            edge_asa=True,
            seed=self.seed % 10_000,
        )
        started = time.perf_counter()
        self.scenario = generate_scenario(
            self.base, steps=self.steps, seed=self.generator_seed
        )
        self.generate_s = time.perf_counter() - started

    def prepare(self) -> None:
        super().prepare()
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(self.base, self.work)

    def op(self, rec):
        from repro.scenarios import ScenarioCampaign

        with rec.span("scenarios.run"):
            return ScenarioCampaign(self.work, self.scenario, workers=1).run()

    def answer(self, raw) -> Dict[str, object]:
        loop_at = QUERY_TEXTS.index("loop()")
        kinds = [outcome.kind for outcome in raw.outcomes]
        body = json.dumps(
            [[o.kind, o.description, list(o.holds), len(o.violations)] for o in raw.outcomes]
        )
        return {
            "states": len(raw.outcomes),
            "jobs": int(raw.outcomes[0].stats["jobs"]),
            "step_kinds": kinds,
            "loop_free_states": [o.index for o in raw.outcomes if o.holds[loop_at]],
            "failed_jobs": sum(int(o.stats["failed_jobs"]) for o in raw.outcomes),
            "truncated_jobs": sum(int(o.stats["truncated_jobs"]) for o in raw.outcomes),
            "digest": hashlib.sha256(body.encode()).hexdigest(),
        }

    def stats_of(self, raw) -> List[Dict[str, object]]:
        return [outcome.stats for outcome in raw.outcomes]

    def replays(self, rec, raw, op_id: int) -> Dict[str, float]:
        from repro.core.delta import ElementManifest
        from repro.scenarios import cluster_violations

        base_model = NetworkModel.from_directory(self.base)
        network = base_model.network()
        plan = compile_plan(base_model, QUERIES, symmetry=False)
        campaign = execute_plan(plan).campaign
        layers = self.plan_replays(rec, network, plan, campaign)
        final = NetworkModel.from_directory(self.work).network()
        layers.update(
            probes.probe_delta(
                rec, ElementManifest.of_network(network), final, plan.injections
            )
        )
        started = time.perf_counter()
        with rec.span("scenarios.reduce", violations=len(raw.violations)):
            cluster_violations(
                raw.violations,
                element_kinds={element.name: element.kind for element in network},
            )
        walls = [outcome.wall_seconds for outcome in raw.outcomes]
        layers.update(
            {
                "scenarios.reduce_s": time.perf_counter() - started,
                "scenarios.generate_s": self.generate_s,
                "scenarios.step_wall_p50_s": statistics.median(walls),
                "scenarios.step_wall_max_s": max(walls),
                "scenarios.executed_jobs": sum(o.executed_jobs for o in raw.outcomes),
                "scenarios.spliced_jobs": sum(o.spliced_jobs for o in raw.outcomes),
                "scenarios.clusters": len(raw.clusters),
            }
        )
        return layers


# ---------------------------------------------------------------------------
# serve-mixed: closed-loop clients against the resident service
# ---------------------------------------------------------------------------


@dataclass
class Request:
    """One client request as seen from the client."""

    full: bool
    start_ns: int
    first_ns: int
    done_ns: int
    messages: List[Dict[str, object]]

    @property
    def wall(self) -> float:
        return (self.done_ns - self.start_ns) / 1e9

    @property
    def first(self) -> float:
        return (self.first_ns - self.start_ns) / 1e9


class ServeMixed(Workload):
    """``repro.cli serve`` as a subprocess, two closed-loop clients
    alternating a port-scoped ``loop(aclK:in0)`` with the full batch."""

    name = "serve-mixed"
    symmetry_replay = True
    clients = 2
    batch_window_s = 0.05  # the server's default, which the workload keeps
    options = {"zones": 8, "internal_prefixes_per_zone": 12, "service_acl_rules": 4}
    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        super().setup()
        self.start_server()

    def teardown(self) -> None:
        self.stop_server()
        super().teardown()

    def start_server(self, trace_out: Optional[str] = None) -> None:
        from repro.serve import ServiceClient, read_ready_line

        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1"]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.server = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            ready = read_ready_line(self.server.stdout)
            self.address = (ready["host"], ready["port"])
            # Prime: the first request builds the resident model.
            with ServiceClient(*self.address) as client:
                messages = client.query(self.network(), QUERY_TEXTS)
            if messages[-1]["type"] != "done":
                raise RuntimeError(f"priming request failed: {messages[-1]}")
        except BaseException:
            self.stop_server()
            raise

    def stop_server(self) -> None:
        """End the server the way Ctrl-C does (a traced server writes its
        trace on the way out) and wait for it."""
        if self.server is None:
            return
        server, self.server = self.server, None
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def network(self) -> Dict[str, object]:
        return {"workload": "stanford", "options": dict(self.options)}

    # -- the closed loop --------------------------------------------------------

    def client_loop(self, index: int, seconds: float, barrier, out: List[Request]) -> None:
        """One closed-loop client: the next request leaves when the previous
        one is done.  The two clients start out of phase, so a merged plan
        usually carries one scoped query and one full batch."""
        from repro.serve import ServiceClient

        rng = random.Random(self.seed * 31 + index)
        with ServiceClient(*self.address) as client:
            barrier.wait()
            deadline = time.perf_counter() + seconds
            while len(out) < self.min_ops or time.perf_counter() < deadline:
                full = (len(out) + index) % 2 == 1
                zone = rng.randrange(self.options["zones"])
                texts = QUERY_TEXTS if full else [f"loop(acl{zone}:in0)"]
                start_ns = time.perf_counter_ns()
                request_id = client.submit(self.network(), texts)
                first_ns = 0
                messages = []
                while True:
                    message = client.receive()
                    if message.get("id") != request_id:
                        continue
                    if message["type"] == "result" and not first_ns:
                        first_ns = time.perf_counter_ns()
                    messages.append(message)
                    if message["type"] in ("done", "error", "overloaded"):
                        break
                done_ns = time.perf_counter_ns()
                out.append(Request(full, start_ns, first_ns or done_ns, done_ns, messages))

    def check_request(self, request: Request) -> List[str]:
        messages = request.messages
        if messages[-1]["type"] != "done":
            return [f"request ended with {messages[-1]}"]
        results = [m for m in messages if m["type"] == "result"]
        if not request.full:
            verdicts = [m["holds"] for m in results]
            return [] if verdicts == [True] else [f"scoped loop() answered {verdicts}"]
        answer = batch_answer(results)
        answer["jobs"] = next(m["jobs"] for m in messages if m["type"] == "accepted")
        answer["failed_jobs"] = messages[-1]["stats"]["failed_jobs"]
        answer["truncated_jobs"] = messages[-1]["stats"]["truncated_jobs"]
        return self.check(answer)

    def closed_loop(
        self, seconds: float
    ) -> Tuple[List[Request], List[Request], float, float, List[str]]:
        """Run the clients for ``seconds``; returns ``(requests, correctly
        answered requests, window seconds, cpu seconds of server + clients,
        problems)``."""
        per_client: List[List[Request]] = [[] for _ in range(self.clients)]
        problems: List[str] = []
        barrier = threading.Barrier(self.clients)

        def guarded(index: int) -> None:
            try:
                self.client_loop(index, seconds, barrier, per_client[index])
            except Exception:  # reported as a failed run, not a hung join
                problems.append(traceback.format_exc(limit=4))
                barrier.abort()

        threads = [
            threading.Thread(target=guarded, args=(index,))
            for index in range(self.clients)
        ]
        cpu_before = cpu_seconds() + process_cpu_seconds(self.server.pid)
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - started
        cpu = cpu_seconds() + process_cpu_seconds(self.server.pid) - cpu_before
        requests = [request for client in per_client for request in client]
        good = []
        for request in requests:
            found = self.check_request(request)
            if found:
                problems.append("; ".join(found))
            else:
                good.append(request)
        return requests, good, window, cpu, problems

    def service_counters(self) -> Dict[str, int]:
        from repro.serve import ServiceClient

        with ServiceClient(*self.address) as client:
            return dict(client.stats()["service"])

    def run_timed(self, seconds: float) -> TimedRun:
        requests, good, _, cpu, problems = self.closed_loop(seconds)
        return TimedRun(
            # The operation the other workloads time: the full batch, every
            # verdict in hand.
            walls=[request.wall for request in good if request.full],
            # The server's CPU is not separable per request: the mean.
            cpus=[cpu / len(requests)] if requests else [],
            attempted=max(1, len(requests)),
            problems=problems,
        )

    # -- the traced pass --------------------------------------------------------

    def run_traced(self, seconds: float, rec: Recorder) -> TracedRun:
        run = TracedRun()
        # Half the time against the untraced server from set-up, half
        # against a traced one.
        plain, plain_good, plain_window, _, problems = self.closed_loop(seconds / 2)
        run.problems += problems
        run.untraced_walls = [request.wall for request in plain_good]
        self.stop_server()
        trace_file = os.path.join(self.root, "server-trace.jsonl")
        self.start_server(trace_out=trace_file)
        before = self.service_counters()
        requests, good, _, _, problems = self.closed_loop(seconds / 2)
        after = self.service_counters()
        self.stop_server()
        run.problems += problems
        run.attempted = max(1, len(plain) + len(requests))
        if not good or not plain_good:
            return run

        op_id = rec.begin_op()
        start_ns = min(request.start_ns for request in requests)
        root = rec.add("op", start_ns, max(request.done_ns for request in requests))
        for request in requests:
            span = rec.add(
                "serve.request", request.start_ns, request.done_ns,
                parent=root, full=request.full,
            )
            rec.add("serve.first_result", request.start_ns, request.first_ns, parent=span)
        with open(trace_file, encoding="utf-8") as handle:
            server_spans = [json.loads(line) for line in handle if line.strip()]
        # The server's session span outlives the window; keep what ran in it.
        adopted = rec.adopt(
            [
                span
                for span in server_spans
                if span["name"] != "session" and span["start_ns"] >= start_ns
            ],
            op_id,
        )

        walls = [request.wall for request in good]
        p50 = statistics.median(walls)
        delta = {key: after[key] - before[key] for key in after}
        plans = max(1, len(rec.of_op(op_id, "campaign")))
        campaign_s = rec.seconds(op_id, "campaign") / plans
        compile_s = rec.seconds(op_id, "plan.compile") / plans
        job_s = rec.seconds(op_id, "job") / plans
        spanned = probes.span_layers(rec, op_id)
        run.layers = {
            "serve.request_p50_s": p50,
            "serve.request_p95_s": percentile(walls, 0.95),
            "serve.first_result_p95_s": percentile([r.first for r in good], 0.95),
            # Untraced half: what the clients of a production server see.
            "serve.first_result_p50_s": statistics.median(r.first for r in plain_good),
            "serve.requests_per_s": len(plain_good) / plain_window,
            "serve.batch_window_share": self.batch_window_s / p50,
            # Share of requests answered by a plan another request started.
            "serve.merged_ratio": 1.0 - delta["groups"] / max(1, delta["requests"]),
            "serve.plans_executed": delta["plans_executed"],
            "serve.model_builds": after["model_builds"],
            "serve.overloaded": after["overloaded"],
            "serve.errors": after["errors"],
            "obs.trace_overhead_ratio": p50 / statistics.median(run.untraced_walls),
            "obs.spans": adopted,
            "obs.campaign_span_coverage": spanned["obs.campaign_span_coverage"],
            # A request's wall outside the server's own spans: the batch
            # window, protocol, queueing, merging, demultiplexing.
            "obs.unattributed_s": p50 - campaign_s - compile_s,
            "api.compile_s": compile_s,
            "core.campaign.run_s": campaign_s,
            "core.campaign.overhead_s": spanned["core.campaign.overhead_s"] / plans,
            "core.campaign.worker_busy_max_s": job_s,
        }
        run.op_wall_s = p50
        run.shares = [
            ("campaign (server span, per plan)", campaign_s),
            ("batch window (configured)", self.batch_window_s),
            ("plan.compile (server span, per plan)", compile_s),
        ]

        # In-process replays over the same workload options.
        model = NetworkModel.from_workload("stanford", **self.options)
        replay_op = rec.begin_op()
        with rec.span("parsers.build"):
            network = model.network()
        run.layers["parsers.build_s"] = rec.seconds(replay_op, "parsers.build")
        plan = compile_plan(model, QUERIES)
        result = execute_plan(plan)
        run.layers.update(probes.stats_layers([result.stats.to_dict()]))
        run.layers.update(self.plan_replays(rec, network, plan, result.campaign))
        run.layers.update(probes.symmetry_payoff(run.layers, 1))
        return run


WORKLOADS = {
    cls.name: cls
    for cls in (
        RouterFib,
        BackboneCold,
        BackbonePool,
        CliDefault,
        BackboneReverify,
        ScenarioChurn,
        ServeMixed,
    )
}
