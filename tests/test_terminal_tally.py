"""What a run counts and what it keeps, and the egress table behind a hop.

Every terminated path is counted — by status and by stop reason, in the
order paths terminated — and ``max_paths`` budgets those terminations; a
record is kept only for the statuses the result's reader needs.  So an
output flag (``record_failed_paths``, the CLI's ``--no-failed-paths``)
changes the path list and nothing else, and a campaign job, which keeps no
record at all (its :class:`~repro.core.facts.FactFold` folds each path as
it ends), reports exactly what a keep-everything run's records give.  The random networks are
``tests/test_strategies.py``'s, seed-pinned (override with
``REPRO_DIFF_SEED``).

A hop's egress lookups come from a per-network table; the last class checks
that no change to a network can be served from a stale entry.
"""

import dataclasses
import re

import pytest

from repro import ExecutionSettings, Network, NetworkElement, SymbolicExecutor, models
from repro.cli import main
from repro.core import jobs
from repro.core.facts import CAMPAIGN_QUERIES, REPORT_FIELDS, FactFold, Facts, collect_facts
from repro.core.jobs import (
    CampaignJob, JobReport, clear_runtime_cache, execute_job, packet_program,
)
from repro.core.paths import PathStatus
from repro.core.settings import RunSettings
from repro.core.sources import NetworkSource
from repro.sefl import Constrain, Fail, Fork, Forward, OneOf, TcpDst
from repro.solver.result import SolverStats
from repro.solver.verdict_cache import VerdictCache
from test_strategies import PROPERTY_CASES, SEED, random_network

# ---------------------------------------------------------------------------
# An output flag changes the output, never the exploration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def backbone_dir(tmp_path_factory):
    """The ``backbone-*`` benchmark network: stanford, 48 zones."""
    from repro.workloads.export import export_stanford_directory

    directory = tmp_path_factory.mktemp("backbone")
    export_stanford_directory(
        str(directory), zones=48, internal_prefixes_per_zone=50, service_acl_rules=6
    )
    return directory


class TestFailedPathsFlag:
    def test_unrecorded_failed_paths_are_counted_and_budgeted(self, backbone_dir):
        """``acl0:in0`` under ``max_paths=60``: with failed paths unrecorded
        the run used to ignore them in the budget and the counts (48
        delivered, untruncated, no ``failed``)."""
        from repro.api import NetworkModel

        network = NetworkModel.from_directory(str(backbone_dir)).network()
        packet = packet_program(RunSettings())
        recorded, unrecorded = (
            SymbolicExecutor(
                network,
                settings=ExecutionSettings(record_failed_paths=flag, max_paths=60),
            ).inject(packet, "acl0", "in0")
            for flag in (True, False)
        )
        for result in (recorded, unrecorded):
            assert result.truncated
            assert result.summary_counts() == {"failed": 51, "delivered": 11}
            assert result.terminations == 62
        assert [p.status for p in unrecorded] == ["delivered"] * 11
        assert [
            (p.status, p.stop_reason, str(p.last_port), p.ports_visited)
            for p in recorded
            if p.status != PathStatus.FAILED
        ] == [
            (p.status, p.stop_reason, str(p.last_port), p.ports_visited)
            for p in unrecorded
        ]

    def test_cli_summary_line_counts_failed_paths(self, backbone_dir, tmp_path, capsys):
        lines = {}
        for flags in ([], ["--no-failed-paths"]):
            out = tmp_path / "paths.json"
            assert main(
                [
                    "reachability", str(backbone_dir), "acl0", "in0",
                    "--max-paths", "60", "-o", str(out), *flags,
                ]
            ) == 0
            lines[bool(flags)] = capsys.readouterr().out.strip()
        pattern = re.compile(r"wrote (\d+) paths to .* \((.*)\)( \[truncated\])$")
        recorded, unrecorded = (pattern.search(lines[flag]) for flag in (False, True))
        assert recorded.group(1, 2, 3) == ("62", "delivered=11, failed=51", " [truncated]")
        assert unrecorded.group(1, 2, 3) == ("11", "delivered=11, failed=51", " [truncated]")


# ---------------------------------------------------------------------------
# Tally ≡ keep-everything, on a campaign job's report
# ---------------------------------------------------------------------------

#: Every fact channel, then subsets that read different records: loops
#: only, delivered only, and none at all (counts come off the tally alone).
FACT_SETS = (
    Facts(
        kinds=CAMPAIGN_QUERIES,
        invariant_fields=("IpDst", "TcpDst"),
        visibility_fields=("TcpDst",),
        witness_fields=(("TcpDst", 2),),
        record_examples=True,
    ),
    Facts(kinds=("loops",)),
    Facts(kinds=("reachability", "invariants"), invariant_fields=("TcpDst",)),
    Facts(),
)

#: Both solver modes, unbudgeted and under a low path budget.  (The hop
#: budget keeps the looped networks below small; a tree of
#: ``random_network``'s is two hops deep.)
POINTS = [
    (incremental, RunSettings.max_paths) for incremental in (True, False)
] + [(True, 2), (False, 3)]


def _job_report(monkeypatch, network, facts, incremental, max_paths):
    """A campaign job's report, and the result and fold it was read from.
    The solver mode is swapped in where the job builds its settings."""

    def settings(**kwargs):
        kwargs["use_incremental_solver"] = incremental
        return ExecutionSettings(**kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(jobs, "ExecutionSettings", settings)
        seen = []
        collect = jobs.collect_facts

        def collecting(result, fold, report):
            seen.append((result, fold))
            return collect(result, fold, report)

        patch.setattr(jobs, "collect_facts", collecting)
        clear_runtime_cache()  # both runs start from a cold verdict cache
        report = execute_job(
            CampaignJob(
                NetworkSource.from_network(network),
                "root",
                "in0",
                settings=RunSettings(max_paths=max_paths, max_hops=16),
                facts=facts,
            )
        )
    assert report.error is None, report.error
    ((result, fold),) = seen
    return report, result, fold


def _keep_everything(network, incremental, max_paths):
    """A plain ``inject`` that keeps every record, from a cold verdict
    cache, and the cache entries it added."""
    cache = VerdictCache()
    cache.begin_collection()
    settings = ExecutionSettings(
        max_hops=16, max_paths=max_paths, use_incremental_solver=incremental,
    )
    result = SymbolicExecutor(network, settings=settings, verdict_cache=cache).inject(
        packet_program(RunSettings()), "root", "in0"
    )
    return result, tuple(sorted(cache.fresh_entries().items()))


def _folded_post_hoc(result, facts):
    """The fold a job would make, fed ``result``'s records after the run,
    read into a report."""
    fold = FactFold(facts)
    for path in result:
        fold.end(path.status, path.stop_reason, path.last_port, path.state, path.cut_off)
    report = JobReport(
        "root", "in0", RunSettings().packet,
        status_counts=result.summary_counts(), truncated=result.truncated,
    )
    collect_facts(result, fold, report)
    return fold, report


def _fold_contents(fold):
    """Every channel of a fold, in the order it was folded."""
    return (
        list(fold.delivered_to.items()),
        fold.loops,
        list(fold.invariants.items()),
        [(name, list(cells.items())) for name, cells in fold.visibility.items()],
        [(name, list(found.items())) for name, found in fold.witnesses.items()],
        list(fold.examples.items()),
    )


def _counters(stats: SolverStats):
    return {
        name: value
        for name, value in dataclasses.asdict(stats).items()
        if name != "time_seconds"
    }


def _counted_off_records(result):
    """Status counts and drop reasons walked off every record — what the
    tally replaced."""
    counts, reasons = {}, {}
    for path in result:
        counts[path.status] = counts.get(path.status, 0) + 1
        if path.status != PathStatus.DELIVERED:
            reasons[path.stop_reason] = reasons.get(path.stop_reason, 0) + 1
    return counts, reasons


@pytest.mark.parametrize("case", PROPERTY_CASES)
def test_tallied_job_report_equals_keep_everything(case, monkeypatch):
    """A job folds each path as it ends and keeps no record: its report,
    and its live fold with every channel on, equal what a keep-everything
    run's records give folded after the run.  Odd cases wire ``sink0`` back
    into the root, so loops (proved, and cut off by the hop budget) are
    collected too."""
    network = random_network(case)
    if case % 2:
        network.add_link(("sink0", "out0"), ("root", "in0"))
    facts = FACT_SETS[case // 2 % len(FACT_SETS)]
    for incremental, max_paths in POINTS:
        context = f"seed={SEED}+{case} incremental={incremental} max_paths={max_paths}"
        everything, entries = _keep_everything(network, incremental, max_paths)
        for asked in {facts, FACT_SETS[0]}:
            tallied, result, live = _job_report(
                monkeypatch, network, asked, incremental, max_paths
            )
            post_hoc, reference = _folded_post_hoc(everything, asked)
            assert _fold_contents(live) == _fold_contents(post_hoc), context
            for spec in REPORT_FIELDS:
                assert getattr(tallied, spec.name) == getattr(reference, spec.name), (
                    f"{context} {spec.name}"
                )
            assert list(tallied.drop_reasons) == list(reference.drop_reasons), context
            counts, reasons = _counted_off_records(everything)
            assert list(tallied.status_counts.items()) == list(counts.items()), context
            if "invariants" in asked.kinds:
                assert list(tallied.drop_reasons.items()) == list(reasons.items()), context
            assert tallied.truncated == everything.truncated, context
            assert _counters(tallied.solver_stats) == _counters(everything.solver_stats), (
                context
            )
            assert tallied.verdict_cache_entries == entries, context
            # The job's own result kept no record, yet counted every path.
            assert len(result) == 0, context
            assert len(everything) == everything.terminations == result.terminations, context


# ---------------------------------------------------------------------------
# The egress table never goes stale
# ---------------------------------------------------------------------------


def _router(name="r"):
    """``in0`` forks to ``out0`` (web traffic only) and ``out1``."""
    router = NetworkElement(name, ["in0"], ["out0", "out1"])
    router.set_input_program("in0", Fork("out0", "out1"))
    router.set_output_program("out0", Constrain(OneOf(TcpDst, [80])))
    return router


def _sink(name):
    sink = NetworkElement(name, ["in0"], ["out0"])
    sink.set_input_program("in0", Forward("out0"))
    return sink


def _endings(executor):
    result = executor.inject(models.symbolic_tcp_packet(), "r", "in0")
    return sorted((p.status, str(p.last_port)) for p in result)


class TestEgressTable:
    def test_a_new_link_is_followed(self):
        network = Network("links")
        network.add_elements(_router(), _sink("s"))
        executor = SymbolicExecutor(network)
        assert _endings(executor) == [("delivered", "r:out0"), ("delivered", "r:out1")]
        network.add_link(("r", "out1"), ("s", "in0"))
        assert _endings(executor) == [("delivered", "r:out0"), ("delivered", "s:out0")]

    def test_a_replaced_output_program_is_run(self):
        network = Network("programs")
        router = _router()
        network.add_element(router)
        executor = SymbolicExecutor(network)
        assert _endings(executor) == [("delivered", "r:out0"), ("delivered", "r:out1")]
        router.set_output_program("out1", Fail("port down"))
        assert _endings(executor) == [("delivered", "r:out0"), ("failed", "r:out1")]
        # A guard replaced by another guard: probed against the new set.
        router.set_output_program("out0", Constrain(OneOf("never-allocated", [1])))
        result = executor.inject(models.symbolic_tcp_packet(), "r", "in0")
        (failed,) = [p for p in result if str(p.last_port) == "r:out0"]
        assert failed.status == "failed"
        assert "never-allocated" in failed.stop_reason

    def test_a_dangling_link_resolves_once_its_element_exists(self):
        network = Network("dangling")
        network.add_element(_router())
        network.add_link_permissive(("r", "out1"), ("late", "in0"))
        executor = SymbolicExecutor(network)
        assert ("dropped", "r:out1") in _endings(executor)
        network.add_element(_sink("late"))
        assert ("delivered", "late:out0") in _endings(executor)

    def test_same_names_different_links(self):
        """Two networks built from the same names — and one from the very
        same element objects — each follow their own links."""
        first, second, third = Network("a"), Network("b"), Network("c")
        router = _router()
        first.add_elements(router, _sink("s"), _sink("t"))
        second.add_elements(_router(), _sink("s"), _sink("t"))
        third.add_elements(router, _sink("s"), _sink("t"))
        first.add_link(("r", "out1"), ("s", "in0"))
        second.add_link(("r", "out1"), ("t", "in0"))
        third.add_link(("r", "out0"), ("t", "in0"))
        assert _endings(SymbolicExecutor(first)) == [
            ("delivered", "r:out0"), ("delivered", "s:out0"),
        ]
        assert _endings(SymbolicExecutor(second)) == [
            ("delivered", "r:out0"), ("delivered", "t:out0"),
        ]
        assert _endings(SymbolicExecutor(third)) == [
            ("delivered", "r:out1"), ("delivered", "t:out0"),
        ]
        assert _endings(SymbolicExecutor(first)) == [
            ("delivered", "r:out0"), ("delivered", "s:out0"),
        ]
