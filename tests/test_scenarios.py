"""Transient-state scenario campaigns: generator determinism, per-step
delta splicing and its accounting on one worker and on a pool, and
counterexample clustering (including the mutation test guarding the
reducer's feature extraction).  That splicing never moves an answer is a
coordinate of ``tests/test_config_lattice.py``, over networks mutated by
this generator."""

import json
import os

import pytest

from repro.api.model import NetworkModel
from repro.api.queries import ForAllPairs, Loop, Reach
from repro.scenarios import (
    ScenarioCampaign,
    cluster_violations,
    generate_scenario,
    trace_features,
    violation_fingerprint,
)
from repro.parsers.topology_file import Snapshot
from repro.workloads.export import (
    export_department_style_directory,
    export_stanford_directory,
)

#: Small but structurally complete: two zones dual-homed to two cores,
#: service ACLs in front, a stateful edge ASA island.
EXPORT_OPTIONS = dict(
    zones=2,
    internal_prefixes_per_zone=5,
    service_acl_rules=3,
    seed=11,
    edge_asa=True,
)


def _export(tmp_path, name="net"):
    directory = str(tmp_path / name)
    os.makedirs(directory)
    export_stanford_directory(directory, **EXPORT_OPTIONS)
    return directory


def _apply(directory, step):
    for name, text in step.writes:
        with open(
            os.path.join(directory, name), "w", encoding="utf-8", newline="\n"
        ) as handle:
            handle.write(text)


class TestGenerator:
    def test_same_seed_same_scenario(self, tmp_path):
        d1, d2 = _export(tmp_path, "a"), _export(tmp_path, "b")
        one = generate_scenario(d1, steps=6, seed=3)
        two = generate_scenario(d2, steps=6, seed=3)
        assert one.fingerprint() == two.fingerprint()
        assert one.steps == two.steps
        # Generation must not touch the directory itself.
        assert Snapshot.read(d1).digest == one.base_digest

    def test_ci_scenario_fingerprint_is_pinned(self, tmp_path):
        """The CI scenario (stanford zones=3 with the edge ASA, 4 steps,
        seed 7) generates exactly this sequence: the generator reads the
        topology through the parser's own declaration reader."""
        directory = str(tmp_path / "ci")
        os.makedirs(directory)
        export_stanford_directory(
            directory, zones=3, internal_prefixes_per_zone=8,
            service_acl_rules=3, edge_asa=True,
        )
        scenario = generate_scenario(directory, steps=4, seed=7, workload="stanford")
        assert scenario.fingerprint() == (
            "381d84b09680fc45e5898e3e37678e8d198679542f83f549be761126206186b5"
        )

    def test_different_seeds_differ(self, tmp_path):
        directory = _export(tmp_path)
        fingerprints = {
            generate_scenario(directory, steps=6, seed=seed).fingerprint()
            for seed in range(4)
        }
        assert len(fingerprints) > 1

    def test_violation_is_transient(self, tmp_path):
        directory = _export(tmp_path)
        scenario = generate_scenario(directory, steps=6, seed=3)
        kinds = [step.kind for step in scenario.steps]
        inject = kinds.index("violation-inject")
        revert = kinds.index("violation-revert")
        assert 0 <= inject < revert
        assert scenario.steps[inject].violation
        assert scenario.steps[revert].violation
        # The revert restores the exact pre-inject bytes of the edited file.
        (file, injected_text), = scenario.steps[inject].writes
        (revert_file, reverted_text), = scenario.steps[revert].writes
        assert revert_file == file
        state = Snapshot.read(directory).texts()
        for step in scenario.steps[:inject]:
            for name, text in step.writes:
                state[name] = text
        assert reverted_text == state[file]
        assert injected_text != state[file]

    def test_no_violation_flag(self, tmp_path):
        directory = _export(tmp_path)
        scenario = generate_scenario(
            directory, steps=6, seed=3, inject_violation=False
        )
        assert all(not step.violation for step in scenario.steps)

    def test_steps_write_referenced_files_only(self, tmp_path):
        directory = _export(tmp_path)
        scenario = generate_scenario(directory, steps=8, seed=5)
        known = set(Snapshot.read(directory).texts())
        for step in scenario.steps:
            assert step.writes, step
            for name, _ in step.writes:
                assert name in known

    def test_link_flap_restores_exact_topology(self, tmp_path):
        directory = _export(tmp_path)
        for seed in range(60):
            scenario = generate_scenario(directory, steps=8, seed=seed)
            kinds = [step.kind for step in scenario.steps]
            if "link-down" not in kinds:
                continue
            down = kinds.index("link-down")
            assert "link-up" in kinds[down:], "a flap must restore before the end"
            up = down + kinds[down:].index("link-up")
            state = Snapshot.read(directory).texts()
            before = None
            for step in scenario.steps:
                if step.index == scenario.steps[down].index:
                    before = state["topology.txt"]
                for name, text in step.writes:
                    state[name] = text
                if step.index == scenario.steps[up].index:
                    assert state["topology.txt"] == before
                    return
        pytest.skip("no seed in range produced a link flap on this export")

    def test_department_directory_scenarios(self, tmp_path):
        directory = str(tmp_path / "dept")
        os.makedirs(directory)
        export_department_style_directory(directory, switches=2, macs_per_port=2)
        scenario = generate_scenario(directory, steps=5, seed=2)
        assert len(scenario.steps) == 5
        kinds = {step.kind for step in scenario.steps}
        assert kinds & {"mac-insert", "mac-delete", "acl-insert", "acl-delete",
                        "fib-insert", "fib-delete", "link-down", "link-up"}


class TestScenarioCampaign:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """One pinned scenario executed three ways: scratch, delta-chained,
        delta-chained on a two-worker pool."""
        base = tmp_path_factory.mktemp("scenario-runs")
        dirs = []
        for name in ("scratch", "delta", "pool"):
            directory = str(base / name)
            os.makedirs(directory)
            export_stanford_directory(directory, **EXPORT_OPTIONS)
            dirs.append(directory)
        scenario = generate_scenario(dirs[0], steps=5, seed=3, workload="stanford")
        queries = [ForAllPairs(Reach), Loop()]
        scratch = ScenarioCampaign(
            dirs[0], scenario, queries=queries, workers=1, delta=False
        ).run()
        chained = ScenarioCampaign(
            dirs[1], scenario, queries=queries, workers=1, delta=True
        ).run()
        pooled = ScenarioCampaign(
            dirs[2], scenario, queries=queries, workers=2, delta=True
        ).run()
        return scenario, scratch, chained, pooled

    def test_pool_engine_runs_are_the_executed_jobs(self, runs):
        """Pool workers run engine jobs in their own processes, so a step's
        ``engine_runs`` is read off the pool-safe ``executed_jobs``."""
        _, _, chained, pooled = runs
        assert pooled.outcomes[0].engine_runs > 0
        for outcome in pooled.outcomes:
            assert outcome.engine_runs == outcome.executed_jobs
        assert [o.engine_runs for o in pooled.outcomes] == [
            o.engine_runs for o in chained.outcomes
        ]

    def test_delta_splices_most_states(self, runs):
        _, scratch, chained, _ = runs
        assert all(o.spliced_jobs == 0 for o in scratch.outcomes)
        assert chained.steps_delta_spliced >= 1
        spliced = [o for o in chained.outcomes if o.spliced_jobs]
        for outcome in spliced:
            twin = scratch.outcomes[outcome.index]
            assert outcome.executed_jobs < twin.executed_jobs

    def test_stats_and_report_threading(self, runs):
        _, _, chained, _ = runs
        report = chained.to_dict()
        assert report["scenario_steps"] == 5
        assert report["steps_delta_spliced"] == chained.steps_delta_spliced
        assert report["violations_total"] == len(chained.violations)
        assert len(report["steps"]) == 6  # baseline + 5 transient states
        for step in report["steps"]:
            stats = step["stats"]
            assert step["executed_jobs"] == stats["executed_jobs"]
            assert (
                stats["executed_jobs"]
                == stats["jobs"]
                - stats["jobs_spliced_by_delta"]
                - stats["jobs_skipped_by_symmetry"]
            )
        json.dumps(report)  # the whole report must be JSON-able

    def test_violations_confined_to_transient_window(self, runs):
        scenario, _, chained, _ = runs
        kinds = [s.kind for s in scenario.steps]
        inject = scenario.steps[kinds.index("violation-inject")].index
        revert = scenario.steps[kinds.index("violation-revert")].index
        for outcome in chained.outcomes:
            if inject <= outcome.index < revert:
                assert outcome.violations, f"state {outcome.index} saw no violation"
            else:
                assert not outcome.violations
        assert chained.violations

    def test_cluster_representatives_recorded_at_their_step(self, runs):
        _, _, chained, _ = runs
        assert chained.clusters
        by_step = {o.index: o for o in chained.outcomes}
        for cluster in chained.clusters:
            rep = cluster.representative
            recorded = by_step[int(rep["step"])].violations
            assert any(
                v["fingerprint"] == rep["fingerprint"] for v in recorded
            )
        # Every violating trace is accounted for by exactly one cluster.
        assert sum(c.size for c in chained.clusters) == len(chained.violations)

    def test_seed_pinned_fuzz_same_seed_same_answers(self, tmp_path):
        """Same seed, fresh byte-identical exports: identical step sequence
        and identical per-step answer fingerprint tuples."""
        results = []
        for name in ("one", "two"):
            directory = str(tmp_path / name)
            os.makedirs(directory)
            export_stanford_directory(directory, **EXPORT_OPTIONS)
            scenario = generate_scenario(directory, steps=3, seed=9)
            run = ScenarioCampaign(
                directory, scenario, queries=[Loop()], workers=1
            ).run()
            results.append((scenario.fingerprint(), run.fingerprint(),
                            tuple(o.fingerprints for o in run.outcomes)))
        assert results[0] == results[1]

    def test_rejects_mismatched_directory(self, tmp_path):
        directory = _export(tmp_path, "gen")
        scenario = generate_scenario(directory, steps=2, seed=1)
        other = str(tmp_path / "other")
        os.makedirs(other)
        export_stanford_directory(other, **{**EXPORT_OPTIONS, "seed": 12})
        with pytest.raises(ValueError, match="different directory state"):
            ScenarioCampaign(other, scenario).run()


def _synthetic_violations():
    """Two dense groups (a loop seen from several sources, an invariant
    breach seen twice) plus one singleton reach failure."""
    violations = []
    for source in ("acl0:in0", "acl1:in0", "zr0:in0"):
        violations.append(
            {
                "step": 2,
                "step_kind": "violation-inject",
                "query": "loop()",
                "query_kind": "loop",
                "source": source,
                "trace": ["zr1:in0", "core0:in-z1", "zr1:in-core0"],
                "reason": "loop detected",
                "detected_at": "core0:in-z1",
            }
        )
    for step in (2, 3):
        violations.append(
            {
                "step": step,
                "step_kind": "violation-inject",
                "query": "invariant(IpSrc)",
                "query_kind": "invariant",
                "source": "edge-static-nat:in0",
                "trace": ["edge-static-nat:in0"],
                "reason": "field IpSrc not preserved",
            }
        )
    violations.append(
        {
            "step": 4,
            "step_kind": "fib-delete",
            "query": "reach(acl0:in0, zr1:hosts)",
            "query_kind": "reach",
            "source": "acl0:in0",
            "trace": [],
            "reason": "reach does not hold",
        }
    )
    for violation in violations:
        violation["fingerprint"] = violation_fingerprint(violation)
    return violations


class TestReducer:
    def test_clusters_are_deterministic_and_order_independent(self):
        violations = _synthetic_violations()
        first = [c.to_dict() for c in cluster_violations(violations)]
        second = [c.to_dict() for c in cluster_violations(list(reversed(violations)))]
        assert first == second
        ranks = [c["rank"] for c in first]
        assert ranks == sorted(ranks) == list(range(1, len(first) + 1))
        sizes = [c["size"] for c in first]
        assert sizes == sorted(sizes, reverse=True)

    def test_groups_by_structure_not_step(self):
        clusters = cluster_violations(_synthetic_violations())
        # 3 loop traces -> one cluster; 2 invariant breaches -> one cluster;
        # the lone reach failure survives as a noise singleton.
        assert [c.size for c in clusters] == [3, 2, 1]
        assert clusters[0].representative["query_kind"] == "loop"
        assert clusters[1].representative["query_kind"] == "invariant"
        assert clusters[2].noise
        assert sorted(clusters[1].to_dict()["steps"]) == [2, 3]

    def test_representative_is_a_member(self):
        for cluster in cluster_violations(_synthetic_violations()):
            assert cluster.representative in cluster.members

    def test_element_kinds_feature(self):
        violation = _synthetic_violations()[0]
        kinds = {"zr1": "router", "core0": "router"}
        features = trace_features(violation, kinds)
        assert "element-kind:router" in features
        assert "port:core0:in-z1" in features

    def test_empty_input(self):
        assert cluster_violations([]) == []

    def test_mutation_corrupting_features_shifts_cluster_count(self, monkeypatch):
        """The satellite mutation test: corrupt the reducer's feature
        extraction and assert the cluster-count drift is detected.  If
        clustering stopped consulting ``trace_features`` (or the feature
        set degenerated), structurally different violations would collapse
        into one cluster and this guard would fail loudly."""
        import repro.scenarios.reduce as reduce_mod

        violations = _synthetic_violations()
        baseline = len(cluster_violations(violations))
        assert baseline == 3
        monkeypatch.setattr(
            reduce_mod, "trace_features", lambda v, kinds=None: frozenset({"x"})
        )
        corrupted = len(reduce_mod.cluster_violations(violations))
        assert corrupted != baseline, (
            "feature corruption went undetected: cluster count did not drift"
        )
        assert corrupted == 1  # everything collapsed into one blob


def _refused_everywhere(capsys, flag, value, api_option, error):
    """One out-of-range clustering option is refused by ``cluster_violations``
    and ``ScenarioCampaign`` (ValueError) and by the CLI (usage error, exit
    2, before anything is exported or run)."""
    from repro.cli import main

    with pytest.raises(ValueError, match=error):
        cluster_violations(_synthetic_violations(), **{api_option: value})
    with pytest.raises(ValueError, match=error):
        ScenarioCampaign("unused", None, **{f"cluster_{api_option}": value})
    with pytest.raises(SystemExit) as refused:
        main(["scenario", "--workload", "stanford", flag, str(value)])
    assert refused.value.code == 2
    assert f"{flag} must be " in capsys.readouterr().err


class TestClusterOptions:
    @pytest.mark.parametrize("eps", [float("nan"), -0.25, 1.5])
    def test_eps_outside_the_unit_interval_is_refused(self, eps, capsys):
        """``eps`` is a Jaccard distance.  NaN or a negative one gave every
        violation no neighbours, so each became a noise singleton."""
        _refused_everywhere(capsys, "--eps", eps, "eps", r"in \[0, 1\]")

    @pytest.mark.parametrize("min_points", [0, -2])
    def test_min_points_below_one_is_refused(self, min_points, capsys):
        _refused_everywhere(capsys, "--min-points", min_points, "min_points", ">= 1")

    def test_the_bounds_themselves_cluster(self):
        violations = _synthetic_violations()
        for eps in (0.0, 1.0):
            assert cluster_violations(violations, eps=eps, min_points=1)


class TestScenarioCli:
    def test_scenario_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        export_dir = tmp_path / "export"
        code = main(
            [
                "scenario",
                "--workload", "stanford",
                "--workload-option", "zones=2",
                "--workload-option", "internal_prefixes_per_zone=4",
                "--workload-option", "service_acl_rules=2",
                "--workload-option", "edge_asa=true",
                "--steps", "2",
                "--seed", "3",
                "--query", "loop()",
                "--dir", str(export_dir),
                "-o", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["scenario_steps"] == 2
        assert len(report["steps"]) == 3
        assert report["scenario"]["seed"] == 3
        assert "violations_total" in report and "clusters" in report
        err = capsys.readouterr().err
        assert "verified 3 states" in err

    def test_scenario_requires_a_network(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["scenario"])


class TestExportedDirectoryModel:
    def test_edge_asa_island_is_unreachable_from_injections(self, tmp_path):
        """The delta story depends on the ASA being a source island: nothing
        links into it, so config churn only re-executes its own ports."""
        from repro.core.delta import affected_injections

        directory = _export(tmp_path)
        model = NetworkModel.from_directory(directory)
        assert model.validate() == []
        injections = model.injection_ports()
        assert ("edge-static-nat", "in0") in injections
        touched = [
            name for name in (e.name for e in model.network())
            if name.startswith("edge-")
        ]
        affected = affected_injections(model.network(), injections, touched)
        assert affected
        assert all(element.startswith("edge-") for element, _ in affected)
