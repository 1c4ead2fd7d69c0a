"""Tests for the command-line interface (the §7.1 directory workflow)."""

import json

import pytest

from repro.cli import main

MAC_SNAPSHOT = """
Vlan    Mac Address       Type        Ports
----    -----------       ----        -----
 302    0011.2233.4455    DYNAMIC     uplink
 302    0011.2233.4456    DYNAMIC     host0
"""

FIB_SNAPSHOT = """
10.0.0.0/8      to-lan
0.0.0.0/0       to-internet
"""

TOPOLOGY = """
device sw switch sw.mac
device r1 router r1.fib
link sw:uplink -> r1:in0
link r1:to-lan -> sw:in0
"""


@pytest.fixture()
def network_dir(tmp_path):
    (tmp_path / "topology.txt").write_text(TOPOLOGY)
    (tmp_path / "sw.mac").write_text(MAC_SNAPSHOT)
    (tmp_path / "r1.fib").write_text(FIB_SNAPSHOT)
    return tmp_path


class TestShow:
    def test_show_lists_elements_and_links(self, network_dir, capsys):
        assert main(["show", str(network_dir)]) == 0
        output = capsys.readouterr().out
        assert "sw (switch)" in output
        assert "r1 (router)" in output
        assert "sw:uplink -> r1:in0" in output


class TestReachability:
    def test_json_report_on_stdout(self, network_dir, capsys):
        assert main(["reachability", str(network_dir), "sw", "in0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["injected_at"] == "sw:in0"
        assert payload["path_count"] >= 1
        assert all("status" in path for path in payload["paths"])

    def test_report_written_to_file(self, network_dir, tmp_path, capsys):
        target = tmp_path / "paths.json"
        assert main(
            ["reachability", str(network_dir), "sw", "in0", "-o", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["path_count"] >= 1
        assert "wrote" in capsys.readouterr().out

    def test_field_overrides_steer_the_packet(self, network_dir, capsys):
        # Pin the destination MAC to the uplink entry and the IP destination
        # outside 10/8: the packet must exit at the router's Internet port.
        assert main(
            [
                "reachability",
                str(network_dir),
                "sw",
                "in0",
                "--field",
                "EtherDst=00:11:22:33:44:55",
                "--field",
                "IpDst=8.8.8.8",
                "--no-failed-paths",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        delivered = [p for p in payload["paths"] if p["status"] == "delivered"]
        assert delivered
        assert all(p["last_port"] == "r1:to-internet" for p in delivered)

    @pytest.mark.parametrize(
        "mac", ["0011.2233.4455", "00-11-22-33-44-55", "00:11:22:33:44:55"]
    )
    def test_field_takes_every_mac_notation(self, network_dir, capsys, mac):
        """A 48-bit field takes the dotted notation the MAC-table snapshots
        use, and the dashed one, as well as colons: the query answers as
        if the colon form had been given."""
        args = ["--field", "IpDst=8.8.8.8", "--no-shared-cache"]
        assert main(
            ["query", str(network_dir), "forall_pairs(reach)", *args,
             "--field", "EtherDst=00:11:22:33:44:55"]
        ) == 0
        reference = json.loads(capsys.readouterr().out)
        assert main(
            ["query", str(network_dir), "forall_pairs(reach)", *args,
             "--field", f"EtherDst={mac}"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["queries"] == reference["queries"]
        assert report["fingerprint"] == reference["fingerprint"]

    def test_packet_template_selection(self, network_dir, capsys):
        assert main(
            ["reachability", str(network_dir), "sw", "in0", "--packet", "udp"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path_count"] >= 1

    def test_unknown_field_rejected(self, network_dir):
        with pytest.raises(SystemExit):
            main(
                ["reachability", str(network_dir), "sw", "in0", "--field", "Bogus=1"]
            )

    def test_malformed_field_rejected(self, network_dir):
        with pytest.raises(SystemExit):
            main(["reachability", str(network_dir), "sw", "in0", "--field", "IpDst"])


@pytest.fixture()
def dangling_network_dir(tmp_path):
    """A topology whose link names an element that does not exist."""
    (tmp_path / "topology.txt").write_text(
        TOPOLOGY + "link r1:to-internet -> ghost:in0\n"
    )
    (tmp_path / "sw.mac").write_text(MAC_SNAPSHOT)
    (tmp_path / "r1.fib").write_text(FIB_SNAPSHOT)
    return tmp_path


class TestValidationWarnings:
    """Regression: Network.validate() findings must surface before execution
    instead of crashing the parse or being silently ignored."""

    def test_reachability_warns_on_dangling_link(self, dangling_network_dir, capsys):
        assert main(["reachability", str(dangling_network_dir), "sw", "in0"]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "ghost" in captured.err
        payload = json.loads(captured.out)
        assert payload["path_count"] >= 1

    def test_dangling_link_terminates_paths_explicitly(
        self, dangling_network_dir, capsys
    ):
        # Steer a packet towards the dangling link: it must end as an
        # explicit drop naming the dangling destination, not a crash.
        assert main(
            [
                "reachability",
                str(dangling_network_dir),
                "sw",
                "in0",
                "--field",
                "EtherDst=00:11:22:33:44:55",
                "--field",
                "IpDst=8.8.8.8",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        dangling = [
            p for p in payload["paths"] if "dangling link" in p["stop_reason"]
        ]
        assert dangling
        assert all(p["status"] == "dropped" for p in dangling)

    def test_campaign_warns_on_dangling_link(self, dangling_network_dir, capsys):
        assert main(["campaign", str(dangling_network_dir)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err and "ghost" in captured.err
        payload = json.loads(captured.out)
        assert payload["validation_problems"]

    def test_clean_network_emits_no_warning(self, network_dir, capsys):
        assert main(["reachability", str(network_dir), "sw", "in0"]) == 0
        assert "warning" not in capsys.readouterr().err


class TestCampaign:
    def test_json_report_on_stdout(self, network_dir, capsys):
        assert main(["campaign", str(network_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == ["reachability", "loops", "invariants"]
        assert "reachability" in payload
        # This topology is fully wired (both inputs are link-fed), so the
        # default injection set falls back to every input port.
        assert payload["stats"]["jobs"] == 2

    def test_explicit_injection_points(self, network_dir, capsys):
        assert main(
            ["campaign", str(network_dir), "--inject", "sw:in0"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["jobs"] == 1
        sources = payload["reachability"]["sources"]
        assert sources == ["sw:in0"]

    def test_workers_match_sequential(self, network_dir, tmp_path, capsys):
        target_seq = tmp_path / "seq.json"
        target_par = tmp_path / "par.json"
        assert main(
            ["campaign", str(network_dir), "-o", str(target_seq)]
        ) == 0
        assert main(
            ["campaign", str(network_dir), "--workers", "2", "-o", str(target_par)]
        ) == 0
        seq = json.loads(target_seq.read_text())
        par = json.loads(target_par.read_text())
        assert seq["reachability"] == par["reachability"]
        assert seq["loops"]["loop_free"] == par["loops"]["loop_free"]
        assert "wrote campaign report" in capsys.readouterr().out

    def test_workload_mode(self, capsys):
        assert main(
            [
                "campaign",
                "--workload",
                "enterprise",
                "--workload-option",
                "mirror_at_exit=true",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"].startswith("workload:enterprise")
        assert payload["stats"]["jobs"] == 1  # mirrored: only the client entry

    def test_directory_and_workload_are_exclusive(self, network_dir):
        with pytest.raises(SystemExit):
            main(["campaign", str(network_dir), "--workload", "department"])
        with pytest.raises(SystemExit):
            main(["campaign"])

    def test_bad_injection_spec_rejected(self, network_dir):
        with pytest.raises(SystemExit):
            main(["campaign", str(network_dir), "--inject", "missing-colon"])

    def test_failing_job_sets_exit_code(self, network_dir, capsys):
        assert main(
            ["campaign", str(network_dir), "--inject", "nonexistent:in0"]
        ) == 1
        captured = capsys.readouterr()
        assert "error: job nonexistent:in0 failed" in captured.err


class TestQueryCommand:
    """The declarative front door: textual queries compiled onto one plan."""

    def test_directory_queries_on_stdout(self, network_dir, capsys):
        assert main(
            [
                "query",
                str(network_dir),
                "reach(sw:in0, r1:to-internet)",
                "loop()",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["queries"] == [
            "reach(sw:in0, r1:to-internet)",
            "loop()",
        ]
        by_query = {entry["query"]: entry for entry in payload["queries"]}
        assert by_query["reach(sw:in0, r1:to-internet)"]["holds"] is True
        # The sw <-> r1 topology genuinely loops on 10/8 traffic.
        assert by_query["loop()"]["holds"] is False
        assert by_query["loop()"]["evidence"]["findings"] >= 1
        assert all(entry["fingerprint"] for entry in payload["queries"])

    def test_shared_port_compiles_to_one_job(self, network_dir, capsys):
        assert main(
            [
                "query",
                str(network_dir),
                "reach(sw:in0, r1:to-internet)",
                "reach(sw:in0, r1:to-lan)",
                "invariant(IpDst, sw:in0)",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["jobs"] == 1
        assert payload["stats"]["jobs"] == 1

    def test_workload_mode_first_positional_is_a_query(self, capsys):
        # With --workload, argparse's "directory" slot holds the first query.
        assert main(
            [
                "query",
                "--workload",
                "enterprise",
                "--workload-option",
                "mirror_at_exit=true",
                "loop()",
                "forall_pairs(reach)",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"].startswith("workload:enterprise")
        assert payload["plan"]["queries"] == ["loop()", "forall_pairs(reach)"]

    def test_report_written_to_file(self, network_dir, tmp_path, capsys):
        target = tmp_path / "query.json"
        assert main(
            ["query", str(network_dir), "loop()", "-o", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["queries"][0]["holds"] is False  # the loopy topology
        assert "wrote query report" in capsys.readouterr().out

    def test_truncated_run_prints_unknown_and_warns(self, tmp_path, capsys):
        target = tmp_path / "cut.json"
        assert main(
            [
                "query", "--workload", "stanford", "--workload-option", "zones=3",
                "--max-paths", "1", "-o", str(target), "loop()",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "loop()=?" in captured.out
        assert (
            "truncated by a budget (--max-paths=1, --max-hops=128) in 3 job(s)"
            in captured.err
        )
        answer = json.loads(target.read_text())["queries"][0]
        assert answer["holds"] is None
        assert len(answer["evidence"]["incomplete_ports"]) == 3

    def test_complete_value_query_prints_its_value_not_unknown(self, tmp_path, capsys):
        """``?`` is reserved for answers resting on an incomplete
        exploration; a report-style query has no verdict and prints its
        value."""
        target = tmp_path / "values.json"
        arguments = [
            "query", "--workload", "department", "-o", str(target), "loop()",
            "admitted_values(TcpDst, at=m1:to-internet, samples=3)",
            "forall_pairs(reach)",
        ]
        assert main(arguments) == 0
        captured = capsys.readouterr()
        values = json.loads(target.read_text())["queries"][1]
        assert values["holds"] is None and len(values["value"]["values"]) == 3
        assert f"samples=3)={values['value']['values']}" in captured.out
        assert "forall_pairs(reach)=26 pairs" in captured.out
        assert "?" not in captured.out and "truncated" not in captured.err
        # The same batch under a hop budget that cuts it short: all unknown.
        assert main(arguments + ["--max-hops", "3"]) == 0
        captured = capsys.readouterr()
        assert "loop()=?" in captured.out and "forall_pairs(reach)=?" in captured.out
        assert "truncated by a budget (--max-paths=1000000, --max-hops=3)" in captured.err

    def test_symmetry_changes_which_tier_answers_never_the_answer(self, tmp_path):
        reports = {}
        for flag in ("--symmetry", "--no-symmetry"):
            target = tmp_path / f"{flag.strip('-')}.json"
            assert main(
                [
                    "query", "--workload", "stanford", "--workload-option", "zones=4",
                    "--workload-option", "service_acl_rules=2", flag,
                    "-o", str(target), "forall_pairs(reach)", "loop()",
                ]
            ) == 0
            reports[flag] = json.loads(target.read_text())
        on, off = reports["--symmetry"], reports["--no-symmetry"]
        assert on["stats"]["jobs_skipped_by_symmetry"] > 0
        assert off["stats"]["jobs_skipped_by_symmetry"] == 0
        assert [q["fingerprint"] for q in on["queries"]] == [
            q["fingerprint"] for q in off["queries"]
        ]
        assert on["plan"]["fingerprint"] == off["plan"]["fingerprint"]

    def test_workers_match_sequential(self, network_dir, tmp_path):
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        args = ["query", str(network_dir), "forall_pairs(reach)", "loop()"]
        assert main(args + ["-o", str(seq)]) == 0
        assert main(args + ["--workers", "2", "-o", str(par)]) == 0
        seq_payload = json.loads(seq.read_text())
        par_payload = json.loads(par.read_text())
        assert [q["fingerprint"] for q in seq_payload["queries"]] == [
            q["fingerprint"] for q in par_payload["queries"]
        ]

    def test_validation_warnings_identical_to_campaign(
        self, dangling_network_dir, capsys
    ):
        assert main(["query", str(dangling_network_dir), "loop()"]) == 0
        query_err = capsys.readouterr().err
        assert main(["campaign", str(dangling_network_dir)]) == 0
        campaign_err = capsys.readouterr().err
        query_warnings = [l for l in query_err.splitlines() if "warning" in l]
        campaign_warnings = [
            l for l in campaign_err.splitlines() if "warning" in l
        ]
        assert query_warnings and query_warnings == campaign_warnings
        # ... and to the API: the findings are one fact of the build.
        from repro.api import NetworkModel

        problems = NetworkModel.from_directory(str(dangling_network_dir)).validate()
        assert query_warnings == [f"warning: {problem}" for problem in problems]

    def test_report_written_into_the_directory_rebuilds_nothing(self, network_dir):
        """Regression: the runtime cache keyed a directory on *every* file in
        it, so ``--output DIR/report.json`` made the next command rebuild an
        unchanged network."""
        from repro.core.campaign import NetworkSource, clear_runtime_cache
        from repro.core.jobs import runtime_for

        clear_runtime_cache()
        source = NetworkSource.from_directory(str(network_dir))
        built = runtime_for(source)
        report = network_dir / "report.json"
        assert main(["query", str(network_dir), "loop()", "-o", str(report)]) == 0
        assert report.exists()
        after = NetworkSource.from_directory(str(network_dir))
        assert after == source and runtime_for(after) is built

    def test_bad_query_rejected(self, network_dir):
        with pytest.raises(SystemExit, match="bad query"):
            main(["query", str(network_dir), "bogus()"])

    def test_directory_and_workload_are_exclusive(self, network_dir, capsys):
        with pytest.raises(SystemExit, match="not both"):
            main(["query", str(network_dir), "loop()", "--workload", "department"])

    def test_bad_query_fails_before_the_network_is_built(self, network_dir):
        # The typo'd query must be rejected without paying for the build.
        import repro.api.model as model_module

        original = model_module.NetworkModel.network
        def exploding_network(self):
            raise AssertionError("network was built for a malformed query")
        model_module.NetworkModel.network = exploding_network
        try:
            with pytest.raises(SystemExit, match="bad query"):
                main(["query", str(network_dir), "invarint(IpSrc)"])
        finally:
            model_module.NetworkModel.network = original

    def test_failing_reach_source_sets_exit_code(self, network_dir, capsys):
        assert main(
            ["query", str(network_dir), "reach(nonexistent:in0, sw)"]
        ) == 1
        assert "failed" in capsys.readouterr().err


class TestStoreCommands:
    def _query(self, network_dir, store_dir, capsys):
        code = main(
            ["query", str(network_dir), "loop()", "--store-dir", str(store_dir)]
        )
        captured = capsys.readouterr()
        return code, captured

    def test_two_phase_persistence_via_store_dir(
        self, network_dir, tmp_path, capsys
    ):
        from repro.core.campaign import clear_runtime_cache

        store_dir = tmp_path / "the-store"
        clear_runtime_cache()
        code, first = self._query(network_dir, store_dir, capsys)
        assert code == 0
        assert "plan-result cache" not in first.err
        clear_runtime_cache()
        code, second = self._query(network_dir, store_dir, capsys)
        assert code == 0
        assert "plan-result cache" in second.err
        assert json.loads(first.out) == json.loads(second.out)

    def test_store_inspect_compact_clear_plans(
        self, network_dir, tmp_path, capsys
    ):
        store_dir = tmp_path / "the-store"
        assert main(
            ["campaign", str(network_dir), "--store-dir", str(store_dir)]
        ) == 0
        capsys.readouterr()

        assert main(["store", "inspect", str(store_dir)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdicts"] > 0
        assert summary["format"] == 2
        assert summary["segments"] >= 1
        assert summary["quarantined"] == []

        assert main(["store", "compact", str(store_dir)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert main(["store", "inspect", str(store_dir)]) == 0
        compacted = json.loads(capsys.readouterr().out)
        assert compacted["segments"] == 1
        assert compacted["verdicts"] == summary["verdicts"]

        assert main(["store", "clear-plans", str(store_dir)]) == 0
        assert "plan result" in capsys.readouterr().out

    def test_store_inspect_rejects_missing_directory(self, tmp_path):
        with pytest.raises(SystemExit, match="not a store directory"):
            main(["store", "inspect", str(tmp_path / "nope")])

    def test_format_1_store_is_unusable(self, network_dir, tmp_path):
        """A directory in the sharded segment layout (format 1) is refused
        by name, not half-read: the user points the run at a new store."""
        old = tmp_path / "old-store"
        (old / "shards" / "00").mkdir(parents=True)
        (old / "shards" / "00" / "segment-00000000-abcdef00.seg").write_text("{}\n")
        (old / "STORE.json").write_text('{"format": 1, "shards": 8}')
        with pytest.raises(
            SystemExit, match="unusable store .*: store format 1 is not 2"
        ):
            main(["query", str(network_dir), "loop()", "--store-dir", str(old)])

    def test_unusable_store_fails_cleanly_on_query_and_campaign(
        self, network_dir, tmp_path
    ):
        bad = tmp_path / "bad-store"
        bad.mkdir()
        (bad / "STORE.json").write_text('{"format": 99}')
        with pytest.raises(SystemExit, match="unusable store"):
            main(["query", str(network_dir), "loop()", "--store-dir", str(bad)])
        with pytest.raises(SystemExit, match="unusable store"):
            main(["campaign", str(network_dir), "--store-dir", str(bad)])

    def test_store_commands_never_scaffold_foreign_directories(
        self, network_dir
    ):
        """`store inspect` on a mistyped path (say, the snapshot directory
        itself) must refuse — not silently create store metadata inside it."""
        before = sorted(p.name for p in network_dir.iterdir())
        with pytest.raises(SystemExit, match="no STORE.json"):
            main(["store", "inspect", str(network_dir)])
        with pytest.raises(SystemExit, match="no STORE.json"):
            main(["store", "compact", str(network_dir)])
        assert sorted(p.name for p in network_dir.iterdir()) == before

    def test_campaign_store_json_counters(self, network_dir, tmp_path, capsys):
        from repro.core.campaign import clear_runtime_cache

        store_dir = tmp_path / "the-store"
        report_path = tmp_path / "report.json"
        clear_runtime_cache()
        assert main(
            [
                "campaign", str(network_dir),
                "--store-dir", str(store_dir),
                "-o", str(report_path),
            ]
        ) == 0
        clear_runtime_cache()
        assert main(
            [
                "campaign", str(network_dir),
                "--store-dir", str(store_dir),
                "-o", str(report_path),
            ]
        ) == 0
        stats = json.loads(report_path.read_text())["stats"]
        assert stats["store_entries_loaded"] > 0
        assert stats["store_entries_published"] == 0
        assert stats["solver_cache_misses"] == 0


class TestDeltaCli:
    """``--delta`` / ``--delta-from`` / ``--save-baseline`` plumbing, plus
    the ``--symmetry-audit-seed`` misuse warning."""

    def _export(self, tmp_path):
        from repro.workloads.export import export_stanford_directory

        net = tmp_path / "net"
        net.mkdir()
        export_stanford_directory(
            str(net), zones=3, internal_prefixes_per_zone=6,
            service_acl_rules=3,
        )
        return net

    def _inject_acls(self):
        args = []
        for index in range(3):
            args += ["--inject", f"acl{index}:in0"]
        return args

    def test_audit_seed_without_audit_warns(self, network_dir, capsys):
        assert main(
            ["campaign", str(network_dir), "--symmetry-audit-seed", "3"]
        ) == 0
        err = capsys.readouterr().err
        assert "--symmetry-audit-seed has no effect" in err
        assert main(
            [
                "campaign", str(network_dir),
                "--symmetry-audit", "--symmetry-audit-seed", "3",
            ]
        ) == 0
        assert "has no effect" not in capsys.readouterr().err

    def test_store_delta_splices_and_matches_scratch(self, tmp_path, capsys):
        from repro.core.campaign import clear_runtime_cache

        net = self._export(tmp_path)
        store = tmp_path / "store"
        inject = self._inject_acls()
        clear_runtime_cache()
        assert main(
            [
                "campaign", str(net), "--store-dir", str(store), *inject,
                "-o", str(tmp_path / "cold.json"),
            ]
        ) == 0
        capsys.readouterr()

        (net / "acl1.acl").write_text("block 22\n")
        clear_runtime_cache()
        assert main(
            [
                "campaign", str(net), "--store-dir", str(store), *inject,
                "-o", str(tmp_path / "delta.json"),
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "delta verification spliced 2 of 3" in err
        delta = json.loads((tmp_path / "delta.json").read_text())
        assert delta["delta"]["spliced"] == 2
        assert delta["delta"]["executed"] == 1
        assert delta["delta"]["baseline"] == "store"
        assert delta["delta"]["touched_files"] == ["acl1.acl"]
        assert delta["stats"]["jobs_spliced_by_delta"] == 2

        clear_runtime_cache()
        assert main(
            [
                "campaign", str(net), "--no-shared-cache", "--no-delta",
                *inject, "-o", str(tmp_path / "scratch.json"),
            ]
        ) == 0
        capsys.readouterr()
        scratch = json.loads((tmp_path / "scratch.json").read_text())
        for section in ("reachability", "loops", "invariants"):
            assert delta[section] == scratch[section]

    def test_save_baseline_delta_from_round_trip(self, tmp_path, capsys):
        from repro.core.campaign import clear_runtime_cache

        net = self._export(tmp_path)
        baseline = tmp_path / "baseline.json"
        inject = self._inject_acls()
        clear_runtime_cache()
        assert main(
            ["campaign", str(net), *inject, "--save-baseline", str(baseline)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(baseline.read_text())
        assert payload["format"] == 1
        assert payload["manifest"]["files"]

        (net / "acl0.acl").write_text("block 22\nblock 443\n")
        clear_runtime_cache()
        assert main(
            [
                "campaign", str(net), *inject,
                "--delta-from", str(baseline),
                "-o", str(tmp_path / "out.json"),
            ]
        ) == 0
        capsys.readouterr()
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["delta"]["baseline"] == "file"
        assert out["delta"]["spliced"] == 2
        assert out["delta"]["executed"] == 1

    def test_no_delta_ignores_delta_from(self, tmp_path, capsys):
        """``--no-delta`` means no splice, whatever baseline is handed in."""
        from repro.core.campaign import clear_runtime_cache

        net = self._export(tmp_path)
        baseline = tmp_path / "baseline.json"
        inject = self._inject_acls()
        clear_runtime_cache()
        assert main(
            ["campaign", str(net), *inject, "--save-baseline", str(baseline)]
        ) == 0
        clear_runtime_cache()
        assert main(
            [
                "campaign", str(net), *inject, "--no-delta",
                "--delta-from", str(baseline), "-o", str(tmp_path / "out.json"),
            ]
        ) == 0
        capsys.readouterr()
        out = json.loads((tmp_path / "out.json").read_text())
        assert "delta" not in out
        assert out["stats"]["jobs_spliced_by_delta"] == 0
        assert out["stats"]["executed_jobs"] == 3

    def test_unusable_delta_from_fails_cleanly(self, tmp_path):
        net = self._export(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="unusable baseline"):
            main(["campaign", str(net), "--delta-from", str(bad)])
