"""Tests for the campaign layer: network sources, job execution, query
aggregation, and parallel-vs-sequential equivalence."""

import json
import pickle

import pytest

from repro import Network, NetworkElement, models
from repro.core.campaign import (
    CAMPAIGN_QUERIES,
    CampaignJob,
    NetworkSource,
    VerificationCampaign,
    execute_job,
    free_input_ports,
)
from repro.core.queries import (
    InvariantReport,
    LoopFinding,
    LoopReport,
    ReachabilityMatrix,
)
from repro.sefl import Assign, Forward, InstructionBlock, IpDst, ip_to_number

DEPARTMENT_OPTIONS = dict(
    access_switches=4, hosts_per_switch=2, mac_entries=300, extra_routes=20
)


def small_switch_network():
    network = Network("tiny")
    network.add_element(
        models.build_switch("sw", {"out0": [0xAA], "out1": [0xBB]})
    )
    return network


def loop_network():
    """Two forwarders wired into a cycle."""
    network = Network("ring")
    for name in ("a", "b"):
        element = NetworkElement(name, ["in0", "in-entry"], ["out0"])
        element.set_input_program("in0", Forward("out0"))
        element.set_input_program("in-entry", Forward("out0"))
        network.add_element(element)
    network.add_link(("a", "out0"), ("b", "in0"))
    network.add_link(("b", "out0"), ("a", "in0"))
    return network


def rewriting_network():
    """An element that overwrites IpDst — an invariant violation."""
    network = Network("nat-ish")
    element = NetworkElement("nat", ["in0"], ["out0"])
    element.set_input_program(
        "in0",
        InstructionBlock(Assign(IpDst, ip_to_number("9.9.9.9")), Forward("out0")),
    )
    network.add_element(element)
    return network


class TestNetworkSource:
    def test_workload_source_is_picklable(self):
        source = NetworkSource.from_workload("department", **DEPARTMENT_OPTIONS)
        assert source.picklable
        clone = pickle.loads(pickle.dumps(source))
        assert clone == source

    def test_object_source_is_not_picklable(self):
        source = NetworkSource.from_network(small_switch_network())
        assert not source.picklable

    def test_workload_source_builds_network(self):
        source = NetworkSource.from_workload("department", **DEPARTMENT_OPTIONS)
        network, injections = source.build_full()
        assert network.has_element("m1")
        assert injections

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign workload"):
            NetworkSource.from_workload("does-not-exist").build_full()

    def test_directory_source(self, tmp_path):
        (tmp_path / "topology.txt").write_text("device sw switch sw.mac\n")
        (tmp_path / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out0\n"
        )
        source = NetworkSource.from_directory(str(tmp_path))
        assert source.picklable
        assert source.build_full()[0].has_element("sw")

    def test_edited_directory_is_not_served_stale(self, tmp_path):
        """The runtime cache keys directory sources by topology fingerprint:
        a campaign after an edit must see the new network."""
        import os

        (tmp_path / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out0\n"
        )
        (tmp_path / "topology.txt").write_text("device sw switch sw.mac\n")
        first = VerificationCampaign(str(tmp_path)).run()
        assert first.reachability.sources == ["sw:in0"]

        (tmp_path / "topology.txt").write_text("device renamed switch sw.mac\n")
        # Guarantee a different mtime even on coarse filesystem clocks.
        os.utime(tmp_path / "topology.txt", ns=(1, 1))
        second = VerificationCampaign(str(tmp_path)).run()
        assert second.reachability.sources == ["renamed:in0"]

    def test_edited_snapshot_file_is_not_served_stale(self, tmp_path):
        """The fingerprint must cover device snapshots too, not just
        topology.txt: moving a MAC to a new port changes reachability."""
        import os

        (tmp_path / "topology.txt").write_text("device sw switch sw.mac\n")
        (tmp_path / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out0\n"
        )
        first = VerificationCampaign(str(tmp_path)).run()
        assert first.reachability.destinations == ["sw:out0"]

        (tmp_path / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     moved\n"
        )
        os.utime(tmp_path / "sw.mac", ns=(1, 1))
        second = VerificationCampaign(str(tmp_path)).run()
        assert second.reachability.destinations == ["sw:moved"]


class TestFreeInputPorts:
    def test_only_unwired_inputs_are_injection_points(self):
        network = loop_network()
        # in0 on both elements is fed by the ring; only in-entry is free.
        assert sorted(free_input_ports(network)) == [
            ("a", "in-entry"),
            ("b", "in-entry"),
        ]

    def test_dangling_source_link_does_not_wire_its_destination(self):
        # A permissive link from a phantom element carries no traffic: the
        # destination port must remain a default injection point.
        network = Network()
        element = NetworkElement("b", ["in0"], ["out0"])
        element.set_input_program("in0", Forward("out0"))
        network.add_element(element)
        network.add_link_permissive(("phantom", "out0"), ("b", "in0"))
        assert free_input_ports(network) == [("b", "in0")]


class TestJobExecution:
    def test_job_on_object_source_via_campaign(self):
        campaign = VerificationCampaign(small_switch_network())
        result = campaign.run()
        assert result.reachability.pairs() == [
            ("sw:in0", "sw:out0", 1),
            ("sw:in0", "sw:out1", 1),
        ]
        assert result.loop_report.loop_free
        assert result.stats.jobs == 1

    def test_job_error_is_captured_not_raised(self):
        campaign = VerificationCampaign(small_switch_network())
        campaign.add_injection("ghost", "in0")
        result = campaign.run()
        assert result.job_errors
        source, error = result.job_errors[0]
        assert source == "ghost:in0"
        assert "ghost" in error
        assert result.stats.failed_jobs == 1

    def test_unknown_packet_template_is_a_job_error(self):
        campaign = VerificationCampaign(small_switch_network(), packet="gre")
        result = campaign.run()
        assert result.job_errors

    def test_unknown_query_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown queries"):
            VerificationCampaign(small_switch_network(), queries=("bogus",))

    def test_field_values_pin_headers(self):
        from repro.sefl.util import mac_to_number

        campaign = VerificationCampaign(
            small_switch_network(), field_values={"EtherDst": 0xAA}
        )
        result = campaign.run()
        # Only the out0 MAC group admits the pinned destination.
        assert result.reachability.pairs() == [("sw:in0", "sw:out0", 1)]


class TestQueries:
    def test_loop_report_finds_forwarding_loop(self):
        campaign = VerificationCampaign(loop_network())
        campaign.add_injection("a", "in-entry")
        result = campaign.run()
        assert not result.loop_report.loop_free
        finding = result.loop_report.findings[0]
        assert finding.source == "a:in-entry"
        assert "loop" in finding.reason
        assert len(finding.trace) > 2

    def test_invariant_violation_reported(self):
        campaign = VerificationCampaign(
            rewriting_network(), invariant_fields=("IpDst", "IpSrc")
        )
        result = campaign.run()
        report = result.invariant_report
        assert not report.field_holds("IpDst")
        assert report.field_holds("IpSrc")
        violations = report.violations()
        assert [(src, name) for src, name, _ in violations] == [("nat:in0", "IpDst")]

    def test_invariant_on_missing_field_is_vacuous_not_verified(self):
        # An ICMP packet allocates no TCP header, so TcpDst can't be checked:
        # every path is skipped and the field must NOT be reported as holding.
        campaign = VerificationCampaign(
            small_switch_network(), packet="icmp", invariant_fields=("TcpDst",)
        )
        result = campaign.run()
        assert not result.invariant_report.field_holds("TcpDst")
        assert result.invariant_report.field_vacuous("TcpDst")
        payload = result.to_dict()["invariants"]["fields"]["TcpDst"]
        assert payload["holds"] is False
        assert payload["vacuous"] is True
        cell = payload["by_source"]["sw:in0"]
        assert cell["checked"] == 0
        assert cell["skipped"] > 0

    def test_drop_policy_coverage_collects_reasons(self):
        campaign = VerificationCampaign(
            small_switch_network(), field_values={"EtherDst": 0xCC}
        )
        result = campaign.run()
        # The pinned MAC matches neither port group: both egress constraints
        # fail, and both drops carry explicit reasons.
        assert result.reachability.pair_count() == 0
        assert result.invariant_report.drops_covered
        totals = result.invariant_report.drop_reason_totals()
        assert sum(totals.values()) == 2

    def test_queries_can_be_restricted(self):
        campaign = VerificationCampaign(
            small_switch_network(), queries=("reachability",)
        )
        payload = campaign.run().to_dict()
        assert "reachability" in payload
        assert "loops" not in payload
        assert "invariants" not in payload


class TestQueryObjects:
    def test_matrix_fingerprint_is_order_independent(self):
        a = ReachabilityMatrix()
        a.record("s1", "d1")
        a.record("s2", "d2", 3)
        b = ReachabilityMatrix()
        b.record("s2", "d2", 3)
        b.record("s1", "d1")
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_matrix_queries(self):
        matrix = ReachabilityMatrix()
        matrix.add_source("s0")
        matrix.record("s1", "d1", 2)
        assert matrix.reachable("s1", "d1")
        assert not matrix.reachable("s0", "d1")
        assert matrix.path_count("s1", "d1") == 2
        assert matrix.sources == ["s0", "s1"]
        assert matrix.destinations_from("s1") == ["d1"]
        assert matrix.pair_count() == 1

    def test_loop_report_fingerprint(self):
        report = LoopReport()
        report.add_source("s")
        report.record(LoopFinding("s", "a:in0", "loop detected", ("a:in0", "b:in0")))
        assert not report.loop_free
        assert report.sources_with_loops() == ["s"]
        assert report.fingerprint() == (("s", "a:in0", ("a:in0", "b:in0")),)

    def test_invariant_report_unexplained_drops(self):
        report = InvariantReport()
        report.record_drops("s", {"": 2, "filtered": 1})
        assert not report.drops_covered
        assert report.drop_reason_totals() == {"<unexplained>": 2, "filtered": 1}


class TestParallelEquivalence:
    """The acceptance criterion: a process-pool campaign produces the same
    query results as sequential execution."""

    def _source(self):
        return NetworkSource.from_workload("department", **DEPARTMENT_OPTIONS)

    def test_department_workers2_matches_sequential(self):
        sequential = VerificationCampaign(self._source()).run(workers=1)
        parallel = VerificationCampaign(self._source()).run(workers=2)
        assert sequential.execution_mode == "in-process"
        # The comparison is vacuous if the pool silently fell back to
        # in-process execution: require real out-of-process jobs here.
        import os

        assert parallel.execution_mode == "process-pool"
        assert all(job.worker_pid != os.getpid() for job in parallel.jobs)
        assert sequential.reachability == parallel.reachability
        assert (
            sequential.loop_report.fingerprint() == parallel.loop_report.fingerprint()
        )
        assert (
            sequential.invariant_report.fingerprint()
            == parallel.invariant_report.fingerprint()
        )
        assert not sequential.job_errors and not parallel.job_errors
        # The department audit of §8.5: the management plane is reachable
        # from outside — the security hole the paper found.
        assert sequential.reachability.reachable(
            "m1:in-internet", "switch-management:reached"
        )

    def test_jobs_pickle(self):
        campaign = VerificationCampaign(self._source())
        for job in campaign.jobs():
            assert pickle.loads(pickle.dumps(job)) == job

    def test_directory_campaign_with_workers(self, tmp_path):
        # sw:in0 has no incoming link, so it is the campaign's default
        # (free) injection point.
        (tmp_path / "topology.txt").write_text(
            "device sw switch sw.mac\n"
            "device r1 router r1.fib\n"
            "link sw:uplink -> r1:in0\n"
        )
        (tmp_path / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     uplink\n"
            " 302    0011.2233.4456    DYNAMIC     host0\n"
        )
        (tmp_path / "r1.fib").write_text(
            "10.0.0.0/8      to-lan\n0.0.0.0/0       to-internet\n"
        )
        sequential = VerificationCampaign(str(tmp_path)).run(workers=1)
        parallel = VerificationCampaign(str(tmp_path)).run(workers=2)
        assert sequential.reachability == parallel.reachability
        assert sequential.reachability.pair_count() > 0

    def test_json_report_roundtrips(self):
        result = VerificationCampaign(self._source()).run(workers=1)
        payload = json.loads(result.to_json())
        assert payload["reachability"]["reachable_pairs"] == (
            result.reachability.pair_count()
        )
        assert payload["stats"]["jobs"] == result.stats.jobs
        assert payload["loops"]["loop_free"] == result.loop_report.loop_free


# ---------------------------------------------------------------------------
# Pool failure taxonomy
# ---------------------------------------------------------------------------

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

_PARENT_PID = os.getpid()


def _explode_in_worker(job):
    """A stand-in for execute_job that fails only out-of-process: in the
    parent it delegates to the real thing, so a silent fallback to
    sequential execution would *mask* the failure — exactly the old bug."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("job exploded in worker")
    return execute_job(job)


def _die_in_worker(job):
    """A worker that dies outright (SIGKILL-style), breaking the pool."""
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return execute_job(job)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-failure stand-ins are inherited via fork",
)


class TestPoolFailureTaxonomy:
    """Regression: the pool path used to wrap execution in one
    ``except (OSError, RuntimeError)`` that treated *job-level* exceptions
    as "no multiprocessing here" and silently re-ran everything
    sequentially — masking real failures.  Only pool *startup* problems
    and ``BrokenProcessPool`` may fall back; a job raising propagates."""

    def _source(self):
        return NetworkSource.from_workload("department", **DEPARTMENT_OPTIONS)

    @fork_only
    def test_job_runtime_error_propagates_under_workers2(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.executor.execute_job", _explode_in_worker
        )
        campaign = VerificationCampaign(self._source())
        with pytest.raises(RuntimeError, match="job exploded in worker"):
            campaign.run(workers=2)

    @fork_only
    def test_broken_pool_recovers_remaining_jobs_in_process(self, monkeypatch):
        sequential = VerificationCampaign(self._source()).run(workers=1)
        monkeypatch.setattr("repro.core.executor.execute_job", _die_in_worker)
        campaign = VerificationCampaign(self._source())
        with pytest.warns(RuntimeWarning, match="worker process died"):
            result = campaign.run(workers=2)
        # Every job the broken pool never finished was re-executed in
        # process (where the stand-in delegates to the real execute_job),
        # and the answers match the sequential run exactly.
        assert result.execution_mode == "process-pool-recovered"
        assert not result.job_errors
        assert result.reachability == sequential.reachability
        assert (
            result.loop_report.fingerprint()
            == sequential.loop_report.fingerprint()
        )

    def test_refused_report_leaves_a_lent_pool_usable(self):
        """A caller that refuses a report (an audit failure, say) stops the
        run — and must not take a lent pool down with it: the jobs still
        queued on it hold proxies of the run's shared-tier Manager."""

        def refuse(report):
            raise ValueError("refused")

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            with pytest.raises(ValueError, match="refused"):
                VerificationCampaign(self._source()).run(
                    workers=2, pool=pool, on_report=refuse
                )
            result = VerificationCampaign(self._source()).run(workers=2, pool=pool)
        assert result.execution_mode == "process-pool"
        assert not result.job_errors

    def test_broken_borrowed_pool_falls_back_before_submitting(self):
        # A lent pool is probed before any job is trusted to it: a pool
        # that cannot run anything demotes the run to in-process execution
        # (a startup failure, not a job failure — fallback is correct).
        pool = ProcessPoolExecutor(max_workers=1)
        pool.shutdown()
        result = VerificationCampaign(self._source()).run(workers=2, pool=pool)
        assert result.execution_mode == "in-process"
        assert not result.job_errors
