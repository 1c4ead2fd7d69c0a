"""What the symmetry reducer canonicalises, says and merges.

Three nets around ``SymmetryReducer.partition``:

* **cost shape** (counted calls, never wall clock) — the network structure
  is compiled and refined once per campaign, and a job whose port shares
  its stable colour with no other job is a proven singleton that never
  gets a canonical form;
* **visibility** — a campaign symmetry could not be applied to, or a job it
  could not encode, leaves an INFO line, and the ``symmetry.partition``
  span carries what the partition found;
* **partition parity** — on the pinned workloads and on seeded
  ``test_symmetry.build_symmetric_case`` topologies the partition of ports
  into classes is exactly the one recorded before the canonicaliser was
  rebuilt on one refinement core (PR 12's tree), so "faster" can never
  silently mean "merges less" — or more.  Classes are compared as sets of
  port-name sets: class ids are free to change.
"""

import logging

import pytest

import repro.network.view as view_module
from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
)
from repro.obs import Tracer, set_tracer
from test_symmetry import build_symmetric_case

STANFORD_ACL = {"internal_prefixes_per_zone": 12, "service_acl_rules": 4}


def run_partition(source, injections=()):
    """Run a symmetry-on campaign; return ``(classes as a set of frozensets
    of "element:port", stats)``.  A class is a representative plus every
    report instantiated from it; everything else is a singleton."""
    clear_runtime_cache()
    campaign = VerificationCampaign(source, symmetry=True)
    for element, port in injections:
        campaign.add_injection(element, port)
    reports = []
    result = campaign.run(on_report=reports.append)
    classes = {}
    for report in reports:
        key = f"{report.element}:{report.port}"
        classes.setdefault(report.symmetry_instantiated_from or key, set()).add(key)
    return {frozenset(members) for members in classes.values()}, result.stats


def classes_of(*groups):
    return {frozenset(group) for group in groups}


# ===========================================================================
# Cost shape: one structure per campaign, no form for a proven singleton
# ===========================================================================


@pytest.fixture
def counted(monkeypatch):
    """Counts view-side structure compilations and per-job canonical forms."""
    calls = {"structures": 0, "forms": 0}
    structure = view_module.EntityStructure
    job_form = view_module.CampaignSymmetryView.job_form

    def counting_structure(*args):
        calls["structures"] += 1
        return structure(*args)

    def counting_job_form(self, element, port, digest):
        calls["forms"] += 1
        return job_form(self, element, port, digest)

    monkeypatch.setattr(view_module, "EntityStructure", counting_structure)
    monkeypatch.setattr(
        view_module.CampaignSymmetryView, "job_form", counting_job_form
    )
    return calls


def test_singleton_ports_are_never_canonicalised(counted):
    """department merges nothing: every port has a stable colour of its
    own, so partition proves four singletons from the shared colouring."""
    classes, stats = run_partition(NetworkSource.from_workload("department"))
    assert all(len(members) == 1 for members in classes) and len(classes) == 4
    assert stats.jobs_skipped_by_symmetry == 0
    assert counted == {"structures": 1, "forms": 0}


def test_network_structure_is_compiled_once_per_campaign(counted):
    _, stats = run_partition(
        NetworkSource.from_workload("stanford", zones=16, **STANFORD_ACL)
    )
    assert (stats.symmetry_classes, stats.jobs_skipped_by_symmetry) == (2, 14)
    assert counted == {"structures": 1, "forms": 16}


def test_a_lone_eligible_job_builds_no_view(counted):
    network, injections = build_symmetric_case(4100, zones=3)
    run_partition(NetworkSource.from_network(network), injections[:1])
    assert counted == {"structures": 0, "forms": 0}


# ===========================================================================
# Every degrade is visible: a log line and span attributes, never silence
# ===========================================================================


@pytest.fixture
def symmetry_log(caplog):
    """INFO records of the reducer's logger, captured on the logger itself:
    an earlier CLI test may have configured the ``repro`` hierarchy not to
    propagate to the root logger caplog listens on."""
    logger = logging.getLogger("repro.core.symmetry")
    records = []
    handler = logging.Handler(logging.INFO)
    handler.emit = records.append
    logger.addHandler(handler)
    with caplog.at_level(logging.INFO, logger=logger.name):
        yield records
    logger.removeHandler(handler)


def test_partition_span_carries_its_counts():
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        run_partition(NetworkSource.from_workload("stanford", zones=16, **STANFORD_ACL))
    finally:
        set_tracer(previous)
    (span,) = [s for s in tracer.spans if s.name == "symmetry.partition"]
    assert span.attrs == {"jobs": 16, "eligible": 16, "candidates": 16, "classes": 2}


def test_unencodable_network_is_logged_and_runs_directly(monkeypatch, symmetry_log):
    def refuse(self, network, pinned_values=()):
        raise view_module.SymmetryUnsupported("opaque construct")

    monkeypatch.setattr(view_module.CampaignSymmetryView, "__init__", refuse)
    network, injections = build_symmetric_case(4100, zones=3)
    classes, stats = run_partition(NetworkSource.from_network(network), injections)
    assert len(classes) == 3 and stats.jobs_skipped_by_symmetry == 0
    (record,) = symmetry_log
    assert "symmetry not applied" in record.getMessage()
    assert "opaque construct" in record.getMessage()


def test_unknown_injection_ports_are_counted_in_the_log(monkeypatch, symmetry_log):
    port_color = view_module.CampaignSymmetryView.port_color
    network, injections = build_symmetric_case(4100, zones=4)

    def flaky(self, element, port):
        if element == injections[0][0]:
            raise view_module.SymmetryUnsupported("no such port")
        return port_color(self, element, port)

    monkeypatch.setattr(view_module.CampaignSymmetryView, "port_color", flaky)
    classes, stats = run_partition(NetworkSource.from_network(network), injections)
    assert sorted(map(len, classes)) == [1, 3]
    assert stats.symmetry_classes == 2 and stats.jobs_skipped_by_symmetry == 2
    (record,) = symmetry_log
    assert "1 of 4 eligible jobs" in record.getMessage()


# ===========================================================================
# Partition parity with the recorded pre-refactor classes
# ===========================================================================


def _acl_ports(zones):
    return [f"acl{zone}:in0" for zone in zones]


def test_pinned_workload_partitions_are_unchanged():
    classes, _ = run_partition(
        NetworkSource.from_workload("stanford", zones=16, **STANFORD_ACL)
    )
    assert classes == classes_of(
        _acl_ports(range(0, 16, 2)), _acl_ports(range(1, 16, 2))
    )
    classes, _ = run_partition(
        NetworkSource.from_workload(
            "stanford", zones=4, internal_prefixes_per_zone=30, service_acl_rules=4
        )
    )
    assert classes == classes_of(_acl_ports((0, 2)), _acl_ports((1, 3)))
    classes, _ = run_partition(NetworkSource.from_workload("stanford", zones=4))
    assert classes == classes_of(
        ["zr0:in-hosts", "zr2:in-hosts"], ["zr1:in-hosts", "zr3:in-hosts"]
    )
    classes, stats = run_partition(NetworkSource.from_workload("enterprise"))
    assert classes == classes_of(["AP:in0"], ["R1:in-exit"])
    assert stats.symmetry_classes == 0
    classes, _ = run_partition(NetworkSource.from_workload("department"))
    assert classes == classes_of(
        ["cluster:in-node"],
        ["lab-sw1:in-host"],
        ["m1:in-internet"],
        ["office-sw0:in-host"],
    )


@pytest.mark.parametrize("asymmetry", ["", "rule", "link", "const"])
def test_seeded_topology_partitions_are_unchanged(asymmetry):
    """Recorded over seeds 7000..7019 (zones = 3 + seed % 3): the cloned
    zones always form one class, and a perturbed zone 0 — the first
    injection — is always alone."""
    for seed in range(7000, 7020):
        network, injections = build_symmetric_case(seed, 3 + seed % 3, asymmetry)
        ports = [f"{element}:{port}" for element, port in injections]
        expected = (
            classes_of(ports[:1], ports[1:]) if asymmetry else classes_of(ports)
        )
        classes, _ = run_partition(NetworkSource.from_network(network), injections)
        assert classes == expected, f"seed={seed} asymmetry={asymmetry!r}"
