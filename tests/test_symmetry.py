"""Soundness fuzz suite for the campaign job-symmetry layer.

The symmetry layer (network/view.py + core/campaign.py) executes one engine
job per renaming-equivalence class of ``(network neighbourhood, injection
port)`` and derives every other member's report by applying the recorded
bijection.  That is only safe if two guarantees hold, and this suite attacks
both, mirroring the conventions of ``test_canonical_cache.py`` (seed-pinned
fuzz loops, chunked, greedy shrink-on-failure):

* **merging** — random symmetric topologies (a hub fronted by structurally
  cloned zones whose element/port names are randomised per zone, so
  lexicographic name order carries no structural information, and whose
  address constants live in disjoint per-zone ranges) must collapse into one
  class, and every instantiated report must be semantically identical to
  executing the member job directly;
* **splitting** — adversarial near-symmetric variants (one extra ACL rule,
  one rewired link, one overlapping address constant) must keep the
  modified zone out of the pristine zones' class.

That symmetry on or off never moves a campaign answer is a coordinate of
``tests/test_config_lattice.py``.

A mutation-style negative test then corrupts instantiation on purpose and
asserts ``--symmetry-audit`` (the seeded random re-execution of one member
per class) detects it.
"""

import os
import random

import pytest

from repro.core.campaign import (
    NetworkSource,
    SymmetryAuditError,
    VerificationCampaign,
    clear_runtime_cache,
    execute_job,
    execution_counters,
    reset_execution_counters,
    semantic_projection,
)
import repro.core.symmetry as symmetry_module
from repro.network.element import NetworkElement
from repro.network.topology import Network
from repro.sefl.expressions import Eq, OneOf, Or
from repro.sefl.fields import IpDst, TcpDst, TcpSrc
from repro.sefl.instructions import (
    Constrain,
    Fail,
    Fork,
    Forward,
    If,
    InstructionBlock,
    NoOp,
)
from repro.solver.intervals import IntervalSet

SEED = int(os.environ.get("REPRO_CACHE_SEED", "20260728"))

MERGE_CASES = 12
SPLIT_CASES = 9


# ===========================================================================
# Random symmetric-topology generator
# ===========================================================================


def _zone_names(rng: random.Random, zones: int):
    """Random, collision-free element names: the canonical form must not
    lean on lexicographic name order (zr10 sorts before zr2)."""
    names = set()
    while len(names) < zones:
        names.add(f"z{rng.randrange(16**6):06x}")
    return sorted(names, key=lambda _: rng.random())


def build_symmetric_case(seed: int, zones: int = 4, asymmetry: str = ""):
    """A hub fronted by ``zones`` cloned edge filters.

    Every zone shares one ACL shape (the same blocked service ports) and
    owns a disjoint address range the hub uses to steer egress — the
    structural situation the symmetry layer exists for.  ``asymmetry``
    perturbs exactly one zone:

    * ``"rule"``  — one extra ACL rule on zone 0;
    * ``"link"``  — zone 0's uplink rewired through an extra middlebox;
    * ``"const"`` — one constant in zone 0's ACL changed: its last rule
      re-blocks the first rule's port instead of its own, which keeps the
      rule count identical but makes the second Fail branch unsatisfiable
      (a semantic difference constant abstraction must not absorb).
    """
    rng = random.Random(seed)
    rules = rng.randint(2, 3)
    blocked = rng.sample(range(1024, 9000), rules)
    names = _zone_names(rng, zones)
    in_port = f"p{rng.randrange(16**4):04x}"

    network = Network(f"sym-{seed}")
    hub = NetworkElement(
        "hub",
        input_ports=[f"in{z}" for z in range(zones)],
        output_ports=[f"out{z}" for z in range(zones)],
        kind="hub",
    )
    network.add_element(hub)
    injections = []
    for z, name in enumerate(names):
        zone = NetworkElement(
            name, input_ports=[in_port], output_ports=["up"], kind="zone-acl"
        )
        ports = list(blocked)
        if z == 0 and asymmetry == "rule":
            ports.append(blocked[0] + 1)
        elif z == 0 and asymmetry == "const":
            ports[-1] = ports[0]
        checks = [
            If(
                Or(Eq(TcpSrc, port), Eq(TcpDst, port)),
                Fail(f"blocked service port {port}"),
                NoOp(),
            )
            for port in ports
        ]
        zone.set_input_program(in_port, InstructionBlock(*checks, Forward("up")))
        network.add_element(zone)
        if asymmetry == "link" and z == 0:
            relay = NetworkElement(
                "relay", input_ports=["in0"], output_ports=["out0"], kind="relay"
            )
            relay.set_input_program("in0", Forward("out0"))
            network.add_element(relay)
            network.add_link((name, "up"), ("relay", "in0"))
            network.add_link(("relay", "out0"), ("hub", f"in{z}"))
        else:
            network.add_link((name, "up"), ("hub", f"in{z}"))
        injections.append((name, in_port))

    for z in range(zones):
        # Hairpin check: traffic destined back to the source zone fails at
        # the hub, so every injection cone depends on its own zone's range
        # (the stanford own-/16 situation the cell abstraction must align).
        lo = (z + 1) << 16
        own = OneOf(IpDst, IntervalSet([(lo, lo + 0xFFFF)]))
        hub.set_input_program(
            f"in{z}",
            If(own, Fail("hairpin"), Fork(*(f"out{o}" for o in range(zones)))),
        )
        hub.set_output_program(
            f"out{z}",
            Constrain(OneOf(IpDst, IntervalSet([(lo, lo + 0xFFFF)]))),
        )
    return network, injections


def _campaign(network, injections, **kwargs):
    clear_runtime_cache()
    campaign = VerificationCampaign(
        NetworkSource.from_network(network), **kwargs
    )
    for element, port in injections:
        campaign.add_injection(element, port)
    return campaign


def shrink_case(seed: int, zones: int, asymmetry: str, still_failing):
    """Greedily reduce the zone count while the failure reproduces
    (matching the shrinker conventions of test_canonical_cache.py)."""
    while zones > 2 and still_failing(seed, zones - 1, asymmetry):
        zones -= 1
    return zones


def _describe(seed: int, zones: int, asymmetry: str) -> str:
    return f"seed={seed} zones={zones} asymmetry={asymmetry!r}"


# ===========================================================================
# (a) merging: cloned zones collapse into one class, reports instantiate
# ===========================================================================


def _merge_fails(seed: int, zones: int, asymmetry: str) -> bool:
    network, injections = build_symmetric_case(seed, zones, asymmetry)
    on = _campaign(network, injections, symmetry=True).run()
    return (
        on.stats.symmetry_classes != 1
        or on.stats.jobs_skipped_by_symmetry != zones - 1
    )


@pytest.mark.parametrize("chunk", range(3))
def test_cloned_zones_merge_and_instantiate_exactly(chunk):
    per_chunk = MERGE_CASES // 3
    for offset in range(per_chunk):
        seed = SEED + chunk * per_chunk + offset
        zones = 3 + (seed % 3)
        if _merge_fails(seed, zones, ""):
            zones = shrink_case(seed, zones, "", _merge_fails)
            pytest.fail(
                f"symmetric case failed to merge: {_describe(seed, zones, '')}"
            )


def test_instantiated_reports_match_direct_execution():
    """Member-by-member: applying the recorded bijection to the
    representative's report is semantically identical to executing the
    member directly (the per-member form of the audit invariant)."""
    network, injections = build_symmetric_case(SEED, zones=4)
    campaign = _campaign(network, injections, symmetry=True)
    result = campaign.run()
    assert result.stats.symmetry_classes == 1
    instantiated = [job for job in result.jobs if job.symmetry_instantiated_from]
    assert len(instantiated) == 3
    direct = {
        (job.element, job.port): semantic_projection(execute_job(job))
        for job in campaign.jobs()
    }
    for report in instantiated:
        assert semantic_projection(report) == direct[(report.element, report.port)]


def test_stanford_parity_classes():
    """The acceptance workload: 16 stanford+ACL zones collapse to the two
    parity classes (even zones uplink evens via up0, odd via up1)."""
    source = NetworkSource.from_workload(
        "stanford", zones=16, internal_prefixes_per_zone=12, service_acl_rules=4
    )
    clear_runtime_cache()
    reset_execution_counters()
    on = VerificationCampaign(source, symmetry=True).run()
    assert on.stats.symmetry_classes == 2
    assert on.stats.jobs_skipped_by_symmetry == 14
    assert on.stats.jobs == 16  # every port still gets a report
    # Only the class representatives reach the engine.
    assert execution_counters()["engine_runs"] == 2


def test_distinct_vantage_points_form_no_class():
    """The department workload's vantage points are genuinely distinct:
    nothing merges, every port runs."""
    clear_runtime_cache()
    reset_execution_counters()
    result = VerificationCampaign(
        NetworkSource.from_workload("department"), symmetry=True
    ).run()
    assert result.stats.symmetry_classes == 0
    assert result.stats.jobs_skipped_by_symmetry == 0
    assert execution_counters()["engine_runs"] == result.stats.jobs


# ===========================================================================
# (b) splitting: near-symmetric variants keep the modified zone separate
# ===========================================================================


def _split_survives(seed: int, zones: int, asymmetry: str) -> bool:
    """True when the perturbed case wrongly merges everything into one
    class: the asymmetry was absorbed, an unsound merge."""
    network, injections = build_symmetric_case(seed, zones, asymmetry)
    on = _campaign(network, injections, symmetry=True).run()
    return (
        on.stats.symmetry_classes == 1
        and on.stats.jobs_skipped_by_symmetry == zones - 1
    )


@pytest.mark.parametrize("asymmetry", ["rule", "link", "const"])
def test_near_symmetric_cases_split(asymmetry):
    per_kind = SPLIT_CASES // 3
    for offset in range(per_kind):
        seed = SEED + 10_000 + offset
        zones = 3 + (seed % 3)
        if _split_survives(seed, zones, asymmetry):
            zones = shrink_case(seed, zones, asymmetry, _split_survives)
            pytest.fail(
                f"near-symmetric case merged: {_describe(seed, zones, asymmetry)}"
            )


# ===========================================================================
# (c) the audit catches corrupted instantiation
# ===========================================================================


def test_symmetry_audit_passes_on_healthy_instantiation():
    network, injections = build_symmetric_case(SEED + 1, zones=4)
    result = _campaign(
        network, injections, symmetry=True, symmetry_audit=True
    ).run()
    assert result.stats.symmetry_classes == 1
    assert not result.job_errors


def test_symmetry_audit_detects_corrupted_instantiation(monkeypatch):
    original = symmetry_module.instantiate_report

    def corrupted(rep, member, renaming, class_id):
        report = original(rep, member, renaming, class_id)
        report.status_counts = dict(report.status_counts)
        report.status_counts["delivered"] = (
            report.status_counts.get("delivered", 0) + 1
        )
        return report

    monkeypatch.setattr(symmetry_module, "instantiate_report", corrupted)
    network, injections = build_symmetric_case(SEED + 2, zones=4)
    campaign = _campaign(
        network, injections, symmetry=True, symmetry_audit=True
    )
    with pytest.raises(SymmetryAuditError):
        campaign.run()


def test_symmetry_audit_accounting_stays_consistent():
    """Regression: audit re-executions are real engine runs whose reports
    are discarded — they must land in ``symmetry_audit_runs``, not skew
    ``jobs == symmetry_classes + jobs_skipped_by_symmetry``."""
    network, injections = build_symmetric_case(SEED + 9, zones=5)
    campaign = _campaign(
        network, injections, symmetry=True, symmetry_audit=True
    )
    reset_execution_counters()
    result = campaign.run()
    stats = result.stats
    assert stats.symmetry_classes == 1
    assert stats.jobs_skipped_by_symmetry == 4
    assert stats.symmetry_audit_runs == 1
    assert stats.jobs == stats.symmetry_classes + stats.jobs_skipped_by_symmetry
    # Engine-run accounting: one run per class plus exactly the audits.
    assert (
        execution_counters()["engine_runs"]
        == stats.symmetry_classes + stats.symmetry_audit_runs
    )
    assert result.to_dict()["stats"]["symmetry_audit_runs"] == 1

    # Without auditing the counter stays zero.
    network, injections = build_symmetric_case(SEED + 9, zones=5)
    plain = _campaign(network, injections, symmetry=True).run()
    assert plain.stats.symmetry_audit_runs == 0


def test_symmetry_audit_is_seed_pinned():
    """Two audited runs under one seed re-execute the same member."""
    for _ in range(2):
        network, injections = build_symmetric_case(SEED + 3, zones=5)
        result = _campaign(
            network,
            injections,
            symmetry=True,
            symmetry_audit=True,
            symmetry_audit_seed=7,
        ).run()
        assert result.stats.symmetry_classes == 1
        assert result.stats.jobs_skipped_by_symmetry == 4
