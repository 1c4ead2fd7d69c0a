"""Delta verification: re-verify only what a change touched.

The acceptance criteria under test:

* the manifest a directory build attaches tracks *content* (digests), not
  metadata, and malformed manifests/baselines are rejected wholesale;
* :func:`diff_manifests` refuses to splice across topology or file-set
  changes (the link graph may differ), and maps touched files to touched
  elements through build provenance;
* :func:`affected_injections` is the reverse link closure: a port is only
  spliced when its element provably cannot reach any touched element;
* campaign-level: a one-device edit re-executes O(1) engine jobs, from a
  store or a file baseline, with symmetry on or off (that splicing never
  moves an answer is a coordinate of ``tests/test_config_lattice.py``);
* seed-pinned random-edit fuzz (rule insert/delete, device rewrite, link
  flap, same-bytes no-op rewrite) over stanford- and department-style
  directories: delta never skips a port whose answer changed, with greedy
  shrink to a minimal failing edit on divergence;
* degenerate directory stat keys (unreadable topology, stat-failed device
  files) never share a cached build: every such key is unequal to
  everything, including a recomputation of itself — while the content
  identity is read off the build, so an unreadable directory has none.
"""

import glob
import os
import random
import re

import pytest

from repro.core.campaign import (
    VerificationCampaign,
    clear_runtime_cache,
    execution_counters,
    reset_execution_counters,
    semantic_projection,
)
from repro.core.delta import (
    BASELINE_FORMAT,
    CampaignBaseline,
    ElementManifest,
    affected_injections,
    diff_manifests,
)
from repro.core.queries import port_key
from repro.network.view import elements_reaching
from repro.parsers.service_acl import format_service_acl, parse_service_acl
from repro.parsers.topology_file import load_network_directory
from repro.store import VerificationStore
from repro.workloads.export import (
    export_department_style_directory,
    export_stanford_directory,
)

SEED = int(os.environ.get("REPRO_DELTA_SEED", "20260807"))

STANFORD_OPTIONS = dict(zones=3, internal_prefixes_per_zone=6, service_acl_rules=3)


def _fingerprints(result):
    return (
        result.reachability.fingerprint(),
        result.loop_report.fingerprint(),
        result.invariant_report.fingerprint(),
    )


def _projections(result):
    return {
        port_key(report.element, report.port): semantic_projection(report)
        for report in result.jobs
    }


def _run(directory, injections, **kwargs):
    """One campaign over a snapshot directory; returns ``(result, engine
    runs this campaign performed)``."""
    clear_runtime_cache()
    campaign = VerificationCampaign(str(directory), **kwargs)
    campaign.add_injections(injections)
    reset_execution_counters()
    result = campaign.run()
    assert not result.job_errors
    return result, execution_counters()["engine_runs"]


def _export_stanford(directory, seed=11):
    os.makedirs(directory, exist_ok=True)
    return export_stanford_directory(str(directory), seed=seed, **STANFORD_OPTIONS)


def _export_department(directory, seed=23):
    os.makedirs(directory, exist_ok=True)
    return export_department_style_directory(
        str(directory), switches=3, macs_per_port=2, seed=seed
    )


# ---------------------------------------------------------------------------
# The manifest a directory build records
# ---------------------------------------------------------------------------


class TestElementManifest:
    def test_build_attaches_per_file_digests_and_provenance(self, tmp_path):
        _export_department(tmp_path)
        network = load_network_directory(str(tmp_path))
        manifest = ElementManifest.of_network(network)
        assert manifest is not None
        assert set(manifest.files) == {
            "sw0.mac", "sw1.mac", "sw2.mac", "gw.fib", "edge.acl",
        }
        for name, entry in manifest.files.items():
            assert len(entry["digest"]) == 64
        # Provenance: each snapshot file maps to the element it built.
        assert manifest.files["gw.fib"]["elements"] == ["gw"]
        assert manifest.files["edge.acl"]["elements"] == ["edge"]
        assert manifest.files["sw1.mac"]["elements"] == ["sw1"]

    def test_manifest_tracks_content_not_metadata(self, tmp_path):
        _export_department(tmp_path)
        before = ElementManifest.of_network(
            load_network_directory(str(tmp_path))
        ).to_payload()
        # Same bytes rewritten: identical manifest (mtime is irrelevant).
        acl = tmp_path / "edge.acl"
        acl.write_bytes(acl.read_bytes())
        again = ElementManifest.of_network(
            load_network_directory(str(tmp_path))
        ).to_payload()
        assert again == before
        # Content edit: exactly that file's digest moves.
        acl.write_text("block 22\n")
        edited = ElementManifest.of_network(
            load_network_directory(str(tmp_path))
        ).to_payload()
        assert edited != before
        changed = [
            name
            for name in before["files"]
            if edited["files"][name]["digest"] != before["files"][name]["digest"]
        ]
        assert changed == ["edge.acl"]

    def test_diff_yields_touched_elements_via_provenance(self, tmp_path):
        _export_stanford(tmp_path)
        old = ElementManifest.of_network(load_network_directory(str(tmp_path)))
        (tmp_path / "acl1.acl").write_text("block 22\n")
        new = ElementManifest.of_network(load_network_directory(str(tmp_path)))
        diff = diff_manifests(old, new)
        assert diff.compatible
        assert diff.touched_files == ("acl1.acl",)
        assert diff.touched_elements == ("acl1",)

    def test_diff_incompatible_on_topology_change(self, tmp_path):
        _export_stanford(tmp_path)
        old = ElementManifest.of_network(load_network_directory(str(tmp_path)))
        with open(tmp_path / "topology.txt", "a", encoding="utf-8") as handle:
            handle.write("# a comment changes the bytes, not the semantics\n")
        new = ElementManifest.of_network(load_network_directory(str(tmp_path)))
        diff = diff_manifests(old, new)
        assert not diff.compatible
        assert diff.reason == "topology.txt changed"

    def test_diff_incompatible_on_referenced_set_change(self):
        old = ElementManifest("t", {"a.fib": {"digest": "x", "elements": ["a"]}})
        new = ElementManifest("t", {"b.fib": {"digest": "x", "elements": ["b"]}})
        diff = diff_manifests(old, new)
        assert not diff.compatible
        assert diff.reason == "referenced snapshot set changed"

    def test_malformed_payloads_are_rejected_wholesale(self):
        assert ElementManifest.from_payload(None) is None
        assert ElementManifest.from_payload({"topology_digest": "t"}) is None
        assert ElementManifest.from_payload(
            {"topology_digest": "t", "files": {"a": {"elements": []}}}
        ) is None
        good_manifest = {"topology_digest": "t", "files": {}}
        assert CampaignBaseline.from_payload(None) is None
        assert CampaignBaseline.from_payload(
            {"format": BASELINE_FORMAT + 1, "manifest": good_manifest, "reports": {}}
        ) is None
        assert CampaignBaseline.from_payload(
            {"format": BASELINE_FORMAT, "manifest": {"nope": 1}, "reports": {}}
        ) is None
        assert CampaignBaseline.from_payload(
            {"format": BASELINE_FORMAT, "manifest": good_manifest, "reports": {}}
        ) is not None


# ---------------------------------------------------------------------------
# The affected-port closure
# ---------------------------------------------------------------------------


class TestAffectedInjections:
    def test_nothing_links_into_an_edge_acl(self, tmp_path):
        injections = _export_stanford(tmp_path)
        network = load_network_directory(str(tmp_path))
        assert elements_reaching(network, {"acl1"}) == {"acl1"}
        assert affected_injections(network, injections, {"acl1"}) == {
            ("acl1", "in0")
        }

    def test_closure_includes_everything_upstream(self, tmp_path):
        injections = _export_department(tmp_path)
        network = load_network_directory(str(tmp_path))
        # Every vantage can reach the gateway, so a gateway edit taints all.
        reaching = elements_reaching(network, {"gw"})
        assert {"sw0", "sw1", "sw2", "edge", "gw"} <= reaching
        assert affected_injections(network, injections, {"gw"}) == set(injections)

    def test_empty_touched_set_affects_nothing(self, tmp_path):
        injections = _export_stanford(tmp_path)
        network = load_network_directory(str(tmp_path))
        assert affected_injections(network, injections, set()) == set()


# ---------------------------------------------------------------------------
# Campaign-level splicing: the standing invariant
# ---------------------------------------------------------------------------


class TestCampaignDelta:
    @pytest.mark.parametrize("mode, symmetry", [("store", False), ("file", True)])
    def test_one_acl_edit_splices_every_other_port(self, tmp_path, mode, symmetry):
        net = tmp_path / "net"
        injections = _export_stanford(net)
        store = (
            VerificationStore(str(tmp_path / "store")) if mode == "store" else None
        )
        cold, _ = _run(net, injections, store=store, symmetry=symmetry)
        assert cold.stats.jobs_spliced_by_delta == 0
        assert cold.baseline_payload is not None
        baseline = cold.baseline_payload if mode == "file" else None

        (net / "acl1.acl").write_text("block 22\nblock 8080\n")
        delta, delta_runs = _run(
            net, injections, store=store, symmetry=symmetry, baseline=baseline
        )
        # The touched ACL symmetry-partitions alone: exactly one engine job.
        assert delta.stats.jobs_spliced_by_delta == 2
        assert delta.delta_info["executed"] == 1
        assert delta.delta_info["baseline"] == mode
        assert delta.delta_info["touched_elements"] == ["acl1"]
        assert delta_runs == 1
        spliced = [r for r in delta.jobs if r.delta_spliced_from]
        assert {port_key(r.element, r.port) for r in spliced} == {
            "acl0:in0", "acl2:in0",
        }
        assert all(r.delta_spliced_from == mode for r in spliced)

    def test_noop_rewrite_splices_every_port(self, tmp_path):
        net = tmp_path / "net"
        injections = _export_stanford(net)
        store = VerificationStore(str(tmp_path / "store"))
        cold, _ = _run(net, injections, store=store)
        acl = net / "acl0.acl"
        acl.write_bytes(acl.read_bytes())
        warm, warm_runs = _run(net, injections, store=store)
        assert warm_runs == 0
        assert warm.stats.jobs_spliced_by_delta == len(injections)
        assert warm.delta_info["touched_files"] == []
        assert _fingerprints(warm) == _fingerprints(cold)

    def test_topology_edit_degrades_to_full_rerun(self, tmp_path):
        net = tmp_path / "net"
        injections = _export_stanford(net)
        store = VerificationStore(str(tmp_path / "store"))
        cold, cold_runs = _run(net, injections, store=store)
        with open(net / "topology.txt", "a", encoding="utf-8") as handle:
            handle.write("# same links, different bytes\n")
        rerun, rerun_runs = _run(net, injections, store=store)
        assert rerun.stats.jobs_spliced_by_delta == 0
        assert rerun.delta_info == {
            "spliced": 0, "executed": len(injections),
            "reason": "topology.txt changed",
        }
        assert rerun_runs == cold_runs
        assert _fingerprints(rerun) == _fingerprints(cold)

    def test_config_drift_blocks_splicing(self, tmp_path):
        net = tmp_path / "net"
        injections = _export_stanford(net)
        store = VerificationStore(str(tmp_path / "store"))
        _run(net, injections, store=store)
        # Same directory, different job config: the baseline's answers were
        # computed under another budget and must not be reused.
        drifted, drifted_runs = _run(
            net, injections, store=store, max_hops=64
        )
        assert drifted.stats.jobs_spliced_by_delta == 0
        assert drifted_runs > 0

    def test_corrupt_store_baseline_degrades_to_full_rerun(self, tmp_path):
        net = tmp_path / "net"
        injections = _export_stanford(net)
        store = VerificationStore(str(tmp_path / "store"))
        cold, _ = _run(net, injections, store=store)
        for path in glob.glob(str(tmp_path / "store" / "baselines" / "*.rec")):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"format": "nope"')
        (net / "acl2.acl").write_text("block 22\n")
        rerun, rerun_runs = _run(net, injections, store=store)
        assert rerun.stats.jobs_spliced_by_delta == 0
        assert rerun_runs > 0
        scratch, _ = _run(
            net, injections, shared_cache=False, delta=False
        )
        assert _fingerprints(rerun) == _fingerprints(scratch)

    def test_tampered_store_baseline_splices_nothing(self, tmp_path):
        """A baseline whose bytes changed but still parse (one port's
        delivered-path count) is refused by its record checksum and
        quarantined: nothing is spliced from it, the answers are a scratch
        run's."""
        net = tmp_path / "net"
        injections = _export_stanford(net)
        store = VerificationStore(str(tmp_path / "store"))
        _run(net, injections, store=store)
        (path,) = glob.glob(str(tmp_path / "store" / "baselines" / "*"))
        with open(path, "rb") as handle:
            raw = handle.read()
        tampered = re.sub(
            rb'("delivered":\s*)(\d+)',
            lambda match: match.group(1) + str(int(match.group(2)) + 1).encode(),
            raw,
            count=1,
        )
        assert tampered != raw
        with open(path, "wb") as handle:
            handle.write(tampered)
        (net / "acl2.acl").write_text("block 22\n")
        store = VerificationStore(str(tmp_path / "store"))
        rerun, rerun_runs = _run(net, injections, store=store)
        assert rerun.stats.jobs_spliced_by_delta == 0
        assert rerun_runs == len(injections)
        assert [p for p, _ in store.quarantined] == [path]
        scratch, _ = _run(net, injections, shared_cache=False, delta=False)
        assert _fingerprints(rerun) == _fingerprints(scratch)

    def test_delta_off_never_consults_the_baseline(self, tmp_path):
        net = tmp_path / "net"
        injections = _export_stanford(net)
        store = VerificationStore(str(tmp_path / "store"))
        _run(net, injections, store=store)
        (net / "acl0.acl").write_text("block 22\n")
        off, off_runs = _run(net, injections, store=store, delta=False)
        assert off.stats.jobs_spliced_by_delta == 0
        assert off.delta_info == {}
        assert off_runs > 0

    def test_delta_off_ignores_an_explicit_baseline(self, tmp_path):
        net = tmp_path / "net"
        injections = _export_stanford(net)
        cold, _ = _run(net, injections)
        off, off_runs = _run(
            net, injections, delta=False, baseline=cold.baseline_payload
        )
        assert off.stats.jobs_spliced_by_delta == 0
        assert off.delta_info == {}
        assert off_runs == len(injections)


# ---------------------------------------------------------------------------
# Seed-pinned random-edit fuzz with greedy shrink
# ---------------------------------------------------------------------------

FUZZ_CASES = 3


def _plan_edit(rng, directory):
    """Draw one concrete mutation of the exported directory: ``(kind,
    file name, full replacement bytes)``.  Planning against the pristine
    export keeps application deterministic, so a failing multi-edit case
    shrinks by replaying single edits on a fresh export."""
    acls = sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(directory, "*.acl"))
    )
    fibs = sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(directory, "*.fib"))
    )
    macs = sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(directory, "*.mac"))
    )
    kinds = ["rule-insert", "rule-delete", "fib-rewrite", "link-flap", "noop"]
    if macs:
        kinds.append("mac-rewrite")
    kind = rng.choice(kinds)

    def read(name):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            return handle.read()

    if kind in ("rule-insert", "rule-delete"):
        name = rng.choice(acls)
        ports = parse_service_acl(read(name))
        if kind == "rule-delete" and ports:
            ports.pop(rng.randrange(len(ports)))
        else:
            ports.insert(rng.randrange(len(ports) + 1), rng.randrange(7000, 7999))
        return kind, name, format_service_acl(ports).encode()
    if kind == "fib-rewrite":
        name = rng.choice(fibs)
        lines = [l for l in read(name).splitlines() if l.strip()]
        if len(lines) > 1:
            lines.pop(rng.randrange(len(lines)))
        else:
            lines.append(lines[0])
        return kind, name, ("\n".join(lines) + "\n").encode()
    if kind == "mac-rewrite":
        name = rng.choice(macs)
        lines = read(name).splitlines()
        rows = [i for i, l in enumerate(lines) if "DYNAMIC" in l]
        if len(rows) > 1:
            lines.pop(rng.choice(rows))
        else:
            lines.append(lines[rows[0]])
        return kind, name, ("\n".join(lines) + "\n").encode()
    if kind == "link-flap":
        lines = read("topology.txt").splitlines()
        links = [i for i, l in enumerate(lines) if l.startswith("link ")]
        flapped = lines.pop(rng.choice(links))
        if rng.random() < 0.5:
            lines.append(flapped)  # same links, different bytes
        return kind, "topology.txt", ("\n".join(lines) + "\n").encode()
    name = rng.choice(acls + fibs + macs)
    return kind, name, read(name).encode()


def _check_edits(tmp_path, tag, family, export_seed, plan):
    """Run cold → edit → delta → scratch over a fresh export and return the
    list of divergences (empty when delta is sound)."""
    net = tmp_path / tag
    exporter = _export_stanford if family == "stanford" else _export_department
    injections = exporter(net, seed=export_seed)
    store = VerificationStore(str(tmp_path / f"{tag}-store"))
    _run(net, injections, store=store)
    for _, name, data in plan:
        (net / name).write_bytes(data)
    delta, _ = _run(net, injections, store=store)
    scratch, _ = _run(net, injections, shared_cache=False, delta=False)
    problems = []
    if _fingerprints(delta) != _fingerprints(scratch):
        problems.append("aggregate fingerprints diverge from scratch rerun")
    want = _projections(scratch)
    got = _projections(delta)
    for key, expected in want.items():
        if got.get(key) != expected:
            spliced = any(
                report.delta_spliced_from
                for report in delta.jobs
                if port_key(report.element, report.port) == key
            )
            problems.append(
                f"{key}: delta answer diverges"
                + (" (port was spliced — unsound skip)" if spliced else "")
            )
    if all(kind == "noop" for kind, _, _ in plan):
        executed = [r.source_key for r in delta.jobs if not r.delta_spliced_from]
        if executed:
            problems.append(f"no-op rewrite re-executed {executed}")
    return problems


class TestEditFuzz:
    @pytest.mark.parametrize("family", ["stanford", "department"])
    def test_seed_pinned_random_edits_never_change_answers(
        self, tmp_path, family
    ):
        for case in range(FUZZ_CASES):
            case_seed = SEED + case * 7919 + (0 if family == "stanford" else 1)
            rng = random.Random(case_seed)
            plan_dir = tmp_path / f"plan-{family}-{case}"
            exporter = (
                _export_stanford if family == "stanford" else _export_department
            )
            exporter(plan_dir, seed=case_seed)
            plan = [
                _plan_edit(rng, str(plan_dir)) for _ in range(rng.randint(1, 3))
            ]
            problems = _check_edits(
                tmp_path, f"case-{family}-{case}", family, case_seed, plan
            )
            if not problems:
                continue
            # Greedy shrink: replay each edit alone on a fresh export and
            # report the minimal failing one.
            for index, edit in enumerate(plan):
                sub = _check_edits(
                    tmp_path,
                    f"shrink-{family}-{case}-{index}",
                    family,
                    case_seed,
                    [edit],
                )
                if sub:
                    pytest.fail(
                        f"seed {case_seed}: minimal failing edit "
                        f"{edit[0]} on {edit[1]}: {sub}"
                    )
            pytest.fail(
                f"seed {case_seed}: edits "
                f"{[(kind, name) for kind, name, _ in plan]} "
                f"fail only in combination: {problems}"
            )


# ---------------------------------------------------------------------------
# Degenerate directory-identity keys (the stale-identity bugfix)
# ---------------------------------------------------------------------------


class TestDegenerateIdentityKeys:
    """Two mechanisms, two rules.  The *stat key* (``NetworkSource``) of
    state it could not observe never compares equal, so nothing cached is
    shared across it; the *content identity* needs no such rule, because
    bytes that could not be read have no build to identify."""

    def test_unreadable_topology_keys_never_compare_equal(self, tmp_path):
        from repro.api.model import NetworkModel
        from repro.core.campaign import NetworkSource

        broken = tmp_path / "broken"
        other = tmp_path / "other"
        broken.mkdir()
        other.mkdir()
        # Two broken directories — and the *same* broken directory keyed
        # twice — must never share a stat key a cache could hit.
        def key(directory):
            return NetworkSource.from_directory(str(directory)).cache_key()

        assert key(broken) != key(other)
        assert key(broken) != key(broken)
        # And an unreadable directory has no fingerprint because it has no
        # build: asking raises what building raises.
        with pytest.raises(OSError):
            NetworkModel.from_directory(str(broken)).fingerprint()

    def test_stat_failed_device_file_keys_never_compare_equal(
        self, tmp_path, monkeypatch
    ):
        from repro.core.campaign import NetworkSource

        _export_stanford(tmp_path)
        target = os.path.join(str(tmp_path), "acl0.acl")
        real_stat = os.stat

        def failing_stat(path, *args, **kwargs):
            if os.fspath(path) == target:
                raise OSError("permission denied")
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", failing_stat)
        first = NetworkSource.from_directory(str(tmp_path))
        second = NetworkSource.from_directory(str(tmp_path))
        assert first != second
        assert first.cache_key() != second.cache_key()

    def test_degenerate_stat_key_shares_no_build(
        self, tmp_path, monkeypatch
    ):
        """A model whose stat scan could not see a device file still reads
        and builds the directory, so it has the exact identity of those
        bytes (its plans are cacheable); what it must not do is share its
        *build* with a source that could not prove it saw the same disk."""
        from repro.api import Loop
        from repro.api.model import NetworkModel

        _export_stanford(tmp_path / "net")
        directory = str(tmp_path / "net")
        target = os.path.join(directory, "acl0.acl")
        real_stat = os.stat
        state = {"failed": False}

        def flaky_stat(path, *args, **kwargs):
            if not state["failed"] and os.fspath(path) == target:
                state["failed"] = True
                raise OSError("transient stat failure")
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", flaky_stat)
        clear_runtime_cache()
        model = NetworkModel.from_directory(directory)
        assert state["failed"]
        healthy = NetworkModel.from_directory(directory)
        assert healthy.network() is not model.network()
        assert model.fingerprint() == healthy.fingerprint() is not None

        store = VerificationStore(str(tmp_path / "store"))
        assert not model.query(Loop(), store=store).from_cache
        clear_runtime_cache()
        assert NetworkModel.from_directory(directory).query(
            Loop(), store=store
        ).from_cache
