"""Delta verification: re-verify only what a change touched.

The paper's operational pitch is verification fast enough to run on every
network change — but a naive rerun after editing one device file re-executes
every injection port.  This module closes that gap for snapshot-directory
networks:

* :class:`ElementManifest` is the per-element content identity a build
  records (``topology.txt`` digest + per-snapshot-file digest + the element
  names each file expanded into) — see
  :func:`repro.parsers.topology_file.load_network_directory`, which attaches
  it to the network it returns at zero extra I/O.
* :func:`diff_manifests` compares the manifest a previous campaign ran
  against with the manifest of the directory as it stands now, yielding the
  *touched element set* (or "incompatible" when the topology itself changed
  and a full rerun is the only sound answer).
* :func:`affected_injections` maps touched elements to the injection ports
  whose answers could depend on them, via the element-level reverse link
  closure (:func:`repro.network.view.elements_reaching`) — a sound
  over-approximation of anything the engine can traverse.
* :class:`CampaignBaseline` packages a previous run's manifest plus its
  per-port :class:`~repro.core.jobs.JobReport` payloads.
* :class:`DeltaReducer` is the pipeline stage built from those parts: it
  splices baseline reports for unaffected ports into the fresh result,
  leaves only the rest on the run list (one edited ACL on a wide network ≈
  one engine job, and symmetry still collapses whatever does rerun), and
  records the finished run as the next run's baseline.

The standing invariant applies: delta on/off changes which tier answers,
never the answer — a spliced result is bit-identical to a full rerun.
Anything malformed, stale or unprovable therefore degrades to "execute the
job", never to "trust the baseline".
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.facts import REPORT_FIELDS, SEMANTIC_FIELDS
from repro.core.jobs import CampaignJob, JobReport, job_config_digest
from repro.core.sources import NetworkSource
from repro.network.view import elements_reaching
from repro.obs import get_tracer

#: Baseline payload format version; bump on incompatible layout changes
#: (readers reject unknown versions and fall back to a full rerun).
BASELINE_FORMAT = 1

@dataclass
class ElementManifest:
    """Per-element content identity of one snapshot directory build."""

    #: sha256 of the exact ``topology.txt`` bytes the build parsed.
    topology_digest: str
    #: snapshot file name -> {"digest": sha256 hex, "elements": [names]}.
    files: Dict[str, Dict[str, object]]

    def to_payload(self) -> Dict[str, object]:
        return {
            "topology_digest": self.topology_digest,
            "files": {
                name: {
                    "digest": str(entry.get("digest", "")),
                    "elements": sorted(str(e) for e in entry.get("elements", ())),
                }
                for name, entry in self.files.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: object) -> Optional["ElementManifest"]:
        """Parse a manifest payload, ``None`` on anything malformed."""
        if not isinstance(payload, Mapping):
            return None
        digest = payload.get("topology_digest")
        files = payload.get("files")
        if not isinstance(digest, str) or not isinstance(files, Mapping):
            return None
        parsed: Dict[str, Dict[str, object]] = {}
        for name, entry in files.items():
            if not isinstance(entry, Mapping) or not isinstance(
                entry.get("digest"), str
            ):
                return None
            parsed[str(name)] = {
                "digest": entry["digest"],
                "elements": [str(e) for e in entry.get("elements", ())],
            }
        return cls(topology_digest=digest, files=parsed)

    @classmethod
    def of_network(cls, network: object) -> Optional["ElementManifest"]:
        """The manifest a directory build attached to its network
        (``None`` for networks that did not come from a directory)."""
        return cls.from_payload(getattr(network, "source_manifest", None))


@dataclass(frozen=True)
class ManifestDiff:
    """What changed between two builds of the same directory."""

    compatible: bool
    reason: str = ""
    touched_files: Tuple[str, ...] = ()
    touched_elements: Tuple[str, ...] = ()


def diff_manifests(old: ElementManifest, new: ElementManifest) -> ManifestDiff:
    """The touched element set between two manifests, or "incompatible"
    when the link structure itself may have changed (topology edit,
    referenced-file set change): element-level splicing is only sound when
    both builds share one link graph, which an identical ``topology.txt``
    guarantees."""
    if old.topology_digest != new.topology_digest:
        return ManifestDiff(False, "topology.txt changed")
    if set(old.files) != set(new.files):
        return ManifestDiff(False, "referenced snapshot set changed")
    touched_files = sorted(
        name
        for name in new.files
        if new.files[name]["digest"] != old.files[name]["digest"]
    )
    touched: Set[str] = set()
    for name in touched_files:
        # Union of both sides: an edit can change which elements a file
        # expands into (click configs), and an element present in either
        # build taints every port that could reach its name.
        touched.update(str(e) for e in old.files[name].get("elements", ()))
        touched.update(str(e) for e in new.files[name].get("elements", ()))
    return ManifestDiff(True, "", tuple(touched_files), tuple(sorted(touched)))


def affected_injections(
    network: object,
    injections: Iterable[Tuple[str, str]],
    touched_elements: Iterable[str],
) -> Set[Tuple[str, str]]:
    """The injection ports whose answers could depend on a touched element:
    every port whose element reaches a touched name along the link graph."""
    touched = set(touched_elements)
    if not touched:
        return set()
    reaching = elements_reaching(network, touched)
    return {(elem, port) for elem, port in injections if elem in reaching}


def report_to_payload(report: object) -> Dict[str, object]:
    """One JobReport's semantic content as a JSON-able payload (the
    inverse of :func:`report_from_payload`)."""
    return {name: getattr(report, name) for name in SEMANTIC_FIELDS}


def report_from_payload(
    payload: Mapping[str, object], spliced_from: str
) -> JobReport:
    """Rebuild a JobReport from a baseline payload.  Solver and timing
    counters stay zero — no engine work happened for this port — and the
    report is marked with where it was spliced from, so JSON consumers can
    tell a reused answer from a recomputed one."""
    return JobReport(
        element=str(payload["element"]),
        port=str(payload["port"]),
        delta_spliced_from=spliced_from,
        **{spec.name: spec.rebuild(payload[spec.name]) for spec in REPORT_FIELDS},
    )


@dataclass
class CampaignBaseline:
    """A previous campaign's manifest plus its per-port report payloads —
    what delta verification splices unaffected answers from."""

    manifest: ElementManifest
    #: ``element:port`` -> {"config": job config digest, "report": payload}.
    reports: Dict[str, Dict[str, object]]
    #: Directory the baseline was recorded for (informational).
    source: str = ""

    def report_for(
        self, key: str, config: str
    ) -> Optional[Mapping[str, object]]:
        """The stored payload for one port, but only when the job that
        produced it ran under exactly the same behaviour-relevant config
        (packet, queries, budgets — see ``job_config_digest``)."""
        entry = self.reports.get(key)
        if not isinstance(entry, Mapping) or entry.get("config") != config:
            return None
        payload = entry.get("report")
        return payload if isinstance(payload, Mapping) else None

    def to_payload(self) -> Dict[str, object]:
        return {
            "format": BASELINE_FORMAT,
            "source": self.source,
            "manifest": self.manifest.to_payload(),
            "reports": self.reports,
        }

    @classmethod
    def from_payload(cls, payload: object) -> Optional["CampaignBaseline"]:
        """Parse a baseline payload; ``None`` on anything malformed (the
        caller falls back to a full rerun — baselines are an accelerator,
        never a prerequisite)."""
        if not isinstance(payload, Mapping):
            return None
        if payload.get("format") != BASELINE_FORMAT:
            return None
        manifest = ElementManifest.from_payload(payload.get("manifest"))
        reports = payload.get("reports")
        if manifest is None or not isinstance(reports, Mapping):
            return None
        return cls(
            manifest=manifest,
            reports={str(k): dict(v) for k, v in reports.items()},
            source=str(payload.get("source", "")),
        )


def baseline_payload(
    manifest: ElementManifest,
    configs: Mapping[str, str],
    reports: Iterable[object],
    source: str = "",
) -> Dict[str, object]:
    """Package a finished campaign as the next run's baseline.  Errored
    reports are left out (their answer is not an answer); everything else —
    executed, symmetry-instantiated or itself spliced — carries the same
    semantic content a fresh run would produce, so all of it is reusable."""
    entries: Dict[str, Dict[str, object]] = {}
    for report in reports:
        if getattr(report, "error", None) is not None:
            continue
        key = report.source_key
        config = configs.get(key)
        if config is None:
            continue
        entries[key] = {"config": config, "report": report_to_payload(report)}
    return CampaignBaseline(
        manifest=manifest, reports=entries, source=source
    ).to_payload()


class DeltaReducer:
    """The delta stage of the campaign pipeline (see
    :meth:`repro.core.campaign.VerificationCampaign.run` for the reducer
    contract): ``partition`` answers from the baseline every job the
    directory diff provably did not touch, ``finish`` writes the stage's
    summary and records the run as the directory's next baseline.

    Nothing is spliced unless ``enabled``.  ``baseline`` is an explicit
    :class:`CampaignBaseline` (a ``--save-baseline`` file, a scenario's
    previous state); without one, directory campaigns auto-detect the
    baseline ``store`` recorded.  ``store`` is ``None`` whenever the
    campaign's cache stack is off: an isolated run neither reads nor feeds
    any tier."""

    name = "delta"

    def __init__(
        self,
        source: NetworkSource,
        network: Callable[[], object],
        *,
        enabled: bool,
        baseline: Optional[CampaignBaseline],
        store: Optional[object],
    ) -> None:
        self._directory = source.directory if source.kind == "directory" else None
        self._network = network
        self._enabled = enabled
        self._baseline = baseline
        self._store = store
        self._jobs: List[CampaignJob] = []
        self._info: Dict[str, object] = {}

    def partition(
        self, jobs: List[CampaignJob]
    ) -> Tuple[List[CampaignJob], Sequence[JobReport]]:
        """Split the job set against the baseline.  A job is spliced —
        answered from the baseline without touching the engine — only when
        every link in the proof holds: the topology is unchanged, the job's
        element cannot reach any touched element along the link graph, and
        the baseline holds a report for this exact port under this exact
        job config.  Any gap leaves the job on the run list; delta never
        degrades an answer."""
        self._jobs = jobs
        if not self._enabled:
            return jobs, ()
        baseline, origin = self._baseline, "file"
        if baseline is None and self._store is not None and self._directory:
            baseline = CampaignBaseline.from_payload(
                self._store.get_baseline(self._directory)
            )
            origin = "store"
        if baseline is None:
            return jobs, ()
        manifest = ElementManifest.of_network(self._network())
        diff = (
            diff_manifests(baseline.manifest, manifest)
            if manifest is not None
            else ManifestDiff(False, "no build manifest")
        )
        if not diff.compatible:
            self._info = {
                "spliced": 0, "executed": len(jobs), "reason": diff.reason
            }
            return jobs, ()
        affected = affected_injections(
            self._network(),
            [(job.element, job.port) for job in jobs],
            diff.touched_elements,
        )
        run: List[CampaignJob] = []
        payloads: List[Mapping[str, object]] = []
        for job in jobs:
            payload = None
            if (job.element, job.port) not in affected:
                payload = baseline.report_for(
                    job.source_key, job_config_digest(job)
                )
            if payload is None:
                run.append(job)
            else:
                payloads.append(payload)
        with get_tracer().span("delta.splice", count=len(payloads)):
            spliced = [
                report_from_payload(payload, spliced_from=origin)
                for payload in payloads
            ]
        self._info = {
            "spliced": len(spliced),
            "executed": len(run),
            "executed_ports": sorted(job.source_key for job in run),
            "baseline": origin,
            "touched_files": list(diff.touched_files),
            "touched_elements": list(diff.touched_elements),
        }
        return run, spliced

    def expand(self, report: JobReport) -> Sequence[JobReport]:
        return ()

    def finish(self, result) -> None:
        result.delta_info = dict(self._info)
        if not self._directory:
            return
        # Record this run as the directory's delta baseline: the build
        # manifest plus every non-errored report (executed, instantiated or
        # itself spliced — all carry the same semantic content a fresh run
        # would).  Attached to the result for --save-baseline; persisted in
        # the store so the next campaign auto-detects it.
        with get_tracer().span("baseline.record", jobs=len(result.jobs)):
            manifest = ElementManifest.of_network(self._network())
            if manifest is None:
                return
            result.baseline_payload = baseline_payload(
                manifest,
                {job.source_key: job_config_digest(job) for job in self._jobs},
                result.jobs,
                source=os.path.abspath(self._directory),
            )
            if self._enabled and self._store is not None:
                self._store.put_baseline(
                    self._directory, result.baseline_payload
                )
