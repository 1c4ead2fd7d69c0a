"""Job-level symmetry reduction: one engine run per renaming class.

Many campaign jobs are literal renamings of each other (the 16 stanford
zones).  :class:`SymmetryReducer` encodes the network once as an entity
graph (:mod:`repro.network.view`), reads candidate classes off its stable
colouring, canonicalises only the jobs that share a candidate class, groups
them by canonical fingerprint, leaves one representative per class on the
run list and — when a representative's report arrives — *instantiates* the
member reports by applying the recorded bijection to every picklable
artifact.

The standing invariant applies: symmetry on/off changes which tier answers,
never the answer — anything the renaming machinery cannot prove falls back
to direct execution, and the audit mode re-executes one random member per
class to assert the instantiated report is bit-identical to a direct run.
"""

from __future__ import annotations

import logging
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.facts import REPORT_FIELDS
from repro.core.jobs import (
    CampaignJob,
    JobReport,
    execute_job,
    job_config_digest,
    packet_program,
    semantic_projection,
)
from repro.core.settings import RunSettings
from repro.network.topology import Network
from repro.network.view import (
    CampaignSymmetryView,
    SymmetryUnsupported,
    build_renaming,
    collect_constants,
)
from repro.obs import get_tracer

_LOG = logging.getLogger(__name__)


class SymmetryAuditError(RuntimeError):
    """An instantiated report differs from direct execution — the symmetry
    encoding is unsound for this network and must be fixed, not tolerated."""


def instantiate_report(
    rep: JobReport, member: CampaignJob, renaming, class_id: str
) -> JobReport:
    """A member's JobReport, derived from its class representative's run by
    renaming every port/element/message string (the ``Text`` leaves of the
    declared report shapes; names and counters are equal across the class).
    The solver delta and timings stay zero: no engine work happened for this
    job.  A renaming that folds two keys into one raises ``ValueError``."""
    return JobReport(
        element=member.element,
        port=member.port,
        symmetry_class=class_id,
        symmetry_instantiated_from=rep.source_key,
        **{
            spec.name: spec.rebuild(getattr(rep, spec.name), renaming.map_text)
            for spec in REPORT_FIELDS
        },
    )


class SymmetryReducer:
    """The symmetry stage of the campaign pipeline (see
    :meth:`repro.core.campaign.VerificationCampaign.run` for the reducer
    contract): ``partition`` keeps one representative per renaming class on
    the run list, ``expand`` derives the members from a finished
    representative, ``finish`` writes the stage's counters."""

    name = "symmetry"

    def __init__(
        self,
        network: Callable[[], Network],
        settings: RunSettings,
    ) -> None:
        self._network = network
        self._enabled = settings.symmetry
        self._audit = settings.symmetry_audit
        self._audit_seed = settings.symmetry_audit_seed
        self._view: Optional[CampaignSymmetryView] = None
        #: (element, port) -> canonical form, for every job that shares its
        #: port's stable colour and its configuration with another — the one
        #: place a campaign's forms are held.
        self._forms: Dict[Tuple[str, str], object] = {}
        #: representative (element, port) -> (member jobs, class
        #: fingerprint, audited member index or -1).
        self._classes: Dict[Tuple[str, str], Tuple[List[CampaignJob], str, int]] = {}
        self._class_count = 0
        self._audit_runs = 0

    def partition(
        self, jobs: List[CampaignJob]
    ) -> Tuple[List[CampaignJob], Sequence[JobReport]]:
        """Partition the job set into renaming-equivalence classes; jobs
        that symmetry is off for / cannot help / cannot prove stay on the
        run list untouched (as do jobs whose facts are discovery-order
        sensitive — see :attr:`repro.core.facts.Facts.order_sensitive`)."""
        eligible = [job for job in jobs if not job.facts.order_sensitive]
        if not self._enabled or len(eligible) < 2:
            return jobs, ()
        try:
            pinned: set = set()
            for settings in {job.settings for job in eligible}:
                pinned.update(collect_constants(packet_program(settings)))
            self._view = CampaignSymmetryView(self._network(), pinned)
        except (SymmetryUnsupported, ValueError, KeyError) as exc:
            # Unknown template etc.: execute_job will report it.
            _LOG.info(
                "symmetry not applied, every job runs directly: %s: %s",
                type(exc).__name__,
                exc,
            )
            return jobs, ()
        # Candidate classes come off the network's shared stable colouring:
        # ports of different colours (or jobs of different configurations)
        # lie in different automorphism orbits, so a job alone in its
        # candidate set is a proven singleton and is never canonicalised.
        candidates: Dict[Tuple[int, str], List[CampaignJob]] = {}
        for job in eligible:
            try:
                color = self._view.port_color(job.element, job.port)
            except SymmetryUnsupported:
                continue
            candidates.setdefault((color, job_config_digest(job)), []).append(job)
        grouped: Dict[str, List[CampaignJob]] = {}
        for (_, digest), sharing in candidates.items():
            if len(sharing) < 2:
                continue
            for job in sharing:
                form = self._view.job_form(job.element, job.port, digest)
                self._forms[(job.element, job.port)] = form
                grouped.setdefault(form.fingerprint, []).append(job)
        unencoded = len(eligible) - sum(map(len, candidates.values()))
        if unencoded:
            _LOG.info(
                "symmetry could not encode %d of %d eligible jobs; they run "
                "directly",
                unencoded,
                len(eligible),
            )
        # Pre-draw the audited member index for every class, in fingerprint
        # order: drawing everything upfront keeps the seeded choice
        # independent of the order in which representatives *complete*
        # (streamed pool execution reports them as they land), so audit
        # runs stay reproducible under ``--symmetry-audit-seed``.
        rng = random.Random(self._audit_seed)
        member_keys: set = set()
        for fingerprint in sorted(grouped):
            rep, *members = grouped[fingerprint]  # in (element, port) order
            if not members:
                continue
            audited = rng.randrange(len(members)) if self._audit else -1
            self._classes[(rep.element, rep.port)] = (members, fingerprint, audited)
            member_keys.update((member.element, member.port) for member in members)
        get_tracer().annotate(
            eligible=len(eligible), candidates=len(self._forms), classes=len(grouped)
        )
        if not self._classes:
            return jobs, ()
        # Distinct classes over the whole job set (jobs without a form —
        # proven singletons, non-encodable or ineligible ones — count one
        # each): what engine runs drop to.
        self._class_count = len(grouped) + (len(jobs) - len(self._forms))
        return (
            [job for job in jobs if (job.element, job.port) not in member_keys],
            (),
        )

    def expand(self, report: JobReport) -> List[JobReport]:
        """Derive every skipped member's report from its just-completed
        class representative.  Representatives that errored or truncated —
        and members whose renaming cannot be built — fall back to direct
        execution: symmetry must never degrade an answer.

        Audit re-executions are real engine runs whose reports are
        discarded after comparison, so they are counted separately instead
        of silently skewing the classes-plus-skipped accounting."""
        entry = self._classes.get((report.element, report.port))
        if entry is None:
            return []
        members, fingerprint, audited = entry
        with get_tracer().span(
            "symmetry.class",
            representative=report.source_key,
            members=len(members),
        ):
            if report.error is not None or report.truncated:
                return [execute_job(member) for member in members]
            class_id = fingerprint[:16]
            report.symmetry_class = class_id
            rep_form = self._forms[(report.element, report.port)]
            out: List[JobReport] = []
            for index, member in enumerate(members):
                member_form = self._forms[(member.element, member.port)]
                try:
                    renaming = build_renaming(self._view, rep_form, member_form)
                    instantiated = instantiate_report(
                        report, member, renaming, class_id
                    )
                except (SymmetryUnsupported, ValueError):
                    out.append(execute_job(member))
                    continue
                if index == audited:
                    self._audit_runs += 1
                    direct = execute_job(member)
                    if semantic_projection(direct) != semantic_projection(
                        instantiated
                    ):
                        raise SymmetryAuditError(
                            f"symmetry audit failed for "
                            f"{member.element}:{member.port} (class "
                            f"{class_id}, representative "
                            f"{report.source_key}): the instantiated report "
                            "differs from direct execution — the symmetry "
                            "encoding is unsound for this network"
                        )
                out.append(instantiated)
            return out

    def finish(self, result) -> None:
        result.stats.symmetry_classes = self._class_count
        result.stats.symmetry_audit_runs = self._audit_runs
