"""The executor seam: run a list of campaign jobs, somewhere.

:func:`run_jobs` is the only code that knows about process pools, the
``multiprocessing.Manager`` shared verdict tier, the pool startup probe and
``BrokenProcessPool`` recovery.  Everything above it (the campaign pipeline,
the reducers, the resident service) hands it jobs and an ``on_report``
callback and learns nothing but the execution mode that was used — so a
different backend is a change to this module alone.
"""

from __future__ import annotations

import logging
import os
import warnings
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.core.jobs import CampaignJob, JobReport, execute_job
from repro.obs import get_tracer

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_LOG = logging.getLogger(__name__)

#: Job lists shorter than this run in-process even when workers > 1 —
#: forking costs more than the jobs themselves.
MIN_JOBS_FOR_POOL = 2


def _run_in_process(
    jobs: Sequence[CampaignJob], on_report: Callable[[JobReport], None]
) -> None:
    for job in jobs:
        on_report(execute_job(job))


def _shared_tier():
    """A started Manager plus the one verdict dict living in it, or
    ``(None, None)`` when this environment cannot start one — that only
    loses the shared tier, not the run."""
    import multiprocessing

    manager = None
    try:
        manager = multiprocessing.Manager()
        return manager, manager.dict()
    except (OSError, RuntimeError) as exc:
        if manager is not None:
            manager.shutdown()
        _LOG.warning(
            "multiprocessing.Manager unavailable, running without the "
            "process-shared verdict tier: %s", exc,
        )
        return None, None


def run_jobs(
    jobs: List[CampaignJob],
    workers: int,
    pool: Optional[ProcessPoolExecutor],
    on_report: Callable[[JobReport], None],
) -> str:
    """Run every job, calling ``on_report`` as each report completes.
    Returns the execution mode string for the result.

    ``pool`` lends an already-running :class:`ProcessPoolExecutor`
    (service-owned, reused across requests); a borrowed pool is never shut
    down here.  Jobs whose settings leave ``shared_cache`` on get the
    process-shared verdict tier on pool runs: workers publish full-solve
    verdicts as they land, so symmetric jobs on *different* workers stop
    re-solving each other's constraint sets.  The tier is one Manager dict
    and every pool job carries the same proxy to it.

    Failure taxonomy (one ``except (OSError, RuntimeError)`` around the
    whole pool run would conflate all three and silently re-run everything
    sequentially, masking genuine job errors and doubling work):

    * pool *startup* failure — no usable multiprocessing in this
      environment (restricted sandbox, missing semaphores).  Detected by a
      probe submit before any job runs; degrade to in-process.
    * pool *breakage* mid-run — a worker died (OOM kill, segfault).
      ``BrokenProcessPool``; completed reports are kept and only the
      missing jobs re-execute in-process, with a warning.
    * *job-level* exception — ``execute_job`` already folds expected
      failures into ``report.error``, so anything escaping it (or raised by
      ``on_report``) is an infrastructure or invariant bug the caller must
      see: propagate, after the jobs still queued are cancelled.
    """
    if not jobs:
        return "in-process"
    if not (
        workers > 1
        and jobs[0].source.picklable
        and len(jobs) >= MIN_JOBS_FOR_POOL
    ):
        _run_in_process(jobs, on_report)
        return "in-process"

    # The pool machinery loads here, on the pool path only: an in-process
    # run never imports multiprocessing.
    from concurrent.futures import ProcessPoolExecutor, as_completed, wait
    from concurrent.futures.process import BrokenProcessPool

    manager = None
    own_pool = None
    try:
        pool_jobs = jobs
        if get_tracer().enabled:
            # Ask workers to record spans locally and ship them back in
            # report.spans; the driver re-parents them.
            pool_jobs = [replace(job, trace=True) for job in pool_jobs]
        if jobs[0].settings.shared_cache:  # one campaign, one settings object
            manager, tier = _shared_tier()
            if tier is not None:
                pool_jobs = [replace(job, shared_tier=tier) for job in pool_jobs]
        try:
            if pool is None:
                pool = own_pool = ProcessPoolExecutor(
                    max_workers=min(workers, len(jobs))
                )
            # Startup probe: force a worker to spawn before any job is
            # submitted, so this except provably means "no usable
            # multiprocessing" and never swallows a job failure.
            pool.submit(os.getpid).result()
        except (OSError, RuntimeError) as exc:
            _LOG.warning(
                "process pool unavailable (%s); executing %d job(s) "
                "in-process", exc, len(jobs),
            )
            if own_pool is not None:
                own_pool.shutdown(wait=False)
                own_pool = None
            _run_in_process(jobs, on_report)
            return "in-process"
        done_keys = set()
        futures = []
        try:
            futures = [pool.submit(execute_job, job) for job in pool_jobs]
            for future in as_completed(futures):
                report = future.result()
                done_keys.add((report.element, report.port))
                on_report(report)
            return "process-pool"
        except BrokenProcessPool:
            missing = [
                job for job in jobs if (job.element, job.port) not in done_keys
            ]
            warnings.warn(
                "a campaign worker process died mid-run; completed "
                f"reports are kept and the remaining {len(missing)} job(s) "
                "re-execute in-process",
                RuntimeWarning,
                stacklevel=2,
            )
            _run_in_process(missing, on_report)
            return "process-pool-recovered"
        except Exception:
            # A job or ``on_report`` raised: propagate, but only once no job
            # left on a lent pool can still unpickle a proxy of the Manager
            # shut down below — that would kill the pool's workers.
            for future in futures:
                future.cancel()
            wait(futures)
            raise
    finally:
        if own_pool is not None:
            own_pool.shutdown()
        if manager is not None:
            manager.shutdown()
