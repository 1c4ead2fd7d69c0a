"""The resident verification service: hot models, one pool, one store.

:class:`VerificationService` is the long-lived object behind ``repro.cli
serve``.  It owns exactly the state a batch CLI run pays to rebuild on
every invocation:

* **resident models** — built :class:`~repro.api.NetworkModel` s keyed by
  their network spec, so the second request over a network skips the
  build.  Directory models re-take the source's stat key on every reuse
  and rebuild when the snapshot's files drifted — a resident service must
  never answer for bytes it is no longer looking at.
* **one worker pool** — a persistent :class:`ProcessPoolExecutor` lent to
  every campaign (``workers > 1``), so requests stop paying process
  start-up.
* **one store** — a single :class:`~repro.store.VerificationStore` shared
  by every request: plan-cache hits, verdict warm starts and delta
  baselines accumulate across clients.

Scheduling: admitted requests land on a bounded queue.  A scheduler task
drains the queue in **groups** — it takes the first waiting request, then
keeps collecting for ``batch_window`` seconds — and partitions each group
by compatibility key (same network, same execution settings).  Every
partition is compiled into **one** :func:`~repro.api.planner.compile_plan`
call: the plan compiler dedups injection ports across the merged batch, so
two clients asking about the same port share one engine job.  Requests
that arrive while a group is executing wait on the queue and merge into
the next group.

Results stream: the merged plan runs through
:func:`~repro.api.planner.execute_plan_streaming`, and each query's answer
is forwarded to its owning client the moment its port scope has reported —
before the slowest job of the merged plan lands.  Streamed answers are
bit-identical to the batch path by construction (see the planner module).

Admission control is a bounded queue: when ``max_pending`` requests are
already waiting, new queries get an explicit ``overloaded`` response.  The
service never silently drops or degrades an admitted request.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.api import NetworkModel, compile_plan, execute_plan_streaming, parse_query
from repro.api.queries import Query
from repro.core.campaign import NetworkSource, execution_counters
from repro.core.queries import ensure_core_families
from repro.core.settings import RunSettings
from repro.obs import MetricsRegistry, get_registry
from repro.obs.metrics import (
    SERVE_EVENTS,
    SERVE_MODELS_RESIDENT,
    SERVE_PENDING,
    SERVE_REQUEST_SECONDS,
    SERVE_WORKERS,
)
from repro.serve import protocol
from repro.serve.protocol import ProtocolError

_LOG = logging.getLogger(__name__)


def results_digest(fingerprints: Iterable[str]) -> str:
    """Order-independent digest over a request's per-query result
    fingerprints — the ``fingerprint`` of a ``done`` message.  Computed
    from result fingerprints only (no plan identity), so a client can
    reproduce it from a standalone batch run of the same queries and
    compare bit-for-bit, no matter which other requests the service merged
    into the shared plan."""
    payload = tuple(sorted(fingerprints))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@dataclass
class Request:
    """One admitted ``query`` request, parsed and ready to merge."""

    request_id: str
    session: object  # anything with send_nowait(message)
    model_key: Tuple
    queries: Tuple[Query, ...]
    settings: RunSettings

    @property
    def compat_key(self) -> Tuple:
        """Requests merge into one plan only over the same network under
        the same settings."""
        return (self.model_key, self.settings)


#: Keys of a ``query`` message that are not run settings.
_ENVELOPE = ("op", "id", "network", "queries")


def _parse_request(request_id: str, session, message: Dict[str, object]) -> Request:
    network = message.get("network")
    if not isinstance(network, dict):
        raise ProtocolError("query needs a 'network' object")
    if "directory" in network:
        directory = network["directory"]
        if not isinstance(directory, str):
            raise ProtocolError("'network.directory' must be a string")
        model_key: Tuple = ("directory", os.path.abspath(directory))
    elif "workload" in network:
        name = network["workload"]
        if not isinstance(name, str):
            raise ProtocolError("'network.workload' must be a string")
        options = network.get("options", {})
        if not isinstance(options, dict):
            raise ProtocolError("'network.options' must be an object")
        model_key = ("workload", name, tuple(sorted(options.items())))
    else:
        raise ProtocolError("'network' needs a 'directory' or 'workload' key")

    texts = message.get("queries")
    if not isinstance(texts, list) or not texts:
        raise ProtocolError("query needs a non-empty 'queries' list")
    queries = []
    for text in texts:
        if not isinstance(text, str):
            raise ProtocolError(f"queries must be strings, got {type(text).__name__}")
        try:
            queries.append(parse_query(text))
        except Exception as exc:
            raise ProtocolError(f"bad query {text!r}: {exc}")

    # Every other key must be a run setting: a misspelt budget that was
    # silently ignored would answer as if it applied.
    options = {k: v for k, v in message.items() if k not in _ENVELOPE}
    unknown = sorted(set(options) - set(protocol.SETTINGS))
    if unknown:
        raise ProtocolError(
            f"unknown setting(s) {unknown}; known: {', '.join(protocol.SETTINGS)}"
        )
    try:
        settings = RunSettings(
            **{protocol.SETTINGS[key]: value for key, value in options.items()}
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad settings: {exc}")

    return Request(
        request_id=request_id,
        session=session,
        model_key=model_key,
        queries=tuple(queries),
        settings=settings,
    )


#: The scheduler events ``repro_serve_events_total`` counts by ``event``
#: label, and the ``stats`` verb's ``service`` block reports.
_EVENTS = (
    "requests",
    "groups",
    "merged_requests",
    "plans_executed",
    "plan_cache_hits",
    "results_streamed",
    "model_builds",
    "model_rebuilds",
    "overloaded",
    "errors",
)


class VerificationService:
    """Resident state plus the batch-window scheduler (see module docs)."""

    #: Requests slower than this end-to-end land in the slow-request log
    #: the ``metrics`` verb exposes.
    slow_request_seconds = 1.0
    #: Bounded: the log is a diagnostic window, not an archive.
    slow_request_limit = 32

    def __init__(
        self,
        *,
        workers: int = 1,
        store=None,
        max_pending: int = 8,
        batch_window: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.workers = workers
        self.store = store
        self.max_pending = max_pending
        self.batch_window = batch_window
        #: Per-service registry: scheduler counters and request-latency
        #: histograms live here (not in the process-global registry, so
        #: two services in one process never mix their stats); the
        #: ``metrics`` verb renders this registry plus the global one.
        self.registry = MetricsRegistry()
        self._events = SERVE_EVENTS.get(self.registry)
        for event in _EVENTS:
            self._events.inc(0, event=event)
        self.slow_requests: Deque[Dict[str, object]] = deque(
            maxlen=self.slow_request_limit
        )
        self._request_seconds = SERVE_REQUEST_SECONDS.get(self.registry)
        self._models: Dict[Tuple, NetworkModel] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._scheduler_task = self._loop.create_task(self._scheduler())

    async def stop(self) -> None:
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def _pool_for_run(self) -> Optional[ProcessPoolExecutor]:
        """The persistent pool, created on first multi-worker run.  The
        campaign probes a borrowed pool before trusting it and falls back
        to in-process execution if it is broken, so a pool that dies stays
        a performance problem, never a correctness one."""
        if self.workers <= 1:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    # -- request entry ----------------------------------------------------------

    async def handle(self, session, message: Dict[str, object]) -> None:
        """Dispatch one decoded client message (called by the session read
        loop, on the event loop)."""
        op = message.get("op")
        request_id = str(message.get("id", ""))
        if op == "ping":
            session.send_nowait(protocol.pong(request_id))
            return
        if op == "stats":
            session.send_nowait(self._stats_message(request_id))
            return
        if op == "metrics":
            session.send_nowait(
                protocol.metrics(
                    request_id,
                    self.metrics_text(),
                    list(self.slow_requests),
                )
            )
            return
        if op != "query":
            session.send_nowait(
                protocol.error(request_id, f"unknown op {op!r}")
            )
            return
        self._events.inc(event="requests")
        # Admission control: a full queue refuses loudly instead of letting
        # latency (or memory) grow without bound.
        if self._queue.qsize() >= self.max_pending:
            self._events.inc(event="overloaded")
            session.send_nowait(
                protocol.overloaded(
                    request_id, self._queue.qsize(), self.max_pending
                )
            )
            return
        try:
            request = _parse_request(request_id, session, message)
        except ProtocolError as exc:
            self._events.inc(event="errors")
            session.send_nowait(protocol.error(request_id, str(exc)))
            return
        self._queue.put_nowait(request)

    def metrics_text(self) -> str:
        """The live Prometheus exposition: this service's scheduler series
        (event counters, request-latency histogram, admission gauges)
        concatenated with the process-global registry (cache-tier hits,
        job-latency histogram, degraded operations — everything the
        campaigns running in this process published)."""
        self._service_block()
        ensure_core_families()
        return self.registry.render_prometheus() + get_registry().render_prometheus()

    def _service_block(self) -> Dict[str, int]:
        """The ``stats`` verb's ``service`` block, read off the registry:
        every event count, then the admission gauges, set as they are
        read — so ``stats`` and ``metrics`` can never disagree."""
        block = {event: int(self._events.value(event=event)) for event in _EVENTS}
        pending = self._queue.qsize() if self._queue is not None else 0
        for family, key, value in (
            (SERVE_MODELS_RESIDENT, "models_resident", len(self._models)),
            (SERVE_PENDING, "pending", pending),
            (SERVE_WORKERS, "workers", self.workers),
        ):
            family.get(self.registry).set(value)
            block[key] = value
        return block

    def _stats_message(self, request_id: str) -> Dict[str, object]:
        return {
            "type": "stats",
            "id": request_id,
            "service": self._service_block(),
            # Engine-run counters of *this* process: with workers=1 every
            # merged job executes here, so cross-client dedup is directly
            # observable (pool workers count their runs in their own
            # processes).
            "execution": execution_counters(),
        }

    # -- the scheduler ----------------------------------------------------------

    async def _scheduler(self) -> None:
        while True:
            group = [await self._queue.get()]
            deadline = self._loop.time() + self.batch_window
            while True:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    group.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            buckets: Dict[Tuple, List[Request]] = {}
            for request in group:
                buckets.setdefault(request.compat_key, []).append(request)
            for bucket in buckets.values():
                await self._run_group(bucket)

    def _resident_model(self, request: Request) -> NetworkModel:
        """The hot model for a request's network spec, rebuilt when a
        directory spec's snapshot files no longer stat the way they did
        when the model was made (a resident model must answer for the bytes
        on disk *now*)."""
        key = request.model_key
        if key[0] == "directory":
            source = NetworkSource.from_directory(key[1])
        else:
            source = NetworkSource.from_workload(key[1], **dict(key[2]))
        model = self._models.get(key)
        if model is not None and source != model.source:
            self._events.inc(event="model_rebuilds")
            model = None
        if model is None:
            model = NetworkModel(source)
            model.network()  # build now: residency means paying this once
            self._events.inc(event="model_builds")
            self._models[key] = model
        return model

    async def _run_group(self, requests: List[Request]) -> None:
        """Merge one compatible request group into a single plan, execute
        it streaming, and route each answer to its owning session."""
        self._events.inc(event="groups")
        self._events.inc(len(requests), event="merged_requests")
        loop = self._loop

        def post(session, message: Dict[str, object]) -> None:
            # Called from the executor thread: hop to the event loop.
            loop.call_soon_threadsafe(session.send_nowait, message)

        def work():
            model = self._resident_model(requests[0])
            # Merge: one plan entry per distinct canonical query text across
            # the group ("loop" and "loop()" are one entry); routes maps
            # each merged index back to every (request, local index) that
            # asked it.
            merged: List[Query] = []
            index_of: Dict[str, int] = {}
            routes: Dict[int, List[Tuple[Request, int]]] = {}
            for request in requests:
                for local, query in enumerate(request.queries):
                    text = query.describe()
                    if text not in index_of:
                        index_of[text] = len(merged)
                        merged.append(query)
                    routes.setdefault(index_of[text], []).append(
                        (request, local)
                    )
            plan = compile_plan(model, merged, **vars(requests[0].settings))
            for request in requests:
                post(
                    request.session,
                    protocol.accepted(
                        request.request_id,
                        plan.job_count,
                        len(request.queries),
                        len(requests),
                    ),
                )
            # Keyed by request identity, not request id: ids are chosen by
            # clients and two merged sessions may well have picked the
            # same one.
            streamed_fingerprints: Dict[int, List[str]] = {
                id(request): [] for request in requests
            }

            def on_result(index, query_result, jobs_reported, jobs_total):
                payload = query_result.to_dict()
                for request, local in routes.get(index, ()):
                    self._events.inc(event="results_streamed")
                    streamed_fingerprints[id(request)].append(
                        query_result.fingerprint
                    )
                    post(
                        request.session,
                        protocol.result(
                            request.request_id,
                            local,
                            payload,
                            jobs_reported,
                            jobs_total,
                        ),
                    )

            plan_result = execute_plan_streaming(
                plan,
                workers=self.workers,
                store=self.store,
                pool=self._pool_for_run(),
                on_result=on_result,
            )
            return plan_result, streamed_fingerprints

        group_started = time.perf_counter()
        try:
            plan_result, fingerprints = await loop.run_in_executor(None, work)
        except Exception as exc:  # any failure answers every merged client
            self._events.inc(event="errors")
            _LOG.warning(
                "request group of %d failed, answering every merged "
                "client with an error: %s", len(requests), exc,
            )
            for request in requests:
                request.session.send_nowait(
                    protocol.error(request.request_id, str(exc))
                )
            return
        elapsed = time.perf_counter() - group_started
        self._request_seconds.observe(elapsed)
        if elapsed >= self.slow_request_seconds:
            self.slow_requests.append(
                {
                    "seconds": round(elapsed, 6),
                    "requests": len(requests),
                    "queries": sorted(
                        {q.describe() for r in requests for q in r.queries}
                    ),
                    "jobs": plan_result.plan.job_count,
                    "from_cache": plan_result.from_cache,
                }
            )
            _LOG.warning(
                "slow request group: %.3fs for %d merged request(s)",
                elapsed, len(requests),
            )
        self._events.inc(event="plans_executed")
        if plan_result.from_cache:
            self._events.inc(event="plan_cache_hits")
        stats = plan_result.stats
        stats_payload = stats.to_dict() if stats is not None else {}
        for request in requests:
            request.session.send_nowait(
                protocol.done(
                    request.request_id,
                    results_digest(fingerprints[id(request)]),
                    plan_result.from_cache,
                    stats_payload,
                )
            )
