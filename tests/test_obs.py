"""Tests for the observability layer (repro.obs).

The load-bearing guarantees:

* **no-op by default** — the process-global tracer is a :class:`NullTracer`
  until someone installs a recording one; untraced runs never allocate
  spans;
* **cross-process propagation** — spans recorded inside pool workers ride
  back through the picklable ``JobReport.spans`` channel and are
  re-parented under the driver's campaign span with remapped ids;
* **no blind spots** — every stage of the campaign pipeline runs under a
  span, so the children of a ``campaign`` span cover (nearly) all of it;
* **answer invariance** — tracing changes which telemetry is emitted,
  never the answer (a coordinate of ``tests/test_config_lattice.py``);
* **exposition** — the resident service answers the ``metrics`` protocol
  verb with Prometheus text covering the core families.
"""

import asyncio
import contextlib
import json
import queue as queue_module
import threading

import pytest

from repro.api import NetworkModel
from repro.core.queries import ensure_core_families
from repro.obs import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace,
    get_tracer,
    reset_registry,
    set_tracer,
    write_trace,
)
from repro.obs.metrics import CAMPAIGNS, JOB_SECONDS, JOBS, SOLVER_CHECKS

DEPARTMENT_OPTIONS = dict(access_switches=2, hosts_per_switch=1)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with the no-op tracer and a fresh
    registry — telemetry is process-global state."""
    set_tracer(NullTracer())
    reset_registry()
    yield
    set_tracer(NullTracer())
    reset_registry()


def spans_by_name(spans):
    out = {}
    for span in spans:
        out.setdefault(span["name"], []).append(span)
    return out


# ---------------------------------------------------------------------------
# Tracer units
# ---------------------------------------------------------------------------


class TestTracer:
    def test_default_tracer_is_noop(self):
        tracer = get_tracer()
        assert not tracer.enabled
        with tracer.span("anything", key="value"):
            pass
        assert tracer.export() == []

    def test_spans_nest_by_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
            with tracer.span("sibling"):
                pass
        spans = spans_by_name(tracer.export())
        outer = spans["outer"][0]
        assert outer["parent_id"] == 0
        assert spans["inner"][0]["parent_id"] == outer["span_id"]
        assert spans["sibling"][0]["parent_id"] == outer["span_id"]
        assert spans["inner"][0]["attrs"] == {"detail": 1}
        for span in tracer.export():
            assert span["end_ns"] >= span["start_ns"]

    def test_absorb_remaps_ids_and_reparents_roots(self):
        worker = Tracer()
        with worker.span("job"):
            with worker.span("solver.check"):
                pass
        payloads = worker.export()

        driver = Tracer()
        with driver.span("campaign") as campaign_span:
            driver.absorb(payloads, parent_id=campaign_span.span_id)
        spans = spans_by_name(driver.export())
        job = spans["job"][0]
        assert job["parent_id"] == spans["campaign"][0]["span_id"]
        assert spans["solver.check"][0]["parent_id"] == job["span_id"]
        # Remapping keeps every id unique even though both tracers
        # started their counters at 1.
        ids = [span["span_id"] for span in driver.export()]
        assert len(ids) == len(set(ids))

    def test_noop_absorb_drops_payloads(self):
        worker = Tracer()
        with worker.span("job"):
            pass
        tracer = NullTracer()
        tracer.absorb(worker.export(), parent_id=7)
        assert tracer.export() == []

    def test_chrome_trace_is_complete_events(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        document = chrome_trace(tracer.export())
        events = document["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        json.dumps(document)  # must be serialisable as-is

    def test_write_trace_formats(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        json_path = tmp_path / "trace.json"
        assert write_trace(str(json_path), tracer) == 1
        document = json.loads(json_path.read_text())
        assert [e["name"] for e in document["traceEvents"]] == ["only"]
        jsonl_path = tmp_path / "trace.jsonl"
        assert write_trace(str(jsonl_path), tracer) == 1
        lines = jsonl_path.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "only"


# ---------------------------------------------------------------------------
# Metrics units
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_rendering(self):
        registry = MetricsRegistry()
        counter = Family(Counter, "repro_things_total", "things").get(registry)
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.value(kind="b") == 2
        text = registry.render_prometheus()
        assert "# TYPE repro_things_total counter" in text
        assert 'repro_things_total{kind="a"} 1' in text

    def test_histogram_buckets_sum_count(self):
        histogram = Histogram("repro_lat_seconds", "latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(5.55)
        text = "\n".join(histogram.render())
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1.0"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        Family(Counter, "repro_x_total", "x").get(registry)
        with pytest.raises(ValueError):
            Family(Gauge, "repro_x_total", "x").get(registry)

    def test_core_families_preregistered(self):
        text = ensure_core_families(MetricsRegistry()).render_prometheus()
        for family in (
            "repro_jobs_total",
            "repro_job_seconds",
            "repro_solver_checks_total",
            "repro_degraded_operations_total",
        ):
            assert family in text

    def test_campaign_feeds_registry(self):
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        result = model.campaign().run()
        assert not result.job_errors
        executed = JOBS.get().value(outcome="executed")
        assert executed >= 1
        assert JOB_SECONDS.get().count() == executed
        assert SOLVER_CHECKS.get().value(tier="full_solve") > 0
        assert CAMPAIGNS.get().value() == 1


# ---------------------------------------------------------------------------
# Cross-process propagation and span coverage
# ---------------------------------------------------------------------------


class TestCrossProcess:
    def test_worker_spans_reparented_and_non_overlapping(self):
        tracer = Tracer()
        set_tracer(tracer)
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        result = model.campaign().run(workers=2)
        assert not result.job_errors
        if result.execution_mode != "process-pool":
            pytest.skip("no usable multiprocessing in this environment")
        spans = spans_by_name(tracer.export())
        campaign_span = spans["campaign"][0]
        jobs = spans["job"]
        # One job span per executed engine job, every one hung off the
        # campaign span despite being recorded in another process.
        assert len(jobs) == result.stats.executed_jobs
        assert {job["parent_id"] for job in jobs} == {
            campaign_span["span_id"]
        }
        worker_pids = {job["pid"] for job in jobs}
        assert campaign_span["pid"] not in worker_pids
        # Within one worker the clock is monotonic and jobs run one at a
        # time: their spans must not overlap.
        for pid in worker_pids:
            mine = sorted(
                (job for job in jobs if job["pid"] == pid),
                key=lambda span: span["start_ns"],
            )
            for earlier, later in zip(mine, mine[1:]):
                assert earlier["end_ns"] <= later["start_ns"]

    @pytest.mark.parametrize(
        "workload,options",
        [
            ("department", DEPARTMENT_OPTIONS),
            (
                "stanford",
                dict(zones=16, internal_prefixes_per_zone=12, service_acl_rules=4),
            ),
        ],
    )
    def test_campaign_span_has_no_unattributed_remainder(self, workload, options):
        """A pipeline stage that runs outside every span hides its cost from
        ``--trace-out`` (a job canonicaliser once hid 96 % of this stanford
        run that way): the campaign span's direct children must
        cover at least 95 % of it."""
        tracer = Tracer()
        set_tracer(tracer)
        model = NetworkModel.from_workload(workload, **options)
        model.network()  # the build belongs to the model, not the campaign
        result = model.campaign().run()
        assert not result.job_errors
        spans = tracer.export()
        (campaign_span,) = [s for s in spans if s["name"] == "campaign"]
        covered, frontier = 0, campaign_span["start_ns"]
        for child in sorted(
            (s for s in spans if s["parent_id"] == campaign_span["span_id"]),
            key=lambda span: span["start_ns"],
        ):
            covered += max(0, child["end_ns"] - max(frontier, child["start_ns"]))
            frontier = max(frontier, child["end_ns"])
        duration = campaign_span["end_ns"] - campaign_span["start_ns"]
        assert covered / duration >= 0.95, sorted(
            {s["name"] for s in spans if s["parent_id"] == campaign_span["span_id"]}
        )


# ---------------------------------------------------------------------------
# Service exposition
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def service_endpoint(**service_kwargs):
    from repro.serve import VerificationService, run_server

    service = VerificationService(**service_kwargs)
    ready: "queue_module.Queue" = queue_module.Queue()
    loop = asyncio.new_event_loop()
    holder = {}

    class ReadyStream:
        def write(self, text):
            ready.put(json.loads(text))

        def flush(self):
            pass

    async def main():
        holder["task"] = asyncio.current_task()
        await run_server(service, port=0, ready_stream=ReadyStream())

    def runner():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(main())
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    info = ready.get(timeout=60)
    try:
        yield service, info["host"], info["port"]
    finally:
        loop.call_soon_threadsafe(holder["task"].cancel)
        thread.join(timeout=60)


class TestServeMetrics:
    def test_metrics_verb_returns_prometheus_text(self):
        from repro.serve import ServiceClient

        with service_endpoint(batch_window=0.01) as (service, host, port):
            with ServiceClient(host, port) as client:
                client.query({"workload": "department"}, ["loop()"])
                message = client.metrics()
        assert message["type"] == "metrics"
        text = message["prometheus"]
        for family in (
            'repro_serve_events_total{event="requests"} 1',
            "repro_serve_request_seconds",
            "repro_serve_models_resident 1",
            "repro_solver_checks_total",
            "repro_job_seconds",
            "repro_degraded_operations_total",
        ):
            assert family in text
        assert isinstance(message["slow_requests"], list)

    def test_metrics_text_without_traffic(self):
        from repro.serve import VerificationService

        text = VerificationService().metrics_text()
        assert "repro_serve_pending 0" in text
        assert "repro_jobs_total" in text


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


class TestCliTrace:
    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        assert main(
            [
                "query", "--workload", "department",
                "--workload-option", "access_switches=2",
                "--workload-option", "hosts_per_switch=1",
                "loop()",
                "--trace-out", str(trace_path),
                "-o", str(tmp_path / "report.json"),
            ]
        ) == 0
        # The recording tracer is uninstalled on exit.
        assert not get_tracer().enabled
        assert "wrote" in capsys.readouterr().err
        names = spans_by_name(
            [
                {"name": e["name"], **e}
                for e in json.loads(trace_path.read_text())["traceEvents"]
            ]
        )
        assert "session" in names
        assert "plan.compile" in names
        assert "campaign" in names
        assert len(names["job"]) >= 1
