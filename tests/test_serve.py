"""Tests for the resident verification service (repro.serve).

The load-bearing guarantees:

* **parity** — every answer a service streams is bit-identical (per-query
  result fingerprints) to a standalone batch ``execute_plan`` of the same
  queries (the serve ``query`` path is a front door of
  ``tests/test_config_lattice.py``), and a repeated request over a warm
  store is answered from the plan cache;
* **cross-client dedup** — two clients whose concurrent requests overlap
  merge into one shared plan: one engine job per distinct injection port,
  observable in the process's execution counters;
* **streaming** — a query scoped to a subset of the merged plan's ports is
  answered before the barrier (``jobs_reported < jobs_total``);
* **admission control** — a full queue gets an explicit ``overloaded``
  response, never a dropped or degraded answer.
"""

import asyncio
import contextlib
import json
import queue as queue_module
import threading

import pytest

from repro.api import NetworkModel, compile_plan, execute_plan, parse_query
from repro.core.campaign import execution_counters, reset_execution_counters
from repro.serve import (
    ProtocolError,
    ServiceClient,
    VerificationService,
    protocol,
    results_digest,
    run_server,
)

DEPARTMENT = {"workload": "department"}
STANFORD = {"workload": "stanford", "options": {"zones": 3}}


# ---------------------------------------------------------------------------
# Harness: a live service on a background event loop
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def service_endpoint(**service_kwargs):
    """A running service bound to an ephemeral loopback port."""
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


def batch_fingerprints(network, texts, **settings):
    """Per-query result fingerprints of a standalone batch run — the
    ground truth streamed answers must match bit for bit."""
    if "directory" in network:
        model = NetworkModel.from_directory(network["directory"])
    else:
        model = NetworkModel.from_workload(
            network["workload"], **network.get("options", {})
        )
    plan = compile_plan(model, [parse_query(text) for text in texts], **settings)
    result = execute_plan(plan)
    assert not result.job_errors
    return {r.query: r.fingerprint for r in result.results}


def results_by_index(messages):
    return {m["index"]: m for m in messages if m["type"] == "result"}


def test_importing_the_service_loads_no_pool_machinery():
    """A one-worker service never starts a pool, so importing it must not
    load ``multiprocessing`` (checked in a fresh interpreter: this test
    process has imported everything)."""
    from test_cli import _loaded_in_fresh_interpreter

    unwanted = ["multiprocessing", "concurrent.futures.process"]
    assert _loaded_in_fresh_interpreter("import repro.serve", unwanted) == []


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def test_protocol_roundtrip():
    message = protocol.accepted("r1", 4, 2, 1)
    assert protocol.decode_line(protocol.encode(message)) == message


def test_protocol_rejects_non_json_and_non_objects():
    with pytest.raises(ProtocolError):
        protocol.decode_line(b"not json\n")
    with pytest.raises(ProtocolError):
        protocol.decode_line(b"[1, 2]\n")
    with pytest.raises(ProtocolError):
        protocol.decode_line(b"\xff\xfe\n")


# ---------------------------------------------------------------------------
# Request handling (no sockets: fake session, no scheduler draining)
# ---------------------------------------------------------------------------


class FakeSession:
    def __init__(self):
        self.messages = []

    def send_nowait(self, message):
        self.messages.append(message)


def run_handles(service_kwargs, messages, cancel_scheduler=False):
    """Feed messages through ``handle`` on a private loop; returns the
    responses each message produced on its own fake session."""

    async def scenario():
        service = VerificationService(**service_kwargs)
        await service.start()
        if cancel_scheduler:
            # Nobody drains the queue: admission control is on its own.
            service._scheduler_task.cancel()
        sessions = []
        for message in messages:
            session = FakeSession()
            sessions.append(session)
            await service.handle(session, message)
        await service.stop()
        return [session.messages for session in sessions]

    return asyncio.run(scenario())


def test_unknown_op_and_parse_errors_answer_with_error():
    responses = run_handles(
        {},
        [
            {"op": "frobnicate", "id": "r1"},
            {"op": "query", "id": "r2"},  # no network
            {"op": "query", "id": "r3", "network": {"workload": 1}, "queries": ["loop()"]},
            {"op": "query", "id": "r4", "network": DEPARTMENT, "queries": []},
            {"op": "query", "id": "r5", "network": DEPARTMENT, "queries": ["bogus()"]},
            {"op": "query", "id": "r6", "network": DEPARTMENT, "queries": ["loop()"],
             "max_hops": "many"},
            {"op": "ping", "id": "r7"},
        ],
        cancel_scheduler=True,
    )
    for reply in responses[:6]:
        assert len(reply) == 1
        assert reply[0]["type"] == "error", reply
    assert responses[6] == [{"type": "pong", "id": "r7"}]


def test_unknown_setting_is_refused_not_ignored():
    """A misspelt budget used to run unbounded and answer as if it applied;
    now it is one ``error`` naming the known settings, and the connection
    (here: the service loop) keeps serving."""
    responses = run_handles(
        {},
        [
            {"op": "query", "id": "r1", "network": DEPARTMENT, "queries": ["loop()"],
             "max_path": 10},
            {"op": "ping", "id": "r2"},
        ],
        cancel_scheduler=True,
    )
    (reply,) = responses[0]
    assert reply["type"] == "error" and reply["id"] == "r1"
    assert "max_path" in reply["error"] and "max_paths" in reply["error"]
    assert responses[1] == [{"type": "pong", "id": "r2"}]


def test_admission_control_overloaded():
    query = {"op": "query", "network": DEPARTMENT, "queries": ["loop()"]}
    responses = run_handles(
        {"max_pending": 2},
        [
            dict(query, id="r1"),
            dict(query, id="r2"),
            dict(query, id="r3"),
            dict(query, id="r4"),
        ],
        cancel_scheduler=True,
    )
    # r1/r2 admitted silently (answers come later); r3/r4 refused loudly.
    assert responses[0] == [] and responses[1] == []
    for reply, request_id in ((responses[2], "r3"), (responses[3], "r4")):
        assert len(reply) == 1
        message = reply[0]
        assert message["type"] == "overloaded"
        assert message["id"] == request_id
        assert message["max_pending"] == 2
        assert message["pending"] >= 2


class TestBatchWindow:
    """The collection window must be a finite number of seconds >= 0.  A NaN
    window used to pass the CLI's ``< 0`` check and made the scheduler's
    deadline NaN; an infinite one never dispatched."""

    @staticmethod
    def _serve(monkeypatch, window):
        """``main(["serve", ...])`` with the server stubbed out: returns the
        exit code and the services it would have served."""
        import repro.serve
        from repro.cli import main

        served = []

        async def fake_run_server(service, **_):
            served.append(service)

        monkeypatch.setattr(repro.serve, "run_server", fake_run_server)
        return main(["serve", "--batch-window", str(window)]), served

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), -0.5])
    def test_the_api_refuses_the_window(self, window):
        with pytest.raises(ValueError, match="batch_window must be >= 0 and finite"):
            VerificationService(batch_window=window)

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), -0.5])
    def test_the_cli_refuses_the_window(self, window, monkeypatch, capsys):
        with pytest.raises(SystemExit) as refused:
            self._serve(monkeypatch, window)
        assert refused.value.code == 2
        assert (
            f"--batch-window must be >= 0 and finite, not {window}"
            in capsys.readouterr().err
        )

    def test_a_zero_window_is_accepted(self, monkeypatch):
        assert VerificationService(batch_window=0).batch_window == 0
        code, served = self._serve(monkeypatch, 0)
        assert code == 0
        assert [service.batch_window for service in served] == [0.0]


# ---------------------------------------------------------------------------
# Parity: streamed answers == batch answers, bit for bit
# ---------------------------------------------------------------------------


QUERIES = ["loop()", "forall_pairs(reach)", "invariant(IpSrc)"]


def test_repeat_request_is_answered_from_the_plan_cache(tmp_path):
    from repro.store import VerificationStore

    expected = batch_fingerprints(DEPARTMENT, QUERIES)
    store = VerificationStore(str(tmp_path / "store"))
    with service_endpoint(store=store, batch_window=0.01) as (service, host, port):
        with ServiceClient(host, port) as client:
            messages = client.query(DEPARTMENT, QUERIES)
            repeat = client.query(DEPARTMENT, QUERIES)
    assert messages[-1]["type"] == repeat[-1]["type"] == "done"
    assert {
        m["query"]: m["fingerprint"] for m in results_by_index(messages).values()
    } == expected
    # The done digest is reproducible from the batch run alone.
    assert messages[-1]["fingerprint"] == results_digest(expected.values())
    assert messages[-1]["from_cache"] is False
    # The second identical request: zero engine jobs, same fingerprints.
    assert repeat[-1]["from_cache"] is True
    assert {
        m["query"]: m["fingerprint"] for m in results_by_index(repeat).values()
    } == expected
    assert repeat[-1]["fingerprint"] == messages[-1]["fingerprint"]


def test_unknown_verdict_streams_as_null():
    """``holds=None`` from a cut-short exploration crosses the wire as JSON
    null, evidence included, bit-identical to the batch run — and an unknown
    setting on a live connection costs one error, not the connection."""
    texts = ["loop()", "not(reach(zr2:in-hosts, zr0:hosts))"]
    expected = batch_fingerprints(STANFORD, texts, max_paths=1)
    with service_endpoint(batch_window=0.01) as (service, host, port):
        with ServiceClient(host, port) as client:
            refused = client.query(STANFORD, texts, max_path=1)
            assert [m["type"] for m in refused] == ["error"]
            messages = client.query(STANFORD, texts, max_paths=1)
    assert messages[-1]["type"] == "done"
    assert messages[-1]["stats"]["truncated_jobs"] == 3
    results = results_by_index(messages)
    assert [results[i]["holds"] for i in (0, 1)] == [None, None]
    assert results[1]["evidence"]["incomplete_ports"] == ["zr2:in-hosts"]
    assert {m["query"]: m["fingerprint"] for m in results.values()} == expected


def test_resident_model_reused_across_requests():
    with service_endpoint(batch_window=0.01) as (service, host, port):
        with ServiceClient(host, port) as client:
            client.query(DEPARTMENT, ["loop()"])
            client.query(DEPARTMENT, ["invariant(IpSrc)"])
            stats = client.stats()
    assert stats["service"]["model_builds"] == 1
    assert stats["service"]["models_resident"] == 1
    assert stats["service"]["plans_executed"] == 2


def test_resident_directory_model_rebuilds_only_for_snapshot_files(tmp_path):
    """The staleness check is the source's stat key — over ``topology.txt``
    and the files it references, nothing else: a report written into the
    directory leaves the resident model alone, an edited device file ticks
    ``model_rebuilds`` exactly once and the next answer is for the new
    bytes."""
    (tmp_path / "topology.txt").write_text("device sw switch sw.mac\n")
    mac = tmp_path / "sw.mac"
    mac.write_text(" 302    0011.2233.4455    DYNAMIC     out0\n")
    network = {"directory": str(tmp_path)}
    texts = ["forall_pairs(reach)"]

    def fingerprints(messages):
        assert messages[-1]["type"] == "done"
        return {
            m["query"]: m["fingerprint"]
            for m in results_by_index(messages).values()
        }

    with service_endpoint(batch_window=0.01) as (service, host, port):
        with ServiceClient(host, port) as client:
            first = fingerprints(client.query(network, texts))
            assert first == batch_fingerprints(network, texts)
            (tmp_path / "report.json").write_bytes(b"\xff\xfe not a snapshot")
            assert fingerprints(client.query(network, texts)) == first
            assert client.stats()["service"]["model_rebuilds"] == 0

            mac.write_text(
                " 302    0011.2233.4455    DYNAMIC     out0\n"
                " 302    0011.2233.4466    DYNAMIC     out1\n"
            )
            edited = fingerprints(client.query(network, texts))
            assert edited != first
            assert edited == batch_fingerprints(network, texts)
            assert fingerprints(client.query(network, texts)) == edited
            stats = client.stats()["service"]
    assert stats["model_rebuilds"] == 1
    assert stats["model_builds"] == 2
    assert stats["models_resident"] == 1


# ---------------------------------------------------------------------------
# Cross-client merge + dedup, and streaming before the barrier
# ---------------------------------------------------------------------------


def test_concurrent_clients_merge_into_one_plan():
    expected_a = batch_fingerprints(DEPARTMENT, ["loop()"])
    expected_b = batch_fingerprints(DEPARTMENT, ["loop()", "forall_pairs(reach)"])
    jobs_total = len(
        NetworkModel.from_workload("department").injection_ports()
    )
    with service_endpoint(workers=1, batch_window=1.0) as (service, host, port):
        with ServiceClient(host, port) as a, ServiceClient(host, port) as b:
            reset_execution_counters()
            id_a = a.submit(DEPARTMENT, ["loop()"])
            id_b = b.submit(DEPARTMENT, ["loop()", "forall_pairs(reach)"])
            messages_a = a.drain(id_a)
            messages_b = b.drain(id_b)
            runs = execution_counters()["engine_runs"]
            stats = a.stats()
    accepted_a = [m for m in messages_a if m["type"] == "accepted"][0]
    accepted_b = [m for m in messages_b if m["type"] == "accepted"][0]
    # Both requests were compiled into one shared plan...
    assert accepted_a["merged_requests"] == 2
    assert accepted_b["merged_requests"] == 2
    assert accepted_a["jobs"] == accepted_b["jobs"] == jobs_total
    assert stats["service"]["groups"] == 1
    assert stats["service"]["merged_requests"] == 2
    # ...so the overlapping injection ports ran ONCE (with workers=1 every
    # engine job executes in the service process, where we can count it).
    assert 0 < runs <= jobs_total
    # And each client's answers are still bit-identical to its own batch.
    assert {
        m["query"]: m["fingerprint"]
        for m in results_by_index(messages_a).values()
    } == expected_a
    assert {
        m["query"]: m["fingerprint"]
        for m in results_by_index(messages_b).values()
    } == expected_b
    # Each done digest covers exactly its own client's results — request
    # ids are client-chosen and both clients picked "r1" here, so a
    # service keying merged state by id would cross the streams.
    assert id_a == id_b == "r1"
    assert messages_a[-1]["fingerprint"] == results_digest(expected_a.values())
    assert messages_b[-1]["fingerprint"] == results_digest(expected_b.values())


def test_clients_merge_on_the_canonical_query_text(monkeypatch):
    """``loop`` and ``loop()`` are one query: two clients spelling it
    differently within one batch window share one plan entry and get the
    same answer."""
    from repro.serve import scheduler

    compiled = []
    real_compile = scheduler.compile_plan

    def recording_compile(model, queries, **settings):
        compiled.append([query.describe() for query in queries])
        return real_compile(model, queries, **settings)

    monkeypatch.setattr(scheduler, "compile_plan", recording_compile)
    with service_endpoint(workers=1, batch_window=1.0) as (service, host, port):
        with ServiceClient(host, port) as a, ServiceClient(host, port) as b:
            id_a = a.submit(DEPARTMENT, ["loop"])
            id_b = b.submit(DEPARTMENT, ["loop()"])
            messages_a = a.drain(id_a)
            messages_b = b.drain(id_b)
    assert compiled == [["loop()"]]
    (result_a,) = results_by_index(messages_a).values()
    (result_b,) = results_by_index(messages_b).values()
    assert result_a["query"] == result_b["query"] == "loop()"
    assert result_a["fingerprint"] == result_b["fingerprint"]
    assert messages_a[-1]["fingerprint"] == messages_b[-1]["fingerprint"]


def test_port_scoped_query_streams_before_barrier():
    # 'cluster:in-node' sorts first among department's injection ports, so
    # with workers=1 its job reports first and the loop query scoped to it
    # must be answered while the other ports are still outstanding.
    texts = ["loop(cluster:in-node)", "forall_pairs(reach)"]
    expected = batch_fingerprints(DEPARTMENT, texts)
    with service_endpoint(workers=1, batch_window=0.01) as (service, host, port):
        with ServiceClient(host, port) as client:
            messages = client.query(DEPARTMENT, texts)
    results = results_by_index(messages)
    scoped = results[0]
    assert scoped["query"] == "loop(cluster:in-node)"
    assert scoped["jobs_reported"] < scoped["jobs_total"]
    # The early answer is still the batch answer.
    assert {
        m["query"]: m["fingerprint"] for m in results.values()
    } == expected
    # Messages arrive in completion order: the scoped result line precedes
    # the whole-network one on the wire.
    order = [m["index"] for m in messages if m["type"] == "result"]
    assert order.index(0) < order.index(1)


def test_execution_error_answers_every_merged_client():
    # A directory that cannot be built must produce an error response (not
    # a hang, not a dropped request).
    with service_endpoint(batch_window=0.01) as (service, host, port):
        with ServiceClient(host, port) as client:
            messages = client.query(
                {"directory": "/nonexistent/sn-apshot"}, ["loop()"]
            )
    assert messages[-1]["type"] == "error"
    assert messages[-1]["error"]
