"""Resident-service benchmark: time-to-first-result under the streaming
demux vs the batch barrier.

The batch executor answers nothing until the whole campaign finishes; the
streaming executor (and the ``repro.cli serve`` service built on it) emits
each query's answer the moment the jobs in *its* port scope have reported.
For a batch of per-zone queries over the stanford backbone the first
answer therefore lands after ~1/zones of the work — measured here both at
the library seam (:func:`execute_plan_streaming`) and end-to-end through a
live service socket, with the standing invariant re-checked along the way:
streamed fingerprints are bit-identical to the batch run's.

Records merge into ``BENCH_serve.json`` (see conftest).
"""

import asyncio
import json
import queue as queue_module
import threading
import time

from repro.api import (
    NetworkModel,
    compile_plan,
    execute_plan,
    execute_plan_streaming,
    parse_query,
)
from repro.serve import ServiceClient, VerificationService, run_server

from conftest import scaled

ZONES = scaled(6, 16)
STANFORD_OPTIONS = dict(
    zones=ZONES,
    internal_prefixes_per_zone=scaled(12, 120),
    service_acl_rules=scaled(4, 10),
)
# One query per zone-edge ACL port (the workload's default injection
# ports) plus a whole-network one: the first scoped answer streams after
# ~1/zones of the execution while later zones are still running.
# Symmetry off so every zone really pays an engine job (the streaming
# curve is the point here, not the class collapse).
QUERY_TEXTS = [f"loop(acl{i}:in0)" for i in range(ZONES)] + [
    "forall_pairs(reach)"
]
SETTINGS = dict(symmetry=False)


def _model():
    return NetworkModel.from_workload("stanford", **STANFORD_OPTIONS)


def test_streaming_time_to_first_result(bench_report, bench_records):
    queries = [parse_query(text) for text in QUERY_TEXTS]

    start = time.perf_counter()
    batch = execute_plan(compile_plan(_model(), queries, **SETTINGS))
    batch_wall = time.perf_counter() - start
    assert not batch.job_errors

    arrivals = []
    start = time.perf_counter()
    streamed = execute_plan_streaming(
        compile_plan(_model(), queries, **SETTINGS),
        on_result=lambda index, result, reported, total: arrivals.append(
            (time.perf_counter() - start, index, reported, total)
        ),
    )
    streaming_wall = time.perf_counter() - start

    # Parity first: the streamed answers are the batch answers, bit for bit.
    assert [r.fingerprint for r in streamed.results] == [
        r.fingerprint for r in batch.results
    ]
    assert len(arrivals) == len(QUERY_TEXTS)
    first_result = arrivals[0][0]
    # The first scoped answer must land well before the barrier, with jobs
    # still outstanding.
    assert arrivals[0][2] < arrivals[0][3]
    assert first_result < streaming_wall

    bench_records("serve").append(
        {
            "workload": f"stanford-zones{ZONES}-streaming-demux",
            "scale": "full" if ZONES == 16 else "small",
            "queries": len(QUERY_TEXTS),
            "jobs": streamed.plan.job_count,
            "batch_wall_seconds": round(batch_wall, 6),
            "streaming_wall_seconds": round(streaming_wall, 6),
            "time_to_first_result_seconds": round(first_result, 6),
            "time_to_last_result_seconds": round(arrivals[-1][0], 6),
            "first_result_fraction_of_wall": round(
                first_result / streaming_wall, 4
            ),
        }
    )
    bench_report.append(
        f"resident-service streaming (stanford zones={ZONES}): first answer "
        f"at {first_result:.2f}s of {streaming_wall:.2f}s streamed wall "
        f"(batch barrier: {batch_wall:.2f}s), "
        f"{len(QUERY_TEXTS)} queries / {streamed.plan.job_count} jobs"
    )


def test_service_socket_time_to_first_result(bench_report, bench_records):
    service = VerificationService(batch_window=0.01)
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
        with ServiceClient(info["host"], info["port"]) as client:
            network = {"workload": "stanford", "options": STANFORD_OPTIONS}
            start = time.perf_counter()
            request_id = client.submit(
                network, QUERY_TEXTS, symmetry=False
            )
            first_result = None
            done_at = None
            while done_at is None:
                message = client.receive()
                if message.get("id") != request_id:
                    continue
                elapsed = time.perf_counter() - start
                if message["type"] == "result" and first_result is None:
                    first_result = elapsed
                    assert message["jobs_reported"] < message["jobs_total"]
                elif message["type"] == "done":
                    done_at = elapsed
                elif message["type"] == "error":
                    raise AssertionError(message["error"])
    finally:
        loop.call_soon_threadsafe(holder["task"].cancel)
        thread.join(timeout=60)

    assert first_result is not None and first_result < done_at
    bench_records("serve").append(
        {
            "workload": f"stanford-zones{ZONES}-service-socket",
            "scale": "full" if ZONES == 16 else "small",
            "queries": len(QUERY_TEXTS),
            "time_to_first_result_seconds": round(first_result, 6),
            "wall_clock_seconds": round(done_at, 6),
            "first_result_fraction_of_wall": round(first_result / done_at, 4),
        }
    )
    bench_report.append(
        f"resident-service socket (stanford zones={ZONES}): client saw its "
        f"first answer at {first_result:.2f}s, last at {done_at:.2f}s"
    )
