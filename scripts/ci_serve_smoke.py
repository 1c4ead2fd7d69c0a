"""CI smoke for the resident verification service.

Starts ``python -m repro.cli serve`` as a real subprocess, connects two
concurrent clients whose requests overlap on the stanford backbone, and
asserts the three load-bearing service properties:

* **streaming before the barrier** — the port-scoped client's answer
  arrives with ``jobs_reported < jobs_total``;
* **fingerprint parity** — every streamed answer is bit-identical to a
  standalone batch ``execute_plan`` of the same queries, and each ``done``
  digest matches the one recomputed from the batch run;
* **cross-client dedup** — both requests merge into one plan
  (``merged_requests == 2``) and the service process executed exactly the
  merged plan's job count of engine runs, not the sum of the two
  requests' (observable through the ``stats`` op with ``--workers 1``);
* **live exposition** — the ``metrics`` op answers with Prometheus text
  whose every serve-event series equals the ``stats`` op's count for that
  event, and which carries the core engine families (solver check tiers,
  job latency histogram, degraded operations);
* **a merged answer is the standalone one** — two witness queries on one
  field under different budgets merge into one plan, and the smaller
  one's ``done`` digest is that of the query run alone.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.api import NetworkModel, compile_plan, execute_plan, parse_query
from repro.serve import ServiceClient, read_ready_line, results_digest

STANFORD_OPTIONS = dict(zones=4, internal_prefixes_per_zone=30, service_acl_rules=4)
NETWORK = {"workload": "stanford", "options": STANFORD_OPTIONS}
# Client A asks about one zone-edge ACL port (the first of the default
# injection ports in sorted order, so its job reports first); client B
# sweeps the whole network.  Both run under the default settings (the
# compatibility key must match), so they merge and the engine-run count is
# exactly the merged plan's job count.
QUERIES_A = ["loop(acl0:in0)"]
QUERIES_B = ["forall_pairs(reach)", "loop()"]
# One field, two witness budgets: the merged job collects the larger.
WITNESSES_C = ["admitted_values(IpDst, samples=2)"]
WITNESSES_D = ["admitted_values(IpDst, samples=5)"]


def batch_fingerprints(texts):
    model = NetworkModel.from_workload("stanford", **STANFORD_OPTIONS)
    plan = compile_plan(model, [parse_query(t) for t in texts])
    result = execute_plan(plan)
    assert not result.job_errors
    return {r.query: r.fingerprint for r in result.results}


def fingerprints_of(messages):
    return {
        m["query"]: m["fingerprint"] for m in messages if m["type"] == "result"
    }


def main():
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", "1", "--batch-window", "0.5",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = read_ready_line(server.stdout)
        print(f"service up on {ready['host']}:{ready['port']}")
        with ServiceClient(ready["host"], ready["port"]) as a, \
                ServiceClient(ready["host"], ready["port"]) as b:
            # Both submissions land inside one batch window and merge.
            id_a = a.submit(NETWORK, QUERIES_A)
            id_b = b.submit(NETWORK, QUERIES_B)
            messages_a = a.drain(id_a)
            messages_b = b.drain(id_b)
            stats = a.stats()
            metrics = a.metrics()

        accepted_a = next(m for m in messages_a if m["type"] == "accepted")
        accepted_b = next(m for m in messages_b if m["type"] == "accepted")
        assert accepted_a["merged_requests"] == 2, accepted_a
        assert accepted_b["merged_requests"] == 2, accepted_b
        merged_jobs = accepted_a["jobs"]
        assert merged_jobs == accepted_b["jobs"], (accepted_a, accepted_b)

        # Streaming: A's single-port answer beat the merged plan's barrier.
        result_a = next(m for m in messages_a if m["type"] == "result")
        assert result_a["jobs_reported"] < result_a["jobs_total"], result_a
        print(
            f"client A streamed at {result_a['jobs_reported']}/"
            f"{result_a['jobs_total']} jobs"
        )

        # Parity: streamed answers == standalone batch answers, bit for bit.
        expected_a = batch_fingerprints(QUERIES_A)
        expected_b = batch_fingerprints(QUERIES_B)
        assert fingerprints_of(messages_a) == expected_a, "client A diverged"
        assert fingerprints_of(messages_b) == expected_b, "client B diverged"
        done_a = messages_a[-1]
        done_b = messages_b[-1]
        assert done_a["type"] == "done" and done_b["type"] == "done"
        assert done_a["fingerprint"] == results_digest(expected_a.values())
        assert done_b["fingerprint"] == results_digest(expected_b.values())
        print("fingerprint parity holds for both clients")

        # Dedup: one merged plan, and the service process ran exactly its
        # job count — not len(A's ports) + len(B's ports).
        service = stats["service"]
        engine_runs = stats["execution"]["engine_runs"]
        assert service["requests"] == 2, service
        assert service["groups"] == 1, service
        assert service["merged_requests"] == 2, service
        assert service["plans_executed"] == 1, service
        assert engine_runs == merged_jobs, (engine_runs, merged_jobs)
        print(
            f"dedup: {engine_runs} engine runs for {merged_jobs} merged jobs "
            f"(two requests, one plan)"
        )

        # Exposition: the metrics verb renders the service-local registry
        # (event counters, request-latency histogram) plus the process
        # registry's core engine families, and the stats verb reads the same
        # series: every event count in one is the other's.
        assert metrics["type"] == "metrics", metrics
        text = metrics["prometheus"]
        events = {
            line.split('"')[1]: int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_events_total{")
        }
        assert events == {
            key: value for key, value in service.items() if key in events
        }, (events, service)
        assert set(service) - set(events) == {
            "models_resident", "pending", "workers"
        }, service
        print(f"stats and metrics agree on {len(events)} event counters")
        for needle in (
            "repro_serve_request_seconds_count 1",
            "repro_solver_checks_total",
            "repro_job_seconds_bucket",
            "repro_degraded_operations_total",
        ):
            assert needle in text, f"metrics text missing {needle!r}"
        assert isinstance(metrics["slow_requests"], list)
        print("metrics verb exposes serve counters + core engine families")

        with ServiceClient(ready["host"], ready["port"]) as c, \
                ServiceClient(ready["host"], ready["port"]) as d:
            id_c = c.submit(NETWORK, WITNESSES_C)
            id_d = d.submit(NETWORK, WITNESSES_D)
            messages_c = c.drain(id_c)
            d.drain(id_d)
        accepted_c = next(m for m in messages_c if m["type"] == "accepted")
        assert accepted_c["merged_requests"] == 2, accepted_c
        expected_c = batch_fingerprints(WITNESSES_C)
        assert messages_c[-1]["type"] == "done", messages_c[-1]
        assert messages_c[-1]["fingerprint"] == results_digest(expected_c.values()), (
            "a witness answer merged with a larger budget differs from it alone"
        )
        print("a merged witness answer equals the standalone one")
    finally:
        server.terminate()
        server.wait(timeout=30)
    print("serve smoke OK")


if __name__ == "__main__":
    main()
