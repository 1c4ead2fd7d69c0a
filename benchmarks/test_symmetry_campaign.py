"""Job-symmetry benchmark: engine runs, wall time and paths with symmetry
reduction off vs on.

The symmetry layer (ROADMAP: job symmetry reduction) fingerprints every
campaign job's ``(network neighbourhood, injection port)`` up to
element/port/constant renaming and executes one engine job per equivalence
class.  The claims measured here, on the same workloads as the store
benchmark:

* **engine-run reduction** — the ``zones=16`` stanford+ACL sweep collapses
  to its two parity classes (even zones uplink even targets via ``up0``,
  odd via ``up1``): 16 engine runs become 2, every other report is
  instantiated by renaming;
* **answer preservation** — the standing invariant extends: symmetry
  {off, on} x workers {1, 2} x store {off, cold, warm} changes which tier
  answers and how many engine jobs run, never any query fingerprint;
* **department control** — a workload with four genuinely distinct vantage
  points gains nothing (0 classes) and loses nothing (identical answers).

Every run's engine-job count, wall time and path count is merged into
``BENCH_symmetry.json`` (see conftest) so the perf trajectory accumulates.
"""

from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
    execution_counters,
    reset_execution_counters,
)
from repro.store import VerificationStore, clear_load_cache

from conftest import campaign_record, scaled

STANFORD_SYMMETRY_OPTIONS = dict(
    zones=16,
    internal_prefixes_per_zone=scaled(12, 200),
    service_acl_rules=scaled(4, 10),
)

#: The stanford zone FIBs alternate uplinks by target parity, so the 16
#: injection ports fall into exactly two renaming-equivalence classes.
STANFORD_EXPECTED_CLASSES = 2


def _source(workload, **options):
    return NetworkSource.from_workload(workload, **options)


def _run(source, *, symmetry, workers=1, store=None):
    clear_runtime_cache()
    reset_execution_counters()
    campaign = VerificationCampaign(source, symmetry=symmetry, store=store)
    result = campaign.run(workers=workers)
    return result, execution_counters()["engine_runs"]


def _fingerprints(result):
    return (
        result.reachability.fingerprint(),
        result.loop_report.fingerprint(),
        result.invariant_report.fingerprint(),
    )


def test_stanford_symmetry_cuts_engine_runs(
    bench_report, bench_records
):
    source = _source("stanford", **STANFORD_SYMMETRY_OPTIONS)
    off, off_runs = _run(source, symmetry=False)
    on, on_runs = _run(source, symmetry=True)

    assert not off.job_errors and not on.job_errors
    assert _fingerprints(on) == _fingerprints(off)
    # The acceptance criterion: 16 injection ports collapse to the parity
    # classes, and only the class representatives reach the engine.
    assert off_runs == off.stats.jobs == 16
    assert on.stats.symmetry_classes == STANFORD_EXPECTED_CLASSES
    assert on_runs == STANFORD_EXPECTED_CLASSES
    assert on.stats.jobs_skipped_by_symmetry == 16 - STANFORD_EXPECTED_CLASSES
    assert on.stats.jobs == 16  # every port still gets a report
    assert on.stats.paths == off.stats.paths

    for label, result in (
        ("stanford16-symmetry-off", off),
        ("stanford16-symmetry-on", on),
    ):
        record = campaign_record(label, result)
        bench_records("campaign").append(record)
        bench_records("symmetry").append(record)
    bench_report.append(
        f"Symmetry | stanford zones=16: {off_runs} engine runs, wall "
        f"{off.stats.wall_clock_seconds:.2f}s -> {on_runs} class "
        f"representatives, wall {on.stats.wall_clock_seconds:.2f}s, "
        f"identical fingerprints"
    )


def test_department_symmetry_is_a_safe_noop(
    bench_report, bench_records
):
    source = _source("department")
    off, off_runs = _run(source, symmetry=False)
    on, on_runs = _run(source, symmetry=True)

    assert not off.job_errors and not on.job_errors
    assert _fingerprints(on) == _fingerprints(off)
    # Four genuinely distinct vantage points: nothing merges, nothing breaks.
    assert on.stats.symmetry_classes == 0
    assert on.stats.jobs_skipped_by_symmetry == 0
    assert on_runs == off_runs == off.stats.jobs

    for label, result in (
        ("department-symmetry-off", off),
        ("department-symmetry-on", on),
    ):
        record = campaign_record(label, result)
        bench_records("campaign").append(record)
        bench_records("symmetry").append(record)
    bench_report.append(
        f"Symmetry | department: {off_runs} engine runs with or without "
        f"symmetry (0 classes), identical fingerprints"
    )


def test_symmetry_invariant_across_workers_and_store(tmp_path, bench_report):
    """The standing invariant: symmetry x workers x store tiers never
    change an answer, only which tier produces it."""
    reference = None
    for symmetry in (False, True):
        for workers in (1, 2):
            for store_state in ("off", "cold", "warm"):
                clear_load_cache()
                store = None
                if store_state != "off":
                    directory = str(
                        tmp_path / f"store-{symmetry}-{workers}"
                    )
                    store = VerificationStore(directory)
                    if store_state == "warm":
                        store = VerificationStore(directory)
                source = _source("stanford", **STANFORD_SYMMETRY_OPTIONS)
                result, _ = _run(
                    source, symmetry=symmetry, workers=workers, store=store
                )
                assert not result.job_errors
                fingerprints = _fingerprints(result)
                if reference is None:
                    reference = fingerprints
                assert fingerprints == reference, (
                    f"fingerprint drift at symmetry={symmetry} "
                    f"workers={workers} store={store_state}"
                )
    bench_report.append(
        "Symmetry | invariant: symmetry {off,on} x workers {1,2} x store "
        "{off,cold,warm} -> identical fingerprints"
    )
