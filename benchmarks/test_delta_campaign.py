"""Delta-verification benchmark: a one-device edit re-executes O(1) engine
jobs instead of the whole campaign.

The delta layer (ROADMAP: delta verification) diffs the per-element content
manifest a directory build records against the baseline a previous campaign
stored, derives the affected injection ports via the reverse link closure,
and splices the stored reports for every unaffected port.  The claims
measured here, on the stanford ``zones=16`` backbone exported as a §7.1
snapshot directory:

* **engine-run reduction** — editing one zone's service ACL re-executes
  ≤ 2 of the 16 engine jobs (in fact exactly 1: nothing links *into* an
  edge ACL, so only its own vantage is affected);
* **answer preservation** — the standing invariant extends: the spliced
  result's fingerprints are bit-identical to a from-scratch rerun of the
  edited directory;
* **composition with symmetry** — with symmetry on, the cold directory run
  already collapses to the two parity classes, and the delta rerun still
  executes only the touched member (which splits into its own class).

Every run's engine-job count, wall time and solver work is merged into
``BENCH_delta.json`` (see conftest) so the perf trajectory accumulates.
"""

from repro.core.campaign import (
    VerificationCampaign,
    clear_runtime_cache,
    execution_counters,
    reset_execution_counters,
)
from repro.parsers.service_acl import format_service_acl
from repro.store import VerificationStore
from repro.workloads.export import export_stanford_directory

from conftest import campaign_record, scaled

STANFORD_DELTA_OPTIONS = dict(
    zones=16,
    internal_prefixes_per_zone=scaled(12, 200),
    service_acl_rules=scaled(4, 10),
)


def _run(directory, injections, *, symmetry, store=None, delta=True,
         shared_cache=True):
    clear_runtime_cache()
    campaign = VerificationCampaign(
        str(directory),
        store=store,
        symmetry=symmetry,
        delta=delta,
        shared_cache=shared_cache,
    )
    campaign.add_injections(injections)
    reset_execution_counters()
    result = campaign.run()
    assert not result.job_errors
    return result, execution_counters()["engine_runs"]


def _fingerprints(result):
    return (
        result.reachability.fingerprint(),
        result.loop_report.fingerprint(),
        result.invariant_report.fingerprint(),
    )


def _delta_record(label, result, engine_runs):
    record = campaign_record(label, result)
    record["engine_runs"] = engine_runs
    record["jobs_spliced_by_delta"] = result.stats.jobs_spliced_by_delta
    return record


def test_one_device_edit_reexecutes_o1_engine_jobs(
    tmp_path, bench_report, bench_records
):
    net = tmp_path / "net"
    net.mkdir()
    injections = export_stanford_directory(str(net), **STANFORD_DELTA_OPTIONS)
    assert len(injections) == 16
    store = VerificationStore(str(tmp_path / "store"))

    # The paper-mode baseline: every injection port through the engine.
    full, full_runs = _run(
        net, injections, symmetry=False, delta=False, shared_cache=False
    )
    assert full_runs == 16

    # Cold directory campaign records the baseline into the store ...
    cold, cold_runs = _run(net, injections, store=store, symmetry=False)
    assert cold_runs == 16
    assert _fingerprints(cold) == _fingerprints(full)

    # ... then one zone's ACL is edited and the rerun splices the rest.
    (net / "acl5.acl").write_text(format_service_acl([22, 8080]))
    delta, delta_runs = _run(net, injections, store=store, symmetry=False)
    assert delta_runs <= 2  # the acceptance bar; exactly 1 in practice
    assert delta.stats.jobs_spliced_by_delta == 15
    assert delta.delta_info["touched_elements"] == ["acl5"]

    # The invariant: spliced answers bit-identical to a scratch rerun.
    scratch, scratch_runs = _run(
        net, injections, symmetry=False, delta=False, shared_cache=False
    )
    assert scratch_runs == 16
    assert _fingerprints(delta) == _fingerprints(scratch)

    bench_records("delta").append(_delta_record("stanford-dir-zones16-full", full, full_runs))
    bench_records("delta").append(_delta_record("stanford-dir-zones16-delta", delta, delta_runs))
    bench_report.append(
        f"delta verification (stanford dir zones=16): one-ACL edit -> "
        f"{delta_runs}/{full_runs} engine runs "
        f"({delta.stats.jobs_spliced_by_delta} spliced), "
        f"wall {full.stats.wall_clock_seconds:.2f}s -> "
        f"{delta.stats.wall_clock_seconds:.2f}s, "
        f"solver calls {full.stats.solver_calls} -> {delta.stats.solver_calls}"
    )


def test_delta_composes_with_symmetry(tmp_path, bench_report, bench_records):
    net = tmp_path / "net"
    net.mkdir()
    injections = export_stanford_directory(str(net), **STANFORD_DELTA_OPTIONS)
    store = VerificationStore(str(tmp_path / "store"))

    # Symmetry already collapses the cold run to the two parity classes.
    cold, cold_runs = _run(net, injections, store=store, symmetry=True)
    assert cold_runs == cold.stats.symmetry_classes == 2

    (net / "acl5.acl").write_text(format_service_acl([22, 8080]))
    delta, delta_runs = _run(net, injections, store=store, symmetry=True)
    # The touched member splits into its own (singleton) class; the 15
    # untouched siblings never reach the symmetry layer at all.
    assert delta_runs == 1
    assert delta.stats.jobs_spliced_by_delta == 15

    scratch, _ = _run(
        net, injections, symmetry=False, delta=False, shared_cache=False
    )
    assert _fingerprints(delta) == _fingerprints(scratch)

    bench_records("delta").append(
        _delta_record("stanford-dir-zones16-symmetry-delta", delta, delta_runs)
    )
    bench_report.append(
        f"delta x symmetry (stanford dir zones=16): cold {cold_runs} class "
        f"runs, one-ACL edit -> {delta_runs} engine run "
        f"({delta.stats.jobs_spliced_by_delta} spliced)"
    )
