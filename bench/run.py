#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 bench/run.py [--seed N] [--seconds S] [--repeat R]
        every workload, each pass in its own fresh subprocess; prints every
        metric with its unit, checks every answer, writes
        bench/out/results.json
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one pass of one workload; the last stdout line is one JSON object
        {"correct", "attempted", "failed", "metrics"} — end-to-end metrics
        with --trace 0 (timed pass, tracing off), per-layer metrics with
        --trace 1 (traced pass)
    python3 bench/run.py --compare A.json B.json
        two results files side by side, each metric against its bound

``src/`` is found beside ``bench/``; nothing needs to be installed.  See
``README.md`` in this directory for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
DEFAULT_SEED = 20260926


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one pass of this workload only")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one pass (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: runs per workload and pass, "
                        "each with the next seed")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(load_spec(), *args.compare)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro beside bench/ — nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    problem = spec_mismatch(spec)
    if problem:
        print(f"bench: BENCHMARK.json disagrees with bench/measure.py: {problem}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        return run_one(args)
    return run_all(args)


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spec_mismatch(spec: Dict[str, object]) -> str:
    """Why ``BENCHMARK.json`` and the code's metric tables differ ('' when
    they agree) — later issues cite these names, so they may not drift."""
    import loads
    import measure

    listed = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    if listed != measure.END_TO_END:
        return "end_to_end metrics"
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != measure.PER_LAYER:
        return "per_layer metrics"
    if not {w["name"] for w in spec["workloads"]} <= set(loads.WORKLOADS):
        return "workloads"
    return ""


# ---------------------------------------------------------------------------
# One pass of one workload
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    import loads
    import measure
    from spans import Recorder

    if args.workload not in loads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have "
              f"{', '.join(loads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)[args.workload]
    # Everything the run writes — exports, stores, reports, the sockets of
    # multiprocessing — stays under bench/out/.
    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None

    workload = loads.WORKLOADS[args.workload](args.seed, scratch, expected)
    rec = Recorder()
    try:
        if args.trace:
            workload.setup()
            run = workload.run_traced(args.seconds, rec)
        else:
            # Set-up is timed in two groups, one on each side of the timed
            # operations: a burst of interference covers one, seldom both.
            setups = timed_setups(workload)
            run = workload.run_timed(args.seconds)
            setups += timed_setups(workload)
    finally:
        workload.teardown()

    failed = min(run.attempted, len(run.problems))
    for problem in run.problems:
        print(f"FAILED operation: {problem}", file=sys.stderr)
    print(f"== {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}  attempted={run.attempted}  failed={failed}  "
          f"failed_share={failed / run.attempted:.3f}")
    print(f"  answers: {json.dumps(workload.first_answer, sort_keys=True)[:400]}")
    if args.trace:
        metrics, units = traced_metrics(workload, run, rec)
    else:
        metrics, units = timed_metrics(run, setups)
    if metrics is None:
        print("bench: no operation succeeded, nothing to report", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "attempted": run.attempted,
        "failed": failed,
        "digest": (workload.first_answer or {}).get("digest", ""),
        "metrics": metrics,
    }
    if not args.trace:
        record["samples"] = {"setup_s": setups, "wall_s": run.walls, "cpu_s": run.cpus}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def timed_setups(workload) -> List[float]:
    """Set the workload up repeatedly (the last set-up's inputs stay);
    returns the seconds each set-up took."""
    import measure

    group: List[float] = []
    while len(group) < measure.SETUP_GROUP_MIN or (
        len(group) < measure.SETUP_GROUP_MAX and sum(group) < measure.SETUP_GROUP_S
    ):
        workload.teardown()
        started = time.perf_counter()
        workload.setup()
        group.append(time.perf_counter() - started)
    return group


def timed_metrics(run, setups: List[float]):
    import measure

    if not run.walls:
        return None, None
    metrics = {
        "setup_s": measure.undisturbed(setups),
        "wall_s": measure.undisturbed(run.walls),
        "cpu_s": measure.undisturbed(run.cpus),
        # Read after teardown: a server only counts once it was waited for.
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    units = {name: unit for name, (unit, _, _) in measure.END_TO_END.items()}
    q1, median, q3 = measure.quartiles(run.walls)
    notes = {
        "wall_s": f"fastest of {len(run.walls)} operations; median {median:.4g}, "
        f"quartiles {q1:.4g}..{q3:.4g}",
        "cpu_s": f"least of {len(run.cpus)}; median {statistics.median(run.cpus):.4g}",
        "setup_s": f"fastest of {len(setups)} set-ups; "
        f"median {statistics.median(setups):.4g}",
    }
    print("\n".join(measure.format_metrics(metrics, units, notes)))
    return metrics, units


def traced_metrics(workload, run, rec):
    import measure

    if not run.layers:
        return None, None
    metrics = {name: 0.0 for name in measure.PER_LAYER}
    unknown = set(run.layers) - set(metrics)
    if unknown:
        raise KeyError(f"layer metrics not in measure.PER_LAYER: {sorted(unknown)}")
    metrics.update({name: float(value) for name, value in run.layers.items()})
    trace_path = os.path.join(OUT, f"trace-{workload.name}.json")
    os.makedirs(OUT, exist_ok=True)
    count = rec.write_chrome_trace(trace_path)

    notes = {}
    ratio = metrics["obs.trace_overhead_ratio"]
    if len(run.untraced_walls) >= 2:
        q1, median, q3 = measure.quartiles(run.untraced_walls)
        if abs(ratio - 1.0) <= (q3 - q1) / median:
            notes["obs.trace_overhead_ratio"] = "below noise floor"
    else:
        notes["obs.trace_overhead_ratio"] = "one pair of operations: noise floor unknown"
    shown = {name: value for name, value in metrics.items() if name in run.layers}
    print("\n".join(measure.format_metrics(shown, measure.PER_LAYER, notes)))
    bypassed = [name for name in metrics if name not in run.layers]
    print(f"  (0 on this workload, its operation bypasses them: {len(bypassed)} "
          f"metrics of {', '.join(sorted({n.rsplit('.', 1)[0] for n in bypassed}))})")

    wall = run.op_wall_s
    print(f"  self-time shares of the traced operation ({wall:.4g} s):")
    for name, seconds in run.shares:
        if name != "op" and seconds / wall >= 0.005:
            print(f"    {name:<40} {seconds:>10.4g} s  {100 * seconds / wall:5.1f} %")
    print("  replayed layers against that wall (replays run after the operation):")
    symmetry = metrics["network.view.build_s"] + metrics["network.view.job_form_s"]
    for name, seconds in (
        ("network.view build + job forms", symmetry),
        ("core.campaign pool overhead", metrics["core.campaign.pool_overhead_s"]
         if metrics["core.campaign.pool_speedup"] else 0.0),
        ("store + delta", sum(metrics[n] for n in (
            "store.load_s", "store.publish_s", "store.put_plan_s",
            "store.put_baseline_s", "store.get_baseline_s", "core.delta.diff_s",
            "api.model_fingerprint_s"))),
    ):
        if seconds:
            print(f"    {name:<40} {seconds:>10.4g} s  {100 * seconds / wall:5.1f} %")
    if metrics["cli.import_s"]:
        whole = wall + metrics["cli.import_s"]
        named = (metrics["network.view.job_form_s"] + metrics["cli.import_s"]
                 + metrics["core.engine.inject_s"])
        print(f"  attribution: network.view.job_form_s + cli.import_s + "
              f"core.engine.inject_s = {named:.4g} s of {whole:.4g} s "
              f"(operation + import): {100 * named / whole:.1f} %")
    print(f"  obs.unattributed_s is {100 * metrics['obs.unattributed_s'] / wall:.2f} % "
          f"of the operation; {count} spans written to "
          f"{os.path.relpath(trace_path, ROOT)}")
    return metrics, measure.PER_LAYER


# ---------------------------------------------------------------------------
# Every workload, both passes
# ---------------------------------------------------------------------------


def stamp(args) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
    }


def run_all(args) -> int:
    import loads

    started = time.perf_counter()
    runs: List[Dict[str, object]] = []
    broken = 0
    # Every workload, also those BENCHMARK.json does not list (README,
    # "Gated and extended workloads").
    for workload in loads.WORKLOADS:
        for repeat in range(args.repeat):
            for trace in (0, 1):
                # A fresh process per pass: RSS, caches and GC state are the
                # pass's own.
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", workload, "--seed", str(args.seed + repeat),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    stdout=subprocess.PIPE, text=True,
                )
                lines = done.stdout.rstrip("\n").split("\n")
                print("\n".join(lines[:-1]), flush=True)
                if done.returncode != 0:
                    print(f"bench: {workload} trace={trace} exited with "
                          f"{done.returncode}", file=sys.stderr)
                    broken += 1
                    continue
                with open(os.path.join(OUT, f"run-{workload}-trace{trace}.json"),
                          encoding="utf-8") as handle:
                    runs.append(json.load(handle))
    failed = sum(run["failed"] for run in runs)

    def first(workload: str, key: str, trace: int = 0):
        for run in runs:
            if run["workload"] == workload and run["trace"] == trace:
                return run[key]
        return None

    print("== across workloads")
    cold, pool = first("backbone-cold", "digest"), first("backbone-pool", "digest")
    agree = bool(cold) and cold == pool
    print(f"  backbone-cold and backbone-pool answers "
          f"{'agree' if agree else 'DISAGREE'} (semantic digest {str(cold)[:16]})")
    if first("backbone-cold", "metrics") and first("backbone-pool", "metrics"):
        speedup = (first("backbone-cold", "metrics")["wall_s"]
                   / first("backbone-pool", "metrics")["wall_s"])
        print(f"  core.campaign.pool_speedup from the timed passes: {speedup:.3f}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"stamp": stamp(args), "runs": runs}, handle, indent=1)
    shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)
    print(f"  {len(runs)} passes, {failed} failed operations, "
          f"{time.perf_counter() - started:.0f} s; wrote "
          f"{os.path.relpath(path, ROOT)}")
    return 0 if agree and not failed and not broken else 1


if __name__ == "__main__":
    sys.exit(main())
