"""Compare two results files of ``run.py``: every end-to-end metric of every
workload against its bound, one row per (workload, metric).

A change is judged on medians over runs (``run.py --repeat N`` makes N runs
per workload).  When the spread between runs — the distance between the
first and third quartile, as a share of the median — is wider than the
metric's bound on either side, or a side has fewer than four runs, the row
says *unresolved*, not *unchanged*.  Counter layer metrics must repeat
exactly and are listed when they do not.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from measure import quartiles

#: Fewest runs per side from which quartiles mean anything.
MIN_RUNS = 4


def load(path: str) -> Tuple[Dict[str, object], Dict[Tuple[str, int], List[Dict[str, float]]]]:
    """``(stamp, {(workload, trace): [metrics of each run]})``."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    runs: Dict[Tuple[str, int], List[Dict[str, float]]] = {}
    for run in document["runs"]:
        runs.setdefault((run["workload"], run["trace"]), []).append(run["metrics"])
    return document["stamp"], runs


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    if min(len(a), len(b)) < MIN_RUNS:
        return f"unresolved (fewer than {MIN_RUNS} runs)"
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    worse = (b_median - a_median) / a_median
    if better == "higher":
        worse = -worse
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    if spread > bound:
        return f"unresolved (spread {100 * spread:.1f} % > bound)"
    if worse > bound:
        return f"REGRESSED by {100 * worse:.1f} %"
    if -worse > spread:
        return f"improved by {100 * -worse:.1f} %"
    return "unchanged"


def main(spec: Dict[str, object], path_a: str, path_b: str) -> int:
    stamp_a, runs_a = load(path_a)
    stamp_b, runs_b = load(path_b)
    for label, stamp in (("A", stamp_a), ("B", stamp_b)):
        print(f"{label}: " + "  ".join(f"{k}={v}" for k, v in stamp.items()))
    regressed = 0
    print(f"{'workload':<18} {'metric':<15} {'A q1/median/q3':<30} "
          f"{'B q1/median/q3':<30} bound  verdict")
    workloads = list(dict.fromkeys(workload for workload, _ in list(runs_a) + list(runs_b)))
    for workload in workloads:
        a_runs, b_runs = runs_a.get((workload, 0), []), runs_b.get((workload, 0), [])
        if not a_runs or not b_runs:
            print(f"{workload:<18} missing from {'A' if not a_runs else 'B'}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run[name] for run in a_runs]
            b = [run[name] for run in b_runs]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            regressed += outcome.startswith("REGRESSED")
            print(
                f"{workload:<18} {name:<15} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(a)):<30} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(b)):<30} "
                f"{100 * metric['bound']:>4.0f} %  {outcome}"
            )
    counters = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in workloads:
        a_runs, b_runs = runs_a.get((workload, 1), []), runs_b.get((workload, 1), [])
        for name in counters:
            seen_a = sorted({run[name] for run in a_runs})
            seen_b = sorted({run[name] for run in b_runs})
            if a_runs and b_runs and seen_a != seen_b:
                print(f"counter {workload} {name}: A {seen_a}  B {seen_b}")
    return 1 if regressed else 0
