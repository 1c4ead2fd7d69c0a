"""Incremental-solver ablation on the paper's evaluation workloads.

Reruns the Table 2 router analysis and the §8.5 department injection with
the incremental solver switched off (every feasibility check re-solves the
whole path conjunction) and on (push/pop scopes + propagated domains +
memoized full checks), asserting:

* the explored path set is identical in both modes — the optimisation is
  purely an engine-internal change;
* the incremental engine issues at most half the full solver calls (in
  practice it fast-paths nearly all of them).
"""

import pytest

from repro import ExecutionSettings, Network, SymbolicExecutor, models
from repro.models.router import build_router
from repro.workloads import build_department_network, generate_fib
from repro.workloads.fibs import fib_subset

from conftest import scaled

PORTS = 16
_FIB = generate_fib(scaled(3000, 188_500), ports=PORTS, seed=12)

DEPT = build_department_network(
    access_switches=scaled(4, 15),
    hosts_per_switch=scaled(3, 8),
    mac_entries=scaled(600, 6000),
    extra_routes=scaled(60, 400),
)


def _path_set(result):
    return sorted(
        (record.status, str(record.last_port), tuple(record.state.port_trace))
        for record in result.paths
    )


def _settings(**kwargs):
    return ExecutionSettings(record_failed_paths=False, **kwargs)


def _run_router(style, fraction, **kwargs):
    fib = fib_subset(_FIB, fraction, seed=1)
    network = Network()
    network.add_element(build_router("core", fib, style=style))
    executor = SymbolicExecutor(network, settings=_settings(**kwargs))
    return executor.inject(models.symbolic_ip_packet(), "core", "in0")


@pytest.mark.parametrize("style,fraction", [("egress", 1.0), ("ingress", 0.33)])
def test_router_identical_paths_and_2x_fewer_solver_calls(
    style, fraction, bench_report
):
    legacy = _run_router(style, fraction, use_incremental_solver=False)
    incremental = _run_router(style, fraction, use_incremental_solver=True)

    assert _path_set(legacy) == _path_set(incremental)
    assert legacy.solver_calls >= 2
    assert incremental.solver_calls * 2 <= legacy.solver_calls
    bench_report.append(
        f"Incremental | Table 2 {style} ({fraction:.0%}): solver calls "
        f"{legacy.solver_calls} -> {incremental.solver_calls} "
        f"(fast paths {incremental.solver_fast_paths}), solver time "
        f"{legacy.solver_time_seconds:.3f}s -> "
        f"{incremental.solver_time_seconds:.3f}s, identical "
        f"{len(incremental.paths)}-path set"
    )


def test_department_identical_paths_and_2x_fewer_solver_calls(bench_report):
    def run(incremental):
        executor = SymbolicExecutor(
            DEPT.network, settings=_settings(use_incremental_solver=incremental)
        )
        return executor.inject(models.symbolic_tcp_packet(), *DEPT.internet_entry)

    legacy = run(False)
    incremental = run(True)
    assert _path_set(legacy) == _path_set(incremental)
    assert legacy.solver_calls >= 2
    assert incremental.solver_calls * 2 <= legacy.solver_calls
    bench_report.append(
        f"Incremental | Sec 8.5 Internet->dept: solver calls "
        f"{legacy.solver_calls} -> {incremental.solver_calls} "
        f"(fast paths {incremental.solver_fast_paths}, cache hits "
        f"{incremental.solver_cache_hits})"
    )
