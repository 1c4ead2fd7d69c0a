"""E2 — Figure 8: symbolic execution of different switch models.

The paper injects a packet with a symbolic destination MAC into three models
of the same MAC table (basic / ingress / egress) and plots verification time
as the table grows from 440 to 500 000 entries: the basic model explodes
(one path per entry, out of memory beyond ~1 000 entries), the ingress model
is quadratic in constraints, the egress model scales to 480 000 entries in
seconds.  The reproduction sweeps scaled-down table sizes and checks the
ordering egress ≤ ingress ≪ basic, plus the path-count structure behind it.
"""

import time

import pytest

from repro import ExecutionSettings, Network, SymbolicExecutor, models
from repro.models.switch import build_switch
from repro.workloads import generate_mac_table

from conftest import scaled

SETTINGS = ExecutionSettings(record_failed_paths=False)
PORTS = 20

SIZES = {
    "basic": [scaled(100, 440), scaled(200, 1000)],
    "ingress": [scaled(100, 440), scaled(500, 5_000), scaled(1000, 10_000)],
    "egress": [scaled(100, 440), scaled(1000, 10_000), scaled(4000, 480_000)],
}

_MEASURED = {}


def _run_switch(style, entries):
    table = generate_mac_table(entries, ports=PORTS, seed=8)
    network = Network()
    network.add_element(build_switch("sw", table, style=style))
    executor = SymbolicExecutor(network, settings=SETTINGS)
    started = time.perf_counter()
    result = executor.inject(models.symbolic_tcp_packet(), "sw", "in0")
    elapsed = time.perf_counter() - started
    return result, elapsed


@pytest.mark.parametrize(
    "style,entries",
    [(style, entries) for style, sizes in SIZES.items() for entries in sizes],
)
def test_switch_model_scaling(benchmark, style, entries, bench_report):
    result, elapsed = benchmark.pedantic(
        _run_switch, args=(style, entries), rounds=1, iterations=1
    )
    ports_in_use = len(
        {p.last_port.port for p in result.delivered()}
    )
    _MEASURED[(style, entries)] = (elapsed, len(result.delivered()))
    bench_report.append(
        f"Figure 8 | {style:7s} model, {entries:6d} MAC entries: "
        f"{elapsed:7.3f}s, {len(result.delivered())} paths, "
        f"{ports_in_use} ports reached, {result.solver_calls} solver calls"
    )
    assert result.delivered()


def test_fig8_shape_path_counts(bench_report):
    """Basic produces one path per entry; ingress/egress one per port."""
    entries = SIZES["basic"][0]
    basic, _ = _run_switch("basic", entries)
    ingress, _ = _run_switch("ingress", entries)
    egress, _ = _run_switch("egress", entries)
    assert len(basic.delivered()) == entries
    assert len(ingress.delivered()) <= PORTS
    assert len(egress.delivered()) <= PORTS
    bench_report.append(
        f"Figure 8 | paths at {entries} entries: basic={len(basic.delivered())}, "
        f"ingress={len(ingress.delivered())}, egress={len(egress.delivered())}"
    )


def test_fig8_shape_runtime_ordering(bench_report):
    """At equal size the egress model must not be slower than the basic model,
    and the basic model's cost must grow much faster with table size."""
    small, large = SIZES["basic"][0], SIZES["basic"][1]

    def fastest_of_three(entries):
        # Both runs take ~10-20 ms: a single sample of each orders nothing on
        # a shared host (one GC pause or neighbour burst outweighs the gap).
        return min(_run_switch("basic", entries)[1] for _ in range(3))

    basic_small, basic_large = fastest_of_three(small), fastest_of_three(large)
    egress_large_size = SIZES["egress"][-1]
    egress_large = _MEASURED.get(("egress", egress_large_size)) or (
        _run_switch("egress", egress_large_size)[1],
        0,
    )
    basic_rate = basic_large / large
    egress_rate = egress_large[0] / egress_large_size
    bench_report.append(
        f"Figure 8 | per-entry cost: basic {basic_rate * 1e3:.3f} ms/entry vs "
        f"egress {egress_rate * 1e3:.3f} ms/entry"
    )
    assert egress_rate < basic_rate
    # The basic model's total cost grows superlinearly with the table.
    assert basic_large > basic_small
