"""The session API: ask network-wide questions through one front door.

Three ways to build a :class:`~repro.api.NetworkModel` — from a registered
workload, from an in-process network, and (commented, since it needs files
on disk) from a §7.1 snapshot directory — and one way to ask questions: a
batch of declarative queries compiled onto a single shared execution plan.
Queries over the same injection ports share one symbolic execution, so the
whole batch below costs one engine job per injection port.

Run with::

    python examples/network_queries.py
"""

from repro import Network, NetworkElement
from repro.api import (
    AdmittedValues,
    All,
    ForAllPairs,
    HeaderVisible,
    Invariant,
    Loop,
    NetworkModel,
    Not,
    Reach,
)
from repro.sefl import Assign, Constrain, Eq, Forward, If, InstructionBlock, IpDst, IpSrc, TcpDst, ip_to_number


def main() -> None:
    # --- a model over a registered workload -----------------------------------
    model = NetworkModel.from_workload(
        "department",
        access_switches=4, hosts_per_switch=2, mac_entries=300, extra_routes=20,
    )
    print(f"model: {model.describe()}")
    print(f"default injection ports: {model.injection_ports()}\n")

    result = model.query(
        ForAllPairs(Reach),      # the all-pairs reachability matrix
        Loop(),                  # is the whole network loop-free?
        Invariant("IpDst"),      # does IpDst survive every delivered path?
    )
    matrix = result["forall_pairs(reach)"]
    print(f"one plan, {result.plan.job_count} engine jobs, {len(result)} queries:")
    print(f"  reachable pairs : {matrix.evidence['reachable_pairs']}")
    print(f"  loop-free       : {result['loop()'].holds}")
    print(f"  IpDst invariant : {result['invariant(IpDst)'].holds}")
    print(f"  plan fingerprint: {result.plan.fingerprint()[:16]}\n")

    # --- a model over an in-process network -----------------------------------
    network = Network("dmz")
    nat = NetworkElement("nat", ["in0"], ["out0"])
    nat.set_input_program(
        "in0",
        InstructionBlock(
            Constrain(Eq(TcpDst, 443)),
            If(
                Eq(IpDst, ip_to_number("10.0.0.80")),
                InstructionBlock(
                    Assign(IpDst, ip_to_number("192.168.0.80")), Forward("out0")
                ),
                Forward("out0"),
            ),
        ),
    )
    network.add_element(nat)
    dmz = NetworkModel.from_network(network)

    answers = dmz.query(
        Reach("nat:in0", "nat:out0"),
        All(Loop(), Not(Reach("nat:in0", "nowhere"))),
        HeaderVisible("IpSrc", at="nat:out0"),
        HeaderVisible("IpDst", at="nat:out0"),
        AdmittedValues("TcpDst", at="nat:out0", samples=3),
    )
    for answer in answers:
        print(f"{answer.query:48s} -> {answer.summary()}")
    values = answers["admitted_values(TcpDst, at=nat:out0, samples=3)"]
    print(f"  admitted TcpDst values at nat:out0: {values.value['values']}")

    # --- a model over a snapshot directory ------------------------------------
    # NetworkModel.from_directory("NETWORK_DIR") works the same way, and the
    # CLI speaks the identical textual query forms:
    #   python -m repro.cli query NETWORK_DIR "forall_pairs(reach)" "loop()"


if __name__ == "__main__":
    main()
