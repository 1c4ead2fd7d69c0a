"""Tests for the session API: NetworkModel, the declarative query objects,
the textual query grammar and the plan compiler.

The load-bearing guarantees:

* a batch of queries over the same injection port compiles to ONE engine
  job (asserted via the campaign execution counters);
* plan fingerprints are independent of the order queries are given in;
* a planned batch runs each port once where the dedicated campaigns it
  replaces ran it once per query kind, and answers as they do;
* validation is hoisted into NetworkModel and runs exactly once.
"""

import dataclasses
import json
import os
import random

import pytest

from repro import Network, NetworkElement, models
from repro.api import (
    AdmittedValues,
    All,
    Any_,
    ForAllPairs,
    FromPorts,
    HeaderVisible,
    Invariant,
    Loop,
    NetworkModel,
    Not,
    Query,
    QueryParseError,
    Reach,
    compile_plan,
    execute_plan,
    parse_query,
)
from repro.api.queries import QUERY_TYPES
from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
    execution_counters,
    reset_execution_counters,
)
from repro.network.topology import Network as TopoNetwork
from repro.sefl import Assign, Forward, InstructionBlock, IpDst, ip_to_number

DEPARTMENT_OPTIONS = dict(
    access_switches=4, hosts_per_switch=2, mac_entries=300, extra_routes=20
)

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260728"))

#: Name characters of the round-trip property: every one the topology
#: grammar allows in a port name.
NAME_CHARS = "aZ09_./-*"


def _name(rng):
    return "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 5)))


def _port(rng):
    """``element:port``, or a bare element (a port query's ``in0``, an
    endpoint's every port)."""
    return f"{_name(rng)}:{_name(rng)}" if rng.random() < 0.8 else _name(rng)


def _maybe_port(rng):
    return _port(rng) if rng.random() < 0.5 else None


def _random_query(rng, depth):
    """A random query of any of the ten types, nested up to ``depth``."""
    kind = rng.choice(sorted(QUERY_TYPES)) if depth else rng.choice(
        ["reach", "loop", "invariant", "header_visible", "admitted_values"]
    )
    if kind == "reach":
        return Reach(_port(rng), _port(rng))
    if kind == "loop":
        return Loop(_maybe_port(rng))
    if kind == "invariant":
        fields = [_name(rng) for _ in range(rng.randint(1, 3))]
        return Invariant(*fields, port=_maybe_port(rng))
    if kind == "header_visible":
        return HeaderVisible(_name(rng), at=_maybe_port(rng), port=_maybe_port(rng))
    if kind == "admitted_values":
        options = dict(at=_maybe_port(rng), port=_maybe_port(rng))
        if rng.random() < 0.5:
            options["samples"] = rng.randint(1, 9)
        return AdmittedValues(_name(rng), **options)
    if kind in ("all", "any", "not"):
        children = []
        for _ in range(1 if kind == "not" else rng.randint(1, 3)):
            child = _random_query(rng, depth - 1)
            children.append(child if child.decidable else Loop(_maybe_port(rng)))
        return QUERY_TYPES[kind](*children)
    template = Reach if rng.random() < 0.3 else _random_query(rng, depth - 1)
    if kind == "forall_pairs":
        return ForAllPairs(template)
    return FromPorts([_port(rng) for _ in range(rng.randint(1, 3))], template)


def forwarding_network():
    """a:in0 -> a:out0 -> b:in0 -> b:out0 (a simple delivery chain)."""
    network = Network("chain")
    for name in ("a", "b"):
        element = NetworkElement(name, ["in0"], ["out0"])
        element.set_input_program("in0", Forward("out0"))
        network.add_element(element)
    network.add_link(("a", "out0"), ("b", "in0"))
    return network


def loop_network():
    """Two forwarders wired into a ring, entered via in-entry ports."""
    network = Network("ring")
    for name in ("a", "b"):
        element = NetworkElement(name, ["in0", "in-entry"], ["out0"])
        element.set_input_program("in0", Forward("out0"))
        element.set_input_program("in-entry", Forward("out0"))
        network.add_element(element)
    network.add_link(("a", "out0"), ("b", "in0"))
    network.add_link(("b", "out0"), ("a", "in0"))
    return network


def rewriting_network():
    """An element that overwrites IpDst with a constant (a NAT-ish box)."""
    network = Network("nat-ish")
    element = NetworkElement("nat", ["in0"], ["out0"])
    element.set_input_program(
        "in0",
        InstructionBlock(Assign(IpDst, ip_to_number("9.9.9.9")), Forward("out0")),
    )
    network.add_element(element)
    return network


# ---------------------------------------------------------------------------
# NetworkModel
# ---------------------------------------------------------------------------


class TestNetworkModel:
    def test_from_workload(self):
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        assert model.network().has_element("m1")
        assert len(model.injection_ports()) == 4
        assert model.describe().startswith("workload:department")

    def test_from_network_and_plain_constructor(self):
        network = forwarding_network()
        assert NetworkModel.from_network(network).network() is network
        assert NetworkModel(network).network() is network
        assert NetworkModel(NetworkSource.from_network(network)).network() is network

    def test_from_directory(self, tmp_path):
        (tmp_path / "topology.txt").write_text("device sw switch sw.mac\n")
        (tmp_path / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out0\n"
        )
        model = NetworkModel.from_directory(str(tmp_path))
        assert model.network().has_element("sw")
        assert model.injection_ports() == [("sw", "in0")]

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="NetworkModel takes"):
            NetworkModel(42)

    def test_network_built_once(self):
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        assert model.network() is model.network()

    def test_validation_runs_exactly_once(self, tmp_path, monkeypatch):
        """The satellite bugfix: directory networks are validated once per
        model, no matter how many campaigns/plans are spawned from it."""
        (tmp_path / "topology.txt").write_text(
            "device sw switch sw.mac\nlink sw:out0 -> ghost:in0\n"
        )
        (tmp_path / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out0\n"
        )
        calls = []
        original = TopoNetwork.validate

        def counting_validate(self):
            calls.append(self.name)
            return original(self)

        monkeypatch.setattr(TopoNetwork, "validate", counting_validate)
        clear_runtime_cache()
        model = NetworkModel.from_directory(str(tmp_path))
        problems = model.validate()
        assert problems  # the dangling link shows up ...
        assert model.validate() == problems  # ... and is cached
        campaign_result = model.campaign(queries=("loops",)).run()
        assert campaign_result.validation_problems == problems
        plan_result = model.query(Loop())
        assert plan_result.campaign.validation_problems == problems
        # A campaign made without the model resolves the same build, so it
        # reports the same findings without validating again.
        bare = VerificationCampaign(str(tmp_path), queries=("loops",))
        assert bare.validate() == problems
        assert len(calls) == 1

    @pytest.mark.parametrize("with_store", [False, True])
    def test_directory_query_builds_the_network_once(
        self, tmp_path, monkeypatch, with_store
    ):
        """Regression: the model and the campaign each used to build the
        directory (the campaign again for the end-of-run baseline manifest),
        so one query parsed and modelled every device twice."""
        import repro.parsers.topology_file as topology_file
        from repro.store import VerificationStore

        net = tmp_path / "net"
        net.mkdir()
        (net / "topology.txt").write_text("device sw switch sw.mac\n")
        (net / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out0\n"
        )
        calls = []
        original = topology_file.load_network_directory

        def counting_load(directory):
            calls.append(directory)
            return original(directory)

        monkeypatch.setattr(topology_file, "load_network_directory", counting_load)
        clear_runtime_cache()
        store = VerificationStore(str(tmp_path / "store")) if with_store else None
        result = NetworkModel.from_directory(str(net)).query(
            ForAllPairs(Reach), Loop(), store=store
        )
        assert not result.job_errors
        assert result.campaign.baseline_payload is not None
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Query objects and the textual grammar
# ---------------------------------------------------------------------------


class TestQueryObjects:
    def test_describe_and_equality(self):
        assert Reach("a:in0", "b").describe() == "reach(a:in0, b)"
        assert Reach(("a", "in0"), ("b", "out0")) == Reach("a:in0", "b:out0")
        assert Loop() == Loop(None) and Loop("a:in0") != Loop()
        assert Invariant("IpSrc", "IpDst").describe() == "invariant(IpSrc+IpDst)"
        assert len({Loop(), Loop(None)}) == 1

    def test_bare_element_gets_default_port(self):
        assert Reach("a", "b").src == ("a", "in0")

    def test_invariant_needs_fields(self):
        with pytest.raises(ValueError, match="at least one header field"):
            Invariant()

    def test_combinators_reject_report_queries(self):
        with pytest.raises(TypeError, match="boolean verdict"):
            Not(AdmittedValues("IpDst"))
        with pytest.raises(TypeError, match="boolean verdict"):
            All(Loop(), ForAllPairs(Reach))

    def test_quantifier_rejects_non_queries(self):
        with pytest.raises(TypeError, match="quantifiers take"):
            ForAllPairs("reach")

    def test_parser_roundtrips(self):
        cases = [
            ("reach(a:in0, b:out0)", Reach("a:in0", "b:out0")),
            ("loop()", Loop()),
            ("loop(acl0:in0)", Loop("acl0:in0")),
            ("invariant(IpSrc+IpDst)", Invariant("IpSrc", "IpDst")),
            ("invariant(IpSrc, acl0:in0)", Invariant("IpSrc", port="acl0:in0")),
            ("header_visible(IpSrc, at=r1:out0)", HeaderVisible("IpSrc", at="r1:out0")),
            (
                "admitted_values(TcpDst, at=r1:out0, samples=3)",
                AdmittedValues("TcpDst", at="r1:out0", samples=3),
            ),
            ("all(loop(), invariant(IpSrc))", All(Loop(), Invariant("IpSrc"))),
            ("any(loop(), reach(a:in0, b))", Any_(Loop(), Reach("a:in0", "b"))),
            ("not(reach(a:in0, b))", Not(Reach("a:in0", "b"))),
            ("forall_pairs(reach)", ForAllPairs(Reach)),
            ("forall_pairs(invariant(IpSrc))", ForAllPairs(Invariant("IpSrc"))),
            ("from_ports(a:in0+b:in0, loop())", FromPorts(["a:in0", "b:in0"], Loop())),
            ("from_ports(a:in0, reach)", FromPorts(["a:in0"], Reach)),
        ]
        for text, expected in cases:
            query = parse_query(text)
            assert type(query) is type(expected)
            assert query == expected, text
            assert parse_query(query.describe()).describe() == query.describe()

    def test_parser_sugar(self):
        assert parse_query("loop") == Loop()
        assert parse_query(" loop( a:in0 ) ") == Loop("a:in0")

    def test_any_parameter_binds_by_position_or_by_name(self):
        assert parse_query("reach(dst=b, src=a:in0)") == Reach("a:in0", "b")
        assert parse_query("loop(port=a:in0)") == Loop("a:in0")
        assert parse_query("invariant(fields=IpSrc+IpDst, port=a:in0)") == Invariant(
            "IpSrc", "IpDst", port="a:in0"
        )
        assert parse_query("header_visible(IpSrc, r1:out0, a:in0)") == HeaderVisible(
            "IpSrc", at="r1:out0", port="a:in0"
        )
        assert parse_query("admitted_values(field_name=TcpDst, at=r1, samples=2)") == (
            AdmittedValues("TcpDst", at="r1", samples=2)
        )
        assert parse_query("from_ports(template=loop, ports=b+a)") == FromPorts(
            ["a", "b"], Loop()
        )
        assert parse_query("forall_pairs(template=reach)") == ForAllPairs(Reach)

    def test_describe_spellings_are_pinned(self):
        """The canonical texts are a wire format and a cache key (plan
        fingerprints, result fingerprints, plan-cache entries hash them):
        these spellings are pinned byte for byte."""
        corpus = [
            Reach("a:in0", "b"),
            Reach(("a", "in0"), ("r1", "Gi0/1")),
            Reach("a", "b:out0"),
            Loop(),
            Loop("acl0:in0"),
            Loop("acl0"),
            Invariant("IpSrc"),
            Invariant("IpSrc", "IpDst", port="acl0:in0"),
            HeaderVisible("IpSrc"),
            HeaderVisible("IpSrc", at="r1:out0"),
            HeaderVisible("IpSrc", port="a:in0"),
            HeaderVisible("IpSrc", at="r1", port="a:in0"),
            AdmittedValues("TcpDst"),
            AdmittedValues("TcpDst", at="r1:out0", samples=5),
            AdmittedValues("TcpDst", port="a:in0"),
            AdmittedValues("TcpDst", at="r1", samples=1, port="a:in0"),
            All(Loop(), Invariant("IpSrc")),
            Any_(Loop("a:in0"), Reach("a:in0", "b")),
            Not(Reach("a:in0", "b")),
            Not(All(Loop(), Any_(Reach("a", "b"), Not(Loop("c:in1"))))),
            ForAllPairs(Reach),
            ForAllPairs(Invariant("IpSrc", port="a:in0")),
            ForAllPairs(All(Loop(), HeaderVisible("IpDst", at="b"))),
            FromPorts(["a:in0"], Reach),
            FromPorts(["b:in0", "a", ("c", "in1")], Loop()),
            FromPorts(["a:in0"], AdmittedValues("TcpDst", at="b")),
        ]
        assert [query.describe() for query in corpus] == [
            "reach(a:in0, b)",
            "reach(a:in0, r1:Gi0/1)",
            "reach(a:in0, b:out0)",
            "loop()",
            "loop(acl0:in0)",
            "loop(acl0:in0)",
            "invariant(IpSrc)",
            "invariant(IpSrc+IpDst, acl0:in0)",
            "header_visible(IpSrc)",
            "header_visible(IpSrc, at=r1:out0)",
            "header_visible(IpSrc, port=a:in0)",
            "header_visible(IpSrc, at=r1, port=a:in0)",
            "admitted_values(TcpDst, samples=3)",
            "admitted_values(TcpDst, at=r1:out0, samples=5)",
            "admitted_values(TcpDst, samples=3, port=a:in0)",
            "admitted_values(TcpDst, at=r1, samples=1, port=a:in0)",
            "all(loop(), invariant(IpSrc))",
            "any(loop(a:in0), reach(a:in0, b))",
            "not(reach(a:in0, b))",
            "not(all(loop(), any(reach(a:in0, b), not(loop(c:in1)))))",
            "forall_pairs(reach)",
            "forall_pairs(invariant(IpSrc, a:in0))",
            "forall_pairs(all(loop(), header_visible(IpDst, at=b)))",
            "from_ports(a:in0, reach)",
            "from_ports(a:in0+b:in0+c:in1, loop())",
            "from_ports(a:in0, admitted_values(TcpDst, at=b, samples=3))",
        ]
        assert {type(query) for query in corpus} == set(QUERY_TYPES.values())

    def test_random_queries_roundtrip(self):
        """Seed-pinned property: every generated query, nested up to three
        deep over names using ``/ . - *``, parses back from its text to an
        equal query whose text is the same (``describe()`` is a fixed
        point)."""
        rng = random.Random(SEED)
        for _ in range(600):
            query = _random_query(rng, depth=3)
            text = query.describe()
            parsed = parse_query(text)
            assert parsed == query and type(parsed) is type(query), text
            assert parsed.describe() == text

    def test_port_names_with_slashes_parse(self):
        query = Reach("a:in0", "r1:Gi0/1")
        assert parse_query(query.describe()) == query
        assert parse_query("loop(sw:Gi1/0/1)").port == ("sw", "Gi1/0/1")

    def test_cli_queries_a_port_named_like_the_mac_table(self, tmp_path, capsys):
        """A port the topology grammar and a MAC table accept can be named
        in a query: the all-pairs matrix reports ``sw:Gi1/0/1`` and a
        ``reach`` naming it runs."""
        from repro.cli import main

        (tmp_path / "topology.txt").write_text("device sw switch sw.mac\n")
        (tmp_path / "sw.mac").write_text(" 302    0200.0000.0001    DYNAMIC     Gi1/0/1\n")
        assert main(["query", str(tmp_path), "forall_pairs(reach)"]) == 0
        matrix = json.loads(capsys.readouterr().out)["queries"][0]
        assert "sw:Gi1/0/1" in json.dumps(matrix["value"])
        assert main(["query", str(tmp_path), "reach(sw:in0, sw:Gi1/0/1)"]) == 0
        answer = json.loads(capsys.readouterr().out)["queries"][0]
        assert answer["query"] == "reach(sw:in0, sw:Gi1/0/1)"
        assert answer["holds"] is True

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bogus()",
            "loop() trailing",
            "reach(a:in0)",
            "loop(a:in0, b:in0)",
            "invariant()",
            "not(loop(), loop())",
            "admitted_values(IpDst, samples=lots)",
            "header_visible(IpSrc, wat=1)",
            "forall_pairs(reach, loop)",
            "all(,)",
            "reach(a:in0, b:out0))",
            "reach(a:in0, b, c)",
            "reach(a:in0, b$)",
            "loop(a:in0+b:in0)",
            "loop(a:in0, port=b:in0)",
            "not()",
            "all(forall_pairs(reach))",
            "from_ports(a:in0, reach+loop)",
            "admitted_values(IpDst, samples=0)",
        ],
    )
    def test_parser_rejects(self, bad):
        with pytest.raises(QueryParseError):
            parse_query(bad)


# ---------------------------------------------------------------------------
# The plan compiler
# ---------------------------------------------------------------------------


class TestPlanner:
    def test_overlapping_queries_share_one_engine_job(self):
        """Two queries over the same injection port compile to ONE job and
        cost ONE symbolic execution."""
        model = NetworkModel.from_network(forwarding_network())
        plan = compile_plan(
            model, [Reach("a:in0", "b:out0"), Reach("a:in0", "nowhere")]
        )
        assert plan.job_count == 1
        clear_runtime_cache()
        reset_execution_counters()
        result = execute_plan(plan)
        assert execution_counters()["engine_runs"] == 1
        assert result.stats.jobs == 1
        assert result[0].holds is True
        assert result[1].holds is False

    def test_batch_runs_each_port_once_where_campaigns_ran_it_per_kind(self):
        """ForAllPairs(Reach) + Loop + Invariant in ONE planned batch vs the
        three dedicated campaigns they replace: one engine job per port
        instead of three, fewer full solves, and the same answers."""
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        ports = model.injection_ports()
        clear_runtime_cache()
        reset_execution_counters()
        batch = model.query(ForAllPairs(Reach), Loop(), Invariant("IpSrc"))
        assert batch.stats.jobs == execution_counters()["engine_runs"] == len(ports)

        source = NetworkSource.from_workload("department", **DEPARTMENT_OPTIONS)
        legacy = {}
        for kind in ("reachability", "loops", "invariants"):
            clear_runtime_cache()
            legacy[kind] = VerificationCampaign(
                source, queries=(kind,), invariant_fields=("IpSrc",)
            ).run()
        assert sum(r.stats.jobs for r in legacy.values()) == 3 * batch.stats.jobs
        assert batch.stats.solver_cache_misses < sum(
            r.stats.solver_cache_misses for r in legacy.values()
        )
        reach, loops, invariants = (legacy[kind] for kind in legacy)
        assert batch[0].backend.fingerprint() == reach.reachability.fingerprint()
        assert batch[1].backend.fingerprint() == loops.loop_report.fingerprint()
        assert batch[2].backend.fingerprint() == invariants.invariant_report.fingerprint()
        assert batch[2].holds == invariants.invariant_report.field_holds("IpSrc")

    def test_disjoint_ports_get_separate_jobs(self):
        model = NetworkModel.from_network(loop_network())
        plan = compile_plan(
            model, [Loop(("a", "in-entry")), Loop(("b", "in-entry"))]
        )
        assert plan.job_count == 2

    def test_from_ports_scope_replaces_the_template_port(self):
        """The quantifier's port set *replaces* the template's own port: no
        job is compiled (or executed) that the quantifier never reads."""
        model = NetworkModel.from_network(loop_network())
        quantified = FromPorts(
            [("a", "in-entry")], Invariant("IpSrc", port=("b", "in-entry"))
        )
        plan = compile_plan(model, [quantified])
        assert plan.injections == (("a", "in-entry"),)
        answer = execute_plan(plan)[0]
        assert list(answer.value["fields"]["IpSrc"]["by_source"]) == [
            "a:in-entry"
        ]

    def test_plan_fingerprint_is_order_independent(self):
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        queries = [ForAllPairs(Reach), Loop(), Invariant("IpSrc")]
        forward = compile_plan(model, queries)
        backward = compile_plan(model, list(reversed(queries)))
        assert forward.fingerprint() == backward.fingerprint()
        assert forward.injections == backward.injections

    def test_plan_fingerprint_of_every_query_type_is_pinned(self):
        """A plan's identity hashes its queries' canonical texts, so this
        pinned fingerprint over all ten types guards every spelling (and the
        plan-cache keys built from it)."""
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        batch = [
            ForAllPairs(Reach),
            Reach("office-sw0:in-host", "m1"),
            Loop(),
            Loop("cluster:in-node"),
            Invariant("IpSrc", "IpDst"),
            HeaderVisible("IpSrc", at="cluster"),
            AdmittedValues("TcpDst", port="m1:in-internet"),
            All(Loop(), Invariant("IpSrc")),
            Any_(Reach("lab-sw1:in-host", "m1"), Not(Loop("m1:in-internet"))),
            FromPorts(["office-sw0:in-host", "lab-sw1:in-host"], Reach),
            FromPorts(["cluster:in-node"], HeaderVisible("IpDst")),
        ]
        plan = compile_plan(model, batch)
        assert plan.job_count == 4
        assert plan.fingerprint() == (
            "e4578fc2119a9a0029a2f6ddd0d776d8f4919922044d53925ea7fbf37f502645"
        )

    def test_plan_fingerprint_separates_different_batches(self):
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        base = compile_plan(model, [Loop()])
        assert base.fingerprint() != compile_plan(model, [Loop(), Invariant("IpSrc")]).fingerprint()
        assert base.fingerprint() != compile_plan(model, [Loop()], packet="udp").fingerprint()

    def test_witness_budgets_collapse_to_max(self):
        model = NetworkModel.from_network(forwarding_network())
        plan = compile_plan(
            model,
            [AdmittedValues("IpDst", samples=2), AdmittedValues("IpDst", samples=5)],
        )
        assert plan.facts.witness_fields == (("IpDst", 5),)

    def test_compile_rejects_non_queries(self):
        model = NetworkModel.from_network(forwarding_network())
        with pytest.raises(TypeError, match="not a query"):
            compile_plan(model, [Loop(), "loop()"])
        with pytest.raises(ValueError, match="at least one query"):
            compile_plan(model, [])

    def test_plan_result_indexing(self):
        model = NetworkModel.from_network(forwarding_network())
        result = model.query(Loop(), Reach("a:in0", "b"))
        assert result["loop()"] is result[0]
        assert result[Reach("a:in0", "b")] is result[1]
        assert len(result) == 2
        with pytest.raises(KeyError):
            result["bogus"]


class TestPerPortNarrowing:
    """The ROADMAP PR 4 follow-up: per-port fact requirements are the union
    over the queries that *need that port*, not the whole batch."""

    def _queries(self):
        # Disjoint ports with disjoint fact needs: the loop query needs no
        # witness sampling at a:in-entry, the witness query no loop
        # aggregation at b:in-entry.
        return [
            Loop(("a", "in-entry")),
            AdmittedValues("IpSrc", port=("b", "in-entry"), samples=2),
        ]

    def test_port_facts_are_per_query_unions(self):
        model = NetworkModel.from_network(loop_network())
        plan = compile_plan(model, self._queries())
        facts = dict(plan.port_facts)
        a_facts = facts[("a", "in-entry")]
        b_facts = facts[("b", "in-entry")]
        assert a_facts.kinds == ("loops",)
        assert a_facts.witness_fields == ()
        assert b_facts.kinds == ()
        assert b_facts.witness_fields == (("IpSrc", 2),)
        # The campaign-level union still aggregates everything.
        assert plan.kinds == ("loops",)
        assert plan.facts.witness_fields == (("IpSrc", 2),)

    def test_narrowing_reduces_fact_channels_with_identical_answers(self):
        model = NetworkModel.from_network(loop_network())

        clear_runtime_cache()
        reset_execution_counters()
        narrowed = execute_plan(compile_plan(model, self._queries()))
        narrowed_channels = execution_counters()["fact_channels"]

        clear_runtime_cache()
        reset_execution_counters()
        plan = compile_plan(model, self._queries())
        # Every job collecting the whole batch's union — the pre-narrowing
        # behaviour — is the comparison baseline.
        widened = execute_plan(
            dataclasses.replace(
                plan,
                port_facts=tuple((port, plan.facts) for port, _ in plan.port_facts),
            )
        )
        widened_channels = execution_counters()["fact_channels"]

        assert narrowed_channels < widened_channels
        assert [r.fingerprint for r in narrowed] == [
            r.fingerprint for r in widened
        ]
        assert [r.holds for r in narrowed] == [r.holds for r in widened]

    def test_default_scope_queries_union_over_every_default_port(self):
        """Queries quantifying over the model's default ports need facts at
        every one of them, so a whole-batch default-scope query keeps every
        port's channels — narrowing only removes what no query reads."""
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        plan = compile_plan(model, [Loop(), Invariant("IpSrc")])
        facts = dict(plan.port_facts)
        assert set(facts) == set(model.injection_ports())
        for port_facts in facts.values():
            assert port_facts.kinds == ("loops", "invariants")
            assert port_facts.invariant_fields == ("IpSrc",)

    def test_narrowed_batch_matches_dedicated_plans(self):
        """Per-port narrowing must not change a single demuxed answer
        relative to running each query as its own plan."""
        model = NetworkModel.from_network(loop_network())
        batch = execute_plan(compile_plan(model, self._queries()))
        for query in self._queries():
            clear_runtime_cache()
            alone = execute_plan(compile_plan(model, [query]))
            assert batch[query].fingerprint == alone[query].fingerprint


# ---------------------------------------------------------------------------
# Query semantics on small in-process networks
# ---------------------------------------------------------------------------


class TestQuerySemantics:
    def test_reach_evidence_carries_an_example_trace(self):
        model = NetworkModel.from_network(forwarding_network())
        answer = model.query(Reach("a:in0", "b:out0"))[0]
        assert answer.holds is True
        assert answer.value["path_counts"] == {"b:out0": 1}
        assert answer.evidence["examples"]["b:out0"][0] == "a:in0"
        assert answer.evidence["examples"]["b:out0"][-1] == "b:out0"

    def test_loop_detection_via_from_ports(self):
        model = NetworkModel.from_network(loop_network())
        result = model.query(
            FromPorts([("a", "in-entry")], Loop()),
            Reach(("a", "in-entry"), "nowhere"),
        )
        looped = result[0]
        assert looped.holds is False
        assert looped.evidence["findings"] >= 1
        assert looped.query == "from_ports(a:in-entry, loop())"

    def test_invariant_and_visibility_on_rewriting_network(self):
        model = NetworkModel.from_network(rewriting_network())
        result = model.query(
            Invariant("IpDst"),
            Invariant("IpSrc"),
            HeaderVisible("IpDst"),
            HeaderVisible("IpSrc"),
            AdmittedValues("IpDst", samples=2),
        )
        assert result[0].holds is False  # IpDst was overwritten
        assert result[1].holds is True
        assert result[2].holds is False  # the source's IpDst symbol is gone
        assert result[3].holds is True
        assert result[4].value["values"] == [ip_to_number("9.9.9.9")]

    def test_header_visible_at_port_scoping(self):
        model = NetworkModel.from_network(rewriting_network())
        result = model.query(
            HeaderVisible("IpSrc", at="nat:out0"),
            HeaderVisible("IpSrc", at="nowhere:out0"),
        )
        assert result[0].holds is True
        # Nothing was delivered at the bogus port: vacuous, so not verified.
        assert result[1].holds is False
        assert result[1].value["checked"] == 0

    def test_admitted_values_respects_constraints(self):
        network = Network("filter")
        element = NetworkElement("fw", ["in0"], ["out0"])
        from repro.sefl import Constrain, Eq, TcpDst

        element.set_input_program(
            "in0",
            InstructionBlock(Constrain(Eq(TcpDst, 443)), Forward("out0")),
        )
        network.add_element(element)
        model = NetworkModel.from_network(network)
        answer = model.query(AdmittedValues("TcpDst", at="fw:out0", samples=3))[0]
        assert answer.value["values"] == [443]

    def test_combinators_combine_verdicts(self):
        model = NetworkModel.from_network(forwarding_network())
        result = model.query(
            All(Loop(), Reach("a:in0", "b:out0")),
            Any_(Reach("a:in0", "nowhere"), Reach("a:in0", "b")),
            Not(Reach("a:in0", "nowhere")),
        )
        assert [answer.holds for answer in result] == [True, True, True]
        assert result[0].query == "all(loop(), reach(a:in0, b:out0))"

    def test_forall_pairs_matrix_mode(self):
        model = NetworkModel.from_workload("department", **DEPARTMENT_OPTIONS)
        answer = model.query(ForAllPairs(Reach))[0]
        assert answer.holds is None
        assert answer.kind == "reach_matrix"
        assert answer.value["reachable_pairs"] > 0
        assert answer.backend.fingerprint()  # the ReachabilityMatrix


# ---------------------------------------------------------------------------
# No green verdict from a partial exploration
# ---------------------------------------------------------------------------

TRUNCATION_OPTIONS = dict(zones=4, internal_prefixes_per_zone=4, service_acl_rules=2)


class Fixed(Query):
    """A leaf with a canned verdict, for the combinators' truth table."""

    def __init__(self, verdict):
        self.verdict = verdict

    def describe(self):
        return f"fixed({self.verdict})"

    def evaluate(self, ctx):
        from repro.api import QueryResult

        return QueryResult(self.describe(), "fixed", self.verdict, None)


class TestIncompleteExploration:
    """A truncated or failed job has shown only part of its port's
    behaviour: answers that rest on it are unknown (``holds is None``),
    never a green verdict nobody earned."""

    def _model(self):
        return NetworkModel.from_workload("stanford", **TRUNCATION_OPTIONS)

    def test_truncated_scope_answers_unknown_not_true(self):
        queries = (Loop(), Not(Reach("acl3:in0", "zr3:hosts")))
        cut = self._model().query(*queries, max_paths=1)
        assert cut.stats.truncated_jobs == 4
        assert [answer.holds for answer in cut] == [None, None]
        assert cut[0].evidence["incomplete_ports"] == [
            "acl0:in0", "acl1:in0", "acl2:in0", "acl3:in0"
        ]
        assert cut[1].evidence["incomplete_ports"] == ["acl3:in0"]
        # The same batch at the default budget: the pair *is* reachable.
        full = self._model().query(*queries)
        assert full.stats.truncated_jobs == 0
        assert [answer.holds for answer in full] == [True, False]
        for answer in full:
            assert "incomplete_ports" not in answer.evidence
        # Unknown is a different answer, not a differently-labelled True.
        assert cut[0].fingerprint != full[0].fingerprint

    def test_what_was_explored_still_decides(self):
        # max_paths=3 cuts acl3:in0 short after its zr3 delivery was found.
        result = self._model().query(
            Reach("acl3:in0", "zr3:hosts"),
            Reach("acl3:in0", "zr0:hosts"),
            Invariant("IpSrc", port="acl3:in0"),
            max_paths=3,
        )
        assert result.stats.truncated_jobs == 1
        found, not_found, invariant = result
        assert found.holds is True  # a delivery found stays found
        assert found.evidence["incomplete_ports"] == ["acl3:in0"]
        assert not_found.holds is None  # absence proves nothing
        assert invariant.holds is None
        complete = self._model().query(Reach("acl3:in0", "zr0:hosts"))
        assert complete[0].holds is True

    @pytest.mark.parametrize(
        "network,queries",
        [
            (loop_network, [Loop(("a", "in-entry"))]),
            (rewriting_network, [Invariant("IpDst"), HeaderVisible("IpDst")]),
        ],
    )
    def test_found_counterexamples_survive_truncation(self, network, queries):
        """A loop / violation / invisible field that *was* found decides
        the answer even if the job was then cut short; a clean but cut-short
        report decides nothing."""
        from repro.api import PlanContext

        model = NetworkModel.from_network(network())
        plan = compile_plan(model, queries)
        complete = execute_plan(plan)
        assert [answer.holds for answer in complete] == [False] * len(queries)
        cut_short = {
            job.source_key: dataclasses.replace(job, truncated=True)
            for job in complete.campaign.jobs
        }
        ctx = PlanContext(plan, reports=cut_short)
        for query in queries:
            answer = query.evaluate(ctx)
            assert answer.holds is False
            assert answer.evidence["incomplete_ports"] == sorted(cut_short)
        clean = {
            key: dataclasses.replace(
                job, loops=[], invariants={}, visibility={}, truncated=True
            )
            for key, job in cut_short.items()
        }
        ctx = PlanContext(plan, reports=clean)
        assert [query.evaluate(ctx).holds for query in queries] == [None] * len(queries)

    def test_hop_budget_cut_off_is_not_a_proven_loop(self):
        """``max_hops`` is a budget like ``max_paths``: a path it stops marks
        the job truncated, and only a loop the detector *proved* may settle
        ``loop()``.  (The CI department workload: loop-free, 14 pairs.)"""
        model = NetworkModel.from_workload(
            "department", access_switches=4, hosts_per_switch=2,
            mac_entries=300, extra_routes=20,
        )
        complete = model.query(Loop(), ForAllPairs(Reach))
        assert complete.stats.truncated_jobs == 0
        assert [answer.holds for answer in complete] == [True, None]
        assert complete[0].value["findings"] == []
        assert complete[1].evidence == {"reachable_pairs": 14}

        cut = model.query(Loop(), ForAllPairs(Reach), max_hops=3)
        assert cut.stats.truncated_jobs == 3
        for answer in cut:
            assert answer.holds is None
            assert len(answer.evidence["incomplete_ports"]) == 3
        # The cut-off stays visible: a finding with the status and reason it
        # always had, flagged as proof of nothing.
        findings = cut[0].value["findings"]
        assert len(findings) == 4
        for finding in findings:
            assert finding["cut_off"] is True
            assert finding["reason"] == "hop limit (3) exceeded"
        assert cut[1].evidence["reachable_pairs"] == 8  # of the 14

    def test_proven_loop_settles_the_answer_at_any_budget(self):
        ring = NetworkModel.from_network(loop_network())
        for budget in ({}, {"max_hops": 4}):
            (answer,) = ring.query(Loop(("a", "in-entry")), **budget)
            assert answer.holds is False
            (finding,) = answer.value["findings"]
            assert finding["cut_off"] is False
            assert finding["reason"].startswith("loop detected at")
        # One hop less and the detector never gets its second visit to b:in0.
        (answer,) = ring.query(Loop(("a", "in-entry")), max_hops=3)
        assert answer.holds is None
        assert answer.evidence["incomplete_ports"] == ["a:in-entry"]

    def test_failed_jobs_answer_unknown(self):
        result = self._model().query(Loop(), ForAllPairs(Reach), packet="bogus")
        assert len(result.job_errors) == 4
        assert result[0].holds is None
        assert len(result[0].evidence["incomplete_ports"]) == 4
        assert len(result[1].evidence["incomplete_ports"]) == 4

    @pytest.mark.parametrize(
        "left,right,conjunction,disjunction",
        [
            (True, True, True, True),
            (True, False, False, True),
            (True, None, None, True),
            (False, False, False, False),
            (False, None, False, None),
            (None, None, None, None),
        ],
    )
    def test_combinators_follow_kleene_logic(
        self, left, right, conjunction, disjunction
    ):
        from types import SimpleNamespace

        ctx = SimpleNamespace(incomplete_ports=lambda scope: [])
        for a, b in ((left, right), (right, left)):
            assert All(Fixed(a), Fixed(b))._evaluate(ctx, ()).holds is conjunction
            assert Any_(Fixed(a), Fixed(b))._evaluate(ctx, ()).holds is disjunction
        for verdict, negation in ((True, False), (False, True), (None, None)):
            assert Not(Fixed(verdict))._evaluate(ctx, ()).holds is negation

    def test_unknown_round_trips_through_the_plan_cache(self, tmp_path):
        from repro.store import VerificationStore

        queries = (Loop(), Not(Reach("acl3:in0", "zr3:hosts")))
        store = VerificationStore(str(tmp_path / "store"))
        first = self._model().query(*queries, max_paths=1, store=store)
        again = self._model().query(
            *queries, max_paths=1, store=VerificationStore(str(tmp_path / "store"))
        )
        assert not first.from_cache and again.from_cache
        assert [answer.holds for answer in again] == [None, None]
        assert [a.fingerprint for a in again] == [a.fingerprint for a in first]
        assert again[1].evidence["incomplete_ports"] == ["acl3:in0"]
        assert again.stats.truncated_jobs == 4
        # A different budget is a different plan: the cut-short answers can
        # never be served to a run that explores everything.
        full = self._model().query(
            *queries, store=VerificationStore(str(tmp_path / "store"))
        )
        assert not full.from_cache
        assert [answer.holds for answer in full] == [True, False]
