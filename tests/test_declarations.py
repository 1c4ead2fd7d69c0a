"""The declarations are the only list.

``RunSettings`` (core/settings.py), ``Facts`` and ``REPORT_FIELDS``
(core/facts.py) are each written down once; digests, fingerprints, the CLI
flags, the serve message checks and the report codecs are derived from
them.  So is the counter table — the fields of ``CampaignStats``
(core/queries.py) and ``SolverStats`` (solver/result.py), each naming its
registry series or none — from which the stats JSON, ``from_dict`` and the
Prometheus registry are derived.  These tests walk the declarations by
introspection, so a field added to one of them is covered — or fails here
until it is classified — without anyone remembering to extend a second
list.
"""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro import cli
from repro.api import (
    AdmittedValues,
    HeaderVisible,
    Invariant,
    Loop,
    NetworkModel,
    Reach,
    compile_plan,
    execute_plan,
)
from repro.core.campaign import (
    PACKET_TEMPLATES,
    CampaignJob,
    Facts,
    JobReport,
    NetworkSource,
    RunSettings,
    VerificationCampaign,
    clear_runtime_cache,
    semantic_projection,
)
from repro.core.delta import DeltaReducer, report_from_payload, report_to_payload
from repro.core import facts as facts_module, queries as queries_module
from repro.core.facts import REPORT_FIELDS, SEMANTIC_FIELDS, ReportField, schema_digest
from repro.core.engine import ExecutionSettings, SymbolicExecutor
from repro.core.jobs import execution_counters, job_config_digest, reset_execution_counters
from repro.core.queries import OUTCOMES, CampaignStats, ensure_core_families
from repro.core.settings import SETTING_NAMES, TIER_SWITCHES, _setting, _tier_switch
from repro.obs import Family, MetricsRegistry, get_registry, reset_registry
from repro.obs.metrics import CAMPAIGNS, JOBS
from repro.serve import ProtocolError, protocol
from repro.serve.scheduler import _parse_request
from repro.solver.result import SolverStats
from repro.store import VerificationStore
from repro.workloads.export import export_department_style_directory

from test_config_lattice import CASES as LATTICE_CASES

STANFORD = dict(zones=4, internal_prefixes_per_zone=4, service_acl_rules=2)

#: A non-default value for every run setting — its only value for one whose
#: declaration lists one (``ONE_VALUED``).  Keyed by name so that a new
#: setting fails ``test_every_setting_is_exercised`` until it gets one.
CHANGED_SETTINGS = {
    "packet": "udp",
    "field_values": (("IpSrc", 167772161),),
    "max_hops": 64,
    "max_paths": 7,
    "strategy": "dfs",
    "shared_cache": False,
    "symmetry": False,
    "delta": False,
    "state_memo": False,
}
CHANGED_FACTS = {
    "kinds": ("loops", "invariants"),
    "invariant_fields": ("IpDst",),
    "visibility_fields": ("IpSrc",),
    "witness_fields": (("TcpDst", 2),),
    "record_examples": True,
}
BASE_FACTS = Facts(kinds=("invariants",))  # so invariant_fields can vary

#: The settings whose declaration lists one value: nothing to change to.
ONE_VALUED = {"strategy", "symmetry"}
#: CLI spellings that are not ``--<name with dashes> VALUE``.
CLI_FLAGS = {
    "field_values": ["--field", "IpSrc=10.0.0.1"],
    "shared_cache": ["--no-shared-cache"],
    "symmetry": ["--no-symmetry"],
    "delta": ["--no-delta"],
    "state_memo": ["--no-state-memo"],
}
#: The one setting's wire spelling that is not its name.
WIRE_NAMES = {"field_values": "fields"}


def setting_fields():
    return [spec.name for spec in dataclasses.fields(RunSettings)]


def fact_fields():
    return [spec.name for spec in dataclasses.fields(Facts)]


def test_every_setting_is_exercised():
    assert set(CHANGED_SETTINGS) == set(setting_fields()) == set(SETTING_NAMES)
    assert set(CHANGED_FACTS) == set(fact_fields())
    defaults = RunSettings()
    for spec in dataclasses.fields(RunSettings):
        value = CHANGED_SETTINGS[spec.name]
        if spec.name in ONE_VALUED:
            assert spec.metadata["choices"] == (value,) == (spec.default,), spec.name
        else:
            assert getattr(defaults, spec.name) != value, spec.name
    for name, value in CHANGED_FACTS.items():
        assert getattr(BASE_FACTS, name) != value, name


@pytest.fixture(scope="module")
def model():
    return NetworkModel.from_workload("department")


# ---------------------------------------------------------------------------
# (a) digests and fingerprints are functions of the declarations
# ---------------------------------------------------------------------------


def _job(settings=RunSettings(), facts=BASE_FACTS):
    source = NetworkSource.from_workload("department")
    return CampaignJob(source, "sw", "in0", settings=settings, facts=facts)


@pytest.mark.parametrize("name", setting_fields())
def test_setting_moves_the_digests_iff_it_is_identity(model, name):
    if name in ONE_VALUED:
        # No second value to move them with; the digests cover an identity
        # field all the same, and never a tier switch.
        covered = (name, CHANGED_SETTINGS[name]) in RunSettings().identity()
        assert covered is (name not in TIER_SWITCHES)
        return
    changed = {name: CHANGED_SETTINGS[name]}
    base_plan = compile_plan(model, [Loop()])
    plan = compile_plan(model, [Loop()], **changed)
    digest = job_config_digest(_job())
    changed_digest = job_config_digest(_job(RunSettings(**changed)))
    if name in TIER_SWITCHES:
        # Changes which tier answers, never the answer: same identities.
        assert plan.fingerprint() == base_plan.fingerprint()
        assert changed_digest == digest
    else:
        assert plan.fingerprint() != base_plan.fingerprint()
        assert changed_digest != digest


def test_symmetry_and_delta_are_tier_switches():
    assert {"symmetry", "delta"} <= set(TIER_SWITCHES)
    assert not {"packet", "field_values", "max_hops", "max_paths", "strategy"} & set(
        TIER_SWITCHES
    )


@pytest.mark.parametrize("name", fact_fields())
def test_fact_channel_moves_the_digests(model, name):
    changed = dataclasses.replace(BASE_FACTS, **{name: CHANGED_FACTS[name]})
    assert job_config_digest(_job(facts=changed)) != job_config_digest(_job())
    plan = compile_plan(model, [Invariant("IpSrc")])
    widened = dataclasses.replace(plan, facts=plan.facts.merge(changed))
    assert widened.fingerprint() != plan.fingerprint()
    narrowed_port = dataclasses.replace(
        plan, port_facts=((plan.port_facts[0][0], changed),) + plan.port_facts[1:]
    )
    assert narrowed_port.fingerprint() != plan.fingerprint()


def test_facts_merge_normalises_and_collapses_witness_budgets():
    left = Facts(kinds=("loops",), witness_fields=(("IpDst", 2),))
    right = Facts(
        kinds=("invariants", "reachability"),
        invariant_fields=("IpSrc", "IpDst", "IpSrc"),
        witness_fields=(("IpDst", 5), ("IpSrc", 1)),
        record_examples=True,
    )
    merged = left.merge(right)
    assert merged == right.merge(left)
    assert merged.kinds == ("reachability", "loops", "invariants")
    assert merged.invariant_fields == ("IpDst", "IpSrc")
    assert merged.witness_fields == (("IpDst", 5), ("IpSrc", 1))
    assert merged.record_examples is True
    assert merged.channels == 3 + 2 + 2 + 1
    assert left.merge(Facts()) == left
    with pytest.raises(ValueError, match="unknown queries"):
        Facts(kinds=("bogus",))


# ---------------------------------------------------------------------------
# (a) every front end accepts every setting under its own name and default
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", setting_fields())
def test_python_api_accepts_every_setting(model, name):
    value = CHANGED_SETTINGS[name]
    plan = compile_plan(model, [Loop()], **{name: value})
    assert getattr(plan.settings, name) == value
    assert compile_plan(model, [Loop()]).settings == RunSettings()
    if name in TIER_SWITCHES:
        # execute_plan takes the tier switches too, per execution.
        result = execute_plan(compile_plan(model, [Loop()]), **{name: value})
        assert result[0].holds is True
    else:
        with pytest.raises(TypeError, match="cannot change after compilation"):
            execute_plan(compile_plan(model, [Loop()]), **{name: value})


def test_python_api_refuses_unknown_and_mistyped_settings(model):
    with pytest.raises(TypeError):
        compile_plan(model, [Loop()], max_path=10)
    with pytest.raises(TypeError, match="'max_paths' must be int"):
        compile_plan(model, [Loop()], max_paths="10")
    with pytest.raises(TypeError, match="'max_paths' must be int"):
        compile_plan(model, [Loop()], max_paths=True)
    with pytest.raises(TypeError):
        model.campaign(max_path=10)


def _message(**extra):
    return dict(
        {"op": "query", "id": "r", "network": {"workload": "department"},
         "queries": ["loop()"]},
        **extra,
    )


@pytest.mark.parametrize("name", setting_fields())
def test_serve_message_accepts_every_setting(name):
    assert _parse_request("r", None, _message()).settings == RunSettings()
    value = CHANGED_SETTINGS[name]
    wire_value = dict(value) if name == "field_values" else value
    key = WIRE_NAMES.get(name, name)
    assert protocol.SETTINGS[key] == name
    assert key in protocol.__doc__
    request = _parse_request("r", None, _message(**{key: wire_value}))
    assert getattr(request.settings, name) == value
    # The value survives the wire encoding the client really uses.
    decoded = protocol.decode_line(protocol.encode(_message(**{key: wire_value})))
    assert _parse_request("r", None, decoded).settings == request.settings
    # ... and requests under different settings never merge into one plan.
    if name not in ONE_VALUED:
        assert request.compat_key != _parse_request("r", None, _message()).compat_key


def test_serve_message_refuses_unknown_and_mistyped_settings():
    with pytest.raises(ProtocolError, match="max_path.*known:.*max_paths"):
        _parse_request("r", None, _message(max_path=10))
    with pytest.raises(ProtocolError, match="'max_paths' must be int"):
        _parse_request("r", None, _message(max_paths="10"))
    with pytest.raises(ProtocolError, match="'symmetry' must be bool"):
        _parse_request("r", None, _message(symmetry=1))
    with pytest.raises(ProtocolError):
        _parse_request("r", None, _message(fields=["IpSrc"]))


#: A value outside each checked setting's range or declared choices.  An
#: unknown packet used to be accepted and run every job into a KeyError
#: (``holds=None``).
OUT_OF_RANGE = {
    "max_hops": 0,
    "max_paths": -5,
    "packet": "nope",
    "strategy": "bfs",
    # Retired: refused out loud, never quietly run with the tier off.
    "symmetry": True,
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_front_doors_refuse_out_of_range_settings(model, name, capsys):
    """Checked where it is declared, so refused before any job runs — by
    every front door that takes the setting, with the declaration's own
    message; a value outside a flag's choices by the CLI's parser, in one
    line of its own."""
    from repro.core.campaign import VerificationCampaign
    from repro.scenarios import ScenarioCampaign

    bad = {name: OUT_OF_RANGE[name]}
    reset_execution_counters()
    with pytest.raises(ValueError) as declared:
        RunSettings(**bad)
    message = re.escape(str(declared.value))
    assert f"'{name}' must be" in str(declared.value)
    front_doors = [
        lambda: compile_plan(model, [Loop()], **bad),
        lambda: model.query(Loop(), **bad),
        lambda: model.campaign(**bad),
        lambda: VerificationCampaign(NetworkSource.from_workload("department"), **bad),
        lambda: ScenarioCampaign("netdir", None, **bad),
    ]
    if name in {spec.name for spec in dataclasses.fields(ExecutionSettings)}:
        front_doors.append(
            lambda: SymbolicExecutor(model.network(), settings=ExecutionSettings(**bad))
        )
    for front_door in front_doors:
        with pytest.raises(ValueError, match=message):
            front_door()
    with pytest.raises(ProtocolError, match=message):
        _parse_request("r", None, _message(**bad))
    flag = ["--" + name.replace("_", "-"), str(OUT_OF_RANGE[name])]
    if name not in CHOICES:
        if OUT_OF_RANGE[name] is True:
            flag = flag[:1]
        for command in (["query", "netdir", "loop()"], ["campaign", "netdir"]):
            with pytest.raises(SystemExit):
                cli.main(command + flag)
            assert str(declared.value) in capsys.readouterr().err
    else:
        for command in (["query", "netdir", "loop()"], ["reachability", "netdir", "sw"]):
            with pytest.raises(SystemExit) as refused:
                cli.main(command + flag)
            assert refused.value.code == 2
            (said,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
            assert f"argument {flag[0]}: invalid choice: {flag[1]!r}" in said
    assert not any(execution_counters().values())


#: Header-field pins the declaration refuses: a name that is no standard
#: field, and values that do not fit the field's width.
BAD_PINS = {
    "unknown_name": {"NoSuchField": 1},
    "too_wide": {"TcpDst": 99999999},
    "negative": {"TcpDst": -1},
}


@pytest.mark.parametrize("case", sorted(BAD_PINS))
def test_front_doors_refuse_bad_field_values(model, case, capsys):
    """A header pin is checked where it is declared, so it is refused before
    any job runs: an unknown name used to run every job into a KeyError
    (``holds=None``), and a value too wide for its field was answered."""
    pins = BAD_PINS[case]
    with pytest.raises(ValueError) as declared:
        RunSettings(field_values=pins)
    message = re.escape(str(declared.value))
    for front_door in (
        lambda: compile_plan(model, [Loop()], field_values=pins),
        lambda: model.query(Loop(), field_values=pins),
        lambda: model.campaign(field_values=pins),
        lambda: VerificationCampaign(
            NetworkSource.from_workload("department"), field_values=pins
        ),
    ):
        with pytest.raises(ValueError, match=message):
            front_door()
    with pytest.raises(ProtocolError, match=message):
        _parse_request("r", None, _message(fields=pins))
    ((name, value),) = pins.items()
    for command in (
        ["query", "netdir", "loop()"], ["campaign", "netdir"],
        ["reachability", "netdir", "sw", "in0"],
    ):
        with pytest.raises(SystemExit) as refused:
            cli.main(command + ["--field", f"{name}={value}"])
        # An unknown name is refused by the flag parser, in its own words.
        said = capsys.readouterr().err + str(refused.value.code)
        assert (str(declared.value) if case != "unknown_name" else name) in said


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "netdir", "loop()", "--workers", "-3"],
        ["campaign", "netdir", "--workers", "0"],
        ["scenario", "netdir", "--workers", "-1"],
        ["serve", "--workers", "0"],
        ["serve", "--max-pending", "0"],
        ["serve", "--batch-window", "-1"],
    ],
)
def test_cli_refuses_out_of_range_pool_and_serve_options(argv, monkeypatch, capsys):
    """A usage error before anything runs: a negative pool size used to be
    run and written into the report, and serve started or raised."""
    import repro.serve

    started = []

    async def serve_nothing(*args, **kwargs):
        started.append(args)

    monkeypatch.setattr(repro.serve, "run_server", serve_nothing)
    with pytest.raises(SystemExit) as refused:
        cli.main(argv)
    assert refused.value.code == 2
    assert f"{argv[-2]} must be >= " in capsys.readouterr().err
    assert started == []


def test_campaign_and_plan_refuse_fewer_than_one_worker(model):
    plan = compile_plan(model, [Loop()])
    campaign = VerificationCampaign(NetworkSource.from_workload("department"))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="'workers' must be >= 1"):
            execute_plan(plan, workers=workers)
        with pytest.raises(ValueError, match="'workers' must be >= 1"):
            campaign.run(workers=workers)


@pytest.mark.parametrize("command", ["query", "campaign", "scenario"])
def test_cli_defaults_are_the_declared_ones(command):
    positional = ["netdir", "loop()"] if command == "query" else ["netdir"]
    args = cli._build_parser().parse_args([command] + positional)
    assert RunSettings(**cli._run_settings(args)) == RunSettings()


@pytest.mark.parametrize("name", setting_fields())
def test_cli_flag_sets_the_setting_of_the_same_name(name):
    value = CHANGED_SETTINGS[name]
    flags = CLI_FLAGS.get(name, ["--" + name.replace("_", "-"), str(value)])
    parser = cli._build_parser()
    flagged = 0
    for command, positional in (
        ("query", ["netdir", "loop()"]), ("campaign", ["netdir"]), ("scenario", ["netdir"])
    ):
        plain = parser.parse_args([command] + positional)
        if name not in cli._run_settings(plain):
            continue  # this subcommand has no flag for the setting
        flagged += 1
        args = parser.parse_args([command] + positional + flags)
        settings = RunSettings(**cli._run_settings(args))
        assert getattr(settings, name) == value, command
    assert flagged


#: The settings each command has a flag for: ``reachability`` runs one
#: executor, and the commands that run a campaign take every setting but
#: these few.
COMMAND_SETTINGS = {
    "reachability": {"packet", "field_values", "max_hops", "max_paths", "strategy"},
    "query": set(SETTING_NAMES),
    "campaign": set(SETTING_NAMES),
    "scenario": set(SETTING_NAMES)
    - {"field_values", "max_hops", "max_paths", "strategy"},
}
#: The values each setting with choices takes, as its flag lists them.
CHOICES = {"packet": sorted(PACKET_TEMPLATES), "strategy": ["dfs"]}


def _setting_actions(command):
    """The command's argparse actions for run settings, by setting name."""
    parser = cli._build_parser()
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    dests = {"field": "field_values", **{name: name for name in SETTING_NAMES}}
    return {
        dests[action.dest]: action
        for action in commands.choices[command]._actions
        if action.dest in dests
    }


@pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
def test_cli_flags_are_read_off_the_declaration(command):
    """Each setting flag's spelling, type, default, choices and help are
    the field's: the CLI states none of them itself."""
    actions = _setting_actions(command)
    assert set(actions) == COMMAND_SETTINGS[command]
    declared = {spec.name: spec for spec in dataclasses.fields(RunSettings)}
    for name, action in actions.items():
        spec = declared[name]
        assert action.help.startswith(spec.metadata["help"]), name
        if name == "field_values":
            assert action.option_strings == ["--field"]
            continue
        flag = "--" + name.replace("_", "-")
        assert action.option_strings[0] == flag
        assert action.default == spec.default, name
        assert action.choices == CHOICES.get(name), name
        if isinstance(spec.default, bool):
            assert action.option_strings == [flag, "--no-" + flag[2:]], name
        else:
            assert action.type is type(spec.default), name


def test_a_new_setting_is_a_flag_with_no_cli_edit():
    @dataclasses.dataclass(frozen=True)
    class Throwaway:
        knob: int = dataclasses.field(default=3, metadata={"help": "a knob"})
        lever: bool = dataclasses.field(default=True, metadata={"help": "a lever"})

    parser = argparse.ArgumentParser(
        parents=[cli._setting_flags(declaration=Throwaway)]
    )
    assert vars(parser.parse_args([])) == {"knob": 3, "lever": True}
    assert vars(parser.parse_args(["--knob", "4", "--no-lever"])) == {
        "knob": 4, "lever": False
    }
    assert "a knob (default: 3)" in parser.format_help()


# ---------------------------------------------------------------------------
# (b) the report-field table covers JobReport and drives every codec
# ---------------------------------------------------------------------------

#: JobReport fields that say who computed an answer and what it cost, not
#: what the answer is.  ``error`` is compared by ``semantic_projection`` but
#: never persisted: a failed report is not an answer.
PROVENANCE_FIELDS = {
    "error",
    "worker_pid",
    "elapsed_seconds",
    "solver_stats",
    "verdict_cache_entries",
    "delta_spliced_from",
    "spans",
}


def test_every_job_report_field_is_classified():
    declared = {spec.name for spec in dataclasses.fields(JobReport)}
    semantic = set(SEMANTIC_FIELDS)
    assert semantic == {"element", "port"} | {spec.name for spec in REPORT_FIELDS}
    assert not semantic & PROVENANCE_FIELDS
    assert declared == semantic | PROVENANCE_FIELDS, (
        "a JobReport field is neither in facts.REPORT_FIELDS nor listed as "
        f"provenance: {sorted(declared ^ (semantic | PROVENANCE_FIELDS))}"
    )


@pytest.fixture(scope="module")
def full_channel_reports():
    """stanford zones=4 with every fact channel switched on."""
    stanford = NetworkModel.from_workload("stanford", **STANFORD)
    result = stanford.query(
        Loop(),
        Invariant("IpSrc", "IpDst"),
        HeaderVisible("IpSrc"),
        AdmittedValues("TcpDst", samples=2),
        Reach("acl0:in0", "zr1:hosts"),
        Reach("acl1:in0", "zr2"),
        Reach("acl2:in0", "zr3"),
        Reach("acl3:in0", "zr0"),
    )
    assert not result.job_errors
    reports = result.campaign.jobs
    assert len(reports) == 4
    for report in reports:
        for spec in REPORT_FIELDS:
            # Every channel really carries data (``truncated`` is False).
            assert getattr(report, spec.name) or spec.name in ("truncated", "loops")
    return reports


def test_baseline_payload_round_trips_the_semantic_projection(full_channel_reports):
    for report in full_channel_reports:
        wire = json.loads(json.dumps(report_to_payload(report)))
        restored = report_from_payload(wire, spliced_from="file")
        assert semantic_projection(restored) == semantic_projection(report)
        assert restored.delta_spliced_from == "file"
        assert restored.to_dict()["delivered_to"] == report.to_dict()["delivered_to"]


# ---------------------------------------------------------------------------
# (c) the counter table drives the stats JSON and the registry
# ---------------------------------------------------------------------------

#: ``CampaignStats.to_dict()`` keys in order, as recorded before the table
#: was introduced.  ``bench/`` and the plan cache read this shape.
CAMPAIGN_STATS_KEYS = [
    "jobs", "paths", "engine_steps", "state_memo_hits", "state_memo_misses",
    "elapsed_seconds", "wall_clock_seconds",
    "solver_calls", "solver_time_seconds", "solver_fast_paths",
    "solver_cache_hits", "solver_cache_misses", "solver_shared_cache_hits",
    "solver_cache_merged", "solver_shared_round_trips",
    "degraded_operations", "store_entries_loaded", "store_entries_published",
    "jobs_spliced_by_delta", "executed_jobs", "cache_hit_rate",
    "verdict_cache_entries", "truncated_jobs", "failed_jobs",
]
#: The serve ``stats`` verb's ``service`` keys, recorded likewise.
SERVICE_KEYS = {
    "errors", "groups", "merged_requests", "model_builds", "model_rebuilds",
    "models_resident", "overloaded", "pending", "plan_cache_hits",
    "plans_executed", "requests", "results_streamed", "workers",
}


def test_wire_shapes_are_pinned():
    from repro.serve import VerificationService

    assert list(CampaignStats().to_dict()) == CAMPAIGN_STATS_KEYS
    assert set(VerificationService()._stats_message("r")["service"]) == SERVICE_KEYS


def _reported_solver_fields():
    return [spec for spec in dataclasses.fields(SolverStats) if spec.metadata.get("reported")]


def test_every_stats_field_is_in_the_json_and_round_trips():
    stats = CampaignStats()
    for value, spec in enumerate(dataclasses.fields(CampaignStats), start=1):
        if spec.name != "solver_stats":
            setattr(stats, spec.name, value)
    for value, spec in enumerate(_reported_solver_fields(), start=100):
        setattr(stats.solver_stats, spec.name, value)
    payload = stats.to_dict()
    for spec in dataclasses.fields(CampaignStats):
        if spec.name != "solver_stats":
            assert payload[spec.name] == getattr(stats, spec.name)
    for spec in _reported_solver_fields():
        assert getattr(stats.solver_stats, spec.name) in payload.values(), spec.name
    assert CampaignStats.from_dict(json.loads(json.dumps(payload))) == stats


def test_every_counter_names_a_family_or_is_json_only():
    """A counter is declared through ``_stat`` / ``_reported``: its metadata
    names a registry family and labels, or ``None`` (JSON-only).  A JSON key
    that is neither kind of field is a derived read-only property."""
    series = []
    for spec in [
        spec for spec in dataclasses.fields(CampaignStats) if spec.name != "solver_stats"
    ] + _reported_solver_fields():
        assert "family" in spec.metadata, f"{spec.name} is not classified"
        family = spec.metadata["family"]
        if family is not None:
            assert isinstance(family, Family), spec.name
            series.append((family.name, tuple(sorted(spec.metadata["labels"].items()))))
    assert len(series) == len(set(series)), "two counters feed one series"
    declared = {spec.name for spec in dataclasses.fields(CampaignStats)}
    solver_keys = {"solver_" + spec.name for spec in _reported_solver_fields()}
    for key in CampaignStats().to_dict():
        if key not in declared | solver_keys:
            assert isinstance(getattr(CampaignStats, key), property), key


def test_outcomes_are_one_property():
    outcome_fields = {
        spec.metadata["labels"]["outcome"]
        for spec in dataclasses.fields(CampaignStats)
        if spec.metadata.get("family") is JOBS
    }
    assert outcome_fields | {"executed"} == set(OUTCOMES)
    report = JobReport(element="a", port="in0", packet="tcp")
    assert report.outcome == "executed"
    spliced = report_from_payload(report_to_payload(report), spliced_from="file")
    assert spliced.outcome == "delta_spliced"
    report.error = "boom"
    assert report.outcome == "error"


def _exposition(registry):
    """``({family: kind}, {series: value})`` of a registry's Prometheus text."""
    kinds, series = {}, {}
    for line in registry.render_prometheus().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            kinds[name] = kind
        elif not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            series[key] = float(value)
    return kinds, series


def _department_runs(tmp_path):
    """A department directory campaign with one erroring port and a store,
    then a delta-spliced rerun after a same-bytes rewrite: yields each
    finished result as it lands."""
    net = tmp_path / "net"
    net.mkdir()
    export_department_style_directory(str(net), switches=3, macs_per_port=2, seed=23)
    store = VerificationStore(str(tmp_path / "store"))
    for _ in ("cold", "rerun"):
        clear_runtime_cache()
        campaign = VerificationCampaign(str(net), store=store)
        campaign.add_default_injections()
        campaign.add_injection("nope", "in0")
        yield campaign.run()
        mac = net / "sw0.mac"
        mac.write_bytes(mac.read_bytes())


def _values(pairs):
    return {
        (family.name, tuple(sorted(labels.items()))): family.get().value(**labels)
        for family, labels in pairs
    }


def test_registry_moves_by_exactly_the_campaign_stats(tmp_path):
    watched = [(family, labels) for family, labels, _ in CampaignStats().series()]
    watched += [(JOBS, {"outcome": outcome}) for outcome in OUTCOMES]
    watched.append((CAMPAIGNS, {}))
    before = _values(watched)
    outcomes_seen = set()
    for result in _department_runs(tmp_path):
        after = _values(watched)
        stats = result.stats
        expected = {
            (family.name, tuple(sorted(labels.items()))): value
            for family, labels, value in stats.series()
        }
        expected[(JOBS.name, (("outcome", "executed"),))] = (
            stats.executed_jobs - stats.failed_jobs
        )
        expected[(CAMPAIGNS.name, ())] = 1
        for key, value in expected.items():
            assert after[key] - before[key] == pytest.approx(value), key
        outcomes_seen.update(report.outcome for report in result.jobs)
        before = after
    assert outcomes_seen == set(OUTCOMES)


def test_core_families_cover_everything_a_campaign_feeds(tmp_path):
    """A service that has done nothing shows, at zero, every series a
    campaign can feed."""
    reset_registry()
    try:
        for _ in _department_runs(tmp_path):
            pass
        fed_kinds, fed_series = _exposition(get_registry())
    finally:
        reset_registry()
    kinds, series = _exposition(ensure_core_families(MetricsRegistry()))
    assert fed_kinds.items() <= kinds.items()
    for key in fed_series:
        if fed_kinds.get(key.partition("{")[0]) == "counter":
            assert series.get(key) == 0, key


@pytest.mark.parametrize("index", range(len(LATTICE_CASES)))
def test_absorbed_outcome_counts_equal_the_reducers_own(tmp_path, monkeypatch, index):
    """On the lattice's networks, cold and after their mutation: the
    absorbed counts equal what the delta stage used to write itself — one
    splice per report a delta partition hands back — and the failed count
    the errored reports.  No report carries two outcome marks."""
    counted = {"spliced": 0}
    partition = DeltaReducer.partition

    def counting_partition(self, jobs):
        run, ready = partition(self, jobs)
        counted["spliced"] += len(ready)
        return run, ready

    monkeypatch.setattr(DeltaReducer, "partition", counting_partition)
    net = tmp_path / "net"
    net.mkdir()
    steps = LATTICE_CASES[index].network.materialise(str(net))
    store = VerificationStore(str(tmp_path / "store"))
    for edits in ((), steps):
        for step in edits:
            for name, text in step.writes:
                (net / name).write_text(text, encoding="utf-8", newline="\n")
        counted.update(spliced=0)
        clear_runtime_cache()
        result = VerificationCampaign(str(net), store=store).run()
        stats = result.stats
        assert stats.jobs_spliced_by_delta == counted["spliced"]
        assert stats.failed_jobs == sum(r.error is not None for r in result.jobs)
        for report in result.jobs:
            marks = [report.error is not None, bool(report.delta_spliced_from)]
            assert sum(marks) <= 1, report.source_key


# ---------------------------------------------------------------------------
# (d) the stored-answer schema is a walk of the declarations
# ---------------------------------------------------------------------------


@pytest.fixture
def digest_with(monkeypatch):
    """``digest_with((owner, name, value), ...)``: the schema digest once
    each ``owner.name`` is replaced by a throwaway declaration."""
    def digest(*replacements):
        for owner, name, value in replacements:
            monkeypatch.setattr(owner, name, value, raising=False)
        schema_digest.cache_clear()
        return schema_digest()

    yield digest
    monkeypatch.undo()
    schema_digest.cache_clear()


def _extended(declaration, *specs):
    """``declaration`` with fields added or redeclared, under its own name."""
    return dataclasses.make_dataclass(
        declaration.__name__, specs, bases=(declaration,), frozen=True
    )


def test_a_throwaway_report_field_moves_the_schema(digest_with):
    running = schema_digest()
    rows = REPORT_FIELDS + (ReportField("throwaway", {str: int}, optional=True),)
    assert digest_with((facts_module, "REPORT_FIELDS", rows)) != running


def test_a_throwaway_stats_field_moves_the_schema(digest_with):
    running = schema_digest()
    # ``to_dict`` walks the declared names; declaring one more is this.
    declared = queries_module._DECLARED + ("throwaway_jobs",)
    assert digest_with(
        (CampaignStats, "throwaway_jobs", 0), (queries_module, "_DECLARED", declared)
    ) != running


def test_a_throwaway_run_field_moves_the_schema(digest_with):
    running = schema_digest()
    rows = facts_module.RUN_FIELDS + ("throwaway",)
    assert digest_with((facts_module, "RUN_FIELDS", rows)) != running


def test_a_throwaway_fact_channel_moves_the_schema(digest_with):
    running = schema_digest()
    throwaway = _extended(Facts, ("throwaway", bool, False))
    assert digest_with((facts_module, "Facts", throwaway)) != running


def test_a_throwaway_identity_setting_moves_the_schema(digest_with):
    running = schema_digest()
    throwaway = _extended(RunSettings, ("throwaway", int, _setting(0, "a knob")))
    assert digest_with((facts_module, "RunSettings", throwaway)) != running


def test_a_tier_switch_help_text_leaves_the_schema(digest_with):
    running = schema_digest()
    reworded = _extended(RunSettings, ("delta", bool, _tier_switch(True, "reworded")))
    assert dataclasses.fields(reworded)[
        SETTING_NAMES.index("delta")
    ].metadata["help"] == "reworded"
    assert digest_with((facts_module, "RunSettings", reworded)) == running


def test_the_schema_is_the_same_in_every_process():
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    script = "from repro.core import schema_digest; print(schema_digest())"
    digests = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source_root),
            check=True, capture_output=True, text=True,
        ).stdout.strip()
        for seed in ("1", "4242")
    ]
    assert digests == [schema_digest()] * 2

