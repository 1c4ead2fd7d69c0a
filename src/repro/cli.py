"""Command-line interface.

The paper's workflow (§7.1): "All the user has to do is place all these
files in a single directory, together with a file describing the links
between the boxes.  Then, the user can run SymNet by specifying an input
port to start the reachability and loop detection analysis.  The output of
the tool is the list of explored paths in json format."

Usage::

    python -m repro.cli query NETWORK_DIR "forall_pairs(reach)" "loop()"
    python -m repro.cli query --workload department "invariant(IpSrc)" [--workers N]
    python -m repro.cli reachability NETWORK_DIR ELEMENT PORT [options]
    python -m repro.cli campaign NETWORK_DIR [--workers N] [--store-dir DIR]
    python -m repro.cli campaign --workload department [--workers N]
    python -m repro.cli scenario --workload stanford --steps 8 --seed 3 [--workers N]
    python -m repro.cli store inspect|compact|clear-plans STORE_DIR
    python -m repro.cli show NETWORK_DIR

``NETWORK_DIR`` must contain ``topology.txt`` plus the per-device snapshot
files it references (see :mod:`repro.parsers.topology_file` for the format).
The injected packet is a fully symbolic TCP packet unless ``--packet`` picks
another template, and individual header fields can be pinned with
``--field NAME=VALUE`` (IP addresses and MAC addresses are accepted in their
usual textual forms).

``query`` is the declarative front door: a batch of textual queries (see
:mod:`repro.api.text` for the grammar) is compiled onto one shared campaign
plan — queries over the same injection port share one symbolic execution —
and each query's answer is demultiplexed from the shared run.

``campaign`` runs the raw network-wide workflow: one symbolic execution per
injection port (every free input port unless ``--inject`` narrows it),
optionally on a process pool, aggregated into a reachability matrix, a loop
report and invariant checks.  ``--workload`` swaps the directory for one of
the built-in synthetic workloads (department / enterprise / stanford).

``--store-dir DIR`` (on ``query`` and ``campaign``) makes runs persistent:
solver verdicts warm-start from — and publish back to — the verdict records
of a :class:`repro.store.VerificationStore` at ``DIR``, and a repeated
identical ``query`` batch over an unchanged network is answered from the
store's plan-result cache without running any engine job.  ``store``
inspects, compacts or invalidates such a directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api import NetworkModel, QueryParseError, parse_query
from repro.core.campaign import DEFAULT_INVARIANT_FIELDS, PACKET_TEMPLATES
from repro.core.delta import CampaignBaseline
from repro.core.engine import ExecutionSettings, SymbolicExecutor
from repro.core.errors import ModelError
from repro.core.settings import SETTING_NAMES, RunSettings
from repro.obs import (
    Tracer,
    configure_logging,
    get_logger,
    set_tracer,
    write_trace,
)
from repro.sefl.fields import HeaderField, standard_fields
from repro.sefl.util import ip_to_number, mac_to_number
from repro.workloads import CAMPAIGN_WORKLOADS

_LOG = get_logger("repro.cli")

#: The scenario command's ``--workload`` values: the keys of
#: :data:`repro.workloads.export.EXPORTERS`, which the command imports only
#: when it runs.
EXPORTABLE_WORKLOADS = ("department", "stanford")


def _parse_field_value(field: HeaderField, text: str) -> int:
    """Interpret a field override: integers, hex, dotted IPs or MACs."""
    text = text.strip()
    if text.lower().startswith("0x"):
        return int(text, 16)
    if ":" in text or (field.width == 48 and any(sep in text for sep in ".-")):
        return mac_to_number(text)
    if text.count(".") == 3:
        return ip_to_number(text)
    return int(text)


def _parse_overrides(pairs: Sequence[str]) -> Dict[HeaderField, int]:
    fields = standard_fields()
    overrides: Dict[HeaderField, int] = {}
    for pair in pairs:
        name, _, raw = pair.partition("=")
        if not raw:
            raise SystemExit(f"--field expects NAME=VALUE, got {pair!r}")
        if name not in fields:
            known = ", ".join(sorted(fields))
            raise SystemExit(f"unknown field {name!r}; known fields: {known}")
        field = fields[name]
        overrides[field] = _parse_field_value(field, raw)
    return overrides


def _warn_validation_problems(model: NetworkModel) -> List[str]:
    """Surface Network.validate() findings (dangling links etc.) on stderr
    before execution starts; the analysis still runs.

    Validation lives on the NetworkModel, which computes it exactly once —
    every command and every campaign spawned from the model sees the same
    findings without re-validating."""
    problems = model.validate()
    for problem in problems:
        _LOG.warning("%s", problem)
    return problems


def _model_from_args(args: argparse.Namespace) -> NetworkModel:
    """The one construction site for NetworkModels: a directory or a
    registered workload (with ``--workload-option`` overrides)."""
    if bool(args.directory) == bool(args.workload):
        raise SystemExit(
            f"{args.command} needs a network directory or --workload (not both)"
        )
    if args.workload:
        options = dict(_parse_workload_option(pair) for pair in args.workload_option)
        return NetworkModel.from_workload(args.workload, **options)
    return NetworkModel.from_directory(args.directory)


def _parse_workload_option(pair: str) -> Tuple[str, object]:
    key, _, raw = pair.partition("=")
    if not raw:
        raise SystemExit(f"--workload-option expects KEY=VALUE, got {pair!r}")
    value: object
    if raw.lower() in ("true", "false"):
        value = raw.lower() == "true"
    else:
        try:
            value = int(raw)
        except ValueError:
            value = raw
    return key, value


def _parse_injection(text: str) -> Tuple[str, str]:
    element, sep, port = text.partition(":")
    if not sep or not element or not port:
        raise SystemExit(f"--inject expects ELEMENT:PORT, got {text!r}")
    return element, port


def _setting_flags(
    names: Optional[Iterable[str]] = None, declaration: type = RunSettings
) -> argparse.ArgumentParser:
    """A parent parser with a flag per field of ``declaration`` (per field
    in ``names``, when given), read off the field: ``--<name>`` of its type
    with its default and ``help`` metadata, its ``choices`` metadata sorted,
    and a ``--no-`` form for a bool; ``field_values`` is ``--field
    NAME=VALUE``.  The dest is the field's name: :func:`_run_settings`
    finds the flag by it."""
    names = None if names is None else set(names)
    parser = argparse.ArgumentParser(add_help=False)
    for spec in fields(declaration):
        if names is not None and spec.name not in names:
            continue
        text = spec.metadata["help"]
        if spec.name == "field_values":
            parser.add_argument(
                "--field", action="append", default=[], metavar="NAME=VALUE", help=text
            )
            continue
        options = {"action": argparse.BooleanOptionalAction}
        if not isinstance(spec.default, bool):
            choices = spec.metadata.get("choices")
            options = {
                "type": type(spec.default), "choices": choices and sorted(choices)
            }
        parser.add_argument(
            "--" + spec.name.replace("_", "-"), default=spec.default,
            help=text + " (default: %(default)s)", **options,
        )
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symnet", description="SymNet reproduction command-line tool"
    )
    # Diagnostics flags shared by every subcommand (parents=, so each
    # subparser both accepts and documents them).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default=None,
        help="diagnostics verbosity on stderr (default: info)",
    )
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="shortcut for --log-level debug, with timestamps",
    )
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record hierarchical spans (session, plan compile, campaign, "
        "engine jobs — including pool workers — solver checks, store "
        "publishes) and write them to FILE on exit: Chrome trace-event "
        "JSON loadable in Perfetto, or JSONL when FILE ends in .jsonl",
    )
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument(
        "--workload", choices=sorted(CAMPAIGN_WORKLOADS),
        help="analyze a registered synthetic workload instead of a directory",
    )
    workload.add_argument(
        "--workload-option", action="append", default=[], metavar="KEY=VALUE",
        help="builder option for --workload, e.g. access_switches=4 (repeatable)",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output", "-o", default=None, help="write the JSON report to a file"
    )
    stored = argparse.ArgumentParser(add_help=False)
    stored.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="persist solver verdicts (and, for 'query', finished plan "
        "results) in a verification store at DIR: runs warm-start from the "
        "store's verdict records and publish fresh verdicts back",
    )
    # The campaign pipeline's knobs, shared by every command that runs one.
    pipeline = argparse.ArgumentParser(add_help=False, parents=[stored])
    pipeline.add_argument(
        "--workers", type=int, default=1,
        help="run jobs on a process pool of this size (default: in-process)",
    )
    # The run settings each command takes.  ``reachability`` runs one
    # executor; a command that runs a campaign takes every setting but those
    # it excludes, so a new setting is a flag of all of them with no edit
    # here.  A scenario keeps the default budgets, strategy and pins.
    budgets = ("field_values", "max_hops", "max_paths", "strategy")
    reach_flags = _setting_flags(("packet",) + budgets)
    scenario_flags = _setting_flags(set(SETTING_NAMES) - set(budgets))
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser(
        "show", parents=[common],
        help="list the elements, ports and links of a network directory",
    )
    show.add_argument("directory")

    reach = sub.add_parser(
        "reachability", parents=[common, reach_flags, output],
        help="inject a symbolic packet and dump the explored paths as JSON",
    )
    reach.add_argument("directory")
    reach.add_argument("element", help="element whose input port receives the packet")
    reach.add_argument("port", nargs="?", default="in0", help="input port (default in0)")
    reach.add_argument(
        "--no-failed-paths", action="store_true",
        help="omit failed/filtered paths from the output (still counted and "
        "budgeted by --max-paths)",
    )

    query = sub.add_parser(
        "query", parents=[common, traced, workload, _setting_flags(), pipeline, output],
        help="declarative network queries compiled onto one shared campaign "
        "plan (queries over the same injection port share one execution)",
    )
    query.add_argument(
        "directory", nargs="?", default=None,
        help="network directory (omit when using --workload)",
    )
    query.add_argument(
        "queries", nargs="+", metavar="QUERY",
        help='textual queries, e.g. "forall_pairs(reach)", "loop()", '
        '"invariant(IpSrc)", "reach(sw0:in0, r1:to-internet)", '
        '"header_visible(IpSrc, at=r1:out0)", "admitted_values(TcpDst, samples=3)"',
    )

    camp = sub.add_parser(
        "campaign",
        parents=[common, traced, workload, _setting_flags(), pipeline, output],
        help="network-wide verification: run one symbolic execution per "
        "injection port (optionally in parallel) and aggregate the results",
    )
    camp.add_argument(
        "directory", nargs="?", default=None,
        help="network directory (omit when using --workload)",
    )
    camp.add_argument(
        "--inject", action="append", default=[], metavar="ELEMENT:PORT",
        help="injection point (repeatable; default: the workload's registered "
        "entry points, or every input port with no incoming link)",
    )
    camp.add_argument(
        "--invariant-field", action="append", default=[], metavar="NAME",
        help="header field checked by the invariants query (repeatable; "
        f"default: {', '.join(DEFAULT_INVARIANT_FIELDS)})",
    )
    camp.add_argument(
        "--delta-from", default=None, metavar="FILE",
        help="use FILE (written by a previous --save-baseline) as the "
        "delta baseline instead of the store's recorded one",
    )
    camp.add_argument(
        "--save-baseline", default=None, metavar="FILE",
        help="after the run, write this campaign's delta baseline "
        "(element manifest + per-port reports) to FILE",
    )

    serve = sub.add_parser(
        "serve", parents=[common, traced, stored],
        help="run the resident verification service: a line-delimited JSON "
        "session server that keeps models, the worker pool and the store "
        "hot across requests, merges compatible concurrent query batches "
        "into one shared plan, and streams each answer as soon as its own "
        "engine jobs have reported",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 (the default) binds an ephemeral port — read the "
        "actual one from the printed JSON ready line",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="persistent process-pool size shared by every request "
        "(default: 1, in-process)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=8, metavar="N",
        help="admission control: refuse (with an explicit 'overloaded' "
        "response) when N requests are already queued (default: 8)",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.05, metavar="SECONDS",
        help="how long the scheduler keeps collecting concurrent requests "
        "into one merged plan after the first arrives (default: 0.05)",
    )

    scen = sub.add_parser(
        "scenario", parents=[common, traced, scenario_flags, pipeline, output],
        help="transient-state scenario campaign: generate a seed-pinned "
        "update sequence over an exported (or given) snapshot directory, "
        "re-verify every transient state with delta splicing, and cluster "
        "the violating traces into ranked root causes",
    )
    scen.add_argument(
        "directory", nargs="?", default=None,
        help="existing snapshot directory to run the scenario over "
        "(omit when using --workload)",
    )
    scen.add_argument(
        "--workload", choices=EXPORTABLE_WORKLOADS,
        help="export this workload into a scratch directory (see --dir) "
        "and run the scenario over the export",
    )
    scen.add_argument(
        "--workload-option", action="append", default=[], metavar="KEY=VALUE",
        help="exporter option for --workload, e.g. zones=4 edge_asa=true "
        "(repeatable)",
    )
    scen.add_argument(
        "--dir", default=None, metavar="DIR", dest="export_dir",
        help="directory to export --workload into (default: a fresh "
        "temporary directory)",
    )
    scen.add_argument(
        "--steps", type=int, default=8,
        help="number of update steps to generate (default: 8)",
    )
    scen.add_argument(
        "--seed", type=int, default=0,
        help="generator seed; same seed + same directory bytes = same "
        "scenario (default: 0)",
    )
    scen.add_argument(
        "--no-violation", action="store_true",
        help="generate pure churn without the seeded transient "
        "forwarding-loop violation",
    )
    scen.add_argument(
        "--query", action="append", default=[], dest="queries", metavar="QUERY",
        help="textual query replacing the default per-step batch "
        '(default: "forall_pairs(reach)" "loop()" "invariant(IpSrc)"; '
        "repeatable)",
    )
    scen.add_argument(
        "--eps", type=float, default=0.5,
        help="clustering: maximum Jaccard distance between neighbouring "
        "violation feature sets (default: 0.5)",
    )
    scen.add_argument(
        "--min-points", type=int, default=2,
        help="clustering: neighbourhood size that forms a dense cluster; "
        "sparser violations become noise singletons (default: 2)",
    )

    store = sub.add_parser(
        "store", parents=[common],
        help="inspect or maintain a persistent verification store directory "
        "(the --store-dir of previous runs)",
    )
    store.add_argument(
        "action", choices=("inspect", "compact", "clear-plans"),
        help="inspect: summarize verdicts/plans/baselines as JSON; compact: "
        "fold every verdict record into one; clear-plans: drop cached "
        "plan results (the explicit invalidation path when a network "
        "source changed in ways the model fingerprint cannot see)",
    )
    store.add_argument("store_dir", help="store directory")
    store.add_argument(
        "--model", default=None, metavar="FINGERPRINT",
        help="clear-plans: only drop plans of this model fingerprint",
    )
    return parser


def _run_settings(args: argparse.Namespace) -> Dict[str, object]:
    """Every run setting the subcommand has a flag for, under the setting's
    own name — the one place the CLI turns flags into settings."""
    settings = {
        name: getattr(args, name) for name in SETTING_NAMES if hasattr(args, name)
    }
    if hasattr(args, "field"):
        settings["field_values"] = {
            field.name: value for field, value in _parse_overrides(args.field).items()
        }
    return settings


def _open_store(args: argparse.Namespace):
    """The --store-dir flag as a VerificationStore (None when unset)."""
    if not getattr(args, "store_dir", None):
        return None
    from repro.store import StoreError, VerificationStore

    try:
        return VerificationStore(args.store_dir)
    except (StoreError, ValueError) as exc:
        raise SystemExit(f"unusable store {args.store_dir}: {exc}")


def _emit_report(report: str, output: Optional[str], summary: str) -> None:
    """Print the JSON report — or, with ``--output``, write it there and
    print the one-line summary instead."""
    if not output:
        print(report)
        return
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(summary)


def _exit_code(result) -> int:
    """Log every failed job of a campaign/plan result; non-zero if any."""
    for source_key, error in result.job_errors:
        _LOG.error("job %s failed: %s", source_key, error)
    return 1 if result.job_errors else 0


def _command_show(args: argparse.Namespace) -> int:
    network = NetworkModel.from_directory(args.directory).network()
    print(f"network: {network.name}")
    print(f"elements: {len(network)}")
    for element in network:
        print(
            f"  {element.name} ({element.kind}) "
            f"in={element.input_ports} out={element.output_ports}"
        )
    print(f"links: {len(network.links)}")
    for link in network.links:
        print(f"  {link}")
    problems = network.validate()
    if problems:
        print("problems:")
        for problem in problems:
            print(f"  ! {problem}")
        return 1
    return 0


def _command_reachability(args: argparse.Namespace) -> int:
    model = NetworkModel.from_directory(args.directory)
    network = model.network()
    _warn_validation_problems(model)
    overrides = _parse_overrides(args.field)
    packet_program = PACKET_TEMPLATES[args.packet](overrides or None)
    settings = ExecutionSettings(
        max_hops=args.max_hops,
        max_paths=args.max_paths,
        record_failed_paths=not args.no_failed_paths,
        strategy=args.strategy,
    )
    executor = SymbolicExecutor(network, settings=settings)
    result = executor.inject(packet_program, args.element, args.port)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(result.summary_counts().items()))
    suffix = " [truncated]" if result.truncated else ""
    _emit_report(
        result.to_json(),
        args.output,
        f"wrote {len(result.paths)} paths to {args.output} ({counts}){suffix}",
    )
    if result.truncated:
        _LOG.warning(
            "exploration truncated by a budget (--max-paths=%d, --max-hops=%d); "
            "the path list is incomplete", args.max_paths, args.max_hops,
        )
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    baseline = None
    if args.delta_from:
        try:
            with open(args.delta_from, "r", encoding="utf-8") as handle:
                baseline = CampaignBaseline.parse(json.load(handle))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"unusable baseline {args.delta_from}: {exc}")
    # The model validated exactly once; the campaign inherits those findings.
    campaign = model.campaign(
        invariant_fields=tuple(args.invariant_field) or DEFAULT_INVARIANT_FIELDS,
        baseline=baseline,
        store=_open_store(args),
        **_run_settings(args),
    )
    _warn_validation_problems(model)
    if args.inject:
        campaign.add_injections(_parse_injection(text) for text in args.inject)

    result = campaign.run(workers=args.workers)
    if result.stats.jobs_spliced_by_delta:
        _LOG.info(
            "delta verification spliced %d of %d ports from the recorded "
            "baseline (%d executed)",
            result.stats.jobs_spliced_by_delta,
            result.stats.jobs,
            result.delta_info.get("executed", 0),
        )
    if args.save_baseline:
        payload = result.baseline_payload
        if payload is None:
            _LOG.warning(
                "--save-baseline needs a snapshot-directory network; "
                "no baseline written"
            )
        else:
            with open(args.save_baseline, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            _LOG.info(
                "wrote delta baseline to %s (%d ports)",
                args.save_baseline,
                len(payload["reports"]),
            )
    _emit_report(
        result.to_json(),
        args.output,
        f"wrote campaign report to {args.output} "
        f"({result.stats.jobs} jobs, {result.stats.paths} paths, "
        f"{result.reachability.pair_count()} reachable pairs, "
        f"{result.execution_mode})",
    )
    return _exit_code(result)


def _command_query(args: argparse.Namespace) -> int:
    # Re-split the positionals ourselves: argparse's chunking cannot tell
    # the directory from the first query (and splits the list when options
    # are interleaved, see main()), but the distinction is trivial here —
    # without --workload the first positional is the directory, with it
    # every positional is a query.
    positionals = (
        [args.directory] if args.directory is not None else []
    ) + args.queries
    if args.workload:
        if positionals and os.path.isdir(positionals[0]):
            raise SystemExit(
                "query needs a network directory or --workload (not both)"
            )
        args.directory, args.queries = None, positionals
    else:
        if not positionals:
            raise SystemExit("query needs a network directory or --workload")
        args.directory, args.queries = positionals[0], positionals[1:]
    if not args.queries:
        raise SystemExit("query needs at least one QUERY argument")
    # Parse the queries before touching the network: a typo'd query must
    # fail instantly, not after a multi-second snapshot build.
    try:
        queries = [parse_query(text) for text in args.queries]
    except QueryParseError as exc:
        raise SystemExit(f"bad query: {exc}")
    settings = _run_settings(args)
    model = _model_from_args(args)
    _warn_validation_problems(model)
    result = model.query(
        *queries, workers=args.workers, store=_open_store(args), **settings
    )
    if result.from_cache:
        _LOG.info(
            "answered from the store's plan-result cache (0 engine jobs)"
        )
    verdicts = ", ".join(f"{answer.query}={answer.summary()}" for answer in result)
    _emit_report(
        result.to_json(),
        args.output,
        f"wrote query report to {args.output} "
        f"({result.plan.job_count} jobs shared by {len(result)} queries: "
        f"{verdicts})",
    )
    stats = result.stats
    if stats is not None and stats.truncated_jobs:
        _LOG.warning(
            "exploration truncated by a budget (--max-paths=%d, --max-hops=%d) "
            "in %d job(s); answers that rest on those ports are unknown ('?', "
            "see evidence.incomplete_ports)",
            args.max_paths, args.max_hops, stats.truncated_jobs,
        )
    return _exit_code(result)


def _command_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioCampaign, generate_scenario
    from repro.workloads.export import export_workload_directory

    if bool(args.directory) == bool(args.workload):
        raise SystemExit(
            "scenario needs a network directory or --workload (not both)"
        )
    if args.steps < 1:
        raise SystemExit("--steps must be >= 1")
    workload = args.workload or "directory"
    if args.workload:
        directory = args.export_dir
        if directory:
            os.makedirs(directory, exist_ok=True)
        else:
            import tempfile

            directory = tempfile.mkdtemp(prefix="symnet-scenario-")
        options = dict(_parse_workload_option(pair) for pair in args.workload_option)
        try:
            export_workload_directory(args.workload, directory, **options)
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"cannot export workload {args.workload!r}: {exc}")
        _LOG.info("exported %s workload to %s", args.workload, directory)
    else:
        directory = args.directory

    queries = None
    if args.queries:
        try:
            queries = [parse_query(text) for text in args.queries]
        except QueryParseError as exc:
            raise SystemExit(f"bad query: {exc}")

    scenario = generate_scenario(
        directory,
        steps=args.steps,
        seed=args.seed,
        workload=workload,
        inject_violation=not args.no_violation,
    )
    campaign = ScenarioCampaign(
        directory,
        scenario,
        queries=queries,
        workers=args.workers,
        store=_open_store(args),
        cluster_eps=args.eps,
        cluster_min_points=args.min_points,
        **_run_settings(args),
    )
    try:
        run = campaign.run()
    except (RuntimeError, ValueError) as exc:
        raise SystemExit(f"scenario failed: {exc}")
    _LOG.info(
        "verified %d states (%d steps): %d delta-spliced, %d violations "
        "in %d clusters",
        len(run.outcomes),
        len(scenario.steps),
        run.steps_delta_spliced,
        len(run.violations),
        len(run.clusters),
    )
    _emit_report(
        run.to_json(), args.output, f"wrote scenario report to {args.output}"
    )
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from repro.store import StoreError, VerificationStore

    # Opening a VerificationStore scaffolds the directory; maintenance
    # commands must never do that to a mistyped path, so require the
    # store's metadata file to already exist.
    if not os.path.isdir(args.store_dir) or not os.path.isfile(
        os.path.join(args.store_dir, "STORE.json")
    ):
        raise SystemExit(
            f"not a store directory (no STORE.json): {args.store_dir}"
        )
    try:
        store = VerificationStore(args.store_dir)
    except StoreError as exc:
        raise SystemExit(f"unusable store: {exc}")
    if args.action == "inspect":
        summary = store.describe()
        print(json.dumps(summary, indent=2, sort_keys=True))
        for path, reason in store.quarantined:
            _LOG.warning("quarantined %s: %s", path, reason)
        return 0
    if args.action == "compact":
        outcome = store.compact()
        print(
            f"compacted {store.directory}: {outcome['entries']} verdicts, "
            f"{outcome['segments_before']} -> {outcome['segments_after']} segments"
        )
        for path, reason in store.quarantined:
            _LOG.warning("quarantined %s: %s", path, reason)
        return 0
    if args.action == "clear-plans":
        removed = store.invalidate_plans(args.model)
        scope = f"model {args.model}" if args.model else "all models"
        print(f"dropped {removed} cached plan result(s) ({scope})")
        return 0
    raise SystemExit(2)


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import VerificationService, run_server

    store = _open_store(args)
    service = VerificationService(
        workers=args.workers,
        store=store,
        max_pending=args.max_pending,
        batch_window=args.batch_window,
    )
    try:
        asyncio.run(run_server(service, host=args.host, port=args.port))
    except KeyboardInterrupt:
        pass
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    command = {
        "show": _command_show,
        "reachability": _command_reachability,
        "campaign": _command_campaign,
        "query": _command_query,
        "scenario": _command_scenario,
        "store": _command_store,
        "serve": _command_serve,
    }[args.command]
    try:
        return command(args)
    except (OSError, ModelError) as exc:
        # A missing input, or a port the network lacks: one line, exit 1.
        raise SystemExit(f"symnet: error: {exc}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # Positionals split by interleaved options ("query DIR --workers 2
        # 'loop()'") land here; only the query command accepts them, and
        # only for non-option tokens.
        if getattr(args, "command", None) != "query" or any(
            token.startswith("-") for token in extras
        ):
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.queries.extend(extras)
    try:
        # Out-of-range settings are refused here, in the declaration's own
        # words, before any subcommand opens a store or builds a network.
        RunSettings(**_run_settings(args))
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    # The pool, serve and clustering options, by the same rule (absent
    # ones pass).
    for name, least in (("workers", 1), ("max_pending", 1), ("min_points", 1)):
        value = getattr(args, name, least)
        if value < least:
            parser.error(f"--{name.replace('_', '-')} must be >= {least}, not {value}")
    window = getattr(args, "batch_window", 0.0)
    if not 0 <= window < math.inf:  # NaN fails both comparisons
        parser.error(f"--batch-window must be >= 0 and finite, not {window}")
    eps = getattr(args, "eps", 0.0)
    if not 0 <= eps <= 1:  # a Jaccard distance; NaN fails both comparisons
        parser.error(f"--eps must be a Jaccard distance in [0, 1], not {eps}")
    configure_logging(
        level=getattr(args, "log_level", None),
        verbosity=getattr(args, "verbose", 0),
    )
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return _dispatch(args)
    # Tracing is opt-in per invocation: install a recording tracer for the
    # command's lifetime, restore the previous (no-op) one, and flush the
    # recorded spans regardless of how the command ended.
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with tracer.span("session", command=args.command):
            return _dispatch(args)
    finally:
        set_tracer(previous)
        try:
            count = write_trace(trace_out, tracer)
        except OSError as exc:
            _LOG.warning("cannot write trace to %s: %s", trace_out, exc)
        else:
            _LOG.info("wrote %d spans to %s", count, trace_out)


if __name__ == "__main__":
    sys.exit(main())
