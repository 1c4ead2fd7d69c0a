"""The run settings: one declaration behind every front end.

The CLI (``query`` / ``campaign`` / ``scenario``), ``repro.serve`` and the
Python API accept the fields of :class:`RunSettings` as flags, message keys
and keywords under the names below and build the object once; the CLI
flags (name, type, default, choices and help), the serve type checks and
merge key, ``job_config_digest`` and ``Plan.fingerprint`` are derived from
it.

A field is either part of a run's **identity** — it decides what is
explored, so every digest a cached or spliced answer is filed under covers
it — or a **tier switch**: it changes which tier answers, never the answer,
and is part of no digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Tuple

from repro.models import host as host_models
from repro.sefl.fields import standard_fields

#: Packet templates a run (and the CLI) can inject, by name.
PACKET_TEMPLATES = {
    "tcp": host_models.symbolic_tcp_packet,
    "udp": host_models.symbolic_udp_packet,
    "ip": host_models.symbolic_ip_packet,
    "icmp": host_models.symbolic_icmp_packet,
}


def _setting(default, help: str, tier_switch: bool = False, choices=None):
    """A field and its one description, ``help``: the CLI flag's help.
    ``choices``, when given, are the only values it takes."""
    return field(
        default=default,
        metadata={"help": help, "tier_switch": tier_switch, "choices": choices},
    )


def _tier_switch(default, help: str, choices=None):
    return _setting(default, help, tier_switch=True, choices=choices)


@dataclass(frozen=True)
class RunSettings:
    """How one run explores and which work-avoidance tiers it may use."""

    packet: str = _setting(
        "tcp", "packet template injected at every port", choices=PACKET_TEMPLATES
    )
    # Kept as sorted (name, value) pairs; a mapping is accepted.
    field_values: Tuple[Tuple[str, int], ...] = _setting(
        (), "pin a header field to a concrete value (repeatable); the name must "
        "be a standard header field and the value fit its width",
    )
    max_hops: int = _setting(
        128, "stop a path after this many ports; a job either budget cuts short "
        "is marked truncated, and every answer over it says so",
    )
    max_paths: int = _setting(
        1_000_000, "stop a job after this many terminated paths; a budget, like "
        "max_hops",
    )
    # One value: the set of paths that end never depends on the order.
    strategy: str = _setting(
        "dfs", "worklist discipline: depth-first, the only order paths are "
        "explored in", choices=("dfs",),
    )
    shared_cache: bool = _setting(
        True, "share the cross-job caches (per-worker verdict caches, the "
        "pool's shared tier, the store and its plan cache); off, every job is "
        "an isolated baseline that neither feeds nor reads what others filed",
    )

    # One value: the job-level symmetry tier is retired (canonicalising a
    # job cost more than running it on every workload measured), and a run
    # that asks for it is refused, never quietly run without it.
    symmetry: bool = _tier_switch(
        False, "retired: running one engine job per renaming class of "
        "injection ports was slower than running every job; only off is "
        "accepted", choices=(False,),
    )
    delta: bool = _tier_switch(
        True, "when a baseline is available (a saved one, the store's recorded "
        "one, or a scenario's previous state), re-execute only the injection "
        "ports the directory diff could have touched, splice the rest from it "
        "and record each run as the next baseline",
    )
    state_memo: bool = _tier_switch(
        True, "explore each state the jobs of a run share once and replay its "
        "subtree where another job reaches it",
    )

    def __post_init__(self) -> None:
        pairs = dict(self.field_values or ())
        object.__setattr__(
            self,
            "field_values",
            tuple(sorted((str(name), int(value)) for name, value in pairs.items())),
        )
        for spec in fields(self):
            value, kind = getattr(self, spec.name), type(spec.default)
            if not isinstance(value, kind) or (
                kind is int and isinstance(value, bool)
            ):
                raise TypeError(f"'{spec.name}' must be {kind.__name__}")
            check_choice(spec.name, value)
        for name in BUDGETS:
            check_budget(name, getattr(self, name))
        known = standard_fields()
        for name, value in self.field_values:
            if name not in known:
                raise ValueError(f"'field_values' names unknown header field {name!r}")
            width = known[name].width
            if not 0 <= value < 1 << width:
                raise ValueError(
                    f"'field_values' {name}={value} does not fit a {width}-bit field"
                )

    def identity(self) -> Tuple[Tuple[str, object], ...]:
        """The (name, value) pairs every digest of this run covers."""
        return tuple(
            (spec.name, getattr(self, spec.name))
            for spec in fields(self)
            if spec.name not in TIER_SWITCHES
        )

    def switched(self, **switches: object) -> "RunSettings":
        """A copy with tier switches changed.  Identity fields are refused:
        a compiled plan was fingerprinted for the ones it has."""
        fixed = sorted(set(switches) - set(TIER_SWITCHES))
        if fixed:
            raise TypeError(f"{fixed} cannot change after compilation")
        return replace(self, **switches)


def check_choice(name: str, value: object) -> None:
    """Refuse a ``value`` of setting ``name`` its declaration does not list."""
    choices = RunSettings.__dataclass_fields__[name].metadata["choices"]
    if choices is not None and value not in choices:
        raise ValueError(
            f"'{name}' must be one of {', '.join(sorted(map(str, choices)))}, "
            f"not {value!r}"
        )


#: The settings that are budgets: a run cut short by one says so.
BUDGETS = ("max_hops", "max_paths")


def check_budget(name: str, value: int) -> None:
    """Refuse a ``value`` of budget ``name`` that leaves no room to explore."""
    if value < 1:
        raise ValueError(f"'{name}' must be >= 1, not {value}")


#: Every setting's name, in declaration order — what a front end accepts.
SETTING_NAMES = tuple(spec.name for spec in fields(RunSettings))
TIER_SWITCHES = tuple(
    spec.name for spec in fields(RunSettings) if spec.metadata.get("tier_switch")
)
