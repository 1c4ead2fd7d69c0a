"""The run settings: one declaration behind every front end.

The CLI (``query`` / ``campaign`` / ``scenario``), ``repro.serve`` and the
Python API accept the fields of :class:`RunSettings` as flags, message keys
and keywords under the names below and build the object once; the flag
defaults, the serve type checks and merge key, ``job_config_digest`` and
``Plan.fingerprint`` are derived from it.

A field is either part of a run's **identity** — it decides what is
explored, so every digest a cached or spliced answer is filed under covers
it — or a **tier switch**: it changes which tier answers, never the answer,
and is part of no digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Tuple

from repro.core.strategy import STRATEGIES


def _tier_switch(default):
    return field(default=default, metadata={"tier_switch": True})


@dataclass(frozen=True)
class RunSettings:
    """How one run explores and which work-avoidance tiers it may use."""

    #: Packet template injected at every port (``jobs.PACKET_TEMPLATES``).
    packet: str = "tcp"
    #: Header fields pinned to concrete values, as sorted (name, value)
    #: pairs; a mapping is accepted and normalised.
    field_values: Tuple[Tuple[str, int], ...] = ()
    #: The two budgets.  A path is stopped after ``max_hops`` ports, a job
    #: after ``max_paths`` recorded paths; either way the job's report is
    #: marked truncated and every answer over it says so.
    max_hops: int = 128
    max_paths: int = 1_000_000
    #: Worklist discipline, by ``strategy.STRATEGIES`` name (jobs pickle).
    strategy: str = "dfs"
    #: The whole cross-job cache stack: per-worker caches, the pool's
    #: shared tier, the store and its plan cache.  Off, every job is an
    #: isolated baseline — identity, not a tier switch: an isolated run must
    #: neither be served from nor feed anything a sharing run filed.
    shared_cache: bool = True

    #: One engine job per renaming class of injection ports, the rest
    #: instantiated (``core.symmetry``).  Off by default: canonicalising a
    #: job costs more than running it on every workload measured so far.
    symmetry: bool = _tier_switch(False)
    #: Re-execute one seeded-random member per class and fail unless the
    #: instantiated report is bit-identical.  Implies ``symmetry``.
    symmetry_audit: bool = _tier_switch(False)
    symmetry_audit_seed: int = _tier_switch(0)
    #: Splice answers a directory diff provably did not touch from the
    #: baseline (``core.delta``), and record each run as the next one.
    delta: bool = _tier_switch(True)

    def __post_init__(self) -> None:
        pairs = dict(self.field_values or ())
        object.__setattr__(
            self,
            "field_values",
            tuple(sorted((str(name), int(value)) for name, value in pairs.items())),
        )
        if self.symmetry_audit:
            object.__setattr__(self, "symmetry", True)
        for spec in fields(self):
            value, kind = getattr(self, spec.name), type(spec.default)
            if not isinstance(value, kind) or (
                kind is int and isinstance(value, bool)
            ):
                raise TypeError(f"'{spec.name}' must be {kind.__name__}")
        for name in ("max_hops", "max_paths"):
            if getattr(self, name) < 1:
                raise ValueError(f"'{name}' must be >= 1, not {getattr(self, name)}")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"'strategy' must be one of {', '.join(sorted(STRATEGIES))}, "
                f"not {self.strategy!r}"
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


#: Every setting's name, in declaration order — what a front end accepts.
SETTING_NAMES = tuple(spec.name for spec in fields(RunSettings))
TIER_SWITCHES = tuple(
    spec.name for spec in fields(RunSettings) if spec.metadata.get("tier_switch")
)
