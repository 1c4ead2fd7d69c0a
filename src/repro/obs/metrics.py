"""A small metrics registry: labeled counters, gauges and histograms with
Prometheus text exposition.

Every family is declared once, at the bottom of this module, as a
:class:`Family` (kind, name, help); a registry creates a family only from
its declaration (``JOBS.get().inc(outcome="error")``).  Which counter feeds
which series is declared with the counter: the fields of the picklable
per-run structs (:class:`~repro.solver.result.SolverStats`,
:class:`~repro.core.queries.CampaignStats`) each name their family and
labels, or none, and the campaign driver publishes by walking them (see
``repro.core.queries``).  The resident service counts its events straight
into its own registry.  The ``metrics`` protocol verb renders it all.

Like tracing, metrics are write-only telemetry: nothing in the engine
reads them back, so they can never move an answer.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): the engine's job walls sit in the
#: milliseconds-to-seconds band the paper reports, so the resolution
#: concentrates there.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Metric:
    """Common shape: a named family of labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()

    def header_lines(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class _Scalar(_Metric):
    """A family whose series each hold one number."""

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._series: Dict[LabelKey, float] = {}

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def render(self) -> List[str]:
        lines = self.header_lines()
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{_render_labels(key)} "
                    f"{_format_value(self._series[key])}"
                )
        return lines


class Counter(_Scalar):
    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount


class Gauge(_Scalar):
    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, bucket_count: int) -> None:
        self.bucket_counts = [0] * bucket_count
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[index] += 1
            series.total += value
            series.count += 1

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.total if series is not None else 0.0

    def render(self) -> List[str]:
        lines = self.header_lines()
        with self._lock:
            for key in sorted(self._series):
                series = self._series[key]
                for bound, count in zip(self.buckets, series.bucket_counts):
                    lines.append(
                        f"{self.name}_bucket"
                        f"{_render_labels(key, (('le', repr(bound)),))} {count}"
                    )
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, (('le', '+Inf'),))} {series.count}"
                )
                lines.append(
                    f"{self.name}_sum{_render_labels(key)} "
                    f"{_format_value(series.total)}"
                )
                lines.append(
                    f"{self.name}_count{_render_labels(key)} {series.count}"
                )
        return lines


class MetricsRegistry:
    """Metric families by name, each created on first use from its
    :class:`Family` declaration.  Asking for a name under another kind is a
    programming error and raises."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Metric]" = {}

    def family(self, declared: Family) -> _Metric:
        with self._lock:
            existing = self._families.get(declared.name)
            if existing is None:
                existing = declared.kind(declared.name, declared.help)
                self._families[declared.name] = existing
            elif not isinstance(existing, declared.kind):
                raise ValueError(
                    f"metric {declared.name!r} already registered as {existing.kind}"
                )
            return existing

    def render_prometheus(self) -> str:
        """Every family in the Prometheus text exposition format, families
        in name order."""
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        lines: List[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")


# -- the process-global registry ----------------------------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry campaign/planner/store metrics land in."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh global registry (tests)."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()
    return _REGISTRY


# -- the families -------------------------------------------------------------


class Family(NamedTuple):
    """One metric family, declared once: its kind (:class:`Counter`,
    :class:`Gauge` or :class:`Histogram`), name and help.  :meth:`get` is
    the family in ``registry`` (the process-global one by default), created
    on first use."""

    kind: type
    name: str
    help: str

    def get(self, registry: Optional[MetricsRegistry] = None) -> _Metric:
        return (registry or get_registry()).family(self)


# Campaigns.
CAMPAIGNS = Family(Counter, "repro_campaigns_total", "Finished verification campaigns.")
JOBS = Family(Counter, "repro_jobs_total", "Campaign job reports by outcome.")
JOB_SECONDS = Family(
    Histogram, "repro_job_seconds", "Wall-clock seconds per executed engine job."
)
ENGINE_STEPS = Family(Counter, "repro_engine_steps_total", "Engine steps explored.")
STATE_MEMO_LOOKUPS = Family(
    Counter, "repro_state_memo_lookups_total", "State-memo lookups by result."
)
SOLVER_CHECKS = Family(
    Counter,
    "repro_solver_checks_total",
    "Solver checks by the cache tier that answered.",
)
SOLVER_SECONDS = Family(
    Counter, "repro_solver_seconds_total", "Seconds spent inside the solver."
)
SHARED_ROUND_TRIPS = Family(
    Counter,
    "repro_shared_round_trips_total",
    "Round-trips to the process-shared verdict tier.",
)
DEGRADED_OPERATIONS = Family(
    Counter,
    "repro_degraded_operations_total",
    "Best-effort operations absorbed by a degrade path.",
)
STORE_ENTRIES = Family(
    Counter, "repro_store_entries_total", "Verdict-store entries by direction."
)
STORE_PUBLISH_SECONDS = Family(
    Histogram,
    "repro_store_publish_seconds",
    "Wall-clock seconds per campaign store publish.",
)
# Plans.
PLAN_CACHE = Family(
    Counter,
    "repro_plan_cache_total",
    "Plan-result cache lookups against the store, by result.",
)
STREAM_FIRST_RESULT_SECONDS = Family(
    Histogram,
    "repro_stream_first_result_seconds",
    "Seconds from plan execution start to the first streamed result.",
)
# The resident service (its own registry).
SERVE_EVENTS = Family(
    Counter, "repro_serve_events_total", "Service scheduler events by type."
)
SERVE_REQUEST_SECONDS = Family(
    Histogram,
    "repro_serve_request_seconds",
    "End-to-end seconds per merged request group.",
)
SERVE_PENDING = Family(
    Gauge, "repro_serve_pending", "Requests waiting on the admission queue."
)
SERVE_MODELS_RESIDENT = Family(
    Gauge, "repro_serve_models_resident", "Hot NetworkModels held in memory."
)
SERVE_WORKERS = Family(Gauge, "repro_serve_workers", "Configured worker-pool size.")
