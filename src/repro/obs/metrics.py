"""A small metrics registry: labeled counters, gauges and histograms with
Prometheus text exposition.

This is the aggregation backend behind the repo's hand-threaded counter
plumbing.  The picklable counter structs themselves
(:class:`~repro.solver.result.SolverStats` fields riding in
``JobReport``, rolled up by ``CampaignStats.absorb``) stay exactly what
they are — per-run deltas that must cross process boundaries and
rehydrate from cached payloads, which a process-global registry cannot
do.  Instead, the campaign driver publishes every finished report and
every finished campaign into the registry at well-defined points
(:func:`record_job_report`, :func:`record_campaign_stats`), and the
resident service's scheduler counters are *literally* registry series
(see ``repro.serve.scheduler``).  The ``metrics`` protocol verb renders
it all as Prometheus text.

Like tracing, metrics are write-only telemetry: nothing in the engine
reads them back, so they can never move an answer.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "record_job_report",
    "record_campaign_stats",
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


class Counter(_Metric):
    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def set_value(self, value: float, **labels: object) -> None:
        """Internal backdoor for mapping-style wrappers (the serve
        scheduler's ``counters[key] += 1`` pattern); not part of the
        Prometheus counter contract."""
        with self._lock:
            self._series[_label_key(labels)] = value

    def render(self) -> List[str]:
        lines = self.header_lines()
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{_render_labels(key)} "
                    f"{_format_value(self._series[key])}"
                )
        return lines


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

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
    """Named metric families with get-or-create access.  Asking twice for
    the same name returns the same family; asking with a conflicting kind
    is a programming error and raises."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Metric]" = {}

    def _family(self, cls, name: str, help_text: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            family = cls(name, help_text, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._family(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._family(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._family(Histogram, name, help_text, buckets=buckets)

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


# -- publication points -------------------------------------------------------
#
# Called by the campaign driver; one call per report / per campaign, so
# registry totals stay exact multiples of what the stats structs say.


#: ``SolverStats`` field -> (family, help, labels): how a job report's solver
#: delta lands in the registry.  One row per published counter, so the
#: families pre-registered at zero and the ones fed per report cannot drift.
_CHECKS = (
    "repro_solver_checks_total",
    "Solver checks by the cache tier that answered.",
)
_SOLVER_FAMILIES = (
    ("fast_paths", *_CHECKS, {"tier": "fast_path"}),
    ("cache_hits", *_CHECKS, {"tier": "cache_hit"}),
    ("shared_cache_hits", *_CHECKS, {"tier": "shared_hit"}),
    ("cache_misses", *_CHECKS, {"tier": "full_solve"}),
    (
        "time_seconds",
        "repro_solver_seconds_total",
        "Seconds spent inside the solver.",
        {},
    ),
    (
        "shared_round_trips",
        "repro_shared_round_trips_total",
        "Round-trips to the process-shared verdict tier.",
        {},
    ),
    (
        "shared_publish_entries",
        "repro_shared_publish_entries_total",
        "Verdicts published to the process-shared tier.",
        {},
    ),
)


def ensure_core_families(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register the core families (at zero) so a scrape before any run
    still shows them — a service that has done nothing must expose
    ``repro_degraded_operations_total 0``, not an empty page."""
    registry = registry or get_registry()
    jobs = registry.counter(
        "repro_jobs_total", "Campaign job reports by outcome."
    )
    for outcome in ("executed", "error", "symmetry_instantiated", "delta_spliced"):
        jobs.inc(0, outcome=outcome)
    for _, family, help_text, labels in _SOLVER_FAMILIES:
        registry.counter(family, help_text).inc(0, **labels)
    registry.counter(
        "repro_degraded_operations_total",
        "Best-effort operations absorbed by a degrade path.",
    ).inc(0)
    registry.counter(
        "repro_campaigns_total", "Finished verification campaigns."
    ).inc(0)
    registry.histogram(
        "repro_job_seconds", "Wall-clock seconds per executed engine job."
    )
    registry.histogram(
        "repro_store_publish_seconds",
        "Wall-clock seconds per campaign store publish.",
    )
    registry.histogram(
        "repro_stream_first_result_seconds",
        "Seconds from plan execution start to the first streamed result.",
    )
    return registry


def record_job_report(report) -> None:
    """Publish one finished :class:`~repro.core.jobs.JobReport` into
    the global registry (called by the campaign driver as each report —
    executed, instantiated or spliced — becomes final)."""
    registry = get_registry()
    if report.error is not None:
        outcome = "error"
    elif report.delta_spliced_from:
        outcome = "delta_spliced"
    elif report.symmetry_instantiated_from:
        outcome = "symmetry_instantiated"
    else:
        outcome = "executed"
    registry.counter(
        "repro_jobs_total", "Campaign job reports by outcome."
    ).inc(outcome=outcome)
    if outcome != "executed":
        return
    registry.histogram(
        "repro_job_seconds", "Wall-clock seconds per executed engine job."
    ).observe(report.elapsed_seconds)
    for name, family, help_text, labels in _SOLVER_FAMILIES:
        registry.counter(family, help_text).inc(
            getattr(report.solver_stats, name), **labels
        )


def record_campaign_stats(stats) -> None:
    """Publish one finished campaign's aggregated
    :class:`~repro.core.queries.CampaignStats` — the campaign-scoped
    counters that have no per-report home (symmetry skips, store traffic,
    degraded operations)."""
    registry = get_registry()
    registry.counter(
        "repro_campaigns_total", "Finished verification campaigns."
    ).inc()
    registry.counter(
        "repro_jobs_skipped_total",
        "Jobs answered without execution, by mechanism.",
    ).inc(stats.jobs_skipped_by_symmetry, reason="symmetry")
    registry.counter(
        "repro_degraded_operations_total",
        "Best-effort operations absorbed by a degrade path.",
    ).inc(stats.degraded_operations)
    store = registry.counter(
        "repro_store_entries_total", "Verdict-store entries by direction."
    )
    store.inc(stats.store_entries_loaded, direction="loaded")
    store.inc(stats.store_entries_published, direction="published")
