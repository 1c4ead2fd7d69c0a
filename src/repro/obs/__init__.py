"""Observability: hierarchical span tracing + a metrics registry + logging.

The five stacked speed mechanisms (incremental solving, verdict caching,
symmetry classes, delta splicing, plan merging) each change *which tier
answers, never the answer* — which also means a flat end-of-run counter
dump is the only window into where a query's time actually went.  This
package opens live windows:

* :mod:`repro.obs.trace` — a :class:`Tracer` with a zero-cost no-op
  default; spans for plan compile → campaign → symmetry class → engine
  job → solver check / store publish / delta splice, carried across the
  process-pool boundary through ``JobReport.spans`` and re-parented
  under the campaign span; exported as Chrome trace-event JSON (open in
  Perfetto) or JSONL via ``--trace-out``.
* :mod:`repro.obs.metrics` — labeled counters/gauges/histograms with
  Prometheus text exposition, and the one declaration of every family;
  fed from finished job reports and campaigns, and the resident service's
  event counters (the ``metrics`` protocol verb renders it).
* :mod:`repro.obs.logs` — the ``repro`` logging hierarchy behind the
  CLI's ``--log-level`` / ``-v`` flags.

The standing invariant extends to telemetry: tracing {off, on} changes
which spans and series are emitted, never any answer or fingerprint
(``tests/test_obs.py`` holds this across workers {1, 2}).
"""

from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.obs.trace import (
    NullTracer,
    Span,
    Tracer,
    chrome_trace,
    get_tracer,
    set_tracer,
    write_trace,
)

__all__ = [
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "configure_logging",
    "get_logger",
    "get_registry",
    "get_tracer",
    "reset_registry",
    "set_tracer",
    "write_trace",
]
