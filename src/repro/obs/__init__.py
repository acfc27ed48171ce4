"""repro.obs — the observability layer (metrics, tracing, exporters).

"Turning Cluster Management into Data Management" (Robinson & DeWitt)
argues Condor-style pool state should itself be queryable data; this
package applies that to the reproduction.  Every negotiation cycle,
claim, eviction, and ad-store transition is counted or traced here and
exported as machine-readable JSON (the ``repro-obs/1`` schema; see
docs/OBSERVABILITY.md for the metric catalogue and span taxonomy).

Three process-wide singletons carry all instrumentation:

* :data:`metrics` — the global :class:`MetricsRegistry`; instrumented
  modules declare their counters against it at import time;
* :data:`tracer` — the global :class:`Tracer` for nested spans;
* :data:`event_log` — the global :class:`EventLog`, the structured
  negotiation-forensics stream (``repro-events/1``; read back with the
  ``repro obs`` CLI family);
* :data:`causal_log` — the global :class:`CausalTracer`, the
  cross-daemon causal trace stream (``repro-trace/1``): spans are
  propagated through every protocol message, so "why did job J take
  400 ticks" is answerable across daemon boundaries;
* :data:`series` — the global :class:`SeriesStore`, the pool-health
  time series (``repro-series/1``) sampled each negotiation cycle.

All are **disabled by default**: every mutating call bails on one
boolean check, so an uninstrumented run pays (nearly) nothing.  Turn
them on programmatically::

    from repro import obs
    obs.enable()                  # metrics only
    obs.enable(trace=True)        # metrics + spans
    obs.enable(events=True)       # metrics + the forensic event log
    obs.event_log.open_file("events.jsonl")   # optional JSONL sink
    ... run ...
    print(obs.export.snapshot())  # or obs.export.write_json(path)
    obs.disable(); obs.reset()

or from the environment before the process starts: ``REPRO_OBS=1``
enables metrics, ``REPRO_OBS_TRACE=1`` additionally enables spans,
``REPRO_OBS_EVENTS=1`` additionally enables the event log,
``REPRO_OBS_CAUSAL=1`` the causal trace stream, and
``REPRO_OBS_SERIES=1`` the pool time series (parsed by
:func:`repro.config.from_env`; see docs/PERFORMANCE.md "Runtime
switches").

This package must stay import-cycle free: it is imported by the lowest
layers (classads, sim), so it imports nothing from them (only the
dependency-free :mod:`repro.config`).
"""

from __future__ import annotations

from ..config import from_env
from . import export
from .causal import (
    TRACE_SCHEMA,
    CausalTracer,
    SpanRecord,
    TraceContext,
    TraceError,
    causal_log,
    job_trace_id,
)
from .events import EVENTS_SCHEMA, Event, EventLog, EventLogError, event_log
from .invariants import InvariantReport, Violation, check_events
from .registry import Counter, Gauge, Histogram, MetricsRegistry, RunningStats
from .timeseries import SERIES_SCHEMA, Sample, SeriesError, SeriesStore, series
from .tracer import NULL_SPAN, Span, Tracer


_startup = from_env().obs

#: The process-wide metrics registry.  Modules register metrics against
#: it at import time; the registry survives enable/disable/reset cycles
#: so those references never go stale.
metrics = MetricsRegistry(enabled="metrics" in _startup)

#: The process-wide span tracer.
tracer = Tracer(enabled="trace" in _startup)

if "events" in _startup:
    event_log.enable()

if "causal" in _startup:
    causal_log.enable()

if "series" in _startup:
    series.enable()


def enable(
    trace: bool = False,
    events: bool = False,
    causal: bool = False,
    timeseries: bool = False,
) -> None:
    """Turn on global metrics collection (and optionally spans/events/
    causal traces/the pool time series)."""
    metrics.enable()
    if trace:
        tracer.enable()
    if events:
        event_log.enable()
    if causal:
        causal_log.enable()
    if timeseries:
        series.enable()


def disable() -> None:
    """Turn off all global collection (recorded data is kept)."""
    metrics.disable()
    tracer.disable()
    event_log.disable()
    causal_log.disable()
    series.disable()


def is_enabled() -> bool:
    return metrics.enabled


def reset() -> None:
    """Zero all global metrics and drop all recorded spans/events."""
    metrics.reset()
    tracer.reset()
    event_log.reset()
    causal_log.reset()
    series.reset()


__all__ = [
    "CausalTracer",
    "Counter",
    "EVENTS_SCHEMA",
    "Event",
    "EventLog",
    "EventLogError",
    "Gauge",
    "Histogram",
    "InvariantReport",
    "MetricsRegistry",
    "NULL_SPAN",
    "RunningStats",
    "SERIES_SCHEMA",
    "Sample",
    "SeriesError",
    "SeriesStore",
    "Span",
    "SpanRecord",
    "TRACE_SCHEMA",
    "TraceContext",
    "TraceError",
    "Tracer",
    "Violation",
    "causal_log",
    "check_events",
    "disable",
    "enable",
    "event_log",
    "export",
    "is_enabled",
    "job_trace_id",
    "metrics",
    "reset",
    "series",
    "tracer",
]
