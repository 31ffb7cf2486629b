"""Observability for the chief–employee training stack.

Three pillars, one package:

* **tracing** (:mod:`repro.obs.trace`) — a :class:`Tracer` with nested
  ``span("explore", employee=i)`` context managers that record
  wall-clock durations to an in-memory ring buffer and an append-only,
  schema-versioned JSONL file.  Installed via ``--trace-dir``; the
  module-level :func:`span`/:func:`event` helpers are no-ops when no
  tracer is installed.  Read back with
  :func:`read_trace` / :func:`summarize_trace` or
  ``python -m repro trace summary``.
* **metrics** (:mod:`repro.obs.metrics`) — a process-local
  :class:`MetricsRegistry` of counters/gauges/histograms with labeled
  series, exported as JSON or Prometheus text.  Always on: increments
  are deterministic locked adds, no clocks are read inside.
* **autograd profiler** (:mod:`repro.obs.profiler`) — wall
  time/calls/FLOPs/bytes per op registry entry, by wrapping
  ``Tensor._make`` under the sanitizer's patch-on-enable /
  restore-on-disable contract; ``python -m repro profile`` renders the
  hot-spot table.  Zero overhead and bitwise-identical results when
  off.

Fleet observability (PR 8) adds three more modules under the same
bitwise install/uninstall contract:

* **federation** (:mod:`repro.obs.federation`) — worker registries ship
  metric *deltas* piggy-backed on replies; the chief folds them into the
  main registry under ``worker``/``host`` labels and maintains the
  ``repro_employee_lag_seconds`` straggler gauge.
* **server** (:mod:`repro.obs.server`) — the one stdlib ``http.server``
  daemon-thread endpoint (``--obs-port`` / ``repro obs serve``, and
  ``repro serve``'s HTTP door, which mounts its routes on it) exposing
  ``/metrics``, ``/metrics.json``, ``/trace/summary`` and ``/healthz``.
* **flight recorder** (:mod:`repro.obs.flight`) — a bounded ring of
  recent spans + metric snapshots dumped as a post-mortem bundle
  (``repro obs dump``, plus automatic dumps on crash/quarantine paths).

Plus :func:`get_logger`/:func:`configure_logging` (stdlib ``logging``
integration) and the ASCII live :class:`Dashboard` (``--dashboard``).
"""

from .dashboard import Dashboard
from .federation import (
    FEDERATION_SCHEMA_VERSION,
    WorkerTelemetry,
    collect_delta,
    fold_into,
    update_employee_lag,
)
from .flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    auto_dump,
    get_flight_recorder,
    validate_bundle,
)
from .log import JsonFormatter, ROOT_LOGGER_NAME, configure_logging, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .profiler import OpProfiler, OpStats, get_profiler
from .server import PROMETHEUS_CONTENT_TYPE, ObsServer
from .trace import (
    TRACE_FILENAME,
    TRACE_SCHEMA_VERSION,
    Span,
    SpanNode,
    TraceError,
    Tracer,
    add_sink,
    build_span_tree,
    current_context,
    dedupe_synthetic,
    event,
    fold_worker_records,
    get_tracer,
    merge_traces,
    read_trace,
    record_span,
    remove_sink,
    render_trace_summary,
    reset_after_fork,
    span,
    summarize_trace,
    trace_path_for,
    wall_clock,
)

__all__ = [
    # tracing
    "Tracer",
    "Span",
    "SpanNode",
    "TraceError",
    "TRACE_SCHEMA_VERSION",
    "TRACE_FILENAME",
    "span",
    "event",
    "record_span",
    "reset_after_fork",
    "get_tracer",
    "trace_path_for",
    "read_trace",
    "build_span_tree",
    "summarize_trace",
    "render_trace_summary",
    "wall_clock",
    "current_context",
    "add_sink",
    "remove_sink",
    "fold_worker_records",
    "dedupe_synthetic",
    "merge_traces",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    # federation
    "FEDERATION_SCHEMA_VERSION",
    "WorkerTelemetry",
    "collect_delta",
    "fold_into",
    "update_employee_lag",
    # server
    "ObsServer",
    "PROMETHEUS_CONTENT_TYPE",
    # flight recorder
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "get_flight_recorder",
    "auto_dump",
    "validate_bundle",
    # profiler
    "OpProfiler",
    "OpStats",
    "get_profiler",
    # logging
    "get_logger",
    "configure_logging",
    "JsonFormatter",
    "ROOT_LOGGER_NAME",
    # dashboard
    "Dashboard",
]
