"""Observability for the serving/distributed stack: traces, metrics, logs.

Three small, dependency-free pieces:

* :mod:`repro.obs.trace` — per-request span trees with thread-local
  activation, a bounded in-memory store, and trace-context propagation
  across thread and process boundaries (the distributed IPC layer ships
  context out and spans back, so one trace id stitches
  front-end → worker → shard work into a single tree).
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket latency
  histograms with interpolated quantiles, all with JSON-safe snapshots,
  plus a Prometheus text renderer over ``stats()`` snapshots (one path
  for every topology).
* :mod:`repro.obs.logs` — a JSON line formatter and the slow-query log.

Everything is on by default and engineered to cost ~nothing when no
trace is active: instrumentation sites hit a shared no-op fast path.
"""

from repro.obs.logs import JsonLogFormatter, SLOW_QUERY_LOGGER, log_slow_query
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_text,
)
from repro.obs.trace import (
    RequestTrace,
    Span,
    Tracer,
    absorb,
    activate,
    activation,
    annotate,
    begin_request,
    call_with_capture,
    capture,
    current_context,
    current_trace_id,
    deactivate,
    record_span,
    span,
)

__all__ = [
    "JsonLogFormatter",
    "SLOW_QUERY_LOGGER",
    "log_slow_query",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "prometheus_text",
    "RequestTrace",
    "Span",
    "Tracer",
    "absorb",
    "activate",
    "activation",
    "annotate",
    "begin_request",
    "call_with_capture",
    "capture",
    "current_context",
    "current_trace_id",
    "deactivate",
    "record_span",
    "span",
]
