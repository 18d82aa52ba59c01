"""Metrics: counters, gauges, latency histograms, and Prometheus text.

The registry is deliberately tiny — three metric kinds, all with
JSON-safe state dicts.  A :class:`Histogram` is a fixed set of
cumulative-style buckets (we store per-bucket counts and cumulate at
render time), which makes quantile estimation a linear interpolation
inside the winning bucket — the standard Prometheus client trade-off.

Rendering is a pure function over a ``stats()`` snapshot
(:func:`prometheus_text`), not over live registry objects.  Every
topology is one :class:`~repro.serving.service.ExplanationService`, with
or without a worker pool behind it, so ``GET /metrics`` is "take
``stats()``, render".
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "process_maxrss_kb",
    "prometheus_text",
    "DEFAULT_LATENCY_BUCKETS",
]


def process_maxrss_kb() -> int:
    """This process's peak resident set size in KB (0 where unsupported).

    Reads ``VmHWM`` from ``/proc/self/status`` where available.  The
    obvious ``getrusage(RUSAGE_SELF).ru_maxrss`` is wrong for exactly the
    processes that report this number: on Linux the rusage accounting
    survives ``fork`` *and* ``execve``, so a spawn-started worker forever
    reports at least the peak its parent had reached by spawn time — a
    front tier that just pickled a dataset into the pipe makes every
    fresh worker look as heavy as itself.  ``VmHWM`` is reset on exec and
    tracks the process's own high-water mark.  Non-Linux POSIX platforms
    fall back to ``getrusage`` (fork-inheritance caveat and all);
    elsewhere the answer is 0.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX platform
        return 0

#: Upper bounds (seconds) of the fixed latency buckets; +Inf is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, Any]]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def state(self) -> Dict[str, Any]:
        return {"type": "counter", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, cache occupancy, liveness)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def state(self) -> Dict[str, Any]:
        return {"type": "gauge", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket histogram with per-bucket (non-cumulative) counts."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count",
                 "_lock")

    def __init__(self, name: str, labels: _LabelKey,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(float(b) for b in buckets))
        # one slot per finite bucket plus the +Inf overflow slot
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating inside its bucket."""
        with self._lock:
            counts = list(self.counts)
            total = self.count
        return _bucket_quantile(self.buckets, counts, total, q)

    def state(self) -> Dict[str, Any]:
        with self._lock:
            return {"type": "histogram", "name": self.name,
                    "labels": dict(self.labels),
                    "buckets": list(self.buckets),
                    "counts": list(self.counts),
                    "sum": self.sum, "count": self.count}


def _bucket_quantile(buckets: Sequence[float], counts: Sequence[int],
                     total: int, q: float) -> float:
    if total <= 0:
        return 0.0
    q = min(1.0, max(0.0, q))
    rank = q * total
    cumulative = 0.0
    lower = 0.0
    for i, upper in enumerate(buckets):
        previous = cumulative
        cumulative += counts[i]
        if cumulative >= rank:
            inside = counts[i]
            if inside <= 0:
                return upper
            fraction = (rank - previous) / inside
            return lower + fraction * (upper - lower)
        lower = upper
    # landed in the +Inf bucket: the best bounded answer is the last edge
    return buckets[-1] if buckets else 0.0


class MetricsRegistry:
    """A process-local set of named metrics with a JSON-safe snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, _LabelKey], Any] = {}

    def _get(self, kind: str, factory, name: str,
             labels: Optional[Mapping[str, Any]], *args):
        key = (kind, name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, key[2], *args)
                self._metrics[key] = metric
        return metric

    def counter(self, name: str,
                labels: Optional[Mapping[str, Any]] = None) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, Any]] = None) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, Any]] = None,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._get("histogram", Histogram, name, labels, buckets)

    def state(self) -> List[Dict[str, Any]]:
        """A JSON-safe snapshot of every metric (the ``stats()`` block)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return [metric.state() for metric in metrics]


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #
_QUANTILES = (0.5, 0.9, 0.99)


def _escape_label(value: Any) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _labels_text(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _Renderer:
    def __init__(self):
        self.lines: List[str] = []
        self._typed: set = set()

    def header(self, name: str, kind: str, help_text: str) -> None:
        if name not in self._typed:
            self._typed.add(name)
            self.lines.append(f"# HELP {name} {help_text}")
            self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: Mapping[str, Any],
               value: float) -> None:
        self.lines.append(f"{name}{_labels_text(labels)}"
                          f" {_format_value(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _render_histogram_entry(out: _Renderer, entry: Mapping[str, Any]) -> None:
    name = entry["name"]
    labels = dict(entry.get("labels") or {})
    buckets = list(entry.get("buckets", ()))
    counts = list(entry.get("counts", ()))
    total = entry.get("count", 0)
    out.header(name, "histogram", f"{name} latency distribution")
    cumulative = 0
    for i, bound in enumerate(buckets):
        cumulative += counts[i] if i < len(counts) else 0
        out.sample(f"{name}_bucket", dict(labels, le=_format_value(bound)),
                   cumulative)
    out.sample(f"{name}_bucket", dict(labels, le="+Inf"), total)
    out.sample(f"{name}_sum", labels, entry.get("sum", 0.0))
    out.sample(f"{name}_count", labels, total)
    quantile_name = f"{name}_estimated_quantile"
    out.header(quantile_name, "gauge",
               f"{name} quantiles interpolated from fixed buckets")
    for q in _QUANTILES:
        out.sample(quantile_name, dict(labels, quantile=str(q)),
                   _bucket_quantile(buckets, counts, total, q))


def _render_metric_state(out: _Renderer,
                         state: Sequence[Mapping[str, Any]]) -> None:
    for entry in sorted(state, key=lambda e: (e.get("name", ""),
                                              _label_key(e.get("labels")))):
        kind = entry.get("type")
        if kind == "histogram":
            _render_histogram_entry(out, entry)
        elif kind in ("counter", "gauge"):
            name = entry["name"]
            out.header(name, kind, name.replace("_", " "))
            out.sample(name, entry.get("labels") or {},
                       entry.get("value", 0.0))


def _render_cache_block(out: _Renderer, cache: Mapping[str, Any],
                        which: str) -> None:
    labels = {"cache": which}
    out.header("repro_cache_entries", "gauge", "live entries per cache")
    out.sample("repro_cache_entries", labels, cache.get("size", 0))
    for field, metric in (("hits", "repro_cache_hits_total"),
                          ("misses", "repro_cache_misses_total"),
                          ("evictions", "repro_cache_evictions_total"),
                          ("expirations", "repro_cache_expirations_total"),
                          ("sweeps", "repro_cache_sweeps_total")):
        if field in cache:
            out.header(metric, "counter", f"cache {field} since start")
            out.sample(metric, labels, cache.get(field, 0))
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    if hits or misses:
        out.header("repro_cache_hit_ratio", "gauge",
                   "hits / (hits + misses) since start")
        out.sample("repro_cache_hit_ratio", labels,
                   hits / float(hits + misses))


def _render_memory_block(out: _Renderer, stats: Mapping[str, Any]) -> None:
    """Per-worker RSS and shared-memory frame-store gauges.

    RSS stays per-worker-labeled — a *summed* maxrss across N workers
    is exactly the number the frame store exists to shrink — so it is
    read straight off each worker's snapshot.
    """
    if isinstance(stats.get("memory"), Mapping):
        maxrss_kb = stats["memory"].get("maxrss_kb", 0)
        if maxrss_kb:
            out.header("repro_worker_maxrss_bytes", "gauge",
                       "peak resident set size per worker process")
            out.sample("repro_worker_maxrss_bytes", {"worker": "service"},
                       maxrss_kb * 1024)
    attach_total = 0.0
    attach_seen = False
    workers = stats.get("workers")
    if isinstance(workers, Mapping):
        for worker_id, snapshot in sorted(workers.items()):
            if not isinstance(snapshot, Mapping):
                continue
            maxrss_kb = snapshot.get("maxrss_kb")
            if maxrss_kb is None and isinstance(snapshot.get("memory"),
                                                Mapping):
                maxrss_kb = snapshot["memory"].get("maxrss_kb")
            if maxrss_kb:
                out.header("repro_worker_maxrss_bytes", "gauge",
                           "peak resident set size per worker process")
                out.sample("repro_worker_maxrss_bytes",
                           {"worker": worker_id}, maxrss_kb * 1024)
            worker_store = snapshot.get("frame_store")
            if isinstance(worker_store, Mapping):
                attach_seen = True
                attach_total += worker_store.get("attach_total", 0)
    store = stats.get("frame_store")
    if isinstance(store, Mapping):
        out.header("repro_frame_store_enabled", "gauge",
                   "whether the shared-memory frame store is active")
        out.sample("repro_frame_store_enabled", {},
                   1 if store.get("enabled") else 0)
        out.header("repro_shm_segments", "gauge",
                   "live shared-memory segments owned by the frame store")
        out.sample("repro_shm_segments", {}, store.get("segments", 0))
        out.header("repro_shm_segment_bytes", "gauge",
                   "bytes held in shared-memory segments")
        out.sample("repro_shm_segment_bytes", {}, store.get("bytes", 0))
        if "frames_published" in store:
            out.header("repro_frame_store_frames_published_total", "counter",
                       "context frames encoded once and published")
            out.sample("repro_frame_store_frames_published_total", {},
                       store.get("frames_published", 0))
    if attach_seen:
        out.header("repro_frame_store_attach_total", "counter",
                   "segment attachments performed by workers")
        out.sample("repro_frame_store_attach_total", {}, attach_total)


#: The optional fields of a worker-tier block: (key, metric, type, help).
_WORKER_TIER_FIELDS = (
    ("workers_alive", "repro_cluster_workers_alive", "gauge",
     "workers that answered the last stats probe"),
    ("worker_restarts", "repro_cluster_worker_restarts_total", "counter",
     "dead workers restarted since start"),
)


def _render_workers_block(out: _Renderer, block: Mapping[str, Any]) -> None:
    """A service's worker pool: engine replicas or row shards."""
    out.header("repro_cluster_workers", "gauge", "configured cluster workers")
    out.sample("repro_cluster_workers", {}, block.get("n_workers", 0))
    for field, metric, kind, help_text in _WORKER_TIER_FIELDS:
        if field in block:
            out.header(metric, kind, help_text)
            out.sample(metric, {}, block[field])


def _render_jobs_block(out: _Renderer, jobs: Mapping[str, Any]) -> None:
    """The durable job subsystem: lifecycle counters and rows by state."""
    for field in ("submitted", "completed", "failed", "cancelled", "resumed",
                  "queries_executed", "queries_resumed"):
        if field in jobs:
            metric = f"repro_jobs_{field}_total"
            out.header(metric, "counter", f"jobs {field} since start")
            out.sample(metric, {}, jobs.get(field, 0))
    by_state = jobs.get("by_state")
    if isinstance(by_state, Mapping):
        out.header("repro_jobs", "gauge", "durable job rows by state")
        for state, count in sorted(by_state.items()):
            out.sample("repro_jobs", {"state": state}, count)
    out.header("repro_jobs_worker_busy", "gauge",
               "whether the job worker is executing a job right now")
    out.sample("repro_jobs_worker_busy", {},
               1 if jobs.get("running_job") else 0)


def _render_envelope_store_block(out: _Renderer,
                                 store: Mapping[str, Any]) -> None:
    """The disk-backed envelope store behind the in-memory cache."""
    for field in ("hits", "misses", "writes", "queries_recorded"):
        if field in store:
            metric = f"repro_envelope_store_{field}_total"
            out.header(metric, "counter",
                       f"durable envelope store {field} since start")
            out.sample(metric, {}, store.get(field, 0))
    if "pending_writes" in store:
        out.header("repro_metastore_pending_writes", "gauge",
                   "write-behind operations queued but not yet committed")
        out.sample("repro_metastore_pending_writes", {},
                   store.get("pending_writes", 0))
    meta = store.get("meta")
    if isinstance(meta, Mapping):
        for field in ("writes_enqueued", "writes_committed", "write_errors",
                      "flushes"):
            if field in meta:
                metric = f"repro_metastore_{field}_total"
                out.header(metric, "counter",
                           f"metastore {field} since start")
                out.sample(metric, {}, meta.get(field, 0))
        if "epoch" in meta:
            out.header("repro_metastore_epoch", "gauge",
                       "owner epoch minted at this process's store open")
            out.sample("repro_metastore_epoch", {}, meta.get("epoch", 0))


def prometheus_text(stats: Mapping[str, Any]) -> str:
    """Render a ``stats()`` snapshot as Prometheus text exposition.

    A service with a worker pool (replicas or row shards) adds a
    ``data_plane`` block, rendered as the ``repro_cluster_workers*``
    families, and per-worker ``workers`` snapshots, whose RSS and
    shared-memory attachments feed the memory gauges.
    """
    out = _Renderer()

    for dataset, context in sorted((stats.get("contexts") or {}).items()):
        for counter, value in sorted((context.get("counters") or {}).items()):
            out.header("repro_engine_events_total", "counter",
                       "engine counter stream by dataset")
            out.sample("repro_engine_events_total",
                       {"dataset": dataset, "counter": counter}, value)
        for stage, seconds in sorted(
                (context.get("stage_seconds") or {}).items()):
            out.header("repro_stage_seconds_total", "counter",
                       "cumulative seconds per pipeline stage")
            out.sample("repro_stage_seconds_total",
                       {"dataset": dataset, "stage": stage}, seconds)

    cache = stats.get("cache")
    if isinstance(cache, Mapping):
        _render_cache_block(out, cache, "envelope")
    negative = stats.get("negative_cache")
    if isinstance(negative, Mapping):
        _render_cache_block(out, negative, "negative")

    for dataset, batcher in sorted((stats.get("batchers") or {}).items()):
        out.header("repro_batcher_pending", "gauge",
                   "queries waiting in the micro-batcher")
        out.sample("repro_batcher_pending", {"dataset": dataset},
                   batcher.get("pending", 0))
        for field in ("submitted", "coalesced", "batches", "executed"):
            if field in batcher:
                metric = f"repro_batcher_{field}_total"
                out.header(metric, "counter",
                           f"micro-batcher {field} since start")
                out.sample(metric, {"dataset": dataset}, batcher[field])

    data_plane = stats.get("data_plane")
    if isinstance(data_plane, Mapping):
        _render_workers_block(out, data_plane)

    jobs = stats.get("jobs")
    if isinstance(jobs, Mapping):
        _render_jobs_block(out, jobs)
    envelope_store = stats.get("envelope_store")
    if isinstance(envelope_store, Mapping):
        _render_envelope_store_block(out, envelope_store)

    _render_memory_block(out, stats)

    tracing = stats.get("tracing")
    if isinstance(tracing, Mapping):
        out.header("repro_trace_store_traces", "gauge",
                   "traces currently retained")
        out.sample("repro_trace_store_traces", {}, tracing.get("traces", 0))
        out.header("repro_trace_spans_total", "counter",
                   "spans recorded since start")
        out.sample("repro_trace_spans_total", {},
                   tracing.get("spans_recorded", 0))
        out.header("repro_trace_spans_dropped_total", "counter",
                   "spans dropped by the per-trace cap")
        out.sample("repro_trace_spans_dropped_total", {},
                   tracing.get("spans_dropped", 0))

    if "uptime_seconds" in stats:
        out.header("repro_uptime_seconds", "gauge",
                   "seconds since service start")
        out.sample("repro_uptime_seconds", {}, stats["uptime_seconds"])

    metric_state = stats.get("metrics")
    if metric_state:
        _render_metric_state(out, metric_state)

    if not out.lines:
        return "# no metrics\n"
    return out.text()
