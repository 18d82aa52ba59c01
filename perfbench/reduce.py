"""Reduce a traced run to per-layer tables and metrics.

Inputs are the launcher's spans, the client's operations and ``/stats``
snapshots.  A span's *self time* is its duration minus the time its
child spans (same thread, nested) cover.  An operation's *server time*
is its ``serving.service.explain`` (or ``.append``) span, joined by trace
id; *wire time* is client latency minus server time.  Inside server time,
an operation owns the spans carrying its trace id, the engine batch that
executed it and its queue wait (batcher submit to batch entry); what
none of these cover is reported as uncovered.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from stats import percentile

STAGES = ("extraction", "candidates", "offline_pruning", "online_pruning",
          "selection_bias", "search")
ROOTS = ("serving.service.explain", "serving.service.append")
RPC_SPANS = ("distributed.coordinator.rpc",
             "distributed.coordinator.perm_rounds",
             "distributed.coordinator.irls")
MIB = 1024.0 * 1024.0

#: Every per-layer metric with its unit.  ``*_ms`` without a percentile
#: suffix is self time per operation; ``.p50`` / ``.tail`` are per call.
PER_LAYER_UNITS = {
    "serving.http.wire_ms.p50": "ms",
    "serving.http.wire_ms.tail": "ms",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.lookup_us.p50": "us",
    "serving.service.explain_ms.p50": "ms",
    "serving.batcher.queue_wait_ms.p50": "ms",
    "serving.batcher.batches": "1/op",
    "engine.envelope.serialize_us.p50": "us",
    **{f"engine.stages.{stage}_ms": "ms/op" for stage in STAGES},
    "engine.context.warm_ms": "ms/op",
    "engine.context.frame_ms": "ms/op",
    "engine.context.frame_hit_ratio": "ratio",
    "kg.extraction.extract_ms": "ms/op",
    "table.join_ms": "ms/op",
    "table.concat_ms": "ms/op",
    "table.filter_ms": "ms/op",
    "missingness.ipw.fit_ms": "ms/op",
    "missingness.ipw.fit_hit_ratio": "ratio",
    "missingness.logistic.fit_calls": "1/op",
    "missingness.logistic.newton_iters": "1/op",
    "missingness.logistic.design_mib": "MiB/op",
    "missingness.recoverability.test_ms": "ms/op",
    "infotheory.permutation.test_ms": "ms/op",
    "infotheory.permutation.early_exits": "1/op",
    "infotheory.permutation.perm_saved": "1/op",
    "core.problem.score_ms": "ms/op",
    "core.pruning.online_ms": "ms/op",
    "core.mcimr.speculation_hit_ratio": "ratio",
    "storage.envelopes.get_ms.p50": "ms",
    "storage.envelopes.put_ms.p50": "ms",
    "storage.metastore.writes_committed": "1/op",
    "distributed.coordinator.rpc_calls_per_op": "1/op",
    "distributed.coordinator.rpc_ms_per_op": "ms/op",
    "distributed.coordinator.irls_ms": "ms/op",
    "distributed.coordinator.perm_rounds_ms": "ms/op",
    "shm.segments": "count",
    "shm.segment_mib": "MiB",
    "obs.spans_per_op": "1/op",
    "obs.uncovered_share": "ratio",
    "obs.trace_overhead_qps": "ops/s",
    "proc.cpu_util": "ratio",
}


class Span:
    __slots__ = ("name", "start", "end", "thread", "trace_id", "tags",
                 "self_time")

    def __init__(self, raw: Sequence):
        (self.name, self.start, self.end, self.thread, self.trace_id,
         self.tags) = raw
        self.tags = self.tags or {}
        self.self_time = self.end - self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


def nest(spans: List[Span]) -> None:
    """Subtract each span's duration from its same-thread parent's self time."""
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_thread[span.thread].append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda span: (span.start, -span.end))
        stack: List[Span] = []
        for span in thread_spans:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            if stack and span.end <= stack[-1].end:
                stack[-1].self_time -= span.duration
            stack.append(span)


def union_length(intervals: Iterable[Tuple[float, float]],
                 low: float, high: float) -> float:
    total, cursor = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def attribute(ops, spans: List[Span]) -> Dict[str, object]:
    """Per-operation wire, queue-wait and uncovered server times."""
    by_trace: Dict[str, List[Span]] = defaultdict(list)
    batches: Dict[str, Span] = {}
    for span in spans:
        if span.trace_id is not None:
            by_trace[span.trace_id].append(span)
        if span.name == "engine.pipeline.batch":
            for trace_id in span.tags.get("trace_ids", ()):
                batches[trace_id] = span
    roots = [span for span in spans if span.name in ROOTS]
    wire, queue_wait, uncovered = [], [], 0.0
    for op in ops:
        own = by_trace.get(op.trace_id, []) if op.trace_id else []
        root = next((span for span in own if span.name in ROOTS), None)
        if root is None:
            root = next((span for span in roots if op.start <= span.start
                         and span.end <= op.end), None)
            own = [span for span in spans if span is not root
                   and op.start <= span.start and span.end <= op.end
                   and span.trace_id is None]
        if root is None:
            continue
        wire.append(max(0.0, op.latency - root.duration))
        intervals = [(span.start, span.end) for span in own
                     if span is not root]
        batch = batches.get(op.trace_id) if op.trace_id else None
        if batch is not None:
            intervals.append((batch.start, batch.end))
            submit = next((span for span in own
                           if span.name == "serving.batcher.submit"), None)
            if submit is not None:
                queue_wait.append(max(0.0, batch.start - submit.start))
                intervals.append((submit.start, batch.start))
        # The root waits on other threads (batcher, speculation) while its
        # request runs; its self time is what no owned span covers.
        root.self_time = root.duration - union_length(
            intervals, root.start, root.end)
        uncovered += root.self_time
    return {"wire": wire, "queue_wait": queue_wait, "uncovered": uncovered}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reduce(ops, raw_spans: Sequence, window: Tuple[float, float],
           counters: Dict[str, float], stats_end: Dict,
           cpu_s: float, tail_pct: float,
           ) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics and the printed per-layer table."""
    low, high = window
    spans = [Span(raw) for raw in raw_spans]
    spans = [span for span in spans if low <= span.start and span.end <= high]
    nest(spans)
    n_ops = max(1, len(ops))
    op_time = sum(op.latency for op in ops) or 1e-12
    wall = max(1e-12, high - low)
    names = defaultdict(list)
    for span in spans:
        names[span.name].append(span)

    def self_ms(name: str) -> float:
        return 1000.0 * sum(span.self_time
                            for span in names.get(name, ())) / n_ops

    def p50(name: str, scale: float) -> float:
        return scale * percentile([span.duration for span in
                                   names.get(name, ())], 50)

    def per_op(name: str) -> float:
        return len(names.get(name, ())) / n_ops

    shares = attribute(ops, spans)
    fits = names.get("missingness.logistic.fit", []) \
        + names.get("distributed.coordinator.irls", [])
    rpc = [span for name in RPC_SPANS for span in names.get(name, ())]
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    frames = counters.get("frame_cache_hits", 0) \
        + counters.get("frame_cache_misses", 0)
    fits_seen = counters.get("ipw_fit_hit", 0) + counters.get("ipw_fit_miss", 0)
    speculated = counters.get("speculation_hit", 0) \
        + counters.get("speculation_waste", 0)
    frame_store = stats_end.get("frame_store") or {}
    uncovered_share = shares["uncovered"] / op_time
    metrics = {
        "serving.http.wire_ms.p50": 1000.0 * percentile(shares["wire"], 50),
        "serving.http.wire_ms.tail": 1000.0 * percentile(shares["wire"],
                                                         tail_pct),
        "serving.cache.hit_ratio": _ratio(counters.get("cache.hits", 0),
                                          lookups),
        "serving.cache.lookup_us.p50": p50("serving.cache.lookup", 1e6),
        "serving.service.explain_ms.p50": p50("serving.service.explain", 1e3),
        "serving.batcher.queue_wait_ms.p50":
            1000.0 * percentile(shares["queue_wait"], 50),
        "serving.batcher.batches": per_op("engine.pipeline.batch"),
        "engine.envelope.serialize_us.p50":
            p50("engine.envelope.serialize", 1e6),
        **{f"engine.stages.{stage}_ms": self_ms(f"engine.stages.{stage}")
           for stage in STAGES},
        "engine.context.warm_ms": self_ms("engine.context.warm"),
        "engine.context.frame_ms": self_ms("engine.context.frame"),
        "engine.context.frame_hit_ratio": _ratio(
            counters.get("frame_cache_hits", 0), frames),
        "kg.extraction.extract_ms": self_ms("kg.extraction.extract"),
        "table.join_ms": self_ms("table.join"),
        "table.concat_ms": self_ms("table.concat"),
        "table.filter_ms": self_ms("table.filter"),
        "missingness.ipw.fit_ms": self_ms("missingness.ipw.fit"),
        "missingness.ipw.fit_hit_ratio": _ratio(
            counters.get("ipw_fit_hit", 0), fits_seen),
        "missingness.logistic.fit_calls": len(fits) / n_ops,
        "missingness.logistic.newton_iters": sum(
            span.tags.get("newton_iters", 0) for span in fits) / n_ops,
        "missingness.logistic.design_mib": sum(
            span.tags.get("design_bytes", 0) for span in fits) / MIB / n_ops,
        "missingness.recoverability.test_ms":
            self_ms("missingness.recoverability.test"),
        "infotheory.permutation.test_ms":
            self_ms("infotheory.permutation.test"),
        "infotheory.permutation.early_exits":
            counters.get("perm_early_exit", 0) / n_ops,
        "infotheory.permutation.perm_saved":
            counters.get("perm_saved", 0) / n_ops,
        "core.problem.score_ms": self_ms("core.problem.score"),
        "core.pruning.online_ms": self_ms("core.pruning.online"),
        "core.mcimr.speculation_hit_ratio": _ratio(
            counters.get("speculation_hit", 0), speculated),
        "storage.envelopes.get_ms.p50": p50("storage.envelopes.get", 1e3),
        "storage.envelopes.put_ms.p50": p50("storage.envelopes.put", 1e3),
        "storage.metastore.writes_committed":
            counters.get("metastore.writes_committed", 0) / n_ops,
        "distributed.coordinator.rpc_calls_per_op": len(rpc) / n_ops,
        "distributed.coordinator.rpc_ms_per_op":
            1000.0 * sum(span.self_time for span in rpc) / n_ops,
        "distributed.coordinator.irls_ms":
            self_ms("distributed.coordinator.irls"),
        "distributed.coordinator.perm_rounds_ms":
            self_ms("distributed.coordinator.perm_rounds"),
        "shm.segments": float(frame_store.get("segments", 0)),
        "shm.segment_mib": float(frame_store.get("bytes", 0)) / MIB,
        "obs.spans_per_op": counters.get("tracing.spans_recorded", 0) / n_ops,
        "obs.uncovered_share": uncovered_share,
        "proc.cpu_util": cpu_s / wall,
    }
    return metrics, table(names, shares, n_ops, op_time, tail_pct)


def table(names, shares, n_ops: int, op_time: float,
          tail_pct: float) -> List[str]:
    """One line per layer: calls/op, p50, tail, self ms/op, share of latency.

    The self time of the ``serving.service.*`` roots is the server time no
    wrapped layer covers.
    """
    lines = [f"{'layer':38s} {'calls/op':>9s} {'p50 ms':>9s} "
             f"{'p' + format(tail_pct, 'g') + ' ms':>9s} "
             f"{'self ms/op':>11s} {'share':>7s}"]
    rows = []
    wire = shares["wire"]
    rows.append(("serving.http.wire", len(wire) / n_ops,
                 percentile(wire, 50), percentile(wire, tail_pct),
                 sum(wire) / n_ops, sum(wire) / op_time))
    for name, spans in names.items():
        durations = [span.duration for span in spans]
        total_self = sum(span.self_time for span in spans)
        rows.append((name, len(spans) / n_ops, percentile(durations, 50),
                     percentile(durations, tail_pct), total_self / n_ops,
                     total_self / op_time))
    for name, calls, median, tail, self_time, share in sorted(
            rows, key=lambda row: -row[4]):
        lines.append(f"{name:38s} {calls:9.2f} {1000 * median:9.3f} "
                     f"{1000 * tail:9.3f} {1000 * self_time:11.3f} "
                     f"{100 * share:6.1f}%")
    return lines

