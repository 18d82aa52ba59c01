"""Percentiles and the work counters read from ``GET /stats``."""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

#: Engine counters kept per dataset context (reset when an append
#: replaces the context's pipeline).
CONTEXT_COUNTERS = ("ipw_fit_hit", "ipw_fit_miss", "perm_early_exit",
                    "perm_saved", "speculation_hit", "speculation_waste",
                    "frame_cache_hits", "frame_cache_misses",
                    "extraction_runs", "offline_pruning_runs")

#: Counters that depend only on code and seed over a counted prefix.
#: ``metastore.writes_committed`` is left out: the write-behind thread
#: commits on its own schedule.
DETERMINISTIC = CONTEXT_COUNTERS + (
    "batches_executed", "cache.hits", "cache.misses", "envelope_store.writes")


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``0.0`` for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def context_counters(stats: Mapping) -> Dict[str, float]:
    """Per-context engine counters and batch counts, summed over datasets."""
    out = {name: 0.0 for name in CONTEXT_COUNTERS}
    for context in (stats.get("contexts") or {}).values():
        counters = context.get("counters") or {}
        for name in CONTEXT_COUNTERS:
            out[name] += counters.get(name, 0)
    out["batches_executed"] = float(sum(
        batcher.get("batches_executed", 0)
        for batcher in (stats.get("batchers") or {}).values()))
    return out


def service_counters(stats: Mapping) -> Dict[str, float]:
    """Process-lifetime counters: caches, tracing, durable store."""
    cache = stats.get("cache") or {}
    store = stats.get("envelope_store") or {}
    meta = store.get("meta") or {}
    return {
        "cache.hits": float(cache.get("hits", 0)),
        "cache.misses": float(cache.get("misses", 0)),
        "tracing.spans_recorded": float(
            (stats.get("tracing") or {}).get("spans_recorded", 0)),
        "envelope_store.writes": float(store.get("writes", 0)),
        "metastore.writes_committed": float(meta.get("writes_committed", 0)),
    }


def delta(after: Mapping[str, float],
          before: Mapping[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0.0) for name in after}


def phase_counters(before: Mapping, after: Mapping,
                   rounds: Sequence[Mapping] = ()) -> Dict[str, float]:
    """Counter deltas over a phase.

    With ``rounds`` (update), each round ran on a fresh context created by
    its append, so the context counters are the sum of every round's
    end-of-round values rather than a difference.
    """
    counters = delta(service_counters(after), service_counters(before))
    if rounds:
        for snapshot in rounds:
            for name, value in context_counters(snapshot).items():
                counters[name] = counters.get(name, 0.0) + value
    else:
        counters.update(delta(context_counters(after),
                              context_counters(before)))
    return counters
