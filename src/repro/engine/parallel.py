"""Parallel batch execution for the explanation pipeline.

``ExplanationPipeline.explain_many`` (and ``explain_many_envelopes``, which
wraps its results) fans a batch of queries out over threads: each worker
drives its own pipeline over a *forked*
:class:`~repro.engine.context.PipelineContext` (same table and warmed
extraction/offline-pruning caches, private counters), so no mutable state
is shared between workers and full :class:`ExplanationResult` objects come
back directly.  The workers' cache counters, stage timings and new IPW
selection fits are merged back into the parent's :class:`PipelineContext`
after the batch, so the batch-API observability (``context.counters``)
keeps working.  The cross-query artefacts are built once, before the
workers fork off, by :meth:`~repro.engine.pipeline.ExplanationPipeline.warm`.
Process-level fan-out is the serving tier's: an
:class:`~repro.serving.service.ExplanationService` over a
:class:`~repro.distributed.replicas.ReplicaPool` of engine replicas.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.obs import trace


def resolve_n_jobs(n_jobs: Optional[int], default: int = 1) -> int:
    """Normalise an ``n_jobs`` request (``None`` -> default, ``-1`` -> CPUs)."""
    if n_jobs is None:
        n_jobs = default
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1 (or -1 for all CPUs), got {n_jobs}")
    return n_jobs


def _chunks(n_items: int, n_workers: int) -> List[List[int]]:
    """Contiguous, balanced index chunks (at most ``n_workers`` of them)."""
    n_workers = min(n_workers, n_items)
    base, remainder = divmod(n_items, n_workers)
    chunks: List[List[int]] = []
    start = 0
    for worker in range(n_workers):
        size = base + (1 if worker < remainder else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


def _worker_pipeline(parent_pipeline):
    """A private pipeline over a forked context (shared read-only caches)."""
    from repro.engine.pipeline import ExplanationPipeline

    return ExplanationPipeline(
        context=parent_pipeline.context.fork(),
        config=parent_pipeline.config.with_overrides(n_jobs=1),
        stages=parent_pipeline.stages,
    )


def _write_back_fits(parent_context, fit_entries) -> None:
    """Merge a worker's new selection fits into the parent's fit cache.

    Forked worker contexts copy the parent's IPW fit cache but fit new
    selection models privately; without this merge the parent would refit
    them for the next batch.  ``ipw_fit_writeback`` counts the fits that
    actually came home (duplicates across workers merge once).
    """
    if not fit_entries:
        return
    added = parent_context.ipw_fit_cache.merge_new_entries(fit_entries)
    if added:
        parent_context.count("ipw_fit_writeback", added)


def explain_many_threaded(pipeline, queries: Sequence, k: Optional[int],
                          n_jobs: int,
                          trace_captures: Optional[Sequence] = None) -> List:
    """Fan ``explain`` out over threads; returns full ExplanationResults.

    ``trace_captures`` (one per query, or ``None``) re-activates each
    query's originating trace on the worker thread that runs it, so
    coalesced traced requests keep their engine spans.
    """
    # Workers inherit the warmed extraction and offline-pruning caches, so
    # the paper's "across-queries" pre-processing runs once per batch
    # regardless of the worker count.
    pipeline.warm()
    results: List = [None] * len(queries)

    def run_chunk(indices: List[int]):
        worker = _worker_pipeline(pipeline)
        for index in indices:
            captured = trace_captures[index] if trace_captures else None
            with trace.activation(captured):
                results[index] = worker.explain(queries[index], k=k)
        return (dict(worker.context.counters),
                dict(worker.context.stage_seconds),
                worker.context.ipw_fit_cache.drain_new_entries())

    chunks = _chunks(len(queries), n_jobs)
    with ThreadPoolExecutor(max_workers=len(chunks)) as executor:
        futures = [executor.submit(run_chunk, chunk) for chunk in chunks]
        for future in futures:
            counters, stage_seconds, fit_entries = future.result()
            pipeline.context.merge_counters(counters, stage_seconds)
            _write_back_fits(pipeline.context, fit_entries)
    pipeline.context.count("parallel_batches")
    pipeline.context.count("parallel_workers", len(chunks))
    return results
