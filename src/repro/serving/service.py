"""The :class:`ExplanationService` — a long-lived, cache-warm serving tier.

The engine answers one query well; a service answers *millions*.  The
service wraps one warm :class:`~repro.engine.context.PipelineContext` per
registered dataset and layers the serving concerns on top:

* an **explanation cache** — a bounded LRU (optional TTL) keyed by the
  canonical query key ``(dataset, exposure, outcome, aggregate, canonical
  context, k)``; a hit returns the *same*
  :class:`~repro.engine.envelope.ExplanationEnvelope` object, so repeated
  requests serialize byte-identically;
* **request coalescing** — cache misses are funnelled through one
  :class:`~repro.serving.batcher.MicroBatcher` per dataset, which collects
  concurrent requests into single ``explain_many_envelopes`` calls and
  deduplicates identical in-flight queries down to one execution;
* **single-writer concurrency** — the batcher's worker thread is the only
  thread driving a dataset's pipeline, so any number of HTTP threads can
  submit concurrently without racing the engine's per-query memos (a
  batch runs its queries serially; the ``pool`` below is how the service
  computes on more than one core);
* a **negative cache** — client-input failures (``QueryError`` /
  ``ExplanationError``: malformed contexts, zero-row contexts) are cached
  under the same canonical key, so hostile or buggy clients repeating an
  expensive-to-diagnose bad query never reach the engine again
  (``service.negative_hit`` counts the shield);
* **observability** — cache hit/miss counters fold into the pipeline
  context's counters (``service.cache_hit`` / ``service.cache_miss`` next
  to ``extraction_runs`` and friends) and :meth:`stats` snapshots
  everything for the ``GET /stats`` endpoint.

The service is the one front tier of every topology, and its ``pool``
argument picks the data plane.  By default its pipelines run in this
process.  Over a :class:`~repro.distributed.coordinator.ShardPool` they
count through row-shard workers, for tables no single process should
hold.  Over a :class:`~repro.distributed.replicas.ReplicaPool` every miss
runs on the engine replica its canonical key routes to, one batcher per
replica, so N processes compute while this one keeps the caches, history,
jobs, health and metrics for all of them.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.distributed.coordinator import ShardPool
from repro.distributed.replicas import (
    DatasetSpec,
    ReplicaPool,
    fold_context,
    merge_rows,
)
from repro.engine.config import MESAConfig
from repro.engine.envelope import ExplanationEnvelope
from repro.engine.pipeline import ExplanationPipeline
from repro.engine.stages import default_stages
from repro.exceptions import (
    ConfigurationError,
    DatasetNotRegisteredError,
    ExplanationError,
    QueryError,
    RequestValidationError,
)
from repro.obs import trace
from repro.obs.logs import log_slow_query
from repro.obs.metrics import MetricsRegistry, process_maxrss_kb
from repro.query.aggregate_query import AggregateQuery
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import TTLCache
from repro.serving.schema import ExplainRequest, query_payload
from repro.storage import DurableEnvelopeStore, MetaStore
from repro.table.expressions import canonical_predicate_key
from repro.table.table import Table

#: Flush a coalesced batch early once this many distinct requests pend.
MAX_BATCH = 64
#: Bound on the negative cache of client-input error verdicts (shares the
#: service TTL).
NEGATIVE_CACHE_SIZE = 256
#: Distinct historical queries remembered per dataset for the
#: :meth:`ExplanationService.warm` replay of top-K traffic.
HISTORY_SIZE = 256


@dataclass(frozen=True)
class ServedExplanation:
    """One served result: the envelope plus how it was produced."""

    dataset: str
    envelope: ExplanationEnvelope
    cache_hit: bool
    #: True when this request attached to an identical in-flight request
    #: instead of executing on its own.
    coalesced: bool = False
    #: The id of the request trace this explanation was served under
    #: (``None`` when request tracing is off) — resolvable via the
    #: service tracer / ``GET /trace/<id>``.
    trace_id: Optional[str] = None


class ExplanationService:
    """Serve explanations for registered datasets from warm caches.

    Pipelines built by :meth:`register_dataset` / :meth:`register_bundle`
    get two serving-path defaults the engine leaves off.  The sequential
    permutation early exit: an audit of the p-value consumers
    (recoverability and the responsibility stopping criterion read only
    the boolean ``independent`` verdict, which the exit provably never
    flips; nothing gates on p-value resolution) makes it safe for served
    traffic, while offline analyses may care about exact permutation
    counts.  And the pipelined MCIMR search (:mod:`repro.core.speculate`):
    round ``i + 1``'s candidate scoring overlaps round ``i``'s
    responsibility test on a speculation thread, bit-identical to the
    sequential schedule; ``/stats`` surfaces ``speculation_hit`` /
    ``speculation_waste``.  Pre-built pipelines handed to :meth:`register`
    are never rewritten.  Adaptive permutation budgets
    (``max_responsibility_permutations``) stay caller-opt-in — they can
    revise statistically uncertain verdicts, a policy decision the
    service does not make silently.

    Parameters
    ----------
    cache_size:
        Bound on the explanation cache (entries are envelopes; LRU beyond).
    ttl_seconds:
        Optional expiry of cached explanations; ``None`` caches forever
        (the synthetic datasets are immutable — a mutable deployment should
        set a TTL matched to its ingest cadence).
    coalesce_window_seconds:
        How long the per-dataset batcher waits for concurrent requests to
        coalesce before flushing a batch.  ``0`` disables the wait but
        still batches requests that arrive while a batch is executing.
    clock:
        Monotonic time source shared by the cache and batchers
        (injectable for TTL/window tests).
    tracer:
        The bounded trace store requests record into; defaults to a fresh
        :class:`repro.obs.trace.Tracer`.  A topology owner (the HTTP
        server) may inject a shared one.
    metrics:
        The :class:`repro.obs.metrics.MetricsRegistry` request latency
        histograms land in; snapshots ride :meth:`stats` under
        ``"metrics"``.
    trace_requests:
        When True (default) every :meth:`explain` / :meth:`explain_batch`
        arriving *without* an active trace starts one of its own, so
        direct service callers get per-request trees too.  Requests that
        already carry a trace (the HTTP layer, a traced worker frame)
        always join it regardless of this flag.
    slow_query_seconds:
        Latency threshold of the slow-query log (structured JSON lines on
        the ``repro.serving.slowlog`` logger, carrying the trace id).
        ``None`` or ``<= 0`` disables it.
    store:
        Durable storage: a :class:`~repro.storage.MetaStore`, a filesystem
        path (a store is opened and owned by this service), or ``None``
        (no durability — the pre-existing behaviour).  With a store, the
        in-memory envelope cache is backed by the disk-resident
        :class:`~repro.storage.DurableEnvelopeStore` (miss -> disk ->
        engine; writes are async write-behind), query history is recorded
        durably so a *restarted* service re-warms its top-K traffic from
        disk instead of recomputing, and dataset versions persist so the
        restarted process mints cache keys matching what it stored.
    pool:
        The data plane; ``None`` (default) runs every pipeline here.  The
        service starts the pool, reports it in :meth:`stats` and
        :meth:`health` (``degraded`` while a worker is down) and closes it
        on :meth:`close`.  A :class:`~repro.distributed.coordinator.
        ShardPool` (row shards, for tables no single process should hold)
        is attached to every pipeline before it is served, and its shard
        contexts are freed on every invalidation.  A
        :class:`~repro.distributed.replicas.ReplicaPool` (engine replicas,
        for throughput past one process) gets every registered dataset
        (custom stages cannot be replicated) and runs each cache miss on
        the replica its version-free canonical key routes to; invalidation
        bumps the replicas, appends update them, :meth:`warm` publishes
        hot frames for them and :meth:`stats` folds their engine counters
        into ``contexts``.
    """

    def __init__(self, cache_size: int = 1024,
                 ttl_seconds: Optional[float] = None,
                 coalesce_window_seconds: float = 0.005,
                 clock: Callable[[], float] = time.monotonic,
                 tracer: Optional[trace.Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 trace_requests: bool = True,
                 slow_query_seconds: Optional[float] = 1.0,
                 store: Optional[Union[MetaStore, str, Path]] = None,
                 pool: Optional[Union[ShardPool, ReplicaPool]] = None):
        self._clock = clock
        self.tracer = tracer if tracer is not None else trace.Tracer(
            tier="service")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace_requests = trace_requests
        self.slow_query_seconds = slow_query_seconds
        self._cache = TTLCache(max_entries=cache_size, ttl_seconds=ttl_seconds,
                               clock=clock)
        self._negative = TTLCache(max_entries=NEGATIVE_CACHE_SIZE,
                                  ttl_seconds=ttl_seconds, clock=clock)
        self.coalesce_window_seconds = coalesce_window_seconds
        self.pool = pool
        self._pipelines: Dict[str, ExplanationPipeline] = {}
        #: Per dataset: one batcher per replica, or a single one.
        self._batchers: Dict[str, List[MicroBatcher]] = {}
        #: Per-dataset request history: canonical key -> [query, k, hits],
        #: most recent last (bounded LRU), feeding the top-K cache warmer.
        self._history: Dict[str, "OrderedDict[Tuple, List]"] = {}
        self._lock = threading.Lock()
        #: Names being registered: taken under the lock before a replica
        #: pool hears of them, so a name reaches the pool at most once.
        self._registering: set = set()
        self._started_at = clock()
        self._closed = False
        #: The most recently started background warmer thread (join in tests).
        self.last_warmer: Optional[threading.Thread] = None
        self._owns_meta = False
        self._meta: Optional[MetaStore] = None
        self._envelopes: Optional[DurableEnvelopeStore] = None
        if store is not None:
            if isinstance(store, MetaStore):
                self._meta = store
            else:
                self._meta = MetaStore(store)
                self._owns_meta = True
            self._envelopes = DurableEnvelopeStore(self._meta)
        #: The attached :class:`~repro.jobs.JobManager` (see
        #: :meth:`enable_jobs`); ``None`` until enabled.
        self.jobs = None
        if pool is not None:
            pool.start()

    @property
    def meta(self) -> Optional[MetaStore]:
        """The backing metastore (``None`` without durability)."""
        return self._meta

    @property
    def envelope_store(self) -> Optional[DurableEnvelopeStore]:
        """The durable envelope store (``None`` without durability)."""
        return self._envelopes

    def enable_jobs(self, resume: bool = True):
        """Attach a :class:`~repro.jobs.JobManager` running against this
        service; requires a durable store.  Idempotent."""
        if self.jobs is not None:
            return self.jobs
        if self._meta is None:
            raise ConfigurationError(
                "jobs require a durable store: construct the service with "
                "store=<path> (or pass --store to python -m repro.serving)")
        from repro.jobs import JobManager  # deferred: avoids an import cycle
        self.jobs = JobManager(self._meta, self, tracer=self.tracer,
                               resume=resume)
        return self.jobs

    # ------------------------------------------------------------------ #
    # dataset registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, pipeline: ExplanationPipeline,
                 warm: bool = True) -> ExplanationPipeline:
        """Register a pipeline to serve ``name``.

        With ``warm=True`` (default) the cross-query artefacts — the
        augmented table and the offline-pruning verdicts — are built
        immediately (on every replica, over a replica pool), so the first
        request pays only the per-query cost.  A name already registered,
        or being registered by another thread, raises
        :class:`ConfigurationError`.
        """
        if not name:
            raise ConfigurationError("dataset name must be a non-empty string")
        with self._lock:
            if self._closed:
                raise ConfigurationError("ExplanationService is closed")
            if name in self._pipelines or name in self._registering:
                raise ConfigurationError(
                    f"dataset {name!r} is already registered")
            self._registering.add(name)
        try:
            if isinstance(self.pool, ReplicaPool):
                # Every replica holds the dataset before the front serves it.
                self.pool.register(_replica_spec(name, pipeline, warm))
            with self._lock:
                if self._closed:
                    raise ConfigurationError("ExplanationService is closed")
                if isinstance(self.pool, ShardPool):
                    # Attach before the pipeline becomes visible, so no
                    # request can run on the local counts source.
                    pipeline.context.shard_pool = self.pool
                    pipeline.context.shard_label = name
                self._pipelines[name] = pipeline
                self._history.setdefault(name, OrderedDict())
                self._batchers[name] = self._new_batchers(name, pipeline)
        finally:
            with self._lock:
                self._registering.discard(name)
        # Re-registration of a context that served before (its version
        # moved past the initial 0) bumps the version, so canonical keys
        # minted against the earlier registration can never answer
        # requests for this one.  A first-time registration keeps version
        # 0 — bumping would needlessly invalidate the frame cache of a
        # caller-warmed pipeline.
        if pipeline.context.dataset_version > 0:
            pipeline.context.bump_dataset_version()
        if self._meta is not None:
            # Restore the durably recorded version: a restarted process
            # must mint the same cache keys it stored envelopes under, or
            # every disk lookup would miss.  The fresh context has no
            # version-keyed artefacts yet, so fast-forwarding is safe.
            stored_version = self._meta.dataset_version(name)
            if stored_version is not None \
                    and stored_version > pipeline.context.dataset_version:
                pipeline.context.dataset_version = stored_version
            self._meta.record_dataset_version(
                name, pipeline.context.dataset_version)
        if warm:
            self.warm(name)
        return pipeline

    def register_dataset(self, name: str, table, knowledge_graph=None,
                         extraction_specs: Sequence = (),
                         config: Optional[MESAConfig] = None,
                         warm: bool = True) -> ExplanationPipeline:
        """Build and register a pipeline from dataset parts.

        The pipeline configuration gets the serving-path defaults applied:
        ``permutation_early_exit`` and ``speculative_search`` are switched
        on (see the class docstring).  A caller who wants the engine
        defaults registers a pre-built pipeline with :meth:`register`,
        which never rewrites its configuration.
        """
        config = (config or MESAConfig()).with_overrides(
            permutation_early_exit=True, speculative_search=True)
        pipeline = ExplanationPipeline(table, knowledge_graph, extraction_specs,
                                       config=config)
        return self.register(name, pipeline, warm=warm)

    def register_bundle(self, bundle, config: Optional[MESAConfig] = None,
                        warm: bool = True) -> ExplanationPipeline:
        """Register a :class:`~repro.datasets.registry.DatasetBundle`.

        The bundle's identifier columns are excluded from the candidate set
        unless the caller's config already decides that.
        """
        if config is None:
            config = MESAConfig(excluded_columns=tuple(bundle.id_columns))
        return self.register_dataset(
            bundle.name, bundle.table, bundle.knowledge_graph,
            bundle.extraction_specs, config=config, warm=warm)

    def warm(self, name: str, queries: Optional[Sequence] = None,
             top: int = 8, background: bool = False,
             k: Optional[int] = None) -> int:
        """Build the dataset's cross-query artefacts and replay hot queries.

        The artefact half (:meth:`ExplanationPipeline.warm`: augmented
        table, offline-pruning verdicts) is idempotent and runs
        synchronously; over a replica pool the replicas built theirs at
        registration, so it is skipped here.  The *replay* half then
        pushes explanations back into the result caches: ``queries`` names
        them explicitly, or — with ``queries=None`` — the ``top`` most
        requested queries from the dataset's recorded history are replayed
        (the cold-start cure after :meth:`clear_cache` or a restart).
        Over a replica pool with a frame store, the replay set's context
        frames are first encoded once and published for every replica to
        adopt.  Each replay is an ordinary :meth:`explain`, so every cache
        layer (frame, fit, envelope) warms exactly as live traffic would;
        replay failures are swallowed — warming is best-effort.

        With ``background=True`` the replay runs on a daemon thread (the
        thread object is stored on ``self.last_warmer`` for tests to join)
        and the method returns the number of queries *scheduled*; otherwise
        it returns the number successfully replayed.
        """
        pipeline = self.pipeline(name)
        replicas = isinstance(self.pool, ReplicaPool)
        if not replicas:
            pipeline.warm()
        if queries is not None:
            replay: List[Tuple] = [(query, k) for query in queries]
        else:
            replay = self.top_queries(name, top)
        if not replay:
            return 0

        def run_replay() -> int:
            if replicas:
                self.pool.publish_frames(
                    name, [query for query, _replay_k in replay])
            warmed = 0
            for query, replay_k in replay:
                try:
                    self.explain(name, query, k=replay_k)
                    warmed += 1
                except Exception:
                    continue
            pipeline.context.count("service.warmed_queries", warmed)
            return warmed

        if background:
            thread = threading.Thread(target=run_replay,
                                      name=f"repro-serving-warmer-{name}",
                                      daemon=True)
            self.last_warmer = thread
            thread.start()
            return len(replay)
        return run_replay()

    def top_queries(self, name: str, top: int) -> List[Tuple]:
        """The ``top`` most requested ``(query, k)`` pairs of a dataset.

        In-memory history first; when it holds fewer than ``top`` entries
        (freshly restarted process) the durably recorded history fills
        the remainder — the mechanism behind restart re-warm: a new
        process replays queries its predecessor recorded, and each replay
        hits the durable envelope store instead of the engine.
        """
        with self._lock:
            history = list(self._history.get(name, {}).values())
        history.sort(key=lambda entry: entry[2], reverse=True)
        replay = [(query, k) for query, k, _hits in history[:max(0, top)]]
        if self._envelopes is not None and len(replay) < max(0, top):
            seen = {self._history_identity(query, k) for query, k in replay}
            for payload, k, _hits in self._envelopes.top_queries(name, top):
                try:
                    parsed = ExplainRequest.from_dict(payload)
                except Exception:
                    continue
                identity = self._history_identity(parsed.query, k)
                if identity in seen:
                    continue
                seen.add(identity)
                replay.append((parsed.query, k))
                if len(replay) >= top:
                    break
        return replay

    @staticmethod
    def _history_identity(query: AggregateQuery, k: Optional[int]) -> Tuple:
        """Version-free identity used to merge durable + live history."""
        return (query.exposure, query.outcome, query.aggregate.lower(),
                canonical_predicate_key(query.context), query.name,
                query.table_name, k)

    def _record_history(self, name: str, key: Tuple, query: AggregateQuery,
                        k: Optional[int]) -> None:
        with self._lock:
            history = self._history.get(name)
            if history is None:
                return
            entry = history.get(key)
            if entry is None:
                history[key] = [query, k, 1]
            else:
                entry[2] += 1
                history.move_to_end(key)
            while len(history) > HISTORY_SIZE:
                history.popitem(last=False)
        if self._envelopes is not None:
            # Durable history is keyed without the version component
            # (``key`` already is): it must survive version bumps, or the
            # re-warm after an append would find nothing to replay.
            # Best-effort: a predicate the wire format cannot express
            # (OR, nested NOT) is servable but not durably recordable —
            # never let bookkeeping fail the request.
            try:
                payload = query_payload(query, k=k)
            except RequestValidationError:
                return
            self._envelopes.record_query(name, key, payload, k)

    # ------------------------------------------------------------------ #
    # live dataset updates
    # ------------------------------------------------------------------ #
    def append_rows(self, name: str, rows: Sequence[Mapping],
                    rewarm: bool = True, top: int = 8) -> Dict[str, object]:
        """Append rows to a registered dataset, invalidating coherently.

        The appended table replaces the dataset's pipeline under a bumped
        dataset version, so every version-keyed cache — the envelope and
        negative caches, the encoded-frame cache — stops serving
        pre-append artefacts the moment the new version appears in freshly
        minted keys.  With ``rewarm`` (default) a background re-warm of the
        dataset's top-K recorded queries follows: as a durable job when a
        :class:`~repro.jobs.JobManager` is attached (see
        :meth:`enable_jobs`), otherwise on a daemon thread.

        Returns a summary dict (``dataset``, ``appended``, ``n_rows``,
        ``dataset_version``, ``rewarm_job``).
        """
        if not rows:
            raise QueryError("append_rows requires a non-empty list of "
                             "row mappings")
        rows = list(rows)
        merged = merge_rows(self.pipeline(name).context.table, rows)
        return self.replace_table(name, merged, rewarm=rewarm, top=top,
                                  appended_rows=rows)

    def replace_table(self, name: str, table: Table, rewarm: bool = True,
                      top: int = 8,
                      appended_rows: Optional[Sequence[Mapping]] = None,
                      ) -> Dict[str, object]:
        """Swap a dataset's table for a new one under a bumped version.

        The machinery behind :meth:`append_rows`, which passes the rows it
        appended as ``appended_rows`` (a replica pool then ships only those
        on its copy path).  The old pipeline's knowledge graph, extraction
        specs, config and shard-pool attachment carry over; its batchers
        are torn down and rebuilt because their runners bind the pipeline.
        Replicas switch tables before the new version becomes visible, so
        no key of the new version can be computed over the old rows.
        """
        old = self.pipeline(name)
        if isinstance(self.pool, ReplicaPool):
            self.pool.update(name, table, rows=appended_rows)
        version = old.context.dataset_version + 1
        pipeline = ExplanationPipeline(table, old.context.knowledge_graph,
                                       old.context.extraction_specs,
                                       config=old.config)
        pipeline.context.dataset_version = version
        # The new context keeps feeding the shard pool (if any); the
        # version bump makes it register fresh shard contexts.
        pipeline.context.shard_pool = old.context.shard_pool
        pipeline.context.shard_label = old.context.shard_label
        with self._lock:
            if self._closed:
                raise ConfigurationError("ExplanationService is closed")
            self._pipelines[name] = pipeline
            old_batchers = self._batchers.get(name, [])
            self._batchers[name] = self._new_batchers(name, pipeline)
        for old_batcher in old_batchers:
            old_batcher.close()
        if isinstance(self.pool, ShardPool):
            # Free the old version's shard contexts now, not at eviction.
            self.pool.drop_all_contexts()
        pipeline.context.count("service.dataset_updates")
        if self._meta is not None:
            self._meta.record_dataset_version(name, version)
        rewarm_job = None
        if rewarm:
            if self.jobs is not None:
                rewarm_job = self.jobs.submit(name, kind="warm", top=top)
            else:
                self.warm(name, top=top, background=True)
        return {"dataset": name, "appended": len(appended_rows or ()),
                "n_rows": table.n_rows, "dataset_version": version,
                "rewarm_job": rewarm_job}

    def datasets(self) -> List[str]:
        """Names of the registered datasets, sorted."""
        with self._lock:
            return sorted(self._pipelines)

    def pipeline(self, name: str) -> ExplanationPipeline:
        """The pipeline serving ``name``; raises for unknown datasets."""
        with self._lock:
            pipeline = self._pipelines.get(name)
        if pipeline is None:
            raise DatasetNotRegisteredError(
                f"dataset {name!r} is not registered; "
                f"available: {self.datasets()}")
        return pipeline

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    @staticmethod
    def query_key(dataset: str, query: AggregateQuery, k: int,
                  version: int = 0) -> Tuple:
        """The canonical cache key of a request.

        Two requests that ask the same question — same dataset, exposure,
        outcome, aggregate, ``k`` and a context equal up to clause order —
        share a key, and therefore share a cache entry and an in-flight
        execution.  The client-visible labels (``name``, ``table_name``)
        are part of the key because they are echoed back inside the
        envelope's query descriptor: a client using ``name`` as a
        correlation id must never receive another request's id.

        ``version`` is the dataset version (see
        :meth:`~repro.engine.context.PipelineContext.bump_dataset_version`):
        bumping it on registration or invalidation retires every cached
        envelope and error verdict for the dataset at once — in this
        process and, because the version travels inside the key rather
        than in any one cache's state, in every process serving it.
        """
        return (dataset, query.exposure, query.outcome,
                query.aggregate.lower(), canonical_predicate_key(query.context),
                query.name, query.table_name, k, version)

    def _live_key(self, dataset: str, pipeline: ExplanationPipeline,
                  query: AggregateQuery, k: int) -> Tuple:
        """The canonical key at the dataset's *current* version."""
        return self.query_key(dataset, query, k,
                              pipeline.context.dataset_version)

    def _raise_cached_error(self, pipeline: ExplanationPipeline, error) -> None:
        """Re-raise a negative-cache verdict as a fresh exception."""
        pipeline.context.count("service.negative_hit")
        trace.annotate(negative_hit=True)
        raise type(error)(*error.args)

    def _cache_negative(self, key, error) -> None:
        """Record a client-input failure under the canonical query key.

        Only deterministic client-input verdicts are cached — the query
        itself is bad (zero-row context, candidate misuse), so repeating it
        can never succeed and must not re-run the engine.  Transient engine
        failures keep raising normally.
        """
        if isinstance(error, (QueryError, ExplanationError)):
            self._negative.put(key, error)

    def explain(self, dataset: str, query: AggregateQuery,
                k: Optional[int] = None) -> ServedExplanation:
        """Serve one explanation (cache -> negative cache -> batch -> engine)."""
        started = time.perf_counter()
        request, trace_id = self._join_or_begin_trace("service.request",
                                                      dataset)
        outcome = "error"
        try:
            with trace.span("service.explain", dataset=dataset) as span:
                served = self._explain_inner(dataset, query, k)
                span.set_tag("cache_hit", served.cache_hit)
            outcome = "hit" if served.cache_hit else "miss"
            if trace_id is not None and served.trace_id is None:
                served = ServedExplanation(
                    dataset=served.dataset, envelope=served.envelope,
                    cache_hit=served.cache_hit, coalesced=served.coalesced,
                    trace_id=trace_id)
            return served
        finally:
            if request is not None:
                request.finish()
            self._observe_request("explain", dataset, outcome,
                                  time.perf_counter() - started, trace_id)

    def _join_or_begin_trace(self, name: str, dataset: str):
        """Start a request trace when none is active (and tracing is on)."""
        trace_id = trace.current_trace_id()
        if trace_id is not None:
            return None, trace_id
        if not self.trace_requests:
            return None, None
        request = trace.begin_request(self.tracer, name, dataset=dataset)
        return request, request.trace_id

    def _observe_request(self, endpoint: str, dataset: str, outcome: str,
                         seconds: float, trace_id: Optional[str],
                         queries: int = 1) -> None:
        self.metrics.histogram("repro_request_seconds",
                               {"dataset": dataset,
                                "endpoint": endpoint}).observe(seconds)
        self.metrics.counter("repro_requests_total",
                             {"dataset": dataset, "endpoint": endpoint,
                              "outcome": outcome}).inc()
        log_slow_query(seconds, self.slow_query_seconds, endpoint=endpoint,
                       dataset=dataset, trace_id=trace_id,
                       queries=queries if queries != 1 else None)

    def _explain_inner(self, dataset: str, query: AggregateQuery,
                       k: Optional[int] = None) -> ServedExplanation:
        pipeline = self.pipeline(dataset)
        resolved_k = k if k is not None else pipeline.config.k
        key = self._live_key(dataset, pipeline, query, resolved_k)
        self._record_history(dataset, key[:-1], query, k)
        with trace.span("cache.lookup", cache="envelope") as span:
            envelope = self._cache.get(key)
            span.set_tag("hit", envelope is not None)
        if envelope is not None:
            pipeline.context.count("service.cache_hit")
            return ServedExplanation(dataset=dataset, envelope=envelope,
                                     cache_hit=True)
        with trace.span("cache.lookup", cache="negative") as span:
            cached_error = self._negative.get(key)
            span.set_tag("hit", cached_error is not None)
        if cached_error is not None:
            self._raise_cached_error(pipeline, cached_error)
        stored = self._store_lookup(dataset, pipeline, key)
        if stored is not None:
            return ServedExplanation(dataset=dataset, envelope=stored,
                                     cache_hit=True)
        pipeline.context.count("service.cache_miss")
        future, attached = self._batcher(dataset, key).submit(
            key, query, resolved_k)
        try:
            envelope = future.result()
        except Exception as error:
            self._cache_negative(key, error)
            raise
        self._cache.put(key, envelope)
        self._store_put(dataset, key, envelope)
        return ServedExplanation(dataset=dataset, envelope=envelope,
                                 cache_hit=False, coalesced=attached)

    def _store_lookup(self, dataset: str, pipeline: ExplanationPipeline,
                      key: Tuple) -> Optional[ExplanationEnvelope]:
        """Durable-store fall-through on an in-memory miss.

        A hit is promoted into the in-memory cache (so the disk is read
        once per key per process) and served as a cache hit — from the
        client's perspective the answer came from cache, just a colder
        tier.
        """
        if self._envelopes is None:
            return None
        with trace.span("cache.lookup", cache="durable") as span:
            envelope = self._envelopes.get(dataset, key[-1], key)
            span.set_tag("hit", envelope is not None)
        if envelope is None:
            return None
        self._cache.put(key, envelope)
        pipeline.context.count("service.store_hit")
        return envelope

    def _store_put(self, dataset: str, key: Tuple,
                   envelope: ExplanationEnvelope) -> None:
        """Write-behind persist of a freshly computed envelope."""
        if self._envelopes is not None:
            self._envelopes.put(dataset, key[-1], key, envelope)

    def explain_batch(self, dataset: str, queries: Sequence[AggregateQuery],
                      k: Optional[int] = None) -> List[ServedExplanation]:
        """Serve a batch: answer hits from the cache, coalesce the misses.

        Every miss is submitted to the dataset's batcher in one go, so the
        whole miss set (deduplicated against itself *and* against other
        clients' in-flight requests) executes as a single engine batch.
        """
        started = time.perf_counter()
        request, trace_id = self._join_or_begin_trace("service.request",
                                                      dataset)
        outcome = "error"
        try:
            with trace.span("service.explain_batch", dataset=dataset,
                            queries=len(queries)):
                served = self._explain_batch_inner(dataset, queries, k)
            outcome = "ok"
            if trace_id is not None:
                served = [ServedExplanation(
                    dataset=one.dataset, envelope=one.envelope,
                    cache_hit=one.cache_hit, coalesced=one.coalesced,
                    trace_id=trace_id) for one in served]
            return served
        finally:
            if request is not None:
                request.finish()
            self._observe_request("explain_batch", dataset, outcome,
                                  time.perf_counter() - started, trace_id,
                                  queries=len(queries))

    def _explain_batch_inner(self, dataset: str,
                             queries: Sequence[AggregateQuery],
                             k: Optional[int] = None,
                             ) -> List[ServedExplanation]:
        pipeline = self.pipeline(dataset)
        resolved_k = k if k is not None else pipeline.config.k
        served: List[Optional[ServedExplanation]] = [None] * len(queries)
        misses: List[Tuple[int, AggregateQuery, Hashable]] = []
        hits = 0
        for index, query in enumerate(queries):
            key = self._live_key(dataset, pipeline, query, resolved_k)
            self._record_history(dataset, key[:-1], query, k)
            envelope = self._cache.get(key)
            if envelope is not None:
                hits += 1
                served[index] = ServedExplanation(
                    dataset=dataset, envelope=envelope, cache_hit=True)
            else:
                cached_error = self._negative.get(key)
                if cached_error is not None:
                    if hits:
                        pipeline.context.count("service.cache_hit", hits)
                    self._raise_cached_error(pipeline, cached_error)
                stored = self._store_lookup(dataset, pipeline, key)
                if stored is not None:
                    hits += 1
                    served[index] = ServedExplanation(
                        dataset=dataset, envelope=stored, cache_hit=True)
                else:
                    misses.append((index, query, key))
        if hits:
            pipeline.context.count("service.cache_hit", hits)
        if misses:
            pipeline.context.count("service.cache_miss", len(misses))
            futures = [(index, key,
                        self._batcher(dataset, key).submit(
                            key, query, resolved_k))
                       for index, query, key in misses]
            for index, key, (future, attached) in futures:
                try:
                    envelope = future.result()
                except Exception as error:
                    self._cache_negative(key, error)
                    raise
                self._cache.put(key, envelope)
                self._store_put(dataset, key, envelope)
                served[index] = ServedExplanation(
                    dataset=dataset, envelope=envelope, cache_hit=False,
                    coalesced=attached)
        return served  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # observability and lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """A JSON-safe snapshot of cache, batcher and engine counters.

        The shared explanation/negative caches additionally report their
        occupancy *per dataset* (the dataset is the first component of
        every canonical query key), and each dataset context reports its
        current version.  A dataset's ``batchers`` entry sums its
        per-replica batchers.  Over a pool, ``data_plane`` holds the pool
        counters, ``frame_store`` its shared-memory store and ``workers``
        one snapshot per worker; replicas' engine counters fold into
        ``contexts``.
        """
        with self._lock:
            pipelines = dict(self._pipelines)
            batchers = dict(self._batchers)
        pool = self.pool.stats() if self.pool is not None else None
        contexts = {}
        for name, pipeline in pipelines.items():
            counters, stage_seconds = pipeline.context.observability_snapshot()
            context = {"counters": counters, "stage_seconds": stage_seconds}
            if pool is not None and name in pool.get("contexts", {}):
                fold_context(context, pool["contexts"][name])
            context["stage_seconds"] = {
                stage: round(seconds, 6)
                for stage, seconds in context["stage_seconds"].items()}
            context["dataset_version"] = pipeline.context.dataset_version
            contexts[name] = context
        cache_stats = self._cache.stats()
        cache_stats["by_dataset"] = self._cache.sizes_by(lambda key: key[0])
        negative_stats = self._negative.stats()
        negative_stats["by_dataset"] = self._negative.sizes_by(lambda key: key[0])
        snapshot = {
            "uptime_seconds": self._clock() - self._started_at,
            "datasets": sorted(pipelines),
            "cache": cache_stats,
            "negative_cache": negative_stats,
            "batchers": {name: _sum_stats(batcher.stats()
                                          for batcher in dataset_batchers)
                         for name, dataset_batchers in batchers.items()},
            "contexts": contexts,
            "metrics": self.metrics.state(),
            "tracing": self.tracer.stats(),
            "memory": {"maxrss_kb": process_maxrss_kb()},
        }
        if self._envelopes is not None:
            snapshot["envelope_store"] = self._envelopes.stats()
        if self.jobs is not None:
            snapshot["jobs"] = self.jobs.stats()
        if pool is not None:
            # The data plane: pool counters and liveness, its shared-memory
            # store and one snapshot per worker (role, resident rows).
            snapshot["data_plane"] = pool["pool"]
            snapshot["frame_store"] = pool["pool"]["frame_store"]
            snapshot["workers"] = pool["workers"]
        return snapshot

    def health(self) -> Dict[str, object]:
        """Liveness verdict: up while open — degraded while a worker is down.

        Worker liveness uses the cheap non-blocking process check; a ping
        would queue behind an in-progress request and stall the probe.  A
        dead worker is respawned by the next request that reaches it.
        """
        with self._lock:
            closed = self._closed
            datasets = sorted(self._pipelines)
        health: Dict[str, object] = {"status": "down" if closed else "ok",
                                     "datasets": datasets}
        if self.pool is not None:
            liveness = self.pool.liveness()
            health.update(liveness)
            if not closed and \
                    liveness["workers_alive"] < liveness["n_workers"]:
                health["status"] = "degraded"
        return health

    def clear_cache(self) -> None:
        """Invalidate every cache layer for every dataset, coherently.

        Besides dropping the local envelope and error-verdict entries, each
        dataset's version is bumped — here and on every replica — so
        version-keyed caches *anywhere* (encoded-frame caches, stored
        envelopes) stop serving pre-invalidation artefacts.  Counters and
        recorded query history are kept: :meth:`warm` can replay the top-K
        history to refill.
        """
        with self._lock:
            pipelines = dict(self._pipelines)
        for name, pipeline in pipelines.items():
            pipeline.context.bump_dataset_version()
            if self._meta is not None:
                # Persist the bump (and prune superseded stored envelopes)
                # so a restart does not resurrect pre-invalidation state.
                self._meta.record_dataset_version(
                    name, pipeline.context.dataset_version)
        self._cache.clear()
        self._negative.clear()
        if isinstance(self.pool, ShardPool):
            # The bumps age the shard contexts out of the pool's LRU;
            # dropping them now frees worker memory immediately.
            self.pool.drop_all_contexts()
        elif isinstance(self.pool, ReplicaPool):
            self.pool.bump()

    def close(self) -> None:
        """Stop the batcher threads and the pool; the service stops serving.

        With durability attached this is the graceful-shutdown path: the
        job worker checkpoints an in-flight RUNNING job back to PENDING
        and the metastore flushes its write-behind queue, so a restart
        against the same store resumes instead of recomputing.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batchers = [batcher for dataset_batchers in self._batchers.values()
                        for batcher in dataset_batchers]
        if self.jobs is not None:
            self.jobs.close(checkpoint=True)
        for batcher in batchers:
            batcher.close()
        if self.pool is not None:
            self.pool.close()
        if self._meta is not None:
            self._meta.flush()
            if self._owns_meta:
                self._meta.close()

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _batcher(self, dataset: str, key: Tuple) -> MicroBatcher:
        """The batcher a miss of ``key`` goes to: its replica's, if any."""
        with self._lock:
            batchers = self._batchers.get(dataset)
        if batchers is None:  # pragma: no cover - register() keeps them paired
            raise DatasetNotRegisteredError(f"dataset {dataset!r} is not registered")
        if not isinstance(self.pool, ReplicaPool):
            return batchers[0]
        return batchers[self.pool.route(key[:-1])]

    def _new_batchers(self, name: str,
                      pipeline: ExplanationPipeline) -> List[MicroBatcher]:
        """One batcher per replica (a slow batch on one replica never holds
        back another's misses), or one running ``pipeline`` here."""
        if isinstance(self.pool, ReplicaPool):
            runners = [self._replica_runner(index, name)
                       for index in range(self.pool.n_workers)]
        else:
            runners = [self._runner_for(pipeline)]
        return [MicroBatcher(runner=runner,
                             window_seconds=self.coalesce_window_seconds,
                             max_batch=MAX_BATCH, clock=self._clock)
                for runner in runners]

    @staticmethod
    def _runner_for(pipeline: ExplanationPipeline):
        def run_batch(queries: Sequence[AggregateQuery],
                      k: Optional[int],
                      trace_captures: Optional[Sequence] = None,
                      ) -> Sequence[ExplanationEnvelope]:
            return pipeline.explain_many_envelopes(
                list(queries), k=k, trace_captures=trace_captures)
        return run_batch

    def _replica_runner(self, index: int, dataset: str):
        pool = self.pool

        def run_batch(queries: Sequence[AggregateQuery],
                      k: Optional[int],
                      trace_captures: Optional[Sequence] = None,
                      ) -> Sequence[ExplanationEnvelope]:
            # One round trip per trace: a round trip joins one trace (its
            # rpc span, and the replica's spans shipped back under it), so
            # traced requests coalesced into this batch keep their own
            # replica spans.  Untraced misses share one round trip.
            captures = trace_captures or [None] * len(queries)
            by_trace: Dict[Optional[str], List[int]] = {}
            for position, capture in enumerate(captures):
                by_trace.setdefault(capture and capture.trace_id,
                                    []).append(position)
            envelopes: List = [None] * len(queries)
            for positions in by_trace.values():
                with trace.activation(captures[positions[0]]):
                    served = pool.explain_many(
                        index, dataset,
                        [queries[position] for position in positions], k)
                for position, envelope in zip(positions, served):
                    envelopes[position] = envelope
            return envelopes
        return run_batch


def _replica_spec(name: str, pipeline: ExplanationPipeline,
                  warm: bool) -> DatasetSpec:
    """What every replica needs to rebuild ``pipeline``: its table, knowledge
    graph, extraction specs and effective config."""
    if [(type(stage), vars(stage)) for stage in pipeline.stages] != \
            [(type(stage), vars(stage)) for stage in default_stages()]:
        raise ConfigurationError(
            "a replica pool builds pipelines from the default stages; a "
            "pipeline with custom stages cannot be replicated")
    context = pipeline.context
    return DatasetSpec(name=name, table=context.table,
                       knowledge_graph=context.knowledge_graph,
                       extraction_specs=context.extraction_specs,
                       config=pipeline.config, warm=warm)


def _sum_stats(snapshots) -> Dict[str, int]:
    """Sum batcher stats snapshots field by field."""
    total: Dict[str, int] = {}
    for snapshot in snapshots:
        for field, value in snapshot.items():
            total[field] = total.get(field, 0) + value
    return total
