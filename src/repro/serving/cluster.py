"""Sharded multi-process serving: a cluster of explanation services.

One :class:`~repro.serving.service.ExplanationService` owns one process —
and therefore one GIL.  A :class:`ServiceCluster` scales past that by
spawning N worker processes, each running a full service (warm context,
explanation cache, negative cache, micro-batcher) over its own copy of the
registered datasets, and routing every request **by the stable hash of its
canonical query key** (:func:`~repro.table.expressions.stable_key_digest`;
the builtin ``hash`` is per-process salted and would scatter keys on every
restart).  Stable routing is what makes the shards *useful*: the key space
partitions deterministically, so each worker's explanation/frame/fit
caches stay hot for exactly its key range and the cluster's aggregate
cache capacity is N times one worker's — repeated traffic that would
thrash a single process's bounded LRUs stays resident.

The front tier stays thin — it owns no engine state:

* **in-flight dedup** — concurrent requests for one canonical key collapse
  to a single worker execution (the same shield the in-process
  micro-batcher provides, lifted above the process boundary);
* **stats merge** — per-worker ``stats()`` snapshots merge into one
  counter view (summed per dataset) with the per-worker breakdown kept;
* **health + restart** — a dead worker (crash, OOM-kill) is detected on
  its next request *or* health probe, respawned from the recorded dataset
  specs (the spawn-safe initializer pattern: the dataset pickles into the
  worker exactly once, at process start), the failed request is retried on
  the fresh worker, and the front tier's recorded top-K history for the
  worker's key range is replayed to re-warm its caches in the background;
* **coherent invalidation** — ``clear_cache()`` broadcasts to every
  worker, bumping each dataset's version so version-keyed caches in all
  processes retire their entries at once.

Workers communicate over :mod:`multiprocessing` pipes with a strict
request/response discipline (the parent serializes requests per worker);
results cross the boundary as compact envelope-JSON blobs.  How a worker
is started, replaced and stopped lives in :mod:`repro.distributed.ipc`,
shared with the row-shard pool.  The ``fork`` start method is used where
available (workers inherit the dataset specs copy-on-write and build their
own services); ``spawn`` is fully supported and exercised by the tests.

:class:`ClusterClient` adapts a cluster to the
:class:`~repro.serving.client.ExplanationClient` protocol, so the HTTP
front end (and any other consumer) serves a cluster with the same code
that serves one process.

A cluster splits the *query key space* across full replicas — N times
the cache capacity, each worker a complete copy of the data.  Splitting
the *rows* instead is not a cluster: it is one
:class:`~repro.serving.service.ExplanationService` constructed with a
``shard_pool`` (:class:`~repro.distributed.coordinator.ShardPool`), whose
N data-plane workers each hold only a row slice — which serves tables no
single worker could hold, behind the same client surface.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.distributed import ipc
from repro.distributed.ipc import (
    PipeWorkerHandle,
    WorkerDiedError,
    WorkerFaultError,
    serve_pipe,
)
from repro.engine.config import MESAConfig
from repro.engine.envelope import ExplanationEnvelope
from repro.exceptions import (
    ConfigurationError,
    DatasetNotRegisteredError,
    QueryError,
)
from repro.obs.metrics import merge_metric_states
from repro.query.aggregate_query import AggregateQuery
from repro.serving.client import ExplanationClient
from repro.serving.service import ExplanationService, ServedExplanation
from repro.storage import MetaStore
from repro.table.expressions import stable_key_digest
from repro.table.table import Table

#: Distinct routing keys the front tier remembers per dataset (the hot set
#: a restarted worker re-warms from).
HISTORY_SIZE = 1024
#: Floor of the hedge delay: never hedge faster than this many seconds.
HEDGE_MIN_SECONDS = 0.05
#: The hedge delay is ``max(HEDGE_MIN_SECONDS, HEDGE_P99_MULTIPLIER * p99)``
#: over a sliding window of recent explain latencies.
HEDGE_P99_MULTIPLIER = 1.5


@dataclass(frozen=True)
class DatasetSpec:
    """Everything a worker needs to (re)build one dataset's service entry.

    This is the worker start-up payload: it crosses into each worker
    exactly once — at process start (and again only on a restart), pickled
    under ``spawn`` and inherited copy-on-write under ``fork`` — so
    per-request messages carry queries, never data.

    With the shared-memory frame store enabled, ``manifest`` (a
    :class:`repro.shm.manifest.TableManifest`) replaces ``table``: the
    spec pickles in O(columns) bytes and the worker attaches read-only
    views over the shared segments instead of re-unpickling O(table).
    """

    name: str
    table: Any
    knowledge_graph: Any = None
    extraction_specs: Tuple = ()
    config: Optional[MESAConfig] = None
    warm: bool = True
    manifest: Any = None

    @property
    def n_rows(self) -> int:
        """Row count, whichever payload carries the data."""
        if self.table is not None:
            return self.table.n_rows
        return self.manifest.n_rows if self.manifest is not None else 0

    def resolve_table(self):
        """The concrete table: shipped directly or attached from shm."""
        if self.table is not None:
            return self.table
        from repro.shm.manifest import table_from_manifest

        return table_from_manifest(self.manifest)


def _cluster_worker_main(conn, specs: Sequence[DatasetSpec],
                         service_kwargs: Dict[str, Any]) -> None:
    """The worker process: one warm service, a request/response loop.

    Replies are ``("ok", payload)`` or ``("error", (type_name, args))``;
    envelopes travel as one compact JSON blob per reply (pickling one
    flat string costs one buffer copy, while a tree of small dicts makes
    the pickler walk — and the parent unpickle — every node).
    """
    service = ExplanationService(**service_kwargs)
    specs = list(specs)

    def register(spec: DatasetSpec) -> None:
        service.register_dataset(
            spec.name, spec.resolve_table(), spec.knowledge_graph,
            spec.extraction_specs, config=spec.config or MESAConfig(),
            warm=spec.warm)

    for spec in specs:
        register(spec)

    def serve_one(op: str, payload):
        if op == "explain":
            dataset, query, k = payload
            served = service.explain(dataset, query, k=k)
            return (served.envelope.to_json(), served.cache_hit,
                    served.coalesced)
        if op == "explain_batch":
            dataset, queries, k = payload
            served = service.explain_batch(dataset, queries, k=k)
            blob = json.dumps([one.envelope.to_dict() for one in served],
                              separators=(",", ":"))
            return blob, [(one.cache_hit, one.coalesced) for one in served]
        if op == "stats":
            snapshot = service.stats()
            # Every worker is a full replica: it holds a copy of each
            # registered table — or, with the frame store, read-only views
            # over it — so its resident row count is the sum over specs
            # (contrast the row shards of a service's pool, which report
            # O(rows / N) slices).
            snapshot["role"] = "replica"
            snapshot["resident_rows"] = sum(spec.n_rows for spec in specs)
            from repro.shm.segments import attachments

            snapshot["frame_store"] = attachments().stats()
            return snapshot
        if op == "warm":
            dataset, queries, top = payload
            return service.warm(dataset, queries=queries, top=top)
        if op == "clear_cache":
            service.clear_cache()
            return None
        if op == "adopt_frame":
            # An owner-published pre-encoded context frame: install its
            # manifest so the next frame-cache miss attaches read-only
            # views instead of re-encoding (encode-once-per-box).
            dataset, manifest = payload
            if dataset in service.datasets():
                service.pipeline(dataset).context.adopt_shared_frame(manifest)
            return None
        if op == "release_segments":
            # The owner is retiring a generation; drop our handles so it
            # can refcount down to the unlink.  Best-effort by design —
            # live views keep their (already unlinked-safe) mappings.
            from repro.shm.segments import attachments

            return attachments().release(payload or ())
        if op == "register":
            spec = payload
            # Idempotent: a worker respawned after this spec was appended
            # to the cluster's spec list already registered it at start-up,
            # and the broadcast's restart-and-retry path re-sends the op.
            if all(existing.name != spec.name for existing in specs):
                specs.append(spec)
            if spec.name not in service.datasets():
                register(spec)
            return None
        if op == "append_rows":
            # Copy-path live update: every replica rebuilds the merged
            # table from the same rows, deterministically identical.
            dataset, rows = payload
            result = service.append_rows(dataset, rows, rewarm=False)
            for position, existing in enumerate(specs):
                if existing.name == dataset and existing.table is not None:
                    specs[position] = replace(
                        existing,
                        table=service.pipeline(dataset).context.table)
            return result
        if op == "update_dataset":
            # Frame-store live update: the spec carries a manifest of the
            # owner's freshly published merged table; attach zero-copy.
            spec = payload
            for position, existing in enumerate(specs):
                if existing.name == spec.name:
                    specs[position] = spec
                    break
            else:
                specs.append(spec)
            if spec.name not in service.datasets():
                register(spec)
                return None
            return service.replace_table(spec.name, spec.resolve_table(),
                                         rewarm=False)
        if op == "ping":
            return "pong"
        raise ConfigurationError(f"unknown cluster op {op!r}")

    try:
        serve_pipe(conn, serve_one)
    finally:
        service.close()
        conn.close()


def _fold_snapshot(totals: Dict[str, Any], snapshot: Dict[str, Any],
                   point_in_time: bool) -> None:
    """Add one worker ``stats`` snapshot into merged ``totals``.

    Lifetime tallies always fold: context counters and stage seconds,
    cache hit/miss/eviction/expiration/sweep counts, and the counter and
    histogram entries of the worker's metrics registry.  Point-in-time
    values — cache sizes and gauges — fold only with ``point_in_time``:
    a dead worker's occupancy died with it, and keeping it in the base of
    a restarted worker would overstate capacity.
    """
    for name, context in snapshot.get("contexts", {}).items():
        merged = totals["contexts"].setdefault(
            name, {"counters": {}, "stage_seconds": {},
                   "dataset_version": 0})
        for counter, value in context.get("counters", {}).items():
            merged["counters"][counter] = \
                merged["counters"].get(counter, 0) + value
        for stage, seconds in context.get("stage_seconds", {}).items():
            merged["stage_seconds"][stage] = round(
                merged["stage_seconds"].get(stage, 0.0) + seconds, 6)
        merged["dataset_version"] = max(merged["dataset_version"],
                                        context.get("dataset_version", 0))
    tallies = ("hits", "misses", "evictions", "expirations", "sweeps")
    if point_in_time:
        tallies = ("size",) + tallies
    for block in ("cache", "negative_cache"):
        view = snapshot.get(block, {})
        merged_view = totals[block]
        for field_name in tallies:
            if field_name in view or field_name in merged_view:
                merged_view[field_name] = \
                    merged_view.get(field_name, 0) + view.get(field_name, 0)
        if point_in_time:
            for name, size in view.get("by_dataset", {}).items():
                merged_view["by_dataset"][name] = \
                    merged_view["by_dataset"].get(name, 0) + size
    entries = [entry for entry in snapshot.get("metrics", [])
               if point_in_time
               or entry.get("type") in ("counter", "histogram")]
    if entries:
        totals["metrics"] = merge_metric_states([totals["metrics"], entries])


class ServiceCluster:
    """N worker processes serving one dataset set, sharded by query key.

    Parameters
    ----------
    n_workers:
        How many worker processes to spawn.
    service_kwargs:
        Keyword arguments for each worker's ``ExplanationService`` (cache
        sizes, TTL...).  The coalescing window defaults to 0 inside
        workers — the front tier already serialises per-worker traffic.
    start_method:
        ``"fork"`` / ``"spawn"``; default prefers fork where available
        (cheapest start), spawn is fully supported (and what Windows /
        macOS get).
    request_timeout:
        Seconds to wait for a worker's reply before declaring it dead.
        Cold explanations run full engine pipelines — keep this generous.
    restart_warm_top:
        After a worker restart, how many of the front tier's recorded
        top-K historical queries for that worker's key range to replay
        (in the background) to re-warm its caches; 0 disables.
    frame_store:
        Share the dataset (and ``warm()``-encoded hot-context frames)
        across workers through ``multiprocessing.shared_memory``
        (:mod:`repro.shm`): workers attach read-only views instead of
        holding copies, collapsing per-worker residency from O(table) to
        O(1) and encoding each hot context once per box.  ``None``
        (default) enables it for multi-worker topologies when the
        platform has usable POSIX shared memory; ``True`` requests it
        (still subject to platform support — graceful fallback to the
        copy path, never an error); ``False`` disables it.
    store_path:
        Path of a shared SQLite :class:`~repro.storage.MetaStore`.  The
        front tier opens it for the job table (:attr:`jobs` becomes a
        :class:`~repro.jobs.JobManager` at :meth:`start`), and every
        worker service opens the same file for its durable envelope
        store + recorded history (WAL mode keeps the single-writer-per-
        process discipline safe across processes).  A restarted cluster
        re-queues stale RUNNING jobs and re-warms worker caches from
        disk instead of recomputing.  ``None`` (default) disables
        durability.
    hedge_requests:
        Fire a backup ``explain`` to the next replica when the primary
        worker has not answered within a p99-derived hedge delay (see
        :data:`HEDGE_P99_MULTIPLIER`); first response wins.  Tames tail
        latency when one worker is busy with a cold query.  (Replicas can
        all answer any key — the backup just pays a cache miss at worst.)
        Hedging stays dormant until enough samples (20) accumulate.
    """

    def __init__(self, n_workers: int = 2,
                 service_kwargs: Optional[Dict[str, Any]] = None,
                 start_method: Optional[str] = None,
                 request_timeout: float = 600.0,
                 restart_warm_top: int = 8,
                 frame_store: Optional[bool] = None,
                 store_path: Optional[Union[str, Path]] = None,
                 hedge_requests: bool = False):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.start_method = ipc.resolve_start_method(start_method)
        self.n_workers = n_workers
        from repro.shm import shm_available

        if frame_store is None:
            frame_store = n_workers > 1
        #: Whether this cluster shares data through :mod:`repro.shm`.
        #: Requested-but-unavailable degrades to the copy path silently —
        #: the serving contract is identical, only the memory profile
        #: differs.
        self.frame_store_enabled = bool(frame_store) and shm_available()
        #: Owner-side segment registry (lazily built at start).
        self._store = None
        #: The per-dataset table manifests shipped to workers.
        self._table_manifests: Dict[str, Any] = {}
        #: Published hot-context frame manifests, keyed by
        #: ``(dataset, frame key)``; re-broadcast to restarted workers.
        self._frame_manifests: Dict[Tuple[str, Tuple], Any] = {}
        #: Epoch component of frame generations: bumped by
        #: :meth:`clear_cache`, so a retired generation still draining its
        #: readers never collides with freshly published frames.
        self._frame_epoch = 0
        #: Parent-side reference contexts used to encode hot frames
        #: exactly once per box (one per dataset, built lazily).
        self._ref_contexts: Dict[str, Any] = {}
        self.request_timeout = request_timeout
        self.restart_warm_top = restart_warm_top
        self.store_path = str(store_path) if store_path is not None else None
        #: Front-tier metastore handle (jobs + crash-recovery epoch); the
        #: workers open the same file themselves via ``service_kwargs``.
        self._meta: Optional[MetaStore] = None
        #: The cluster's :class:`~repro.jobs.JobManager` (built at start
        #: when ``store_path`` is set).
        self.jobs = None
        self.hedge_requests = hedge_requests
        #: Sliding window of recent explain dispatch latencies, feeding
        #: the p99-derived hedge delay.
        self._latencies: "deque[float]" = deque(maxlen=512)
        self._hedge_pool: Optional[ThreadPoolExecutor] = None
        self.hedge_fired = 0
        self.hedge_won = 0
        #: The live shm generation of each dataset's published table —
        #: starts at ``("table", name)``, appends mint successors so the
        #: retired generation can drain readers without colliding.
        self._table_generations: Dict[str, Tuple] = {}
        self._table_epoch = 0
        self.service_kwargs = dict({"coalesce_window_seconds": 0.0},
                                   **(service_kwargs or {}))
        if self.store_path is not None:
            self.service_kwargs.setdefault("store", self.store_path)
        self._specs: List[DatasetSpec] = []
        self._handles: List[PipeWorkerHandle] = []
        self._lock = threading.Lock()
        #: Monotonic observability folded in from dead workers' last known
        #: snapshots, so the merged lifetime counters in :meth:`stats` do
        #: not deflate when a worker is restarted with fresh (zeroed)
        #: counters.  Point-in-time values (cache sizes, occupancy) are
        #: deliberately *not* kept — they die with the process, exactly as
        #: the replacement worker reports.
        self._stats_base: Dict[str, Any] = {
            "contexts": {}, "cache": {}, "negative_cache": {}, "metrics": []}
        self._inflight: Dict[Tuple, Future] = {}
        #: Front-tier request history per dataset: routing key -> [query, k,
        #: hits]; feeds the post-restart re-warm of a worker's key range.
        self._history: Dict[str, "Dict[Tuple, List]"] = {}
        self._started = False
        self._closed = False
        self.requests_routed = 0
        self.requests_deduplicated = 0
        self.worker_restarts = 0
        self.request_retries = 0
        self.dataset_updates = 0
        #: The most recent post-restart warmer thread (join in tests).
        self.last_restart_warmer: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # registration and lifecycle
    # ------------------------------------------------------------------ #
    def register_dataset(self, name: str, table, knowledge_graph=None,
                         extraction_specs: Sequence = (),
                         config: Optional[MESAConfig] = None,
                         warm: bool = True) -> DatasetSpec:
        """Record (and, once started, broadcast) a dataset to serve."""
        if any(spec.name == name for spec in self._specs):
            raise ConfigurationError(f"dataset {name!r} is already registered")
        spec = DatasetSpec(name=name, table=table,
                           knowledge_graph=knowledge_graph,
                           extraction_specs=tuple(extraction_specs),
                           config=config, warm=warm)
        # Append before broadcasting: a worker that dies mid-broadcast is
        # respawned from the spec list and therefore still learns the
        # dataset (the worker-side op is idempotent for exactly this case).
        self._specs.append(spec)
        self._history.setdefault(name, {})
        if self._started:
            payload = self._worker_spec(spec)
            for handle in self._handles:
                self._dispatch(handle.index, "register", payload)
                if self._store is not None:
                    self._store.attach_reader(
                        self._table_generation(name), handle.index)
        return spec

    def _table_generation(self, name: str) -> Tuple:
        """The live shm generation key of a dataset's published table."""
        return self._table_generations.get(name, ("table", name))

    def register_bundle(self, bundle, config: Optional[MESAConfig] = None,
                        warm: bool = True) -> DatasetSpec:
        """Register a :class:`~repro.datasets.registry.DatasetBundle`."""
        if config is None:
            config = MESAConfig(excluded_columns=tuple(bundle.id_columns))
        return self.register_dataset(
            bundle.name, bundle.table, bundle.knowledge_graph,
            bundle.extraction_specs, config=config, warm=warm)

    def start(self) -> "ServiceCluster":
        """Spawn the worker processes and wait until all serve (idempotent).

        Workers build their services — including the registration warm-up
        of every dataset's cross-query artefacts — concurrently; start
        returns once each has answered a ping, so the first real request
        never queues behind worker initialisation.
        """
        if self._started:
            return self
        if self._closed:
            raise ConfigurationError("ServiceCluster is closed")
        if not self._specs:
            raise ConfigurationError(
                "register at least one dataset before starting the cluster")
        if self.frame_store_enabled:
            from repro.shm import FrameStore

            self._store = FrameStore()
        if self.store_path is not None and self._meta is None:
            # Open before the workers spawn: the schema is created once,
            # and this handle's owner epoch is the one stale RUNNING jobs
            # are recovered against.
            self._meta = MetaStore(self.store_path)
        self._handles = [self._spawn_worker(index)
                         for index in range(self.n_workers)]
        for handle in self._handles:
            ipc.request(handle, "ping", None, self.request_timeout)
        self._started = True
        self._start_jobs()
        return self

    def _start_jobs(self) -> None:
        """Attach the job manager once the cluster serves (and recover)."""
        if self._meta is None or self.jobs is not None:
            return
        from repro.jobs import JobManager  # deferred: avoids an import cycle

        self.jobs = JobManager(self._meta, self)

    def _worker_spec(self, spec: DatasetSpec) -> DatasetSpec:
        """The spec a worker receives: manifest-backed when the store is on."""
        if self._store is None:
            return spec
        manifest = self._table_manifests.get(spec.name)
        if manifest is None:
            manifest = self._store.put_table(
                self._table_generation(spec.name), spec.name, spec.table)
            self._table_manifests[spec.name] = manifest
        return replace(spec, table=None, manifest=manifest)

    def _spawn_worker(self, index: int) -> PipeWorkerHandle:
        """Start worker ``index`` over the current specs.

        Under ``fork`` with the frame store off the specs (tables included)
        cross by copy-on-write inheritance, never pickled; with the store
        on they are manifest-backed, so even a ``spawn`` pickle is tiny.
        """
        handle = ipc.start_worker(
            self.start_method, index, _cluster_worker_main,
            ([self._worker_spec(spec) for spec in self._specs],
             self.service_kwargs),
            f"repro-serving-worker-{index}")
        if self._store is not None:
            # A process that held this index before can never ack a
            # release: drop it from every generation so retirements it was
            # party to drain, then attach the new process as a reader of
            # what it just received.
            self._store.drop_reader(index)
            for spec in self._specs:
                self._store.attach_reader(self._table_generation(spec.name),
                                          index)
        return handle

    def close(self) -> None:
        """Shut every worker down (gracefully, then firmly)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        if self.jobs is not None:
            # Checkpoint first: an in-flight RUNNING job flips back to
            # PENDING so a restart against the same store resumes it.
            self.jobs.close(checkpoint=True)
        if self._hedge_pool is not None:
            self._hedge_pool.shutdown(wait=False)
        ipc.shutdown(handles)
        if self._store is not None:
            # After the workers are down: force-unlink every shared
            # segment so /dev/shm is clean the moment the owner returns.
            self._store.close()
        if self._meta is not None:
            self._meta.flush()
            self._meta.close()

    def __enter__(self) -> "ServiceCluster":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    @staticmethod
    def routing_key(dataset: str, query: AggregateQuery,
                    k: Optional[int]) -> Tuple:
        """The front-tier canonical key a request is routed (and deduped) by.

        The dataset-version component is deliberately absent: versions
        live in the workers (the front tier owns no caches to invalidate),
        and routing must not move a key between shards when a version
        bumps — that would cool every cache the bump did not invalidate.
        """
        return ExplanationService.query_key(dataset, query, k)[:-1]

    def _resolve_k(self, dataset: str, k: Optional[int]) -> Optional[int]:
        """The explanation-size budget a worker will actually apply.

        Resolving ``k`` *before* routing means a request with ``k``
        omitted and the same request with ``k`` equal to the dataset's
        configured default share one shard, one in-flight execution and
        one worker cache entry — exactly as they share one canonical key
        inside a worker's service.  Unknown datasets pass through; the
        worker answers with its own ``DatasetNotRegisteredError``.
        """
        if k is not None:
            return k
        for spec in self._specs:
            if spec.name == dataset:
                return (spec.config or MESAConfig()).k
        return None

    def worker_index(self, key: Tuple) -> int:
        """Deterministic shard of a routing key (stable across processes)."""
        return stable_key_digest(key) % self.n_workers

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def explain(self, dataset: str, query: AggregateQuery,
                k: Optional[int] = None) -> ServedExplanation:
        """Serve one explanation from the key's worker (deduped in flight)."""
        self._ensure_serving()
        k = self._resolve_k(dataset, k)
        key = self.routing_key(dataset, query, k)
        with self._lock:
            self.requests_routed += 1
            self._record_history(dataset, key, query, k)
            existing = self._inflight.get(key)
            if existing is None:
                future: Future = Future()
                self._inflight[key] = future
        if existing is not None:
            with self._lock:
                self.requests_deduplicated += 1
            served = existing.result()
            return ServedExplanation(dataset=served.dataset,
                                     envelope=served.envelope,
                                     cache_hit=served.cache_hit,
                                     coalesced=True)
        try:
            envelope_json, cache_hit, coalesced = self._dispatch_explain(
                self.worker_index(key), dataset, query, k)
            served = ServedExplanation(
                dataset=dataset,
                envelope=ExplanationEnvelope.from_json(envelope_json),
                cache_hit=cache_hit, coalesced=coalesced)
        except BaseException as error:
            future.set_exception(error)
            with self._lock:
                self._inflight.pop(key, None)
            # The future's exception was consumed by set_exception; waiters
            # re-raise it, and so do we.
            raise
        future.set_result(served)
        with self._lock:
            self._inflight.pop(key, None)
        return served

    def _hedge_delay(self) -> Optional[float]:
        """Seconds to wait before firing a backup request, or ``None``.

        Derived from the observed p99 of primary latencies so hedges fire
        only on genuine stragglers (~1% of requests), never on the normal
        case.  Requires enough samples for the tail estimate to mean
        anything; until then every request runs unhedged and feeds the
        window.
        """
        if not self.hedge_requests or self.n_workers < 2:
            return None
        with self._lock:
            if len(self._latencies) < 20:
                return None
            ordered = sorted(self._latencies)
        p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
        return max(HEDGE_MIN_SECONDS, HEDGE_P99_MULTIPLIER * p99)

    def _dispatch_explain(self, index: int, dataset: str,
                          query: AggregateQuery, k: Optional[int]):
        """One explain round-trip, hedged against stragglers when enabled.

        The primary runs on the key's own worker; if it has not answered
        within the p99-derived delay a single backup fires at the *next*
        worker (replicas hold full dataset copies, so any worker can
        answer — but each worker's pipe is serialised, so the
        backup must not queue behind the very straggler it is hedging).
        First response wins; the loser is left to finish on its pipe and
        its result is discarded.  Both failing re-raises the primary's
        error.
        """
        payload = (dataset, query, k)
        delay = self._hedge_delay()
        started = time.monotonic()
        try:
            if delay is None:
                return self._dispatch(index, "explain", payload)
            if self._hedge_pool is None:
                with self._lock:
                    if self._hedge_pool is None:
                        self._hedge_pool = ThreadPoolExecutor(
                            max_workers=max(2, self.n_workers),
                            thread_name_prefix="repro-hedge")
            primary = self._hedge_pool.submit(
                self._dispatch, index, "explain", payload)
            try:
                return primary.result(timeout=delay)
            except FuturesTimeoutError:
                pass
            with self._lock:
                self.hedge_fired += 1
            backup = self._hedge_pool.submit(
                self._dispatch, (index + 1) % self.n_workers,
                "explain", payload)
            pending = {primary, backup}
            while pending:
                done, pending = futures_wait(
                    pending, return_when=FIRST_COMPLETED)
                for future in done:
                    if future.exception() is None:
                        if future is backup:
                            with self._lock:
                                self.hedge_won += 1
                        return future.result()
            return primary.result()  # both failed: primary's error
        finally:
            with self._lock:
                self._latencies.append(time.monotonic() - started)

    def explain_batch(self, dataset: str, queries: Sequence[AggregateQuery],
                      k: Optional[int] = None) -> List[ServedExplanation]:
        """Serve a batch: shard, dedupe, fan sub-batches out, reassemble."""
        self._ensure_serving()
        k = self._resolve_k(dataset, k)
        keys: List[Tuple] = []
        owned: Dict[Tuple, Future] = {}
        joined: Dict[Tuple, Future] = {}
        owned_queries: Dict[Tuple, AggregateQuery] = {}
        with self._lock:
            for query in queries:
                key = self.routing_key(dataset, query, k)
                keys.append(key)
                self.requests_routed += 1
                self._record_history(dataset, key, query, k)
                if key in owned or key in joined:
                    self.requests_deduplicated += 1
                    continue
                existing = self._inflight.get(key)
                if existing is not None:
                    self.requests_deduplicated += 1
                    joined[key] = existing
                else:
                    future = Future()
                    self._inflight[key] = future
                    owned[key] = future
                    owned_queries[key] = query
        shards: Dict[int, List[Tuple]] = {}
        for key in owned:
            shards.setdefault(self.worker_index(key), []).append(key)

        def run_shard(index: int, shard_keys: List[Tuple]) -> None:
            shard_queries = [owned_queries[key] for key in shard_keys]
            try:
                blob, flags = self._dispatch(
                    index, "explain_batch", (dataset, shard_queries, k))
                envelopes = [ExplanationEnvelope.from_dict(envelope_dict)
                             for envelope_dict in json.loads(blob)]
            except BaseException as error:
                with self._lock:
                    for key in shard_keys:
                        self._inflight.pop(key, None)
                for key in shard_keys:
                    owned[key].set_exception(error)
                return
            with self._lock:
                for key in shard_keys:
                    self._inflight.pop(key, None)
            for key, envelope, (cache_hit, coalesced) in zip(
                    shard_keys, envelopes, flags):
                owned[key].set_result(ServedExplanation(
                    dataset=dataset, envelope=envelope,
                    cache_hit=cache_hit, coalesced=coalesced))

        if shards:
            with ThreadPoolExecutor(max_workers=len(shards)) as executor:
                for index, shard_keys in shards.items():
                    executor.submit(run_shard, index, shard_keys)
        served: List[ServedExplanation] = []
        first_of: Dict[Tuple, int] = {}
        for position, key in enumerate(keys):
            future = owned.get(key) or joined[key]
            result = future.result()
            duplicate = key in first_of or key in joined
            first_of.setdefault(key, position)
            if duplicate:
                result = ServedExplanation(
                    dataset=result.dataset, envelope=result.envelope,
                    cache_hit=result.cache_hit, coalesced=True)
            served.append(result)
        return served

    # ------------------------------------------------------------------ #
    # broadcast operations
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Merged observability: summed counters + per-worker breakdown.

        Every worker entry carries its ``role`` (``"replica"``: a full
        service over a complete dataset copy) and its resident row count,
        so capacity planning can read the memory topology straight off
        ``/stats``.
        """
        self._ensure_serving()
        workers = ipc.probe_stats(self._handles, self.request_timeout, {})
        # Seed the merge from the retained base of dead workers' counters:
        # a restarted worker reports zeroed tallies, and without the base
        # the merged lifetime counters would move backwards.
        totals: Dict[str, Any] = {
            "contexts": {}, "metrics": [],
            "cache": {"size": 0, "hits": 0, "misses": 0, "by_dataset": {},
                      "by_worker": {}},
            "negative_cache": {"size": 0, "hits": 0, "misses": 0,
                               "by_dataset": {}, "by_worker": {}}}
        with self._lock:
            _fold_snapshot(totals, self._stats_base, point_in_time=False)
        for worker_id, snapshot in workers.items():
            if "error" in snapshot:
                continue
            _fold_snapshot(totals, snapshot, point_in_time=True)
            for block in ("cache", "negative_cache"):
                totals[block]["by_worker"][worker_id] = \
                    snapshot.get(block, {}).get("size", 0)
        with self._lock:
            front = {
                "n_workers": self.n_workers,
                "start_method": self.start_method,
                "workers_alive": sum(handle.alive()
                                     for handle in self._handles),
                "requests_routed": self.requests_routed,
                "requests_deduplicated": self.requests_deduplicated,
                "worker_restarts": self.worker_restarts,
                "request_retries": self.request_retries,
                "dataset_updates": self.dataset_updates,
                "hedge_requests": self.hedge_requests,
                "hedge_fired": self.hedge_fired,
                "hedge_won": self.hedge_won,
                "inflight": len(self._inflight),
            }
        merged = {
            "mode": "cluster",
            "shard": "keys",
            "datasets": sorted(spec.name for spec in self._specs),
            "cluster": front,
            "cache": totals["cache"],
            "negative_cache": totals["negative_cache"],
            "contexts": totals["contexts"],
            "metrics": totals["metrics"],
            "frame_store": self._frame_store_stats(),
            "workers": workers,
        }
        if self.jobs is not None:
            merged["jobs"] = self.jobs.stats()
        return merged

    def _frame_store_stats(self) -> Dict[str, Any]:
        """Owner-side segment registry totals for ``/stats`` and gauges."""
        block: Dict[str, Any] = {"enabled": self.frame_store_enabled}
        if self._store is not None:
            block.update(self._store.stats())
        return block

    def warm(self, dataset: str, queries: Optional[Sequence] = None,
             top: int = 8) -> int:
        """Warm every worker (artefacts + replay); returns total replayed.

        With explicit ``queries`` each is replayed only on the worker its
        key routes to — warming a worker with keys it will never serve
        would just evict its useful entries; with ``queries=None`` each
        worker replays the top of its *own* recorded history.  Routing
        resolves ``k`` exactly as :meth:`explain` does, so the warmed
        shard is the shard live traffic will hit.

        With the frame store on, the hot contexts behind the warmed
        queries are encoded **once, here in the owner**, published as
        shared read-only code arrays and adopted by every worker — the
        replay below then runs against pre-encoded frames instead of
        re-factorising the same columns in every process.
        """
        self._ensure_serving()
        if self._store is not None:
            self._publish_hot_frames(dataset, queries)
        resolved_k = self._resolve_k(dataset, None)
        total = 0
        for handle in self._handles:
            if queries is not None:
                routed = [query for query in queries
                          if self.worker_index(self.routing_key(
                              dataset, query, resolved_k)) == handle.index]
            else:
                routed = None
            total += int(self._dispatch(handle.index, "warm",
                                        (dataset, routed, top)) or 0)
        return total

    def _publish_hot_frames(self, dataset: str,
                            queries: Optional[Sequence]) -> None:
        """Encode the warm set's context frames once and broadcast them.

        ``queries=None`` falls back to the front tier's recorded history
        for the dataset — the same hot set the workers are about to
        replay.  Publication is idempotent per (dataset, frame identity):
        a second warm pass re-broadcasts existing manifests (restarted
        workers need them) without re-encoding or re-publishing segments.
        """
        spec = next((one for one in self._specs if one.name == dataset), None)
        if spec is None:
            return
        if queries is None:
            with self._lock:
                history = list(self._history.get(dataset, {}).values())
            queries = [entry[0] for entry in history]
        if not queries:
            return
        config = spec.config or MESAConfig()
        hops, n_bins = config.hops, config.n_bins
        from repro.table.expressions import canonical_predicate_key

        published: List[Tuple[Tuple, Any]] = []
        for query in queries:
            frame_key = (hops, n_bins,
                         canonical_predicate_key(query.context))
            manifest = self._frame_manifests.get((dataset, frame_key))
            if manifest is None:
                context = self._ref_context(spec)
                context_table, frame = context.context_frame(
                    query.context, hops=hops, n_bins=n_bins)
                # Encode every column the engine can ask for up front, so
                # workers never fall back to a local factorise for one the
                # published frame happens not to carry.  Excluded columns
                # are the exception — the engine never factorises them
                # (and on wide tables they are the bulk of the schema), so
                # publishing their codes would cost shm bytes and warm
                # time for arrays nobody reads.  An adopted frame still
                # encodes any unpublished column lazily from its table
                # views, so this is a size choice, not a correctness one.
                excluded = set(config.excluded_columns or ())
                names = [name for name in context_table.column_names
                         if name not in excluded]
                for name in names:
                    frame.codes(name)
                manifest = self._store.put_frame(
                    ("frames", dataset, self._frame_epoch), dataset,
                    frame_key, frame, names)
                self._frame_manifests[(dataset, frame_key)] = manifest
            published.append((frame_key, manifest))
        seen = set()
        for frame_key, manifest in published:
            if frame_key in seen:
                continue
            seen.add(frame_key)
            for handle in self._handles:
                self._dispatch(handle.index, "adopt_frame",
                               (dataset, manifest))
                self._store.attach_reader(
                    ("frames", dataset, self._frame_epoch), handle.index)

    def _ref_context(self, spec: DatasetSpec):
        """The owner's reference context for ``spec`` (lazily built).

        One :class:`~repro.engine.context.PipelineContext` per dataset,
        sharing the spec's table the front tier already holds; it exists
        so hot frames are encoded exactly once per box.
        """
        context = self._ref_contexts.get(spec.name)
        if context is None:
            from repro.engine.context import PipelineContext

            context = PipelineContext(spec.table, spec.knowledge_graph,
                                      spec.extraction_specs)
            self._ref_contexts[spec.name] = context
        return context

    def clear_cache(self) -> None:
        """Invalidate every cache layer on every worker, coherently.

        A worker found dead here is restarted — its replacement starts
        with empty caches, which *is* the invalidated state.
        """
        self._ensure_serving()
        for handle in self._handles:
            self._dispatch(handle.index, "clear_cache", None)
        if self._store is not None:
            self._retire_frame_generation()

    def _retire_frame_generation(self) -> None:
        """Retire every published frame generation (refcounted unlink).

        The version bump the workers just performed dropped their adoption
        maps; what remains is the segment lifecycle.  Each worker releases
        its attachments (the ack detaches it as a reader), the epoch
        advances so future publications never collide with a generation
        still draining, and the store unlinks as readers hit zero —
        ``/dev/shm`` is freed even though late readers finish on their old
        (still mapped) views.
        """
        with self._lock:
            manifests = list(self._frame_manifests.values())
            self._frame_manifests.clear()
            epoch = self._frame_epoch
            self._frame_epoch += 1
        segments = sorted({segment for manifest in manifests
                           for segment in manifest.segments})
        frame_generations = [key for key in self._store.generations()
                             if key[0] == "frames" and key[-1] <= epoch]
        for handle in self._handles:
            try:
                self._dispatch(handle.index, "release_segments", segments)
            except WorkerFaultError:  # pragma: no cover - release is total
                pass
            for generation in frame_generations:
                self._store.detach_reader(generation, handle.index)
        for generation in frame_generations:
            self._store.retire(generation)
        # The owner's reference frames hold the published arrays alive via
        # its own cache; drop them with the generation.
        for context in self._ref_contexts.values():
            context.bump_dataset_version()

    # ------------------------------------------------------------------ #
    # live dataset updates
    # ------------------------------------------------------------------ #
    def _merged_table(self, spec: DatasetSpec, rows: Sequence[Mapping]):
        """The deterministic merge every tier agrees on.

        Built exactly as :meth:`ExplanationService.append_rows` builds it
        (same column order, same row order), so a copy-mode worker
        rebuilding the merge from the raw rows and the front tier merging
        locally produce identical tables — and identical envelopes.
        """
        base = spec.table
        appended = Table.from_rows(list(rows),
                                   columns=list(base.column_names),
                                   name=base.name)
        return base.concat_rows(appended)

    def append_rows(self, dataset: str, rows: Sequence[Mapping],
                    rewarm: bool = True, top: int = 8) -> Dict[str, Any]:
        """Append rows to a served dataset, invalidating coherently.

        With the frame store the owner publishes the merged table as a
        *new* shm generation, workers re-attach zero-copy, and the old
        generation (plus every published hot-frame generation — their
        encodings cover the old rows) drains to the unlink.  On the copy
        path every replica rebuilds the identical merged table from the
        broadcast rows.

        Afterwards the dataset's top recorded queries re-warm in the
        background — as a durable job when the cluster has a store
        (visible and resumable via ``/jobs``), else a plain thread.
        """
        self._ensure_serving()
        rows = [dict(row) for row in rows]
        if not rows:
            raise QueryError("append_rows requires at least one row")
        position = next((index for index, spec in enumerate(self._specs)
                         if spec.name == dataset), None)
        if position is None:
            raise DatasetNotRegisteredError(
                f"dataset {dataset!r} is not registered")
        spec = self._specs[position]
        if self._store is not None:
            merged = self._merged_table(spec, rows)
            with self._lock:
                self._table_epoch += 1
                new_generation = ("table", dataset, self._table_epoch)
            old_generation = self._table_generation(dataset)
            manifest = self._store.put_table(new_generation, dataset, merged)
            new_spec = replace(spec, table=merged)
            self._specs[position] = new_spec
            self._table_manifests[dataset] = manifest
            self._table_generations[dataset] = new_generation
            result = None
            worker_payload = replace(new_spec, table=None, manifest=manifest)
            for handle in self._handles:
                outcome = self._dispatch(handle.index, "update_dataset",
                                         worker_payload)
                self._store.attach_reader(new_generation, handle.index)
                result = result or outcome
            # Every published hot-frame generation encodes the *old* rows;
            # retire them all (workers re-encode lazily — `_adopt_frame`
            # falls back on any attach failure — and the next warm pass
            # republishes against the merged table).
            self._retire_frame_generation()
            self._ref_contexts.pop(dataset, None)
            for handle in self._handles:
                self._store.detach_reader(old_generation, handle.index)
            self._store.retire(old_generation)
        else:
            result = None
            for handle in self._handles:
                outcome = self._dispatch(handle.index, "append_rows",
                                         (dataset, rows))
                result = result or outcome
            self._specs[position] = replace(
                spec, table=self._merged_table(spec, rows))
        with self._lock:
            self.dataset_updates += 1
        result = dict(result or {})
        result["appended"] = len(rows)
        rewarm_job = None
        if rewarm:
            if self.jobs is not None:
                rewarm_job = self.jobs.submit(dataset, kind="warm", top=top)
            else:
                threading.Thread(
                    target=lambda: self.warm(dataset, top=top),
                    name=f"repro-rewarm-{dataset}", daemon=True).start()
        result["rewarm_job"] = rewarm_job
        return result

    def datasets(self) -> List[str]:
        """Names of the registered datasets, sorted."""
        return sorted(spec.name for spec in self._specs)

    def health(self) -> Dict[str, Any]:
        """Cluster liveness: degraded while any worker process is down.

        Uses the cheap non-blocking process check — a ping would queue
        behind an in-progress explanation and stall the probe.
        """
        with self._lock:
            handles = list(self._handles)
            closed = self._closed
        worker_health = {
            str(handle.index): {"alive": handle.alive(),
                                "restarts": handle.restarts}
            for handle in handles}
        alive = sum(1 for one in worker_health.values() if one["alive"])
        if closed or not self._started:
            status = "down"
        elif alive == len(handles):
            status = "ok"
        else:
            status = "degraded"
        return {
            "status": status,
            "datasets": sorted(spec.name for spec in self._specs),
            "mode": "cluster",
            "workers_alive": alive,
            "n_workers": len(handles),
            "workers": worker_health,
        }

    # ------------------------------------------------------------------ #
    # internals: request transport, restart, history
    # ------------------------------------------------------------------ #
    def _ensure_serving(self) -> None:
        if not self._started:
            raise ConfigurationError("ServiceCluster.start() has not been called")
        if self._closed:
            raise ConfigurationError("ServiceCluster is closed")

    def _dispatch(self, index: int, op: str, payload) -> Any:
        """Route an op to a worker; on a dead worker, restart and retry once."""
        handle = self._handles[index]
        generation = handle.generation
        try:
            return ipc.request(handle, op, payload, self.request_timeout)
        except WorkerDiedError:
            self._restart_worker(index, observed_generation=generation)
            with self._lock:
                self.request_retries += 1
            return ipc.request(handle, op, payload, self.request_timeout)

    def _restart_worker(self, index: int, observed_generation: int) -> None:
        """Replace a dead worker's process (once per observed death).

        The dead worker's last known stats snapshot folds into the front
        tier's base so merged lifetime counters stay monotonic across the
        restart (the fresh process reports zeros); the fresh process then
        re-adopts the published frames and re-warms in the background.
        """
        handle = self._handles[index]
        with handle.lock:
            last_stats = handle.last_stats
            if not ipc.respawn(handle, observed_generation,
                               self._spawn_worker, self._closed):
                return  # another thread already replaced this process
            if last_stats:
                with self._lock:
                    _fold_snapshot(self._stats_base, last_stats,
                                   point_in_time=False)
            if self._store is not None:
                # Re-publish the current frame generation: adoption state
                # died with the process.
                with self._lock:
                    manifests = list(self._frame_manifests.items())
                    epoch = self._frame_epoch
                for (dataset, _frame_key), manifest in manifests:
                    ipc.request_locked(handle, "adopt_frame",
                                       (dataset, manifest),
                                       self.request_timeout)
                    self._store.attach_reader(("frames", dataset, epoch),
                                              index)
        with self._lock:
            self.worker_restarts += 1
        self._rewarm_worker(index)

    def _rewarm_worker(self, index: int) -> None:
        """Replay the restarted worker's hottest keys in the background."""
        if self.restart_warm_top < 1:
            return
        replay: List[Tuple[str, AggregateQuery, Optional[int]]] = []
        with self._lock:
            for dataset, history in self._history.items():
                mine = [(hits, dataset, query, k)
                        for key, (query, k, hits) in history.items()
                        if self.worker_index(key) == index]
                mine.sort(key=lambda entry: entry[0], reverse=True)
                replay.extend((dataset, query, k) for _, dataset, query, k
                              in mine[:self.restart_warm_top])
        if not replay:
            return

        def run_replay() -> None:
            for dataset, query, k in replay:
                try:
                    self.explain(dataset, query, k=k)
                except Exception:
                    continue

        thread = threading.Thread(target=run_replay, daemon=True,
                                  name=f"repro-cluster-rewarm-{index}")
        self.last_restart_warmer = thread
        thread.start()

    def _record_history(self, dataset: str, key: Tuple,
                        query: AggregateQuery, k: Optional[int]) -> None:
        """Caller must hold ``self._lock``."""
        history = self._history.setdefault(dataset, {})
        entry = history.get(key)
        if entry is None:
            if len(history) >= HISTORY_SIZE:
                return  # full: keep the established hot set
            history[key] = [query, k, 1]
        else:
            entry[2] += 1


class ClusterClient(ExplanationClient):
    """The :class:`ExplanationClient` face of a :class:`ServiceCluster`.

    Starts the cluster if needed; ``close()`` shuts the workers down
    unless ``close_cluster=False`` (a cluster shared with other views).
    """

    def __init__(self, cluster: ServiceCluster, close_cluster: bool = True):
        self.cluster = cluster.start()
        self._close_cluster = close_cluster

    def explain(self, dataset: str, query: AggregateQuery,
                k: Optional[int] = None) -> ServedExplanation:
        return self.cluster.explain(dataset, query, k=k)

    def explain_batch(self, dataset: str, queries: Sequence[AggregateQuery],
                      k: Optional[int] = None) -> List[ServedExplanation]:
        return self.cluster.explain_batch(dataset, queries, k=k)

    def stats(self) -> Dict[str, Any]:
        return self.cluster.stats()

    def warm(self, dataset: str, queries: Optional[Sequence] = None,
             top: int = 8) -> int:
        return self.cluster.warm(dataset, queries=queries, top=top)

    def clear_cache(self) -> None:
        self.cluster.clear_cache()

    def health(self) -> Dict[str, Any]:
        return self.cluster.health()

    def datasets(self) -> List[str]:
        return self.cluster.datasets()

    def _jobs(self):
        if self.cluster.jobs is None:
            raise self._no_jobs()
        return self.cluster.jobs

    def submit_job(self, dataset: str, kind: str = "explain_batch",
                   queries: Optional[Sequence] = None,
                   k: Optional[int] = None, top: int = 8) -> str:
        return self._jobs().submit(dataset, kind=kind, queries=queries,
                                   k=k, top=top)

    def job_status(self, job_id: str,
                   include_result: bool = False) -> Dict[str, Any]:
        return self._jobs().status(job_id, include_result=include_result)

    def wait_job(self, job_id: str, timeout: Optional[float] = None,
                 poll_seconds: float = 0.02) -> Dict[str, Any]:
        return self._jobs().wait(job_id, timeout=timeout,
                                 poll_seconds=poll_seconds)

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        return self._jobs().cancel(job_id)

    def list_jobs(self, dataset: Optional[str] = None,
                  limit: int = 100) -> List[Dict[str, Any]]:
        return self._jobs().list_jobs(dataset, limit)

    def append_rows(self, dataset: str, rows: Sequence[Mapping],
                    rewarm: bool = True, top: int = 8) -> Dict[str, Any]:
        return self.cluster.append_rows(dataset, rows, rewarm=rewarm, top=top)

    def close(self) -> None:
        if self._close_cluster:
            self.cluster.close()
