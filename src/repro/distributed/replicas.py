"""Engine replicas: N worker processes that each hold every dataset.

:class:`ReplicaPool` is the data plane of the key-routed topology: one
:class:`~repro.serving.service.ExplanationService` in front of N engine
replicas.  A replica is a worker process — started, replaced and stopped
by the lifecycle in :mod:`repro.distributed.ipc`, which the row-shard
:class:`~repro.distributed.coordinator.ShardPool` shares — that runs one
:class:`~repro.engine.pipeline.ExplanationPipeline` per registered
dataset and nothing else.  The front service owns the envelope cache, the
negative cache, the durable store, history, jobs, health and metrics.

**Routing.**  The service sends each cache miss to the replica
:meth:`ReplicaPool.route` picks from the stable digest
(:func:`~repro.table.expressions.stable_key_digest`) of its version-free
canonical key; the builtin ``hash`` is salted per process.  The key space
partitions deterministically, so each replica's prepared-state, frame and
IPW-fit caches stay hot for its key range: N replicas hold N times one
process's reuse capacity, and a version bump never moves a key.

**Datasets.**  A :class:`DatasetSpec` carries what a replica needs to
build one dataset's pipeline.  The replicas start with the first
registered dataset, so under ``fork`` its table crosses by copy-on-write
inheritance and is never pickled; later registrations, appends (the
appended rows, which every replica merges deterministically) and version
bumps are broadcast.

**Shared memory.**  With ``frame_store=True`` (and usable POSIX shared
memory) the pool owns a :class:`~repro.shm.store.FrameStore`: each table
is published once and replicas attach read-only views, so a replica's
residency is O(1) in the table size, and :meth:`ReplicaPool.
publish_frames` encodes the context frames of a warm set once, here, for
every replica to adopt.  An append publishes the merged table as a new
generation; the old one and every hot-frame generation retire as their
readers drain.

**Restart.**  A dead replica is respawned from the specs by the next
request that reaches it, re-adopts the published frames, and the request
is retried once.  Its last stats snapshot folds into a base, so the
pool's lifetime counters never move backwards.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.distributed import ipc
from repro.engine.config import MESAConfig
from repro.engine.context import PipelineContext
from repro.engine.envelope import ExplanationEnvelope
from repro.engine.pipeline import ExplanationPipeline
from repro.exceptions import (
    ConfigurationError,
    DatasetNotRegisteredError,
    RequestValidationError,
)
from repro.obs.metrics import process_maxrss_kb
from repro.shm import FrameStore, shm_available
from repro.table.column import Column
from repro.table.expressions import canonical_predicate_key, stable_key_digest
from repro.table.table import Table

#: Seconds to wait for one replica reply before declaring it dead
#: (generous: cold batches run full engine pipelines).
REQUEST_TIMEOUT = 600.0


@dataclass(frozen=True)
class DatasetSpec:
    """What a replica needs to build one dataset's pipeline.

    ``config`` is the pipeline's effective configuration (the service's
    serving defaults applied); ``warm`` builds the cross-query artefacts
    when the replica registers the dataset.  With the frame store,
    ``manifest`` (a :class:`repro.shm.manifest.TableManifest`) replaces
    ``table``: the spec pickles in O(columns) bytes and the replica
    attaches read-only views over the shared segments.
    """

    name: str
    table: Any
    knowledge_graph: Any = None
    extraction_specs: Tuple = ()
    config: Optional[MESAConfig] = None
    warm: bool = True
    manifest: Any = None

    def resolve_table(self):
        """The concrete table: shipped directly or attached from shm."""
        if self.table is not None:
            return self.table
        from repro.shm.manifest import table_from_manifest

        return table_from_manifest(self.manifest)


def merge_rows(table: Table, rows: Sequence[Mapping]) -> Table:
    """``table`` with ``rows`` appended: the merge every tier agrees on.

    The serving front and each copy-path replica build the merged table
    with this one function (same column order, same row order), so their
    tables — and their envelopes — are identical.  Appended columns take
    the table's dtypes, so a key a row omits is a missing cell.  A column
    the table lacks, or a value its column's dtype cannot hold, raises
    :class:`RequestValidationError` naming the column.
    """
    errors: List[str] = []
    unknown = sorted({key for row in rows for key in row}
                     - set(table.column_names))
    if unknown:
        errors.append(f"unknown column(s) {unknown}")
    columns = []
    for name, dtype in table.schema.fields:
        values = [row.get(name) for row in rows]
        bad = [position for position, value in enumerate(values)
               if not dtype.holds(value)]
        if bad:
            errors.append(
                f"column {name!r} holds {dtype.value} values, not "
                f"{values[bad[0]]!r} (rows[{bad[0]}])")
        else:
            columns.append(Column(name, values, dtype=dtype))
    if errors:
        raise RequestValidationError(errors)
    return table.concat_rows(Table(columns, name=table.name))


def fold_context(into: Dict[str, Any], context: Mapping[str, Any]) -> None:
    """Add one context's engine counters and stage seconds into ``into``."""
    counters = into.setdefault("counters", {})
    for name, value in (context.get("counters") or {}).items():
        counters[name] = counters.get(name, 0) + value
    stage_seconds = into.setdefault("stage_seconds", {})
    for stage, seconds in (context.get("stage_seconds") or {}).items():
        stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds


def _replica_main(conn, specs: Sequence[DatasetSpec]) -> None:
    """A replica: one pipeline per dataset behind a request/response loop.

    Envelopes travel as one compact JSON blob per reply: pickling one flat
    string costs one buffer copy, while a tree of small dicts makes the
    pickler walk (and the parent unpickle) every node.
    """
    from repro.shm.segments import attachments

    pipelines: Dict[str, ExplanationPipeline] = {}

    def register(spec: DatasetSpec) -> None:
        # Idempotent: a replica respawned after the pool recorded this spec
        # registered it at start-up, and a retried broadcast re-sends it.
        if spec.name in pipelines:
            return
        pipeline = ExplanationPipeline(
            spec.resolve_table(), spec.knowledge_graph,
            spec.extraction_specs, config=spec.config)
        if spec.warm:
            pipeline.warm()
        pipelines[spec.name] = pipeline

    def pipeline_of(name: str) -> ExplanationPipeline:
        pipeline = pipelines.get(name)
        if pipeline is None:
            raise DatasetNotRegisteredError(
                f"dataset {name!r} is not registered; "
                f"available: {sorted(pipelines)}")
        return pipeline

    for spec in specs:
        register(spec)

    def serve_one(op: str, payload):
        if op == "explain_many":
            dataset, queries, k = payload
            envelopes = pipeline_of(dataset).explain_many_envelopes(
                queries, k=k)
            return json.dumps([envelope.to_dict() for envelope in envelopes],
                              separators=(",", ":"))
        if op == "register":
            register(payload)
            return None
        if op == "update":
            # A new table under the next version: the appended rows merged
            # here (copy path) or a spec carrying the table (store path).
            dataset, rows, spec = payload
            old = pipeline_of(dataset)
            table = merge_rows(old.context.table, rows) \
                if rows is not None else spec.resolve_table()
            pipeline = ExplanationPipeline(
                table, old.context.knowledge_graph,
                old.context.extraction_specs, config=old.config)
            pipeline.context.dataset_version = old.context.dataset_version + 1
            pipelines[dataset] = pipeline
            return None
        if op == "bump":
            for pipeline in pipelines.values():
                pipeline.context.bump_dataset_version()
            return None
        if op == "adopt_frame":
            # An owner-published pre-encoded context frame: the next
            # frame-cache miss attaches read-only views instead of
            # re-encoding (encode once per box).
            dataset, manifest = payload
            if dataset in pipelines:
                pipelines[dataset].context.adopt_shared_frame(manifest)
            return None
        if op == "release_segments":
            # The owner is retiring a generation; drop our handles so it
            # can refcount down to the unlink.  Live views keep their
            # (unlink-safe) mappings.
            return attachments().release(payload or ())
        if op == "stats":
            contexts = {}
            for name, pipeline in pipelines.items():
                counters, stage_seconds = \
                    pipeline.context.observability_snapshot()
                # The prepared-state memo keeps each query's search result:
                # the work this replica holds for its key range.
                contexts[name] = {
                    "counters": counters, "stage_seconds": stage_seconds,
                    "dataset_version": pipeline.context.dataset_version,
                    "prepared_states": pipeline.prepared_states()}
            # A replica holds every registered table — or, with the frame
            # store, read-only views over it — so its resident row count
            # is the sum over datasets (a row shard reports its slice).
            return {
                "role": "replica",
                "resident_rows": sum(pipeline.context.table.n_rows
                                     for pipeline in pipelines.values()),
                "memory": {"maxrss_kb": process_maxrss_kb()},
                "frame_store": attachments().stats(),
                "contexts": contexts,
            }
        if op == "ping":
            return "pong"
        raise ConfigurationError(f"unknown replica op {op!r}")

    try:
        ipc.serve_pipe(conn, serve_one)
    finally:
        conn.close()


class ReplicaPool:
    """N engine replicas; the serving front routes misses by canonical key.

    Parameters
    ----------
    n_workers:
        How many replica processes to run.
    start_method:
        ``"fork"`` / ``"spawn"`` — same semantics as
        :class:`~repro.distributed.coordinator.ShardPool`.
    frame_store:
        Share tables and warm-set frames through a pool-owned
        shared-memory store (see **Shared memory** above); where POSIX
        shared memory is unusable the pool silently keeps the copy path.
    """

    def __init__(self, n_workers: int = 2,
                 start_method: Optional[str] = None,
                 frame_store: bool = False):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.start_method = ipc.resolve_start_method(start_method)
        self.n_workers = n_workers
        self._store = FrameStore() if frame_store and shm_available() \
            else None
        self._specs: List[DatasetSpec] = []
        self._handles: List[ipc.PipeWorkerHandle] = []
        self._lock = threading.Lock()
        #: Serialises registrations, so a name is checked and taken at once.
        self._register_lock = threading.Lock()
        #: dataset -> (shm generation, manifest) of its published table.
        self._tables: Dict[str, Tuple[Tuple, Any]] = {}
        self._table_epoch = 0
        #: Published hot-context frames, keyed by ``(dataset, frame key)``;
        #: re-sent to restarted replicas.
        self._frame_manifests: Dict[Tuple[str, Tuple], Any] = {}
        #: Epoch component of frame generations: bumped on retirement, so
        #: a generation still draining its readers never collides with
        #: freshly published frames.
        self._frame_epoch = 0
        #: Owner-side contexts that encode hot frames once per box (one
        #: per dataset; their counters never fold into the replicas').
        self._ref_contexts: Dict[str, PipelineContext] = {}
        #: Engine counters folded in from dead replicas' last snapshots.
        self._stats_base: Dict[str, Dict[str, Any]] = {}
        self._started = False
        self._closed = False
        self.requests = 0
        self.worker_restarts = 0
        self.request_retries = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ReplicaPool":
        """Ready the pool (idempotent); replicas spawn at the first register."""
        if self._closed:
            raise ConfigurationError("ReplicaPool is closed")
        self._started = True
        return self

    def _spawn(self, index: int) -> ipc.PipeWorkerHandle:
        """Start replica ``index`` over the current specs.

        Under ``fork`` with the frame store off the specs (tables included)
        cross by copy-on-write inheritance, never pickled; with the store
        on they are manifest-backed, so even a ``spawn`` pickle is tiny.
        """
        handle = ipc.start_worker(
            self.start_method, index, _replica_main,
            ([self._worker_spec(spec) for spec in self._specs],),
            f"repro-replica-{index}")
        if self._store is not None:
            # A process that held this index before can never ack a
            # release: drop it from every generation so retirements it was
            # party to drain, then attach the new process as a reader of
            # what it just received.
            self._store.drop_reader(index)
            for spec in self._specs:
                self._store.attach_reader(self._tables[spec.name][0], index)
        return handle

    def close(self) -> None:
        """Shut every replica down, then unlink the pool's segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        ipc.shutdown(handles)
        if self._store is not None:
            self._store.close()

    # ------------------------------------------------------------------ #
    # datasets
    # ------------------------------------------------------------------ #
    def register(self, spec: DatasetSpec) -> None:
        """Give every replica a dataset; the first one starts the replicas.

        A name the pool already holds is rejected: replicas keep the first
        pipeline of a name, so a second spec could only disagree with it.
        """
        with self._register_lock:
            if any(one.name == spec.name for one in self._specs):
                raise ConfigurationError(
                    f"dataset {spec.name!r} is already registered")
            self._ensure_running()
            if self._store is not None:
                self._publish_table(spec.name, spec.table)
            with self._lock:
                # Checked again under the lock close() takes, so no replica
                # can spawn after the pool has shut its replicas down.
                self._ensure_running()
                self._specs.append(spec)
                first = not self._handles
                if first:
                    self._handles = [self._spawn(index)
                                     for index in range(self.n_workers)]
            if first:
                # Replicas build (and warm) their pipelines concurrently;
                # return once each serves, so no request queues behind that.
                for handle in self._handles:
                    ipc.request(handle, "ping", None, REQUEST_TIMEOUT)
                return
            payload = self._worker_spec(spec)
            for handle in self._handles:
                self._dispatch(handle.index, "register", payload)
                if self._store is not None:
                    self._store.attach_reader(self._tables[spec.name][0],
                                              handle.index)

    def update(self, dataset: str, table: Table,
               rows: Optional[Sequence[Mapping]] = None) -> None:
        """Replace a dataset's table on every replica, under a new version.

        ``rows`` are the rows ``table`` appended to the old table: on the
        copy path only they cross the pipes, and every replica merges them
        itself.  With the frame store the merged table is published as a
        new generation that replicas attach; the old generation, and every
        hot-frame generation (they encode the old rows), retire.
        """
        position = next(index for index, spec in enumerate(self._specs)
                        if spec.name == dataset)
        spec = replace(self._specs[position], table=table)
        if self._store is None:
            payload = (dataset, rows, None if rows is not None else spec)
            for handle in self._handles:
                self._dispatch(handle.index, "update", payload)
            # After the broadcast: a replica respawned during it starts
            # from the old table, and the retried op appends the rows.
            self._specs[position] = spec
            return
        old_generation = self._tables[dataset][0]
        self._publish_table(dataset, table)
        self._specs[position] = spec
        generation = self._tables[dataset][0]
        payload = (dataset, None, self._worker_spec(spec))
        for handle in self._handles:
            self._dispatch(handle.index, "update", payload)
            self._store.attach_reader(generation, handle.index)
        self._retire_frames()
        self._ref_contexts.pop(dataset, None)
        for handle in self._handles:
            self._store.detach_reader(old_generation, handle.index)
        self._store.retire(old_generation)

    def bump(self) -> None:
        """Bump every replica's dataset versions; retire published frames.

        A replica found dead here is restarted: its replacement starts
        from empty caches, which is the invalidated state.
        """
        for handle in self._handles:
            self._dispatch(handle.index, "bump", None)
        if self._store is not None:
            self._retire_frames()

    def _publish_table(self, dataset: str, table: Table) -> None:
        """Publish ``table`` under a fresh shm generation of ``dataset``."""
        with self._lock:
            self._table_epoch += 1
            generation = ("table", dataset, self._table_epoch)
        manifest = self._store.put_table(generation, dataset, table)
        self._tables[dataset] = (generation, manifest)

    def _worker_spec(self, spec: DatasetSpec) -> DatasetSpec:
        """The spec a replica receives: manifest-backed with the store on."""
        if self._store is None:
            return spec
        return replace(spec, table=None, manifest=self._tables[spec.name][1])

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def route(self, key: Tuple) -> int:
        """The replica a version-free canonical key routes to.

        Stable across processes and restarts, so a key always finds the
        replica whose caches hold its work.
        """
        return stable_key_digest(key) % self.n_workers

    def explain_many(self, index: int, dataset: str, queries: Sequence,
                     k: Optional[int]) -> List[ExplanationEnvelope]:
        """Explain a batch on replica ``index``; envelopes in query order."""
        with self._lock:
            self.requests += 1
        blob = self._dispatch(index, "explain_many",
                              (dataset, list(queries), k))
        return [ExplanationEnvelope.from_dict(one) for one in json.loads(blob)]

    def _dispatch(self, index: int, op: str, payload) -> Any:
        """Send one op to a replica; restart a dead one and retry once."""
        self._ensure_running()
        handle = self._handles[index]
        generation = handle.generation
        try:
            return ipc.request(handle, op, payload, REQUEST_TIMEOUT)
        except ipc.WorkerDiedError:
            self._restart(index, generation)
            with self._lock:
                self.request_retries += 1
            return ipc.request(handle, op, payload, REQUEST_TIMEOUT)

    def _restart(self, index: int, observed_generation: int) -> None:
        """Respawn a dead replica (once per observed death).

        Its last stats snapshot folds into the base so lifetime counters
        stay monotonic; the fresh process re-adopts the published frames,
        since adoption state died with the old one.
        """
        handle = self._handles[index]
        with handle.lock:
            last_stats = handle.last_stats
            if not ipc.respawn(handle, observed_generation, self._spawn,
                               self._closed):
                return  # another thread already replaced this process
            with self._lock:
                for name, context in (last_stats or {}).get(
                        "contexts", {}).items():
                    fold_context(self._stats_base.setdefault(name, {}),
                                 context)
                frames = list(self._frame_manifests.items())
                epoch = self._frame_epoch
                self.worker_restarts += 1
            for (dataset, _frame_key), manifest in frames:
                ipc.request_locked(handle, "adopt_frame", (dataset, manifest),
                                   REQUEST_TIMEOUT)
                self._store.attach_reader(("frames", dataset, epoch), index)

    def _ensure_running(self) -> None:
        if not self._started:
            raise ConfigurationError("ReplicaPool.start() has not been called")
        if self._closed:
            raise ConfigurationError("ReplicaPool is closed")

    # ------------------------------------------------------------------ #
    # hot frames
    # ------------------------------------------------------------------ #
    def publish_frames(self, dataset: str, queries: Sequence) -> None:
        """Encode the context frames of ``queries`` once; replicas adopt them.

        A no-op without the frame store.  Idempotent per (dataset, frame
        identity): a second pass re-sends existing manifests (restarted
        replicas need them) without re-encoding.  The encodes run on the
        pool's reference contexts, never on a replica or the front's
        pipeline, so they fold into no engine counter.
        """
        spec = next((one for one in self._specs if one.name == dataset), None)
        if self._store is None or spec is None or not queries:
            return
        config = spec.config or MESAConfig()
        excluded = set(config.excluded_columns or ())
        generation = ("frames", dataset, self._frame_epoch)
        published: Dict[Tuple, Any] = {}
        for query in queries:
            frame_key = (config.hops, config.n_bins,
                         canonical_predicate_key(query.context))
            manifest = self._frame_manifests.get((dataset, frame_key))
            if manifest is None:
                context_table, frame, _ = self._ref_context(spec).context_frame(
                    query.context, hops=config.hops, n_bins=config.n_bins)
                # Encode every column the engine can ask for up front, so
                # replicas never fall back to a local factorise for one the
                # published frame happens not to carry.  Excluded columns
                # are the exception — the engine never factorises them
                # (and on wide tables they are the bulk of the schema), so
                # publishing their codes would cost shm bytes and warm
                # time for arrays nobody reads.  An adopted frame still
                # encodes any unpublished column lazily from its table
                # views, so this is a size choice, not a correctness one.
                names = [name for name in context_table.column_names
                         if name not in excluded]
                for name in names:
                    frame.codes(name)
                manifest = self._store.put_frame(generation, dataset,
                                                 frame_key, frame, names)
                self._frame_manifests[(dataset, frame_key)] = manifest
            published[frame_key] = manifest
        for manifest in published.values():
            for handle in self._handles:
                self._dispatch(handle.index, "adopt_frame",
                               (dataset, manifest))
                self._store.attach_reader(generation, handle.index)

    def _ref_context(self, spec: DatasetSpec) -> PipelineContext:
        """The owner's reference context for ``spec`` (built lazily)."""
        context = self._ref_contexts.get(spec.name)
        if context is None:
            context = PipelineContext(spec.table, spec.knowledge_graph,
                                      spec.extraction_specs)
            self._ref_contexts[spec.name] = context
        return context

    def _retire_frames(self) -> None:
        """Retire every published frame generation (refcounted unlink).

        Each replica releases its attachments (the ack detaches it as a
        reader), the epoch advances so later publications never collide
        with a generation still draining, and the store unlinks as readers
        reach zero: ``/dev/shm`` is freed even though late readers finish
        on their old, still mapped, views.
        """
        with self._lock:
            manifests = list(self._frame_manifests.values())
            self._frame_manifests.clear()
            epoch = self._frame_epoch
            self._frame_epoch += 1
        segments = sorted({segment for manifest in manifests
                           for segment in manifest.segments})
        generations = [key for key in self._store.generations()
                       if key[0] == "frames" and key[-1] <= epoch]
        for handle in self._handles:
            self._dispatch(handle.index, "release_segments", segments)
            for generation in generations:
                self._store.detach_reader(generation, handle.index)
        for generation in generations:
            self._store.retire(generation)
        # The reference contexts' frame caches hold the published arrays
        # alive; drop them with the generation.
        for context in self._ref_contexts.values():
            context.bump_dataset_version()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Pool counters, per-replica snapshots and their folded contexts.

        ``contexts`` sums every live replica's engine counters and stage
        seconds over the base folded from dead ones.  A replica busy with
        a long batch answers with its last snapshot, marked ``stale``.
        """
        workers: Dict[str, Any] = {}
        if self._started and not self._closed:
            workers = ipc.probe_stats(self._handles, REQUEST_TIMEOUT,
                                      {"role": "replica"})
        for handle, snapshot in zip(self._handles, workers.values()):
            snapshot.setdefault("restarts", handle.restarts)
            snapshot.setdefault("alive", handle.alive())
        with self._lock:
            contexts: Dict[str, Dict[str, Any]] = {}
            for name, context in self._stats_base.items():
                fold_context(contexts.setdefault(name, {}), context)
            pool = {
                "start_method": self.start_method,
                "requests": self.requests,
                "worker_restarts": self.worker_restarts,
                "request_retries": self.request_retries,
                **self.liveness(),
            }
        for snapshot in workers.values():
            for name, context in snapshot.get("contexts", {}).items():
                fold_context(contexts.setdefault(name, {}), context)
        pool["frame_store"] = {"enabled": self._store is not None}
        if self._store is not None:
            pool["frame_store"].update(self._store.stats())
        return {"pool": pool, "workers": workers, "contexts": contexts}

    def liveness(self) -> Dict[str, int]:
        """The replica count and how many replica processes are alive."""
        return {"n_workers": self.n_workers,
                "workers_alive": sum(handle.alive()
                                     for handle in self._handles)}
