"""The shard coordinator: scatter work units, gather and merge partials.

:class:`ShardPool` owns N shard worker processes
(:mod:`repro.distributed.worker`) over the pipe transport of
:mod:`repro.distributed.ipc`.  It is the *data plane* only: the engine
(the coordinator side) keeps the table, the encodings, the search logic
and the entropy finalisation; the pool's job is to hold row slices in
worker memory and answer partial-count, permutation and IRLS-partial
requests for them.

**Contexts.**  Work is namespaced by *context* — one
``(dataset label, dataset version, hops, n_bins, context predicate)``
tuple, matching the engine's context-frame cache key.  Column slices are
shipped to a worker once per context and reused across every query that
hits the same context; a bounded LRU retires cold contexts (and their
worker-side slices), and version bumps age out stale ones naturally
because the version participates in the key.

**Restart.**  Worker state is a pure function of (shipped columns,
shipped relabels), so the pool heals like the engine replicas of
:class:`~repro.distributed.replicas.ReplicaPool`: a dead worker is
respawned blank, its per-context shipped bookkeeping is reset, and the
failed request is retried once — the prepare step re-ships whatever the
retried request needs.

**Shared memory.**  With ``frame_store=True`` the pool creates and owns
a :class:`~repro.shm.store.FrameStore`: each full column is published
into a shared segment **once per context** and every shard maps a
read-only view of its row range (zero copy).  Every context owns one
segment generation, retired when the context is dropped or evicted;
:meth:`ShardPool.close` closes the store, so no caller manages segments.

**Compaction.**  When a fused code space outgrows the dense-count budget,
compaction must be *global* (every shard must agree on the relabelling).
:meth:`ShardPool.compact` runs the two-phase protocol: workers report the
distinct fused values present in their slice, the coordinator merges them
into the sorted global support, and each worker receives only its own
values with their global ranks — ``O(local distinct)`` per worker, never
the full table.  Because :func:`repro.infotheory.kernel.compact_codes`
relabels in sorted order, the global relabelling induces the same
partition and label order as single-process compaction, so estimates are
unchanged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed import ipc
from repro.distributed.partition import row_ranges
from repro.distributed.worker import _shard_worker_main
from repro.exceptions import ConfigurationError
from repro.infotheory import permutation
from repro.missingness.logistic import (
    LogisticRegression,
    check_labels,
    drive_newton,
)
from repro.obs import trace
from repro.shm import FrameStore, shm_available

#: Retire the least-recently-used shard context beyond this many (matches
#: the engine's frame-cache budget — contexts past it are cold there too).
MAX_SHARD_CONTEXTS = 32

#: Seconds to wait for one shard reply before declaring the worker dead.
REQUEST_TIMEOUT = 600.0

#: A column provider maps a column key (``"p:attr"`` / ``"m:attr"`` /
#: ``"w:attr"``) to its full-length array; the pool slices per shard.
ColumnProvider = Callable[[str], np.ndarray]


@dataclass
class ShardContext:
    """Coordinator-side bookkeeping for one registered context."""

    key: Tuple
    n_rows: int
    ranges: List[Tuple[int, int]]
    #: Per worker: column keys already resident in that worker.
    shipped: List[set] = field(default_factory=list)
    #: Per worker: relabel tokens already resident in that worker.
    relabel_shipped: List[set] = field(default_factory=list)
    #: token -> {"steps": recipe, "merged": sorted global support}.
    relabels: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: recipe -> (token, cardinality) — one global compaction per recipe.
    compact_cache: Dict[Tuple, Tuple[str, int]] = field(default_factory=dict)
    #: column key -> ArrayRef for columns published to the frame store
    #: (shared-memory ship path; every shard views the same segment).
    published: Dict[str, Any] = field(default_factory=dict)


def recipe_columns(*step_lists: Optional[Sequence]) -> List[str]:
    """The column keys a set of fuse recipes (and weight lists) touch."""
    needed: List[str] = []
    seen = set()
    for steps in step_lists:
        if steps is None:
            continue
        for step in steps:
            if isinstance(step, str):
                key = step  # a bare weight-column key
            elif step[0] in ("col", "fuse"):
                key = step[1]
            else:
                continue
            if key not in seen:
                seen.add(key)
                needed.append(key)
    return needed


def recipe_tokens(*step_lists: Optional[Sequence]) -> List[str]:
    """The relabel tokens a set of fuse recipes reference."""
    tokens: List[str] = []
    for steps in step_lists:
        if steps is None:
            continue
        for step in steps:
            if not isinstance(step, str) and step[0] == "relabel" \
                    and step[1] not in tokens:
                tokens.append(step[1])
    return tokens


class ShardPool:
    """N stateful shard workers serving partial computations over row ranges.

    Parameters
    ----------
    n_shards:
        How many shard worker processes to spawn.
    start_method:
        ``"fork"`` / ``"spawn"``; ``None`` picks fork where the platform
        has it (:func:`~repro.distributed.ipc.resolve_start_method`).
    frame_store:
        Ship columns through a pool-owned shared-memory store instead of
        pickling slices down worker pipes (see **Shared memory** above);
        where POSIX shared memory is unusable the pool silently keeps the
        copy path.
    """

    def __init__(self, n_shards: int = 2,
                 start_method: Optional[str] = None,
                 frame_store: bool = False):
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        self.start_method = ipc.resolve_start_method(start_method)
        self.n_shards = n_shards
        self._store = FrameStore() if frame_store and shm_available() \
            else None
        self._handles: List[ipc.PipeWorkerHandle] = []
        self._contexts: "OrderedDict[Tuple, ShardContext]" = OrderedDict()
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._closed = False
        self._token_counter = 0
        self._fit_counter = 0
        self.requests = 0
        self.worker_restarts = 0
        self.request_retries = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ShardPool":
        """Spawn the shard workers and wait until all answer (idempotent)."""
        if self._started:
            return self
        if self._closed:
            raise ConfigurationError("ShardPool is closed")
        self._handles = [self._spawn(index) for index in range(self.n_shards)]
        self._executor = ThreadPoolExecutor(
            max_workers=self.n_shards,
            thread_name_prefix="repro-shard-pool")
        for handle in self._handles:
            ipc.request(handle, "ping", None, REQUEST_TIMEOUT)
        self._started = True
        return self

    def _spawn(self, index: int) -> ipc.PipeWorkerHandle:
        return ipc.start_worker(self.start_method, index, _shard_worker_main,
                                (index, self.n_shards),
                                f"repro-shard-worker-{index}")

    def close(self) -> None:
        """Shut every shard worker down, then unlink the pool's segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        ipc.shutdown(handles)
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # contexts
    # ------------------------------------------------------------------ #
    def context_handle(self, label: str, version: int, hops: int,
                       n_bins: int, context_key: Any,
                       n_rows: int) -> ShardContext:
        """Fetch or register the shard context of one encoded frame.

        The key mirrors the engine's context-frame cache key (plus the
        dataset label, since one pool may serve several datasets), so a
        frame-cache hit and a shard-context hit coincide and a dataset
        version bump retires both.
        """
        key = (str(label), int(version), int(hops), int(n_bins), context_key)
        evicted: List[ShardContext] = []
        with self._lock:
            ctx = self._contexts.get(key)
            if ctx is not None and ctx.n_rows == n_rows:
                self._contexts.move_to_end(key)
                return ctx
            ctx = ShardContext(
                key=key, n_rows=n_rows,
                ranges=row_ranges(n_rows, self.n_shards),
                shipped=[set() for _ in range(self.n_shards)],
                relabel_shipped=[set() for _ in range(self.n_shards)])
            self._contexts[key] = ctx
            self._contexts.move_to_end(key)
            while len(self._contexts) > MAX_SHARD_CONTEXTS:
                _, old = self._contexts.popitem(last=False)
                evicted.append(old)
        for old in evicted:
            self._broadcast_best_effort("drop_ctx", {"ctx": old.key})
            self._retire_ctx(old)
        return ctx

    def drop_all_contexts(self) -> None:
        """Forget every context, coordinator- and worker-side."""
        with self._lock:
            dropped = list(self._contexts.values())
            self._contexts.clear()
        self._broadcast_best_effort("clear", None)
        for old in dropped:
            self._retire_ctx(old)

    def _broadcast_best_effort(self, op: str, payload) -> None:
        for handle in self._handles:
            try:
                ipc.request(handle, op, payload, REQUEST_TIMEOUT)
            except Exception:
                continue

    # ------------------------------------------------------------------ #
    # transport: prepare-and-request with restart-and-retry
    # ------------------------------------------------------------------ #
    def _prepare_locked(self, ctx: ShardContext,
                        handle: ipc.PipeWorkerHandle,
                        columns: Sequence[str], tokens: Sequence[str],
                        provider: Optional[ColumnProvider]) -> None:
        """Ship whatever this worker is missing (caller holds its lock)."""
        index = handle.index
        missing = [key for key in columns if key not in ctx.shipped[index]]
        if missing:
            if provider is None:
                raise ConfigurationError(
                    f"worker {index} is missing columns {missing} and no "
                    f"provider was supplied")
            start, stop = ctx.ranges[index]
            if self._store is not None:
                # Zero-copy ship: publish each full column into shared
                # memory once per context, then hand this shard only the
                # refs — it maps a read-only view of its row range.
                refs = self._publish_refs(ctx, missing, provider)
                self._store.attach_reader(("shard", ctx.key), index)
                ipc.request_locked(
                    handle, "put_shm",
                    {"ctx": ctx.key,
                     "columns": {key: (refs[key], start, stop)
                                 for key in missing}},
                    REQUEST_TIMEOUT)
            else:
                payload = {key: np.ascontiguousarray(
                               provider(key)[start:stop])
                           for key in missing}
                ipc.request_locked(handle, "put",
                                   {"ctx": ctx.key, "columns": payload},
                                   REQUEST_TIMEOUT)
            ctx.shipped[index].update(missing)
        for token in tokens:
            if token in ctx.relabel_shipped[index]:
                continue
            spec = ctx.relabels.get(token)
            if spec is None:
                raise ConfigurationError(f"unknown relabel token {token!r}")
            local = ipc.request_locked(
                handle, "present", {"ctx": ctx.key, "steps": spec["steps"]},
                REQUEST_TIMEOUT)
            merged = spec["merged"]
            ranks = np.searchsorted(merged, local)
            ipc.request_locked(
                handle, "put_relabel",
                {"ctx": ctx.key, "token": token, "values": local,
                 "ranks": ranks},
                REQUEST_TIMEOUT)
            ctx.relabel_shipped[index].add(token)

    def _publish_refs(self, ctx: ShardContext, keys: Sequence[str],
                      provider: ColumnProvider) -> Dict[str, Any]:
        """Refs for ``keys``, publishing any not yet in shared memory.

        Serialised under the pool lock so concurrent per-shard prepares
        publish each column exactly once (segments are append-only per
        generation, so a duplicate publish would leak bytes until the
        context retires).
        """
        with self._lock:
            unpublished = [key for key in keys if key not in ctx.published]
            if unpublished:
                arrays = {key: np.ascontiguousarray(provider(key))
                          for key in unpublished}
                ctx.published.update(
                    self._store.put_arrays(("shard", ctx.key), arrays))
            return {key: ctx.published[key] for key in keys}

    def _retire_ctx(self, ctx: ShardContext) -> None:
        """Retire a dropped context's segment generation (if any)."""
        if self._store is None:
            return
        generation = ("shard", ctx.key)
        # The workers were already told to drop the context (best-effort);
        # unlink-with-live-maps semantics cover any shard that missed the
        # message — its views stay valid until it drops them.
        for index in range(self.n_shards):
            self._store.detach_reader(generation, index)
        self._store.retire(generation)

    def _run_on_worker(self, ctx: ShardContext, index: int, op: str,
                       payload, columns: Sequence[str],
                       tokens: Sequence[str],
                       provider: Optional[ColumnProvider],
                       retry: bool = True) -> Any:
        """Prepare, send, and — once, after a restart — retry one request."""
        for attempt in (0, 1):
            handle = self._handles[index]
            generation = handle.generation
            try:
                with handle.lock:
                    self._prepare_locked(ctx, handle, columns, tokens,
                                         provider)
                    with self._lock:
                        self.requests += 1
                    return ipc.request_locked(handle, op, payload,
                                              REQUEST_TIMEOUT)
            except ipc.WorkerDiedError:
                if not retry or attempt:
                    raise
                self._restart(index, generation)
                with self._lock:
                    self.request_retries += 1
        raise AssertionError("unreachable")  # pragma: no cover

    def _restart(self, index: int, observed_generation: int) -> None:
        """Respawn a dead shard worker blank; shipped state re-ships lazily."""
        handle = self._handles[index]
        with handle.lock:
            if not ipc.respawn(handle, observed_generation, self._spawn,
                               self._closed):
                return  # another thread already replaced this process
            with self._lock:
                contexts = list(self._contexts.values())
                self.worker_restarts += 1
            # The fresh process holds nothing: every context must re-ship
            # to this worker before its next request.
            for ctx in contexts:
                ctx.shipped[index] = set()
                ctx.relabel_shipped[index] = set()
            if self._store is not None:
                # The dead process can never ack a release; drop it from
                # every generation so pending retirements drain.  The lazy
                # re-ship re-attaches the fresh process as a reader.
                self._store.drop_reader(index)

    def _scatter(self, ctx: ShardContext, op: str,
                 payload_for: Callable[[int], Any],
                 columns: Sequence[str], tokens: Sequence[str],
                 provider: Optional[ColumnProvider],
                 retry: bool = True) -> List[Any]:
        """Run one op on every shard concurrently; results in shard order."""
        self._ensure_running()
        if self.n_shards == 1:
            return [self._run_on_worker(ctx, 0, op, payload_for(0),
                                        columns, tokens, provider, retry)]
        # Executor threads inherit the caller's trace (if any) so the
        # per-shard rpc spans land in the request's tree.
        captured = trace.capture()
        futures = [
            self._executor.submit(trace.call_with_capture, captured,
                                  self._run_on_worker, ctx, index, op,
                                  payload_for(index), columns, tokens,
                                  provider, retry)
            for index in range(self.n_shards)]
        return [future.result() for future in futures]

    def _ensure_running(self) -> None:
        if not self._started:
            raise ConfigurationError("ShardPool.start() has not been called")
        if self._closed:
            raise ConfigurationError("ShardPool is closed")

    # ------------------------------------------------------------------ #
    # compute: counts
    # ------------------------------------------------------------------ #
    def counts(self, ctx: ShardContext, jobs: Sequence[Dict[str, Any]],
               provider: Optional[ColumnProvider] = None) -> List[np.ndarray]:
        """Merged count vectors for a batch of jobs (one round trip/worker).

        Each job is a dict with ``kind`` ``"cmi"`` or ``"joint"`` (an
        entropy is a ``"joint"`` job with ``given: None``) plus the recipes
        and global cardinalities (see :mod:`repro.distributed.worker`); the
        result holds, per job, the sum of the per-shard partial count
        vectors — ready for the ``*_from_counts`` finalisers.
        """
        step_lists: List[Any] = []
        for job in jobs:
            for fieldname in ("x", "y", "z", "target", "given"):
                step_lists.append(job.get(fieldname))
            step_lists.append(job.get("weights"))
        columns = recipe_columns(*step_lists)
        tokens = recipe_tokens(*step_lists)
        per_worker = self._scatter(
            ctx, "counts", lambda index: {"ctx": ctx.key, "jobs": list(jobs)},
            columns, tokens, provider)
        merged: List[np.ndarray] = []
        for position in range(len(jobs)):
            total = np.asarray(per_worker[0][position], dtype=np.float64).copy()
            for worker_result in per_worker[1:]:
                total += np.asarray(worker_result[position], dtype=np.float64)
            merged.append(total)
        return merged

    # ------------------------------------------------------------------ #
    # compute: global compaction
    # ------------------------------------------------------------------ #
    def compact(self, ctx: ShardContext, steps: Sequence,
                provider: Optional[ColumnProvider] = None) -> Tuple[str, int]:
        """Globally compact a fused recipe; returns ``(token, cardinality)``.

        Appending ``("relabel", token)`` to the recipe makes every shard
        relabel its fused codes onto the dense sorted global support —
        the same labels single-process :func:`~repro.infotheory.kernel.
        compact_codes` would assign.
        """
        steps = tuple(steps)
        with self._lock:
            cached = ctx.compact_cache.get(steps)
        if cached is not None:
            return cached
        columns = recipe_columns(steps)
        tokens = recipe_tokens(steps)
        locals_per_shard = self._scatter(
            ctx, "present", lambda index: {"ctx": ctx.key, "steps": steps},
            columns, tokens, provider)
        merged = np.unique(np.concatenate(
            [np.asarray(local, dtype=np.int64)
             for local in locals_per_shard]
            + [np.zeros(0, dtype=np.int64)]))
        with self._lock:
            cached = ctx.compact_cache.get(steps)
            if cached is not None:
                return cached
            self._token_counter += 1
            token = f"t{self._token_counter}"
            ctx.relabels[token] = {"steps": steps, "merged": merged}
            card = max(1, len(merged))
            ctx.compact_cache[steps] = (token, card)
        return token, card

    # ------------------------------------------------------------------ #
    # compute: permutation rounds
    # ------------------------------------------------------------------ #
    def permutation_rounds(self, ctx: ShardContext, *,
                           x: Sequence, y: Sequence, z: Optional[Sequence],
                           n_x: int, n_y: int, n_z: int,
                           weights: Optional[Sequence[str]],
                           observed: float, n_permutations: int,
                           alpha: float, seed: int,
                           budget: "permutation.PermutationBudget",
                           provider: Optional[ColumnProvider] = None,
                           ) -> "permutation.PermutationOutcome":
        """Coordinator-driven permutation test over per-shard RNG streams.

        Each round requests a block of permutations from every shard in
        parallel; shard ``s`` permutes within its own strata, drawing
        permutation ``i`` from the deterministic stream
        ``derive_seed(seed, "shard", s, "chunk", i // CHUNK)`` — keyed by
        the *global permutation index*, not the round schedule, so the
        null sequence is a pure function of ``(seed, shard count)``.  The
        early-exit ramp changes only how many permutations each round
        requests, never which permutations are drawn.  The local test's
        pieces run every round: shards count with
        :func:`~repro.infotheory.permutation.block_partial_counts`, the
        coordinator sums their counts in shard order, merges their bounds
        by max and finalises with
        :func:`~repro.infotheory.permutation.null_cmis_from_counts`, and
        :func:`~repro.infotheory.permutation.run_permutation_blocks`
        drives the budgeted sequential decision, adaptive extension
        included.  Rounds are kept chunk-aligned so a stream chunk is only
        ever partially consumed at the global end: a worker always draws a
        chunk's permutations from the start of that chunk's stream, so
        under an adaptive budget every round *requests* a chunk-multiple
        (bounded look-ahead past the current target, counted in
        ``computed``) and an extension resumes at the next chunk boundary
        instead of re-drawing a half-consumed chunk.

        Returns a :class:`~repro.infotheory.permutation.PermutationOutcome`
        exactly like :func:`~repro.infotheory.permutation.
        blocked_permutation_test`.
        """
        chunk = permutation.EARLY_EXIT_INITIAL_BLOCK
        columns = recipe_columns(x, y, z, weights)
        tokens = recipe_tokens(x, y, z)

        def null_block(start: int, count: int) -> np.ndarray:
            payload = {"ctx": ctx.key, "x": x, "y": y, "z": z,
                       "n_x": n_x, "n_y": n_y, "n_z": n_z,
                       "weights": weights, "seed": seed,
                       "start": start, "chunk": chunk, "count": count,
                       "rng_stream": budget.rng_stream}
            partials = self._scatter(ctx, "perm", lambda index: payload,
                                     columns, tokens, provider)
            counts = np.asarray(partials[0][0], dtype=np.float64).copy()
            tops = partials[0][1]
            for part_counts, part_tops in partials[1:]:
                counts += part_counts
                tops = np.maximum(tops, part_tops)
            return permutation.null_cmis_from_counts(counts, tops,
                                                     n_x, n_y, n_z)

        return permutation.run_permutation_blocks(
            permutation.BudgetedSequentialTest(n_permutations, alpha, budget),
            observed,
            permutation.block_width(n_x * n_y * max(1, n_z), ctx.n_rows),
            null_block, align=chunk)

    # ------------------------------------------------------------------ #
    # compute: distributed IRLS
    # ------------------------------------------------------------------ #
    def fit_logistic_multi(self, ctx: ShardContext,
                           predictors: Sequence[str],
                           cards: Sequence[int],
                           labels_matrix: np.ndarray,
                           l2: float = 1e-3, max_iter: int = 50,
                           tol: float = 1e-8,
                           provider: Optional[ColumnProvider] = None,
                           ) -> List[LogisticRegression]:
        """Multi-label IRLS with per-shard normal-equation partials.

        Shards build identical-layout one-hot designs from their resident
        predictor slices (global ``cards`` pin the columns) and hold their
        label slice for the fit's duration; each Newton step scatters the
        active beta and gathers ``X'(s - p)`` / ``X'WX`` partials, which
        :func:`repro.missingness.logistic.drive_newton` — the loop the
        local fit runs — merges, penalises and solves.  Raises
        :class:`~repro.distributed.ipc.WorkerDiedError` if a shard dies
        mid-fit — per-fit worker state is not replayed; callers fall back
        to the local solver (they hold the full design already, for
        prediction).
        """
        labels_matrix = check_labels(labels_matrix)
        with self._lock:
            self._fit_counter += 1
            fit_id = f"f{self._fit_counter}"

        def begin_payload(index: int) -> Dict[str, Any]:
            start, stop = ctx.ranges[index]
            return {"ctx": ctx.key, "fit": fit_id,
                    "predictors": list(predictors), "cards": list(cards),
                    "labels": labels_matrix[start:stop]}

        widths = self._scatter(ctx, "irls_begin", begin_payload,
                               list(predictors), (), provider)
        n_coefficients = int(widths[0])
        if any(int(width) != n_coefficients for width in widths):
            raise ConfigurationError(
                f"shards disagree on design width: {widths}")

        def step(beta_active: np.ndarray,
                 active_idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            payload = {"ctx": ctx.key, "fit": fit_id, "beta": beta_active,
                       "active": active_idx}
            # No restart-and-retry: a respawned worker has no fit state,
            # so a mid-fit death aborts the distributed fit (callers fall
            # back to the local solver).
            parts = self._scatter(ctx, "irls_step", lambda index: payload,
                                  (), (), provider, retry=False)
            gradients = np.asarray(parts[0][0], dtype=np.float64).copy()
            hessians = np.asarray(parts[0][1], dtype=np.float64).copy()
            for part in parts[1:]:
                gradients += np.asarray(part[0], dtype=np.float64)
                hessians += np.asarray(part[1], dtype=np.float64)
            return gradients, hessians

        try:
            return drive_newton(step, labels_matrix, n_coefficients,
                                l2=l2, max_iter=max_iter, tol=tol)
        finally:
            for handle in self._handles:
                try:
                    ipc.request(handle, "irls_end",
                                {"ctx": ctx.key, "fit": fit_id},
                                REQUEST_TIMEOUT)
                except Exception:
                    continue

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Per-shard snapshots plus pool counters (busy workers go stale)."""
        workers: Dict[str, Any] = {}
        if self._started and not self._closed:
            workers = ipc.probe_stats(self._handles, REQUEST_TIMEOUT,
                                      {"role": "row-shard"})
        for handle, snapshot in zip(self._handles, workers.values()):
            snapshot.setdefault("restarts", handle.restarts)
            snapshot.setdefault("alive", handle.alive())
        with self._lock:
            front = {
                "n_shards": self.n_shards,
                "start_method": self.start_method,
                "contexts": len(self._contexts),
                "requests": self.requests,
                "worker_restarts": self.worker_restarts,
                "request_retries": self.request_retries,
                **self.liveness(),
            }
        front["frame_store"] = {"enabled": self._store is not None}
        if self._store is not None:
            front["frame_store"].update(self._store.stats())
        return {"pool": front, "workers": workers}

    def liveness(self) -> Dict[str, int]:
        """The shard count and how many shard processes are alive (the
        keys a replica pool reports too)."""
        return {"n_workers": self.n_shards,
                "workers_alive": sum(handle.alive()
                                     for handle in self._handles)}
