"""The shard worker: one row range, recipe-driven partial computations.

A shard worker statefully holds, per registered *context* (one dataset +
context-predicate encoding), only the base column slices the coordinator
has shipped it — integer code arrays and IPW weight vectors for its row
range, ``O(rows / N)`` memory per column.  Every compute request carries a
*recipe*: the ordered fuse steps (and optional compaction relabels) that
turn base columns into the fused conditioning codes of one term.  Workers
fuse on the fly (``O(k · n/N)`` per request — cheap next to the counts
themselves) instead of caching fused arrays, which keeps worker state
trivially reconstructible after a restart: respawn blank, let the
coordinator re-ship lazily, retry.

Recipes are lists of steps:

* ``("col", key)`` — start from the stored base column ``key``;
* ``("fuse", key, extra_card)`` — extend by one variable
  (:func:`repro.infotheory.kernel.fuse_codes` place-value arithmetic);
* ``("relabel", token)`` — apply a coordinator-computed global compaction
  (see :meth:`repro.distributed.coordinator.ShardPool.compact`).

Column keys are namespaced by encoding: ``"p:attr"`` for plain codes,
``"m:attr"`` for missing-as-category codes, ``"w:attr"`` for an IPW
weight vector — mirroring the two code views of
:class:`repro.infotheory.encoding.EncodedFrame`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.distributed.ipc import serve_pipe
from repro.exceptions import ConfigurationError
from repro.infotheory import kernel, permutation
from repro.missingness.logistic import (
    logistic_partials,
    one_hot_encode_codes,
)
from repro.utils.rng import spawn_rng


class ShardStore:
    """Per-worker state: base column slices and IRLS designs by context."""

    def __init__(self, shard_index: int, n_shards: int):
        self.shard_index = shard_index
        self.n_shards = n_shards
        #: ctx id -> {"columns": {key: array}, "relabels": {token: (values,
        #: ranks)}, "fits": {fit id: {"design", "labels"}}, "n_rows": int}
        self.contexts: Dict[Any, Dict[str, Any]] = {}
        self.peak_resident_rows = 0

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #
    def context(self, ctx: Any) -> Dict[str, Any]:
        entry = self.contexts.get(ctx)
        if entry is None:
            entry = {"columns": {}, "relabels": {}, "fits": {}, "n_rows": 0}
            self.contexts[ctx] = entry
        return entry

    def put_columns(self, ctx: Any, columns: Dict[str, np.ndarray]) -> int:
        entry = self.context(ctx)
        for key, values in columns.items():
            entry["columns"][key] = np.asarray(values)
            entry["n_rows"] = len(values)
        self.peak_resident_rows = max(self.peak_resident_rows,
                                      self.resident_rows())
        return entry["n_rows"]

    def put_shm_columns(self, ctx: Any, columns: Dict[str, Any]) -> int:
        """Map shared-segment column slices as read-only views (zero copy).

        ``columns`` maps a column key to ``(ArrayRef, start, stop)``: the
        full column lives in a shared segment published by the
        coordinator, and this shard views only its row range.  A 1-D slice
        of a view is itself a view, so resident bytes stay O(attached
        segments), not O(rows x columns) per shard.
        """
        from repro.shm.segments import attachments

        cache = attachments()
        entry = self.context(ctx)
        segments = entry.setdefault("segments", set())
        for key, (ref, start, stop) in columns.items():
            view = cache.attach(ref)[start:stop]
            entry["columns"][key] = view
            entry["n_rows"] = len(view)
            segments.add(ref.segment)
        self.peak_resident_rows = max(self.peak_resident_rows,
                                      self.resident_rows())
        return entry["n_rows"]

    def put_relabel(self, ctx: Any, token: str, values: np.ndarray,
                    ranks: np.ndarray) -> None:
        self.context(ctx)["relabels"][token] = (
            np.asarray(values, dtype=np.int64),
            np.asarray(ranks, dtype=np.int64))

    def drop_context(self, ctx: Any) -> None:
        entry = self.contexts.pop(ctx, None)
        if entry is not None:
            self._release_segments(entry.get("segments", ()))

    def clear(self) -> None:
        entries = list(self.contexts.values())
        self.contexts.clear()
        released = set()
        for entry in entries:
            released.update(entry.get("segments", ()))
        self._release_segments(released)

    def _release_segments(self, dropped) -> None:
        """Detach segments no surviving context still views."""
        if not dropped:
            return
        still_needed = set()
        for entry in self.contexts.values():
            still_needed.update(entry.get("segments", ()))
        stale = set(dropped) - still_needed
        if stale:
            from repro.shm.segments import attachments

            attachments().release(stale)

    def resident_rows(self) -> int:
        """Total rows resident across contexts (one context = one slice)."""
        return sum(entry["n_rows"] for entry in self.contexts.values())

    # ------------------------------------------------------------------ #
    # recipe evaluation
    # ------------------------------------------------------------------ #
    def column(self, ctx: Any, key: str) -> np.ndarray:
        entry = self.contexts.get(ctx)
        if entry is None or key not in entry["columns"]:
            # A restarted worker lost its shipped state; the coordinator's
            # retry path re-ships on this signal.
            raise ConfigurationError(
                f"shard {self.shard_index} is missing column {key!r} "
                f"for context {ctx!r}")
        return entry["columns"][key]

    def build(self, ctx: Any, steps: Optional[Sequence]) -> Optional[np.ndarray]:
        """Evaluate a fuse recipe over this shard's column slices."""
        if steps is None:
            return None
        fused: Optional[np.ndarray] = None
        for step in steps:
            kind = step[0]
            if kind == "col":
                fused = np.asarray(self.column(ctx, step[1]), dtype=np.int64)
            elif kind == "fuse":
                if fused is None:
                    raise ConfigurationError(
                        "fuse recipe must start with a 'col' step")
                extra = np.asarray(self.column(ctx, step[1]), dtype=np.int64)
                fused, _ = kernel.fuse_codes(fused, 0, extra, step[2])
            elif kind == "relabel":
                if fused is None:
                    raise ConfigurationError(
                        "fuse recipe must start with a 'col' step")
                entry = self.contexts.get(ctx) or {"relabels": {}}
                relabel = entry["relabels"].get(step[1])
                if relabel is None:
                    raise ConfigurationError(
                        f"shard {self.shard_index} is missing relabel "
                        f"{step[1]!r} for context {ctx!r}")
                values, ranks = relabel
                out = np.full(len(fused), -1, dtype=np.int64)
                present = fused >= 0
                positions = np.searchsorted(values, fused[present])
                out[present] = ranks[positions]
                fused = out
            else:
                raise ConfigurationError(f"unknown recipe step {step!r}")
        return fused

    def weights(self, ctx: Any,
                keys: Optional[Sequence[str]]) -> Optional[np.ndarray]:
        """Element-wise product of shipped weight vectors (None for none)."""
        if not keys:
            return None
        product = np.asarray(self.column(ctx, keys[0]),
                             dtype=np.float64).copy()
        for key in keys[1:]:
            product *= np.asarray(self.column(ctx, key), dtype=np.float64)
        return product


def _attachment_stats() -> Dict[str, int]:
    """This process's shared-segment attachment counters (observability)."""
    from repro.shm.segments import attachments

    return attachments().stats()


def _serve_counts_job(store: ShardStore, ctx: Any,
                      job: Dict[str, Any]) -> np.ndarray:
    """One partial-counts work unit (returned raveled; merged upstream)."""
    kind = job["kind"]
    weights = store.weights(ctx, job.get("weights"))
    if kind == "cmi":
        counts = kernel.cmi_counts(
            store.build(ctx, job["x"]), store.build(ctx, job["y"]),
            store.build(ctx, job.get("z")),
            n_x=job["n_x"], n_y=job["n_y"], n_z=job.get("n_z", 1),
            weights=weights)
        return counts.ravel()
    if kind == "joint":
        counts = kernel.joint_counts(
            store.build(ctx, job["target"]), store.build(ctx, job.get("given")),
            n_target=job["n_target"], n_given=job.get("n_given", 1),
            weights=weights)
        return counts.ravel()
    raise ConfigurationError(f"unknown counts job kind {kind!r}")


def _shard_worker_main(conn, shard_index: int, n_shards: int) -> None:
    """The shard worker process body: a request/response loop over ops."""
    store = ShardStore(shard_index, n_shards)

    def serve_one(op: str, payload):
        if op == "counts":
            ctx = payload["ctx"]
            return [_serve_counts_job(store, ctx, job)
                    for job in payload["jobs"]]
        if op == "perm":
            # Permutation i draws from the stream of fixed-size chunk
            # i // chunk, so the null sequence depends only on (seed,
            # shard count) — never on how the coordinator batches rounds.
            ctx = payload["ctx"]
            x = store.build(ctx, payload["x"])
            y = store.build(ctx, payload["y"])
            z = store.build(ctx, payload["z"])
            if z is None:
                z = np.zeros(len(x), dtype=np.int64)
            plan = permutation.PermutationPlan(z)
            weights = store.weights(ctx, payload["weights"])
            start, chunk, count = (payload["start"], payload["chunk"],
                                   payload["count"])
            counts, tops = [], []
            produced = 0
            while produced < count:
                index = start + produced
                take = min(chunk - index % chunk, count - produced)
                rng = spawn_rng(payload["seed"], "shard", shard_index,
                                "chunk", index // chunk)
                chunk_counts, chunk_tops = permutation.block_partial_counts(
                    plan, x, y, z, payload["n_x"], payload["n_y"],
                    payload["n_z"], weights, rng, take,
                    rng_stream=payload["rng_stream"])
                counts.append(chunk_counts)
                tops.append(chunk_tops)
                produced += take
            return np.concatenate(counts), np.concatenate(tops)
        if op == "present":
            fused = store.build(payload["ctx"], payload["steps"])
            return np.unique(fused[fused >= 0])
        if op == "put":
            return store.put_columns(payload["ctx"], payload["columns"])
        if op == "put_shm":
            return store.put_shm_columns(payload["ctx"], payload["columns"])
        if op == "put_relabel":
            store.put_relabel(payload["ctx"], payload["token"],
                              payload["values"], payload["ranks"])
            return None
        if op == "irls_begin":
            ctx = payload["ctx"]
            entry = store.context(ctx)
            slices = [store.column(ctx, key) for key in payload["predictors"]]
            features = one_hot_encode_codes(slices, cards=payload["cards"])
            design = np.hstack([np.ones((len(features), 1)), features])
            entry["fits"][payload["fit"]] = {
                "design": design,
                "labels": np.asarray(payload["labels"], dtype=np.float64),
                "totals": np.ones(len(design)),
            }
            return design.shape[1]
        if op == "irls_step":
            entry = store.context(payload["ctx"])
            fit = entry["fits"].get(payload["fit"])
            if fit is None:
                raise ConfigurationError(
                    f"shard {shard_index} has no IRLS fit {payload['fit']!r}")
            active = np.asarray(payload["active"], dtype=np.int64)
            return logistic_partials(fit["design"],
                                     fit["labels"][:, active],
                                     payload["beta"], fit["totals"])
        if op == "irls_end":
            entry = store.contexts.get(payload["ctx"])
            if entry is not None:
                entry["fits"].pop(payload["fit"], None)
            return None
        if op == "drop_ctx":
            store.drop_context(payload["ctx"])
            return None
        if op == "clear":
            store.clear()
            return None
        if op == "stats":
            from repro.obs.metrics import process_maxrss_kb

            # VmHWM, not ru_maxrss: a spawn-started shard inherits the
            # parent's rusage peak on Linux, which would report the
            # coordinator's footprint as the shard's.
            maxrss_kb = process_maxrss_kb()
            rows = store.resident_rows()
            return {
                "role": "row-shard",
                "shard_index": shard_index,
                "n_shards": n_shards,
                "contexts": len(store.contexts),
                "resident_rows": rows,
                "peak_resident_rows": max(store.peak_resident_rows, rows),
                "max_context_rows": max(
                    (entry["n_rows"] for entry in store.contexts.values()),
                    default=0),
                "resident_columns": sum(
                    len(entry["columns"])
                    for entry in store.contexts.values()),
                "maxrss_kb": maxrss_kb,
                "frame_store": _attachment_stats(),
            }
        if op == "ping":
            return "pong"
        raise ConfigurationError(f"unknown shard op {op!r}")

    try:
        serve_pipe(conn, serve_one, span_prefix="shard")
    finally:
        conn.close()
