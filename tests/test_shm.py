"""Tests for the shared-memory frame store (:mod:`repro.shm`).

Three layers, three guarantees:

* **Segments and manifests** — a table or frame rebuilt from a manifest
  is observationally identical to the original, every view is read-only,
  and the rebuild is deterministic (re-encoding a rebuilt categorical
  column reproduces the owner's codes).
* **Lifecycle** — retirement unlinks exactly the retired generation, and
  only once its readers drain; readers racing a retirement finish on
  their old (still mapped) views; a SIGKILLed attacher never takes the
  segment down with it (the bpo-38119 resource-tracker asymmetry).
* **Serving** — a service over frame-store replicas serves
  byte-identical envelopes to the same topology with the store off,
  ``warm()`` encodes each hot context once in the owner, ``clear_cache()``
  retires frame segments while the dataset segments live on, and
  ``/dev/shm`` is clean after ``close()`` — even when a replica died by
  SIGKILL in between.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.mesa.config import MESAConfig
from repro.query.aggregate_query import AggregateQuery
from repro.distributed import ReplicaPool
from repro.serving import ExplanationService, LocalClient
from repro.shm import (
    FrameStore,
    frame_from_manifest,
    shm_available,
    table_from_manifest,
)
from repro.shm.segments import (
    SegmentAttachments,
    attach_untracked,
    create_segment,
)
from repro.table.expressions import Gt
from repro.table.table import Table

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="POSIX shared memory unavailable")

DATASET = "SO"


def _shm_entries() -> set:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro_shm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux shm mount
        return set()


def _config(bundle) -> MESAConfig:
    return MESAConfig(excluded_columns=tuple(bundle.id_columns), k=3)


def _queries():
    return [
        AggregateQuery(exposure="Country", outcome="Salary", aggregate="avg",
                       context=Gt("YearsCode", 3), table_name=DATASET,
                       name="shm-q1"),
        AggregateQuery(exposure="EdLevel", outcome="Salary", aggregate="avg",
                       context=Gt("Age", 25), table_name=DATASET,
                       name="shm-q2"),
    ]


# --------------------------------------------------------------------------- #
# segments and manifests
# --------------------------------------------------------------------------- #
class TestSegments:
    def test_roundtrip_views_are_read_only(self):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 37),
            "c": np.array([True, False, True]),
        }
        shm, refs, size = create_segment(arrays)
        try:
            cache = SegmentAttachments()
            for key, original in arrays.items():
                view = cache.attach(refs[key])
                np.testing.assert_array_equal(view, original)
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0] = 0
            assert cache.stats()["attached_segments"] == 1
            assert size >= sum(a.nbytes for a in arrays.values())
            cache.release_all()
        finally:
            shm.close()
            shm.unlink()

    def test_object_arrays_are_rejected(self):
        with pytest.raises(TypeError):
            create_segment({"bad": np.array(["a", None], dtype=object)})

    def test_force_unavailable_hook(self, monkeypatch):
        from repro.shm import segments

        monkeypatch.setattr(segments, "FORCE_UNAVAILABLE", True)
        assert not shm_available()
        with pytest.raises(RuntimeError):
            create_segment({"a": np.zeros(4)})


class TestManifests:
    def _table(self) -> Table:
        return Table.from_columns({
            "num": [1.5, None, 3.0, 4.25, 5.0],
            "count": [1, 2, None, 4, 5],
            "cat": ["x", "y", None, "x", "z"],
            "flag": [True, None, False, True, True],
        }, name="mixed")

    def test_table_roundtrip_is_observationally_identical(self):
        table = self._table()
        store = FrameStore()
        try:
            manifest = store.put_table(("table", "d"), "d", table)
            cache = SegmentAttachments()
            rebuilt = table_from_manifest(manifest, cache=cache)
            assert rebuilt.n_rows == table.n_rows
            assert rebuilt.column_names == table.column_names
            for name in table.column_names:
                original = table.column(name)
                column = rebuilt.column(name)
                assert column.dtype == original.dtype
                assert column.to_list() == original.to_list()
                # Deterministic factorisation: the rebuilt column encodes
                # to the owner's exact codes (envelope byte-equality rides
                # on this).
                own_codes, own_cats = original.codes()
                new_codes, new_cats = column.codes()
                np.testing.assert_array_equal(new_codes, own_codes)
                assert new_cats == own_cats
        finally:
            store.close()
        assert not _shm_entries()

    def test_numeric_views_read_only_and_zero_copy(self):
        table = self._table()
        store = FrameStore()
        try:
            manifest = store.put_table(("table", "d"), "d", table)
            cache = SegmentAttachments()
            rebuilt = table_from_manifest(manifest, cache=cache)
            values = rebuilt.column("num").values
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 99.0
            # Zero copy: the numeric storage IS the shared buffer.
            assert cache.stats()["attached_segments"] == 1
        finally:
            store.close()

    def test_frame_manifest_row_mismatch_raises(self):
        table = self._table()
        from repro.infotheory.encoding import EncodedFrame

        frame = EncodedFrame(table, n_bins=4)
        for name in table.column_names:
            frame.codes(name)
        store = FrameStore()
        try:
            manifest = store.put_frame(("frames", "d", 0), "d",
                                       (1, 4, "ctx"), frame,
                                       table.column_names)
            shorter = table.filter(np.array([True, True, False, True, True]))
            with pytest.raises(ValueError):
                frame_from_manifest(manifest, shorter,
                                    cache=SegmentAttachments())
            rebuilt = frame_from_manifest(manifest, self._table(),
                                          cache=SegmentAttachments())
            for name in table.column_names:
                np.testing.assert_array_equal(rebuilt.codes(name),
                                              frame.codes(name))
                assert rebuilt.categories(name) == frame.categories(name)
                assert not rebuilt.codes(name).flags.writeable
            # missing_as_category works on read-only adopted codes (the
            # remap copies first).
            remapped = rebuilt.codes("cat", missing_as_category=True)
            assert (remapped >= 0).all()
        finally:
            store.close()


# --------------------------------------------------------------------------- #
# lifecycle: generations, refcounts, unlink
# --------------------------------------------------------------------------- #
class TestFrameStoreLifecycle:
    def test_retirement_unlinks_exactly_the_retired_generation(self):
        store = FrameStore()
        try:
            before = _shm_entries()
            refs_old = store.put_arrays(("frames", "d", 0),
                                        {"a": np.arange(64)})
            refs_new = store.put_arrays(("frames", "d", 1),
                                        {"a": np.arange(64) * 2})
            old_seg, new_seg = refs_old["a"].segment, refs_new["a"].segment
            store.attach_reader(("frames", "d", 0), 0)
            store.attach_reader(("frames", "d", 1), 0)

            store.retire(("frames", "d", 0))
            # Reader still attached: nothing unlinks yet.
            assert old_seg in _shm_entries() - before
            store.detach_reader(("frames", "d", 0), 0)
            # Drained: exactly the retired generation unlinks.
            live = _shm_entries() - before
            assert old_seg not in live
            assert new_seg in live
            assert store.generations() == [("frames", "d", 1)]
            assert store.stats()["segments_unlinked"] == 1
        finally:
            store.close()
        assert not _shm_entries() - before

    def test_readers_finish_on_old_views_after_unlink(self):
        store = FrameStore()
        cache = SegmentAttachments()
        try:
            refs = store.put_arrays(("frames", "d", 0),
                                    {"a": np.arange(1000, dtype=np.int64)})
            view = cache.attach(refs["a"])
            store.attach_reader(("frames", "d", 0), 0)
            store.retire(("frames", "d", 0))
            store.detach_reader(("frames", "d", 0), 0)
            # The name is gone from /dev/shm…
            assert refs["a"].segment not in _shm_entries()
            # …but the mid-bump reader's mapping is intact.
            assert int(view.sum()) == 499500
        finally:
            cache.release_all()
            store.close()

    def test_publish_under_retired_generation_raises(self):
        store = FrameStore()
        try:
            store.put_arrays(("frames", "d", 0), {"a": np.zeros(8)})
            store.retire(("frames", "d", 0))
            store.detach_reader(("frames", "d", 0), 0)  # no readers: unlinks
            # The generation is gone entirely — republishing under the
            # same key starts a fresh record, which is allowed…
            store.put_arrays(("frames", "d", 0), {"a": np.zeros(8)})
            # …but a retired-yet-draining generation refuses publications.
            store.attach_reader(("frames", "d", 0), 0)
            store.retire(("frames", "d", 0))
            with pytest.raises(RuntimeError):
                store.put_arrays(("frames", "d", 0), {"b": np.zeros(8)})
        finally:
            store.close()

    def test_close_is_idempotent_and_total(self):
        before = _shm_entries()
        store = FrameStore()
        store.put_arrays(("table", "d"), {"a": np.zeros(128)})
        store.attach_reader(("table", "d"), 0)  # close ignores readers
        store.close()
        store.close()
        assert not _shm_entries() - before
        with pytest.raises(RuntimeError):
            store.put_arrays(("table", "d"), {"a": np.zeros(8)})


def _attach_and_hang(segment_name: str, attached) -> None:
    """Child body: attach (untracked) to a segment, signal, then hang."""
    shm = attach_untracked(segment_name)
    view = np.ndarray(4, dtype=np.int64, buffer=shm.buf)
    assert int(view[0]) == 7
    attached.set()
    time.sleep(120)  # killed long before this returns


class TestSigkilledAttacher:
    def test_sigkilled_attacher_leaves_no_orphans_and_kills_nothing(self):
        """The resource-tracker asymmetry, end to end.

        A SIGKILLed process that merely *attached* must not unlink the
        owner's segment (its tracker never learned the name), and the
        owner's close must still leave ``/dev/shm`` clean afterwards —
        no orphans, no double-unlink crash.
        """
        before = _shm_entries()
        store = FrameStore()
        refs = store.put_arrays(("table", "d"),
                                {"a": np.full(4, 7, dtype=np.int64)})
        segment = refs["a"].segment
        ctx = multiprocessing.get_context("spawn")
        attached = ctx.Event()
        child = ctx.Process(target=_attach_and_hang,
                            args=(segment, attached), daemon=True)
        child.start()
        try:
            assert attached.wait(timeout=60), "child never attached"
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=30)
            # Give the child's resource tracker a moment to run its exit
            # cleanup — which must NOT include this segment.
            time.sleep(0.5)
            assert segment in _shm_entries(), \
                "SIGKILLed attacher unlinked the owner's segment"
        finally:
            if child.is_alive():  # pragma: no cover - kill failed
                child.terminate()
            store.close()
        assert not _shm_entries() - before


# --------------------------------------------------------------------------- #
# serving: a service over frame-store replicas, end to end
# --------------------------------------------------------------------------- #
def _replica_service(frame_store: bool, **pool_kwargs) -> ExplanationService:
    return ExplanationService(
        coalesce_window_seconds=0.0,
        pool=ReplicaPool(n_workers=2, frame_store=frame_store,
                         **pool_kwargs))


@pytest.fixture(scope="module")
def store_cluster(so_bundle):
    service = _replica_service(frame_store=True)
    service.register_bundle(so_bundle, config=_config(so_bundle), warm=False)
    with LocalClient(service) as client:
        yield service, client


class TestClusterFrameStore:
    def test_envelopes_identical_with_store_off(self, so_bundle,
                                                store_cluster):
        _, client = store_cluster
        assert client.stats()["frame_store"]["enabled"]
        queries = _queries()
        served = [client.explain(DATASET, query, k=3).envelope
                  for query in queries]
        plain = _replica_service(frame_store=False)
        plain.register_bundle(so_bundle, config=_config(so_bundle),
                              warm=False)
        with LocalClient(plain) as plain_client:
            for query, envelope in zip(queries, served):
                reference = plain_client.explain(DATASET, query,
                                                 k=3).envelope
                assert envelope.canonical_json() == \
                    reference.canonical_json()

    def test_warm_encodes_each_context_once_per_box(self, store_cluster):
        service, client = store_cluster
        # Contexts no earlier test touched: the replay below must either
        # adopt the published frames or re-encode — counters tell which.
        fresh = [
            AggregateQuery(exposure="Country", outcome="Salary",
                           aggregate="avg", context=Gt("YearsCode", 8),
                           table_name=DATASET, name="shm-warm1"),
            AggregateQuery(exposure="EdLevel", outcome="Salary",
                           aggregate="avg", context=Gt("Age", 32),
                           table_name=DATASET, name="shm-warm2"),
        ]
        before = client.stats()
        b = before["contexts"][DATASET]["counters"]
        published = before["frame_store"].get("frames_published", 0)
        service.warm(DATASET, queries=fresh)
        after = client.stats()
        # The owner encoded each fresh context exactly once…
        assert after["frame_store"]["frames_published"] == \
            published + len(fresh)
        a = after["contexts"][DATASET]["counters"]
        # …and the replaying replicas adopted those frames instead of
        # re-encoding: attaches moved, frame misses did not.
        assert a.get("frame_store_attach", 0) >= \
            b.get("frame_store_attach", 0) + len(fresh)
        assert a.get("frame_cache_misses", 0) == \
            b.get("frame_cache_misses", 0)
        # A second warm pass re-broadcasts without re-encoding.
        service.warm(DATASET, queries=fresh)
        assert client.stats()["frame_store"]["frames_published"] == \
            published + len(fresh)

    def test_clear_cache_retires_frames_keeps_dataset(self, store_cluster):
        service, client = store_cluster
        pool = service.pool
        queries = _queries()
        service.warm(DATASET, queries=queries)
        assert any(key[0] == "frames" for key in pool._store.generations())
        _generation, manifest = pool._tables[DATASET]
        table_segments = set(manifest.segments)
        assert table_segments
        service.clear_cache()
        # Frame generations retired and drained (replicas acked the
        # release); the dataset generation lives on — replicas still serve
        # from their table views.
        assert not any(key[0] == "frames"
                       for key in pool._store.generations())
        live = _shm_entries()
        assert table_segments <= live
        for query in queries:
            assert client.explain(DATASET, query,
                                  k=3).envelope.explanation.attributes

    def test_metrics_exposition_has_memory_gauges(self, store_cluster):
        from repro.obs.metrics import prometheus_text

        _, client = store_cluster
        text = prometheus_text(client.stats())
        assert "repro_shm_segments" in text
        assert "repro_shm_segment_bytes" in text
        assert "repro_worker_maxrss_bytes" in text
        assert "repro_frame_store_attach_total" in text
        assert 'repro_frame_store_enabled 1' in text

    def test_sigkilled_worker_leaves_store_intact(self, store_cluster):
        service, client = store_cluster
        pool = service.pool
        segments_before = _shm_entries()
        assert segments_before  # the table segment at minimum
        victim = pool._handles[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)
        time.sleep(0.5)
        # The dead replica only ever *attached*: every segment survives.
        assert segments_before <= _shm_entries()
        # And the pool restarts it on the next miss routed there.
        for attempt in range(64):
            query = dataclasses.replace(_queries()[0],
                                        name=f"shm-kill-{attempt}")
            served = client.explain(DATASET, query, k=3)
            assert served.envelope.explanation is not None
            if pool.worker_restarts:
                break
        assert pool.worker_restarts == 1


class TestClusterFallbacks:
    def test_graceful_fallback_without_posix_shm(self, so_bundle,
                                                 monkeypatch):
        from repro.shm import segments

        monkeypatch.setattr(segments, "FORCE_UNAVAILABLE", True)
        service = _replica_service(frame_store=True)
        service.register_bundle(so_bundle, config=_config(so_bundle),
                                warm=False)
        with LocalClient(service) as client:
            served = client.explain(DATASET, _queries()[0], k=3)
            assert served.envelope.explanation.attributes
            assert client.stats()["frame_store"] == {"enabled": False}

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable")
    def test_fork_mode_never_pickles_tables_with_store_off(self, so_bundle):
        class UnpicklableTable(Table):
            def __reduce__(self):
                raise AssertionError(
                    "fork-mode registration must inherit tables by COW, "
                    "not pickle them")

        table = UnpicklableTable(
            [so_bundle.table.column(name)
             for name in so_bundle.table.column_names],
            name=so_bundle.table.name)
        service = _replica_service(frame_store=False, start_method="fork")
        service.register_dataset(DATASET, table, so_bundle.knowledge_graph,
                                 so_bundle.extraction_specs,
                                 config=_config(so_bundle), warm=False)
        with LocalClient(service) as client:
            served = client.explain(DATASET, _queries()[0], k=3)
            assert served.envelope.explanation.attributes


class TestShardPoolFrameStore:
    def test_counts_identical_and_segments_retire(self):
        from repro.distributed.coordinator import ShardPool

        rng = np.random.default_rng(11)
        n = 997  # odd split: exercises unaligned row-range views
        columns = {
            "p:a": rng.integers(0, 5, n).astype(np.int64),
            "p:b": rng.integers(0, 4, n).astype(np.int64),
            "w:w": rng.random(n),
        }
        jobs = [{"kind": "cmi", "x": [("col", "p:a")],
                 "y": [("col", "p:b")], "z": None,
                 "n_x": 5, "n_y": 4, "n_z": 1, "weights": ["w:w"]}]
        results = {}
        before = _shm_entries()
        for use_store in (False, True):
            with ShardPool(n_shards=3, frame_store=use_store) as pool:
                ctx = pool.context_handle("d", 1, 1, 8, "ctx", n)
                results[use_store] = pool.counts(ctx, jobs,
                                                 provider=columns.get)[0]
                store_stats = pool.stats()["pool"]["frame_store"]
                assert store_stats["enabled"] is use_store
                if use_store:
                    # The pool owns its store: the counts went through
                    # shared segments every shard attached ...
                    assert store_stats["segments"] >= 1
                    shard = pool.stats()["workers"]["0"]
                    assert shard["frame_store"]["attached_segments"] >= 1
                    # ... and dropping the contexts retires them.
                    pool.drop_all_contexts()
                    assert pool.stats()["pool"]["frame_store"][
                        "segments"] == 0
                    # Leave live segments behind for close() to unlink.
                    ctx = pool.context_handle("d", 2, 1, 8, "ctx", n)
                    pool.counts(ctx, jobs, provider=columns.get)
                    assert _shm_entries() - before
        np.testing.assert_array_equal(results[True], results[False])
        # Closing the pool closes its store: nothing is left in /dev/shm.
        assert not _shm_entries() - before
