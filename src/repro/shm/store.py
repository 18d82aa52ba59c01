"""The owner-side segment registry: generations, refcounts, unlink.

A :class:`FrameStore` lives in the process that *owns* the data: the
serving front, inside the worker pool that creates one — a
:class:`~repro.distributed.replicas.ReplicaPool` (whole tables and hot
context frames) or a :class:`~repro.distributed.coordinator.ShardPool`
(the columns of each shard context).  It creates segments, hands out
manifests, and answers the one lifecycle question that matters: *when is
it safe to unlink?*

Segments are grouped into **generations**, keyed by whatever identity the
consumer's cache layer already uses (a dataset's registration, a frame
warm-up batch riding a dataset version, a shard context key).  Readers —
worker indices — are attached to a generation when a manifest is shipped
to them and detached when they ack the release (or die; a restart drops
the dead worker from every generation).  ``retire`` marks a generation
dead; its segments unlink as soon as the reader set drains.  POSIX
semantics make the ordering forgiving: an unlinked segment stays mapped
for processes that already attached, so readers racing a retirement
finish on their old views and only the name disappears.

``close()`` force-unlinks everything — and the owner's segments are
resource-tracker-registered, so even an owner SIGKILL leaves ``/dev/shm``
clean.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.shm.manifest import (
    FrameColumnManifest,
    FrameManifest,
    TableManifest,
    column_arrays,
    column_manifest,
)
from repro.shm.segments import create_segment


@dataclass
class _Generation:
    key: Any
    segments: List[str] = field(default_factory=list)
    readers: Set[Any] = field(default_factory=set)
    retired: bool = False


class FrameStore:
    """Owner-side registry of shared segments with refcounted retirement."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: Dict[str, Any] = {}
        self._segment_bytes: Dict[str, int] = {}
        self._generations: Dict[Any, _Generation] = {}
        self._closed = False
        #: How many context frames this store encoded and published —
        #: the encode-once-per-box counter the memory benchmark asserts.
        self.frames_published = 0
        self.segments_unlinked = 0

    # ------------------------------------------------------------------ #
    # publication
    # ------------------------------------------------------------------ #
    def put_arrays(self, generation: Any, arrays: Dict[str, Any]) -> Dict[str, Any]:
        """Pack ``arrays`` into one new segment under ``generation``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("FrameStore is closed")
            record = self._generations.get(generation)
            if record is not None and record.retired:
                raise RuntimeError(
                    f"generation {generation!r} is retired; publish under a "
                    f"fresh generation")
            shm, refs, size = create_segment(arrays)
            if record is None:
                record = _Generation(key=generation)
                self._generations[generation] = record
            self._segments[shm.name] = shm
            self._segment_bytes[shm.name] = size
            record.segments.append(shm.name)
            return refs

    def put_table(self, generation: Any, dataset: str, table) -> TableManifest:
        """Publish a whole table as one segment; returns its manifest."""
        arrays: Dict[str, Any] = {}
        columns = [table.column(name) for name in table.column_names]
        for column in columns:
            arrays.update(column_arrays(column))
        refs = self.put_arrays(generation, arrays)
        segment_names = tuple(sorted({ref.segment for ref in refs.values()})) \
            if refs else ()
        nbytes = sum(self._segment_bytes.get(name, 0)
                     for name in segment_names)
        return TableManifest(
            dataset=dataset, table_name=table.name, n_rows=table.n_rows,
            columns=tuple(column_manifest(column, refs)
                          for column in columns),
            segments=segment_names, nbytes=nbytes)

    def put_frame(self, generation: Any, dataset: str, key: Tuple[Any, ...],
                  frame, column_names: Sequence[str]) -> FrameManifest:
        """Publish one encoded frame's code arrays; returns its manifest."""
        arrays = {f"codes:{name}": frame.codes(name) for name in column_names}
        refs = self.put_arrays(generation, arrays)
        segment_names = tuple(sorted({ref.segment for ref in refs.values()})) \
            if refs else ()
        nbytes = sum(self._segment_bytes.get(name, 0)
                     for name in segment_names)
        with self._lock:
            self.frames_published += 1
        return FrameManifest(
            dataset=dataset, key=tuple(key), n_rows=frame.n_rows,
            n_bins=frame.n_bins, strategy=frame.strategy,
            columns=tuple(FrameColumnManifest(
                name=name, codes=refs[f"codes:{name}"],
                categories=tuple(frame.categories(name)))
                for name in column_names),
            segments=segment_names, nbytes=nbytes)

    # ------------------------------------------------------------------ #
    # readers and retirement
    # ------------------------------------------------------------------ #
    def attach_reader(self, generation: Any, reader: Any) -> None:
        """Record that ``reader`` received a manifest of ``generation``."""
        with self._lock:
            record = self._generations.get(generation)
            if record is not None:
                record.readers.add(reader)

    def detach_reader(self, generation: Any, reader: Any) -> None:
        """Drop one reader; unlinks the generation once retired + drained."""
        with self._lock:
            record = self._generations.get(generation)
            if record is None:
                return
            record.readers.discard(reader)
            self._maybe_unlink_locked(record)

    def drop_reader(self, reader: Any) -> None:
        """Drop ``reader`` from every generation (worker died/restarted)."""
        with self._lock:
            for record in list(self._generations.values()):
                record.readers.discard(reader)
                self._maybe_unlink_locked(record)

    def retire(self, generation: Any) -> None:
        """Mark a generation dead; unlink as soon as readers drain."""
        with self._lock:
            record = self._generations.get(generation)
            if record is None:
                return
            record.retired = True
            self._maybe_unlink_locked(record)

    def generations(self) -> List[Any]:
        """Keys of the live (not yet unlinked) generations."""
        with self._lock:
            return list(self._generations)

    # ------------------------------------------------------------------ #
    # teardown and observability
    # ------------------------------------------------------------------ #
    def _maybe_unlink_locked(self, record: _Generation) -> None:
        if not record.retired or record.readers:
            return
        for name in record.segments:
            self._unlink_segment_locked(name)
        self._generations.pop(record.key, None)

    def _unlink_segment_locked(self, name: str) -> None:
        shm = self._segments.pop(name, None)
        self._segment_bytes.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - owner keeps no views
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self.segments_unlinked += 1

    def close(self) -> None:
        """Force-unlink every segment regardless of readers (idempotent).

        Readers that still hold views keep their mappings (POSIX unlink
        only removes the name); fresh attachments become impossible, which
        is the point — the owner is going away.
        """
        with self._lock:
            self._closed = True
            for record in list(self._generations.values()):
                record.retired = True
                record.readers.clear()
                self._maybe_unlink_locked(record)

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def stats(self) -> Dict[str, Any]:
        """Segment counts and bytes for ``stats()`` / the /metrics gauges."""
        with self._lock:
            return {
                "segments": len(self._segments),
                "bytes": int(sum(self._segment_bytes.values())),
                "generations": len(self._generations),
                "frames_published": self.frames_published,
                "segments_unlinked": self.segments_unlinked,
            }
