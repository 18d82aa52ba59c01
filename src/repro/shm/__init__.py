"""Zero-copy shared-memory frame store.

The serving tier's memory problem is multiplicative: every engine replica
of a :class:`~repro.distributed.replicas.ReplicaPool` would hold a full
copy of each registered table, and every replica would re-encode the same
hot contexts the others already encoded.  A box that could run 32 workers
runs 4.

This package collapses per-worker residency to O(1).  The owner process
packs the dataset's storage arrays — numeric value arrays, missing masks,
integer code arrays and their (small) category lists — into
``multiprocessing.shared_memory`` segments and describes them with a
**manifest**: a tiny picklable record mapping each array to
``(segment name, dtype, shape, offset)``.  Workers receive the manifest
instead of the arrays and attach **read-only numpy views** over the shared
segments — no pickle, no copy, no copy-on-write page faults (the arrays
are never written after creation).

Three layers:

* :mod:`repro.shm.segments` — segment creation and attachment.  The
  attachment path is *resource-tracker-safe*: a worker registers nothing
  with the multiprocessing resource tracker, so a SIGKILLed worker cannot
  drag shared segments down with it, while the owner keeps its
  registration so an owner crash still cleans ``/dev/shm``.
* :mod:`repro.shm.manifest` — picklable manifests plus the worker-side
  rebuild: a :class:`~repro.table.table.Table` whose numeric columns are
  zero-copy views, and pre-encoded
  :class:`~repro.infotheory.encoding.EncodedFrame` instances whose code
  arrays are views (the encode-once-per-box path behind ``warm()``).
* :mod:`repro.shm.store` — the owner-side :class:`FrameStore` registry.
  Segments are grouped into *generations* that ride the dataset-version
  cache key; retiring a generation unlinks its segments only once every
  reader has detached (refcounted unlink), and ``close()`` force-unlinks
  everything.  Unlinking with live maps is safe on POSIX: readers that
  attached before a version bump finish on their old views.

Platforms without POSIX shared memory (or with ``/dev/shm`` unusable)
report :func:`shm_available` as False and every consumer falls back to
the classic copy path.
"""

from repro.shm.manifest import (
    ColumnManifest,
    FrameColumnManifest,
    FrameManifest,
    TableManifest,
    frame_from_manifest,
    table_from_manifest,
)
from repro.shm.segments import (
    ArrayRef,
    SegmentAttachments,
    attachments,
    shm_available,
)
from repro.shm.store import FrameStore

__all__ = [
    "ArrayRef",
    "ColumnManifest",
    "FrameColumnManifest",
    "FrameManifest",
    "FrameStore",
    "SegmentAttachments",
    "TableManifest",
    "attachments",
    "frame_from_manifest",
    "shm_available",
    "table_from_manifest",
]
