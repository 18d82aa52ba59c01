"""The :class:`MetaStore`: one SQLite file behind a single writer thread.

Design constraints, in order:

* **Serving threads never block on fsync.**  Every mutation is an *op*
  enqueued to one writer thread that owns the only write connection;
  hot-path writes (envelope put, history upsert, job progress) are
  fire-and-forget, while job *state transitions* submit the op and wait
  for the commit — a job must not report RUNNING before the row says so.
* **Crash recovery is the common case, not the exception.**  Every open
  bumps a persistent ``owner_epoch``; RUNNING jobs whose ``owner_epoch``
  differs from the current one belonged to a dead process and are
  re-queued by :meth:`requeue_stale_running`.  Completed per-query job
  results live in ``job_results`` keyed by position, so a resumed job
  skips its completed prefix.
* **Multi-process friendly.**  WAL mode plus a busy timeout lets several
  processes share the file (a restarted server and the one it replaces,
  tests and tools reading it): one write connection per process, many
  read connections, no cross-process coordination beyond SQLite's own
  locking.

The schema (one row per envelope / query / dataset / job):

``meta``         key/value strings (currently just ``owner_epoch``).
``datasets``     name -> last recorded dataset version (monotonic).
``envelopes``    (dataset, digest, version) -> envelope JSON.
``history``      (dataset, digest-without-version) -> query payload JSON
                 + hit count, feeding restart re-warm.
``jobs``         the job state machine (see :mod:`repro.jobs`).
``job_results``  (job_id, position) -> envelope JSON: the completed
                 prefix a resumed job starts after.
"""

from __future__ import annotations

import json
import os
import queue
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import ConfigurationError

#: Terminal job states — jobs in these states are never claimed or resumed.
JOB_TERMINAL_STATES = ("DONE", "FAILED", "CANCELLED")
JOB_STATES = ("PENDING", "RUNNING") + JOB_TERMINAL_STATES

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS datasets (
    name    TEXT PRIMARY KEY,
    version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS envelopes (
    dataset    TEXT NOT NULL,
    digest     TEXT NOT NULL,
    version    INTEGER NOT NULL,
    envelope   TEXT NOT NULL,
    hits       INTEGER NOT NULL DEFAULT 0,
    updated_at REAL NOT NULL,
    PRIMARY KEY (dataset, digest, version)
);
CREATE TABLE IF NOT EXISTS history (
    dataset    TEXT NOT NULL,
    digest     TEXT NOT NULL,
    payload    TEXT NOT NULL,
    k          INTEGER,
    hits       INTEGER NOT NULL DEFAULT 1,
    updated_at REAL NOT NULL,
    PRIMARY KEY (dataset, digest)
);
CREATE TABLE IF NOT EXISTS jobs (
    id             TEXT PRIMARY KEY,
    kind           TEXT NOT NULL,
    dataset        TEXT NOT NULL,
    payload        TEXT NOT NULL,
    state          TEXT NOT NULL,
    owner_epoch    INTEGER NOT NULL,
    created_at     REAL NOT NULL,
    updated_at     REAL NOT NULL,
    heartbeat_at   REAL,
    progress_done  INTEGER NOT NULL DEFAULT 0,
    progress_total INTEGER NOT NULL DEFAULT 0,
    error          TEXT,
    result         TEXT
);
CREATE TABLE IF NOT EXISTS job_results (
    job_id     TEXT NOT NULL,
    position   INTEGER NOT NULL,
    digest     TEXT,
    envelope   TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (job_id, position)
);
"""

_JOB_COLUMNS = ("id", "kind", "dataset", "payload", "state", "owner_epoch",
                "created_at", "updated_at", "heartbeat_at", "progress_done",
                "progress_total", "error", "result")


class _ForkGate:
    """Mutual exclusion between SQLite activity and ``os.fork``.

    SQLite's serialized-mode static mutexes are plain pthread mutexes: a
    ``fork()`` that lands while *any* thread of this process is inside a
    SQLite call copies those mutexes into the child in their locked state,
    with no thread left to unlock them — the child then deadlocks forever
    on its very first ``sqlite3.connect``.  (Observed in practice: the
    metastore writer thread opening its connection while the serving
    front forks a pool worker.)

    Every SQLite touchpoint in this module enters the gate as a *reader*
    (``with _FORK_GATE:``), and an ``os.register_at_fork`` before-handler
    enters it *exclusively* — the fork waits for in-flight SQLite calls to
    drain, and SQLite calls wait out the fork.  Sections must not nest:
    the gate is deliberately non-reentrant so a waiting fork can never be
    starved by a reader re-entering behind it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active = 0
        self._forking = False

    def __enter__(self) -> "_ForkGate":
        with self._cond:
            while self._forking:
                self._cond.wait()
            self._active += 1
        return self

    def __exit__(self, *_exc) -> None:
        with self._cond:
            self._active -= 1
            if self._active == 0:
                self._cond.notify_all()

    def begin_fork(self) -> None:
        with self._cond:
            while self._forking:  # a concurrent fork: take turns
                self._cond.wait()
            self._forking = True
            while self._active:
                self._cond.wait()

    def end_fork(self) -> None:
        with self._cond:
            self._forking = False
            self._cond.notify_all()

    def reset_in_child(self) -> None:
        # The child starts with one thread (the forker); rebuild the gate
        # outright rather than trusting inherited waiter state.
        self._cond = threading.Condition()
        self._active = 0
        self._forking = False


#: Process-wide: SQLite's static mutexes are process-global, so one gate
#: covers every store (and every future one) in this process.
_FORK_GATE = _ForkGate()

if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX build
    os.register_at_fork(before=_FORK_GATE.begin_fork,
                        after_in_parent=_FORK_GATE.end_fork,
                        after_in_child=_FORK_GATE.reset_in_child)


class _SyncOp:
    """A write op whose submitter waits for the commit (or the error)."""

    __slots__ = ("fn", "event", "result", "error")

    def __init__(self, fn: Callable[[sqlite3.Connection], object]):
        self.fn = fn
        self.event = threading.Event()
        self.result: object = None
        self.error: Optional[BaseException] = None


class MetaStore:
    """Durable metadata store over one SQLite file (WAL, single writer).

    Parameters
    ----------
    path:
        Filesystem path of the database; parent directories are created.
    busy_timeout_ms:
        How long SQLite waits on a cross-process write lock before
        raising — generous by default, the writer thread is the only
        contender within a process.
    """

    def __init__(self, path: Union[str, Path],
                 busy_timeout_ms: int = 10_000):
        self.path = str(path)
        self._busy_timeout_ms = busy_timeout_ms
        Path(self.path).expanduser().resolve().parent.mkdir(
            parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._closed = False
        self._counters = {"writes_enqueued": 0, "writes_committed": 0,
                          "write_errors": 0, "flushes": 0}
        self.last_write_error: Optional[str] = None
        # Bootstrap synchronously: schema + epoch bump must be visible
        # before __init__ returns (callers read immediately after open).
        # BEGIN IMMEDIATE serialises the read-modify-write across
        # concurrent process opens, so two openers never mint one epoch.
        with _FORK_GATE:
            bootstrap = self._connect()
            try:
                bootstrap.executescript(_SCHEMA)
                bootstrap.execute("BEGIN IMMEDIATE")
                row = bootstrap.execute(
                    "SELECT value FROM meta WHERE key = 'owner_epoch'"
                ).fetchone()
                self.epoch = (int(row[0]) if row else 0) + 1
                bootstrap.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES "
                    "('owner_epoch', ?)", (str(self.epoch),))
                bootstrap.commit()
            finally:
                bootstrap.close()
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._read_conns: List[sqlite3.Connection] = []
        self._read_local = threading.local()
        self._writer = threading.Thread(
            target=self._writer_loop, name=f"repro-metastore-{os.getpid()}",
            daemon=True)
        self._writer.start()

    # ------------------------------------------------------------------ #
    # connections and the writer thread
    # ------------------------------------------------------------------ #
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=self._busy_timeout_ms / 1000)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={self._busy_timeout_ms}")
        return conn

    def _read_conn(self) -> sqlite3.Connection:
        """Caller must hold ``_FORK_GATE`` (see :meth:`_read_one`)."""
        conn = getattr(self._read_local, "conn", None)
        if conn is None:
            conn = self._connect()
            self._read_local.conn = conn
            with self._lock:
                self._read_conns.append(conn)
        return conn

    def _read_one(self, sql: str, params: Tuple = ()) -> Optional[Tuple]:
        with _FORK_GATE:
            return self._read_conn().execute(sql, params).fetchone()

    def _read_all(self, sql: str, params: Tuple = ()) -> List[Tuple]:
        with _FORK_GATE:
            return self._read_conn().execute(sql, params).fetchall()

    def _writer_loop(self) -> None:
        with _FORK_GATE:
            conn = self._connect()
        try:
            while True:
                op = self._queue.get()
                if op is None:
                    break
                batch = [op]
                # Drain whatever else is already queued (bounded), so one
                # commit — one WAL sync — covers many write-behind ops.
                while len(batch) < 256:
                    try:
                        extra = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if extra is None:
                        self._queue.put(None)  # re-post the stop sentinel
                        break
                    batch.append(extra)
                with _FORK_GATE:
                    self._apply_batch(conn, batch)
        finally:
            with _FORK_GATE:
                conn.close()

    def _apply_batch(self, conn: sqlite3.Connection, batch: List) -> None:
        try:
            synced = []
            for op in batch:
                if isinstance(op, _SyncOp):
                    synced.append((op, op.fn(conn)))
                else:
                    op(conn)
            conn.commit()
            with self._lock:
                self._counters["writes_committed"] += len(batch)
            # Sync submitters observe their result only *after* the commit.
            for op, result in synced:
                op.result = result
                op.event.set()
        except BaseException as error:
            conn.rollback()
            if len(batch) == 1:
                op = batch[0]
                with self._lock:
                    self._counters["write_errors"] += 1
                    self.last_write_error = repr(error)
                if isinstance(op, _SyncOp):
                    op.error = error  # propagate to the submitter
                    op.event.set()
                # Async write-behind: recorded, never kills the writer.
                return
            # One bad op poisoned the batch; retry individually so the
            # good ones still land and only the bad one reports an error.
            for op in batch:
                self._apply_batch(conn, [op])

    def _submit_async(self, fn: Callable[[sqlite3.Connection], None]) -> None:
        if self._closed:
            return
        with self._lock:
            self._counters["writes_enqueued"] += 1
        self._queue.put(fn)

    def _submit_sync(self, fn: Callable[[sqlite3.Connection], object]) -> object:
        if self._closed:
            raise ConfigurationError(f"MetaStore({self.path!r}) is closed")
        with self._lock:
            self._counters["writes_enqueued"] += 1
        op = _SyncOp(fn)
        self._queue.put(op)
        op.event.wait()
        if op.error is not None:
            raise op.error
        return op.result

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until every previously enqueued write has committed."""
        if self._closed:
            return True
        barrier = _SyncOp(lambda conn: None)
        self._queue.put(barrier)
        done = barrier.event.wait(timeout)
        if done:
            with self._lock:
                self._counters["flushes"] += 1
        return done

    @property
    def pending_writes(self) -> int:
        """Approximate number of write ops not yet committed."""
        return self._queue.qsize()

    def close(self) -> None:
        """Flush the write-behind queue and release every connection."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._queue.put(None)
        self._writer.join(timeout=10)
        with self._lock:
            read_conns, self._read_conns = self._read_conns, []
        with _FORK_GATE:
            for conn in read_conns:
                try:
                    conn.close()
                except Exception:
                    pass

    def __enter__(self) -> "MetaStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # dataset versions
    # ------------------------------------------------------------------ #
    def dataset_version(self, name: str) -> Optional[int]:
        row = self._read_one(
            "SELECT version FROM datasets WHERE name = ?", (name,))
        return int(row[0]) if row else None

    def record_dataset_version(self, name: str, version: int,
                               prune_envelopes: bool = True) -> None:
        """Record a dataset's version (monotonic max) — async write-behind.

        With ``prune_envelopes`` (default) envelope rows from superseded
        versions are deleted in the same transaction: they can never be
        read again (lookups always use the live version) and would
        otherwise accumulate forever on an appending dataset.
        """
        def op(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT INTO datasets (name, version) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET version = "
                "MAX(version, excluded.version)", (name, int(version)))
            if prune_envelopes:
                conn.execute(
                    "DELETE FROM envelopes WHERE dataset = ? AND version < "
                    "(SELECT version FROM datasets WHERE name = ?)",
                    (name, name))
        self._submit_async(op)

    # ------------------------------------------------------------------ #
    # envelopes
    # ------------------------------------------------------------------ #
    def get_envelope(self, dataset: str, digest: str,
                     version: int) -> Optional[str]:
        row = self._read_one(
            "SELECT envelope FROM envelopes WHERE dataset = ? AND digest = ? "
            "AND version = ?", (dataset, digest, int(version)))
        return row[0] if row else None

    def put_envelope(self, dataset: str, digest: str, version: int,
                     envelope_json: str) -> None:
        """Write-behind upsert of one serialized envelope."""
        now = time.time()

        def op(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT OR REPLACE INTO envelopes "
                "(dataset, digest, version, envelope, hits, updated_at) "
                "VALUES (?, ?, ?, ?, COALESCE((SELECT hits FROM envelopes "
                "WHERE dataset = ? AND digest = ? AND version = ?), 0), ?)",
                (dataset, digest, int(version), envelope_json,
                 dataset, digest, int(version), now))
        self._submit_async(op)

    def count_envelopes(self, dataset: Optional[str] = None) -> int:
        if dataset is None:
            row = self._read_one("SELECT COUNT(*) FROM envelopes")
        else:
            row = self._read_one(
                "SELECT COUNT(*) FROM envelopes WHERE dataset = ?",
                (dataset,))
        return int(row[0])

    # ------------------------------------------------------------------ #
    # query history (restart re-warm)
    # ------------------------------------------------------------------ #
    def record_query(self, dataset: str, digest: str, payload_json: str,
                     k: Optional[int]) -> None:
        """Write-behind hit-count upsert of one recorded query.

        ``digest`` must be computed over the canonical key *without* its
        version component: history has to survive version bumps, or the
        re-warm after an ``append_rows`` would find nothing to replay.
        """
        now = time.time()

        def op(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT INTO history (dataset, digest, payload, k, hits, "
                "updated_at) VALUES (?, ?, ?, ?, 1, ?) "
                "ON CONFLICT(dataset, digest) DO UPDATE SET "
                "hits = hits + 1, payload = excluded.payload, "
                "k = excluded.k, updated_at = excluded.updated_at",
                (dataset, digest, payload_json, k, now))
        self._submit_async(op)

    def top_queries(self, dataset: str,
                    limit: int) -> List[Tuple[str, Optional[int], int]]:
        """The most-requested recorded queries: (payload_json, k, hits)."""
        rows = self._read_all(
            "SELECT payload, k, hits FROM history WHERE dataset = ? "
            "ORDER BY hits DESC, updated_at DESC LIMIT ?",
            (dataset, max(0, int(limit))))
        return [(payload, (int(k) if k is not None else None), int(hits))
                for payload, k, hits in rows]

    # ------------------------------------------------------------------ #
    # jobs
    # ------------------------------------------------------------------ #
    def create_job(self, job_id: str, kind: str, dataset: str,
                   payload_json: str, total: int) -> None:
        """Insert a PENDING job row (synchronous: the id is handed out)."""
        now = time.time()

        def op(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT INTO jobs (id, kind, dataset, payload, state, "
                "owner_epoch, created_at, updated_at, progress_done, "
                "progress_total) VALUES (?, ?, ?, ?, 'PENDING', ?, ?, ?, 0, ?)",
                (job_id, kind, dataset, payload_json, self.epoch, now, now,
                 int(total)))
        self._submit_sync(op)

    def claim_job(self, job_id: str, epoch: Optional[int] = None) -> bool:
        """PENDING -> RUNNING under this epoch; False if someone beat us."""
        now = time.time()
        owner = self.epoch if epoch is None else int(epoch)

        def op(conn: sqlite3.Connection) -> bool:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'RUNNING', owner_epoch = ?, "
                "updated_at = ?, heartbeat_at = ? "
                "WHERE id = ? AND state = 'PENDING'",
                (owner, now, now, job_id))
            return cursor.rowcount == 1
        return bool(self._submit_sync(op))

    def set_job_state(self, job_id: str, state: str,
                      error: Optional[str] = None,
                      result_json: Optional[str] = None,
                      expect: Optional[Sequence[str]] = None) -> bool:
        """Synchronous state transition; ``expect`` guards the from-states."""
        if state not in JOB_STATES:
            raise ConfigurationError(f"unknown job state {state!r}")
        now = time.time()
        expected = tuple(expect) if expect else None

        def op(conn: sqlite3.Connection) -> bool:
            sql = ("UPDATE jobs SET state = ?, updated_at = ?, error = ?, "
                   "result = COALESCE(?, result) WHERE id = ?")
            params: Tuple = (state, now, error, result_json, job_id)
            if expected:
                sql += " AND state IN (%s)" % ",".join("?" * len(expected))
                params = params + expected
            return conn.execute(sql, params).rowcount == 1
        return bool(self._submit_sync(op))

    def job_progress(self, job_id: str, done: int,
                     total: Optional[int] = None) -> None:
        """Write-behind progress + heartbeat update."""
        now = time.time()

        def op(conn: sqlite3.Connection) -> None:
            if total is None:
                conn.execute(
                    "UPDATE jobs SET progress_done = ?, heartbeat_at = ?, "
                    "updated_at = ? WHERE id = ?", (int(done), now, now, job_id))
            else:
                conn.execute(
                    "UPDATE jobs SET progress_done = ?, progress_total = ?, "
                    "heartbeat_at = ?, updated_at = ? WHERE id = ?",
                    (int(done), int(total), now, now, job_id))
        self._submit_async(op)

    def get_job(self, job_id: str) -> Optional[Dict[str, object]]:
        row = self._read_one(
            "SELECT %s FROM jobs WHERE id = ?" % ", ".join(_JOB_COLUMNS),
            (job_id,))
        if row is None:
            return None
        return dict(zip(_JOB_COLUMNS, row))

    def job_state(self, job_id: str) -> Optional[str]:
        row = self._read_one(
            "SELECT state FROM jobs WHERE id = ?", (job_id,))
        return row[0] if row else None

    def list_jobs(self, dataset: Optional[str] = None,
                  limit: int = 100) -> List[Dict[str, object]]:
        sql = "SELECT %s FROM jobs" % ", ".join(_JOB_COLUMNS)
        params: Tuple = ()
        if dataset is not None:
            sql += " WHERE dataset = ?"
            params = (dataset,)
        sql += " ORDER BY created_at DESC LIMIT ?"
        rows = self._read_all(sql, params + (max(0, int(limit)),))
        return [dict(zip(_JOB_COLUMNS, row)) for row in rows]

    def jobs_by_state(self) -> Dict[str, int]:
        rows = self._read_all(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state")
        return {state: int(count) for state, count in rows}

    def pending_jobs(self) -> List[str]:
        rows = self._read_all(
            "SELECT id FROM jobs WHERE state = 'PENDING' "
            "ORDER BY created_at ASC")
        return [row[0] for row in rows]

    def requeue_stale_running(self) -> List[str]:
        """Re-queue RUNNING jobs owned by a dead epoch (crash recovery).

        Jobs whose ``owner_epoch`` differs from this store handle's epoch
        were RUNNING in a process that no longer holds the newest epoch —
        i.e. it died (or at least restarted) without checkpointing.  They
        go back to PENDING; their completed prefix in ``job_results``
        stays, so the re-run skips straight past it.
        """
        def op(conn: sqlite3.Connection) -> List[str]:
            rows = conn.execute(
                "SELECT id FROM jobs WHERE state = 'RUNNING' AND "
                "owner_epoch != ?", (self.epoch,)).fetchall()
            stale = [row[0] for row in rows]
            if stale:
                now = time.time()
                conn.executemany(
                    "UPDATE jobs SET state = 'PENDING', updated_at = ? "
                    "WHERE id = ?", [(now, job_id) for job_id in stale])
            return stale
        return list(self._submit_sync(op))

    # ------------------------------------------------------------------ #
    # per-query job results (the resumable completed prefix)
    # ------------------------------------------------------------------ #
    def add_job_result(self, job_id: str, position: int,
                       digest: Optional[str], envelope_json: str) -> None:
        """Write-behind append of one completed query's envelope."""
        now = time.time()

        def op(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT OR REPLACE INTO job_results "
                "(job_id, position, digest, envelope, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (job_id, int(position), digest, envelope_json, now))
        self._submit_async(op)

    def job_result_positions(self, job_id: str) -> Set[int]:
        rows = self._read_all(
            "SELECT position FROM job_results WHERE job_id = ?",
            (job_id,))
        return {int(row[0]) for row in rows}

    def job_results(self, job_id: str) -> List[Tuple[int, str]]:
        """All recorded (position, envelope_json) results, in order."""
        rows = self._read_all(
            "SELECT position, envelope FROM job_results WHERE job_id = ? "
            "ORDER BY position ASC", (job_id,))
        return [(int(position), envelope) for position, envelope in rows]

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
            last_error = self.last_write_error
        counters.update({
            "path": self.path,
            "epoch": self.epoch,
            "pending_writes": self.pending_writes,
            "last_write_error": last_error,
        })
        return counters


def job_public_dict(job: Dict[str, object]) -> Dict[str, object]:
    """The JSON-safe, client-facing view of a raw ``jobs`` row."""
    result = job.get("result")
    return {
        "id": job["id"],
        "kind": job["kind"],
        "dataset": job["dataset"],
        "state": job["state"],
        "progress": {"done": int(job["progress_done"] or 0),
                     "total": int(job["progress_total"] or 0)},
        "created_at": job["created_at"],
        "updated_at": job["updated_at"],
        "heartbeat_at": job["heartbeat_at"],
        "error": job["error"],
        "summary": json.loads(result) if result else None,
    }
