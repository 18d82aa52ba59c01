"""The :class:`JobManager`: a durable work queue for serving backends.

State machine (rows in the metastore's ``jobs`` table)::

    PENDING --claim--> RUNNING --+--> DONE
       ^                         +--> FAILED
       |                         +--> CANCELLED
       +------checkpoint / crash recovery------+

* **Submission** writes a PENDING row synchronously (the id is handed to
  the client) and wakes the worker thread.
* **Execution** claims the row (PENDING -> RUNNING, guarded — a row
  cancelled before the claim stays cancelled), then streams per-query
  results into ``job_results`` keyed by position.  Progress and
  heartbeats ride the write-behind queue; terminal transitions are
  synchronous and preceded by a flush, so DONE implies every result row
  is on disk.
* **Cancellation** flips the row to CANCELLED; the runner polls the
  durable state between queries and stops at the next boundary.
* **Recovery**: :meth:`resume_incomplete` re-queues RUNNING rows whose
  ``owner_epoch`` is stale (their process died) and enqueues every
  PENDING row.  A resumed ``explain_batch`` skips positions already in
  ``job_results`` — the killed run's completed prefix — and recomputes
  only the rest.
* **Checkpoint**: :meth:`close` flips an in-flight RUNNING job back to
  PENDING before returning, so a graceful shutdown resumes exactly like
  a crash, minus the lost tail.

The manager is backend-agnostic: anything with ``explain(dataset, query,
k=...)`` returning an object with an ``.envelope`` and ``warm(dataset,
top=...)`` works.  In practice that is an
:class:`~repro.serving.service.ExplanationService` — the front tier of
every topology, so jobs run the same way in process, over row shards and
over engine replicas.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence

from repro.engine.envelope import ExplanationEnvelope
from repro.exceptions import ConfigurationError, QueryError
from repro.obs import trace
from repro.query.aggregate_query import AggregateQuery
from repro.serving.schema import ExplainRequest, query_payload
from repro.storage.envelopes import key_digest
from repro.storage.metastore import (
    JOB_TERMINAL_STATES,
    MetaStore,
    job_public_dict,
)

JOB_KINDS = ("explain_batch", "warm")


class JobManager:
    """Run serving workloads as durable, resumable background jobs.

    Parameters
    ----------
    store:
        The shared :class:`MetaStore`; job rows and per-query results
        live here.  The manager claims work under ``store.epoch``.
    backend:
        The serving tier that executes queries (a service).
    tracer:
        Optional :class:`repro.obs.trace.Tracer`; every job run records a
        request trace (``job.run``) with per-query spans.
    resume:
        Run :meth:`resume_incomplete` on construction (crash recovery).
    """

    def __init__(self, store: MetaStore, backend,
                 tracer: Optional[trace.Tracer] = None,
                 resume: bool = True):
        self.store = store
        self.backend = backend
        self.tracer = tracer
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._running_job: Optional[str] = None
        self._counters = {"submitted": 0, "completed": 0, "failed": 0,
                          "cancelled": 0, "resumed": 0, "queries_resumed": 0,
                          "queries_executed": 0}
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="repro-jobs-worker", daemon=True)
        self._worker.start()
        if resume:
            self.resume_incomplete()

    # ------------------------------------------------------------------ #
    # submission / inspection / cancellation
    # ------------------------------------------------------------------ #
    def submit(self, dataset: str, kind: str = "explain_batch",
               queries: Optional[Sequence] = None, k: Optional[int] = None,
               top: int = 8) -> str:
        """Create a job and hand back its id (the row is durable on return).

        ``queries`` accepts :class:`AggregateQuery` objects or wire-form
        payload dicts (they are normalized to payload dicts — the durable
        form must survive a restart with no live objects).  Every payload
        is validated *now* via :class:`ExplainRequest`, so a malformed
        batch fails at submission, not halfway through a background run.
        """
        if kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")
        if self._stop.is_set():
            raise ConfigurationError("JobManager is closed")
        if kind == "explain_batch":
            if not queries:
                raise QueryError("explain_batch job requires a non-empty "
                                 "'queries' list")
            payloads = []
            for query in queries:
                if isinstance(query, AggregateQuery):
                    payloads.append(query_payload(query))
                else:
                    payloads.append(dict(query))
            for position, payload in enumerate(payloads):
                try:
                    ExplainRequest.from_dict(payload)
                except Exception as error:
                    raise type(error)(
                        *(error.args or (f"queries[{position}] is invalid",)))
            body = {"queries": payloads, "k": k}
            total = len(payloads)
        else:
            body = {"top": int(top), "k": k}
            total = int(top)
        job_id = uuid.uuid4().hex[:12]
        self.store.create_job(job_id, kind, dataset,
                              json.dumps(body, sort_keys=True), total)
        with self._lock:
            self._counters["submitted"] += 1
        self._queue.put(job_id)
        return job_id

    def status(self, job_id: str,
               include_result: bool = False) -> Dict[str, object]:
        """The client-facing status dict; raises for unknown ids."""
        job = self.store.get_job(job_id)
        if job is None:
            raise QueryError(f"no such job {job_id!r}")
        public = job_public_dict(job)
        if include_result and job["state"] == "DONE" \
                and job["kind"] == "explain_batch":
            public["results"] = [json.loads(envelope) for _position, envelope
                                 in self.store.job_results(job_id)]
        return public

    def list_jobs(self, dataset: Optional[str] = None,
                  limit: int = 100) -> List[Dict[str, object]]:
        return [job_public_dict(job)
                for job in self.store.list_jobs(dataset, limit)]

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Request cancellation; PENDING/RUNNING jobs flip to CANCELLED.

        A RUNNING job stops at its next between-queries boundary; its
        completed prefix stays durable (a re-submitted identical batch
        would still hit the envelope store).
        """
        if self.store.get_job(job_id) is None:
            raise QueryError(f"no such job {job_id!r}")
        changed = self.store.set_job_state(job_id, "CANCELLED",
                                           expect=("PENDING", "RUNNING"))
        if changed:
            with self._lock:
                self._counters["cancelled"] += 1
        return self.status(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll_seconds: float = 0.02) -> Dict[str, object]:
        """Block until the job reaches a terminal state (or time out)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in JOB_TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s")
            time.sleep(poll_seconds)

    def resume_incomplete(self) -> List[str]:
        """Crash recovery: re-queue stale RUNNING jobs, enqueue PENDING.

        Called on construction (``resume=True``); safe to call again.
        Returns the re-queued (previously RUNNING) job ids.
        """
        stale = self.store.requeue_stale_running()
        if stale:
            with self._lock:
                self._counters["resumed"] += len(stale)
        for job_id in self.store.pending_jobs():
            self._queue.put(job_id)
        return stale

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if job_id is None:
                break
            try:
                self._run(job_id)
            except Exception:  # pragma: no cover - _run records failures
                pass

    def _run(self, job_id: str) -> None:
        if not self.store.claim_job(job_id):
            return  # cancelled before the claim, already claimed, or done
        job = self.store.get_job(job_id)
        if job is None:  # pragma: no cover - claimed rows exist
            return
        with self._lock:
            self._running_job = job_id
        request = None
        if self.tracer is not None:
            request = trace.begin_request(self.tracer, "job.run",
                                          dataset=str(job["dataset"]),
                                          job_id=job_id,
                                          kind=str(job["kind"]))
        try:
            if job["kind"] == "explain_batch":
                self._run_explain_batch(job)
            else:
                self._run_warm(job)
        except Exception as error:
            self.store.set_job_state(job_id, "FAILED", error=repr(error),
                                     expect=("RUNNING",))
            with self._lock:
                self._counters["failed"] += 1
        finally:
            with self._lock:
                self._running_job = None
            if request is not None:
                request.finish()

    def _checkpoint_or_cancel(self, job_id: str) -> Optional[str]:
        """Between-queries poll: 'stop', 'cancelled' or None (keep going)."""
        if self._stop.is_set():
            return "stop"
        if self.store.job_state(job_id) == "CANCELLED":
            return "cancelled"
        return None

    def _run_explain_batch(self, job: Dict[str, object]) -> None:
        job_id = str(job["id"])
        dataset = str(job["dataset"])
        body = json.loads(str(job["payload"]))
        default_k = body.get("k")
        requests = [ExplainRequest.from_dict(payload)
                    for payload in body["queries"]]
        total = len(requests)
        completed = self.store.job_result_positions(job_id)
        resumed = len([p for p in completed if p < total])
        if resumed:
            with self._lock:
                self._counters["queries_resumed"] += resumed
            trace.annotate(resumed_prefix=resumed)
        done = resumed
        self.store.job_progress(job_id, done, total)
        for position, parsed in enumerate(requests):
            if position in completed:
                continue
            verdict = self._checkpoint_or_cancel(job_id)
            if verdict is not None:
                self._abort(job_id, verdict)
                return
            with trace.span("job.query", position=position):
                served = self.backend.explain(
                    dataset, parsed.query,
                    k=parsed.k if parsed.k is not None else default_k)
            envelope: ExplanationEnvelope = served.envelope
            digest = key_digest(query_payload(parsed.query))
            self.store.add_job_result(job_id, position, digest,
                                      envelope.to_json())
            done += 1
            with self._lock:
                self._counters["queries_executed"] += 1
            # Progress doubles as the heartbeat: every completed query
            # rides the write-behind queue, so liveness costs no fsync.
            self.store.job_progress(job_id, done, total)
        # DONE must imply every result row is durable: barrier first.
        self.store.flush()
        summary = json.dumps({"queries": total, "resumed": resumed},
                             sort_keys=True)
        if self.store.set_job_state(job_id, "DONE", result_json=summary,
                                    expect=("RUNNING",)):
            with self._lock:
                self._counters["completed"] += 1

    def _run_warm(self, job: Dict[str, object]) -> None:
        job_id = str(job["id"])
        dataset = str(job["dataset"])
        body = json.loads(str(job["payload"]))
        top = int(body.get("top") or 8)
        with trace.span("job.warm", dataset=dataset, top=top):
            warmed = self.backend.warm(dataset, top=top)
        self.store.job_progress(job_id, int(warmed), int(warmed))
        self.store.flush()
        summary = json.dumps({"warmed": int(warmed)}, sort_keys=True)
        if self.store.set_job_state(job_id, "DONE", result_json=summary,
                                    expect=("RUNNING",)):
            with self._lock:
                self._counters["completed"] += 1

    def _abort(self, job_id: str, verdict: str) -> None:
        """Stop a RUNNING job: checkpoint (-> PENDING) or honor a cancel."""
        self.store.flush()
        if verdict == "stop":
            # Graceful shutdown: put the job back so a restart resumes it.
            self.store.set_job_state(job_id, "PENDING", expect=("RUNNING",))
        # verdict == "cancelled": the row already says CANCELLED.

    # ------------------------------------------------------------------ #
    # lifecycle / observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
            running = self._running_job
        counters["running_job"] = running
        counters["by_state"] = self.store.jobs_by_state()
        return counters

    def close(self, checkpoint: bool = True, timeout: float = 30.0) -> None:
        """Stop the worker; with ``checkpoint`` an in-flight job is
        flipped back to PENDING (after a flush) so a restart resumes it."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._queue.put(None)
        self._worker.join(timeout=timeout)
        if not checkpoint:
            return
        # The worker's _abort already checkpointed if it saw the stop
        # event; this covers a worker that died without checkpointing.
        with self._lock:
            running = self._running_job
        if running is not None:  # pragma: no cover - worker join races
            self.store.flush()
            self.store.set_job_state(running, "PENDING", expect=("RUNNING",))
