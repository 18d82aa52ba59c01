"""Transport-agnostic clients for the explanation serving tier.

Callers should not care *where* explanations are computed — in their own
process, behind an HTTP endpoint, or on a pool of worker processes behind
either.  :class:`ExplanationClient` is the one surface they program
against:

* ``explain(dataset, query, k)`` / ``explain_batch(dataset, queries, k)``
  serve :class:`~repro.serving.service.ServedExplanation` objects;
* ``stats()`` returns the serving tier's observability snapshot;
* ``warm(dataset, queries=...)`` builds cross-query artefacts and replays
  hot queries into the caches;
* ``clear_cache()`` invalidates every cache layer (dataset versions bump,
  see :meth:`~repro.engine.context.PipelineContext.bump_dataset_version`);
* ``close()`` releases whatever the transport holds (threads, sockets,
  worker processes).

Two interchangeable implementations ship with the package:

* :class:`LocalClient` — wraps an in-process
  :class:`~repro.serving.service.ExplanationService`; zero transport cost.
  The service's pool decides where the engine runs: in this process, on
  row shards, or on N engine replicas that each take the cache misses
  their query keys route to (scaling compute beyond one GIL).
* :class:`HTTPClient` — a dependency-free stdlib JSON client for the
  :mod:`repro.serving.http` API; talk to any remote deployment.  Keeps
  one persistent connection per calling thread (HTTP/1.1 keep-alive) and
  retries a request once on a fresh socket when a reused one went stale.

Because the HTTP front end (:mod:`repro.serving.http`) itself serves *any*
client, the same handler code exposes every topology — pick it with
``python -m repro.serving --workers N [--shard rows]``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import urlsplit

from repro.engine.envelope import ExplanationEnvelope
from repro.exceptions import (
    ConfigurationError,
    DatasetNotRegisteredError,
    ExplanationError,
    MissingDataError,
    QueryError,
    RequestValidationError,
)
from repro.query.aggregate_query import AggregateQuery
from repro.serving.schema import query_payload
from repro.serving.service import ExplanationService, ServedExplanation
from repro.storage.metastore import JOB_TERMINAL_STATES


class ExplanationClient(ABC):
    """The transport-agnostic serving API (see the module docstring).

    Implementations must be thread-safe: the HTTP front end calls one
    client from many handler threads concurrently.
    """

    @abstractmethod
    def explain(self, dataset: str, query: AggregateQuery,
                k: Optional[int] = None) -> ServedExplanation:
        """Serve one explanation."""

    @abstractmethod
    def explain_batch(self, dataset: str, queries: Sequence[AggregateQuery],
                      k: Optional[int] = None) -> List[ServedExplanation]:
        """Serve a batch of explanations, in request order."""

    @abstractmethod
    def stats(self) -> Dict[str, Any]:
        """The serving tier's observability snapshot (JSON-safe)."""

    @abstractmethod
    def warm(self, dataset: str, queries: Optional[Sequence] = None,
             top: int = 8) -> int:
        """Build cross-query artefacts and replay hot queries; returns count."""

    @abstractmethod
    def close(self) -> None:
        """Release the transport's resources; the client stops serving."""

    # ---- standard extensions every implementation provides ------------- #
    @abstractmethod
    def clear_cache(self) -> None:
        """Invalidate every cache layer (bumps dataset versions)."""

    @abstractmethod
    def health(self) -> Dict[str, Any]:
        """Liveness verdict: ``{"status": "ok" | "degraded" | "down", ...}``."""

    def datasets(self) -> List[str]:
        """Names of the datasets this client can serve, sorted."""
        return sorted(self.health().get("datasets", []))

    # ---- durability extensions (need a store-backed deployment) -------- #
    def _no_jobs(self) -> "ConfigurationError":
        return ConfigurationError(
            "this deployment has no durable job store: construct the "
            "service with store=<path> (or pass --store to "
            "python -m repro.serving)")

    def submit_job(self, dataset: str, kind: str = "explain_batch",
                   queries: Optional[Sequence] = None,
                   k: Optional[int] = None, top: int = 8) -> str:
        """Submit a resumable background job; returns its id."""
        raise self._no_jobs()

    def job_status(self, job_id: str,
                   include_result: bool = False) -> Dict[str, Any]:
        """One job's public status (progress, state, optional results)."""
        raise self._no_jobs()

    def wait_job(self, job_id: str, timeout: Optional[float] = None,
                 poll_seconds: float = 0.02) -> Dict[str, Any]:
        """Block until the job reaches a terminal state (or time out)."""
        raise self._no_jobs()

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; returns the post-cancel status."""
        raise self._no_jobs()

    def list_jobs(self, dataset: Optional[str] = None,
                  limit: int = 100) -> List[Dict[str, Any]]:
        """Recent jobs, newest first."""
        raise self._no_jobs()

    def append_rows(self, dataset: str, rows: Sequence[Dict[str, Any]],
                    rewarm: bool = True, top: int = 8) -> Dict[str, Any]:
        """Append rows to a served dataset (live update + re-warm)."""
        raise ConfigurationError(
            "this client's deployment does not support live dataset "
            "updates")

    def __enter__(self) -> "ExplanationClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class LocalClient(ExplanationClient):
    """An in-process client over one :class:`ExplanationService`.

    ``close_service=False`` leaves the wrapped service running on close —
    for a service shared with other consumers (e.g. tests driving both the
    service object and a client view of it).
    """

    def __init__(self, service: ExplanationService, close_service: bool = True):
        self.service = service
        self._close_service = close_service

    def explain(self, dataset: str, query: AggregateQuery,
                k: Optional[int] = None) -> ServedExplanation:
        return self.service.explain(dataset, query, k=k)

    def explain_batch(self, dataset: str, queries: Sequence[AggregateQuery],
                      k: Optional[int] = None) -> List[ServedExplanation]:
        return self.service.explain_batch(dataset, queries, k=k)

    def stats(self) -> Dict[str, Any]:
        return self.service.stats()

    def warm(self, dataset: str, queries: Optional[Sequence] = None,
             top: int = 8) -> int:
        return self.service.warm(dataset, queries=queries, top=top)

    def clear_cache(self) -> None:
        self.service.clear_cache()

    def health(self) -> Dict[str, Any]:
        return self.service.health()

    def datasets(self) -> List[str]:
        return self.service.datasets()

    def _jobs(self):
        if self.service.jobs is None:
            self.service.enable_jobs()
        return self.service.jobs

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

    def append_rows(self, dataset: str, rows: Sequence[Dict[str, Any]],
                    rewarm: bool = True, top: int = 8) -> Dict[str, Any]:
        return self.service.append_rows(dataset, rows, rewarm=rewarm, top=top)

    def close(self) -> None:
        if self._close_service:
            self.service.close()


def _raise_for_http_error(status: int, body: Dict[str, Any]) -> None:
    """Map an error response back onto the exception the server mapped from."""
    errors = body.get("errors") or [f"HTTP {status}"]
    message = "; ".join(str(error) for error in errors)
    if status == 400:
        raise QueryError(message)
    if status == 404:
        raise DatasetNotRegisteredError(message)
    if status == 422:
        raise MissingDataError(message)
    raise ExplanationError(f"server error (HTTP {status}): {message}")


#: Failures that mean the kept-alive socket went stale between requests —
#: typically the server (or an intermediary) closed an idle connection.
#: ``RemoteDisconnected`` subclasses ``BadStatusLine``, so it is covered.
_STALE_SOCKET_ERRORS = (
    http.client.NotConnected,
    http.client.CannotSendRequest,
    http.client.BadStatusLine,
    ConnectionResetError,
    BrokenPipeError,
)


class HTTPClient(ExplanationClient):
    """A stdlib JSON client for the :mod:`repro.serving.http` API.

    Connections are persistent (HTTP/1.1 keep-alive): each calling thread
    holds one :class:`http.client.HTTPConnection` and reuses it across
    requests, avoiding a TCP handshake per call.  When a reused socket
    turns out to be stale — the server closed it while idle — the request
    is retried exactly once on a fresh connection.  Every server endpoint
    is idempotent (explanations are deterministic and cached), so the
    single retry is safe.  A connection that fails on its *first* request
    is not retried: that is a real connectivity error, not staleness.

    Parameters
    ----------
    base_url:
        Where the server listens, e.g. ``"http://127.0.0.1:8080"``.
    timeout:
        Per-request socket timeout in seconds.  Cold explanations run a
        full engine pipeline, so the default is generous.
    """

    def __init__(self, base_url: str, timeout: float = 300.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise RequestValidationError(
                f"base_url must be an http(s) URL, got {base_url!r}")
        self._scheme = parts.scheme
        self._host = parts.hostname
        self._port = parts.port
        self._path_prefix = parts.path.rstrip("/")
        self._local = threading.local()
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        #: How many requests were retried on a fresh connection after the
        #: kept-alive socket went stale.  Observability for tests and ops.
        self.stale_retries = 0

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            factory = (http.client.HTTPSConnection if self._scheme == "https"
                       else http.client.HTTPConnection)
            connection = factory(self._host, self._port, timeout=self.timeout)
            connection.requests_served = 0
            self._local.connection = connection
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            return
        self._local.connection = None
        with self._connections_lock:
            self._connections.discard(connection)
        try:
            connection.close()
        except OSError:
            pass

    def _round_trip(self, method: str, path: str,
                    data: Optional[bytes]) -> "tuple[int, bytes]":
        connection = self._connection()
        headers = {"Content-Type": "application/json"} if data else {}
        connection.request(method, self._path_prefix + path,
                           body=data, headers=headers)
        response = connection.getresponse()
        # Drain the body fully so the socket is clean for the next request.
        payload = response.read()
        connection.requests_served += 1
        return response.status, payload

    def _send(self, method: str, path: str,
              data: Optional[bytes]) -> "tuple[int, bytes]":
        try:
            return self._round_trip(method, path, data)
        except _STALE_SOCKET_ERRORS:
            reused = getattr(self._local, "connection", None) is not None and \
                self._local.connection.requests_served > 0
            self._drop_connection()
            if not reused:
                raise
            self.stale_retries += 1
            try:
                return self._round_trip(method, path, data)
            except Exception:
                self._drop_connection()
                raise
        except OSError:
            # Timeouts and hard connect failures: the socket's state is
            # unknown, so never reuse it.
            self._drop_connection()
            raise

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        status, payload = self._send(method, path, data)
        try:
            parsed = json.loads(payload) if payload else {}
        except ValueError:
            parsed = {}
        if status >= 400:
            _raise_for_http_error(
                status, parsed if isinstance(parsed, dict) else {})
        return parsed

    @staticmethod
    def _served(body: Dict[str, Any]) -> ServedExplanation:
        return ServedExplanation(
            dataset=body["dataset"],
            envelope=ExplanationEnvelope.from_dict(body["envelope"]),
            cache_hit=bool(body.get("cache_hit", False)),
            coalesced=bool(body.get("coalesced", False)),
            trace_id=body.get("trace_id"))

    # ------------------------------------------------------------------ #
    # the client protocol
    # ------------------------------------------------------------------ #
    def explain(self, dataset: str, query: AggregateQuery,
                k: Optional[int] = None) -> ServedExplanation:
        body = self._request(
            "POST", "/explain", query_payload(query, k=k, dataset=dataset))
        return self._served(body)

    def explain_batch(self, dataset: str, queries: Sequence[AggregateQuery],
                      k: Optional[int] = None) -> List[ServedExplanation]:
        payload: Dict[str, Any] = {
            "dataset": dataset,
            "queries": [query_payload(query) for query in queries],
        }
        if k is not None:
            payload["k"] = k
        body = self._request("POST", "/explain_batch", payload)
        return [self._served(dict(result, dataset=body["dataset"]))
                for result in body["results"]]

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def warm(self, dataset: str, queries: Optional[Sequence] = None,
             top: int = 8) -> int:
        payload: Dict[str, Any] = {"dataset": dataset, "top": top}
        if queries is not None:
            if any(not isinstance(query, AggregateQuery) for query in queries):
                raise RequestValidationError(
                    "warm queries must be AggregateQuery objects")
            payload["queries"] = [query_payload(query) for query in queries]
        return int(self._request("POST", "/warm", payload).get("warmed", 0))

    def clear_cache(self) -> None:
        self._request("POST", "/clear_cache", {})

    def submit_job(self, dataset: str, kind: str = "explain_batch",
                   queries: Optional[Sequence] = None,
                   k: Optional[int] = None, top: int = 8) -> str:
        payload: Dict[str, Any] = {"dataset": dataset, "kind": kind,
                                   "top": top}
        if k is not None:
            payload["k"] = k
        if queries is not None:
            payload["queries"] = [
                query_payload(query) if isinstance(query, AggregateQuery)
                else dict(query) for query in queries]
        return str(self._request("POST", "/jobs", payload)["job_id"])

    def job_status(self, job_id: str,
                   include_result: bool = False) -> Dict[str, Any]:
        suffix = "?result=1" if include_result else ""
        return self._request("GET", f"/jobs/{job_id}{suffix}")

    def wait_job(self, job_id: str, timeout: Optional[float] = None,
                 poll_seconds: float = 0.05) -> Dict[str, Any]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.job_status(job_id)
            if status.get("state") in JOB_TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still "
                                   f"{status.get('state')} after {timeout}s")
            time.sleep(poll_seconds)

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def list_jobs(self, dataset: Optional[str] = None,
                  limit: int = 100) -> List[Dict[str, Any]]:
        path = f"/jobs?limit={int(limit)}"
        if dataset is not None:
            from urllib.parse import quote

            path += f"&dataset={quote(dataset)}"
        return list(self._request("GET", path).get("jobs", []))

    def append_rows(self, dataset: str, rows: Sequence[Dict[str, Any]],
                    rewarm: bool = True, top: int = 8) -> Dict[str, Any]:
        payload = {"dataset": dataset, "rows": [dict(row) for row in rows],
                   "rewarm": bool(rewarm), "top": int(top)}
        return self._request("POST", "/append_rows", payload)

    def health(self) -> Dict[str, Any]:
        # /healthz answers 503 with the degraded body; return it rather
        # than raising so callers can inspect worker status.
        status, payload = self._send("GET", "/healthz", None)
        try:
            parsed = json.loads(payload) if payload else {}
        except ValueError:
            parsed = {}
        if isinstance(parsed, dict) and parsed:
            return parsed
        return {"status": "down", "errors": [f"HTTP {status}"]}

    def close(self) -> None:
        """Close every kept-alive connection this client opened."""
        with self._connections_lock:
            connections, self._connections = list(self._connections), set()
        for connection in connections:
            try:
                connection.close()
            except OSError:
                pass
