"""JSON-over-HTTP front end for any :class:`ExplanationClient`.

A deliberately dependency-free server on the stdlib's
:class:`~http.server.ThreadingHTTPServer` — one OS thread per connection,
which is exactly the traffic shape the serving layer is built for: threads
hit the explanation caches concurrently and the backend coalesces misses.

The handler is written against the transport-agnostic
:class:`~repro.serving.client.ExplanationClient` protocol, *not* a concrete
service: hand :func:`make_server` an
:class:`~repro.serving.service.ExplanationService` (wrapped in a
:class:`~repro.serving.client.LocalClient` automatically) and the same
handler code serves every topology, because every topology is one service
with or without a worker pool behind it — ``python -m repro.serving
--workers N`` is exactly that switch.  ``--workers N`` serves from N
engine replicas, each taking the cache misses its query keys route to;
``--shard rows`` instead splits each table into row ranges and
scatter-gathers partial counts over a shard pool.  The HTTP surface is
identical in all modes — only ``GET /stats`` reveals the topology.

Endpoints
---------

``POST /explain``
    Body: ``{"dataset": ..., ...query fields...}`` (see
    :class:`~repro.serving.schema.ExplainRequest`).  Returns the envelope
    JSON wrapped with cache metadata.
``POST /explain_batch``
    Body: ``{"dataset": ..., "queries": [...], "k": ...}``.  Returns
    ``{"results": [...]}`` in request order.
``POST /warm``
    Body: ``{"dataset": ..., "queries": [...]?, "top": ...?}``.  Builds the
    dataset's cross-query artefacts and replays the given (or recorded
    top-K) queries into the caches; returns ``{"warmed": N}``.
``POST /clear_cache``
    Invalidates every cache layer (dataset versions bump on every backend
    process).
``POST /jobs``
    Body: ``{"dataset": ..., "kind": "explain_batch"|"warm", "queries":
    [...]?, "k": ...?, "top": ...?}``.  Creates a durable background job
    (see :class:`~repro.jobs.manager.JobManager`) and returns
    ``{"job_id": ...}`` immediately — the job row is fsynced before the
    response, so a crash after the 200 never loses the submission.
``GET /jobs``
    Recent jobs, newest first: ``{"jobs": [...]}``; ``?limit=N`` and
    ``?dataset=...`` filter.
``GET /jobs/<id>``
    One job's status/progress dict; ``?result=1`` embeds the per-query
    results recorded so far (the completed prefix, even mid-run).
    Unknown ids answer 400.
``DELETE /jobs/<id>``
    Requests cancellation; a RUNNING job stops at its next
    between-queries boundary and keeps its completed prefix durable.
``POST /append_rows``
    Body: ``{"dataset": ..., "rows": [...], "rewarm": bool?, "top": ...?}``.
    Live dataset update: appends the rows under a bumped dataset version,
    invalidates every cache tier coherently, and (by default) kicks off a
    background re-warm job over the top recorded queries.
``GET /stats``
    Serving-tier observability snapshot: cache hit rates and per-dataset
    occupancy, coalescing counters, per-dataset engine counters — and,
    over a worker pool, its ``data_plane`` counters plus one snapshot per
    worker (replica engine counters fold into the per-dataset ones).
``GET /metrics``
    The same observability snapshot in the Prometheus text exposition
    format (``text/plain; version=0.0.4``): request/stage latency
    histograms with estimated quantiles, cache hit ratios, engine event
    counters, worker-pool liveness and memory gauges — scrapeable from
    every topology.
``GET /trace/<id>``
    The finished span tree of one traced request as nested JSON.  Every
    ``/explain`` response carries its ``trace_id``; traces live in a
    bounded in-memory LRU, so old ids age out (404).  Pass
    ``"debug": true`` in an explain request to get the tree inline.
``GET /healthz``
    Liveness probe: ``{"status": "ok", "datasets": [...]}``; answers
    **503** with ``status: "degraded"`` while any pool worker is down.

Errors map to JSON bodies with an ``errors`` list: 400 for validation and
query errors, 404 for unknown datasets and routes, 422 for missing-data
failures (the request is well-formed but the referenced data cannot support
the analysis — a client-data problem, not a server fault), 500 for engine
failures.

The wire
--------

Two class constants keep a client waiting on the service, not on TCP:

* **One TCP_NODELAY write per response.**  The stdlib handler writes the
  header block and then the body as two ``sendall`` calls on an
  unbuffered socket.  Nagle's algorithm holds the body until the client
  ACKs the headers, and a client that waits for the whole response
  (``http.client`` does) delays that ACK by Linux's delayed-ACK timer,
  40 ms or more.  Every response paid it: a cache hit took 44.0 ms over
  a keep-alive connection while the service's lookup took 0.12 ms
  (perfbench ``hot`` p50, median of 20 runs on a 2-vCPU host).  The handler
  sets TCP_NODELAY on each accepted socket
  (``disable_nagle_algorithm``) and ``_respond`` sends the status line,
  headers and body in one write; the same hit takes 1.6 ms.
* **A listen backlog of 128** (``request_queue_size``).  socketserver's
  default of 5 overflows when more clients connect at once than the
  accept loop takes in; Linux then drops their handshakes and they wait
  for a SYN retransmit, 1 s and then 3 s.  Of 64 clients connecting at
  once, 55 to 57 took 1 s or more with a backlog of 5; with 128 every one
  was answered within 32 ms.
"""

from __future__ import annotations

import json
import logging
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import __version__
from urllib.parse import parse_qs

from repro.exceptions import (
    ConfigurationError,
    DatasetNotRegisteredError,
    ExplanationError,
    MissingDataError,
    QueryError,
    RequestValidationError,
)
from repro.obs import trace
from repro.obs.logs import log_slow_query
from repro.obs.metrics import prometheus_text
from repro.serving.client import ExplanationClient, LocalClient
from repro.serving.schema import (
    API_SCHEMA_VERSION,
    AppendRowsRequest,
    BatchExplainRequest,
    ExplainRequest,
    ExplainResponse,
    JobSubmitRequest,
)
from repro.serving.service import ExplanationService, ServedExplanation

#: Request bodies past this size are rejected with 413 before reading.
MAX_BODY_BYTES = 1 << 20


class _HTTPFault(Exception):
    """An error response decided before the request body was consumed.

    ``close`` marks the connection as non-reusable: on HTTP/1.1 keep-alive
    an unread body would otherwise be parsed as the next request line.
    """

    def __init__(self, status: int, message: str, close: bool = False):
        super().__init__(message)
        self.status = status
        self.message = message
        self.close = close


def _served_to_dict(served: ServedExplanation,
                    trace_id: Optional[str] = None,
                    debug: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    return ExplainResponse(
        dataset=served.dataset,
        envelope_dict=served.envelope.to_dict(),
        cache_hit=served.cache_hit,
        coalesced=served.coalesced,
        trace_id=trace_id if trace_id is not None else served.trace_id,
        debug=debug,
    ).to_dict()


class ExplanationRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the server's :class:`ExplanationService`."""

    server_version = f"repro-serving/{__version__}"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket (set by the stdlib's setup()).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        path = self.path.split("?", 1)[0]
        try:
            if path == "/healthz":
                health = dict(self._client.health())
                health.setdefault("version", __version__)
                status = 200 if health.get("status") == "ok" else 503
                self._respond(status, health)
            elif path == "/stats":
                self._respond(200, self._client.stats())
            elif path == "/metrics":
                self._respond(200, prometheus_text(self._client.stats()))
            elif path == "/jobs" or path.startswith("/jobs/"):
                status, body = self._guard(lambda: self._jobs_get(path))
                self._respond(status, body)
            elif path.startswith("/trace/"):
                trace_id = path[len("/trace/"):]
                tree = self.server.tracer.trace_tree(trace_id)  # type: ignore[attr-defined]
                if tree is None:
                    self._respond(404, {"errors": [
                        f"no such trace: {trace_id!r} (traces are kept in a "
                        "bounded in-memory store and age out)"]})
                else:
                    self._respond(200, tree)
            else:
                self._respond(404, {"errors": [f"no such endpoint: GET {path}"]})
        except Exception as exc:  # snapshot failures must answer, not abort
            self._respond(500, {"errors": [f"{type(exc).__name__}: {exc}"]})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        path = self.path.split("?", 1)[0]
        if path == "/explain":
            self._handle(self._explain)
        elif path == "/explain_batch":
            self._handle(self._explain_batch)
        elif path == "/warm":
            self._handle(self._warm)
        elif path == "/clear_cache":
            self._handle(self._clear_cache)
        elif path == "/jobs":
            self._handle(self._submit_job)
        elif path == "/append_rows":
            self._handle(self._append_rows)
        else:
            self._respond(404, {"errors": [f"no such endpoint: POST {path}"]})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib handler naming
        path = self.path.split("?", 1)[0]
        if path.startswith("/jobs/") and len(path) > len("/jobs/"):
            job_id = path[len("/jobs/"):]
            status, body = self._guard(
                lambda: (200, self._client.cancel_job(job_id)))
            self._respond(status, body)
        else:
            self._respond(404, {"errors": [f"no such endpoint: DELETE {path}"]})

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _explain(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        dataset, body = self._split_dataset(payload)
        request = ExplainRequest.from_dict(body)
        started = time.perf_counter()
        req_trace = trace.begin_request(
            self.server.tracer, "http.explain",  # type: ignore[attr-defined]
            dataset=dataset, endpoint="/explain")
        try:
            served = self._client.explain(dataset, request.query, k=request.k)
        finally:
            req_trace.finish()
            log_slow_query(
                time.perf_counter() - started,
                self.server.slow_query_seconds,  # type: ignore[attr-defined]
                endpoint="/explain", dataset=dataset,
                trace_id=req_trace.trace_id)
        debug = None
        if request.debug:
            debug = {"trace": self.server.tracer.trace_tree(  # type: ignore[attr-defined]
                req_trace.trace_id)}
        return 200, _served_to_dict(served, trace_id=req_trace.trace_id,
                                    debug=debug)

    def _explain_batch(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        dataset, body = self._split_dataset(payload)
        batch = BatchExplainRequest.from_dict(body)
        started = time.perf_counter()
        req_trace = trace.begin_request(
            self.server.tracer, "http.explain_batch",  # type: ignore[attr-defined]
            dataset=dataset, endpoint="/explain_batch",
            queries=len(batch.requests))
        # Group by resolved k (the engine batch API applies one k per
        # call) while preserving request order in the response.
        by_k: Dict[Optional[int], List[int]] = {}
        for index, request in enumerate(batch.requests):
            by_k.setdefault(request.k if request.k is not None else batch.k,
                            []).append(index)
        results: List[Optional[Dict[str, Any]]] = [None] * len(batch.requests)
        try:
            for k, indices in by_k.items():
                served = self._client.explain_batch(
                    dataset, [batch.requests[i].query for i in indices], k=k)
                for index, one in zip(indices, served):
                    results[index] = _served_to_dict(
                        one, trace_id=req_trace.trace_id)
        finally:
            req_trace.finish()
            log_slow_query(
                time.perf_counter() - started,
                self.server.slow_query_seconds,  # type: ignore[attr-defined]
                endpoint="/explain_batch", dataset=dataset,
                trace_id=req_trace.trace_id, queries=len(batch.requests))
        response = {"api_schema_version": API_SCHEMA_VERSION,
                    "dataset": dataset, "results": results,
                    "trace_id": req_trace.trace_id}
        if any(request.debug for request in batch.requests):
            response["debug"] = {"trace": self.server.tracer.trace_tree(  # type: ignore[attr-defined]
                req_trace.trace_id)}
        return 200, response

    def _warm(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        dataset, body = self._split_dataset(payload)
        top = body.pop("top", 8)
        if not isinstance(top, int) or isinstance(top, bool) or top < 0:
            raise RequestValidationError(f"top must be an integer >= 0, got {top!r}")
        raw_queries = body.pop("queries", None)
        if body:
            raise RequestValidationError(
                f"unknown field(s) {sorted(body)} in warm request")
        queries = None
        if raw_queries is not None:
            if not isinstance(raw_queries, (list, tuple)):
                raise RequestValidationError(
                    "queries must be a list of request objects")
            queries = [ExplainRequest.from_dict(raw).query
                       for raw in raw_queries]
        warmed = self._client.warm(dataset, queries=queries, top=top)
        return 200, {"api_schema_version": API_SCHEMA_VERSION,
                     "dataset": dataset, "warmed": int(warmed)}

    def _clear_cache(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        if payload not in (None, {}, []):
            raise RequestValidationError(
                "clear_cache takes an empty JSON body")
        self._client.clear_cache()
        return 200, {"api_schema_version": API_SCHEMA_VERSION,
                     "status": "cleared"}

    def _submit_job(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        dataset, body = self._split_dataset(payload)
        request = JobSubmitRequest.from_dict(body)
        job_id = self._client.submit_job(
            dataset, kind=request.kind, queries=request.queries,
            k=request.k, top=request.top)
        return 200, {"api_schema_version": API_SCHEMA_VERSION,
                     "job_id": job_id}

    def _append_rows(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        dataset, body = self._split_dataset(payload)
        request = AppendRowsRequest.from_dict(body)
        result = self._client.append_rows(
            dataset, list(request.rows), rewarm=request.rewarm,
            top=request.top)
        response = {"api_schema_version": API_SCHEMA_VERSION}
        response.update(result)
        return 200, response

    def _jobs_get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        params = parse_qs(self.path.split("?", 1)[1]) if "?" in self.path \
            else {}
        if path == "/jobs":
            raw_limit = params.get("limit", ["100"])[-1]
            try:
                limit = int(raw_limit)
            except ValueError:
                raise RequestValidationError(
                    f"limit must be an integer, got {raw_limit!r}")
            dataset = params.get("dataset", [None])[-1]
            jobs = self._client.list_jobs(dataset=dataset, limit=limit)
            return 200, {"api_schema_version": API_SCHEMA_VERSION,
                         "jobs": jobs}
        job_id = path[len("/jobs/"):]
        if not job_id or "/" in job_id:
            raise RequestValidationError(f"bad jobs path {path!r}")
        include_result = params.get("result", ["0"])[-1] \
            not in ("", "0", "false")
        return 200, self._client.job_status(
            job_id, include_result=include_result)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    @property
    def _client(self) -> ExplanationClient:
        return self.server.client  # type: ignore[attr-defined]

    @staticmethod
    def _split_dataset(payload: Any) -> Tuple[str, Dict[str, Any]]:
        """Pop the ``dataset`` field off a request body (strictly)."""
        if not isinstance(payload, dict):
            raise RequestValidationError(
                f"request body must be a JSON object, got {type(payload).__name__}")
        dataset = payload.get("dataset")
        if not isinstance(dataset, str) or not dataset:
            raise RequestValidationError("dataset must be a non-empty string")
        body = {key: value for key, value in payload.items() if key != "dataset"}
        return dataset, body

    def _read_json_body(self) -> Any:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            # The body (if any) was not read; this connection cannot be
            # reused for a next request.
            raise _HTTPFault(
                400, "a JSON body with a Content-Length header is required",
                close=True)
        if length > MAX_BODY_BYTES:
            raise _HTTPFault(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit", close=True)
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestValidationError(f"request body is not valid JSON: {exc}")
        except RecursionError:
            raise RequestValidationError(
                "request body nests too deeply to parse")

    def _guard(self, thunk) -> Tuple[int, Dict[str, Any]]:
        """Run a request thunk, mapping exceptions to error responses."""
        try:
            return thunk()
        except _HTTPFault as fault:
            if fault.close:
                self.close_connection = True
            return fault.status, {"errors": [fault.message]}
        except RequestValidationError as exc:
            return 400, {"errors": exc.errors}
        except (QueryError, ExplanationError, ConfigurationError) as exc:
            # On the serving path all three are client-input errors:
            # malformed queries, contexts selecting zero rows, candidate
            # misuse, job APIs on a deployment without a durable store.
            return 400, {"errors": [str(exc)]}
        except MissingDataError as exc:
            # The request was valid but the referenced data cannot support
            # the analysis (e.g. degenerate selection-model inputs): a
            # client-data problem, not a server fault.
            return 422, {"errors": [str(exc)]}
        except DatasetNotRegisteredError as exc:
            return 404, {"errors": [str(exc)]}
        except Exception as exc:  # engine failures must not kill the thread
            return 500, {"errors": [f"{type(exc).__name__}: {exc}"]}

    def _handle(self, endpoint) -> None:
        status, body = self._guard(
            lambda: endpoint(self._read_json_body()))
        self._respond(status, body)

    def _respond(self, status: int, body: Union[Dict[str, Any], str]) -> None:
        """Send one response: JSON for a dict, Prometheus text for a str.

        The status line, headers and body leave in one socket write; the
        stdlib's ``end_headers()`` would write the header block on its own
        and the body second (see the module docstring for what that cost).
        """
        if isinstance(body, str):
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            payload = body.encode("utf-8")
        else:
            content_type = "application/json"
            payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(payload)
            return
        # send_header() queued the header lines: end them and queue the body
        # behind them, so flush_headers() writes the whole response.
        self._headers_buffer.append(b"\r\n" + payload)
        self.flush_headers()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "quiet", False):  # pragma: no cover
            return
        super().log_message(format, *args)


class ExplanationHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ExplanationClient`.

    A bare :class:`ExplanationService` is accepted too (wrapped in a
    :class:`LocalClient`), so existing single-process deployments keep
    working unchanged.
    """

    daemon_threads = True
    #: The listen backlog; socketserver's default of 5 drops the
    #: handshakes of a connection burst (see the module docstring).
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int],
                 backend: Union[ExplanationClient, ExplanationService],
                 quiet: bool = True,
                 slow_query_seconds: Optional[float] = 1.0):
        super().__init__(address, ExplanationRequestHandler)
        if isinstance(backend, ExplanationService):
            backend = LocalClient(backend)
        self.client: ExplanationClient = backend
        self.quiet = quiet
        #: Requests slower than this many seconds are written to the
        #: structured slow-query log (None disables).
        self.slow_query_seconds = slow_query_seconds
        # One trace store per server process.  A local backend's service
        # already owns a tracer (its pool workers ship their spans back
        # into it) — reuse it so `GET /trace/<id>` sees the same store
        # whether a trace was started here or directly on the service.
        service = self.service
        self.tracer: trace.Tracer = (
            service.tracer if service is not None
            else trace.Tracer(tier="front"))

    @property
    def service(self) -> Optional[ExplanationService]:
        """The in-process service, when the backend is local (else None)."""
        return getattr(self.client, "service", None)


def make_server(backend: Union[ExplanationClient, ExplanationService],
                host: str = "127.0.0.1", port: int = 8080,
                quiet: bool = True,
                slow_query_seconds: Optional[float] = 1.0) -> ExplanationHTTPServer:
    """Bind an :class:`ExplanationHTTPServer` (``port=0`` picks a free port)."""
    return ExplanationHTTPServer((host, port), backend, quiet=quiet,
                                 slow_query_seconds=slow_query_seconds)


def serve_forever(backend: Union[ExplanationClient, ExplanationService],
                  host: str = "127.0.0.1", port: int = 8080,
                  quiet: bool = False,
                  slow_query_seconds: Optional[float] = 1.0,
                  install_signal_handlers: bool = False) -> None:
    """Blocking convenience entry point (used by ``python -m repro.serving``).

    With ``install_signal_handlers`` (the ``python -m repro.serving`` path),
    SIGTERM and SIGINT trigger a *graceful* stop: the accept loop drains, the
    backend closes — which checkpoints any RUNNING job back to PENDING and
    flushes the metastore's write-behind queue — and only then does the
    process exit, so a supervisor's ``kill`` never loses durable work.
    ``server.shutdown()`` blocks until ``serve_forever`` returns, so the
    handler hands it to a helper thread instead of calling it inline (a
    signal delivered on the serving thread would deadlock).
    """
    server = make_server(backend, host, port, quiet=quiet,
                         slow_query_seconds=slow_query_seconds)
    log = logging.getLogger("repro.serving.http")
    if install_signal_handlers:
        import signal
        import threading

        def _graceful(signum, _frame):  # pragma: no cover - signal path
            log.info("received %s: draining connections and closing the "
                     "backend (jobs checkpoint, write-behind flushes)",
                     signal.Signals(signum).name)
            threading.Thread(target=server.shutdown,
                             name="repro-shutdown", daemon=True).start()

        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    bound_host, bound_port = server.server_address[:2]
    datasets = server.client.datasets()
    log.info(
        "serving %s on http://%s:%s (POST /explain, POST /explain_batch, "
        "POST /warm, POST /jobs, POST /append_rows, GET /stats, "
        "GET /metrics, GET /trace/<id>, GET /healthz)",
        datasets, bound_host, bound_port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.shutdown()
        server.server_close()
        server.client.close()
