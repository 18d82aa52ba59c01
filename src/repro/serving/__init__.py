"""The serving layer: explanation-as-a-service over the engine.

This package turns the explanation engine into a long-lived, cache-warm,
concurrency-safe service — the answer to "heavy traffic" workloads where
the same datasets and often the same (or same-context) queries arrive
continuously:

* :class:`ExplanationClient` (:mod:`repro.serving.client`) — the
  **transport-agnostic API** every caller programs against
  (``explain`` / ``explain_batch`` / ``stats`` / ``warm`` / ``close``),
  with two interchangeable implementations: :class:`LocalClient` (an
  in-process service) and :class:`HTTPClient` (stdlib JSON client for any
  remote deployment);
* :class:`ExplanationService` (:mod:`repro.serving.service`) — the one
  front tier of every topology: one warm
  :class:`~repro.engine.context.PipelineContext` per registered dataset, a
  canonical-query-key explanation cache (bounded LRU + optional TTL) that
  serves byte-identical envelopes on repeats, per-dataset request
  coalescing, a background warmer replaying recorded top-K traffic,
  dataset-versioned keys for coherent invalidation, durable storage and
  jobs.  Its ``pool`` argument picks where its pipelines run: in
  process (``None``), counting through the row shards of a
  :class:`~repro.distributed.coordinator.ShardPool`, or on the engine
  replicas of a :class:`~repro.distributed.replicas.ReplicaPool`, where
  each miss routes by the stable hash of its canonical key so every
  replica's caches stay hot for its key range;
* :class:`MicroBatcher` (:mod:`repro.serving.batcher`) — collects
  concurrent requests within a small window into single
  ``explain_many_envelopes`` calls and deduplicates identical in-flight
  queries down to one execution;
* :class:`TTLCache` (:mod:`repro.serving.cache`) — the bounded, thread-safe
  LRU/TTL store behind the explanation cache;
* the HTTP front end (:mod:`repro.serving.http`) — a stdlib
  ``ThreadingHTTPServer`` JSON API (``POST /explain``,
  ``POST /explain_batch``, ``POST /warm``, ``GET /stats``,
  ``GET /healthz``) that serves **any** client — whatever pool sits behind
  the service — with strict request validation
  (:mod:`repro.serving.schema`);
* a CLI — ``python -m repro.serving --dataset SO --workers 4`` loads
  datasets from the registry and serves them from four engine replicas.

Quick use::

    from repro import load_dataset
    from repro.distributed import ReplicaPool
    from repro.serving import ExplanationService, LocalClient

    service = ExplanationService(pool=ReplicaPool(n_workers=4))
    service.register_bundle(load_dataset("SO"))  # starts the replicas
    with LocalClient(service) as client:
        served = client.explain("SO", query)    # ServedExplanation
        served.envelope.to_json()               # canonical result JSON
"""

from repro.distributed.ipc import WorkerDiedError, WorkerFaultError
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import TTLCache
from repro.serving.client import ExplanationClient, HTTPClient, LocalClient
from repro.serving.http import ExplanationHTTPServer, make_server, serve_forever
from repro.serving.schema import (
    API_SCHEMA_VERSION,
    BatchExplainRequest,
    ExplainRequest,
    ExplainResponse,
    context_clauses,
    query_payload,
)
from repro.serving.service import ExplanationService, ServedExplanation

__all__ = [
    "API_SCHEMA_VERSION",
    "BatchExplainRequest",
    "ExplainRequest",
    "ExplainResponse",
    "ExplanationClient",
    "ExplanationHTTPServer",
    "ExplanationService",
    "HTTPClient",
    "LocalClient",
    "MicroBatcher",
    "ServedExplanation",
    "TTLCache",
    "WorkerDiedError",
    "WorkerFaultError",
    "context_clauses",
    "make_server",
    "query_payload",
    "serve_forever",
]
