"""The serving layer: explanation-as-a-service over the engine.

This package turns the explanation engine into a long-lived, cache-warm,
concurrency-safe service — the answer to "heavy traffic" workloads where
the same datasets and often the same (or same-context) queries arrive
continuously:

* :class:`ExplanationClient` (:mod:`repro.serving.client`) — the
  **transport-agnostic API** every caller programs against
  (``explain`` / ``explain_batch`` / ``stats`` / ``warm`` / ``close``),
  with three interchangeable implementations: :class:`LocalClient`
  (in-process service), :class:`HTTPClient` (stdlib JSON client for any
  remote deployment) and :class:`ClusterClient` (sharded worker
  processes);
* :class:`ExplanationService` (:mod:`repro.serving.service`) — one warm
  :class:`~repro.engine.context.PipelineContext` per registered dataset, a
  canonical-query-key explanation cache (bounded LRU + optional TTL) that
  serves byte-identical envelopes on repeats, per-dataset request
  coalescing, a background warmer replaying recorded top-K traffic,
  dataset-versioned keys for coherent invalidation and, with a
  ``shard_pool``, counts scatter-gathered over row-shard workers;
* :class:`ServiceCluster` (:mod:`repro.serving.cluster`) — N spawn-safe
  worker processes; requests route by the stable hash of their canonical
  query key, so each worker's explanation/frame/fit caches stay hot for
  its key range; in-flight dedup, merged stats, health checks and
  automatic worker restart live in the thin front tier;
* :class:`MicroBatcher` (:mod:`repro.serving.batcher`) — collects
  concurrent requests within a small window into single
  ``explain_many_envelopes`` calls and deduplicates identical in-flight
  queries down to one execution;
* :class:`TTLCache` (:mod:`repro.serving.cache`) — the bounded, thread-safe
  LRU/TTL store behind the explanation cache;
* the HTTP front end (:mod:`repro.serving.http`) — a stdlib
  ``ThreadingHTTPServer`` JSON API (``POST /explain``,
  ``POST /explain_batch``, ``POST /warm``, ``GET /stats``,
  ``GET /healthz``) that serves **any** client — one process or a whole
  cluster — with strict request validation (:mod:`repro.serving.schema`);
* a CLI — ``python -m repro.serving --dataset SO --workers 4`` loads
  datasets from the registry and serves them from a sharded cluster.

Quick use::

    from repro import load_dataset
    from repro.serving import ClusterClient, ServiceCluster

    cluster = ServiceCluster(n_workers=4)
    cluster.register_bundle(load_dataset("SO"))
    with ClusterClient(cluster) as client:      # starts the workers
        served = client.explain("SO", query)    # ServedExplanation
        served.envelope.to_json()               # canonical result JSON
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.cache import TTLCache
from repro.serving.client import ExplanationClient, HTTPClient, LocalClient
from repro.serving.cluster import (
    ClusterClient,
    DatasetSpec,
    ServiceCluster,
    WorkerDiedError,
    WorkerFaultError,
)
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
    "ClusterClient",
    "DatasetSpec",
    "ExplainRequest",
    "ExplainResponse",
    "ExplanationClient",
    "ExplanationHTTPServer",
    "ExplanationService",
    "HTTPClient",
    "LocalClient",
    "MicroBatcher",
    "ServedExplanation",
    "ServiceCluster",
    "TTLCache",
    "WorkerDiedError",
    "WorkerFaultError",
    "context_clauses",
    "make_server",
    "query_payload",
    "serve_forever",
]
