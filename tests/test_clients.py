"""Tests for the transport-agnostic client API and the replica topology.

The heart of this file is the **shared contract suite**: one set of tests
parametrized over three deployments behind the
:class:`~repro.serving.client.ExplanationClient` API (a local service, the
same over HTTP, and a service over a
:class:`~repro.distributed.replicas.ReplicaPool` of engine replicas),
asserting the same behaviour — and byte-identical canonical envelopes —
regardless of transport.  Replica-specific behaviour (stable routing,
folded stats, per-replica batchers, replica restart with request retry,
coherent cross-process invalidation) and the serving-path defaults
(permutation early exit) are covered below.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.distributed import ReplicaPool, ShardPool
from repro.engine import ExplanationPipeline
from repro.engine.stages import default_stages
from repro.exceptions import (
    ConfigurationError,
    DatasetNotRegisteredError,
    ExplanationError,
    QueryError,
)
from repro.mesa.config import MESAConfig
from repro.query.aggregate_query import AggregateQuery
from repro.serving import (
    ExplanationService,
    HTTPClient,
    LocalClient,
    context_clauses,
    make_server,
    query_payload,
)
from repro.serving.schema import ExplainRequest
from repro.table.expressions import (
    And,
    Between,
    Eq,
    In,
    Not,
    NotNull,
    TRUE,
    canonical_predicate_key,
    stable_key_digest,
)

DATASET = "Covid-19"


def _config(bundle, **overrides) -> MESAConfig:
    return MESAConfig(excluded_columns=tuple(bundle.id_columns), k=3,
                      **overrides)


@pytest.fixture(scope="module")
def covid_queries(covid_bundle):
    return [entry.query for entry in covid_bundle.queries]


@pytest.fixture(scope="module")
def local_client(covid_bundle):
    service = ExplanationService(coalesce_window_seconds=0.0)
    service.register_bundle(covid_bundle, config=_config(covid_bundle))
    with LocalClient(service) as client:
        yield client


@pytest.fixture(scope="module")
def http_client(covid_bundle):
    service = ExplanationService(coalesce_window_seconds=0.0)
    service.register_bundle(covid_bundle, config=_config(covid_bundle))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    with HTTPClient(f"http://{host}:{port}") as client:
        yield client
    server.shutdown()
    server.server_close()
    service.close()


def _replica_service(bundle, n_workers: int = 2,
                     **pool_kwargs) -> ExplanationService:
    """A service over ``n_workers`` replicas, the bundle registered.

    The frame store is on above one replica, as the CLI has it by default.
    """
    pool_kwargs.setdefault("frame_store", n_workers > 1)
    service = ExplanationService(
        coalesce_window_seconds=0.0,
        pool=ReplicaPool(n_workers=n_workers, **pool_kwargs))
    service.register_bundle(bundle, config=_config(bundle))
    return service


def _routing_key(query, k=3):
    return ExplanationService.query_key(DATASET, query, k)[:-1]


def _engine_envelope(bundle, query, k=3):
    """The envelope a fresh in-process engine gives for ``query``."""
    fresh = ExplanationPipeline(bundle.table, bundle.knowledge_graph,
                                bundle.extraction_specs, config=_config(bundle))
    return fresh.explain(query, k=k).to_envelope()


def _routed_to(pool, query, index, k=3):
    """``query`` renamed until its canonical key routes to replica ``index``."""
    for attempt in range(256):
        renamed = dataclasses.replace(query, name=f"routed-{attempt}")
        if pool.route(_routing_key(renamed, k)) == index:
            return renamed
    raise AssertionError(f"no renaming routes to replica {index}")


def _wait_dead(process) -> None:
    deadline = time.monotonic() + 10.0
    while process.is_alive():
        assert time.monotonic() < deadline
        time.sleep(0.05)


@pytest.fixture(scope="module")
def cluster_client(covid_bundle):
    with LocalClient(_replica_service(covid_bundle)) as client:
        yield client


@pytest.fixture(params=["local_client", "http_client", "cluster_client"])
def client(request):
    """Every ExplanationClient implementation, one at a time."""
    return request.getfixturevalue(request.param)


# --------------------------------------------------------------------------- #
# the shared client contract
# --------------------------------------------------------------------------- #
class TestClientContract:
    def test_cold_then_cache_hit_byte_identical(self, client, covid_queries):
        query = covid_queries[0]
        first = client.explain(DATASET, query, k=3)
        repeat = client.explain(DATASET, query, k=3)
        assert repeat.cache_hit
        assert repeat.envelope.to_json(sort_keys=True) == \
            first.envelope.to_json(sort_keys=True)
        assert first.envelope.explanation.attributes

    def test_batch_preserves_order_and_matches_single(self, client,
                                                      covid_queries):
        batch = client.explain_batch(DATASET, covid_queries, k=3)
        assert len(batch) == len(covid_queries)
        for query, served in zip(covid_queries, batch):
            assert served.envelope.query["exposure"] == query.exposure
            single = client.explain(DATASET, query, k=3)
            assert single.envelope.canonical_json() == \
                served.envelope.canonical_json()

    def test_unknown_dataset_raises(self, client, covid_queries):
        with pytest.raises(DatasetNotRegisteredError):
            client.explain("nope", covid_queries[0], k=3)

    def test_bad_query_raises_query_error(self, client):
        bad = AggregateQuery(exposure="NoSuchColumn", outcome="Deaths",
                             aggregate="avg", table_name=DATASET)
        with pytest.raises((QueryError, ExplanationError)):
            client.explain(DATASET, bad, k=3)

    def test_stats_surface(self, client, covid_queries):
        client.explain(DATASET, covid_queries[0], k=3)
        stats = client.stats()
        assert DATASET in stats["datasets"]
        assert stats["cache"]["by_dataset"].get(DATASET, 0) >= 1
        assert "negative_cache" in stats
        merged = stats["contexts"][DATASET]["counters"]
        assert merged.get("queries_explained", 0) >= 1

    def test_warm_replays_explicit_queries(self, client, covid_queries):
        client.clear_cache()
        warmed = client.warm(DATASET, queries=list(covid_queries))
        assert warmed == len(covid_queries)
        # Warming replays with the dataset's default k (3 here) — live
        # traffic asking for the same budget explicitly must hit the
        # warmed entries (one canonical key, whatever the topology).
        served = client.explain_batch(DATASET, covid_queries, k=3)
        assert all(one.cache_hit for one in served)
        assert all(one.cache_hit
                   for one in client.explain_batch(DATASET, covid_queries))

    def test_clear_cache_invalidates(self, client, covid_queries):
        query = covid_queries[0]
        client.explain(DATASET, query, k=3)
        assert client.explain(DATASET, query, k=3).cache_hit
        client.clear_cache()
        assert not client.explain(DATASET, query, k=3).cache_hit
        assert client.explain(DATASET, query, k=3).cache_hit

    def test_health_and_datasets(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert DATASET in health["datasets"]
        assert DATASET in client.datasets()


class TestCrossClientEquality:
    def test_all_transports_serve_identical_envelopes(
            self, local_client, http_client, cluster_client, covid_bundle,
            covid_queries):
        """The acceptance bar: three transports, one truth.

        Every client serves canonically byte-identical envelopes for
        identical queries, and each equals a fresh single-engine run with
        the *engine* defaults (permutation early exit off) — the verdict
        equality the early-exit serving default relies on.
        """
        fresh = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=_config(covid_bundle))
        assert fresh.config.permutation_early_exit is False
        for query in covid_queries:
            direct = fresh.explain(query, k=3).to_envelope().canonical_json()
            payloads = {
                name: one.explain(DATASET, query, k=3).envelope.canonical_json()
                for name, one in (("local", local_client),
                                  ("http", http_client),
                                  ("cluster", cluster_client))}
            assert payloads["local"] == payloads["http"] == \
                payloads["cluster"] == direct


# --------------------------------------------------------------------------- #
# wire-format round trip (HTTPClient's query serialization)
# --------------------------------------------------------------------------- #
class TestWireFormat:
    @pytest.mark.parametrize("predicate", [
        TRUE,
        Eq("Country", "US"),
        And(Eq("Country", "US"), In("Region", ("EU", "NA")),
            Between("Deaths", 1, 100)),
        Not(Eq("Country", "US")),
        NotNull("Deaths"),
    ])
    def test_context_clauses_round_trip(self, predicate):
        query = AggregateQuery(exposure="A", outcome="B", context=predicate,
                               table_name="T", name="q1")
        payload = query_payload(query, k=2, dataset="D")
        assert payload.pop("dataset") == "D"
        parsed = ExplainRequest.from_dict(payload)
        assert parsed.k == 2
        assert canonical_predicate_key(parsed.query.context) == \
            canonical_predicate_key(predicate)
        assert parsed.query.exposure == "A"
        assert parsed.query.name == "q1"
        assert parsed.query.table_name == "T"

    def test_unserializable_predicate_rejected(self):
        from repro.exceptions import RequestValidationError
        from repro.table.expressions import Or
        query = AggregateQuery(exposure="A", outcome="B",
                               context=Or(Eq("C", 1), Eq("C", 2)))
        with pytest.raises(RequestValidationError):
            query_payload(query)
        assert context_clauses(Eq("C", 1)) == [
            {"column": "C", "op": "eq", "value": 1}]


# --------------------------------------------------------------------------- #
# replica behaviour
# --------------------------------------------------------------------------- #
class TestClusterRouting:
    def test_routing_is_stable_and_process_independent(self, covid_queries):
        """Same canonical key -> same replica, on any pool instance."""
        a = ReplicaPool(n_workers=4)
        b = ReplicaPool(n_workers=4)
        for query in covid_queries:
            key = _routing_key(query)
            assert a.route(key) == b.route(key)
            assert a.route(key) == stable_key_digest(key) % 4

    def test_clause_order_shares_a_shard(self):
        first = AggregateQuery(exposure="A", outcome="B",
                               context=And(Eq("X", 1), Eq("Y", 2)))
        second = AggregateQuery(exposure="A", outcome="B",
                                context=And(Eq("Y", 2), Eq("X", 1)))
        pool = ReplicaPool(n_workers=8)
        assert pool.route(_routing_key(first)) == \
            pool.route(_routing_key(second))

    def test_keys_spread_over_workers(self):
        pool = ReplicaPool(n_workers=4)
        shards = {
            pool.route(_routing_key(
                AggregateQuery(exposure=f"E{i}", outcome="O")))
            for i in range(64)}
        assert len(shards) == 4

    def test_unstarted_and_invalid_cluster_rejected(self, covid_bundle,
                                                    covid_queries):
        pool = ReplicaPool(n_workers=2)
        with pytest.raises(ConfigurationError):
            pool.explain_many(0, DATASET, covid_queries[:1], 3)
        with pytest.raises(ConfigurationError):
            ReplicaPool(n_workers=0)
        # Replicas rebuild pipelines from the default stages only.
        service = ExplanationService(pool=pool)
        try:
            custom = ExplanationPipeline(
                covid_bundle.table, covid_bundle.knowledge_graph,
                covid_bundle.extraction_specs, config=_config(covid_bundle),
                stages=default_stages()[:-1])
            with pytest.raises(ConfigurationError):
                service.register(DATASET, custom)
            assert service.datasets() == []
        finally:
            service.close()

    def test_one_name_reaches_the_pool_once(self, covid_bundle):
        """A registration racing another of the same name fails before the
        pool hears of it, and the pool refuses a name it holds."""
        pool = ReplicaPool(n_workers=1)
        service = ExplanationService(coalesce_window_seconds=0.0, pool=pool)
        original = pool.register
        specs, entered, release = [], threading.Event(), threading.Event()

        def gated(spec):
            specs.append(spec)
            if len(specs) == 1:
                entered.set()
                assert release.wait(120.0)
            return original(spec)

        pool.register = gated
        config = _config(covid_bundle)
        try:
            with ThreadPoolExecutor(max_workers=1) as executor:
                first = executor.submit(service.register_bundle,
                                        covid_bundle, config, False)
                assert entered.wait(60.0)
                with pytest.raises(ConfigurationError):
                    service.register_bundle(covid_bundle, config=config,
                                            warm=False)
                release.set()
                first.result(timeout=120.0)
            assert len(specs) == 1
            assert service.datasets() == [DATASET]
            with pytest.raises(ConfigurationError):
                original(specs[0])
        finally:
            release.set()
            service.close()


class TestClusterServing:
    def test_merged_stats_sum_per_worker_counters(self, cluster_client,
                                                  covid_queries):
        cluster_client.explain_batch(DATASET, covid_queries, k=3)
        stats = cluster_client.stats()
        merged = stats["contexts"][DATASET]["counters"]
        per_worker = [
            snapshot["contexts"][DATASET]["counters"].get(
                "queries_explained", 0)
            for snapshot in stats["workers"].values()
            if "error" not in snapshot]
        # The front runs no engine: its engine counters are the replicas'.
        assert merged["queries_explained"] == sum(per_worker)
        assert len(stats["workers"]) == 2
        assert all(snapshot["role"] == "replica"
                   for snapshot in stats["workers"].values())
        # Every replica request ran one batch of some replica batcher.
        assert stats["data_plane"]["requests"] >= \
            stats["batchers"][DATASET]["batches_executed"] >= 1

    def test_inflight_dedup_single_execution(self, covid_bundle,
                                             covid_queries):
        with LocalClient(_replica_service(covid_bundle,
                                          n_workers=1)) as client:
            query = covid_queries[0]
            barrier = threading.Barrier(4)

            def request(_):
                barrier.wait()
                return client.explain(DATASET, query, k=3)

            with ThreadPoolExecutor(max_workers=4) as pool:
                served = list(pool.map(request, range(4)))
            payloads = {one.envelope.to_json(sort_keys=True) for one in served}
            assert len(payloads) == 1
            stats = client.stats()
            merged = stats["contexts"][DATASET]["counters"]
            # One execution; everyone else attached in flight (or hit the
            # cache if they arrived after resolution).
            assert merged["queries_explained"] == 1
            attached = [one for one in served if one.coalesced]
            hits = [one for one in served if one.cache_hit]
            assert len(attached) + len(hits) == 3

    def test_batch_dedups_identical_queries(self, covid_bundle,
                                            covid_queries):
        with LocalClient(_replica_service(covid_bundle)) as client:
            query = covid_queries[1]
            served = client.explain_batch(DATASET, [query, query, query], k=3)
            assert served[0].envelope.to_json() == served[1].envelope.to_json()
            assert served[1].coalesced and served[2].coalesced
            stats = client.stats()
            assert stats["batchers"][DATASET]["requests_deduplicated"] >= 2
            assert stats["contexts"][DATASET]["counters"][
                "queries_explained"] == 1

    def test_killed_worker_restarts_and_request_is_retried(
            self, covid_bundle, covid_queries):
        service = _replica_service(covid_bundle)
        pool = service.pool
        with LocalClient(service) as client:
            query = covid_queries[0]
            victim = pool.route(_routing_key(query))
            client.explain(DATASET, query, k=3)
            os.kill(pool._handles[victim].process.pid, signal.SIGKILL)
            _wait_dead(pool._handles[victim].process)
            assert client.health()["status"] == "degraded"
            # The front's cache outlives the replica.
            assert client.explain(DATASET, query, k=3).cache_hit
            miss = _routed_to(pool, query, victim)
            served = client.explain(DATASET, miss, k=3)  # restart + retry
            assert pool.worker_restarts == 1
            assert pool.request_retries == 1
            assert not served.cache_hit
            # The respawned replica computes exactly what the engine does.
            assert served.envelope.canonical_json() == \
                _engine_envelope(covid_bundle, miss).canonical_json()
            assert client.health()["status"] == "ok"
            assert client.stats()["workers"][str(victim)]["restarts"] == 1

    def test_version_bump_invalidates_every_worker(self, covid_bundle,
                                                   covid_queries):
        with LocalClient(_replica_service(covid_bundle)) as client:
            client.explain_batch(DATASET, covid_queries, k=3)
            before = client.stats()
            version_before = before["contexts"][DATASET]["dataset_version"]
            assert before["cache"]["size"] == len(covid_queries)
            client.clear_cache()
            after = client.stats()
            assert after["contexts"][DATASET]["dataset_version"] > version_before
            assert after["cache"]["size"] == 0
            for snapshot in after["workers"].values():
                # Every replica bumped its own copy of the version.
                assert snapshot["contexts"][DATASET]["dataset_version"] == \
                    version_before + 1
            served = client.explain_batch(DATASET, covid_queries, k=3)
            assert not any(one.cache_hit for one in served)

    def test_worker_faults_are_server_errors_not_client_errors(self):
        from repro.distributed.ipc import WorkerFaultError, rebuild_error

        rebuilt = rebuild_error("KeyError", ("boom",))
        assert isinstance(rebuilt, WorkerFaultError)
        assert not isinstance(rebuilt, (QueryError, ExplanationError))
        exact = rebuild_error("QueryError", ("bad column",))
        assert isinstance(exact, QueryError)
        assert isinstance(rebuild_error("DatasetNotRegisteredError", ("x",)),
                          DatasetNotRegisteredError)

    def test_register_after_start_reaches_restarted_workers(
            self, covid_bundle, covid_queries):
        pool = ReplicaPool(n_workers=2, frame_store=True)
        service = ExplanationService(coalesce_window_seconds=0.0,
                                     pool=pool)
        service.register_dataset(
            "c1", covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=_config(covid_bundle))
        with LocalClient(service) as client:
            os.kill(pool._handles[0].process.pid, signal.SIGKILL)
            _wait_dead(pool._handles[0].process)
            # The broadcast restarts the dead replica (which then learns
            # the dataset from the spec list; the replica-side op is
            # idempotent).
            service.register_dataset(
                "c2", covid_bundle.table, covid_bundle.knowledge_graph,
                covid_bundle.extraction_specs, config=_config(covid_bundle))
            assert pool.worker_restarts == 1
            assert client.health()["status"] == "ok"
            served = client.explain_batch("c2", covid_queries, k=2)
            assert all(one.envelope.query["exposure"] == query.exposure
                       for one, query in zip(served, covid_queries))
            assert sorted(client.datasets()) == ["c1", "c2"]

    def test_spawn_start_method_serves(self, covid_bundle, covid_queries):
        """The spawn-safe path: dataset pickled once per replica at start."""
        service = _replica_service(covid_bundle, start_method="spawn")
        with LocalClient(service) as client:
            served = client.explain(DATASET, covid_queries[0], k=3)
            assert served.envelope.explanation.attributes
            assert client.stats()["data_plane"]["start_method"] == "spawn"

    def test_slow_replica_never_holds_back_another(self, covid_bundle,
                                                   covid_queries):
        """One batcher per replica: a miss routed to replica B completes
        while replica A's batch is stuck."""
        service = _replica_service(covid_bundle)
        pool = service.pool
        query_a = _routed_to(pool, covid_queries[0], 0)
        query_b = _routed_to(pool, covid_queries[1], 1)
        original = pool.explain_many
        entered, release = threading.Event(), threading.Event()

        def gated(index, dataset, queries, k):
            if index == 0:
                entered.set()
                assert release.wait(120.0)
            return original(index, dataset, queries, k)

        pool.explain_many = gated
        with LocalClient(service) as client, \
                ThreadPoolExecutor(max_workers=2) as executor:
            try:
                blocked = executor.submit(client.explain, DATASET, query_a, 3)
                assert entered.wait(60.0)
                served_b = executor.submit(
                    client.explain, DATASET, query_b, 3).result(timeout=60.0)
                assert not blocked.done()
            finally:
                release.set()
            served_a = blocked.result(timeout=120.0)
        for query, served in ((query_a, served_a), (query_b, served_b)):
            assert served.envelope.canonical_json() == \
                _engine_envelope(covid_bundle, query).canonical_json()


# --------------------------------------------------------------------------- #
# HTTP front end over a replica pool (one handler, any topology)
# --------------------------------------------------------------------------- #
def _serve_http(client):
    server = make_server(client, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, HTTPClient(f"http://{host}:{port}")


class TestHTTPOverCluster:
    def test_healthz_503_while_worker_down_then_heals(self, covid_bundle,
                                                      covid_queries):
        service = _replica_service(covid_bundle)
        pool = service.pool
        client = LocalClient(service)
        server, http = _serve_http(client)
        try:
            assert http.health()["status"] == "ok"
            served = http.explain(DATASET, covid_queries[0], k=3)
            assert served.envelope.explanation.attributes
            victim = pool.route(_routing_key(covid_queries[0]))
            os.kill(pool._handles[victim].process.pid, signal.SIGKILL)
            _wait_dead(pool._handles[victim].process)
            degraded = http.health()
            assert degraded["status"] == "degraded"
            assert degraded["workers_alive"] == 1
            # A miss routed to the dead replica heals the pool, and the
            # respawned replica computes exactly what the engine does.
            miss = _routed_to(pool, covid_queries[0], victim)
            healed = http.explain(DATASET, miss, k=3)
            assert healed.envelope.canonical_json() == \
                _engine_envelope(covid_bundle, miss).canonical_json()
            assert http.health()["status"] == "ok"
            # Pool stats flow through the HTTP surface unchanged.
            stats = http.stats()
            assert stats["data_plane"]["worker_restarts"] == 1
        finally:
            http.close()
            server.shutdown()
            server.server_close()
            client.close()


class TestHTTPOverReplicaPool:
    def test_cached_key_survives_replica_kill_and_miss_heals(
            self, covid_bundle, covid_queries):
        service = _replica_service(covid_bundle)
        pool = service.pool
        client = LocalClient(service)
        server, http = _serve_http(client)
        try:
            query = covid_queries[0]
            http.explain(DATASET, query, k=3)
            victim = pool.route(_routing_key(query))
            requests = http.stats()["data_plane"]["requests"]
            os.kill(pool._handles[victim].process.pid, signal.SIGKILL)
            _wait_dead(pool._handles[victim].process)
            # The envelope lives in the front: no replica is asked.
            assert http.explain(DATASET, query, k=3).cache_hit
            assert http.stats()["data_plane"]["requests"] == requests
            status, _body = http._send("GET", "/healthz", None)
            assert status == 503
            assert http.health()["status"] == "degraded"
            # The next miss routed to the dead replica respawns it and
            # retries on it.
            healed = http.explain(DATASET, _routed_to(pool, query, victim),
                                  k=3)
            assert not healed.cache_hit
            assert http.health()["status"] == "ok"
            assert http.stats()["data_plane"]["worker_restarts"] == 1
            status, metrics = http._send("GET", "/metrics", None)
            assert status == 200
            assert "repro_cluster_workers_alive 2" in \
                metrics.decode().splitlines()
        finally:
            http.close()
            server.shutdown()
            server.server_close()
            client.close()


# --------------------------------------------------------------------------- #
# HTTP front end over one service counting through row shards
# --------------------------------------------------------------------------- #
class TestHTTPOverShardPool:
    def test_healthz_503_while_shard_down_then_heals(self, covid_bundle,
                                                     covid_queries):
        pool = ShardPool(n_shards=2, frame_store=True)
        service = ExplanationService(coalesce_window_seconds=0.0,
                                     pool=pool)
        service.register_bundle(covid_bundle, config=_config(covid_bundle))
        client = LocalClient(service)
        server = make_server(client, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        http = HTTPClient(f"http://{host}:{port}")
        try:
            assert http.health()["status"] == "ok"
            http.explain(DATASET, covid_queries[0], k=3)
            os.kill(pool._handles[1].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool._handles[1].process.is_alive():
                assert time.monotonic() < deadline
                time.sleep(0.05)
            status, _body = http._send("GET", "/healthz", None)
            assert status == 503
            degraded = http.health()
            assert degraded["status"] == "degraded"
            assert degraded["workers_alive"] == 1
            # The next explanation that reaches the data plane respawns
            # the dead shard and retries on it.
            healed = http.explain(DATASET, covid_queries[1], k=3)
            assert not healed.cache_hit
            assert http.health()["status"] == "ok"
            assert http.stats()["data_plane"]["worker_restarts"] == 1
            # Invalidation frees every shard context and its segments.
            http.clear_cache()
            data_plane = http.stats()["data_plane"]
            assert data_plane["contexts"] == 0
            assert data_plane["frame_store"].get("segments", 0) == 0
            status, metrics = http._send("GET", "/metrics", None)
            assert status == 200
            assert "repro_cluster_workers_alive 2" in \
                metrics.decode().splitlines()
        finally:
            server.shutdown()
            server.server_close()
            client.close()


# --------------------------------------------------------------------------- #
# serving-path defaults and the background warmer
# --------------------------------------------------------------------------- #
class TestServingDefaults:
    def test_early_exit_flipped_on_by_register_dataset(self, covid_bundle):
        assert MESAConfig().permutation_early_exit is False  # engine default
        service = ExplanationService(coalesce_window_seconds=0.0)
        try:
            pipeline = service.register_bundle(covid_bundle, warm=False)
            assert pipeline.config.permutation_early_exit is True
        finally:
            service.close()

    def test_prebuilt_pipeline_config_not_rewritten(self, covid_bundle):
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=_config(covid_bundle))
        service = ExplanationService(coalesce_window_seconds=0.0)
        try:
            service.register("prebuilt", pipeline, warm=False)
            assert pipeline.config.permutation_early_exit is False
        finally:
            service.close()

    def test_query_key_carries_dataset_version(self, covid_queries):
        old = ExplanationService.query_key(DATASET, covid_queries[0], 3,
                                           version=1)
        new = ExplanationService.query_key(DATASET, covid_queries[0], 3,
                                           version=2)
        assert old != new
        assert old[:-1] == new[:-1]

    def test_background_warmer_replays_recorded_history(self, covid_bundle,
                                                        covid_queries):
        service = ExplanationService(coalesce_window_seconds=0.0)
        try:
            service.register_bundle(covid_bundle, config=_config(covid_bundle))
            hot, cold = covid_queries[0], covid_queries[1]
            for _ in range(3):
                service.explain(DATASET, hot, k=3)
            service.explain(DATASET, cold, k=3)
            service.clear_cache()
            scheduled = service.warm(DATASET, top=1, background=True)
            assert scheduled == 1
            service.last_warmer.join(timeout=60.0)
            assert not service.last_warmer.is_alive()
            # Only the hottest query was replayed into the fresh version.
            assert service.explain(DATASET, hot, k=3).cache_hit
            assert not service.explain(DATASET, cold, k=3).cache_hit
            counters = service.pipeline(DATASET).context.counters
            assert counters.get("service.warmed_queries", 0) == 1
        finally:
            service.close()
