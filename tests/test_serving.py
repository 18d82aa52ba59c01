"""Tests for the serving layer: caches, coalescing, HTTP front end.

Covers the acceptance surface of the serving subsystem:

* explanation-cache semantics — LRU eviction, TTL expiry (with an injected
  clock, no sleeping), byte-identical envelopes on repeated requests;
* the context-level encoded-frame cache — repeated-context queries skip
  re-factorisation;
* concurrent-request coalescing and in-flight deduplication through the
  micro-batcher;
* served envelopes equal to direct ``pipeline.explain`` results;
* strict request validation mapped to HTTP 400 (and unknown datasets/routes
  to 404) on the JSON API.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import ExplanationPipeline
from repro.engine.stages import PipelineStage
from repro.exceptions import (
    ConfigurationError,
    DatasetNotRegisteredError,
    ExplanationError,
    MissingDataError,
    RequestValidationError,
)
from repro.mesa.config import MESAConfig
from repro.query.aggregate_query import AggregateQuery
from repro.serving import (
    ExplanationService,
    MicroBatcher,
    TTLCache,
    make_server,
)
from repro.serving.schema import BatchExplainRequest, ExplainRequest
from repro.table.expressions import And, Eq, In, canonical_predicate_key


class FakeClock:
    """A manually advanced monotonic clock for TTL/window tests."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------------- #
# TTLCache
# --------------------------------------------------------------------------- #
class TestTTLCache:
    def test_lru_eviction(self):
        cache = TTLCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_ttl_expiry_with_injected_clock(self):
        clock = FakeClock()
        cache = TTLCache(max_entries=8, ttl_seconds=10.0, clock=clock)
        cache.put("key", "value")
        clock.advance(9.9)
        assert cache.get("key") == "value"
        clock.advance(0.2)
        assert cache.get("key") is None
        assert cache.stats()["expirations"] == 1

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = TTLCache(max_entries=2, clock=clock)
        cache.put("key", "value")
        clock.advance(1e9)
        assert cache.get("key") == "value"

    def test_put_refreshes_recency_and_timestamp(self):
        clock = FakeClock()
        cache = TTLCache(max_entries=8, ttl_seconds=10.0, clock=clock)
        cache.put("key", "old")
        clock.advance(8.0)
        cache.put("key", "new")
        clock.advance(8.0)  # 16s after first put, 8s after refresh
        assert cache.get("key") == "new"

    def test_sizes_by_skips_expired_entries(self):
        clock = FakeClock()
        cache = TTLCache(max_entries=8, ttl_seconds=10.0, clock=clock)
        cache.put(("a", 1), "x")
        cache.put(("a", 2), "y")
        clock.advance(5.0)
        cache.put(("b", 1), "z")
        assert cache.sizes_by(lambda key: key[0]) == {"a": 2, "b": 1}
        clock.advance(6.0)  # the "a" entries are now past their TTL
        assert cache.sizes_by(lambda key: key[0]) == {"b": 1}

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            TTLCache(max_entries=0)
        with pytest.raises(ConfigurationError):
            TTLCache(ttl_seconds=0)


# --------------------------------------------------------------------------- #
# canonical keys
# --------------------------------------------------------------------------- #
class TestCanonicalKeys:
    def test_and_order_insensitive(self):
        a = And(Eq("x", 1), Eq("y", 2))
        b = And(Eq("y", 2), Eq("x", 1))
        assert canonical_predicate_key(a) == canonical_predicate_key(b)

    def test_in_value_order_insensitive(self):
        assert canonical_predicate_key(In("x", [1, 2])) == \
            canonical_predicate_key(In("x", [2, 1]))

    def test_different_contexts_differ(self):
        assert canonical_predicate_key(Eq("x", 1)) != \
            canonical_predicate_key(Eq("x", 2))

    def test_query_key_shares_across_clause_order(self):
        qa = AggregateQuery(exposure="T", outcome="O",
                            context=And(Eq("x", 1), Eq("y", 2)))
        qb = AggregateQuery(exposure="T", outcome="O",
                            context=And(Eq("y", 2), Eq("x", 1)))
        assert ExplanationService.query_key("d", qa, 3) == \
            ExplanationService.query_key("d", qb, 3)
        assert ExplanationService.query_key("d", qa, 3) != \
            ExplanationService.query_key("d", qa, 4)


# --------------------------------------------------------------------------- #
# MicroBatcher
# --------------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_coalesces_concurrent_requests_into_one_batch(self):
        barrier = threading.Barrier(4)
        calls = []

        def runner(queries, k):
            calls.append(list(queries))
            return [f"r:{query}" for query in queries]

        with MicroBatcher(runner, window_seconds=0.2) as batcher:
            def submit(i):
                barrier.wait()
                future, _ = batcher.submit(f"key{i}", f"q{i}")
                return future.result(timeout=10)

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(submit, range(4)))
        assert sorted(results) == [f"r:q{i}" for i in range(4)]
        # All four distinct requests coalesced into one runner call.
        assert len(calls) == 1
        assert len(calls[0]) == 4

    def test_inflight_dedup_single_execution(self):
        started = threading.Event()
        release = threading.Event()
        executions = []

        def runner(queries, k):
            executions.append(list(queries))
            started.set()
            release.wait(timeout=10)
            return ["result"] * len(queries)

        batcher = MicroBatcher(runner, window_seconds=0.0)
        try:
            first, attached_first = batcher.submit("same", "query")
            assert not attached_first
            assert started.wait(timeout=10)
            # The batch is executing; an identical request must attach.
            second, attached_second = batcher.submit("same", "query")
            assert attached_second
            assert second is first
            release.set()
            assert first.result(timeout=10) == "result"
            assert len(executions) == 1
            assert batcher.stats()["requests_deduplicated"] == 1
        finally:
            release.set()
            batcher.close()

    def test_different_k_run_as_separate_groups(self):
        calls = []

        def runner(queries, k):
            calls.append((list(queries), k))
            return [f"{query}@{k}" for query in queries]

        with MicroBatcher(runner, window_seconds=0.2) as batcher:
            f1, _ = batcher.submit("a", "qa", 2)
            f2, _ = batcher.submit("b", "qb", 5)
            assert f1.result(timeout=10) == "qa@2"
            assert f2.result(timeout=10) == "qb@5"
        assert sorted(k for _, k in calls) == [2, 5]

    def test_runner_failure_propagates_and_clears_inflight(self):
        fail = {"on": True}

        def runner(queries, k):
            if fail["on"]:
                raise ValueError("boom")
            return ["fine"] * len(queries)

        with MicroBatcher(runner, window_seconds=0.0) as batcher:
            future, _ = batcher.submit("key", "query")
            with pytest.raises(ValueError):
                future.result(timeout=10)
            fail["on"] = False
            # The failed key must not stay in flight forever.
            retry, attached = batcher.submit("key", "query")
            assert not attached
            assert retry.result(timeout=10) == "fine"

    def test_closed_batcher_rejects(self):
        batcher = MicroBatcher(lambda queries, k: list(queries))
        batcher.close()
        with pytest.raises(ConfigurationError):
            batcher.submit("key", "query")


# --------------------------------------------------------------------------- #
# ExplanationService over a real pipeline
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def covid_service(covid_bundle):
    service = ExplanationService(cache_size=64, coalesce_window_seconds=0.002)
    config = MESAConfig(excluded_columns=tuple(covid_bundle.id_columns), k=3)
    service.register_bundle(covid_bundle, config=config)
    yield service
    service.close()


class TestExplanationService:
    def test_unknown_dataset_raises(self, covid_service):
        query = AggregateQuery(exposure="A", outcome="B")
        with pytest.raises(DatasetNotRegisteredError):
            covid_service.explain("nope", query)

    def test_duplicate_registration_rejected(self, covid_service, covid_bundle):
        with pytest.raises(ConfigurationError):
            covid_service.register_bundle(covid_bundle)

    def test_served_equals_direct_and_repeat_is_byte_identical(
            self, covid_service, covid_bundle):
        query = covid_bundle.queries[0].query
        served = covid_service.explain(covid_bundle.name, query, k=3)
        assert not served.cache_hit

        direct = covid_service.pipeline(covid_bundle.name).explain(query, k=3)
        a = served.envelope.to_dict()
        b = direct.to_envelope().to_dict()
        a["timings"] = b["timings"] = None
        a["explanation"]["runtime_seconds"] = None
        b["explanation"]["runtime_seconds"] = None
        assert a == b

        repeat = covid_service.explain(covid_bundle.name, query, k=3)
        assert repeat.cache_hit
        assert repeat.envelope is served.envelope
        assert repeat.envelope.to_json(sort_keys=True) == \
            served.envelope.to_json(sort_keys=True)

    def test_cache_counters_fold_into_context(self, covid_service, covid_bundle):
        query = covid_bundle.queries[1].query
        context = covid_service.pipeline(covid_bundle.name).context
        before_hits = context.counters.get("service.cache_hit", 0)
        covid_service.explain(covid_bundle.name, query, k=3)
        covid_service.explain(covid_bundle.name, query, k=3)
        assert context.counters["service.cache_hit"] >= before_hits + 1
        assert context.counters["service.cache_miss"] >= 1

    def test_explain_batch_mixes_hits_and_misses(self, covid_service, covid_bundle):
        queries = [entry.query for entry in covid_bundle.queries]
        first = covid_service.explain_batch(covid_bundle.name, queries, k=4)
        assert all(not served.cache_hit for served in first)
        second = covid_service.explain_batch(covid_bundle.name, queries, k=4)
        assert all(served.cache_hit for served in second)
        for a, b in zip(first, second):
            assert b.envelope is a.envelope

    def test_concurrent_identical_requests_coalesce(self, covid_bundle):
        service = ExplanationService(cache_size=64,
                                     coalesce_window_seconds=0.05)
        config = MESAConfig(excluded_columns=tuple(covid_bundle.id_columns), k=3)
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=config)
        service.register("covid", pipeline)
        query = covid_bundle.queries[0].query
        try:
            barrier = threading.Barrier(6)

            def request(_):
                barrier.wait()
                return service.explain("covid", query, k=3)

            with ThreadPoolExecutor(max_workers=6) as pool:
                served = list(pool.map(request, range(6)))
            payloads = {one.envelope.to_json(sort_keys=True) for one in served}
            assert len(payloads) == 1  # byte-identical across all callers
            stats = service.stats()
            batcher_stats = stats["batchers"]["covid"]
            # At most one execution ran; everything else was a cache hit or
            # attached to the in-flight future.
            assert batcher_stats["requests_submitted"] - \
                batcher_stats["requests_deduplicated"] == 1
            assert pipeline.context.counters["queries_explained"] == 1
        finally:
            service.close()

    def test_ttl_expiry_recomputes(self, covid_bundle):
        clock = FakeClock()
        service = ExplanationService(cache_size=8, ttl_seconds=60.0,
                                     coalesce_window_seconds=0.0, clock=clock)
        config = MESAConfig(excluded_columns=tuple(covid_bundle.id_columns), k=3)
        service.register_bundle(covid_bundle, config=config)
        query = covid_bundle.queries[0].query
        try:
            first = service.explain(covid_bundle.name, query, k=3)
            clock.advance(59.0)
            warm = service.explain(covid_bundle.name, query, k=3)
            assert warm.cache_hit
            clock.advance(2.0)
            expired = service.explain(covid_bundle.name, query, k=3)
            assert not expired.cache_hit
            assert expired.envelope.to_json(sort_keys=True) != "" \
                and expired.envelope.explanation.attributes == \
                first.envelope.explanation.attributes
        finally:
            service.close()

    def test_negative_cache_shields_engine_from_hostile_repeats(
            self, covid_bundle):
        service = ExplanationService(cache_size=8, coalesce_window_seconds=0.0)
        config = MESAConfig(excluded_columns=tuple(covid_bundle.id_columns), k=3)
        service.register_bundle(covid_bundle, config=config)
        context = service.pipeline(covid_bundle.name).context
        bad = AggregateQuery(exposure="Country", outcome="Deaths_per_100_cases",
                             context=Eq("Country", "Atlantis"))
        try:
            with pytest.raises(ExplanationError, match="selects no rows"):
                service.explain(covid_bundle.name, bad, k=3)
            submitted = service.stats()["batchers"][covid_bundle.name][
                "requests_submitted"]
            # The repeat raises the identical verdict without reaching the
            # engine: no new batcher submission, a negative_hit counter.
            with pytest.raises(ExplanationError, match="selects no rows"):
                service.explain(covid_bundle.name, bad, k=3)
            assert context.counters["service.negative_hit"] == 1
            assert service.stats()["batchers"][covid_bundle.name][
                "requests_submitted"] == submitted
            # The batch path is shielded by the same verdict cache.
            with pytest.raises(ExplanationError, match="selects no rows"):
                service.explain_batch(covid_bundle.name, [bad], k=3)
            assert context.counters["service.negative_hit"] == 2
            assert service.stats()["negative_cache"]["size"] == 1
            # clear_cache drops the verdict: the engine is reached again.
            service.clear_cache()
            with pytest.raises(ExplanationError, match="selects no rows"):
                service.explain(covid_bundle.name, bad, k=3)
            assert context.counters["service.negative_hit"] == 2
        finally:
            service.close()

    def test_clear_cache_reaches_the_engine(self, covid_bundle):
        service = ExplanationService(cache_size=8, coalesce_window_seconds=0.0)
        config = MESAConfig(excluded_columns=tuple(covid_bundle.id_columns), k=3)
        service.register_bundle(covid_bundle, config=config)
        counters = service.pipeline(covid_bundle.name).context.counters
        query = covid_bundle.queries[0].query
        watched = ("frame_cache_misses", "stage.online_pruning")
        try:
            first = service.explain(covid_bundle.name, query, k=3)
            before = {name: counters[name] for name in watched}
            service.clear_cache()
            second = service.explain(covid_bundle.name, query, k=3)
            after = {name: counters[name] for name in watched}
        finally:
            service.close()
        assert not second.cache_hit
        # The pre-clear prepared state is gone: the context frame is
        # encoded again and the per-query stages re-run.
        assert after == {name: before[name] + 1 for name in watched}
        a, b = first.envelope.explanation, second.envelope.explanation
        assert a.attributes == b.attributes
        assert (a.explainability, a.baseline_cmi, a.objective) == \
            (b.explainability, b.baseline_cmi, b.objective)
        assert a.responsibilities == b.responsibilities

    def test_coalesced_failure_does_not_poison_innocent_queries(
            self, covid_bundle):
        """A bad query sharing a batch must not fail (or negative-cache)
        the valid queries that merely coalesced into it."""
        service = ExplanationService(cache_size=8,
                                     coalesce_window_seconds=0.2)
        config = MESAConfig(excluded_columns=tuple(covid_bundle.id_columns), k=3)
        service.register_bundle(covid_bundle, config=config)
        good = covid_bundle.queries[0].query
        bad = AggregateQuery(exposure="Country", outcome="Deaths_per_100_cases",
                             context=Eq("Country", "Atlantis"))
        try:
            barrier = threading.Barrier(2)

            def run(query):
                barrier.wait()  # both land inside one coalescing window
                return service.explain(covid_bundle.name, query, k=3)

            with ThreadPoolExecutor(max_workers=2) as pool:
                good_future = pool.submit(run, good)
                bad_future = pool.submit(run, bad)
                served = good_future.result()
                with pytest.raises(ExplanationError, match="selects no rows"):
                    bad_future.result()
            assert served.envelope.explanation.attributes is not None
            # Only the bad key's verdict was negative-cached: the good
            # query answers from the envelope cache, and repeating it
            # never raises.
            assert service.stats()["negative_cache"]["size"] == 1
            repeat = service.explain(covid_bundle.name, good, k=3)
            assert repeat.cache_hit
        finally:
            service.close()

    def test_negative_cache_respects_ttl(self, covid_bundle):
        clock = FakeClock()
        service = ExplanationService(cache_size=8, ttl_seconds=60.0,
                                     coalesce_window_seconds=0.0, clock=clock)
        config = MESAConfig(excluded_columns=tuple(covid_bundle.id_columns), k=3)
        service.register_bundle(covid_bundle, config=config)
        context = service.pipeline(covid_bundle.name).context
        bad = AggregateQuery(exposure="Country", outcome="Deaths_per_100_cases",
                             context=Eq("Country", "Atlantis"))
        try:
            with pytest.raises(ExplanationError):
                service.explain(covid_bundle.name, bad, k=3)
            with pytest.raises(ExplanationError):
                service.explain(covid_bundle.name, bad, k=3)
            assert context.counters["service.negative_hit"] == 1
            clock.advance(61.0)
            with pytest.raises(ExplanationError):
                service.explain(covid_bundle.name, bad, k=3)
            # Expired verdict: the request went to the engine, not the cache.
            assert context.counters["service.negative_hit"] == 1
        finally:
            service.close()

    def test_frame_cache_hits_for_repeated_context(self, covid_service,
                                                   covid_bundle):
        # All representative queries already ran through the service above;
        # the context-level frame cache must have answered repeats.
        context = covid_service.pipeline(covid_bundle.name).context
        assert context.counters.get("frame_cache_hits", 0) >= 1
        misses = context.counters["frame_cache_misses"]
        # Misses are bounded by the number of distinct contexts, not queries.
        distinct_contexts = {
            canonical_predicate_key(entry.query.context)
            for entry in covid_bundle.queries}
        assert misses <= len(distinct_contexts) + 1


# --------------------------------------------------------------------------- #
# request schema
# --------------------------------------------------------------------------- #
class TestSchema:
    def test_structural_request_roundtrip(self):
        request = ExplainRequest.from_dict({
            "exposure": "Country", "outcome": "Salary", "aggregate": "avg",
            "context": [
                {"column": "Continent", "op": "eq", "value": "Europe"},
                {"column": "Age", "op": "between", "low": 20, "high": 60},
            ],
            "k": 3,
        })
        assert request.k == 3
        assert request.query.exposure == "Country"
        assert sorted(request.query.context.columns()) == ["Age", "Continent"]

    def test_sql_request(self):
        request = ExplainRequest.from_dict({
            "sql": "SELECT Country, avg(Salary) FROM SO GROUP BY Country",
        })
        assert request.query.outcome == "Salary"
        assert request.k is None

    @pytest.mark.parametrize("payload, fragment", [
        ([], "JSON object"),
        ({"exposure": "T"}, "outcome"),
        ({"exposure": "T", "outcome": "T"}, "must be different"),
        ({"exposure": "T", "outcome": "O", "k": 0}, "k must be >= 1"),
        ({"exposure": "T", "outcome": "O", "k": "three"}, "k must be an integer"),
        ({"exposure": "T", "outcome": "O", "bogus": 1}, "unknown field"),
        ({"exposure": "T", "outcome": "O", "aggregate": "median95"},
         "Unknown aggregate"),
        ({"exposure": "T", "outcome": "O", "context": "Continent = 'EU'"},
         "context must be a list"),
        ({"exposure": "T", "outcome": "O",
          "context": [{"column": "C", "op": "like", "value": "x"}]},
         "not supported"),
        ({"exposure": "T", "outcome": "O",
          "context": [{"column": "C", "op": "eq"}]}, "requires a 'value'"),
        ({"exposure": "T", "outcome": "O",
          "context": [{"column": "C", "op": "in", "values": []}]},
         "non-empty 'values'"),
        ({"exposure": "T", "outcome": "O",
          "context": [{"column": "C", "op": "between", "low": 1}]},
         "numeric 'low' and 'high'"),
        ({"sql": "SELECT boom", "k": 1}, "Cannot parse query"),
        ({"sql": "SELECT T, avg(O) FROM t GROUP BY T", "exposure": "T"},
         "not both"),
    ])
    def test_malformed_requests_rejected(self, payload, fragment):
        with pytest.raises(RequestValidationError) as excinfo:
            ExplainRequest.from_dict(payload)
        assert fragment in str(excinfo.value)

    def test_batch_request_collects_positional_errors(self):
        with pytest.raises(RequestValidationError) as excinfo:
            BatchExplainRequest.from_dict({"queries": [
                {"exposure": "T", "outcome": "O"},
                {"exposure": "T"},
            ]})
        assert "queries[1]" in str(excinfo.value)

    def test_batch_request_requires_queries(self):
        with pytest.raises(RequestValidationError):
            BatchExplainRequest.from_dict({"queries": []})


# --------------------------------------------------------------------------- #
# HTTP front end
# --------------------------------------------------------------------------- #
class _MissingDataStage(PipelineStage):
    """A stage that fails like a degenerate IPW fit (HTTP 422 mapping)."""

    name = "boom"

    def run(self, state, context):
        raise MissingDataError("degenerate selection-model input")


@pytest.fixture(scope="module")
def http_endpoint(covid_service):
    server = make_server(covid_service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def _post(base: str, path: str, body) -> tuple:
    data = json.dumps(body).encode("utf-8") if not isinstance(body, bytes) else body
    request = urllib.request.Request(base + path, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(base: str, path: str) -> tuple:
    try:
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHTTP:
    def test_healthz(self, http_endpoint, covid_bundle):
        status, body = _get(http_endpoint, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert covid_bundle.name in body["datasets"]

    def test_explain_roundtrips_envelope(self, http_endpoint, covid_service,
                                         covid_bundle):
        entry = covid_bundle.queries[0]
        status, body = _post(http_endpoint, "/explain", {
            "dataset": covid_bundle.name,
            "exposure": entry.query.exposure,
            "outcome": entry.query.outcome,
            "aggregate": entry.query.aggregate,
            "k": 3,
        })
        assert status == 200
        assert body["dataset"] == covid_bundle.name
        # The in-process comparison must describe the same request the HTTP
        # body did: the client-visible labels (name/table_name) are part of
        # the canonical key, so the bundle's named query is a *different*
        # cache entry from this anonymous one.
        as_requested = AggregateQuery(
            exposure=entry.query.exposure, outcome=entry.query.outcome,
            aggregate=entry.query.aggregate)
        served = covid_service.explain(covid_bundle.name, as_requested, k=3)
        assert served.cache_hit  # the HTTP request above populated the entry
        assert body["envelope"] == served.envelope.to_dict()

    def test_explain_batch_returns_request_order(self, http_endpoint,
                                                 covid_bundle):
        queries = [{"exposure": entry.query.exposure,
                    "outcome": entry.query.outcome,
                    "aggregate": entry.query.aggregate}
                   for entry in covid_bundle.queries[:2]]
        status, body = _post(http_endpoint, "/explain_batch", {
            "dataset": covid_bundle.name, "queries": queries, "k": 3,
        })
        assert status == 200
        assert len(body["results"]) == 2
        for sent, got in zip(covid_bundle.queries[:2], body["results"]):
            assert got["envelope"]["query"]["exposure"] == sent.query.exposure

    @pytest.mark.parametrize("path, body", [
        ("/explain", {"dataset": "Covid-19"}),                      # no query
        ("/explain", {"dataset": "Covid-19", "exposure": "A"}),     # no outcome
        ("/explain", {"exposure": "A", "outcome": "B"}),            # no dataset
        ("/explain", {"dataset": "Covid-19", "exposure": "A",
                      "outcome": "B", "k": -2}),                    # bad k
        ("/explain_batch", {"dataset": "Covid-19", "queries": []}),  # empty batch
    ])
    def test_malformed_requests_get_400(self, http_endpoint, path, body):
        status, payload = _post(http_endpoint, path, body)
        assert status == 400
        assert payload["errors"]

    def test_invalid_json_gets_400(self, http_endpoint):
        status, payload = _post(http_endpoint, "/explain", b"{not json")
        assert status == 400
        assert "not valid JSON" in payload["errors"][0]

    def test_unknown_dataset_gets_404(self, http_endpoint):
        status, payload = _post(http_endpoint, "/explain", {
            "dataset": "missing", "exposure": "A", "outcome": "B"})
        assert status == 404
        assert "not registered" in payload["errors"][0]

    def test_unknown_route_gets_404(self, http_endpoint):
        assert _get(http_endpoint, "/nope")[0] == 404
        assert _post(http_endpoint, "/nope", {})[0] == 404

    def test_query_referencing_missing_column_gets_400(self, http_endpoint,
                                                       covid_bundle):
        status, payload = _post(http_endpoint, "/explain", {
            "dataset": covid_bundle.name,
            "exposure": "NoSuchColumn", "outcome": "Deaths_per_100_cases"})
        assert status == 400
        assert "missing column" in payload["errors"][0]

    def test_zero_row_context_gets_400(self, http_endpoint, covid_bundle):
        status, payload = _post(http_endpoint, "/explain", {
            "dataset": covid_bundle.name,
            "exposure": "Country", "outcome": "Deaths_per_100_cases",
            "context": [{"column": "Country", "op": "eq", "value": "Atlantis"}]})
        assert status == 400
        assert "selects no rows" in payload["errors"][0]
        # The repeat is answered from the negative cache — same status, same
        # message, no second engine run.
        repeat_status, repeat_payload = _post(http_endpoint, "/explain", {
            "dataset": covid_bundle.name,
            "exposure": "Country", "outcome": "Deaths_per_100_cases",
            "context": [{"column": "Country", "op": "eq", "value": "Atlantis"}]})
        assert repeat_status == 400
        assert repeat_payload["errors"] == payload["errors"]

    def test_missing_data_error_gets_422(self, http_endpoint, covid_service,
                                         covid_bundle):
        pipeline = ExplanationPipeline(
            covid_bundle.table, config=MESAConfig(k=3),
            stages=[_MissingDataStage()])
        covid_service.register("covid-422", pipeline, warm=False)
        status, payload = _post(http_endpoint, "/explain", {
            "dataset": "covid-422",
            "exposure": "Country", "outcome": "Deaths_per_100_cases"})
        assert status == 422
        assert "degenerate selection-model input" in payload["errors"][0]

    def test_oversized_body_gets_413(self, http_endpoint):
        request = urllib.request.Request(
            http_endpoint + "/explain", data=b"x", method="POST",
            headers={"Content-Length": str((1 << 20) + 1)})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 413

    def test_stats_exposes_cache_and_batcher_counters(self, http_endpoint,
                                                      covid_bundle):
        status, body = _get(http_endpoint, "/stats")
        assert status == 200
        assert body["cache"]["hits"] >= 1
        assert covid_bundle.name in body["contexts"]
        assert "service.cache_miss" in \
            body["contexts"][covid_bundle.name]["counters"]
