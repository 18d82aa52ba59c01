"""Tests for the observability layer: tracing, metrics, structured logs.

Covers the :mod:`repro.obs` primitives in isolation (bounded tracer,
cross-thread capture, metrics registry, Prometheus rendering, the
slow-query log), the serving integrations (per-request trace ids, the
``/metrics`` and ``/trace/<id>`` endpoints, the opt-in ``debug.trace``
block), the TTL cache's amortised expiry sweep, and the cross-process
guarantees: a restarted engine replica must not deflate folded lifetime
counters, and one HTTP request through a row-sharded service must stitch
front-end, engine and shard spans into a single trace tree.  The served-path
benchmark's span launcher must find every layer function it wraps.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import json
import logging
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.distributed import ReplicaPool, ShardPool
from repro.mesa.config import MESAConfig
from repro.obs import trace
from repro.obs.logs import SLOW_QUERY_LOGGER, JsonLogFormatter, log_slow_query
from repro.obs.metrics import MetricsRegistry, prometheus_text
from repro.obs.trace import Tracer
from repro.serving import ExplanationService, LocalClient, make_server
from repro.serving.cache import TTLCache

DATASET = "Covid-19"


def _config(bundle, **overrides) -> MESAConfig:
    return MESAConfig(excluded_columns=tuple(bundle.id_columns), k=3,
                      **overrides)


def _walk(node):
    yield node
    for child in node.get("children", []):
        yield from _walk(child)


def _tree_spans(tree):
    for root in tree["roots"]:
        yield from _walk(root)


# --------------------------------------------------------------------------- #
# tracing core
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_spans_nest_and_record(self):
        tracer = Tracer(tier="t")
        trace_id = tracer.start_trace()
        token = trace.activate(tracer, trace_id)
        try:
            with trace.span("outer", kind="test") as outer:
                with trace.span("inner") as inner:
                    inner.set_tag("n", 3)
                assert outer.span_id != inner.span_id
        finally:
            trace.deactivate(token)
        spans = tracer.spans_of(trace_id)
        by_name = {one["name"]: one for one in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["tags"] == {"n": 3}
        assert by_name["outer"]["tags"] == {"kind": "test"}
        assert all(one["duration"] >= 0.0 for one in spans)
        assert all(one["tier"] == "t" for one in spans)

    def test_no_active_trace_is_a_noop(self):
        # Default-on cheapness: without an activation, span() returns the
        # shared no-op and annotate() does nothing.
        with trace.span("anything", a=1) as sp:
            sp.set_tag("b", 2)
            trace.annotate(c=3)
        assert trace.current_trace_id() is None
        assert trace.current_context() is None
        assert trace.capture() is None

    def test_trace_store_is_bounded_lru(self):
        tracer = Tracer(max_traces=2)
        ids = [tracer.start_trace() for _ in range(3)]
        for trace_id in ids:
            token = trace.activate(tracer, trace_id)
            with trace.span("s"):
                pass
            trace.deactivate(token)
        assert tracer.spans_of(ids[0]) == []  # evicted
        assert tracer.spans_of(ids[1]) and tracer.spans_of(ids[2])

    def test_spans_past_cap_are_counted_not_stored(self):
        tracer = Tracer(max_spans_per_trace=2)
        trace_id = tracer.start_trace()
        token = trace.activate(tracer, trace_id)
        for _ in range(5):
            with trace.span("s"):
                pass
        trace.deactivate(token)
        assert len(tracer.spans_of(trace_id)) == 2
        tree = tracer.trace_tree(trace_id)
        assert tree["spans_dropped"] == 3
        assert tracer.stats()["spans_dropped"] == 3

    def test_trace_tree_nests_and_sorts(self):
        tracer = Tracer()
        trace_id = tracer.start_trace()
        token = trace.activate(tracer, trace_id)
        with trace.span("root"):
            with trace.span("a"):
                pass
            with trace.span("b"):
                pass
        trace.deactivate(token)
        tree = tracer.trace_tree(trace_id)
        assert tree["n_spans"] == 3
        (root,) = tree["roots"]
        assert root["name"] == "root"
        assert [child["name"] for child in root["children"]] == ["a", "b"]
        assert tracer.trace_tree("no-such-id") is None

    def test_capture_reactivates_on_another_thread(self):
        tracer = Tracer()
        trace_id = tracer.start_trace()
        token = trace.activate(tracer, trace_id)
        with trace.span("parent"):
            captured = trace.capture()

            def work():
                with trace.activation(captured):
                    with trace.span("child"):
                        pass

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        trace.deactivate(token)
        by_name = {one["name"]: one for one in tracer.spans_of(trace_id)}
        # The cross-thread span nests under the span open at capture time.
        assert by_name["child"]["parent_id"] == by_name["parent"]["span_id"]

    def test_record_span_synthesises_finished_spans(self):
        tracer = Tracer()
        trace_id = tracer.start_trace()
        token = trace.activate(tracer, trace_id)
        captured = trace.capture()
        trace.deactivate(token)
        trace.record_span(captured, "queue_wait", 0.25, batch_size=4)
        trace.record_span(None, "dropped", 1.0)  # no capture: no-op
        (span_dict,) = tracer.spans_of(trace_id)
        assert span_dict["name"] == "queue_wait"
        assert span_dict["duration"] == pytest.approx(0.25)
        assert span_dict["tags"] == {"batch_size": 4}

    def test_wire_context_and_absorb_stitch_processes(self):
        # Simulate the IPC path: the front captures a wire context, the
        # "remote" side runs its own collector under the propagated ids,
        # and the front absorbs the returned spans into one tree.
        front = Tracer(tier="front")
        trace_id = front.start_trace()
        token = trace.activate(front, trace_id)
        with trace.span("rpc.op") as rpc_span:
            wire = trace.current_context()
            assert wire == {"trace_id": trace_id,
                            "parent_span_id": rpc_span.span_id}
            remote = Tracer(tier="worker")
            remote_token = trace.activate(
                remote, wire["trace_id"],
                parent_span_id=wire["parent_span_id"])
            with trace.span("worker.op"):
                pass
            trace.deactivate(remote_token)
            trace.absorb(remote.pop_spans(trace_id))
        trace.deactivate(token)
        tree = front.trace_tree(trace_id)
        (root,) = tree["roots"]
        assert root["name"] == "rpc.op" and root["tier"] == "front"
        (child,) = root["children"]
        assert child["name"] == "worker.op" and child["tier"] == "worker"
        assert remote.pop_spans(trace_id) == []  # popped, not copied

    def test_begin_request_finish_restores_previous_activation(self):
        tracer = Tracer()
        request = trace.begin_request(tracer, "http.explain", dataset="d")
        assert trace.current_trace_id() == request.trace_id
        request.finish(outcome="ok")
        request.finish()  # idempotent
        assert trace.current_trace_id() is None
        (root,) = tracer.trace_tree(request.trace_id)["roots"]
        assert root["tags"] == {"dataset": "d", "outcome": "ok"}


# --------------------------------------------------------------------------- #
# metrics registry and exposition
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_gauge_histogram_state(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", {"endpoint": "explain"}).inc()
        registry.counter("requests_total", {"endpoint": "explain"}).inc(2)
        registry.gauge("queue_depth", {}).set(7)
        hist = registry.histogram("latency_seconds", {},
                                  buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        state = {(entry["type"], entry["name"]): entry
                 for entry in registry.state()}
        assert state[("counter", "requests_total")]["value"] == 3
        assert state[("gauge", "queue_depth")]["value"] == 7
        histogram = state[("histogram", "latency_seconds")]
        assert histogram["counts"] == [1, 1, 1, 1]  # one past +Inf
        assert histogram["count"] == 4
        assert histogram["sum"] == pytest.approx(55.55)

    def test_histogram_quantiles_interpolate(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t", {}, buckets=(1.0, 2.0, 4.0))
        for value in [0.5] * 50 + [1.5] * 40 + [3.0] * 10:
            hist.observe(value)
        assert 0.0 < hist.quantile(0.5) <= 1.0
        assert 2.0 < hist.quantile(0.99) <= 4.0

    def test_prometheus_text_is_well_formed(self, covid_bundle):
        service = ExplanationService(coalesce_window_seconds=0.0)
        try:
            service.register_bundle(covid_bundle,
                                    config=_config(covid_bundle))
            query = covid_bundle.queries[0].query
            service.explain(DATASET, query, k=3)
            service.explain(DATASET, query, k=3)
            text = prometheus_text(service.stats())
        finally:
            service.close()
        assert text.endswith("\n")
        sample_names = set()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_and_labels, _, value = line.rpartition(" ")
            float(value)  # every sample value parses as a number
            name = name_and_labels.split("{", 1)[0]
            assert name.replace("_", "").isalnum(), line
            sample_names.add(name)
        assert "repro_engine_events_total" in sample_names
        assert "repro_cache_hit_ratio" in sample_names
        assert "repro_request_seconds_bucket" in sample_names
        assert "repro_request_seconds_count" in sample_names
        assert "repro_uptime_seconds" in sample_names
        # Histogram buckets are cumulative and end at +Inf == _count.
        assert 'le="+Inf"' in text


# --------------------------------------------------------------------------- #
# structured logs
# --------------------------------------------------------------------------- #
class TestLogs:
    def test_json_formatter_embeds_structured_events(self):
        formatter = JsonLogFormatter()
        record = logging.LogRecord(
            "repro.serving", logging.INFO, __file__, 1,
            json.dumps({"event": "slow_query", "seconds": 2.5}), (), None)
        parsed = json.loads(formatter.format(record))
        assert parsed["logger"] == "repro.serving"
        assert parsed["level"] == "info"
        assert parsed["event"]["event"] == "slow_query"
        plain = logging.LogRecord(
            "repro.serving", logging.WARNING, __file__, 1, "plain %s",
            ("text",), None)
        parsed = json.loads(formatter.format(plain))
        assert parsed["message"] == "plain text"

    def test_log_slow_query_thresholds(self, caplog):
        with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
            assert not log_slow_query(0.5, 1.0, endpoint="/explain",
                                      dataset="d")
            assert not log_slow_query(5.0, None, endpoint="/explain",
                                      dataset="d")
            assert log_slow_query(2.0, 1.0, endpoint="/explain", dataset="d",
                                  trace_id="abc", queries=4)
        (record,) = caplog.records
        event = json.loads(record.getMessage())
        assert event["event"] == "slow_query"
        assert event["seconds"] == pytest.approx(2.0)
        assert event["trace_id"] == "abc"
        assert event["queries"] == 4


# --------------------------------------------------------------------------- #
# TTL cache: amortised expiry sweep (no get() required)
# --------------------------------------------------------------------------- #
class TestTTLSweep:
    def test_put_churn_sweeps_expired_entries(self):
        clock = [0.0]
        cache = TTLCache(max_entries=10_000, ttl_seconds=10.0,
                         clock=lambda: clock[0])
        for index in range(TTLCache.SWEEP_EVERY - 1):
            cache.put(("old", index), index)
        clock[0] = 100.0  # everything so far is now long expired
        # Lazy expiry alone would keep the dead entries resident forever —
        # nothing ever get()s them again.  The threshold put triggers the
        # amortised sweep.
        cache.put(("fresh", 0), 0)
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["sweeps"] == 1
        assert stats["expirations"] == TTLCache.SWEEP_EVERY - 1
        assert cache.get(("fresh", 0)) == 0

    def test_explicit_sweep_and_no_ttl_noop(self):
        clock = [0.0]
        cache = TTLCache(max_entries=100, ttl_seconds=5.0,
                         clock=lambda: clock[0])
        cache.put("a", 1)
        cache.put("b", 2)
        clock[0] = 6.0
        cache.put("c", 3)
        assert cache.sweep() == 2
        assert len(cache) == 1
        untimed = TTLCache(max_entries=100)
        untimed.put("a", 1)
        assert untimed.sweep() == 0
        assert untimed.stats()["sweeps"] == 0


# --------------------------------------------------------------------------- #
# service integration: request traces, metrics, slow-query log
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def traced_service(covid_bundle):
    service = ExplanationService(coalesce_window_seconds=0.0)
    service.register_bundle(covid_bundle, config=_config(covid_bundle))
    yield service
    service.close()


class TestServiceObservability:
    def test_explain_returns_trace_with_engine_spans(self, traced_service,
                                                     covid_bundle):
        query = covid_bundle.queries[1].query
        served = traced_service.explain(DATASET, query, k=3)
        assert served.trace_id
        tree = traced_service.tracer.trace_tree(served.trace_id)
        names = [one["name"] for one in _tree_spans(tree)]
        assert "service.explain" in names
        assert "cache.lookup" in names
        assert any(name.startswith("stage.") for name in names)
        assert "permutation_test" in names
        perms = [one for one in _tree_spans(tree)
                 if one["name"] == "permutation_test"]
        # Tests that actually ran permutations carry the outcome tags
        # (cached-verdict lookups open the span but report no outcome).
        tagged = [one for one in perms
                  if "permutations_run" in one["tags"]]
        assert tagged and all(one["tags"]["permutations_run"] >= 0
                              for one in tagged)
        assert all(one["duration"] >= 0.0 for one in _tree_spans(tree))
        # A cache hit is traced too, and tagged as one.
        repeat = traced_service.explain(DATASET, query, k=3)
        assert repeat.trace_id and repeat.trace_id != served.trace_id
        hit_tree = traced_service.tracer.trace_tree(repeat.trace_id)
        lookup = next(one for one in _tree_spans(hit_tree)
                      if one["name"] == "cache.lookup")
        assert lookup["tags"]["hit"] is True

    def test_request_metrics_accumulate(self, traced_service, covid_bundle):
        query = covid_bundle.queries[1].query
        traced_service.explain(DATASET, query, k=3)
        state = {(entry["type"], entry["name"], tuple(sorted(
            entry["labels"].items()))): entry
            for entry in traced_service.metrics.state()}
        outcomes = [entry for key, entry in state.items()
                    if key[1] == "repro_requests_total"]
        assert sum(entry["value"] for entry in outcomes) >= 2
        histograms = [entry for key, entry in state.items()
                      if key[1] == "repro_request_seconds"]
        assert histograms and all(entry["count"] >= 1
                                  for entry in histograms)

    def test_trace_requests_false_disables(self, covid_bundle):
        service = ExplanationService(coalesce_window_seconds=0.0,
                                     trace_requests=False)
        try:
            service.register_bundle(covid_bundle,
                                    config=_config(covid_bundle))
            served = service.explain(DATASET, covid_bundle.queries[0].query,
                                     k=3)
            assert served.trace_id is None
            assert service.tracer.stats()["spans_recorded"] == 0
        finally:
            service.close()

    def test_slow_query_log_carries_trace_id(self, covid_bundle, caplog):
        service = ExplanationService(coalesce_window_seconds=0.0,
                                     slow_query_seconds=1e-9)
        try:
            service.register_bundle(covid_bundle,
                                    config=_config(covid_bundle))
            with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
                served = service.explain(DATASET,
                                         covid_bundle.queries[0].query, k=3)
            events = [json.loads(record.getMessage())
                      for record in caplog.records]
            mine = [event for event in events
                    if event.get("trace_id") == served.trace_id]
            assert mine and mine[0]["endpoint"] == "explain"
            assert mine[0]["seconds"] > 0
        finally:
            service.close()


# --------------------------------------------------------------------------- #
# HTTP endpoints: /metrics, /trace/<id>, debug.trace
# --------------------------------------------------------------------------- #
def _get_raw(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=60) as response:
        return response.status, response.headers.get("Content-Type"), \
            response.read().decode("utf-8")


def _post_json(base: str, path: str, body):
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST")
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


@pytest.fixture(scope="module")
def obs_endpoint(traced_service):
    server = make_server(traced_service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", server
    server.shutdown()
    server.server_close()


class TestHTTPObservability:
    def test_metrics_endpoint_serves_prometheus_text(self, obs_endpoint,
                                                     covid_bundle):
        base, _server = obs_endpoint
        _post_json(base, "/explain", {
            "dataset": DATASET,
            "exposure": covid_bundle.queries[0].query.exposure,
            "outcome": covid_bundle.queries[0].query.outcome,
            "k": 3})
        status, content_type, text = _get_raw(base, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "# TYPE repro_request_seconds histogram" in text
        assert "repro_engine_events_total" in text

    def test_explain_response_carries_trace_id_and_debug_tree(
            self, obs_endpoint, covid_bundle):
        base, server = obs_endpoint
        entry = covid_bundle.queries[1]
        status, body = _post_json(base, "/explain", {
            "dataset": DATASET, "exposure": entry.query.exposure,
            "outcome": entry.query.outcome, "k": 3, "debug": True})
        assert status == 200
        assert body["trace_id"]
        tree = body["debug"]["trace"]
        assert tree["trace_id"] == body["trace_id"]
        names = [one["name"] for one in _tree_spans(tree)]
        assert names[0] == "http.explain"
        # The /trace endpoint serves the same tree after the fact.
        status, _ct, text = _get_raw(base, f"/trace/{body['trace_id']}")
        assert status == 200
        assert json.loads(text)["trace_id"] == body["trace_id"]
        # The server reuses the local service's tracer: one store.
        assert server.tracer is server.service.tracer

    def test_unknown_trace_is_404(self, obs_endpoint):
        base, _server = obs_endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_raw(base, "/trace/ffffffffffffffff")
        assert excinfo.value.code == 404

    def test_response_without_debug_has_no_debug_block(self, obs_endpoint,
                                                       covid_bundle):
        base, _server = obs_endpoint
        entry = covid_bundle.queries[0]
        _status, body = _post_json(base, "/explain", {
            "dataset": DATASET, "exposure": entry.query.exposure,
            "outcome": entry.query.outcome, "k": 3})
        assert "debug" not in body
        assert body["trace_id"]


# --------------------------------------------------------------------------- #
# replicas: restart-proof counters and /metrics from the replica topology
# --------------------------------------------------------------------------- #
def _replica_client(bundle, n_workers: int) -> LocalClient:
    service = ExplanationService(
        coalesce_window_seconds=0.0,
        pool=ReplicaPool(n_workers=n_workers, frame_store=n_workers > 1))
    service.register_bundle(bundle, config=_config(bundle))
    return LocalClient(service)


class TestClusterObservability:
    def test_restart_does_not_deflate_merged_counters(self, covid_bundle):
        with _replica_client(covid_bundle, n_workers=1) as client:
            pool = client.service.pool
            query = covid_bundle.queries[0].query
            client.explain(DATASET, query, k=3)
            before = client.stats()
            explained_before = \
                before["contexts"][DATASET]["counters"]["queries_explained"]
            hits_plus_misses = before["cache"]["hits"] + \
                before["cache"]["misses"]
            assert explained_before >= 1
            os.kill(pool._handles[0].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool._handles[0].process.is_alive():
                assert time.monotonic() < deadline
                time.sleep(0.05)
            # A miss (same query, another client label) restarts the
            # replica and retries on it.
            client.explain(DATASET, dataclasses.replace(query, name="again"),
                           k=3)
            assert pool.worker_restarts == 1
            after = client.stats()
            merged = after["contexts"][DATASET]["counters"]
            # The dead replica's last snapshot was folded into the pool's
            # base, so lifetime counters stay monotonic: the old work plus
            # the replacement's fresh run.
            assert merged["queries_explained"] >= explained_before + 1
            assert after["cache"]["hits"] + after["cache"]["misses"] >= \
                hits_plus_misses
            # The front's cache kept the first envelope across the restart.
            assert after["cache"]["size"] == 2
            assert after["contexts"][DATASET]["stage_seconds"]
            assert "repro_cluster_worker_restarts_total 1" in \
                prometheus_text(after).splitlines()

    def test_cluster_stats_merge_worker_metrics(self, covid_bundle):
        with _replica_client(covid_bundle, n_workers=2) as client:
            queries = [entry.query for entry in covid_bundle.queries]
            client.explain_batch(DATASET, queries, k=3)
            stats = client.stats()
            names = {entry["name"] for entry in stats["metrics"]}
            assert "repro_requests_total" in names
            # The front counts the one explain_batch request, whichever
            # replicas its misses ran on.
            total = sum(entry["value"] for entry in stats["metrics"]
                        if entry["name"] == "repro_requests_total")
            assert total >= 1
            # Replica engine counters fold into the front's contexts.
            assert stats["contexts"][DATASET]["counters"][
                "queries_explained"] == len(queries)
            # The snapshot renders as valid Prometheus text too.
            text = prometheus_text(stats)
            assert "repro_requests_total" in text


# --------------------------------------------------------------------------- #
# one trace across the HTTP front end, engine replicas and row shards
# --------------------------------------------------------------------------- #
class TestCrossProcessTrace:
    def test_rows_cluster_http_explain_is_one_stitched_tree(
            self, covid_bundle):
        service = ExplanationService(
            pool=ShardPool(n_shards=2, frame_store=True))
        service.register_bundle(covid_bundle, config=_config(covid_bundle),
                                warm=False)
        client = LocalClient(service)
        server = make_server(client, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            entry = covid_bundle.queries[0]
            status, body = _post_json(base, "/explain", {
                "dataset": DATASET, "exposure": entry.query.exposure,
                "outcome": entry.query.outcome, "k": 3})
            assert status == 200
            trace_id = body["trace_id"]
            assert trace_id
            tree = server.tracer.trace_tree(trace_id)
            assert tree["trace_id"] == trace_id
            spans = list(_tree_spans(tree))
            # One trace id across every span of every tier.
            assert {one["trace_id"] for one in spans} == {trace_id}
            assert all(one["duration"] >= 0.0 for one in spans)
            names = [one["name"] for one in spans]
            tiers = {one["tier"] for one in spans}
            # Front-end root, engine work, shard RPCs and remote shard-op
            # spans all stitched into the one tree.
            assert "http.explain" in names
            assert any(name.startswith("stage.") for name in names)
            assert any(name.startswith("rpc.") for name in names)
            assert "shard" in tiers
            # Parent/child nesting is consistent: every rpc.* span has
            # remote shard children, and the remote spans nest under it.
            rpc = next(one for one in spans
                       if one["name"].startswith("rpc."))
            assert any(child["tier"] == "shard"
                       for child in rpc["children"])
            (root,) = tree["roots"]
            assert root["name"] == "http.explain"
        finally:
            server.shutdown()
            server.server_close()
            client.close()

    def test_keys_cluster_explain_stitches_worker_spans(self, covid_bundle):
        with _replica_client(covid_bundle, n_workers=2) as client:
            tracer = Tracer(tier="front")
            request = trace.begin_request(tracer, "front.explain")
            try:
                client.explain(DATASET, covid_bundle.queries[2].query, k=3)
            finally:
                request.finish()
            spans = tracer.spans_of(request.trace_id)
            names = [one["name"] for one in spans]
            tiers = {one["tier"] for one in spans}
            assert "rpc.explain_many" in names
            assert "worker.explain_many" in names
            assert "worker" in tiers  # remote spans shipped back and
            # stitched under the front's rpc span:
            by_id = {one["span_id"]: one for one in spans}
            worker_root = next(one for one in spans
                               if one["name"] == "worker.explain_many")
            assert by_id[worker_root["parent_id"]]["name"] == \
                "rpc.explain_many"
            assert any(name.startswith("stage.") for name in names)

    def test_coalesced_traced_requests_each_keep_their_replica_spans(
            self, covid_bundle):
        """Two traced requests whose misses coalesce into one replica batch
        each get their own rpc span with the replica's spans under it."""
        service = ExplanationService(coalesce_window_seconds=1.0,
                                     pool=ReplicaPool(n_workers=1))
        service.register_bundle(covid_bundle, config=_config(covid_bundle))
        queries = [entry.query for entry in covid_bundle.queries[:2]]
        barrier = threading.Barrier(len(queries))

        def request(query):
            barrier.wait()
            return service.explain(DATASET, query, k=3)

        try:
            with ThreadPoolExecutor(max_workers=len(queries)) as executor:
                served = list(executor.map(request, queries))
            stats = service.stats()
            # One replica batch, one round trip per trace.
            assert stats["batchers"][DATASET]["batches_executed"] == 1
            assert stats["data_plane"]["requests"] == len(queries)
            trace_ids = {one.trace_id for one in served}
            assert None not in trace_ids and len(trace_ids) == len(queries)
            for trace_id in trace_ids:
                spans = service.tracer.spans_of(trace_id)
                by_id = {one["span_id"]: one for one in spans}
                assert [one["name"] for one in spans].count(
                    "rpc.explain_many") == 1
                (replica_root,) = [one for one in spans
                                   if one["name"] == "worker.explain_many"]
                assert by_id[replica_root["parent_id"]]["name"] == \
                    "rpc.explain_many"
                assert any(one["name"].startswith("stage.")
                           and one["tier"] == "worker" for one in spans)
        finally:
            service.close()


# --------------------------------------------------------------------------- #
# the served-path benchmark's span launcher
# --------------------------------------------------------------------------- #
class TestPerfbenchLauncher:
    def test_every_target_resolves(self):
        """Every ``TARGETS`` entry names a function, or a method defined on
        its class: the launcher silently skips a method that is not, and
        crashes the traced launch on a missing class or function."""
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "perfbench", "launcher.py")
        spec = importlib.util.spec_from_file_location("perfbench_launcher",
                                                      path)
        launcher = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(launcher)
        for name, module_name, attribute in launcher.TARGETS:
            module = importlib.import_module(module_name)
            if "." not in attribute:
                assert inspect.isfunction(getattr(module, attribute, None)), \
                    (name, module_name, attribute)
                continue
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name, None)
            assert inspect.isclass(owner), (name, module_name, attribute)
            raw = owner.__dict__.get(method)
            assert inspect.isfunction(raw) or isinstance(raw, classmethod), \
                (name, module_name, attribute)
