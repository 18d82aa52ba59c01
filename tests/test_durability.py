"""Durability subsystem: metastore, durable envelopes, jobs, live updates.

Covers the storage substrate (SQLite WAL metastore with a single writer
thread), the disk-backed envelope store behind the in-memory TTL cache,
the resumable :class:`~repro.jobs.manager.JobManager`, live
``append_rows`` dataset updates, and — the acceptance scenario —
SIGKILLing a service over engine replicas half-way through a 40-query job
and resuming it from the durable completed prefix with byte-identical
envelopes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import threading
import time
from types import SimpleNamespace

import pytest

from repro.distributed import ReplicaPool, ShardPool
from repro.engine import get_explainer
from repro.engine.envelope import ENVELOPE_SCHEMA_VERSION, ExplanationEnvelope
from repro.exceptions import (
    ConfigurationError,
    QueryError,
    RequestValidationError,
)
from repro.jobs import JobManager
from repro.obs.metrics import prometheus_text
from repro.query.aggregate_query import AggregateQuery
from repro.serving import (
    ExplanationService,
    HTTPClient,
    LocalClient,
    make_server,
)
from repro.serving.schema import AppendRowsRequest, JobSubmitRequest
from repro.shm import shm_available
from repro.storage.envelopes import key_digest
from repro.storage.metastore import (
    JOB_TERMINAL_STATES,
    MetaStore,
    job_public_dict,
)
from repro.table.expressions import Eq
from repro.table.table import Table

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


# --------------------------------------------------------------------------- #
# shared data
# --------------------------------------------------------------------------- #
def make_serving_table(n_rows: int = 400, seed: int = 13,
                       name: str = "people") -> Table:
    import random

    rng = random.Random(seed)
    countries = ["US", "DE", "FR", "IN", "BR"]
    rows = []
    for _ in range(n_rows):
        country = rng.choice(countries)
        device = rng.choice(["ios", "android", "web"])
        plan = rng.choice(["free", "pro"])
        tier = rng.choice(["t1", "t2", "t3", "t4"])
        spend = round(10.0 + 5.0 * countries.index(country)
                      + (20.0 if plan == "pro" else 0.0)
                      + rng.random() * 15.0, 2)
        rows.append({"country": country, "device": device, "plan": plan,
                     "tier": tier, "spend": spend})
    return Table.from_rows(rows, name=name)


def forty_queries(table_name: str = "people"):
    """40 distinct wire-expressible queries over the serving table."""
    queries = []

    def add(exposure, context):
        queries.append(AggregateQuery(
            exposure=exposure, outcome="spend", aggregate="avg",
            context=context, table_name=table_name))

    for country in ("US", "DE", "FR", "IN", "BR"):
        for exposure in ("device", "plan", "tier"):
            add(exposure, Eq("country", country))          # 15
    for tier in ("t1", "t2", "t3", "t4"):
        for exposure in ("device", "plan", "country"):
            add(exposure, Eq("tier", tier))                # 12
    for plan in ("free", "pro"):
        for exposure in ("device", "tier", "country"):
            add(exposure, Eq("plan", plan))                # 6
    for device in ("ios", "android", "web"):
        for exposure in ("plan", "tier"):
            add(exposure, Eq("device", device))            # 6
    add("country", Eq("plan", "pro") if False else Eq("device", "ios"))
    queries = queries[:39]
    queries.append(AggregateQuery(exposure="country", outcome="spend",
                                  aggregate="avg", table_name=table_name))
    assert len(queries) == 40
    return queries


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "meta.sqlite3")


@pytest.fixture(scope="module")
def stub_envelope(confounded_problem) -> ExplanationEnvelope:
    explanation = get_explainer("top_k").explain(confounded_problem, k=2)
    return ExplanationEnvelope.from_explanation(
        explanation, query=confounded_problem.query)


class _StubBackend:
    """A fake serving tier for JobManager unit tests (no engine work)."""

    def __init__(self, envelope: ExplanationEnvelope, delay: float = 0.0):
        self.envelope = envelope
        self.delay = delay
        self.explained = []
        self.warmed = []

    def explain(self, dataset, query, k=None):
        if self.delay:
            time.sleep(self.delay)
        self.explained.append((dataset, query, k))
        return SimpleNamespace(envelope=self.envelope, cache_hit=False)

    def warm(self, dataset, top=8):
        self.warmed.append((dataset, top))
        return top


def _payload(exposure: str, value: str, table_name: str = "t"):
    return {"exposure": exposure, "outcome": "spend", "aggregate": "avg",
            "context": [{"column": "country", "op": "eq", "value": value}],
            "table_name": table_name}


# --------------------------------------------------------------------------- #
# MetaStore
# --------------------------------------------------------------------------- #
class TestMetaStore:
    def test_epoch_bumps_on_every_open(self, store_path):
        with MetaStore(store_path) as first:
            first_epoch = first.epoch
        with MetaStore(store_path) as second:
            assert second.epoch == first_epoch + 1

    def test_envelope_write_behind_and_readback(self, store_path):
        with MetaStore(store_path) as store:
            store.put_envelope("d", "digest-1", 3, '{"x": 1}')
            assert store.flush()
            assert store.get_envelope("d", "digest-1", 3) == '{"x": 1}'
            assert store.get_envelope("d", "digest-1", 2) is None
            assert store.count_envelopes("d") == 1
            stats = store.stats()
            assert stats["writes_committed"] >= 1
            assert stats["last_write_error"] is None

    def test_version_bump_prunes_superseded_envelopes(self, store_path):
        with MetaStore(store_path) as store:
            store.put_envelope("d", "digest-1", 1, "{}")
            store.record_dataset_version("d", 1)
            store.flush()
            store.record_dataset_version("d", 2)
            store.flush()
            assert store.dataset_version("d") == 2
            assert store.count_envelopes("d") == 0
            # monotonic max: a stale writer cannot roll the version back
            store.record_dataset_version("d", 1)
            store.flush()
            assert store.dataset_version("d") == 2

    def test_top_queries_ranked_by_hits(self, store_path):
        with MetaStore(store_path) as store:
            for _ in range(3):
                store.record_query("d", "dig-a", '{"q": "a"}', 3)
            store.record_query("d", "dig-b", '{"q": "b"}', None)
            store.flush()
            ranked = store.top_queries("d", 5)
            assert [payload for payload, _k, _hits in ranked] == \
                ['{"q": "a"}', '{"q": "b"}']
            assert ranked[0][1:] == (3, 3)
            assert ranked[1][1] is None

    def test_job_state_machine_guards(self, store_path):
        with MetaStore(store_path) as store:
            store.create_job("job-1", "explain_batch", "d", "{}", 4)
            assert store.job_state("job-1") == "PENDING"
            # a cancel that lands before the claim wins; the claim fails
            assert store.set_job_state("job-1", "CANCELLED",
                                       expect=("PENDING", "RUNNING"))
            assert not store.claim_job("job-1")
            assert store.job_state("job-1") == "CANCELLED"
            # terminal states are sticky
            assert not store.set_job_state("job-1", "RUNNING",
                                           expect=("PENDING",))

    def test_requeue_stale_running_respects_epoch(self, store_path):
        with MetaStore(store_path) as old:
            old.create_job("stale", "explain_batch", "d", "{}", 2)
            assert old.claim_job("stale")
            old.create_job("done", "explain_batch", "d", "{}", 1)
            old.claim_job("done")
            old.set_job_state("done", "DONE", expect=("RUNNING",))
        with MetaStore(store_path) as fresh:
            fresh.create_job("mine", "explain_batch", "d", "{}", 1)
            assert fresh.claim_job("mine")
            requeued = fresh.requeue_stale_running()
            # the dead epoch's RUNNING row is re-queued; this epoch's own
            # RUNNING row and terminal rows are left alone
            assert requeued == ["stale"]
            assert fresh.job_state("stale") == "PENDING"
            assert fresh.job_state("mine") == "RUNNING"
            assert fresh.job_state("done") == "DONE"
            assert "stale" in fresh.pending_jobs()

    def test_job_results_completed_prefix(self, store_path):
        with MetaStore(store_path) as store:
            store.create_job("job-r", "explain_batch", "d", "{}", 3)
            store.add_job_result("job-r", 1, "dig-1", '{"pos": 1}')
            store.add_job_result("job-r", 0, "dig-0", '{"pos": 0}')
            store.flush()
            assert store.job_result_positions("job-r") == {0, 1}
            assert store.job_results("job-r") == [
                (0, '{"pos": 0}'), (1, '{"pos": 1}')]

    def test_public_dict_shape(self, store_path):
        with MetaStore(store_path) as store:
            store.create_job("job-p", "warm", "d", "{}", 8)
            public = job_public_dict(store.get_job("job-p"))
            assert public["id"] == "job-p"
            assert public["state"] == "PENDING"
            assert public["progress"] == {"done": 0, "total": 8}


# --------------------------------------------------------------------------- #
# envelope schema_version (satellite)
# --------------------------------------------------------------------------- #
class TestEnvelopeSchemaVersion:
    def test_round_trip_carries_version(self, stub_envelope):
        payload = stub_envelope.to_dict()
        assert payload["schema_version"] == ENVELOPE_SCHEMA_VERSION
        recovered = ExplanationEnvelope.from_dict(payload)
        assert recovered.schema_version == ENVELOPE_SCHEMA_VERSION
        assert recovered == stub_envelope

    def test_legacy_payload_defaults_to_version_one(self, stub_envelope):
        payload = stub_envelope.to_dict()
        payload.pop("schema_version")
        recovered = ExplanationEnvelope.from_dict(payload)
        assert recovered.schema_version == 1

    def test_unknown_version_raises_clearly(self, stub_envelope):
        payload = stub_envelope.to_dict()
        payload["schema_version"] = 999
        with pytest.raises(Exception, match="schema_version"):
            ExplanationEnvelope.from_dict(payload)


# --------------------------------------------------------------------------- #
# JobManager lifecycle over a stub backend (no engine work)
# --------------------------------------------------------------------------- #
class TestJobManagerLifecycle:
    def test_submit_run_done_with_results(self, store_path, stub_envelope):
        backend = _StubBackend(stub_envelope)
        with MetaStore(store_path) as store:
            manager = JobManager(store, backend)
            job_id = manager.submit(
                "t", queries=[_payload("a", "US"), _payload("b", "DE")], k=2)
            status = manager.wait(job_id, timeout=30)
            assert status["state"] == "DONE"
            assert status["progress"] == {"done": 2, "total": 2}
            full = manager.status(job_id, include_result=True)
            assert len(full["results"]) == 2
            assert full["results"][0]["schema_version"] == \
                ENVELOPE_SCHEMA_VERSION
            assert manager.stats()["completed"] == 1
            manager.close()

    def test_warm_job(self, store_path, stub_envelope):
        backend = _StubBackend(stub_envelope)
        with MetaStore(store_path) as store:
            manager = JobManager(store, backend)
            job_id = manager.submit("t", kind="warm", top=5)
            status = manager.wait(job_id, timeout=30)
            assert status["state"] == "DONE"
            assert backend.warmed == [("t", 5)]
            assert status["summary"] == {"warmed": 5}
            manager.close()

    def test_submit_validation(self, store_path, stub_envelope):
        backend = _StubBackend(stub_envelope)
        with MetaStore(store_path) as store:
            manager = JobManager(store, backend)
            with pytest.raises(ConfigurationError):
                manager.submit("t", kind="bogus")
            with pytest.raises(QueryError):
                manager.submit("t", queries=[])
            with pytest.raises(Exception):
                manager.submit("t", queries=[{"exposure": "a"}])  # no outcome
            with pytest.raises(QueryError):
                manager.status("nope")
            manager.close()

    def test_cancel_running_stops_at_boundary(self, store_path,
                                              stub_envelope):
        backend = _StubBackend(stub_envelope, delay=0.15)
        with MetaStore(store_path) as store:
            manager = JobManager(store, backend)
            job_id = manager.submit(
                "t", queries=[_payload("a", v) for v in
                              ("US", "DE", "FR", "IN", "BR")] * 8)
            deadline = time.monotonic() + 30
            while not manager.store.job_result_positions(job_id):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            cancelled = manager.cancel(job_id)
            assert cancelled["state"] == "CANCELLED"
            final = manager.wait(job_id, timeout=30)
            assert final["state"] == "CANCELLED"
            # the completed prefix stayed durable
            assert final["progress"]["done"] >= 1
            assert final["progress"]["done"] < 40
            manager.close()

    def test_checkpoint_close_then_resume(self, store_path, stub_envelope):
        backend = _StubBackend(stub_envelope, delay=0.1)
        store = MetaStore(store_path)
        manager = JobManager(store, backend)
        job_id = manager.submit(
            "t", queries=[_payload("a", v) for v in
                          ("US", "DE", "FR", "IN", "BR")] * 4)
        deadline = time.monotonic() + 30
        while len(store.job_result_positions(job_id)) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        manager.close(checkpoint=True)
        prefix = store.job_result_positions(job_id)
        assert store.job_state(job_id) == "PENDING"
        assert 2 <= len(prefix) < 20
        store.close()

        resumed_store = MetaStore(store_path)
        resumed_backend = _StubBackend(stub_envelope)
        resumed = JobManager(resumed_store, resumed_backend)
        status = resumed.wait(job_id, timeout=60)
        assert status["state"] == "DONE"
        assert status["progress"] == {"done": 20, "total": 20}
        # exactly the non-prefix queries ran on the resumed manager
        assert len(resumed_backend.explained) == 20 - len(prefix)
        assert resumed.stats()["queries_resumed"] == len(prefix)
        assert status["summary"]["resumed"] == len(prefix)
        resumed.close()
        resumed_store.close()


# --------------------------------------------------------------------------- #
# durable envelope store through the service
# --------------------------------------------------------------------------- #
class TestDurableService:
    def test_restart_falls_through_to_store_without_recompute(
            self, store_path):
        table = make_serving_table(n_rows=300)
        query = AggregateQuery(exposure="device", outcome="spend",
                               aggregate="avg", context=Eq("country", "US"),
                               table_name="people")
        service = ExplanationService(coalesce_window_seconds=0.0,
                                     store=store_path)
        service.register_dataset("people", table, warm=False)
        first = service.explain("people", query, k=2)
        assert first.cache_hit is False
        service.close()

        restarted = ExplanationService(coalesce_window_seconds=0.0,
                                       store=store_path)
        restarted.register_dataset("people", table, warm=False)
        again = restarted.explain("people", query, k=2)
        assert again.cache_hit is True  # served from disk, not the engine
        assert again.envelope.canonical_json() == \
            first.envelope.canonical_json()
        counters = restarted.stats()["contexts"]["people"]["counters"]
        assert counters.get("service.store_hit") == 1
        assert counters.get("service.cache_miss", 0) == 0
        restarted.close()

    def test_restart_rewarm_replays_recorded_history(self, store_path):
        table = make_serving_table(n_rows=300)
        queries = forty_queries()[:4]
        service = ExplanationService(coalesce_window_seconds=0.0,
                                     store=store_path)
        service.register_dataset("people", table, warm=False)
        for query in queries:
            service.explain("people", query, k=2)
        service.close()

        restarted = ExplanationService(coalesce_window_seconds=0.0,
                                       store=store_path)
        restarted.register_dataset("people", table, warm=False)
        # the in-memory history is empty; top_queries must fall back to
        # the durably recorded history of the previous process
        warmed = restarted.warm("people", top=4)
        assert warmed == 4
        counters = restarted.stats()["contexts"]["people"]["counters"]
        assert counters.get("service.store_hit") == 4
        assert counters.get("service.cache_miss", 0) == 0
        # ... and the replays landed in the in-memory cache
        served = restarted.explain("people", queries[0], k=2)
        assert served.cache_hit is True
        restarted.close()

    def test_append_rows_bumps_version_and_matches_fresh_pipeline(
            self, store_path):
        table = make_serving_table(n_rows=250)
        new_rows = [{"country": "US", "device": "web", "plan": "pro",
                     "tier": "t1", "spend": 99.0} for _ in range(30)]
        query = AggregateQuery(exposure="plan", outcome="spend",
                               aggregate="avg", context=Eq("country", "US"),
                               table_name="people")
        service = ExplanationService(coalesce_window_seconds=0.0,
                                     store=store_path)
        service.register_dataset("people", table, warm=False)
        before = service.explain("people", query, k=2)
        result = service.append_rows("people", new_rows, rewarm=False)
        assert result["appended"] == 30
        assert result["n_rows"] == 280
        assert result["dataset_version"] == 1
        after = service.explain("people", query, k=2)
        assert after.cache_hit is False  # version bump invalidated the hit

        merged = table.concat_rows(Table.from_rows(
            new_rows, columns=list(table.column_names), name=table.name))
        reference = ExplanationService(coalesce_window_seconds=0.0)
        reference.register_dataset("people", merged, warm=False)
        expected = reference.explain("people", query, k=2)
        assert after.envelope.canonical_json() == \
            expected.envelope.canonical_json()
        assert before.envelope.canonical_json() != \
            after.envelope.canonical_json()
        reference.close()
        service.close()
        # the durable version survived for the next process
        with MetaStore(store_path) as store:
            assert store.dataset_version("people") == 1

    def test_append_rows_kicks_off_rewarm_job(self, store_path):
        table = make_serving_table(n_rows=250)
        query = AggregateQuery(exposure="device", outcome="spend",
                               aggregate="avg", context=Eq("plan", "pro"),
                               table_name="people")
        service = ExplanationService(coalesce_window_seconds=0.0,
                                     store=store_path)
        service.register_dataset("people", table, warm=False)
        service.enable_jobs()
        service.explain("people", query, k=2)
        result = service.append_rows(
            "people", [{"country": "FR", "device": "ios", "plan": "pro",
                        "tier": "t2", "spend": 55.0}], top=2)
        assert result["rewarm_job"] is not None
        status = service.jobs.wait(result["rewarm_job"], timeout=60)
        assert status["state"] == "DONE"
        # the re-warm replayed the recorded query at the NEW version
        served = service.explain("people", query, k=2)
        assert served.cache_hit is True
        service.close()

    def test_jobs_require_store(self):
        service = ExplanationService(coalesce_window_seconds=0.0)
        with pytest.raises(ConfigurationError, match="store"):
            service.enable_jobs()
        service.close()


# --------------------------------------------------------------------------- #
# request schema for the new endpoints
# --------------------------------------------------------------------------- #
class TestJobRequestSchema:
    def test_job_submit_parses(self):
        request = JobSubmitRequest.from_dict(
            {"kind": "explain_batch", "k": 3,
             "queries": [_payload("a", "US")]})
        assert request.kind == "explain_batch"
        assert request.k == 3
        assert len(request.queries) == 1

    def test_job_submit_rejects(self):
        with pytest.raises(RequestValidationError, match="kind"):
            JobSubmitRequest.from_dict({"kind": "bogus"})
        with pytest.raises(RequestValidationError, match="queries"):
            JobSubmitRequest.from_dict({"kind": "explain_batch"})
        with pytest.raises(RequestValidationError, match="queries\\[0\\]"):
            JobSubmitRequest.from_dict(
                {"queries": [{"exposure": "only"}]})
        with pytest.raises(RequestValidationError, match="unknown"):
            JobSubmitRequest.from_dict(
                {"kind": "warm", "surprise": 1})

    def test_append_rows_parses_and_rejects(self):
        request = AppendRowsRequest.from_dict(
            {"rows": [{"a": 1}], "rewarm": False, "top": 2})
        assert request.rows == ({"a": 1},)
        assert request.rewarm is False
        with pytest.raises(RequestValidationError, match="rows"):
            AppendRowsRequest.from_dict({"rows": []})
        with pytest.raises(RequestValidationError, match="rows\\[1\\]"):
            AppendRowsRequest.from_dict({"rows": [{"a": 1}, "nope"]})


# --------------------------------------------------------------------------- #
# the jobs API over HTTP
# --------------------------------------------------------------------------- #
@pytest.fixture()
def http_jobs_client(store_path):
    table = make_serving_table(n_rows=300)
    service = ExplanationService(coalesce_window_seconds=0.0,
                                 store=store_path)
    service.register_dataset("people", table, warm=False)
    service.enable_jobs()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    with HTTPClient(f"http://{host}:{port}") as client:
        yield client, server
    server.shutdown()
    server.server_close()
    service.close()


class TestHTTPJobs:
    def test_submit_wait_result_list_cancel(self, http_jobs_client):
        client, _server = http_jobs_client
        queries = forty_queries()[:2]
        job_id = client.submit_job("people", queries=queries, k=2)
        status = client.wait_job(job_id, timeout=120)
        assert status["state"] == "DONE"
        full = client.job_status(job_id, include_result=True)
        assert len(full["results"]) == 2
        envelope = ExplanationEnvelope.from_dict(full["results"][0])
        assert envelope.schema_version == ENVELOPE_SCHEMA_VERSION
        jobs = client.list_jobs(dataset="people")
        assert any(job["id"] == job_id for job in jobs)
        assert client.list_jobs(dataset="other") == []
        # cancel of a terminal job is a no-op that reports the state
        assert client.cancel_job(job_id)["state"] == "DONE"
        with pytest.raises(QueryError):
            client.job_status("does-not-exist")

    def test_append_rows_and_metrics_over_http(self, http_jobs_client):
        client, _server = http_jobs_client
        query = forty_queries()[0]
        client.explain("people", query, k=2)
        result = client.append_rows(
            "people", [{"country": "US", "device": "web", "plan": "pro",
                        "tier": "t3", "spend": 70.0}], top=2)
        assert result["n_rows"] == 301
        assert result["dataset_version"] == 1
        if result.get("rewarm_job"):
            client.wait_job(result["rewarm_job"], timeout=120)
        import http.client as http_client_mod

        host, port = _server.server_address[:2]
        connection = http_client_mod.HTTPConnection(host, port)
        connection.request("GET", "/metrics")
        text = connection.getresponse().read().decode()
        connection.close()
        for family in ("repro_jobs_submitted_total",
                       "repro_envelope_store_writes_total",
                       "repro_metastore_pending_writes"):
            assert family in text

    def test_validation_errors_over_http(self, http_jobs_client):
        client, _server = http_jobs_client
        with pytest.raises(QueryError, match="kind"):
            client._request("POST", "/jobs",
                            {"dataset": "people", "kind": "bogus"})
        with pytest.raises(QueryError, match="rows"):
            client._request("POST", "/append_rows",
                            {"dataset": "people", "rows": []})

    def test_jobs_without_store_answer_400(self):
        service = ExplanationService(coalesce_window_seconds=0.0)
        service.register_dataset("people", make_serving_table(n_rows=120),
                                 warm=False)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        with HTTPClient(f"http://{host}:{port}") as client:
            with pytest.raises(QueryError, match="store"):
                client.submit_job("people", queries=[forty_queries()[0]])
        server.shutdown()
        server.server_close()
        service.close()

    def test_stats_rendering_includes_jobs(self, http_jobs_client):
        client, _server = http_jobs_client
        stats = client.stats()
        assert "jobs" in stats
        assert "envelope_store" in stats
        text = prometheus_text(stats)
        assert "repro_jobs_worker_busy" in text


# --------------------------------------------------------------------------- #
# live updates through a worker pool
# --------------------------------------------------------------------------- #
class TestClusterAppendRows:
    @pytest.mark.parametrize("shard", ["keys", "rows"])
    def test_append_rows_matches_fresh_pipeline(self, shard, store_path):
        table = make_serving_table(n_rows=240)
        new_rows = [{"country": "BR", "device": "web", "plan": "pro",
                     "tier": "t4", "spend": 123.0} for _ in range(24)]
        query = AggregateQuery(exposure="device", outcome="spend",
                               aggregate="avg", context=Eq("country", "BR"),
                               table_name="people")
        if shard == "keys":
            pool = ReplicaPool(n_workers=2, frame_store=True)
        else:
            pool = ShardPool(n_shards=2, frame_store=True)
        served_by = ExplanationService(coalesce_window_seconds=0.0,
                                       store=store_path, pool=pool)
        served_by.register_dataset("people", table, warm=False)
        try:
            served_by.explain("people", query, k=2)
            result = served_by.append_rows("people", new_rows, rewarm=False)
            assert result["appended"] == 24
            assert result["n_rows"] == 264
            assert result["dataset_version"] == 1
            served = served_by.explain("people", query, k=2)
            if shm_available():
                # The append retired the first version's shared-memory
                # segments (replicas: the published table; shards: the
                # context columns) and the merged table's are live.
                store = served_by.stats()["frame_store"]
                assert store["segments_unlinked"] > 0
                assert store["segments"] > 0
        finally:
            served_by.close()

        merged = table.concat_rows(Table.from_rows(
            new_rows, columns=list(table.column_names), name=table.name))
        # replicas must match one in-process service; the row-sharded
        # plane draws its permutation nulls from per-shard RNG streams, so
        # its apples-to-apples reference is a fresh service over a 2-shard
        # pool built straight on the merged table — proving append
        # re-partitioned the row ranges into exactly the state a cold
        # start would have produced
        reference = ExplanationService(
            coalesce_window_seconds=0.0,
            pool=ShardPool(n_shards=2, frame_store=True)
            if shard == "rows" else None)
        try:
            reference.register_dataset("people", merged, warm=False)
            expected = reference.explain("people", query, k=2)
        finally:
            reference.close()
        assert served.envelope.canonical_json() == \
            expected.envelope.canonical_json()


# --------------------------------------------------------------------------- #
# kill-mid-workload recovery (the acceptance scenario)
# --------------------------------------------------------------------------- #
def _replica_service(store_path) -> ExplanationService:
    return ExplanationService(
        store=store_path,
        pool=ReplicaPool(n_workers=2, frame_store=False))


def _run_cluster_until_killed(store_path, job_file, rows, queries_payload):
    """Child-process body: serve 2 replicas, submit the 40-query job, idle.

    Runs in its own process group so the parent can SIGKILL the front
    *and* its replica processes in one shot — a real crash, no cleanup.
    """
    os.setpgid(0, 0)
    table = Table.from_rows(rows, name="people")
    service = _replica_service(store_path)
    service.register_dataset("people", table, warm=False)
    job_id = service.enable_jobs().submit("people", queries=queries_payload,
                                          k=2)
    with open(job_file, "w", encoding="ascii") as handle:
        handle.write(job_id)
    while True:  # the JobManager thread does the work; wait for the kill
        time.sleep(0.5)


@pytest.mark.slow
class TestKillMidWorkloadRecovery:
    def test_sigkill_resume_from_completed_prefix(self, tmp_path):
        from repro.serving.schema import query_payload

        store_file = str(tmp_path / "meta.sqlite3")
        job_file = str(tmp_path / "job_id")
        table = make_serving_table(n_rows=400)
        # ship raw rows (picklable) rather than the Table object
        raw_rows = table.to_rows()
        queries = forty_queries()
        payloads = [query_payload(query, k=2) for query in queries]

        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=_run_cluster_until_killed,
            args=(store_file, job_file, raw_rows, payloads))
        child.start()
        try:
            deadline = time.monotonic() + 120
            while not os.path.exists(job_file):
                assert time.monotonic() < deadline, "job never submitted"
                assert child.is_alive(), "child died before submitting"
                time.sleep(0.02)
            with open(job_file, encoding="ascii") as handle:
                job_id = handle.read().strip()

            # poll the store read-only until the job is at least half done
            read_only = sqlite3.connect(
                f"file:{store_file}?mode=ro", uri=True, timeout=10)
            deadline = time.monotonic() + 300
            while True:
                assert time.monotonic() < deadline, "job never reached half"
                row = read_only.execute(
                    "SELECT progress_done FROM jobs WHERE id = ?",
                    (job_id,)).fetchone()
                if row is not None and row[0] >= 8:
                    break
                time.sleep(0.02)
            read_only.close()
        finally:
            # SIGKILL the whole process group: front AND workers die now
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.join(timeout=30)

        # restart against the same store path: the stale RUNNING job is
        # re-queued and resumed from its durable completed prefix
        restarted = _replica_service(store_file)
        restarted.register_dataset(
            "people", make_serving_table(n_rows=400), warm=False)
        restarted.enable_jobs()
        try:
            prefix = len(restarted.jobs.store.job_result_positions(job_id))
            assert prefix >= 8, "killed run left too small a prefix"
            assert prefix < 40, "SIGKILL landed after the job had finished"
            status = restarted.jobs.wait(job_id, timeout=600)
            assert status["state"] == "DONE"
            assert status["progress"] == {"done": 40, "total": 40}
            stats = restarted.jobs.stats()
            # zero recomputation of completed queries: the resumed run
            # executed exactly the missing suffix
            assert stats["queries_resumed"] == prefix
            assert stats["queries_executed"] == 40 - prefix
            assert status["summary"]["resumed"] == prefix
            results = restarted.jobs.status(job_id,
                                            include_result=True)["results"]
            assert len(results) == 40
        finally:
            restarted.close()

        # byte-identical to an uninterrupted single-process reference run
        reference = ExplanationService(coalesce_window_seconds=0.0)
        reference.register_dataset(
            "people", make_serving_table(n_rows=400), warm=False)
        try:
            for position, query in enumerate(queries):
                expected = reference.explain("people", query, k=2)
                recovered = ExplanationEnvelope.from_dict(results[position])
                assert recovered.canonical_json() == \
                    expected.envelope.canonical_json(), \
                    f"envelope {position} diverged after recovery"
        finally:
            reference.close()
