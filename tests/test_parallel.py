"""Tests for the parallel batch executor and the fast-kernel oracle wiring."""

import json

import numpy as np
import pytest

from repro.core.problem import CorrelationExplanationProblem
from repro.engine import ExplanationPipeline, resolve_n_jobs
from repro.exceptions import ConfigurationError, ExplanationError
from repro.infotheory.mutual_information import conditional_mutual_information
from repro.mesa.config import MESAConfig
from repro.query.aggregate_query import AggregateQuery


@pytest.fixture(scope="module")
def confounded_query() -> AggregateQuery:
    return AggregateQuery(exposure="Group", outcome="Outcome", aggregate="avg",
                          table_name="confounded")


def _config(bundle, **overrides) -> MESAConfig:
    return MESAConfig(excluded_columns=bundle.id_columns, **overrides)


def _strip_timings(envelope) -> dict:
    payload = json.loads(envelope.to_json())
    payload["timings"] = None
    payload["explanation"]["runtime_seconds"] = None
    return payload


@pytest.fixture(scope="module")
def covid_queries(covid_bundle):
    return [entry.query for entry in covid_bundle.queries]


@pytest.fixture(scope="module")
def serial_results(covid_bundle, covid_queries):
    pipeline = ExplanationPipeline(
        covid_bundle.table, covid_bundle.knowledge_graph,
        covid_bundle.extraction_specs, config=_config(covid_bundle))
    return pipeline.explain_many(covid_queries, k=3)


class TestResolveNJobs:
    def test_defaults_and_all_cpus(self):
        assert resolve_n_jobs(None, default=1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MESAConfig(n_jobs=0)


class TestThreadBackend:
    def test_matches_serial_results(self, covid_bundle, covid_queries, serial_results):
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=_config(covid_bundle, n_jobs=2))
        parallel = pipeline.explain_many(covid_queries, k=3)
        assert [r.attributes for r in parallel] == \
            [r.attributes for r in serial_results]
        assert [r.explanation.explainability for r in parallel] == pytest.approx(
            [r.explanation.explainability for r in serial_results], abs=1e-9)

    def test_counters_merged_and_extraction_once(self, covid_bundle, covid_queries):
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=_config(covid_bundle, n_jobs=2))
        pipeline.explain_many(covid_queries, k=3)
        counters = pipeline.context.counters
        assert counters["parallel_batches"] == 1
        assert counters["parallel_workers"] == 2
        # The warm-up runs extraction once; forked workers inherit it.
        assert counters["extraction_runs"] == 1
        assert counters["queries_explained"] == len(covid_queries)

    def test_single_job_stays_serial(self, covid_bundle, covid_queries):
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=_config(covid_bundle))
        pipeline.explain_many(covid_queries, k=3)
        assert "parallel_batches" not in pipeline.context.counters


class TestEnvelopeBackend:
    def test_thread_backend_wraps_results(self, covid_bundle, covid_queries,
                                          serial_results):
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=_config(covid_bundle, n_jobs=2))
        envelopes = pipeline.explain_many_envelopes(covid_queries, k=3)
        expected = [result.to_envelope() for result in serial_results]
        assert [_strip_timings(a) for a in envelopes] == \
            [_strip_timings(b) for b in expected]


class TestFitCacheWriteBack:
    """Workers' new IPW selection fits merge back into the parent context."""

    def test_thread_backend_writes_back_and_warms_next_batch(
            self, covid_bundle, covid_queries):
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=_config(covid_bundle, n_jobs=2))
        assert len(pipeline.context.ipw_fit_cache) == 0
        pipeline.explain_many(covid_queries, k=3)
        counters = pipeline.context.counters
        written_back = counters.get("ipw_fit_writeback", 0)
        assert written_back > 0
        assert len(pipeline.context.ipw_fit_cache) == written_back
        misses_after_first = counters["ipw_fit_miss"]
        # The next batch (same contexts, different k) forks workers from
        # the now-warm parent: every selection fit is a cache hit.
        pipeline.explain_many(covid_queries, k=4)
        assert pipeline.context.counters["ipw_fit_miss"] == misses_after_first
        assert pipeline.context.counters.get("ipw_fit_hit", 0) >= written_back

    def test_duplicate_fits_across_workers_merge_once(self, covid_bundle,
                                                      covid_queries):
        from repro.missingness.fitcache import SelectionFitCache

        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=_config(covid_bundle, n_jobs=2))
        pipeline.explain_many(covid_queries, k=3)
        entries = pipeline.context.ipw_fit_cache.drain_new_entries()
        assert entries  # the write-back marked them as new on the parent
        target = SelectionFitCache()
        assert target.merge_new_entries(entries) == len(entries)
        assert target.merge_new_entries(entries) == 0  # already known


class TestKernelOracleWiring:
    def test_score_candidates_matches_scalar_oracle(self, confounded_problem):
        problem = confounded_problem
        scores = problem.score_candidates(problem.candidates)
        for attribute in problem.candidates:
            assert scores[attribute] == pytest.approx(
                problem.cmi([attribute]), abs=1e-12)
        given = problem.candidates[:1]
        extended = problem.score_candidates(problem.candidates[1:], given)
        for attribute, value in extended.items():
            assert value == pytest.approx(
                problem.cmi(list(given) + [attribute]), abs=1e-12)

    def test_score_candidates_legacy_mode(self, confounded_table, confounded_query):
        # The reference estimator over the frame's missing-as-category
        # conditioning codes is the oracle of the batched kernel scores.
        fast = CorrelationExplanationProblem(
            confounded_table, confounded_query, ["Wealth", "Noise"])
        fast_scores = fast.score_candidates(["Wealth", "Noise"])
        frame = fast.frame
        for attribute in ("Wealth", "Noise"):
            reference = conditional_mutual_information(
                frame.codes(fast.outcome), frame.codes(fast.exposure),
                [frame.codes(attribute, missing_as_category=True)])
            assert fast_scores[attribute] == pytest.approx(reference, abs=1e-9)

    def test_adopted_frame_must_match(self, confounded_table, confounded_query):
        problem = CorrelationExplanationProblem(
            confounded_table, confounded_query, ["Wealth", "Noise"])
        restricted = problem.restricted_to(
            np.arange(confounded_table.n_rows) % 2 == 0)
        with pytest.raises(ExplanationError):
            CorrelationExplanationProblem(
                confounded_table, confounded_query, ["Wealth", "Noise"],
                frame=restricted.frame)
