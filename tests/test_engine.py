"""Tests for the staged explanation engine (pipeline, context, registry)."""

import json

import pytest

from repro.engine import (
    ExplanationPipeline,
    PipelineContext,
    StageHook,
    available_explainers,
    get_explainer,
    register_explainer,
)
from repro.engine.registry import BaselineExplainer
from repro.evaluation.harness import ALL_METHODS
from repro.exceptions import ConfigurationError, ExplanationError
from repro.mesa.config import MESAConfig
from repro.mesa.system import MESA


@pytest.fixture(scope="module")
def covid_pipeline(covid_bundle):
    return ExplanationPipeline(
        covid_bundle.table, covid_bundle.knowledge_graph, covid_bundle.extraction_specs,
        config=MESAConfig(excluded_columns=covid_bundle.id_columns))


class TestPipeline:
    def test_explain_matches_facade(self, covid_bundle):
        """The MESA shim and the engine produce identical explanations."""
        config = MESAConfig(excluded_columns=covid_bundle.id_columns)
        query = covid_bundle.queries[0].query
        facade = MESA(covid_bundle.table, covid_bundle.knowledge_graph,
                      covid_bundle.extraction_specs, config=config).explain(query)
        engine = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=config).explain(query)
        assert facade.explanation.attributes == engine.explanation.attributes
        assert facade.explanation.explainability == \
            pytest.approx(engine.explanation.explainability)
        assert facade.explanation.responsibilities == \
            pytest.approx(engine.explanation.responsibilities)
        assert facade.pruning.kept == engine.pruning.kept
        assert facade.pruning.dropped == engine.pruning.dropped
        assert sorted(facade.ipw_weights) == sorted(engine.ipw_weights)
        assert facade.n_candidates_after_pruning == engine.n_candidates_after_pruning

    def test_explain_many_runs_preprocessing_once(self, covid_bundle):
        """Extraction and offline pruning run exactly once for a batch."""
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs,
            config=MESAConfig(excluded_columns=covid_bundle.id_columns))
        queries = [q.query for q in covid_bundle.queries[:3]]
        assert len(queries) >= 3
        results = pipeline.explain_many(queries, k=3)
        assert len(results) == 3
        counters = pipeline.context.counters
        assert counters["extraction_runs"] == 1
        assert counters["offline_pruning_runs"] == 1
        assert counters["queries_explained"] == 3
        assert counters["stage.search"] == 3
        for result in results:
            assert result.explanation is not None
            for phase in ("extraction", "offline_pruning", "online_pruning", "mcimr"):
                assert phase in result.timings

    def test_batch_prewarm_is_timed_as_a_stage(self, covid_bundle):
        """The batch pre-warm is attributed: ``stage_seconds["warm"]``."""
        from repro.obs.metrics import prometheus_text

        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs,
            config=MESAConfig(excluded_columns=covid_bundle.id_columns))
        pipeline.explain_many([q.query for q in covid_bundle.queries], k=3)
        counters, stage_seconds = pipeline.context.observability_snapshot()
        assert stage_seconds["warm"] > 0
        assert counters["extraction_runs"] == 1
        assert "warm" not in counters and "stage.warm" not in counters
        text = prometheus_text({"contexts": {covid_bundle.name: {
            "counters": counters, "stage_seconds": stage_seconds}}})
        assert any(line.startswith("repro_stage_seconds_total{")
                   and 'stage="warm"' in line for line in text.splitlines())

    def test_envelope_batch_wraps_the_result_batch(self, covid_bundle):
        """``explain_many_envelopes`` is ``explain_many`` plus wrapping."""
        def pipeline():
            return ExplanationPipeline(
                covid_bundle.table, covid_bundle.knowledge_graph,
                covid_bundle.extraction_specs,
                config=MESAConfig(excluded_columns=covid_bundle.id_columns))

        def without_timings(envelope) -> dict:
            payload = json.loads(envelope.to_json())
            payload["timings"] = None
            payload["explanation"]["runtime_seconds"] = None
            return payload

        queries = [entry.query for entry in covid_bundle.queries]
        envelopes = pipeline().explain_many_envelopes(queries, k=3)
        expected = [result.to_envelope()
                    for result in pipeline().explain_many(queries, k=3)]
        assert [without_timings(a) for a in envelopes] == \
            [without_timings(b) for b in expected]

    def test_offline_pruning_judges_each_column_once(self):
        """Verdicts accumulate per column; cached columns never re-scan."""
        from repro.table.table import Table

        table = Table.from_columns({
            "A": [1.0, 2.0, 3.0, 4.0],
            "B": [1.0, 1.0, 1.0, 1.0],  # constant -> dropped
            "C": [0.0, 1.0, 0.0, 1.0],
        }, name="lazy")
        context = PipelineContext(table)
        first = context.offline_pruning(["A", "B"])
        assert first.kept == ["A"]
        assert first.dropped == {"B": "constant"}
        assert context.counters["offline_pruning_runs"] == 1
        # Fully cached candidate set: no new judging pass.
        again = context.offline_pruning(["B", "A"])
        assert again.kept == ["A"]
        assert context.counters["offline_pruning_runs"] == 1
        # One uncached column triggers exactly one more pass, and the
        # cached column is not re-judged alongside it.
        more = context.offline_pruning(["A", "C"])
        assert more.kept == ["A", "C"]
        assert context.counters["offline_pruning_runs"] == 2
        # Absent columns stay out of kept/dropped and are remembered.
        absent = context.offline_pruning(["A", "Nope"])
        assert absent.kept == ["A"]
        assert "Nope" not in absent.dropped
        assert context.counters["offline_pruning_runs"] == 3
        context.offline_pruning(["Nope"])
        assert context.counters["offline_pruning_runs"] == 3

    def test_prepare_is_memoised(self, covid_pipeline, covid_bundle):
        query = covid_bundle.queries[0].query
        first = covid_pipeline.prepare(query)
        assert covid_pipeline.prepare(query) is first
        assert first.problem is not None
        assert first.problem.candidates == first.candidates

    def test_repeated_explain_reuses_prepared_state(self, covid_pipeline, covid_bundle):
        query = covid_bundle.queries[1].query
        before = dict(covid_pipeline.context.counters)
        covid_pipeline.explain(query, k=2)
        covid_pipeline.explain(query, k=2)
        after = covid_pipeline.context.counters
        extraction_delta = after.get("stage.extraction", 0) - before.get("stage.extraction", 0)
        search_delta = after.get("stage.search", 0) - before.get("stage.search", 0)
        assert extraction_delta <= 1       # at most one prepare for the new query
        assert search_delta == 2           # but every explain searches

    def test_with_config_shares_context(self, covid_pipeline):
        variant = covid_pipeline.with_config(covid_pipeline.config.without_pruning())
        assert variant is not covid_pipeline
        assert variant.context is covid_pipeline.context
        assert covid_pipeline.with_config(covid_pipeline.config) is covid_pipeline
        again = covid_pipeline.with_config(covid_pipeline.config.without_pruning())
        assert again is variant

    def test_context_and_table_must_agree(self, covid_bundle, confounded_table):
        context = PipelineContext(covid_bundle.table)
        with pytest.raises(ConfigurationError):
            ExplanationPipeline(confounded_table, context=context)
        with pytest.raises(ConfigurationError):
            ExplanationPipeline()

    def test_stage_hooks_fire(self, covid_bundle):
        events = []

        class Recorder(StageHook):
            def on_stage_start(self, stage_name, state):
                events.append(("start", stage_name))

            def on_stage_end(self, stage_name, state, seconds):
                events.append(("end", stage_name))
                assert seconds >= 0.0

        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs,
            config=MESAConfig(excluded_columns=covid_bundle.id_columns))
        pipeline.context.add_hook(Recorder())
        pipeline.explain(covid_bundle.queries[0].query, k=2)
        started = [name for kind, name in events if kind == "start"]
        assert started == ["extraction", "candidates", "offline_pruning",
                           "online_pruning", "selection_bias", "search"]
        # Stage timings are all present; the batched inference backends may
        # add fine-grained phase entries (permutation_test, ipw_fit) on top.
        assert set(started) <= pipeline.context.stage_seconds.keys()
        assert pipeline.context.stage_seconds.keys() <= \
            set(started) | {"permutation_test", "ipw_fit"}


class TestRegistry:
    def test_all_harness_methods_resolve(self):
        for name in ALL_METHODS:
            explainer = get_explainer(name)
            assert explainer.name == name

    def test_explainers_share_one_surface(self, confounded_problem):
        for name in available_explainers():
            explanation = get_explainer(name).explain(confounded_problem, k=2)
            assert explanation.method == name
            assert explanation.baseline_cmi >= 0.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ExplanationError):
            get_explainer("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExplanationError):
            register_explainer("mesa", lambda config=None: None)

    def test_custom_registration_and_overwrite(self, confounded_problem):
        def constant_factory(config=None, **options):
            from repro.baselines.top_k import top_k
            return BaselineExplainer("always_top1", top_k, max_k=1)

        register_explainer("always_top1", constant_factory)
        try:
            explanation = get_explainer("always_top1").explain(confounded_problem, k=5)
            assert len(explanation.attributes) <= 1
            register_explainer("always_top1", constant_factory, overwrite=True)
        finally:
            from repro.engine.registry import _FACTORIES
            _FACTORIES.pop("always_top1", None)

    def test_mesa_minus_requests_no_pruning_variant(self):
        config = MESAConfig()
        explainer = get_explainer("mesa_minus", config=config)
        variant = explainer.config_variant(config)
        assert not variant.use_offline_pruning and not variant.use_online_pruning
        assert get_explainer("mesa", config=config).config_variant(config) == config

    def test_run_explainer_adopts_pipeline_config(self, covid_bundle):
        """An unconfigured explainer searches with the pipeline's knobs."""
        config = MESAConfig(excluded_columns=covid_bundle.id_columns,
                            use_responsibility_test=False, k=2)
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=config)
        query = covid_bundle.queries[0].query
        via_pipeline = pipeline.explain(query, k=2).explanation
        via_registry = pipeline.run_explainer(get_explainer("mesa"), query, k=2)
        assert via_registry.attributes == via_pipeline.attributes
        # With the responsibility test off, MCIMR fills all k slots.
        assert len(via_registry.attributes) == 2

    def test_run_explainer_reuses_pipeline_search(self, covid_bundle):
        """explain() + run_explainer('mesa') search once, not twice."""
        config = MESAConfig(excluded_columns=covid_bundle.id_columns)
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=config)
        query = covid_bundle.queries[0].query
        result = pipeline.explain(query, k=3)
        cached = pipeline.run_explainer(get_explainer("mesa", config=config), query, k=3)
        assert cached is result.explanation
        again = pipeline.run_explainer(get_explainer("top_k"), query, k=3)
        assert pipeline.run_explainer(get_explainer("top_k"), query, k=3) is again

    def test_prepared_state_memo_is_bounded(self, covid_bundle):
        pipeline = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs,
            config=MESAConfig(excluded_columns=covid_bundle.id_columns),
            max_prepared_states=2)
        for rep_query in covid_bundle.queries[:3]:
            pipeline.prepare(rep_query.query)
        assert len(pipeline._prepared) == 2
        with pytest.raises(ConfigurationError):
            ExplanationPipeline(covid_bundle.table, max_prepared_states=0)

    def test_result_pruning_is_isolated_from_cache(self, covid_pipeline, covid_bundle):
        query = covid_bundle.queries[0].query
        first = covid_pipeline.explain(query, k=2)
        kept_before = list(first.pruning.kept)
        first.pruning.kept.clear()
        first.pruning.dropped["bogus"] = "tampered"
        second = covid_pipeline.explain(query, k=2)
        assert second.pruning.kept == kept_before
        assert "bogus" not in second.pruning.dropped

    def test_run_explainer_mesa_minus_keeps_more_candidates(self, covid_pipeline,
                                                            covid_bundle):
        query = covid_bundle.queries[0].query
        covid_pipeline.run_explainer(get_explainer("mesa_minus"), query, k=2)
        minus = covid_pipeline.with_config(covid_pipeline.config.without_pruning())
        full_state = covid_pipeline.prepare(query)
        minus_state = minus.prepare(query)
        assert len(minus_state.candidates) >= len(full_state.candidates)
