"""Integration tests for the MESA system and its configuration."""

from dataclasses import fields

import pytest

from repro.exceptions import ConfigurationError
from repro.mesa.config import MESAConfig
from repro.mesa.report import render_report
from repro.mesa.system import MESA
from repro.query.parser import parse_query


class TestMESAConfig:
    def test_defaults_match_paper(self):
        config = MESAConfig()
        assert config.k == 5 and config.hops == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MESAConfig(k=0)
        with pytest.raises(ConfigurationError):
            MESAConfig(hops=0)
        with pytest.raises(ConfigurationError):
            MESAConfig(max_missing_fraction=2.0)
        with pytest.raises(ConfigurationError):
            MESAConfig(min_missing_for_bias_check=-0.1)
        with pytest.raises(ConfigurationError):
            MESAConfig(min_missing_for_bias_check=1.5)
        with pytest.raises(ConfigurationError):
            MESAConfig(fd_entropy_threshold=-0.01)
        with pytest.raises(ConfigurationError):
            MESAConfig(responsibility_permutations=-1)
        # Boundary values construct fine.
        MESAConfig(min_missing_for_bias_check=0.0, fd_entropy_threshold=0.0,
                   responsibility_permutations=0)

    def test_without_pruning_variant(self):
        config = MESAConfig().without_pruning()
        assert not config.use_offline_pruning and not config.use_online_pruning

    def test_with_overrides(self):
        assert MESAConfig().with_overrides(k=2).k == 2

    def test_n_jobs_is_init_only_and_only_one(self):
        # Batches run serially; ``n_jobs=1`` is still accepted for callers
        # that pass it, but it is not a field of the configuration.
        assert MESAConfig(n_jobs=1) == MESAConfig()
        assert hash(MESAConfig(n_jobs=1)) == hash(MESAConfig())
        assert "n_jobs" not in {field.name for field in fields(MESAConfig)}
        assert MESAConfig(n_jobs=1).with_overrides(k=2).k == 2
        for n_jobs in (2, 0, -1):
            with pytest.raises(ConfigurationError):
                MESAConfig(n_jobs=n_jobs)

    def test_server_cli_has_no_n_jobs_flag(self):
        from repro.serving.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--n-jobs", "2"])


class TestMESAOnCovid(object):
    @pytest.fixture(scope="class")
    def covid_result(self, covid_bundle):
        mesa = MESA(covid_bundle.table, covid_bundle.knowledge_graph,
                    covid_bundle.extraction_specs,
                    config=MESAConfig(excluded_columns=covid_bundle.id_columns))
        query = covid_bundle.queries[0].query       # Covid-Q1
        return mesa, mesa.explain(query)

    def test_explanation_contains_extracted_attribute(self, covid_result, covid_bundle):
        _, result = covid_result
        assert result.attributes, "MESA found no explanation for Covid-Q1"
        assert any(result.candidate_set.is_extracted(a) for a in result.attributes)

    def test_correlation_is_reduced(self, covid_result):
        _, result = covid_result
        assert result.explainability < 0.5 * result.explanation.baseline_cmi

    def test_planted_confounder_recovered(self, covid_result, covid_bundle):
        _, result = covid_result
        assert covid_bundle.queries[0].coverage(result.attributes) > 0.0

    def test_pruning_drops_identifier_and_constant(self, covid_result):
        _, result = covid_result
        rules = set(result.pruning.dropped.values())
        assert "constant" in rules                      # the extracted "Type" property
        assert "wikiID" in result.pruning.dropped       # identifier, dropped by some rule
        assert result.n_candidates_after_pruning < len(result.candidate_set)

    def test_timings_cover_all_phases(self, covid_result):
        _, result = covid_result
        for phase in ("extraction", "offline_pruning", "online_pruning", "mcimr"):
            assert phase in result.timings
        assert result.total_runtime() > 0

    def test_selection_bias_reports_exist(self, covid_result):
        _, result = covid_result
        assert isinstance(result.biased_attributes(), list)
        for attribute in result.biased_attributes():
            assert attribute in result.ipw_weights

    def test_report_renders(self, covid_result):
        mesa, result = covid_result
        subgroups = mesa.unexplained_subgroups(result, k=2, threshold=0.5)
        text = render_report(result, subgroups)
        assert "Query:" in text and "I(O;T|C)" in text

    def test_extraction_cached_across_queries(self, covid_result, covid_bundle):
        mesa, _ = covid_result
        table_first = mesa.augmented_table()
        second = mesa.explain(covid_bundle.queries[2].query)
        assert mesa.augmented_table() is table_first
        assert second.explanation is not None


class TestMESAVariants:
    def test_without_kg_uses_only_dataset_attributes(self, covid_bundle):
        mesa = MESA(covid_bundle.table, knowledge_graph=None, extraction_specs=())
        result = mesa.explain(covid_bundle.queries[0].query, k=2)
        assert all(not result.candidate_set.is_extracted(a) for a in result.attributes)

    def test_extraction_specs_without_graph_rejected(self, covid_bundle):
        with pytest.raises(ConfigurationError):
            MESA(covid_bundle.table, knowledge_graph=None,
                 extraction_specs=covid_bundle.extraction_specs)

    def test_mesa_minus_keeps_more_candidates(self, covid_bundle):
        config = MESAConfig(excluded_columns=covid_bundle.id_columns)
        full = MESA(covid_bundle.table, covid_bundle.knowledge_graph,
                    covid_bundle.extraction_specs, config=config)
        minus = MESA(covid_bundle.table, covid_bundle.knowledge_graph,
                     covid_bundle.extraction_specs, config=config.without_pruning())
        query = covid_bundle.queries[0].query
        assert minus.explain(query).n_candidates_after_pruning >= \
            full.explain(query).n_candidates_after_pruning

    def test_parse_query_end_to_end(self, covid_bundle):
        query = parse_query(
            "SELECT Country, avg(Deaths_per_100_cases) FROM Covid GROUP BY Country")
        mesa = MESA(covid_bundle.table, covid_bundle.knowledge_graph,
                    covid_bundle.extraction_specs)
        result = mesa.explain(query, k=2)
        assert result.explanation.baseline_cmi > 0
