"""The per-frame estimate memo, and a cold path free of per-row calls.

* Every query over one encoded context frame shares one memo of
  exposure-free estimates (unweighted independence tests and entropies),
  so a context's queries run each of them once.  A memoised answer equals
  the one a problem without the memo computes: the key holds the whole
  identity of an estimate, weighted tests and restricted problems bypass
  the memo, a version bump starts an empty one and the LRU stays bounded.
* ``Column.n_unique`` counts from the column's arrays, so once a
  context's first query has run, a cold query makes no
  ``Column.__getitem__`` call.
"""

from __future__ import annotations

import copy
import sys
import threading

import numpy as np
import pytest

from repro.core.problem import CorrelationExplanationProblem
from repro.engine import ExplanationPipeline
from repro.engine import context as context_module
from repro.infotheory.permutation import PermutationBudget
from repro.mesa.config import MESAConfig
from repro.query.aggregate_query import AggregateQuery
from repro.serving import ExplanationService
from repro.table.column import Column, DType
from repro.table.expressions import TRUE, Eq

OUTCOME = "Deaths_per_100_cases"


def _pipeline(bundle, **overrides) -> ExplanationPipeline:
    config = MESAConfig(excluded_columns=tuple(bundle.id_columns), k=3,
                        **overrides)
    return ExplanationPipeline(bundle.table, bundle.knowledge_graph,
                               bundle.extraction_specs, config=config)


def _memo_counters(pipeline) -> dict:
    counters = pipeline.context.counters
    return {name: counters.get(name, 0)
            for name in ("estimate_memo_hits", "estimate_memo_misses")}


def _delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


def _query(exposure: str, context=TRUE) -> AggregateQuery:
    return AggregateQuery(exposure, OUTCOME, "avg", context,
                          table_name="Covid-19")


def _without_memo(problem) -> CorrelationExplanationProblem:
    """The same problem over the same frame, with no estimate memo."""
    return CorrelationExplanationProblem(
        problem.full_table, problem.query, problem.candidates,
        attribute_weights=problem.attribute_weights, n_bins=problem.n_bins,
        frame=problem.frame, context_table=problem.context_table,
        permutation_budget=problem.permutation_budget)


@pytest.fixture(scope="module")
def covid_problem(covid_bundle):
    """A prepared Covid-19 problem whose hooks feed its pipeline's counters.

    Shared by the tests below: each asks estimates under keys of its own
    and checks counter deltas, so none sees another's entries.
    """
    pipeline = _pipeline(covid_bundle)
    return pipeline, pipeline.prepare(covid_bundle.queries[0].query).problem


class TestSharedAcrossQueries:
    def test_second_exposure_reuses_the_first_ones_estimates(
            self, covid_bundle):
        pipeline = _pipeline(covid_bundle)
        pipeline.explain(_query("Country"))
        before = _memo_counters(pipeline)
        second = pipeline.explain(_query("WHO_Region"))
        shared = _delta(_memo_counters(pipeline), before)

        fresh = _pipeline(covid_bundle)
        reference = fresh.explain(_query("WHO_Region"))
        alone = _memo_counters(fresh)
        assert second.to_envelope().canonical_json() == \
            reference.to_envelope().canonical_json()
        assert shared["estimate_memo_hits"] > alone["estimate_memo_hits"]
        assert shared["estimate_memo_misses"] < alone["estimate_memo_misses"]

    def test_first_query_after_append_rows_reuses_nothing(self, covid_bundle):
        service = ExplanationService(coalesce_window_seconds=0.0)
        config = MESAConfig(excluded_columns=tuple(covid_bundle.id_columns),
                            k=3)
        service.register_bundle(covid_bundle, config=config, warm=False)
        name = covid_bundle.name
        rows = [dict(covid_bundle.table.row(index)) for index in range(3)]
        try:
            service.explain(name, _query("Country"), k=3)
            service.explain(name, _query("WHO_Region"), k=3)
            assert _memo_counters(service.pipeline(name))[
                "estimate_memo_hits"] > 0
            service.append_rows(name, rows, rewarm=False)
            pipeline = service.pipeline(name)
            assert _memo_counters(pipeline) == {
                "estimate_memo_hits": 0, "estimate_memo_misses": 0}
            served = service.explain(name, _query("WHO_Region"), k=3)
            after_append = _memo_counters(pipeline)
            appended = pipeline.context.table
        finally:
            service.close()
        fresh = ExplanationPipeline(
            appended, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs,
            config=config.with_overrides(permutation_early_exit=True,
                                         speculative_search=True))
        reference = fresh.explain(_query("WHO_Region"))
        # The only hits are the query's own repeats (H(T) and H(O) once
        # per candidate), exactly as on a pipeline that never saw the old
        # table.
        assert after_append == _memo_counters(fresh)
        assert served.envelope.canonical_json() == \
            reference.to_envelope().canonical_json()

    def test_version_bump_starts_an_empty_memo(self, covid_bundle):
        pipeline = _pipeline(covid_bundle)
        pipeline.explain(_query("Country"))
        old = pipeline.context.context_frame(TRUE, hops=1, n_bins=8).memo
        assert len(old) > 0
        pipeline.context.bump_dataset_version()
        new = pipeline.context.context_frame(TRUE, hops=1, n_bins=8).memo
        assert new is not old and len(new) == 0

    def test_memo_never_exceeds_its_bound(self, covid_bundle, monkeypatch):
        monkeypatch.setattr(context_module, "MAX_ESTIMATE_MEMO", 16)
        pipeline = _pipeline(covid_bundle)
        queries = [_query("Country"), _query("WHO_Region"),
                   _query("Country", Eq("WHO_Region", "Europe"))]
        bounded = pipeline.explain_many(queries)
        memos = [entry.memo for entry in pipeline.context._frames.values()]
        assert len(memos) == 2
        assert all(len(memo) == 16 for memo in memos)
        monkeypatch.undo()
        reference = _pipeline(covid_bundle).explain_many(queries)
        assert [result.to_envelope().canonical_json() for result in bounded] \
            == [result.to_envelope().canonical_json() for result in reference]


def test_memo_holds_its_bound_under_contention(monkeypatch):
    """Threads sharing one memo (forked contexts, the speculative search)
    never see it past its bound or read another key's value."""
    monkeypatch.setattr(context_module, "MAX_ESTIMATE_MEMO", 64)
    memo = context_module.EstimateMemo()
    sizes, wrong = [], []

    def hammer(worker: int) -> None:
        for step in range(3000):
            key = ("test", worker, step % 97)
            memo.put(key, (worker, step % 97))
            value = memo.get(key)
            if value is not None and value != (worker, step % 97):
                wrong.append((key, value))
            sizes.append(len(memo))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(sizes) == 6 * 3000
    assert max(sizes) <= 64 and len(memo) == 64
    assert wrong == []


class TestKeyCompleteness:
    #: A grey-zone test: its observed CMI sits between the shortcuts, so
    #: the permutations decide, and each variant below changes its answer.
    BASE = dict(conditioning=("Country", "New_cases"), threshold=0.0,
                dependent_threshold=None, n_permutations=20, alpha=0.05,
                seed=0)
    VARIANTS = {
        "conditioning order": dict(conditioning=("New_cases", "Country")),
        "seed": dict(seed=1),
        "n_permutations": dict(n_permutations=7),
        "alpha": dict(alpha=0.5),
        "threshold": dict(threshold=10.0),
        "dependent_threshold": dict(dependent_threshold=0.0),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_each_argument_is_part_of_the_key(self, covid_problem, variant):
        pipeline, problem = covid_problem
        plain = _without_memo(problem)
        changed = dict(self.BASE, **self.VARIANTS[variant])
        problem.independence_test(OUTCOME, "Month", **self.BASE)
        before = _memo_counters(pipeline)
        result = problem.independence_test(OUTCOME, "Month", **changed)
        assert result == plain.independence_test(OUTCOME, "Month", **changed)
        assert result != plain.independence_test(OUTCOME, "Month",
                                                 **self.BASE)
        assert _delta(_memo_counters(pipeline), before) == {
            "estimate_memo_hits": 0, "estimate_memo_misses": 1}
        # The repeat is a hit that returns the same answer.
        assert problem.independence_test(OUTCOME, "Month", **changed) \
            == result
        assert _memo_counters(pipeline)["estimate_memo_hits"] == \
            before["estimate_memo_hits"] + 1

    def test_budget_is_part_of_the_key(self, covid_problem):
        _, problem = covid_problem
        early = copy.copy(problem)
        early.permutation_budget = PermutationBudget(early_exit=True)
        problem.independence_test(OUTCOME, "Month", **self.BASE)
        result = early.independence_test(OUTCOME, "Month", **self.BASE)
        plain = _without_memo(early)
        assert result == plain.independence_test(OUTCOME, "Month",
                                                 **self.BASE)
        assert result != _without_memo(problem).independence_test(
            OUTCOME, "Month", **self.BASE)

    def test_entropies_share_the_memo(self, covid_problem):
        pipeline, problem = covid_problem
        plain = _without_memo(problem)
        before = _memo_counters(pipeline)
        assert problem.entropy_of("Month") == plain.entropy_of("Month")
        assert problem.conditional_entropy_of("Month", []) == \
            problem.entropy_of("Month")
        assert problem.conditional_entropy_of(OUTCOME, ["Month", "Country"]) \
            == plain.conditional_entropy_of(OUTCOME, ["Country", "Month"])
        assert _delta(_memo_counters(pipeline), before) == {
            "estimate_memo_hits": 2, "estimate_memo_misses": 2}


class TestBypasses:
    def test_weighted_tests_never_hit(self, covid_problem):
        pipeline, problem = covid_problem
        weights = np.linspace(0.5, 2.0, problem.n_rows)
        weighted = CorrelationExplanationProblem(
            problem.full_table, problem.query, problem.candidates,
            attribute_weights={"Month": weights}, n_bins=problem.n_bins,
            frame=problem.frame, context_table=problem.context_table,
            counter_hook=pipeline.context.count,
            estimate_memo=problem.estimate_memo)
        plain = _without_memo(weighted)
        arguments = dict(TestKeyCompleteness.BASE)
        for a, conditioning in (("Month", ("Country",)),
                                ("Country", ("Month",))):
            arguments["conditioning"] = conditioning
            unweighted = problem.independence_test(OUTCOME, a, **arguments)
            entries = len(problem.estimate_memo)
            before = _memo_counters(pipeline)
            result = weighted.independence_test(OUTCOME, a, **arguments)
            assert result == plain.independence_test(OUTCOME, a, **arguments)
            assert result != unweighted
            assert _memo_counters(pipeline) == before
            assert len(problem.estimate_memo) == entries

    def test_restricted_problem_counts_its_own_rows(self, covid_problem):
        _, problem = covid_problem
        mask = problem.frame.codes("Month") % 2 == 0
        arguments = dict(TestKeyCompleteness.BASE,
                         conditioning=("WHO_Region",))
        parent = problem.independence_test(OUTCOME, "Month", **arguments)
        parent_entropy = problem.conditional_entropy_of(OUTCOME, ["Month"])
        restricted = problem.restricted_to(mask)
        reference = _without_memo(problem).restricted_to(mask)
        assert restricted.estimate_memo is None
        result = restricted.independence_test(OUTCOME, "Month", **arguments)
        assert result == reference.independence_test(OUTCOME, "Month",
                                                     **arguments)
        assert result != parent
        entropy = restricted.conditional_entropy_of(OUTCOME, ["Month"])
        assert entropy == reference.conditional_entropy_of(OUTCOME, ["Month"])
        assert entropy != parent_entropy

    def test_subset_and_weighted_rebuild_share_the_frame_memo(
            self, covid_problem):
        pipeline, problem = covid_problem
        entry = pipeline.context.context_frame(TRUE, hops=1, n_bins=8)
        # The prepared problem is the IPW-weighted rebuild, narrowed to
        # the surviving candidates.
        assert problem.attribute_weights
        assert problem.frame is entry.frame
        assert problem.estimate_memo is entry.memo
        assert problem.subset_candidates(problem.candidates[:2]) \
            .estimate_memo is entry.memo


# --------------------------------------------------------------------------- #
# n_unique from the arrays, and no per-row calls on a cold query
# --------------------------------------------------------------------------- #
class TestNUnique:
    @pytest.mark.parametrize("values, dtype", [
        ([3, None, 3, 7, -1, None, 7], DType.INT),
        ([0.5, None, 0.5, 2.25, float("nan"), -3.0], DType.FLOAT),
        ([0.0, -0.0, 1.0, None], DType.FLOAT),
        ([0, None, 0], DType.INT),
        (["a", None, "b", "a", ""], DType.STRING),
        ([True, None, False, True], DType.BOOL),
        ([None, None, None], DType.FLOAT),
        ([None, None], DType.STRING),
        ([], DType.INT),
        ([], DType.STRING),
    ])
    def test_matches_the_per_cell_count(self, values, dtype):
        column = Column("x", values, dtype=dtype)
        assert column.n_unique() == len(set(column.non_missing_values()))


def test_cold_queries_make_no_per_row_calls(so_bundle, monkeypatch):
    """After each context's first query, a cold query runs no
    ``Column.__getitem__``: the IPW predictor scan counts distinct values
    from the arrays."""
    config = MESAConfig(excluded_columns=tuple(so_bundle.id_columns), k=3,
                        permutation_early_exit=True, speculative_search=True)
    pipeline = ExplanationPipeline(so_bundle.table, so_bundle.knowledge_graph,
                                   so_bundle.extraction_specs, config=config)
    contexts = (TRUE, Eq("Continent", "Europe"))
    for context in contexts:
        pipeline.explain(AggregateQuery("Country", "Salary", "avg", context,
                                        table_name="SO"))
    calls = []
    original = Column.__getitem__

    def counting(self, index):
        calls.append(self.name)
        return original(self, index)

    monkeypatch.setattr(Column, "__getitem__", counting)
    for exposure in ("DevType", "EdLevel", "Gender"):
        for outcome in ("Salary", "Age"):
            for context in contexts:
                pipeline.explain(AggregateQuery(exposure, outcome, "avg",
                                                context, table_name="SO"))
    assert calls == []
