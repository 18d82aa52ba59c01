"""Tests for the adaptive inference scheduler (budgets, argsort RNG stream,
speculative pipelined MCIMR).

Three pillars, matching the scheduler's three parts:

* **Adaptive permutation budgets** — a test that never extends behaves
  exactly like the fixed-budget sequential test (so verdict flips can only
  come from extensions, and extensions only happen when the Clopper–Pearson
  interval on the exceedance probability still straddled ``alpha`` at
  target exhaustion).  The pure-python incomplete-beta fallback matches
  ``scipy.stats.beta.ppf`` to high precision.
* **Vectorised argsort sampling** — the ``"argsort"`` RNG stream permutes
  strictly within strata, leaves rows outside every stratum untouched,
  produces p-values distributed like the legacy Fisher–Yates stream (ECDF
  distance over many seeds), and is the stream the wide-code fallback
  draws too.
* **Speculative pipelined search** — MCIMR with speculation on returns
  bit-identical explanations to the sequential schedule, locally and over a
  row-sharded pool, for every registered explainer; the
  ``speculation_hit`` / ``speculation_waste`` and ``perm_budget_*``
  counters surface through ``PipelineContext.counters`` and the serving
  ``stats()`` snapshot.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.coordinator import ShardPool
from repro.engine import ExplanationPipeline, get_explainer
from repro.infotheory import permutation
from repro.infotheory.kernel import code_cardinality, fast_independence_test
from repro.infotheory.permutation import (
    PermutationBudget,
    PermutationOutcome,
    PermutationPlan,
    BudgetedSequentialTest,
    clopper_pearson_interval,
)
from repro.mesa.config import MESAConfig
from repro.serving.service import ExplanationService
from repro.utils.rng import make_rng
from tests.conftest import looped_independence_test

TOL = 1e-9

#: Same margins as the early-exit property: the adaptive policy must agree
#: with the fixed-budget run at the default level and ±0.01 whenever it did
#: not extend.
ALPHA_MARGINS = (0.04, 0.05, 0.06)

ALL_EXPLAINERS = ["mesa", "mesa_minus", "brute_force", "top_k",
                  "linear_regression", "hypdb", "cajade"]


@st.composite
def coded_instances(draw):
    """Aligned (x, y, z) code arrays with missing values."""
    n = draw(st.integers(min_value=3, max_value=90))
    x = np.array(draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)))
    z = np.array(draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))
    return x, y, z


# --------------------------------------------------------------------------- #
# adaptive budgets
# --------------------------------------------------------------------------- #
class TestPermutationBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationBudget(max_permutations=0)
        with pytest.raises(ValueError):
            PermutationBudget(growth=1.0)
        with pytest.raises(ValueError):
            PermutationBudget(rng_stream="fisher")
        assert not PermutationBudget().adaptive
        assert PermutationBudget(max_permutations=100).adaptive

    def test_cap_never_shrinks_the_base_budget(self):
        budget = PermutationBudget(max_permutations=50)
        assert budget.cap(20) == 50
        assert budget.cap(200) == 200
        assert PermutationBudget().cap(20) == 20

    def test_outcome_iterates_as_legacy_tuple(self):
        """The outcome is read by attribute; it no longer iterates."""
        outcome = PermutationOutcome(3, 20, None, 20, extensions=1, target=40)
        assert (outcome.exceed, outcome.n_run, outcome.verdict,
                outcome.computed) == (3, 20, None, 20)
        assert (outcome.extensions, outcome.target) == (1, 40)
        assert outcome == PermutationOutcome(3, 20, None, 20, 1, 40)
        with pytest.raises(TypeError):
            iter(outcome)
        assert outcome.p_value == pytest.approx(4 / 21)
        assert outcome.independent(0.05) is True
        assert outcome.independent(0.5) is False


class TestBudgetedSequentialTest:
    def test_uncertain_test_extends_geometrically(self):
        """One exceedance in 20 straddles alpha, so the target doubles."""
        budget = PermutationBudget(max_permutations=80)
        state = BudgetedSequentialTest(20, 0.05, budget)
        verdicts = [state.update(i == 0) for i in range(20)]
        assert all(v is None for v in verdicts)
        lower, upper = clopper_pearson_interval(1, 20)
        assert lower <= 0.05 <= upper  # the premise of the extension
        assert state.extensions == 1
        assert state.target == 40
        # Keep feeding non-exceedances: past the base budget the sequential
        # verdict applies unconditionally and eventually settles "dependent".
        verdict = None
        while verdict is None and state.want_more:
            verdict = state.update(False)
            if verdict is None and not state.want_more:
                break
        assert verdict is False
        assert state.done <= state.cap

    def test_clear_cut_test_never_extends(self):
        """Twenty exceedances in twenty is decisively independent."""
        budget = PermutationBudget(max_permutations=80)
        state = BudgetedSequentialTest(20, 0.05, budget)
        for _ in range(20):
            state.update(True)
        assert state.extensions == 0
        assert state.target == 20
        assert not state.want_more
        outcome = state.outcome(None, 20)
        assert outcome.independent(0.05) is True

    def test_early_exit_applies_before_base_exhaustion(self):
        budget = PermutationBudget(max_permutations=80, early_exit=True)
        state = BudgetedSequentialTest(20, 0.05, budget)
        verdict = None
        draws = 0
        while verdict is None:
            verdict = state.update(True)
            draws += 1
        assert verdict is True
        assert draws < 20

    def test_without_adaptive_budget_matches_fixed_sequential(self):
        """The default budget reproduces the historical fixed-N test."""
        rng = np.random.default_rng(7)
        exceedances = rng.random(60) < 0.3
        fixed = BudgetedSequentialTest(60, 0.05, PermutationBudget())
        for hit in exceedances:
            assert fixed.update(bool(hit)) is None
        assert fixed.extensions == 0
        assert fixed.target == 60
        assert not fixed.want_more

    def test_extension_cap_is_respected(self):
        budget = PermutationBudget(max_permutations=30, growth=10.0)
        state = BudgetedSequentialTest(20, 0.05, budget)
        for i in range(20):
            state.update(i == 0)
        assert state.target == 30  # ceil(20 * 10) clamped to the cap


class TestAdaptiveNeverFlipsUnlessExtended:
    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_no_extension_implies_fixed_verdict(self, data, seed):
        """Adaptive == fixed whenever the budget did not extend; an
        extension is only allowed when the CP interval straddled alpha."""
        x, y, z = data.draw(coded_instances())
        n_z = code_cardinality(z)
        for alpha in ALPHA_MARGINS:
            full = fast_independence_test(x, y, z, n_z=n_z,
                                          n_permutations=25, alpha=alpha,
                                          seed=seed)
            adaptive = fast_independence_test(
                x, y, z, n_z=n_z, n_permutations=25, alpha=alpha, seed=seed,
                budget=PermutationBudget(max_permutations=100,
                                         early_exit=True))
            assert adaptive.cmi == full.cmi
            assert adaptive.n_permutations <= 100
            if adaptive.budget_extensions == 0:
                assert adaptive.independent == full.independent
            else:
                # The fixed verdict was statistically uncertain: the p-value
                # estimate after 25 draws could not separate from alpha.
                lower, upper = clopper_pearson_interval(
                    round(full.p_value * 26) - 1, 25)
                assert lower <= alpha <= upper

    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_legacy_and_blocked_drivers_agree_under_adaptive_budget(
            self, data, seed):
        x, y, z = data.draw(coded_instances())
        n_z = code_cardinality(z)
        budget = PermutationBudget(max_permutations=60, early_exit=True)
        blocked = fast_independence_test(x, y, z, n_z=n_z, n_permutations=20,
                                         seed=seed, budget=budget)
        legacy = looped_independence_test(x, y, z, n_permutations=20,
                                          seed=seed, budget=budget)
        assert blocked.independent == legacy.independent
        assert blocked.budget_extensions == legacy.budget_extensions
        assert abs(blocked.p_value - legacy.p_value) < 1e-12


class TestClopperPearsonFallback:
    def test_interval_brackets_the_point_estimate(self):
        for k, n in [(0, 30), (1, 30), (15, 30), (30, 30)]:
            lower, upper = clopper_pearson_interval(k, n)
            assert 0.0 <= lower <= k / n <= upper <= 1.0


# --------------------------------------------------------------------------- #
# argsort RNG stream
# --------------------------------------------------------------------------- #
class TestArgsortStream:
    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_argsort_permutes_strictly_within_strata(self, data, seed):
        x, _, z = data.draw(coded_instances())
        plan = PermutationPlan(z)
        block = plan.permute_block(x, make_rng(seed), 4,
                                   rng_stream=permutation.RNG_STREAM_ARGSORT)
        assert block.shape == (4, len(x))
        stratified = np.zeros(len(x), dtype=bool)
        for indices in plan.groups:
            stratified[indices] = True
        for row in block:
            for indices in plan.groups:
                assert sorted(row[indices]) == sorted(x[indices])
            # Rows outside every stratum (missing / singleton handling is
            # the plan's business) are never moved.
            assert (row[~stratified] == np.asarray(x)[~stratified]).all()

    def test_unknown_stream_is_rejected(self):
        plan = PermutationPlan(np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError):
            plan.permute_block(np.arange(4), make_rng(0), 2,
                               rng_stream="fisher")

    def test_pvalue_distribution_matches_legacy_stream(self):
        """ECDF distance between legacy and argsort p-values over many
        seeds stays below a generous two-sample KS threshold."""
        rng = np.random.default_rng(123)
        n = 400
        z = rng.integers(0, 4, n)
        x = (z + rng.integers(0, 3, n)) % 5
        y = (x + rng.integers(0, 4, n)) % 4  # mild dependence: spread p-values
        n_z = code_cardinality(z)
        seeds = range(200)
        legacy = np.sort([fast_independence_test(
            x, y, z, n_z=n_z, n_permutations=60, seed=s).p_value
            for s in seeds])
        argsort = np.sort([fast_independence_test(
            x, y, z, n_z=n_z, n_permutations=60, seed=s,
            budget=PermutationBudget(
                rng_stream=permutation.RNG_STREAM_ARGSORT)).p_value
            for s in seeds])
        grid = np.union1d(legacy, argsort)
        ecdf_legacy = np.searchsorted(legacy, grid, side="right") / len(legacy)
        ecdf_argsort = np.searchsorted(argsort, grid,
                                       side="right") / len(argsort)
        # Two-sample KS critical value at alpha=0.001 for n=m=200 is ~0.195;
        # identical distributions should sit far below it.
        assert np.abs(ecdf_legacy - ecdf_argsort).max() < 0.195

    @pytest.mark.parametrize("rng_stream", permutation.RNG_STREAMS)
    def test_wide_code_fallback_draws_the_budget_stream(self, monkeypatch,
                                                        rng_stream):
        """Code spaces past the kernel's dense-cell limit score one
        permutation at a time with the scalar kernel, drawing from the
        budget's stream: p-values and run lengths equal the blocked run's."""
        from repro.infotheory import kernel

        rng = np.random.default_rng(4)
        n = 300
        z = rng.integers(0, 4, n)
        x = (z + rng.integers(0, 3, n)) % 5
        y = rng.integers(0, 4, n)
        n_z = code_cardinality(z)
        budgets = [PermutationBudget(early_exit=early_exit,
                                     rng_stream=rng_stream)
                   for early_exit in (False, True)]

        def run(budget):
            return fast_independence_test(x, y, z, n_z=n_z, threshold=0.0,
                                          n_permutations=40, seed=3,
                                          budget=budget)

        blocked = [run(budget) for budget in budgets]
        monkeypatch.setattr(kernel, "DENSE_CELL_LIMIT", 8)  # < 5 * 4 * 4
        for budget, expected in zip(budgets, blocked):
            scalar = run(budget)
            assert scalar.p_value == expected.p_value
            assert scalar.n_permutations == expected.n_permutations

    def test_fixed_budget_default_keeps_legacy_stream_bit_identical(self):
        """The default budget must not silently change historical
        p-values: no budget and an explicit legacy-stream budget agree."""
        rng = np.random.default_rng(9)
        n = 120
        z = rng.integers(0, 3, n)
        x = rng.integers(0, 4, n)
        y = rng.integers(0, 3, n)
        n_z = code_cardinality(z)
        plain = fast_independence_test(x, y, z, n_z=n_z, n_permutations=40,
                                       seed=5)
        explicit = fast_independence_test(x, y, z, n_z=n_z, n_permutations=40,
                                          seed=5, budget=PermutationBudget())
        assert plain.p_value == explicit.p_value
        assert plain.independent == explicit.independent


# --------------------------------------------------------------------------- #
# speculative pipelined search
# --------------------------------------------------------------------------- #
class TestSpeculativeSearch:
    def test_mcimr_bit_identical_and_counters(self, confounded_problem):
        from repro.core.mcimr import mcimr

        counters = {}

        def hook(name, increment=1):
            counters[name] = counters.get(name, 0) + increment

        sequential = mcimr(confounded_problem, k=3)
        confounded_problem.counter_hook = hook
        try:
            speculative = mcimr(confounded_problem, k=3, speculative=True)
        finally:
            confounded_problem.counter_hook = None
        assert speculative.attributes == sequential.attributes
        assert speculative.explainability == sequential.explainability
        assert speculative.baseline_cmi == sequential.baseline_cmi
        assert speculative.responsibilities == sequential.responsibilities
        assert speculative.trace == sequential.trace
        assert (counters.get("speculation_hit", 0)
                + counters.get("speculation_waste", 0)) >= 1

    def test_final_score_reuses_trace(self, confounded_problem):
        from repro.core.mcimr import mcimr

        explanation = mcimr(confounded_problem, k=3)
        if explanation.attributes:
            assert explanation.explainability == explanation.trace[-1][1]
        else:
            assert explanation.explainability == explanation.baseline_cmi

    @pytest.mark.parametrize("name", ALL_EXPLAINERS)
    def test_every_explainer_matches_sequential_locally(
            self, covid_bundle, name):
        config = MESAConfig(excluded_columns=covid_bundle.id_columns)
        plain = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=config)
        pipelined = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs,
            config=config.with_overrides(speculative_search=True))
        query = covid_bundle.queries[0].query
        reference = plain.run_explainer(get_explainer(name), query, k=3)
        ours = pipelined.run_explainer(get_explainer(name), query, k=3)
        assert ours.attributes == reference.attributes
        assert ours.explainability == pytest.approx(
            reference.explainability, abs=TOL)
        assert ours.responsibilities == pytest.approx(
            reference.responsibilities, abs=TOL)

    def test_sharded_speculative_matches_local_sequential(self, covid_bundle):
        config = MESAConfig(excluded_columns=covid_bundle.id_columns)
        plain = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs, config=config)
        sharded = ExplanationPipeline(
            covid_bundle.table, covid_bundle.knowledge_graph,
            covid_bundle.extraction_specs,
            config=config.with_overrides(speculative_search=True))
        query = covid_bundle.queries[0].query
        reference = plain.explain(query, k=3)
        with ShardPool(n_shards=3) as pool:
            sharded.context.shard_pool = pool
            sharded.context.shard_label = covid_bundle.name
            ours = sharded.explain(query, k=3)
            assert pool.requests > 0
        assert (ours.explanation.attributes
                == reference.explanation.attributes)
        assert ours.explanation.explainability == pytest.approx(
            reference.explanation.explainability, abs=TOL)


# --------------------------------------------------------------------------- #
# serving visibility
# --------------------------------------------------------------------------- #
class TestServingCounters:
    def test_speculation_and_budget_counters_in_stats(self, covid_bundle):
        config = MESAConfig(
            excluded_columns=covid_bundle.id_columns,
            max_responsibility_permutations=200,
        )
        with ExplanationService(coalesce_window_seconds=0.0) as service:
            service.register_bundle(covid_bundle, config=config, warm=False)
            service.explain(covid_bundle.name, covid_bundle.queries[0].query,
                            k=3)
            counters = service.stats()["contexts"][covid_bundle.name][
                "counters"]
        # The service turns speculation on by default; every speculation
        # ends as a hit or a discard.
        assert (counters.get("speculation_hit", 0)
                + counters.get("speculation_waste", 0)) >= 1
        # Adaptive budgets imply early exit, so clear-cut responsibility
        # tests bank savings against the base budget.
        budget_counters = [name for name in counters
                           if name.startswith("perm_budget_")]
        assert budget_counters, counters
