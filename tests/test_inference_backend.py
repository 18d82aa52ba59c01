"""Property tests for the unified batched inference backend.

Two pillars, matching the backend's two halves:

* **Blocked permutation engine** (:mod:`repro.infotheory.permutation`) —
  with early exit off, the blocked path consumes the RNG exactly as a
  per-permutation loop (``looped_independence_test``) and produces
  bit-identical p-values
  (asserted to 1e-12, i.e. exactly); with early exit on, the sequential
  decision never flips an accept/reject verdict at ``alpha ± 0.01``
  margins around the default significance level.
* **IPW fit cache + multi-label IRLS**
  (:mod:`repro.missingness.fitcache`) — attributes sharing an observed
  mask (and design) fit once and hit thereafter, the batched multi-label
  Newton solve matches per-attribute fits, and cache entries survive
  across calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ExplanationPipeline
from repro.infotheory.independence import (
    _permute_within_strata,
    conditional_independence_test,
)
from repro.infotheory.kernel import code_cardinality, fast_independence_test
from repro.infotheory.mutual_information import conditional_mutual_information
from repro.infotheory.encoding import encode_table, joint_codes
from repro.infotheory.permutation import (
    CP_MIN_PERMUTATIONS,
    PermutationBudget,
    PermutationPlan,
    sequential_verdict,
)
from repro.mesa.config import MESAConfig
from repro.missingness.fitcache import (
    SelectionFitCache,
    compute_ipw_weights_batched,
    design_signature,
    observed_mask_key,
)
from repro.missingness.ipw import compute_ipw_weights
from repro.missingness.logistic import LogisticRegression, fit_logistic_multi
from repro.table.table import Table
from repro.utils.rng import make_rng
from tests.conftest import looped_independence_test

#: Alpha margins required by the early-exit property: the verdict with
#: early exit on must equal the full run at the default level and ±0.01.
ALPHA_MARGINS = (0.04, 0.05, 0.06)


@st.composite
def coded_instances(draw):
    """Aligned (x, y, z, weights) code arrays with missing values."""
    n = draw(st.integers(min_value=3, max_value=90))
    x = np.array(draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)))
    z = np.array(draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(
            st.floats(0.0, 5.0, allow_nan=False, allow_subnormal=False),
            min_size=n, max_size=n)))
    else:
        weights = None
    return x, y, z, weights


class TestBlockedPermutationEngine:
    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_blocked_pvalues_equal_legacy_loop(self, data, seed):
        """Blocked == the per-permutation loop to 1e-12 (in fact exactly)
        with early exit off."""
        x, y, z, weights = data.draw(coded_instances())
        n_z = code_cardinality(z)
        blocked = fast_independence_test(x, y, z, n_z=n_z, weights=weights,
                                         n_permutations=25, seed=seed)
        legacy = looped_independence_test(x, y, z, weights=weights,
                                          n_permutations=25, seed=seed)
        assert abs(blocked.p_value - legacy.p_value) < 1e-12
        assert blocked.independent == legacy.independent
        assert blocked.cmi == legacy.cmi
        assert blocked.n_permutations == legacy.n_permutations
        assert not blocked.early_exit

    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_early_exit_never_flips_verdicts_at_alpha_margins(self, data, seed):
        x, y, z, weights = data.draw(coded_instances())
        n_z = code_cardinality(z)
        for alpha in ALPHA_MARGINS:
            full = fast_independence_test(x, y, z, n_z=n_z, weights=weights,
                                          n_permutations=25, alpha=alpha,
                                          seed=seed)
            fast = fast_independence_test(
                x, y, z, n_z=n_z, weights=weights, n_permutations=25,
                alpha=alpha, seed=seed,
                budget=PermutationBudget(early_exit=True))
            assert fast.independent == full.independent
            assert fast.n_permutations <= full.n_permutations
            assert fast.cmi == full.cmi

    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_plan_permute_is_bit_identical_to_legacy_helper(self, data, seed):
        """Consecutive one-row blocks consume the RNG as the historical
        helper's consecutive draws do."""
        x, _, z, _ = data.draw(coded_instances())
        plan = PermutationPlan(z)
        legacy_rng, planned_rng = make_rng(seed), make_rng(seed)
        for _ in range(3):
            legacy = _permute_within_strata(x, z, legacy_rng)
            (planned,) = plan.permute_block(x, planned_rng, 1)
            assert (legacy == planned).all()

    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_reference_test_matches_historical_loop(self, data, seed):
        """The plan-driven reference test reproduces the pre-refactor loop."""
        x, y, z, weights = data.draw(coded_instances())
        result = conditional_independence_test(x, y, [z], weights=weights,
                                               n_permutations=20, seed=seed)
        observed = conditional_mutual_information(x, y, [z], weights=weights)
        if observed <= 0.01:
            assert result.p_value == 1.0
            return
        # Historical loop, verbatim: unique/where per permutation.
        rng = make_rng(seed)
        strata = joint_codes([z])
        exceed = 0
        for _ in range(20):
            permuted = _permute_within_strata(x, strata, rng)
            if conditional_mutual_information(permuted, y, [z],
                                              weights=weights) >= observed:
                exceed += 1
        assert result.p_value == (exceed + 1) / 21
        assert result.n_permutations == 20

    @given(exceed=st.integers(0, 40), done=st.integers(1, 40),
           total=st.integers(1, 60),
           alpha=st.floats(0.01, 0.2, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_sequential_verdict_is_sound(self, exceed, done, total, alpha):
        """A deterministic early verdict always matches every completion."""
        if done > total or exceed > done or done >= CP_MIN_PERMUTATIONS:
            return
        verdict = sequential_verdict(exceed, done, total, alpha)
        if verdict is None:
            return
        # Any completion adds between 0 and (total - done) exceedances.
        finals = [(exceed + extra + 1) / (total + 1) > alpha
                  for extra in range(total - done + 1)]
        assert all(final == verdict for final in finals)

    def test_early_exit_saves_permutations_on_independent_data(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, 400)
        y = rng.integers(0, 4, 400)
        counters = {}

        def hook(name, increment):
            counters[name] = counters.get(name, 0) + increment

        result = fast_independence_test(
            x, y, None, n_permutations=200, threshold=0.0,
            budget=PermutationBudget(early_exit=True), counter_hook=hook)
        assert result.early_exit
        assert result.independent
        assert result.n_permutations < 200
        assert counters["perm_early_exit"] == 1
        # Savings are counted against permutations actually *scored*: the
        # current block's look-ahead beyond the decision point is paid
        # work, so perm_saved may be smaller than budget - n_run.
        assert 0 < counters["perm_saved"] <= 200 - result.n_permutations

    def test_blocked_supports_both_estimator_weight_shapes(self):
        # A deterministic spot-check that weighted blocked tests also match
        # the per-permutation loop (exceedances included).
        rng = np.random.default_rng(9)
        n = 300
        x = rng.integers(-1, 5, n)
        y = rng.integers(0, 3, n)
        z = rng.integers(0, 4, n)
        weights = rng.uniform(0.0, 2.0, n)
        n_z = code_cardinality(z)
        looped = looped_independence_test(x, y, z, weights=weights,
                                          threshold=0.0, n_permutations=40,
                                          seed=123)
        blocked = fast_independence_test(x, y, z, n_z=n_z, weights=weights,
                                         threshold=0.0, n_permutations=40,
                                         seed=123)
        assert looped.n_permutations == 40
        assert blocked.p_value == looped.p_value


# --------------------------------------------------------------------------- #
# fit cache + multi-label IRLS
# --------------------------------------------------------------------------- #
def _masked(values, mask):
    return [value if keep else None for value, keep in zip(values, mask)]


@pytest.fixture()
def biased_frame():
    """A frame with two attributes sharing one mask and one attribute apart."""
    rng = np.random.default_rng(7)
    n = 240
    group = rng.choice(["A", "B", "C"], n)
    outcome = (group == "A").astype(float) * 2 + rng.normal(0, 0.3, n)
    shared_mask = rng.random(n) > 0.3
    other_mask = rng.random(n) > 0.5
    table = Table.from_columns({
        "group": list(group),
        "outcome": list(np.round(outcome, 3)),
        "attr_a": _masked(list(rng.integers(0, 4, n)), shared_mask),
        "attr_b": _masked(list(rng.integers(0, 5, n)), shared_mask),
        "attr_c": _masked(list(rng.integers(0, 3, n)), other_mask),
    })
    return encode_table(table)


class TestFitCache:
    def test_shared_masks_fit_once(self, biased_frame):
        cache = SelectionFitCache()
        counters = {}

        def hook(name, increment=1):
            counters[name] = counters.get(name, 0) + increment

        results = compute_ipw_weights_batched(
            biased_frame, ["attr_a", "attr_b", "attr_c"], ["group"],
            cache=cache, counter_hook=hook)
        # attr_a and attr_b share a mask: one fit, one in-batch hit.
        assert counters == {"ipw_fit_miss": 2, "ipw_fit_hit": 1}
        assert len(cache) == 2
        np.testing.assert_array_equal(results["attr_a"].weights,
                                      results["attr_b"].weights)
        assert not np.array_equal(results["attr_a"].weights,
                                  results["attr_c"].weights)

    def test_cache_hits_across_calls(self, biased_frame):
        cache = SelectionFitCache()
        counters = {}

        def hook(name, increment=1):
            counters[name] = counters.get(name, 0) + increment

        first = compute_ipw_weights_batched(
            biased_frame, ["attr_a"], ["group"], cache=cache, counter_hook=hook)
        second = compute_ipw_weights_batched(
            biased_frame, ["attr_a", "attr_b"], ["group"], cache=cache,
            counter_hook=hook)
        # attr_a hits its cached fit; attr_b shares the mask, so it resolves
        # from the same cache entry (a second hit, not a new fit).
        assert counters == {"ipw_fit_miss": 1, "ipw_fit_hit": 2}
        assert second["attr_a"].weights is first["attr_a"].weights
        # The same-mask sibling resolves from the cached fit too.
        np.testing.assert_array_equal(second["attr_b"].weights,
                                      first["attr_a"].weights)

    def test_batched_weights_match_per_attribute_fits(self, biased_frame):
        batched = compute_ipw_weights_batched(
            biased_frame, ["attr_a", "attr_c"], ["group", "outcome"])
        for attribute in ("attr_a", "attr_c"):
            single = compute_ipw_weights(biased_frame, attribute,
                                         ["group", "outcome"])
            assert np.abs(batched[attribute].weights - single.weights).max() < 1e-8
            assert batched[attribute].selection_rate == single.selection_rate
            assert batched[attribute].model_converged == single.model_converged

    def test_degenerate_attributes_keep_unit_weights(self, biased_frame):
        results = compute_ipw_weights_batched(
            biased_frame, ["group"], ["outcome"], cache=SelectionFitCache())
        assert (results["group"].weights == 1.0).all()
        assert results["group"].selection_rate == 1.0

    def test_cached_weights_are_read_only(self, biased_frame):
        results = compute_ipw_weights_batched(
            biased_frame, ["attr_a"], ["group"], cache=SelectionFitCache())
        with pytest.raises(ValueError):
            results["attr_a"].weights[0] = 99.0

    def test_design_signature_distinguishes_inputs(self, biased_frame):
        codes = [biased_frame.codes("group")]
        base = design_signature(["group"], codes, 10.0, 1e-3)
        assert design_signature(["group"], codes, 5.0, 1e-3) != base
        assert design_signature(["group"], codes, 10.0, 1e-2) != base
        assert design_signature(["other"], codes, 10.0, 1e-3) != base
        mask = biased_frame.observed_mask("attr_a")
        assert observed_mask_key(mask) != observed_mask_key(~mask)

    def test_invalid_clip_rejected_like_single_path(self, biased_frame):
        from repro.exceptions import MissingDataError
        with pytest.raises(MissingDataError, match="clip must be positive"):
            compute_ipw_weights_batched(biased_frame, ["attr_a"], ["group"],
                                        clip=0.0)

    def test_design_factory_skipped_on_full_cache_hit(self, biased_frame):
        cache = SelectionFitCache()
        calls = []

        def factory():
            calls.append(1)
            from repro.missingness.logistic import one_hot_encode_codes
            return one_hot_encode_codes([biased_frame.codes("group")]), None

        compute_ipw_weights_batched(biased_frame, ["attr_a"], ["group"],
                                    design_factory=factory, cache=cache)
        assert len(calls) == 1
        # Warm repeat: every fit hits the cache, the design is never built.
        compute_ipw_weights_batched(biased_frame, ["attr_a"], ["group"],
                                    design_factory=factory, cache=cache)
        assert len(calls) == 1

    def test_cache_lru_bound(self):
        cache = SelectionFitCache(max_entries=2)
        from repro.missingness.fitcache import CachedSelectionFit
        for index in range(3):
            cache.put((b"sig", bytes([index])),
                      CachedSelectionFit(np.ones(1), 0.5, True))
        assert len(cache) == 2
        assert cache.get((b"sig", bytes([0]))) is None
        assert cache.get((b"sig", bytes([2]))) is not None


class TestMultiLabelIRLS:
    @given(seed=st.integers(0, 1000), n_labels=st.integers(1, 5),
           use_groups=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_multi_matches_singles(self, seed, n_labels, use_groups):
        rng = np.random.default_rng(seed)
        n, d = 80, 4
        features = rng.integers(0, 2, (n, d)).astype(float)
        labels = (rng.random((n, n_labels))
                  < rng.uniform(0.1, 0.9, n_labels)).astype(float)
        row_groups = None
        if use_groups:
            _, row_groups = np.unique(features, axis=0, return_inverse=True)
            row_groups = row_groups.astype(np.int64)
        multi = fit_logistic_multi(features, labels, row_groups=row_groups)
        for label in range(n_labels):
            single = LogisticRegression().fit(features, labels[:, label],
                                              row_groups=row_groups)
            assert abs(multi[label].intercept_ - single.intercept_) < 1e-7
            assert np.abs(multi[label].coefficients_
                          - single.coefficients_).max() < 1e-7
            assert multi[label].converged_ == single.converged_
            assert multi[label].n_iterations_ == single.n_iterations_

    def test_degenerate_labels_fall_back_to_intercept(self):
        features = np.ones((10, 1))
        labels = np.stack([np.zeros(10), np.ones(10),
                           np.array([0, 1] * 5)], axis=1)
        models = fit_logistic_multi(features, labels)
        assert models[0].n_iterations_ == 0 and models[0].converged_
        assert models[1].n_iterations_ == 0 and models[1].converged_
        assert models[2].n_iterations_ > 0


class TestPipelineFlagWiring:
    """The early-exit knob reaches the oracle and keeps results equivalent."""

    def test_flags_off_and_on_agree(self, covid_bundle):
        queries = [entry.query for entry in covid_bundle.queries]
        results = {}
        for tag, overrides in {
            "default": dict(),
            "early": dict(permutation_early_exit=True),
        }.items():
            config = MESAConfig(excluded_columns=tuple(covid_bundle.id_columns),
                                k=3, **overrides)
            pipeline = ExplanationPipeline(
                covid_bundle.table, covid_bundle.knowledge_graph,
                covid_bundle.extraction_specs, config=config)
            results[tag] = pipeline.explain_many(queries, k=3)
        for a, b in zip(results["default"], results["early"]):
            assert a.attributes == b.attributes
            assert abs(a.explanation.explainability
                       - b.explanation.explainability) < 1e-9
