"""Conditional-independence testing.

The MCIMR stopping criterion and several pruning rules need a fast test of
``X ⊥ Y | Z`` from data.  The paper cites the "highly efficient independence
test" of HypDB [63], which compares the estimated CMI against a permutation
null distribution.  We implement exactly that: the observed CMI is compared
with the CMIs obtained after randomly permuting ``X`` *within strata of Z*
(so the null preserves the marginal relationships with the conditioning
set), plus a cheap absolute threshold shortcut for the common case where the
observed CMI is essentially zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.infotheory.encoding import joint_codes
from repro.infotheory.mutual_information import conditional_mutual_information
from repro.infotheory.permutation import (
    BudgetedSequentialTest,
    PermutationBudget,
    PermutationOutcome,
    PermutationPlan,
    report_outcome,
    run_permutation_blocks,
)
from repro.utils.rng import make_rng

DEFAULT_CMI_THRESHOLD = 0.01


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of a conditional-independence test.

    Attributes
    ----------
    independent:
        The test's verdict at the requested significance level.
    cmi:
        The observed conditional mutual information.
    p_value:
        Fraction of permutation CMIs at least as large as the observed one
        (1.0 when the threshold shortcut fired).  After an early exit the
        fraction reflects only the permutations actually run; the verdict
        is still the one the full run would have produced (see
        :mod:`repro.infotheory.permutation`).
    n_permutations:
        Number of permutations actually run (0 for the shortcut).
    early_exit:
        True when the sequential test stopped before exhausting its
        permutation budget.
    budget_extensions:
        How many times an adaptive :class:`~repro.infotheory.permutation.
        PermutationBudget` extended the permutation target because the
        verdict was still statistically uncertain (0 for fixed budgets).
    """

    independent: bool
    cmi: float
    p_value: float
    n_permutations: int
    early_exit: bool = False
    budget_extensions: int = 0


def _permute_within_strata(x: np.ndarray, strata: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Permute ``x`` independently inside each stratum of ``strata``."""
    permuted = x.copy()
    for stratum in np.unique(strata):
        indices = np.where(strata == stratum)[0]
        if len(indices) > 1:
            permuted[indices] = x[rng.permutation(indices)]
    return permuted


def decide(observed: float,
           run: Callable[[PermutationBudget], PermutationOutcome], *,
           threshold: float, dependent_threshold: Optional[float],
           n_permutations: int, alpha: float,
           budget: Optional[PermutationBudget],
           counter_hook=None) -> IndependenceResult:
    """The decision every independence test shares, given its observed CMI.

    Shortcuts first, in this order: independent at or below
    ``threshold``; dependent at or above ``dependent_threshold`` (when
    given); dependent when there is no permutation budget.  Otherwise
    ``run(budget)`` executes the permutation phase (``budget`` defaults to
    a fixed budget without early exit), the outcome is reported through
    ``counter_hook`` and the innermost trace span, and independence is
    declared when the permutation p-value exceeds ``alpha`` (or by the
    sequential early verdict).
    """
    if observed <= threshold:
        return IndependenceResult(independent=True, cmi=observed, p_value=1.0, n_permutations=0)
    if dependent_threshold is not None and observed >= dependent_threshold:
        return IndependenceResult(independent=False, cmi=observed, p_value=0.0, n_permutations=0)
    if n_permutations <= 0:
        return IndependenceResult(independent=False, cmi=observed, p_value=0.0, n_permutations=0)
    if budget is None:
        budget = PermutationBudget()
    outcome = run(budget)
    report_outcome(counter_hook, outcome, n_permutations, budget)
    return IndependenceResult(independent=outcome.independent(alpha),
                              cmi=observed,
                              p_value=outcome.p_value,
                              n_permutations=outcome.n_run,
                              early_exit=outcome.verdict is not None,
                              budget_extensions=outcome.extensions)


def conditional_independence_test(x: np.ndarray, y: np.ndarray,
                                  conditioning: Sequence[np.ndarray] = (),
                                  weights: Optional[np.ndarray] = None,
                                  threshold: float = DEFAULT_CMI_THRESHOLD,
                                  n_permutations: int = 30,
                                  alpha: float = 0.05,
                                  dependent_threshold: Optional[float] = None,
                                  seed: Optional[int] = 0,
                                  counter_hook=None,
                                  budget: Optional[PermutationBudget] = None,
                                  ) -> IndependenceResult:
    """Test whether ``X ⊥ Y | conditioning`` holds in the data.

    The test first applies two cheap shortcuts: if the observed CMI is below
    ``threshold`` the variables are declared independent, and if it is above
    ``dependent_threshold`` (when given) they are declared dependent — both
    without running permutations.  Otherwise a stratified permutation test
    with ``n_permutations`` permutations is run and independence is declared
    when the permutation p-value exceeds ``alpha``.  Note the smallest
    achievable p-value is ``1/(n_permutations+1)``, so at least 20
    permutations are needed for decisions at ``alpha=0.05``.

    The permutations run through the one permutation driver
    (:func:`repro.infotheory.permutation.run_permutation_blocks`) over
    one-permutation blocks of a precomputed strata plan, always on the
    legacy RNG stream, so the p-values equal the historical per-permutation
    loop's.  ``budget`` (see :func:`decide`) may stop the loop as soon as
    the verdict is determined and extend ``n_permutations`` adaptively
    while the verdict stays statistically uncertain.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    conditioning = [np.asarray(codes, dtype=np.int64) for codes in conditioning]
    observed = conditional_mutual_information(x, y, conditioning, weights=weights)

    def run(policy: PermutationBudget) -> PermutationOutcome:
        strata = joint_codes(conditioning) if conditioning \
            else np.zeros(len(x), dtype=np.int64)
        plan = PermutationPlan(strata)
        rng = make_rng(seed)

        def null_block(_start: int, count: int):
            return [conditional_mutual_information(
                        permuted, y, conditioning, weights=weights)
                    for permuted in plan.permute_block(x, rng, count)]

        return run_permutation_blocks(
            BudgetedSequentialTest(n_permutations, alpha, policy), observed,
            1, null_block)

    return decide(observed, run, threshold=threshold,
                  dependent_threshold=dependent_threshold,
                  n_permutations=n_permutations, alpha=alpha, budget=budget,
                  counter_hook=counter_hook)
