"""The Correlation-Explanation problem instance (Definition 2.1).

A :class:`CorrelationExplanationProblem` bundles everything the search
algorithms need:

* the (augmented) table restricted to the query's context ``C``;
* the exposure ``T`` and outcome ``O``;
* the candidate attribute list ``A``;
* per-attribute inverse-probability weights for selection-biased attributes;
* a memoised conditional-mutual-information oracle, since both MCIMR and the
  brute-force baseline evaluate many overlapping CMI terms over the same
  table;
* optionally, a memo of unweighted independence tests and entropies shared
  by every problem over the same encoded frame (the engine keeps one per
  context frame), since those estimates do not depend on the exposure.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.counts import LocalCounts
from repro.exceptions import ExplanationError
from repro.infotheory.encoding import EncodedFrame
from repro.infotheory.independence import (
    DEFAULT_CMI_THRESHOLD,
    IndependenceResult,
    decide,
)
from repro.infotheory.permutation import PermutationBudget
from repro.obs import trace
from repro.query.aggregate_query import AggregateQuery
from repro.table.discretize import DEFAULT_BINS
from repro.table.table import Table


class CorrelationExplanationProblem:
    """One instance of the Correlation-Explanation problem.

    Parameters
    ----------
    table:
        The augmented table (input dataset joined with the extracted
        attributes).  The query context has *not* been applied yet; the
        constructor applies it.
    query:
        The aggregate query whose exposure/outcome correlation is being
        explained.
    candidates:
        The candidate attribute names ``A`` (everything that may enter an
        explanation).  They must exist in ``table``.
    attribute_weights:
        Optional per-attribute IPW weight vectors (aligned with the rows of
        the *context-restricted* table).  Only attributes flagged with
        selection bias need an entry.
    n_bins:
        Number of bins used when numeric attributes are discretised for the
        information-theoretic estimates.
    frame:
        An existing :class:`EncodedFrame` over the *context-restricted*
        table to adopt instead of encoding from scratch.  The engine passes
        the first problem instance's frame when it rebuilds the problem
        with IPW weights, so every column is factorised at most once per
        query — and the :class:`~repro.engine.context.PipelineContext`
        frame cache passes it across queries sharing a context, so every
        column is factorised at most once per *context*.  The adopted
        frame's code arrays may be **read-only shared-memory views**
        (:mod:`repro.shm`): every code consumer treats code arrays as
        immutable — derived representations (joint codes, fused
        conditioning sets, restrictions, permutation blocks) are always
        freshly allocated — so a frame encoded once per box serves any
        number of problems in any number of processes.
    context_table:
        The context-restricted table the adopted ``frame`` encodes.  When
        given, the constructor skips re-applying the query context (the
        caller — the pipeline's frame cache — already filtered the rows).
        Must be passed together with ``frame``.
    counts:
        The counts source answering every estimate (see
        :mod:`repro.core.counts`): a callable ``(frame,
        attribute_weights) -> source``.  The default,
        :class:`~repro.core.counts.LocalCounts`, counts over this
        process's frame; the engine passes a
        :class:`~repro.distributed.counts.ShardCounts` partial when a
        row-sharded pool is attached.
    permutation_budget:
        The :class:`~repro.infotheory.permutation.PermutationBudget` policy
        of every permutation test this problem runs (default: a fixed
        budget without early exit).  ``early_exit`` lets the sequential
        decision stop a run once the verdict is determined; an adaptive
        policy (``max_permutations`` set) extends statistically uncertain
        tests geometrically while clear-cut tests exit early, and
        ``rng_stream="argsort"`` selects the vectorised sampling stream.
    counter_hook:
        Optional ``(name, increment)`` callable observing backend counters
        (``perm_early_exit``, ``perm_saved``, ``perm_budget_extended``,
        ``perm_budget_saved``, and the sharded source's ``shard_*``).  The
        engine passes ``PipelineContext.count`` so the serving ``/stats``
        endpoint surfaces them.
    seconds_hook:
        Optional ``(name, seconds)`` callable observing backend phase
        timings (``permutation_test``); the engine passes
        ``PipelineContext.add_seconds``.
    estimate_memo:
        Optional memo shared by the problems over ``frame`` (anything
        with ``get(key)`` / ``put(key, value)``; the engine passes the
        context frame's :class:`~repro.engine.context.EstimateMemo`).
        :meth:`independence_test` and :meth:`conditional_entropy_of`
        answer from it under keys holding the estimate's whole identity;
        unseeded tests and tests touching an IPW-weighted attribute bypass
        it.  Hits and misses go to ``counter_hook`` as
        ``estimate_memo_hits`` / ``estimate_memo_misses``.
    """

    def __init__(self, table: Table, query: AggregateQuery, candidates: Sequence[str],
                 attribute_weights: Optional[Dict[str, np.ndarray]] = None,
                 n_bins: int = DEFAULT_BINS,
                 frame: Optional[EncodedFrame] = None,
                 context_table: Optional[Table] = None,
                 counts=None,
                 permutation_budget: Optional[PermutationBudget] = None,
                 counter_hook=None, seconds_hook=None, estimate_memo=None):
        query.validate_against(table)
        if context_table is not None and frame is None:
            raise ExplanationError(
                "context_table adoption requires the matching encoded frame"
            )
        missing = [name for name in candidates if name not in table]
        if missing:
            raise ExplanationError(
                f"Candidate attribute(s) {missing} are not columns of the table"
            )
        forbidden = {query.exposure, query.outcome}
        overlapping = [name for name in candidates if name in forbidden]
        if overlapping:
            raise ExplanationError(
                f"Candidate attributes may not include the exposure or outcome: {overlapping}"
            )
        self.query = query
        self.full_table = table
        self.context_table = context_table if context_table is not None \
            else query.apply_context(table)
        if self.context_table.n_rows == 0:
            raise ExplanationError(
                f"The query context {query.context!r} selects no rows"
            )
        self.candidates: List[str] = list(dict.fromkeys(candidates))
        self.n_bins = n_bins
        if frame is not None:
            if frame.n_rows != self.context_table.n_rows or frame.n_bins != n_bins:
                raise ExplanationError(
                    f"Adopted frame has {frame.n_rows} rows / {frame.n_bins} bins, "
                    f"expected {self.context_table.n_rows} rows / {n_bins} bins"
                )
            self.frame = frame
        else:
            self.frame = EncodedFrame(self.context_table, n_bins=n_bins)
        self.attribute_weights: Dict[str, np.ndarray] = dict(attribute_weights or {})
        for attribute, weights in self.attribute_weights.items():
            if len(weights) != self.context_table.n_rows:
                raise ExplanationError(
                    f"IPW weights for {attribute!r} have length {len(weights)}, "
                    f"expected {self.context_table.n_rows} (context rows)"
                )
        self.counts = (counts or LocalCounts)(self.frame, self.attribute_weights)
        self.permutation_budget = permutation_budget \
            if permutation_budget is not None else PermutationBudget()
        self.counter_hook = counter_hook
        self.seconds_hook = seconds_hook
        self.estimate_memo = estimate_memo
        # Sharded tests draw per-shard RNG streams, so a memoised value
        # belongs to the counts source (and shard count) that made it.
        pool = getattr(self.counts, "pool", None)
        self._memo_source = "local" if pool is None \
            else f"shards:{pool.n_shards}"
        self._cmi_cache: Dict[Tuple[str, ...], float] = {}
        self._mi_cache: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def exposure(self) -> str:
        """The exposure attribute ``T``."""
        return self.query.exposure

    @property
    def outcome(self) -> str:
        """The outcome attribute ``O``."""
        return self.query.outcome

    @property
    def n_rows(self) -> int:
        """Number of rows satisfying the query context."""
        return self.context_table.n_rows

    def has_selection_bias(self, attribute: str) -> bool:
        """Whether IPW weights were supplied for the attribute."""
        return attribute in self.attribute_weights

    # ------------------------------------------------------------------ #
    # information-theoretic oracle
    # ------------------------------------------------------------------ #
    def cmi(self, conditioning: Sequence[str] = ()) -> float:
        """``I(O; T | conditioning, C)`` with memoisation and IPW weights.

        Missing values of conditioning attributes form their own stratum
        (see :meth:`repro.infotheory.encoding.EncodedFrame.codes`): a row
        whose confounder value is unknown keeps its unexplained dependence
        instead of being dropped, which prevents sparsely populated
        attributes from looking like good explanations merely because their
        complete cases exclude entire exposure groups.
        """
        key = tuple(sorted(conditioning))
        value = self._cmi_cache.get(key)
        if value is None:
            value = self.counts.cmi(self.outcome, self.exposure, key)
            self._cmi_cache[key] = value
        return value

    def score_candidates(self, attributes: Sequence[str],
                         given: Sequence[str] = ()) -> Dict[str, float]:
        """``I(O;T | given ∪ {a}, C)`` for every candidate ``a``, batched.

        One greedy round of MCIMR (and the ranking passes of the brute-force
        and top-k explainers) scores every remaining candidate against the
        same selected set, so the uncached terms go to the counts source as
        one batch — one fuse plus one ``bincount`` per candidate locally,
        one scatter-gather round on a shard pool.  Results land in the same
        memo the scalar :meth:`cmi` oracle uses.
        """
        given_set = set(given)
        scores: Dict[str, float] = {}
        pending: List[str] = []
        for attribute in attributes:
            key = tuple(sorted(given_set | {attribute}))
            value = self._cmi_cache.get(key)
            if value is None and attribute in given_set:
                value = self.cmi(key)
            if value is None:
                pending.append(attribute)
            else:
                scores[attribute] = value
        values = self.counts.score(self.outcome, self.exposure,
                                   tuple(sorted(given)), pending)
        for attribute, value in zip(pending, values):
            self._cmi_cache[tuple(sorted(given_set | {attribute}))] = value
            scores[attribute] = value
        return scores

    def baseline_cmi(self) -> float:
        """``I(O; T | C)`` — the unexplained correlation."""
        return self.cmi(())

    def explanation_score(self, attributes: Sequence[str]) -> float:
        """The explainability score of an attribute set (lower is better)."""
        return self.cmi(attributes)

    def objective(self, attributes: Sequence[str]) -> float:
        """The Definition 2.1 objective ``I(O;T|E,C) * |E|``."""
        if not attributes:
            return self.baseline_cmi()
        return self.explanation_score(attributes) * len(attributes)

    def pairwise_mi(self, a: str, b: str) -> float:
        """``I(A; B)`` between two candidate attributes (memoised, weighted)."""
        key = (a, b) if a <= b else (b, a)
        value = self._mi_cache.get(key)
        if value is None:
            value = self.counts.pairwise_mi(a, b)
            self._mi_cache[key] = value
        return value

    def attribute_relevance(self, attribute: str) -> float:
        """Individual explanation power ``I(O;T|C, attribute)`` (lower = stronger)."""
        return self.cmi([attribute])

    def entropy_of(self, attribute: str) -> float:
        """Entropy of an attribute within the context.

        Pruning evaluates ``H(T)``/``H(O)`` once per candidate; the
        estimate memo makes those repeat lookups free.
        """
        return self.conditional_entropy_of(attribute, ())

    def conditional_entropy_of(self, target: str, given: Sequence[str]) -> float:
        """``H(target | given)`` within the context (unweighted, memoised)."""
        given = tuple(sorted(given))
        return self._memoised(
            ("entropy", self._memo_source, target, given),
            lambda: self.counts.conditional_entropy(target, given))

    def _memoised(self, key: Optional[tuple], compute):
        """``compute()``, answered from the estimate memo when it can be.

        ``key`` is ``None`` for an estimate the memo must not hold.
        """
        memo = self.estimate_memo
        if memo is None or key is None:
            return compute()
        value = memo.get(key)
        if self.counter_hook is not None:
            self.counter_hook("estimate_memo_misses" if value is None
                              else "estimate_memo_hits", 1)
        if value is None:
            value = compute()
            memo.put(key, value)
        return value

    # ------------------------------------------------------------------ #
    # independence testing
    # ------------------------------------------------------------------ #
    def independence_test(self, a: str, b: str, conditioning: Sequence[str] = (),
                          threshold: float = DEFAULT_CMI_THRESHOLD,
                          n_permutations: int = 30, alpha: float = 0.05,
                          dependent_threshold: Optional[float] = None,
                          seed: Optional[int] = 0) -> IndependenceResult:
        """Conditional-independence test between two columns given others.

        The counts source computes the observed CMI over the plain codes
        (never through :meth:`cmi`, whose missing-as-category memo a
        concurrent speculative scoring round may be filling) and runs the
        permutation phase; the shortcuts and the decision are
        :func:`repro.infotheory.independence.decide` under
        ``permutation_budget``.  Elapsed wall-clock is reported to
        ``seconds_hook`` under ``permutation_test``.

        A seeded test over unweighted attributes is answered from the
        estimate memo when an earlier problem over the frame ran it; a hit
        opens no span and reports no ``perm_*`` counter or seconds.  The
        key holds everything the result depends on: the counts source,
        ``a``, ``b``, the conditioning set in caller order (it fixes the
        stratum order), the thresholds, the permutations, ``alpha``,
        ``seed`` and the budget.
        """
        conditioning = tuple(conditioning)
        key = None
        if seed is not None and not any(
                name in self.attribute_weights
                for name in (a, b, *conditioning)):
            key = ("test", self._memo_source, a, b, conditioning, threshold,
                   dependent_threshold, n_permutations, alpha, seed,
                   self.permutation_budget)
        return self._memoised(key, lambda: self._run_test(
            a, b, conditioning, threshold, n_permutations, alpha,
            dependent_threshold, seed))

    def _run_test(self, a: str, b: str, conditioning: Tuple[str, ...],
                  threshold: float, n_permutations: int, alpha: float,
                  dependent_threshold: Optional[float],
                  seed: Optional[int]) -> IndependenceResult:
        start = time.perf_counter() if self.seconds_hook is not None else 0.0
        try:
            with trace.span("permutation_test", a=a, b=b,
                            conditioning=len(conditioning)):
                observed, permute = self.counts.test(
                    a, b, conditioning, n_permutations, alpha, seed)
                return decide(
                    observed, permute, threshold=threshold,
                    dependent_threshold=dependent_threshold,
                    n_permutations=n_permutations, alpha=alpha,
                    budget=self.permutation_budget,
                    counter_hook=self.counter_hook)
        finally:
            if self.seconds_hook is not None:
                self.seconds_hook("permutation_test",
                                  time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # derived problems
    # ------------------------------------------------------------------ #
    def restricted_to(self, mask: np.ndarray) -> "CorrelationExplanationProblem":
        """A new problem over a row subset of the *context* table.

        Used by the unexplained-subgroup search, which evaluates the same
        explanation on refinements of the context.  Attribute weights are
        sliced along with the rows.  The restriction always counts locally:
        a shard pool holds the context's rows, not arbitrary subsets.  It
        counts over another frame, so it never reads the estimate memo.
        """
        mask = np.asarray(mask, dtype=bool)
        restricted = copy.copy(self)
        restricted.context_table = self.context_table.filter(mask)
        restricted.candidates = list(self.candidates)
        restricted.frame = self.frame.restrict(mask)
        restricted.attribute_weights = {
            attribute: weights[mask]
            for attribute, weights in self.attribute_weights.items()
        }
        restricted.counts = LocalCounts(restricted.frame,
                                        restricted.attribute_weights)
        restricted.estimate_memo = None
        restricted._cmi_cache = {}
        restricted._mi_cache = {}
        return restricted

    def subset_candidates(self, candidates: Iterable[str]) -> "CorrelationExplanationProblem":
        """A shallow copy of the problem with a reduced candidate list.

        The memo caches, the estimate memo and the counts source are
        shared (entries are keyed by attribute names, so they stay valid),
        which lets pruning produce a cheaper problem without recomputation.
        """
        clone = copy.copy(self)
        clone.candidates = list(candidates)
        return clone
