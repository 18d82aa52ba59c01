"""Stratified permutation tests: one count kernel, one finaliser, one loop.

Every conditional-independence test in the package estimates a
permutation p-value by re-computing the CMI after permuting ``X`` within
strata of the conditioning set ``Z``.  Local and row-sharded tests share
three pieces, so the local test is the one-shard case of the sharded one:

* **One count kernel.**  :func:`block_partial_counts` draws a block of
  permutations over a :class:`PermutationPlan` (the strata, derived once
  per test) and counts all of them in one ``bincount``.  It returns the
  ``(count, cells)`` contingency counts and each permutation's largest
  ``x`` and ``y`` code among its complete rows.  The local test runs it
  over the whole frame.  Each shard worker runs it over its own rows, and
  the coordinator sums the shards' counts in shard order and merges their
  bounds by max.
* **One finaliser.**  :func:`null_cmis_from_counts` trims each merged
  count tensor to its bounds and takes the CMI with
  :func:`repro.infotheory.kernel.cmi_from_counts`.  The trimmed tensor is
  the one :func:`repro.infotheory.kernel.contingency_cmi` would count for
  that permutation, so local null CMIs, and the p-values, equal a
  per-permutation loop of the scalar kernel exactly.  The sharded test
  finalises its observed CMI the same way.
* **One loop.**  :func:`run_permutation_blocks` requests blocks and feeds
  each null statistic through :class:`BudgetedSequentialTest` until the
  budget is spent or the verdict is decided.  Statistics that do not come
  from counts (the reference test's estimator, and the scalar kernel on
  code spaces too wide to count densely) run through it over
  one-permutation blocks.

Early exit (``PermutationBudget(early_exit=True)``) is a *sequential* test
on the exceedance count.  Two deterministic bounds never flip the
fixed-``N`` verdict: with
``k`` exceedances after ``m`` of ``N`` permutations the final p-value
``(K + 1) / (N + 1)`` is bracketed by ``k <= K <= k + (N - m)``, so the test
stops as soon as the bracket lies entirely above or below ``alpha``
(in the common "truly independent" case the very first exceedance already
decides the verdict at ``alpha >= 1 / (N + 1)``).  For large permutation
budgets a Clopper–Pearson interval on the true exceedance probability
additionally stops the test once the interval clears ``alpha`` at
confidence ``CP_CONFIDENCE`` — this bound can in principle differ from the
full run (probability below ``1 - CP_CONFIDENCE``) and only engages after
:data:`CP_MIN_PERMUTATIONS` draws, so small-budget tests (the pipeline
default of 20–30) are decided purely by the verdict-preserving bounds.

Adaptive budgets (:class:`PermutationBudget` with ``max_permutations``
set) invert the spend: instead of every test paying one fixed budget, a
test whose exceedance count still *straddles* ``alpha`` when its current
target is exhausted — the Clopper–Pearson interval on the exceedance
probability contains ``alpha`` — **extends** its target geometrically
(``growth``) up to ``max_permutations``, while clear-cut tests exit early
through the sequential decision.  A test that never extends exits exactly
as the fixed-budget sequential test would (same bracket, same verdict); a
test that does extend was, by construction, statistically uncertain at
the base budget, and its final verdict rests on a strictly larger sample.
:class:`BudgetedSequentialTest` holds that decision, and
:func:`run_permutation_blocks` is its only driver: the local test, the
row-sharded coordinator
(:meth:`repro.distributed.coordinator.ShardPool.permutation_rounds`,
whose chunk-aligned per-shard RNG streams make extension deterministic
and resume-safe) and the per-permutation statistics all run through it.

RNG streams: ``rng_stream="legacy"`` (default) draws one Fisher–Yates
permutation per stratum per permutation, so a block of ``B``
permutations consumes the generator exactly as ``B`` one-permutation
blocks do.  ``rng_stream="argsort"`` instead draws one ``(B, n)``
uniform block and stably argsorts random keys within strata — a
*different but documented* stream producing exchangeable stratified
permutations from the same generator, acceptable wherever the
exact-count contract already does not apply (early-exit and adaptive
modes) and several times faster on many-strata plans.  Local and sharded
tests draw from the stream their budget names; the reference test always
draws the legacy stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import beta

from repro.obs import trace

#: Upper bound on the number of cells materialised per blocked bincount;
#: blocks are chunked so ``block * cells_per_permutation`` stays below it.
BLOCK_CELL_BUDGET = 1 << 22

#: Upper bound on ``block * n_rows`` — the blocked path materialises a
#: handful of ``(block, n)`` temporaries, so small contingency spaces with
#: huge permutation budgets must not translate into unbounded blocks
#: (~16 MB per int64 temporary at this budget).
BLOCK_ROW_BUDGET = 1 << 21

#: First-block size when early exit is enabled.  A whole block is permuted
#: and scored before the sequential decision sees its exceedances, so the
#: common first-exceedance exit must not pay for a full-budget block;
#: blocks ramp geometrically from here up to the memory-bounded size.
EARLY_EXIT_INITIAL_BLOCK = 8

#: Confidence of the Clopper–Pearson early-exit bound (two-sided).
CP_CONFIDENCE = 0.9999

#: The Clopper–Pearson bound only engages after this many permutations, so
#: small permutation budgets are decided purely by the deterministic
#: (verdict-preserving) bracket.
CP_MIN_PERMUTATIONS = 100

#: Per-stratum Fisher–Yates draws — bit-identical to the historical loop.
RNG_STREAM_LEGACY = "legacy"

#: One uniform ``(B, n)`` draw + segmented stable argsort — a different
#: but documented stream (see the module docstring).
RNG_STREAM_ARGSORT = "argsort"

#: The streams :meth:`PermutationPlan.permute_block` understands.
RNG_STREAMS = (RNG_STREAM_LEGACY, RNG_STREAM_ARGSORT)


# --------------------------------------------------------------------------- #
# stratified permutation plan
# --------------------------------------------------------------------------- #
class PermutationPlan:
    """Precomputed strata of a conditioning code array.

    The plan derives, once, the row-index lists of every stratum with more
    than one member — the only strata that consume randomness.  Iteration
    order matches the historical per-permutation derivation exactly:
    strata sorted by code value, indices ascending within a stratum.
    """

    __slots__ = ("groups", "_argsort_rows", "_argsort_segments")

    def __init__(self, strata: np.ndarray):
        strata = np.asarray(strata)
        order = np.argsort(strata, kind="stable").astype(np.int64)
        sorted_strata = strata[order]
        boundaries = np.flatnonzero(sorted_strata[1:] != sorted_strata[:-1]) + 1
        self.groups: List[np.ndarray] = [
            group for group in np.split(order, boundaries) if len(group) > 1]
        self._argsort_rows: Optional[np.ndarray] = None
        self._argsort_segments: Optional[np.ndarray] = None

    def _argsort_layout(self) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated multi-member stratum rows + float segment offsets.

        Adding segment index ``s`` to uniform keys in ``[0, 1)`` keeps
        every stratum's keys in a disjoint band, so one stable argsort of
        the whole row axis permutes each stratum independently.
        """
        if self._argsort_rows is None:
            if self.groups:
                self._argsort_rows = np.concatenate(self.groups)
                self._argsort_segments = np.repeat(
                    np.arange(len(self.groups), dtype=np.float64),
                    [len(group) for group in self.groups])
            else:
                self._argsort_rows = np.zeros(0, dtype=np.int64)
                self._argsort_segments = np.zeros(0, dtype=np.float64)
        return self._argsort_rows, self._argsort_segments

    def permute_block(self, x: np.ndarray, rng: np.random.Generator,
                      count: int,
                      rng_stream: str = RNG_STREAM_LEGACY) -> np.ndarray:
        """A ``(count, n)`` matrix of stratified permutations of ``x``.

        With the default legacy stream, each row draws
        ``rng.permutation`` per multi-member stratum in plan order (the
        order of the historical ``_permute_within_strata``), so a block of
        ``count`` permutations consumes the RNG exactly as ``count``
        one-row blocks would.  With ``rng_stream="argsort"`` the block is
        sampled as one uniform ``(count, m)`` draw over the multi-member
        stratum rows
        followed by a segmented stable argsort — exchangeable within every
        stratum, but a *different* (documented) stream: the same seed no
        longer reproduces the legacy permutations.
        """
        x = np.asarray(x)
        if rng_stream == RNG_STREAM_ARGSORT:
            rows, segments = self._argsort_layout()
            block = np.tile(x, (count, 1))
            if rows.size:
                keys = segments[None, :] + rng.random((count, rows.size))
                order = np.argsort(keys, axis=1, kind="stable")
                block[:, rows] = x[rows[order]]
            return block
        if rng_stream != RNG_STREAM_LEGACY:
            raise ValueError(
                f"unknown rng_stream {rng_stream!r}; expected one of "
                f"{RNG_STREAMS}")
        block = np.tile(x, (count, 1))
        for row in block:
            for indices in self.groups:
                row[indices] = x[rng.permutation(indices)]
        return block


# --------------------------------------------------------------------------- #
# sequential early-exit decision
# --------------------------------------------------------------------------- #
def clopper_pearson_interval(successes: int, trials: int,
                             confidence: float = CP_CONFIDENCE,
                             ) -> Tuple[float, float]:
    """Two-sided Clopper–Pearson interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    tail = (1.0 - confidence) / 2.0
    lower = 0.0 if successes == 0 else float(
        beta.ppf(tail, successes, trials - successes + 1))
    upper = 1.0 if successes == trials else float(
        beta.ppf(1.0 - tail, successes + 1, trials - successes))
    return lower, upper


def sequential_verdict(exceed: int, done: int, total: int,
                       alpha: float) -> Optional[bool]:
    """Early verdict (``True`` = independent) after ``done`` permutations.

    ``None`` means undecided.  The deterministic bracket on the final
    p-value never contradicts the full ``total``-permutation run; the
    Clopper–Pearson rule (large ``done`` only) bounds the true exceedance
    probability instead and is correct with probability ``CP_CONFIDENCE``.
    """
    if done >= total:
        return None
    # Final p = (K + 1) / (total + 1) with exceed <= K <= exceed + remaining.
    if (exceed + 1) / (total + 1) > alpha:
        return True
    if (exceed + (total - done) + 1) / (total + 1) <= alpha:
        return False
    if done >= CP_MIN_PERMUTATIONS:
        lower, upper = clopper_pearson_interval(exceed, done)
        if lower > alpha:
            return True
        if upper < alpha:
            return False
    return None


# --------------------------------------------------------------------------- #
# adaptive permutation budgets
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PermutationBudget:
    """Policy of one permutation test's budget spend.

    Attributes
    ----------
    max_permutations:
        Adaptive cap: a test whose Clopper–Pearson interval still straddles
        ``alpha`` when its current target is exhausted extends the target
        geometrically up to this many permutations.  ``None`` (default)
        disables extension — the call-site ``n_permutations`` is final.
    growth:
        Geometric extension factor (new target =
        ``min(cap, ceil(target * growth))``).
    early_exit:
        Apply the sequential verdict between draws so clear-cut tests stop
        before exhausting the target (during an extension phase the verdict
        is always applied — an extended test is by definition past the
        base budget the caller asked for).
    rng_stream:
        ``"legacy"`` (bit-identical Fisher–Yates stream, default) or
        ``"argsort"`` (vectorised random-key sampling, different documented
        stream) — see :meth:`PermutationPlan.permute_block`.
    """

    max_permutations: Optional[int] = None
    growth: float = 2.0
    early_exit: bool = False
    rng_stream: str = RNG_STREAM_LEGACY

    def __post_init__(self) -> None:
        if self.max_permutations is not None and self.max_permutations < 1:
            raise ValueError(
                f"max_permutations must be >= 1 or None, "
                f"got {self.max_permutations}")
        if self.growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        if self.rng_stream not in RNG_STREAMS:
            raise ValueError(
                f"rng_stream must be one of {RNG_STREAMS}, "
                f"got {self.rng_stream!r}")

    @property
    def adaptive(self) -> bool:
        """Whether this budget may extend past the call-site permutations."""
        return self.max_permutations is not None

    def cap(self, base: int) -> int:
        """The hard permutation ceiling for a base budget of ``base``."""
        if self.max_permutations is None:
            return base
        return max(base, self.max_permutations)


@dataclass(frozen=True)
class PermutationOutcome:
    """Result of one (possibly budget-extended) permutation run.

    ``exceed`` of the ``n_run`` null statistics the decision saw reached
    the observed one.  ``verdict`` is the sequential early decision
    (``None`` when the run went to completion, and the caller derives the
    verdict from the p-value).  ``computed`` counts every null statistic
    scored, including a block's look-ahead past an early decision.
    ``extensions`` and ``target`` record how often an adaptive budget
    grew and the final permutation target.
    """

    exceed: int
    n_run: int
    verdict: Optional[bool]
    computed: int
    extensions: int
    target: int

    @property
    def p_value(self) -> float:
        return (self.exceed + 1) / (self.n_run + 1)

    def independent(self, alpha: float) -> bool:
        """The final verdict (early decision, else p-value vs ``alpha``)."""
        if self.verdict is not None:
            return self.verdict
        return self.p_value > alpha


class BudgetedSequentialTest:
    """Mutable decision state of one budgeted sequential permutation test.

    :func:`run_permutation_blocks` feeds exceedance outcomes through
    :meth:`update` one permutation at a time; the object owns the
    early-exit decision *and* the extension decision:

    * while ``done < target`` the sequential verdict applies whenever
      ``early_exit`` is set, or unconditionally once the test is past its
      base budget (an extension phase);
    * when the target is exhausted undecided, the budget extends iff the
      Clopper–Pearson interval on the exceedance probability still
      contains ``alpha`` and the cap allows it — otherwise the run ends
      and the caller derives the verdict from the p-value over all draws.

    A test that never extends therefore behaves exactly like the
    fixed-budget sequential test: flips relative to a fixed run can only
    come from extensions, and extensions only happen when the fixed
    verdict was statistically uncertain at confidence ``CP_CONFIDENCE``.
    """

    __slots__ = ("base", "alpha", "budget", "cap", "target", "exceed",
                 "done", "extensions")

    def __init__(self, n_permutations: int, alpha: float,
                 budget: Optional[PermutationBudget] = None):
        self.base = n_permutations
        self.alpha = alpha
        self.budget = budget if budget is not None else PermutationBudget()
        self.cap = self.budget.cap(n_permutations)
        self.target = n_permutations
        self.exceed = 0
        self.done = 0
        self.extensions = 0

    @property
    def want_more(self) -> bool:
        return self.done < self.target

    @property
    def remaining(self) -> int:
        return self.target - self.done

    def _straddles_alpha(self) -> bool:
        lower, upper = clopper_pearson_interval(self.exceed, self.done)
        return lower <= self.alpha <= upper

    def update(self, exceeded: bool) -> Optional[bool]:
        """Record one permutation; a non-``None`` return ends the test."""
        self.done += 1
        if exceeded:
            self.exceed += 1
        if self.done >= self.target:
            if self.target < self.cap and self._straddles_alpha():
                grown = int(math.ceil(self.target * self.budget.growth))
                self.target = min(self.cap, max(self.done + 1, grown))
                self.extensions += 1
            return None
        if self.budget.early_exit or self.done > self.base:
            return sequential_verdict(self.exceed, self.done, self.target,
                                      self.alpha)
        return None

    def outcome(self, verdict: Optional[bool],
                computed: int) -> PermutationOutcome:
        return PermutationOutcome(self.exceed, self.done, verdict, computed,
                                  self.extensions, self.target)


def report_outcome(counter_hook, outcome: PermutationOutcome,
                   n_permutations: int,
                   budget: PermutationBudget) -> None:
    """Emit the standard permutation counters for one finished test.

    ``perm_early_exit`` / ``perm_saved`` keep their historical meaning
    (sequential decision fired / permutations the base budget did not
    score); adaptive budgets add ``perm_budget_extended`` (tests that grew
    past the base) and ``perm_budget_saved`` (permutations saved relative
    to always paying the base budget — early exits under an adaptive
    policy).  Savings count ``computed`` (scored work including block
    look-ahead), not ``n_run``.

    Also tags the innermost open trace span (the per-test
    ``permutation_test`` span) with the outcome, so local and sharded
    tests report identically.
    """
    trace.annotate(
        permutations_run=outcome.n_run,
        permutations_computed=outcome.computed,
        early_exit=outcome.verdict is not None,
        budget_extensions=outcome.extensions,
        budget_target=outcome.target,
    )
    if counter_hook is None:
        return
    saved = n_permutations - outcome.computed
    if outcome.verdict is not None:
        counter_hook("perm_early_exit", 1)
        counter_hook("perm_saved", max(0, saved))
    if budget.adaptive:
        if outcome.extensions:
            counter_hook("perm_budget_extended", 1)
        if saved > 0:
            counter_hook("perm_budget_saved", saved)


# --------------------------------------------------------------------------- #
# the count kernel and the finaliser
# --------------------------------------------------------------------------- #
def block_partial_counts(plan: PermutationPlan, x: np.ndarray,
                         y: np.ndarray, z: np.ndarray,
                         n_x: int, n_y: int, n_z: int,
                         weights: Optional[np.ndarray],
                         rng: np.random.Generator, count: int,
                         rng_stream: str = RNG_STREAM_LEGACY,
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Contingency counts of ``count`` stratified permutations of ``x``.

    ``plan`` holds the strata of ``z``.  Returns ``(counts, tops)``:
    ``counts`` is a ``(count, n_z * n_y * n_x)`` matrix of (weighted)
    counts over each permutation's complete rows, and ``tops`` is a
    ``(count, 2)`` array of each permutation's largest ``x`` and ``y``
    code among its complete rows (``-1`` when it has none).

    With cardinalities that cover every code, counts add over any row
    partition and bounds merge by max, so a shard counts its own rows and
    the merge equals the whole table's counts (to float summation order
    when weighted).  A shard's strata are (shard × stratum), a finer
    stratification that is equally valid under the permutation null.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    cells = n_x * n_y * max(1, n_z)
    block = plan.permute_block(x, rng, count, rng_stream=rng_stream)
    valid = ((y >= 0) & (z >= 0))[None, :] & (block >= 0)
    masked_x = np.where(valid, block, -1)
    tops = np.stack([masked_x.max(axis=1, initial=-1),
                     np.where(valid, y, -1).max(axis=1, initial=-1)], axis=1)
    fused = (z * n_y + y)[None, :] * n_x + masked_x
    fused += np.arange(count, dtype=np.int64)[:, None] * cells
    flat_valid = valid.ravel()
    flat_fused = fused.ravel()[flat_valid]
    if weights is not None:
        flat_weights = np.broadcast_to(
            np.asarray(weights, dtype=np.float64),
            (count, len(x))).ravel()[flat_valid]
        counts = np.bincount(flat_fused, weights=flat_weights,
                             minlength=count * cells)
    else:
        counts = np.bincount(flat_fused,
                             minlength=count * cells).astype(np.float64)
    return counts.reshape(count, cells), tops


def null_cmis_from_counts(counts: np.ndarray, tops: Sequence,
                          n_x: int, n_y: int, n_z: int) -> np.ndarray:
    """Null CMIs of merged ``(count, cells)`` counts and ``(count, 2)`` bounds.

    Each tensor is trimmed to ``(n_z, y_top + 1, x_top + 1)`` before the
    entropy step: the shape :func:`repro.infotheory.kernel.contingency_cmi`
    gives the same complete rows, so both reduce the same array in the
    same order.  A tensor without complete rows scores 0.
    """
    from repro.infotheory.kernel import cmi_from_counts

    tensors = np.asarray(counts, dtype=np.float64).reshape(
        -1, max(1, n_z), n_y, n_x)
    cmis = np.zeros(len(tensors), dtype=np.float64)
    for index, (x_top, y_top) in enumerate(tops):
        if x_top >= 0 and y_top >= 0:
            cmis[index] = cmi_from_counts(np.ascontiguousarray(
                tensors[index, :, :y_top + 1, :x_top + 1]))
    return cmis


# --------------------------------------------------------------------------- #
# the driver loop
# --------------------------------------------------------------------------- #
def block_width(cells: int, n_rows: int) -> int:
    """The widest block of counted permutations the memory budgets allow."""
    return max(1, min(BLOCK_CELL_BUDGET // max(1, cells),
                      BLOCK_ROW_BUDGET // max(1, n_rows)))


def run_permutation_blocks(state: BudgetedSequentialTest, observed: float,
                           widest: int,
                           null_block: Callable[[int, int], Sequence[float]],
                           align: int = 1) -> PermutationOutcome:
    """The one permutation driver loop, local and row-sharded.

    ``null_block(start, count)`` scores permutations ``start`` to
    ``start + count - 1`` and returns their null statistics, which are fed
    through ``state`` one at a time.  A block is at most ``widest``
    permutations (and the cap), rounded down to a multiple of ``align``.
    Under early exit or an adaptive budget the width ramps geometrically
    from :data:`EARLY_EXIT_INITIAL_BLOCK`, and the ramp restarts whenever
    the budget extends: extension phases check the verdict after every
    draw, so the first-draw exit must not pay for a full-width block.
    Under an adaptive budget a request is rounded up to whole
    ``align``-sized chunks, never past the cap, so an extension resumes on
    a chunk boundary; look-ahead already scored when an extension fires is
    consumed, not re-drawn.  ``computed`` counts every statistic scored,
    look-ahead included, so with ``widest=1`` it equals ``n_run``.
    """
    budget = state.budget
    widest = max(1, min(state.cap, widest))
    widest = max(align, widest - widest % align)
    sequential = budget.early_exit or budget.adaptive
    ramp = EARLY_EXIT_INITIAL_BLOCK if sequential else widest
    extensions_seen = 0
    drawn = 0
    while state.want_more:
        if state.extensions != extensions_seen:
            extensions_seen = state.extensions
            ramp = EARLY_EXIT_INITIAL_BLOCK
        remaining = state.remaining
        if budget.adaptive:
            remaining = min(-(-remaining // align) * align,
                            state.cap - drawn)
        count = min(ramp, widest, remaining)
        ramp = min(ramp * 4, widest)
        null_values = null_block(drawn, count)
        drawn += count
        for value in null_values:
            if not state.want_more:
                break
            verdict = state.update(value >= observed)
            if verdict is not None:
                return state.outcome(verdict, drawn)
    return state.outcome(None, drawn)


def blocked_permutation_test(
        x: np.ndarray, y: np.ndarray, z: np.ndarray, n_z: int,
        weights: Optional[np.ndarray], observed: float,
        n_permutations: int, alpha: float, rng: np.random.Generator,
        budget: PermutationBudget) -> PermutationOutcome:
    """The local permutation phase: the one-shard case of the sharded test.

    Permutes ``x`` within the strata of ``z`` in blocks, counts each
    block over the whole frame with :func:`block_partial_counts`,
    finalises it with :func:`null_cmis_from_counts` and feeds the null
    CMIs through :func:`run_permutation_blocks`.  With the default budget
    (fixed, no early exit, legacy stream) the p-value equals a
    per-permutation loop of :func:`repro.infotheory.kernel.contingency_cmi`
    over the same RNG stream exactly.  Code spaces wider than the
    kernel's dense-cell limit score one permutation at a time with
    ``contingency_cmi`` (which compacts, or falls back to the reference
    estimator), drawing from the same stream.
    """
    from repro.infotheory import kernel

    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    plan = PermutationPlan(z)
    state = BudgetedSequentialTest(n_permutations, alpha, budget)
    n_x = kernel.code_cardinality(x)
    n_y = kernel.code_cardinality(y)
    cells = n_x * n_y * max(1, n_z)
    if cells > kernel.DENSE_CELL_LIMIT:
        def scalar_block(_start: int, count: int) -> List[float]:
            block = plan.permute_block(x, rng, count,
                                       rng_stream=budget.rng_stream)
            return [kernel.contingency_cmi(row, y, z, n_z=n_z,
                                           weights=weights)
                    for row in block]

        return run_permutation_blocks(state, observed, 1, scalar_block)

    def null_block(_start: int, count: int) -> np.ndarray:
        counts, tops = block_partial_counts(
            plan, x, y, z, n_x, n_y, n_z, weights, rng, count,
            rng_stream=budget.rng_stream)
        return null_cmis_from_counts(counts, tops, n_x, n_y, n_z)

    return run_permutation_blocks(state, observed,
                                  block_width(cells, len(x)), null_block)
