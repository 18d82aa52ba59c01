"""The counts source of a problem whose estimates run on a shard pool.

:class:`ShardCounts` answers the estimator questions of
:mod:`repro.core.counts` through a
:class:`~repro.distributed.coordinator.ShardPool`: the coordinator sends
fuse *recipes* (not data), workers return partial count tensors of their
row ranges, and the entropy step runs here on the merged totals.  The
problem keeps its control plane — the encoded frame, the memo caches, the
test shortcuts, the search-facing API — whichever source it counts with.

Exactness.  Unweighted estimates are *identical* to the single-process
kernel: integer partial counts merge exactly, and using global (unmasked)
cardinalities only pads the count tensors with empty cells, which the
entropy step ignores.  IPW-weighted estimates agree to float summation
order (the property tests assert 1e-9).  Permutation tests stratify
within (shard × stratum) with deterministic per-shard RNG streams — a
different (equally valid) draw from the same null than the single-process
stream, so p-values differ while the engine-consumed boolean verdicts
agree except on knife-edge cases.

Hybrid by design: terms whose count tensors would exceed the dense-cell
budget fall back to a coordinator-local
:class:`~repro.core.counts.LocalCounts` (the frame holds every column
anyway — the pool exists to keep *worker* memory ``O(rows / N)``), and
the problem's ``restricted_to`` (the subgroup search, which re-estimates
over arbitrary row masks) always counts locally.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.counts import MAX_JOINT_CACHE, LocalCounts
from repro.distributed.coordinator import ShardContext, ShardPool
from repro.exceptions import ReproError
from repro.infotheory import kernel, permutation


class ShardCounts:
    """The scatter-gather counts source of one problem.

    Built as ``functools.partial(ShardCounts, pool, shard_ctx,
    counter_hook=...)`` and handed to the problem as its ``counts``
    factory: ``pool`` is a started :class:`ShardPool`, ``shard_ctx`` the
    pool's context handle for the problem's context frame, and
    ``counter_hook`` observes ``shard_local_fallback`` /
    ``shard_irls_fit`` / ``shard_irls_fallback``.
    """

    def __init__(self, pool: ShardPool, shard_ctx: ShardContext, frame,
                 attribute_weights: Dict[str, np.ndarray],
                 counter_hook=None):
        self.pool = pool
        self.shard_ctx = shard_ctx
        self.frame = frame
        self.attribute_weights = attribute_weights
        self.counter_hook = counter_hook
        #: The dense-cell fallback, counting over the coordinator's frame.
        self.local = LocalCounts(frame, attribute_weights)
        #: Recipe caches mirroring the local fused-code caches — (steps,
        #: cardinality) per conditioning tuple.  Entries are tiny (the
        #: codes live in the workers), but bounded all the same.
        self._steps_cache: "OrderedDict[Tuple[str, ...], Tuple[Tuple, int]]" = \
            OrderedDict()
        self._plain_steps_cache: "OrderedDict[Tuple[str, ...], Tuple[Tuple, int]]" = \
            OrderedDict()
        self._weight_keys_by_attr: Dict[str, str] = {
            attribute: "w:" + attribute + ":" + hashlib.sha1(
                np.ascontiguousarray(weights,
                                     dtype=np.float64).tobytes()
            ).hexdigest()[:10]
            for attribute, weights in attribute_weights.items()}

    # ------------------------------------------------------------------ #
    # column provider (the pool slices these per shard)
    # ------------------------------------------------------------------ #
    def _provider(self, key: str) -> np.ndarray:
        if key.startswith("p:"):
            return self.frame.codes(key[2:])
        if key.startswith("m:"):
            return self.frame.codes(key[2:], missing_as_category=True)
        if key.startswith("w:"):
            attribute = key[2:].rsplit(":", 1)[0]
            return np.asarray(self.attribute_weights[attribute],
                              dtype=np.float64)
        raise ReproError(f"unknown shard column key {key!r}")

    def _weight_keys(self, attributes: Sequence[str]) -> Optional[List[str]]:
        """Worker-side weight columns in ``weights_for`` product order.

        Weight vectors vary per query (they depend on the IPW predictor
        set), so the key embeds a content digest — a context's workers may
        hold several vectors for one attribute without collisions.
        """
        keys = [self._weight_keys_by_attr[attribute]
                for attribute in attributes
                if attribute in self._weight_keys_by_attr]
        return keys or None

    def _card_of(self, attribute: str, plain: bool) -> int:
        return kernel.code_cardinality(
            self.frame.codes(attribute, missing_as_category=not plain))

    def _count(self, name: str) -> None:
        if self.counter_hook is not None:
            self.counter_hook(name, 1)

    def _too_dense(self, cells: int) -> bool:
        """Whether a count tensor must take the local fallback (counted)."""
        if cells > kernel.DENSE_CELL_LIMIT:
            self._count("shard_local_fallback")
            return True
        return False

    def _counts(self, jobs: List[Dict]) -> List[np.ndarray]:
        return self.pool.counts(self.shard_ctx, jobs, self._provider)

    # ------------------------------------------------------------------ #
    # fuse recipes (the distributed counterpart of LocalCounts._joint_for)
    # ------------------------------------------------------------------ #
    def _extended(self, steps: Tuple, card: int, attribute: str,
                  plain: bool) -> Tuple[Tuple, int]:
        """A recipe extended by one attribute (compacted when wide).

        Same threshold as :func:`repro.infotheory.kernel.maybe_compact`,
        but compaction is *global* (:meth:`ShardPool.compact`), so every
        shard relabels identically.  Compaction is value-preserving
        (sorted relabelling keeps partition and label order), so a
        decision mismatch against the single-process path could only
        change performance, never a value.
        """
        prefix = "p:" if plain else "m:"
        extra_card = self._card_of(attribute, plain)
        if steps:
            steps = steps + (("fuse", prefix + attribute, extra_card),)
            card *= extra_card
        else:
            steps, card = (("col", prefix + attribute),), extra_card
        if card > max(1024, 2 * self.frame.n_rows):
            token, card = self.pool.compact(self.shard_ctx, steps,
                                            self._provider)
            steps = steps + (("relabel", token),)
        return steps, card

    def _steps_for(self, key: Tuple[str, ...],
                   plain: bool = False) -> Tuple[Tuple, int]:
        """Fuse recipe + cardinality of a conditioning set (cached).

        Mirrors the local ``_joint_for``: left-to-right fuses with the
        same compaction threshold.
        """
        if not key:
            return (), 1
        cache = self._plain_steps_cache if plain else self._steps_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        if len(key) == 1:
            prefix = "p:" if plain else "m:"
            entry: Tuple[Tuple, int] = (
                (("col", prefix + key[0]),), self._card_of(key[0], plain))
        else:
            entry = self._extended(*self._steps_for(key[:-1], plain=plain),
                                   key[-1], plain)
        cache[key] = entry
        while len(cache) > MAX_JOINT_CACHE:
            cache.popitem(last=False)
        return entry

    def _cmi_job(self, x: str, y: str, z_steps, n_z: int,
                 weighted: Sequence[str], plain: bool = True) -> Dict:
        prefix = "p:" if plain else "m:"
        return {"kind": "cmi",
                "x": (("col", prefix + x),), "y": (("col", prefix + y),),
                "z": z_steps or None,
                "n_x": self._card_of(x, plain), "n_y": self._card_of(y, plain),
                "n_z": n_z, "weights": self._weight_keys(weighted)}

    def _cmi_too_dense(self, job: Dict) -> bool:
        return self._too_dense(job["n_x"] * job["n_y"] * job["n_z"])

    def _gather_cmis(self, jobs: List[Dict]) -> List[float]:
        """The CMI of every job, from one batched ``ShardPool.counts`` call."""
        return [kernel.cmi_from_counts(
                    counts.reshape(job["n_z"], job["n_y"], job["n_x"]))
                for job, counts in zip(jobs, self._counts(jobs))]

    # ------------------------------------------------------------------ #
    # estimator questions (scatter-gather)
    # ------------------------------------------------------------------ #
    def cmi(self, x: str, y: str, given: Tuple[str, ...]) -> float:
        job = self._cmi_job(x, y, *self._steps_for(given), given)
        if self._cmi_too_dense(job):
            return self.local.cmi(x, y, given)
        return self._gather_cmis([job])[0]

    def score(self, x: str, y: str, given: Tuple[str, ...],
              extras: Sequence[str]) -> List[float]:
        """One batched ``ShardPool.counts`` call for every candidate term."""
        base = self._steps_for(given)
        xy_job = self._cmi_job(x, y, None, 1, ())
        values: List[Optional[float]] = []
        pending: Dict[int, Dict] = {}
        for attribute in extras:
            key = tuple(sorted(set(given) | {attribute}))
            steps, card = self._extended(*base, attribute, plain=False)
            job = dict(xy_job, z=steps or None, n_z=card,
                       weights=self._weight_keys(key))
            if self._cmi_too_dense(job):
                values.append(self.local.cmi(x, y, key))
            else:
                pending[len(values)] = job
                values.append(None)
        if pending:
            gathered = self._gather_cmis(list(pending.values()))
            for position, value in zip(pending, gathered):
                values[position] = value
        return values

    def pairwise_mi(self, a: str, b: str) -> float:
        job = self._cmi_job(a, b, (), 1, [a, b], plain=False)
        if self._cmi_too_dense(job):
            return self.local.pairwise_mi(a, b)
        return self._gather_cmis([job])[0]

    def conditional_entropy(self, target: str, given: Tuple[str, ...]) -> float:
        steps, card = self._steps_for(given, plain=True)
        n_target = self._card_of(target, plain=True)
        if self._too_dense(n_target * card):
            return self.local.conditional_entropy(target, given)
        job = {"kind": "joint",
               "target": (("col", "p:" + target),),
               "given": steps or None,
               "n_target": n_target, "n_given": card, "weights": None}
        counts = self._counts([job])[0]
        return kernel.conditional_entropy_from_counts(
            counts.reshape(card, n_target))

    def test(self, a: str, b: str, conditioning: Tuple[str, ...],
             n_permutations: int, alpha: float, seed: Optional[int]):
        """Observed CMI from merged counts; permutations as pool rounds.

        The conditioning set is fused in *caller* order, like the local
        plain path: the shard strata refine these codes, and keeping the
        recipe identical lets sharded and local tests share compaction
        decisions.  The observed CMI goes through the permutation tests'
        finaliser, trimmed to the largest ``a`` and ``b`` codes among the
        complete rows, so observed and null values share one arithmetic.
        """
        job = self._cmi_job(a, b, *self._steps_for(conditioning, plain=True),
                            [a, b, *conditioning])
        if self._cmi_too_dense(job):
            return self.local.test(a, b, conditioning, n_permutations, alpha,
                                   seed)
        x, y = self.frame.codes(a), self.frame.codes(b)
        complete = (x >= 0) & (y >= 0)
        for attribute in conditioning:
            complete &= self.frame.codes(attribute) >= 0
        tops = [(x[complete].max(initial=-1), y[complete].max(initial=-1))]
        observed = float(permutation.null_cmis_from_counts(
            self._counts([job])[0], tops,
            job["n_x"], job["n_y"], job["n_z"])[0])

        def permute(budget):
            return self.pool.permutation_rounds(
                self.shard_ctx, x=job["x"], y=job["y"], z=job["z"],
                n_x=job["n_x"], n_y=job["n_y"], n_z=job["n_z"],
                weights=job["weights"], observed=observed,
                n_permutations=n_permutations, alpha=alpha, seed=seed,
                budget=budget, provider=self._provider)

        return observed, permute

    # ------------------------------------------------------------------ #
    # distributed IRLS (the IPW selection fits)
    # ------------------------------------------------------------------ #
    def fitter(self, predictor_columns: Sequence[str]):
        """A ``fit_logistic_multi``-shaped solver running on the pool.

        Falls back to the local solver when a shard dies mid-fit (the
        caller already holds the full design for prediction, so the
        fallback costs one local fit, not a re-ship).
        """
        # Global cards with the *encoder's* local-maximum semantics (0 for
        # an all-missing column, not code_cardinality's floor of 1), so the
        # shard designs lay out column-for-column like build_design's.
        cards = []
        for column in predictor_columns:
            codes = self.frame.codes(column)
            cards.append(int(codes.max()) + 1
                         if len(codes) and codes.max() >= 0 else 0)
        keys = ["p:" + column for column in predictor_columns]

        def fit(features, labels_matrix, row_groups=None, l2=1e-3,
                max_iter=50, tol=1e-8):
            try:
                models = self.pool.fit_logistic_multi(
                    self.shard_ctx, keys, cards, labels_matrix,
                    l2=l2, max_iter=max_iter, tol=tol,
                    provider=self._provider)
                self._count("shard_irls_fit")
                return models
            except ReproError:
                self._count("shard_irls_fallback")
                from repro.missingness.logistic import fit_logistic_multi
                return fit_logistic_multi(features, labels_matrix,
                                          row_groups=row_groups, l2=l2,
                                          max_iter=max_iter, tol=tol)

        return fit
