"""Counts sources: where a problem's estimates get their contingency counts.

Every estimate a :class:`~repro.core.problem.CorrelationExplanationProblem`
makes reduces to entropies of weighted contingency counts over fused codes
of the encoded frame.  A *counts source* answers those estimator questions
for one problem:

* ``cmi`` — one CMI term ``I(X;Y|Z)`` over missing-as-category
  conditioning codes, and ``score`` — a batch of candidate terms sharing
  one conditioning set;
* ``pairwise_mi`` and ``conditional_entropy`` (an entropy is the
  conditional entropy given the empty set);
* ``test`` — the observed CMI of an independence test over plain codes,
  plus a closure running its permutation phase;
* ``fitter`` — the multi-label IRLS solver of the IPW selection fits.

:class:`LocalCounts` (the default) counts over this process's frame;
:class:`repro.distributed.counts.ShardCounts` scatters the same questions
over a row-sharded pool.  The problem keeps everything else — memo caches,
test shortcuts, instrumentation and derived problems — so both sources
share one control plane.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.infotheory import kernel
from repro.infotheory.encoding import EncodedFrame

#: Bound on the cached fused conditioning-code arrays (LRU) of one source;
#: each entry costs ``8 * n_rows`` bytes.
MAX_JOINT_CACHE = 128


class LocalCounts:
    """The counts source over this process's encoded frame.

    Conditioning sets are fused incrementally and cached, in two caches:
    the CMI oracle encodes conditioning attributes with missing-as-category
    while the independence tests use the plain codes.  The two never share
    entries, so a test and a scoring round may run on different threads.
    """

    def __init__(self, frame: EncodedFrame,
                 attribute_weights: Dict[str, np.ndarray]):
        self.frame = frame
        self.attribute_weights = attribute_weights
        self._joint_cache: "OrderedDict[Tuple[str, ...], Tuple[np.ndarray, int]]" = \
            OrderedDict()
        self._plain_joint_cache: "OrderedDict[Tuple[str, ...], Tuple[np.ndarray, int]]" = \
            OrderedDict()

    def weights_for(self, attributes: Sequence[str]) -> Optional[np.ndarray]:
        """Combined IPW weights for a set of attributes.

        The paper applies weights per selection-biased attribute; when a
        conditioning set contains several such attributes their weights are
        multiplied (a row must be re-weighted for every biased attribute it
        contributes to).  ``None`` means no re-weighting is needed.
        """
        combined: Optional[np.ndarray] = None
        for attribute in attributes:
            weights = self.attribute_weights.get(attribute)
            if weights is None:
                continue
            combined = weights.copy() if combined is None else combined * weights
        return combined

    def _extended(self, base: Tuple[np.ndarray, int], attribute: str,
                  plain: bool) -> Tuple[np.ndarray, int]:
        """``base`` fused with one more attribute (compacted when wide)."""
        extra = self.frame.codes(attribute, missing_as_category=not plain)
        fused, card = kernel.fuse_codes(
            base[0], base[1], extra, kernel.code_cardinality(extra))
        return kernel.maybe_compact(fused, card)

    def _joint_for(self, key: Tuple[str, ...], plain: bool = False,
                   ) -> Tuple[np.ndarray, int]:
        """Fused codes + cardinality of a conditioning set (cached, LRU).

        Extending a cached set ``Z`` to ``Z ∪ {a}`` is one ``O(n)`` fuse
        against the cached codes instead of a re-factorisation from
        scratch: the method looks for a cached subset one attribute short,
        falling back to a recursive build over the prefix (which leaves
        every prefix cached for the next caller).

        With ``plain=True`` (the independence-test representation) the
        fuse happens strictly left to right in the caller's attribute
        order: permutation tests stratify on these codes, and sorted
        place-value codes must reproduce the reference ``joint_codes``
        label order — lexicographic in *caller* order — for the RNG to be
        consumed identically.  The missing-as-category cache only feeds
        order-invariant scalar estimates, so it may extend any cached
        subset regardless of order.
        """
        if not key:
            return np.zeros(self.frame.n_rows, dtype=np.int64), 1
        cache = self._plain_joint_cache if plain else self._joint_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        if len(key) == 1:
            codes = self.frame.codes(key[0], missing_as_category=not plain)
            entry = (codes, kernel.code_cardinality(codes))
        else:
            entry = None
            if not plain:
                for dropped in key:
                    shorter = tuple(name for name in key if name != dropped)
                    base = cache.get(shorter)
                    if base is not None:
                        entry = self._extended(base, dropped, plain)
                        break
            if entry is None:
                entry = self._extended(self._joint_for(key[:-1], plain=plain),
                                       key[-1], plain)
        cache[key] = entry
        while len(cache) > MAX_JOINT_CACHE:
            cache.popitem(last=False)
        return entry

    def cmi(self, x: str, y: str, given: Tuple[str, ...]) -> float:
        """``I(x; y | given)``, weighted by the conditioning attributes."""
        fused, card = self._joint_for(given)
        return kernel.contingency_cmi(
            self.frame.codes(x), self.frame.codes(y), fused, n_z=card,
            weights=self.weights_for(given))

    def score(self, x: str, y: str, given: Tuple[str, ...],
              extras: Sequence[str]) -> List[float]:
        """``I(x; y | given ∪ {e})`` for every ``e`` in ``extras``.

        The fused codes of ``given`` are built once; each candidate costs
        a single ``O(n)`` fuse plus one ``bincount``.
        """
        base = self._joint_for(given)
        x_codes = self.frame.codes(x)
        y_codes = self.frame.codes(y)
        values = []
        for attribute in extras:
            fused, card = self._extended(base, attribute, plain=False)
            key = tuple(sorted(set(given) | {attribute}))
            values.append(kernel.contingency_cmi(
                x_codes, y_codes, fused, n_z=card,
                weights=self.weights_for(key)))
        return values

    def pairwise_mi(self, a: str, b: str) -> float:
        """``I(a; b)`` over missing-as-category codes."""
        return kernel.contingency_mi(
            self.frame.codes(a, missing_as_category=True),
            self.frame.codes(b, missing_as_category=True),
            weights=self.weights_for([a, b]))

    def conditional_entropy(self, target: str, given: Tuple[str, ...]) -> float:
        """``H(target | given)`` over plain codes (unweighted)."""
        fused, card = self._joint_for(given, plain=True) if given \
            else (None, None)
        return kernel.contingency_conditional_entropy(
            self.frame.codes(target), fused, n_given=card)

    def test(self, a: str, b: str, conditioning: Tuple[str, ...],
             n_permutations: int, alpha: float, seed: Optional[int]):
        """Observed ``I(a; b | conditioning)`` and its permutation phase.

        The conditioning set is fused in *caller* order: the permutation
        strata then sort the same way the reference ``joint_codes`` labels
        do, so the RNG is consumed stratum-for-stratum identically.
        Returns ``(observed, permute)`` from
        :func:`repro.infotheory.kernel.local_test`.
        """
        z, n_z = self._joint_for(conditioning, plain=True)
        return kernel.local_test(
            self.frame.codes(a), self.frame.codes(b), z, n_z,
            self.weights_for([a, b, *conditioning]), n_permutations, alpha,
            seed)

    def fitter(self, predictor_columns: Sequence[str]):
        """The IPW selection-fit solver: the local multi-label IRLS."""
        from repro.missingness.logistic import fit_logistic_multi

        return fit_logistic_multi
