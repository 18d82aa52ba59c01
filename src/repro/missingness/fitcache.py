"""Cached, batched IPW selection-model fits — the fit half of the backend.

The IPW correction fits one logistic selection model per biased attribute
(Section 3.2).  Two structural facts make most of those fits redundant:

* attributes extracted from the same knowledge-graph property often share
  their missingness pattern, so their selection models — which depend only
  on the observed mask and the design matrix — are *identical*;
* every biased attribute of one query fits over the same design matrix
  (the fully observed predictor columns of the context frame), so the
  uncached fits can run as one multi-label IRLS solve
  (:func:`repro.missingness.logistic.fit_logistic_multi`) instead of one
  Newton loop per attribute.

:class:`SelectionFitCache` memoises finished fits under
``(design signature, observed-mask hash)`` — the full input of a selection
fit — and :func:`compute_ipw_weights_batched` drains a query's biased
attributes through the cache, batching every miss into a single solve.
The :class:`~repro.engine.context.PipelineContext` owns one cache per
dataset, so repeated contexts (the common serving shape) skip the fits
entirely; ``ipw_fit_hit`` / ``ipw_fit_miss`` counters surface via
``GET /stats``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.missingness.ipw import IPWWeights
from repro.missingness.logistic import fit_logistic_multi, one_hot_encode_codes
from repro.obs import trace


@dataclass(frozen=True)
class CachedSelectionFit:
    """The attribute-independent outcome of one selection-model fit."""

    weights: np.ndarray
    selection_rate: float
    model_converged: bool

    def as_ipw(self, attribute: str) -> IPWWeights:
        """Materialise the cached fit for a concrete attribute name."""
        return IPWWeights(attribute=attribute, weights=self.weights,
                          selection_rate=self.selection_rate,
                          model_converged=self.model_converged)


def observed_mask_key(mask: np.ndarray) -> bytes:
    """A compact digest of an observed-row mask (the fit's label vector)."""
    mask = np.asarray(mask, dtype=bool)
    digest = hashlib.sha1()
    digest.update(str(len(mask)).encode("ascii"))
    digest.update(np.packbits(mask).tobytes())
    return digest.digest()


def design_signature(predictor_columns: Sequence[str],
                     predictor_codes: Sequence[np.ndarray],
                     clip: float, l2: float) -> bytes:
    """A digest of everything besides the mask that determines a fit.

    The one-hot design matrix is a pure function of the predictor code
    arrays (hashing those avoids touching the ``n x d`` float matrix), and
    ``clip`` / ``l2`` change the resulting weights, so they key too.
    """
    digest = hashlib.sha1()
    digest.update(repr((tuple(predictor_columns), float(clip), float(l2)))
                  .encode("utf-8"))
    for codes in predictor_codes:
        codes = np.asarray(codes, dtype=np.int64)
        digest.update(str(len(codes)).encode("ascii"))
        digest.update(codes.tobytes())
    return digest.digest()


class SelectionFitCache:
    """A bounded LRU of finished selection fits (thread-safe).

    Entries are immutable (:class:`CachedSelectionFit` with a read-only
    weight array), so every query over the context can share them.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[bytes, bytes], CachedSelectionFit]" = \
            OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Tuple[bytes, bytes]) -> Optional[CachedSelectionFit]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Tuple[bytes, bytes], value: CachedSelectionFit) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def compute_ipw_weights_batched(frame, attributes: Sequence[str],
                                predictor_columns: Sequence[str],
                                clip: float = 10.0, l2: float = 1e-3,
                                design_factory=None,
                                cache: Optional[SelectionFitCache] = None,
                                counter_hook=None,
                                fitter=None) -> Dict[str, IPWWeights]:
    """IPW weights for several attributes: cache hits first, one solve for the rest.

    Semantics per attribute match
    :func:`repro.missingness.ipw.compute_ipw_weights` (degenerate selection
    rates keep unit weights, the same clipping applies); attributes whose
    observed mask and design coincide share a single fit, and all remaining
    distinct masks batch into one :func:`fit_logistic_multi` call.

    ``design_factory`` — a zero-argument callable returning
    ``(features, row_groups)`` — is invoked only when at least one fit
    actually has to run, so a fully cached batch (the warm serving shape)
    never pays for building the one-hot design matrix.

    ``counter_hook`` (``(name, increment)``) observes ``ipw_fit_hit`` — a
    cache hit *or* a same-mask sibling inside the batch — and
    ``ipw_fit_miss`` for every fit actually performed.

    ``fitter`` substitutes the multi-label solver — same signature and
    return type as :func:`fit_logistic_multi`.  The row-sharded data plane
    passes a distributed IRLS driver here; everything around the solve
    (caching, sibling sharing, weight clipping) is row-count-agnostic and
    stays on this side.
    """
    from repro.exceptions import MissingDataError

    if clip <= 0:
        raise MissingDataError(f"clip must be positive, got {clip}")

    tallies = {"ipw_fit_hit": 0, "ipw_fit_miss": 0}

    def count(name: str, increment: int = 1) -> None:
        if name in tallies:
            tallies[name] += increment
        if counter_hook is not None:
            counter_hook(name, increment)

    with trace.span("ipw.fit_batch", attributes=len(attributes)):
        try:
            return _ipw_weights_batched(
                frame, attributes, predictor_columns, clip, l2,
                design_factory, cache, count, fitter)
        finally:
            trace.annotate(fit_hits=tallies["ipw_fit_hit"],
                           fit_misses=tallies["ipw_fit_miss"])


def _ipw_weights_batched(frame, attributes: Sequence[str],
                         predictor_columns: Sequence[str],
                         clip: float, l2: float,
                         design_factory,
                         cache: Optional[SelectionFitCache],
                         count,
                         fitter) -> Dict[str, IPWWeights]:

    results: Dict[str, IPWWeights] = {}
    if not attributes:
        return results
    n_rows = frame.n_rows
    signature: Optional[bytes] = None
    pending: "OrderedDict[bytes, List[str]]" = OrderedDict()
    pending_masks: Dict[bytes, np.ndarray] = {}
    for attribute in attributes:
        observed = frame.observed_mask(attribute)
        selection_rate = float(observed.mean()) if n_rows else 0.0
        if n_rows == 0 or selection_rate in (0.0, 1.0) or not predictor_columns:
            # Degenerate cases mirror compute_ipw_weights: every row keeps
            # weight 1 and no model is fitted (or cached).
            results[attribute] = IPWWeights(
                attribute=attribute, weights=np.ones(n_rows, dtype=np.float64),
                selection_rate=selection_rate, model_converged=True)
            continue
        if signature is None:
            signature = design_signature(
                predictor_columns,
                [frame.codes(column) for column in predictor_columns],
                clip, l2)
        mask_key = observed_mask_key(observed)
        cached = cache.get((signature, mask_key)) if cache is not None else None
        if cached is not None:
            count("ipw_fit_hit")
            results[attribute] = cached.as_ipw(attribute)
            continue
        siblings = pending.get(mask_key)
        if siblings is not None:
            count("ipw_fit_hit")
            siblings.append(attribute)
        else:
            count("ipw_fit_miss")
            pending[mask_key] = [attribute]
            pending_masks[mask_key] = observed
    if not pending:
        return results
    if design_factory is not None:
        features, row_groups = design_factory()
    else:
        features, row_groups = one_hot_encode_codes(
            [frame.codes(column) for column in predictor_columns]), None
    mask_keys = list(pending)
    labels = np.stack(
        [pending_masks[mask_key].astype(np.float64) for mask_key in mask_keys],
        axis=1)
    solve = fitter if fitter is not None else fit_logistic_multi
    models = solve(features, labels, row_groups=row_groups, l2=l2)
    for mask_key, model in zip(mask_keys, models):
        observed = pending_masks[mask_key]
        selection_rate = float(observed.mean())
        predicted = np.clip(model.predict_proba(features), 1e-3, 1.0)
        raw = np.clip(selection_rate / predicted, 0.0, clip)
        weights = np.ones(n_rows, dtype=np.float64)
        weights[observed] = raw[observed]
        weights.setflags(write=False)
        entry = CachedSelectionFit(weights=weights, selection_rate=selection_rate,
                                   model_converged=model.converged_)
        if cache is not None:
            cache.put((signature, mask_key), entry)
        for attribute in pending[mask_key]:
            results[attribute] = entry.as_ipw(attribute)
    return results
