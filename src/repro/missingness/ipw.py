"""Inverse-probability weighting (IPW) for selection-biased attributes.

When the recoverability analysis flags an attribute ``E`` as selection
biased, the complete cases are re-weighted: each row with an observed value
receives weight ``W = P(R_E = 1) / P(R_E = 1 | X)`` where the selection
probability ``P(R_E = 1 | X)`` is predicted by a logistic regression fitted
on the *fully observed* attributes of the input dataset (Section 3.2).  The
weights then flow into the weighted entropy estimators of
:mod:`repro.infotheory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import MissingDataError
from repro.infotheory.encoding import EncodedFrame
from repro.missingness.logistic import LogisticRegression, one_hot_encode_codes


@dataclass(frozen=True)
class IPWWeights:
    """Per-row inverse-probability weights for one attribute.

    Attributes
    ----------
    attribute:
        The selection-biased attribute the weights correct for.
    weights:
        One non-negative weight per row of the table.  Rows whose value is
        missing keep weight 1 (they form their own "missing" stratum in the
        estimators); observed rows get ``P(R=1) / P(R=1 | X)``.
    selection_rate:
        The marginal probability ``P(R_E = 1)``.
    model_converged:
        Whether the logistic regression converged.
    """

    attribute: str
    weights: np.ndarray
    selection_rate: float
    model_converged: bool

    def effective_sample_size(self) -> float:
        """Kish effective sample size of the weights (observed rows only)."""
        observed = self.weights[self.weights > 0]
        if observed.size == 0:
            return 0.0
        return float(observed.sum() ** 2 / (observed ** 2).sum())


def compute_ipw_weights(frame: EncodedFrame, attribute: str,
                        predictor_columns: Sequence[str],
                        clip: float = 10.0,
                        l2: float = 1e-3) -> IPWWeights:
    """Compute IPW weights for ``attribute`` using the listed predictors.

    Parameters
    ----------
    frame:
        Encoded frame over the (augmented) table.
    attribute:
        The attribute whose missingness is being corrected.
    predictor_columns:
        Fully observed columns of the original dataset used as features of
        the selection model.  Columns that are themselves partially missing
        are tolerated (their missing rows form an implicit category).
    clip:
        Upper bound on the individual weights; extreme weights blow up the
        variance of the weighted estimators, so they are clipped as is
        standard practice in the IPW literature.
    l2:
        Ridge penalty passed to the logistic regression.
    """
    if clip <= 0:
        raise MissingDataError(f"clip must be positive, got {clip}")
    observed = frame.observed_mask(attribute)
    n_rows = frame.n_rows
    selection_rate = float(observed.mean()) if n_rows else 0.0
    weights = np.ones(n_rows, dtype=np.float64)
    if n_rows == 0 or selection_rate in (0.0, 1.0) or not predictor_columns:
        # Degenerate cases: nothing observed, everything observed, or no
        # predictors — the best estimate of P(R=1|X) is P(R=1), so every row
        # keeps weight 1.
        return IPWWeights(attribute=attribute, weights=weights,
                          selection_rate=selection_rate, model_converged=True)

    features = one_hot_encode_codes([frame.codes(column) for column in predictor_columns])
    model = LogisticRegression(l2=l2)
    model.fit(features, observed.astype(np.float64))
    predicted = np.clip(model.predict_proba(features), 1e-3, 1.0)
    raw = np.clip(selection_rate / predicted, 0.0, clip)
    weights[observed] = raw[observed]
    return IPWWeights(attribute=attribute, weights=weights,
                      selection_rate=selection_rate, model_converged=model.converged_)
