"""Binary logistic regression, implemented from scratch with numpy.

The IPW correction fits a logistic model of the selection indicator
``R_E`` (is the extracted value present for this row?) on the fully observed
attributes of the input dataset (Section 3.2: "a logistic regression model is
fitted ... Data available for this are the values of the attributes in D").
No external ML library is available offline, so the model is implemented
here with L2-regularised Newton/IRLS optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.exceptions import MissingDataError


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


@dataclass
class LogisticRegression:
    """L2-regularised binary logistic regression fitted with IRLS.

    Parameters
    ----------
    l2:
        Ridge penalty on the weights (not on the intercept); a small penalty
        keeps the Newton updates stable when features are collinear, which
        happens routinely with one-hot encoded categorical attributes.
    max_iter:
        Maximum number of Newton iterations.
    tol:
        Convergence tolerance on the change of the coefficient vector.
    """

    l2: float = 1e-3
    max_iter: int = 50
    tol: float = 1e-8
    coefficients_: Optional[np.ndarray] = field(default=None, repr=False)
    intercept_: float = 0.0
    converged_: bool = False
    n_iterations_: int = 0

    def fit(self, features: np.ndarray, labels: np.ndarray,
            row_groups: Optional[np.ndarray] = None) -> "LogisticRegression":
        """Fit the model on a dense feature matrix and 0/1 labels.

        ``row_groups`` optionally maps each row to the id (``0..k-1``) of
        its distinct feature combination.  One-hot designs over a handful
        of categorical predictors have far fewer distinct rows than rows;
        collapsing duplicates into binomial groups (``t_i`` trials,
        ``s_i`` successes per distinct row) yields the identical gradient
        and Hessian at every beta, so Newton follows the same trajectory
        at a fraction of the per-iteration cost.  The IPW layer fits one
        selection model per biased attribute over the *same* features, so
        the caller computes the grouping once and reuses it for every fit.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2:
            raise MissingDataError(f"features must be 2-dimensional, got shape {features.shape}")
        if len(features) != len(labels):
            raise MissingDataError(
                f"features ({len(features)} rows) and labels ({len(labels)}) differ in length"
            )
        if not np.isin(labels, (0.0, 1.0)).all():
            raise MissingDataError("labels must be binary (0/1)")
        n_rows, n_features = features.shape
        design = np.hstack([np.ones((n_rows, 1)), features])
        beta = np.zeros(n_features + 1)
        penalty = np.full(n_features + 1, self.l2)
        penalty[0] = 0.0  # do not penalise the intercept

        # Degenerate labels (all 0 or all 1) have no unique MLE; fall back to
        # the intercept-only model at the empirical rate.
        if labels.min() == labels.max():
            rate = float(np.clip(labels.mean(), 1e-6, 1 - 1e-6))
            beta[0] = np.log(rate / (1 - rate))
            self._store(beta, converged=True, iterations=0)
            return self

        totals = np.ones(n_rows)
        successes = labels
        if row_groups is not None:
            row_groups = np.asarray(row_groups, dtype=np.int64)
            if len(row_groups) != n_rows:
                raise MissingDataError(
                    f"row_groups ({len(row_groups)} rows) and features "
                    f"({n_rows}) differ in length")
            n_groups = int(row_groups.max()) + 1 if n_rows else 0
            if 0 < n_groups <= n_rows // 2:
                # First-occurrence representative of each group (O(n)).
                representatives = np.zeros(n_groups, dtype=np.int64)
                representatives[row_groups[::-1]] = np.arange(n_rows - 1, -1, -1)
                design = design[representatives]
                totals = np.bincount(row_groups, minlength=n_groups).astype(np.float64)
                successes = np.bincount(row_groups, weights=labels, minlength=n_groups)

        for iteration in range(1, self.max_iter + 1):
            linear = design @ beta
            probabilities = np.clip(_sigmoid(linear), 1e-9, 1 - 1e-9)
            weights = totals * probabilities * (1.0 - probabilities)
            gradient = design.T @ (successes - totals * probabilities) - penalty * beta
            hessian = (design * weights[:, None]).T @ design + np.diag(penalty + 1e-12)
            try:
                step = np.linalg.solve(hessian, gradient)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hessian, gradient, rcond=None)[0]
            beta = beta + step
            if np.max(np.abs(step)) < self.tol:
                self._store(beta, converged=True, iterations=iteration)
                return self
        self._store(beta, converged=False, iterations=self.max_iter)
        return self

    def _store(self, beta: np.ndarray, converged: bool, iterations: int) -> None:
        self.intercept_ = float(beta[0])
        self.coefficients_ = beta[1:].copy()
        self.converged_ = converged
        self.n_iterations_ = iterations

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row."""
        if self.coefficients_ is None:
            raise MissingDataError("LogisticRegression.predict_proba called before fit")
        features = np.asarray(features, dtype=np.float64)
        return _sigmoid(self.intercept_ + features @ self.coefficients_)

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)


def fit_logistic_multi(features: np.ndarray, labels_matrix: np.ndarray,
                       row_groups: Optional[np.ndarray] = None,
                       l2: float = 1e-3, max_iter: int = 50,
                       tol: float = 1e-8) -> List[LogisticRegression]:
    """Fit one logistic model per column of ``labels_matrix`` in one solve.

    The IPW layer fits a selection model per biased attribute over the
    *same* design matrix, so the Newton work is batched across all labels
    (:func:`drive_newton` over :func:`logistic_partials`).  Per label,
    every iteration computes exactly the quantities of
    :meth:`LogisticRegression.fit` (same grouping decision, same
    degenerate fallback, same convergence test on the step norm), so each
    model follows the same Newton trajectory as an individual fit up to
    floating-point summation order.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise MissingDataError(f"features must be 2-dimensional, got shape {features.shape}")
    labels_matrix = check_labels(labels_matrix)
    if len(features) != len(labels_matrix):
        raise MissingDataError(
            f"features ({len(features)} rows) and labels_matrix "
            f"({len(labels_matrix)}) differ in length")
    n_rows, n_features = features.shape
    n_labels = labels_matrix.shape[1]
    design = np.hstack([np.ones((n_rows, 1)), features])
    totals = np.ones(n_rows)
    successes = labels_matrix
    if row_groups is not None and _varying_labels(labels_matrix).any():
        row_groups = np.asarray(row_groups, dtype=np.int64)
        if len(row_groups) != n_rows:
            raise MissingDataError(
                f"row_groups ({len(row_groups)} rows) and features "
                f"({n_rows}) differ in length")
        n_groups = int(row_groups.max()) + 1
        if 0 < n_groups <= n_rows // 2:
            representatives = np.zeros(n_groups, dtype=np.int64)
            representatives[row_groups[::-1]] = np.arange(n_rows - 1, -1, -1)
            design = design[representatives]
            totals = np.bincount(row_groups, minlength=n_groups).astype(np.float64)
            successes = np.stack(
                [np.bincount(row_groups, weights=labels_matrix[:, label],
                             minlength=n_groups)
                 for label in range(n_labels)], axis=1)

    def step(beta: np.ndarray,
             active_idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return logistic_partials(design, successes[:, active_idx], beta,
                                 totals)

    return drive_newton(step, labels_matrix, n_features + 1,
                        l2=l2, max_iter=max_iter, tol=tol)


def check_labels(labels_matrix: np.ndarray) -> np.ndarray:
    """``labels_matrix`` as a float ``(n, L)`` matrix of 0/1 labels."""
    labels_matrix = np.asarray(labels_matrix, dtype=np.float64)
    if labels_matrix.ndim != 2:
        raise MissingDataError(
            f"labels_matrix must be 2-dimensional, got shape {labels_matrix.shape}")
    if not np.isin(labels_matrix, (0.0, 1.0)).all():
        raise MissingDataError("labels must be binary (0/1)")
    return labels_matrix


def _varying_labels(labels_matrix: np.ndarray) -> np.ndarray:
    """Per label: does it take both values (i.e. has a unique MLE)?"""
    if not len(labels_matrix):
        return np.zeros(labels_matrix.shape[1], dtype=bool)
    return labels_matrix.min(axis=0) != labels_matrix.max(axis=0)


def drive_newton(step: Callable[[np.ndarray, np.ndarray],
                                 Tuple[np.ndarray, np.ndarray]],
                 labels_matrix: np.ndarray, n_coefficients: int,
                 l2: float = 1e-3, max_iter: int = 50,
                 tol: float = 1e-8) -> List[LogisticRegression]:
    """The multi-label Newton loop over any source of partials.

    ``step(beta_active, active_idx)`` returns the unpenalised partials of
    the active labels (see :func:`logistic_partials`): over the local
    design in :func:`fit_logistic_multi`, or merged from per-shard
    partials by :meth:`repro.distributed.coordinator.ShardPool.
    fit_logistic_multi`.  ``labels_matrix`` is the full, checked label
    matrix: degenerate labels (all 0 or all 1) have no unique MLE and
    freeze at the intercept-only model of their empirical rate.  Each
    iteration adds the ridge penalty (never on the intercept), solves
    every active label's step in one batched solve (per label on a
    singular system) and retires the labels whose step norm fell below
    ``tol``.  ``n_coefficients`` counts the intercept.
    """
    n_labels = labels_matrix.shape[1]
    models = [LogisticRegression(l2=l2, max_iter=max_iter, tol=tol)
              for _ in range(n_labels)]
    penalty = np.full(n_coefficients, l2)
    penalty[0] = 0.0
    beta = np.zeros((n_coefficients, n_labels))
    varying = _varying_labels(labels_matrix)
    for label in np.flatnonzero(~varying):
        column = labels_matrix[:, label]
        rate = float(np.clip(column.mean() if len(column) else 0.5,
                             1e-6, 1 - 1e-6))
        beta[0, label] = np.log(rate / (1 - rate))
        models[label]._store(beta[:, label], converged=True, iterations=0)
    active_idx = np.flatnonzero(varying)

    for iteration in range(1, max_iter + 1):
        if not len(active_idx):
            break
        current = beta[:, active_idx]
        gradients, hessians = step(current, active_idx)
        gradients = gradients - penalty[:, None] * current
        hessians = hessians + np.diag(penalty + 1e-12)[None, :, :]
        try:
            steps = np.linalg.solve(hessians, gradients.T[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            steps = np.empty((len(active_idx), n_coefficients))
            for position in range(len(active_idx)):
                try:
                    steps[position] = np.linalg.solve(
                        hessians[position], gradients[:, position])
                except np.linalg.LinAlgError:
                    steps[position] = np.linalg.lstsq(
                        hessians[position], gradients[:, position], rcond=None)[0]
        beta[:, active_idx] = current + steps.T
        converged_now = np.abs(steps).max(axis=1) < tol
        for position in np.flatnonzero(converged_now):
            label = int(active_idx[position])
            models[label]._store(beta[:, label], converged=True,
                                 iterations=iteration)
        active_idx = active_idx[~converged_now]
    for label in active_idx:
        models[int(label)]._store(beta[:, int(label)], converged=False,
                                  iterations=max_iter)
    return models


def one_hot_encode_codes(code_arrays: List[np.ndarray],
                         cards: Optional[List[int]] = None) -> np.ndarray:
    """One-hot encode a list of integer code arrays into a dense feature matrix.

    Missing codes (``-1``) get an all-zero row for that variable, which acts
    as its own implicit "missing" category once the intercept absorbs the
    baseline.  Used to turn the fully observed dataset attributes into
    features for the selection model.

    ``cards`` optionally pins each variable's category count.  A row shard
    may never observe the top categories of a column, so encoding from the
    local maximum would misalign its design columns against the other
    shards; passing the *global* cardinalities gives every shard the same
    layout (extra categories only append all-zero columns, which the ridge
    penalty keeps harmless).
    """
    if not code_arrays:
        raise MissingDataError("one_hot_encode_codes requires at least one code array")
    if cards is not None and len(cards) != len(code_arrays):
        raise MissingDataError(
            f"cards ({len(cards)}) and code arrays ({len(code_arrays)}) "
            f"differ in length")
    n = len(code_arrays[0])
    blocks = []
    for position, codes in enumerate(code_arrays):
        codes = np.asarray(codes, dtype=np.int64)
        if len(codes) != n:
            raise MissingDataError("code arrays have different lengths")
        if cards is not None:
            n_categories = int(cards[position])
        else:
            n_categories = int(codes.max()) + 1 if n and codes.max() >= 0 else 0
        if n_categories == 0:
            continue
        block = np.zeros((n, n_categories), dtype=np.float64)
        present = codes >= 0
        block[np.arange(n)[present], codes[present]] = 1.0
        # Drop the first category as the reference level to limit collinearity.
        if n_categories > 1:
            block = block[:, 1:]
        blocks.append(block)
    if not blocks:
        return np.zeros((n, 0), dtype=np.float64)
    return np.hstack(blocks)


def logistic_partials(design: np.ndarray, successes: np.ndarray,
                      beta: np.ndarray, totals: np.ndarray,
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Unpenalised Newton partials of a multi-label logistic fit.

    ``design`` is an intercept-augmented design — the whole table's,
    binomially grouped, or one shard's row slice — with ``(n, A)``
    ``successes`` of the active labels, their ``(d, A)`` coefficients
    ``beta`` and ``(n,)`` trial ``totals`` (ones for ungrouped rows).
    Returns ``X^T (s - t p)`` and ``X^T diag(t p (1 - p)) X``, shaped
    ``(d, A)`` and ``(A, d, d)``.  Both are sums over rows, so the merged
    partials of any row partition equal the whole-table terms up to float
    summation order.
    """
    linear = design @ beta
    probabilities = np.clip(_sigmoid(linear), 1e-9, 1 - 1e-9)
    expected = totals[:, None] * probabilities
    weights = expected * (1.0 - probabilities)
    gradients = design.T @ (successes - expected)
    # Batched X^T diag(w_l) X via stacked GEMMs: (A, d, n) @ (A, n, d).
    weighted = design[None, :, :] * weights.T[:, :, None]
    hessians = np.matmul(
        np.broadcast_to(design.T, (beta.shape[1],) + design.T.shape),
        weighted)
    return gradients, hessians
