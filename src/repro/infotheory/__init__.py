"""Discrete information-theoretic estimators.

The paper measures partial correlation with conditional mutual information
(CMI) estimated from data by the Pyitlib library; this package provides the
same plug-in estimators from scratch, extended with per-row weights so that
the inverse-probability-weighting correction of Section 3.2 can be applied
directly inside the estimators.

All estimators operate on integer *code* arrays (one code per row, ``-1``
denoting a missing value) produced by :mod:`repro.infotheory.encoding`.
Rows with a missing value in any involved variable are excluded
(complete-case analysis), optionally re-weighted via the ``weights``
argument.

Two implementations coexist: the contingency-count kernel in
:mod:`~repro.infotheory.kernel` (one weighted ``bincount`` per term over
incrementally fused codes), on which every estimate of the explanation
oracle runs, and the reference estimators in
:mod:`~repro.infotheory.entropy` / :mod:`~repro.infotheory.mutual_information`
(one masked entropy call per term), which the tests use as oracles and the
kernel falls back to on very wide code spaces.  The property tests assert
both agree to 1e-9 on every estimate.

Permutation tests live in :mod:`~repro.infotheory.permutation`: one count
kernel, one finaliser and one driver loop, shared by the local test and
the row-sharded one.
"""

from repro.infotheory.encoding import (
    EncodedFrame,
    encode_column,
    encode_table,
    joint_codes,
)
from repro.infotheory.entropy import (
    conditional_entropy,
    entropy,
    joint_entropy,
)
from repro.infotheory.mutual_information import (
    conditional_mutual_information,
    interaction_information,
    mutual_information,
)
from repro.infotheory.independence import (
    IndependenceResult,
    conditional_independence_test,
)
from repro.infotheory.kernel import (
    contingency_cmi,
    contingency_conditional_entropy,
    contingency_entropy,
    contingency_mi,
    fast_independence_test,
    fuse_codes,
)
from repro.infotheory.permutation import (
    PermutationBudget,
    PermutationOutcome,
    PermutationPlan,
    blocked_permutation_test,
)

__all__ = [
    "EncodedFrame",
    "encode_column",
    "encode_table",
    "joint_codes",
    "conditional_entropy",
    "entropy",
    "joint_entropy",
    "conditional_mutual_information",
    "interaction_information",
    "mutual_information",
    "IndependenceResult",
    "conditional_independence_test",
    "contingency_cmi",
    "contingency_conditional_entropy",
    "contingency_entropy",
    "contingency_mi",
    "fast_independence_test",
    "fuse_codes",
    "PermutationBudget",
    "PermutationOutcome",
    "PermutationPlan",
    "blocked_permutation_test",
]
