"""Shared fixtures: small tables, a small knowledge graph and dataset bundles.

Everything is session-scoped and deliberately small so the whole suite runs
in well under a minute; the benchmarks (not the tests) are where the larger
configurations live.  ``looped_independence_test`` is the per-permutation
oracle the blocked permutation engine is checked against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.infotheory.independence import (
    DEFAULT_CMI_THRESHOLD,
    IndependenceResult,
    _permute_within_strata,
)
from repro.infotheory.kernel import code_cardinality, contingency_cmi
from repro.infotheory.permutation import BudgetedSequentialTest
from repro.kg.synthetic import SyntheticKGConfig, build_world_knowledge_graph
from repro.query.aggregate_query import AggregateQuery
from repro.table.expressions import Eq
from repro.table.table import Table
from repro.utils.rng import make_rng

SMALL_KG_CONFIG = SyntheticKGConfig(seed=3, n_noise_properties=6, missing_rate=0.10)


def looped_independence_test(x, y, z, weights=None, n_permutations=30,
                             alpha=0.05, seed=0, budget=None,
                             threshold=DEFAULT_CMI_THRESHOLD
                             ) -> IndependenceResult:
    """One ``_permute_within_strata`` draw and one ``contingency_cmi`` per
    permutation, decided by :class:`BudgetedSequentialTest`.

    The strata are the codes of ``z`` themselves; the blocked engine must
    consume the RNG the same way and reach the same counts.
    """
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    n_z = code_cardinality(z)
    observed = contingency_cmi(x, y, z, n_z=n_z, weights=weights)
    if observed <= threshold:
        return IndependenceResult(independent=True, cmi=observed,
                                  p_value=1.0, n_permutations=0)
    rng = make_rng(seed)
    state = BudgetedSequentialTest(n_permutations, alpha, budget)
    verdict = None
    while state.want_more:
        permuted = _permute_within_strata(x, z, rng)
        verdict = state.update(contingency_cmi(
            permuted, y, z, n_z=n_z, weights=weights) >= observed)
        if verdict is not None:
            break
    outcome = state.outcome(verdict, state.done)
    return IndependenceResult(independent=outcome.independent(alpha),
                              cmi=observed, p_value=outcome.p_value,
                              n_permutations=outcome.n_run,
                              early_exit=outcome.verdict is not None,
                              budget_extensions=outcome.extensions)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running end-to-end scenarios (kill-and-resume recovery)")


@pytest.fixture(scope="session")
def small_kg():
    """A small synthetic knowledge graph shared across tests."""
    return build_world_knowledge_graph(SMALL_KG_CONFIG)


@pytest.fixture(scope="session")
def so_bundle(small_kg):
    """A small Stack Overflow bundle (600 rows) sharing the session KG."""
    return load_dataset("SO", seed=5, n_rows=600, knowledge_graph=small_kg)


@pytest.fixture(scope="session")
def covid_bundle(small_kg):
    """The Covid-19 bundle sharing the session KG."""
    return load_dataset("Covid-19", seed=5, knowledge_graph=small_kg)


@pytest.fixture(scope="session")
def forbes_bundle(small_kg):
    """The Forbes bundle sharing the session KG."""
    return load_dataset("Forbes", seed=5, knowledge_graph=small_kg)


@pytest.fixture()
def people_table() -> Table:
    """A tiny hand-written table used by the table-engine unit tests."""
    return Table.from_columns({
        "Name": ["Ann", "Bob", "Cat", "Dan", "Eve", "Fay"],
        "Country": ["US", "US", "DE", "DE", "FR", None],
        "Continent": ["NA", "NA", "EU", "EU", "EU", "EU"],
        "Age": [34, 28, 45, None, 39, 31],
        "Salary": [120.0, 95.0, 70.0, 64.0, 55.0, 58.0],
    }, name="people")


@pytest.fixture()
def salary_query() -> AggregateQuery:
    """avg(Salary) by Country over the people table."""
    return AggregateQuery(exposure="Country", outcome="Salary", aggregate="avg",
                          table_name="people")


@pytest.fixture()
def salary_query_europe() -> AggregateQuery:
    """avg(Salary) by Country restricted to Europe."""
    return AggregateQuery(exposure="Country", outcome="Salary", aggregate="avg",
                          context=Eq("Continent", "EU"), table_name="people")


def make_confounded_table(n_per_group: int = 120, seed: int = 0) -> Table:
    """A synthetic table with a planted confounder.

    ``Group`` (the exposure) is correlated with ``Wealth`` (the confounder),
    and the outcome depends on ``Wealth`` only — so conditioning on
    ``Wealth`` should explain away the Group↔Outcome correlation, while the
    pure-noise attribute ``Noise`` should not.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = []
    wealth_by_group = {"A": 10.0, "B": 20.0, "C": 30.0}
    for group, wealth in wealth_by_group.items():
        for _ in range(n_per_group):
            w = wealth + rng.normal(0, 1.5)
            outcome = 2.0 * w + rng.normal(0, 2.0)
            rows.append({
                "Group": group,
                "Wealth": round(w, 2),
                "Noise": round(float(rng.uniform(0, 100)), 2),
                "Flag": "yes" if rng.random() < 0.5 else "no",
                "Outcome": round(outcome, 2),
            })
    return Table.from_rows(rows, name="confounded")


@pytest.fixture(scope="session")
def confounded_table() -> Table:
    """Session-scoped planted-confounder table."""
    return make_confounded_table()


@pytest.fixture(scope="session")
def confounded_problem(confounded_table):
    """A ready-made Correlation-Explanation problem over the planted table."""
    from repro.core.problem import CorrelationExplanationProblem

    query = AggregateQuery(exposure="Group", outcome="Outcome", aggregate="avg",
                           table_name="confounded")
    return CorrelationExplanationProblem(
        confounded_table, query, candidates=["Wealth", "Noise", "Flag"])
