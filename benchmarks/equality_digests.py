"""Equality digests: one fingerprint per reference workload.

A refactor that must not change any answer runs this script at the parent
commit and at the change, and compares the printed lines.  Each line holds
a case name, the first 16 hex characters of the SHA-256 of the
newline-joined ``canonical_json()`` of the case's
``explain_many_envelopes`` output, and the case's ``perm_*`` work counters.
The six cases:

* ``covid_local`` — every Covid-19 bundle query (``load_dataset("Covid-19")``
  as it loads), default config, in process;
* ``covid_shard3`` — the same over a 3-shard ``ShardPool``;
* ``covid_shard3_serving`` — the 3-shard pool with the serving defaults
  (``permutation_early_exit`` and ``speculative_search`` on);
* ``so_ipw_perm_local`` — ``bench_perf``'s IPW+permutation bundle, queries
  and config at its ``K``, in process;
* ``so_ipw_perm_shard2`` — the first 5 of those queries over a 2-shard pool;
* ``so_adaptive_local`` — ``bench_perf``'s adaptive "after" config
  (adaptive budgets, argsort stream, speculative search), in process.

Float digests depend on the BLAS build, so the script pins OpenBLAS to one
thread and gates nothing: only lines printed on the same host compare.

Run with:  PYTHONPATH=src python benchmarks/equality_digests.py
"""

from __future__ import annotations

import hashlib
import os

# Before numpy loads: a multi-threaded BLAS may sum in another order.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from bench_perf import (  # noqa: E402
    ADAPTIVE_MAX_PERMUTATIONS,
    K,
    _ipw_perm_bundle,
    _ipw_perm_config,
    ipw_perm_queries,
)
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.distributed import ShardPool  # noqa: E402
from repro.engine import ExplanationPipeline  # noqa: E402
from repro.mesa.config import MESAConfig  # noqa: E402


def digest(bundle, config, queries, k=None, n_shards=0) -> str:
    """The case line: envelope digest plus ``perm_*`` counters."""
    pipeline = ExplanationPipeline(bundle.table, bundle.knowledge_graph,
                                   bundle.extraction_specs, config=config)
    if n_shards:
        with ShardPool(n_shards=n_shards) as pool:
            pipeline.context.shard_pool = pool
            pipeline.context.shard_label = bundle.name
            envelopes = pipeline.explain_many_envelopes(queries, k=k)
    else:
        envelopes = pipeline.explain_many_envelopes(queries, k=k)
    joined = "\n".join(envelope.canonical_json() for envelope in envelopes)
    counters = pipeline.context.counters
    perm = {name: counters[name] for name in sorted(counters)
            if name.startswith("perm")}
    return f"{hashlib.sha256(joined.encode()).hexdigest()[:16]} {perm}"


def main() -> None:
    covid = load_dataset("Covid-19")
    covid_config = MESAConfig(excluded_columns=tuple(covid.id_columns))
    covid_queries = [entry.query for entry in covid.queries]
    serving = covid_config.with_overrides(permutation_early_exit=True,
                                          speculative_search=True)
    so = _ipw_perm_bundle()
    so_queries = ipw_perm_queries()
    cases = (
        ("covid_local", covid, covid_config, covid_queries, None, 0),
        ("covid_shard3", covid, covid_config, covid_queries, None, 3),
        ("covid_shard3_serving", covid, serving, covid_queries, None, 3),
        ("so_ipw_perm_local", so, _ipw_perm_config(so), so_queries, K, 0),
        ("so_ipw_perm_shard2", so, _ipw_perm_config(so), so_queries[:5],
         K, 2),
        ("so_adaptive_local", so, _ipw_perm_config(
            so, max_responsibility_permutations=ADAPTIVE_MAX_PERMUTATIONS,
            permutation_rng_stream="argsort", speculative_search=True),
         so_queries, K, 0),
    )
    for name, bundle, config, queries, k, n_shards in cases:
        print(f"{name} {digest(bundle, config, queries, k, n_shards)}",
              flush=True)


if __name__ == "__main__":
    main()
