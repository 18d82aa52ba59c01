"""Performance benchmark: timings and work counters of the estimator paths.

Three scenarios, all through ``explain_many`` in one process:

* **Fig. 4 workload** — the candidate-heavy regime of the paper's Figure 4
  (the SO dataset joined against a noise-heavy synthetic knowledge graph,
  so pruning and search score hundreds of candidates), timed on the
  contingency-count kernel and recorded with per-stage breakdowns.  When
  the kernel replaced the raw-row estimators it ran this workload 4.2x
  faster (the historical ratio recorded in CHANGES.md).
* **IPW + permutation workload** — selection-bias handling on, a large
  responsibility-test permutation budget and query groups sharing
  contexts (the serving shape).  Phase timings (``ipw_fit_s``,
  ``permutation_s``) and the fit-cache counters are recorded, plus an
  informational early-exit run whose attributes must match.  The blocked
  permutation engine and the IPW fit cache took this workload from 7.1 s
  to 3.1 s (recorded in CHANGES.md).
* **Adaptive scheduler** — the same IPW+permutation bundle at matched
  worst-case budget: a fixed ``ADAPTIVE_MAX_PERMUTATIONS`` budget on every
  responsibility test (the only fixed policy matching the verdict
  resolution the scheduler can reach) against adaptive budgets starting
  at ``IPW_PERM_PERMUTATIONS`` (clear-cut tests exit in a handful of
  draws, decisively dependent ones stop when the Clopper–Pearson bound
  settles, statistically uncertain ones extend geometrically up to the
  cap) combined with the vectorised ``argsort`` RNG stream and the
  speculative pipelined MCIMR search.  The speculative search is
  bit-identical by construction, so all seven explainers are verified
  equal between the speculative and sequential schedules
  (``--min-adaptive-speedup`` gates the compounded wall-clock, default
  1.5x); budget extensions may legitimately revise statistically
  uncertain verdicts, so attribute agreement of the full adaptive stack
  against the fixed run is recorded informationally.

The work counters of the IPW+permutation and adaptive runs (fit-cache
hits and misses, estimate-memo hits and misses, early exits, saved and
extended permutations, speculation hits and discards) are deterministic
for the fixed seeds, so they must equal the ones recorded in
``BENCH_perf.baseline.json`` next to this script exactly.

Run with:  PYTHONPATH=src python benchmarks/bench_perf.py [--out BENCH_perf.json]

The script exits non-zero when a counter differs from its baseline, when
the adaptive speedup falls below its gate, or when an explainer diverges
between schedules, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro import __version__
from repro.datasets.registry import load_dataset
from repro.engine import ExplanationPipeline, available_explainers, get_explainer
from repro.kg.synthetic import SyntheticKGConfig, build_world_knowledge_graph
from repro.mesa.config import MESAConfig
from repro.query.aggregate_query import AggregateQuery
from repro.table.expressions import TRUE, Eq

#: Candidate-heavy regime: many noise properties -> hundreds of candidates.
PERF_KG_CONFIG = SyntheticKGConfig(seed=7, n_noise_properties=40)
DATASET = "SO"
N_ROWS = 1500
K = 5

#: IPW+permutation regime: default missingness (MNAR properties included)
#: so many attributes need selection models, moderate noise so the search
#: spends its time in responsibility tests rather than candidate scoring.
IPW_PERM_KG_CONFIG = SyntheticKGConfig(seed=11, n_noise_properties=16)
IPW_PERM_N_ROWS = 1500
#: A large permutation budget makes the stopping criterion
#: permutation-bound, as in the HypDB-style test of the paper.
IPW_PERM_PERMUTATIONS = 150
#: Adaptive cap: uncertain tests may quadruple their budget while
#: clear-cut ones exit after a handful of draws.
ADAPTIVE_MAX_PERMUTATIONS = 600

#: The recorded timings and exact work counters the runs are checked against.
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_perf.baseline.json")


def ipw_perm_queries():
    """Query groups sharing contexts and outcome — the serving shape.

    Queries inside one context group share the context frame, the IPW
    design matrix and the candidate missingness masks, so the fit cache
    collapses their selection fits; across groups everything re-fits.
    """
    queries = []
    for context in (TRUE, Eq("Continent", "Europe"), Eq("Hobby", "Yes")):
        for exposure in ("Country", "Continent", "DevType", "EdLevel", "Gender"):
            queries.append(AggregateQuery(
                exposure=exposure, outcome="Salary", aggregate="avg",
                context=context, table_name="SO"))
    return queries


def _pipeline(bundle, **overrides) -> ExplanationPipeline:
    config = MESAConfig(excluded_columns=bundle.id_columns, k=K, **overrides)
    return ExplanationPipeline(bundle.table, bundle.knowledge_graph,
                               bundle.extraction_specs, config=config)


def time_explain_many(bundle, queries, repeats: int = 2) -> dict:
    """Best-of-``repeats`` wall-clock of the Fig. 4 workload.

    Selection-bias handling is off, as in the paper's Figure 4 protocol:
    the measured path is candidate scoring + online pruning + search —
    exactly the counting layer the kernel restructures.
    """
    best = None
    for _ in range(repeats):
        pipeline = _pipeline(bundle, handle_selection_bias=False)
        start = time.perf_counter()
        results = pipeline.explain_many(queries, k=K)
        seconds = time.perf_counter() - start
        sample = {
            "seconds": seconds,
            "stage_seconds": {name: round(value, 6)
                              for name, value in pipeline.context.stage_seconds.items()},
            "results": [{"query": result.query.label(),
                         "attributes": list(result.attributes),
                         "explainability": result.explainability}
                        for result in results],
        }
        if best is None or seconds < best["seconds"]:
            best = sample
    return best


def _ipw_perm_config(bundle, **overrides) -> MESAConfig:
    settings = dict(excluded_columns=bundle.id_columns, k=K,
                    handle_selection_bias=True,
                    responsibility_permutations=IPW_PERM_PERMUTATIONS)
    settings.update(overrides)
    return MESAConfig(**settings)


def time_ipw_perm(bundle, queries, repeats: int = 2, **overrides) -> dict:
    """Best-of-``repeats`` wall-clock of the IPW+permutation scenario."""
    best = None
    for _ in range(repeats):
        pipeline = ExplanationPipeline(
            bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
            config=_ipw_perm_config(bundle, **overrides))
        start = time.perf_counter()
        results = pipeline.explain_many(queries, k=K)
        seconds = time.perf_counter() - start
        stage_seconds = pipeline.context.stage_seconds
        counters = pipeline.context.counters
        sample = {
            "seconds": seconds,
            "ipw_fit_s": round(stage_seconds.get("ipw_fit", 0.0), 6),
            "permutation_s": round(stage_seconds.get("permutation_test", 0.0), 6),
            "search_s": round(sum(result.timings.get("mcimr", 0.0)
                                  for result in results), 6),
            "counters": {name: counters[name] for name in sorted(counters)
                         if name.startswith(("ipw_fit", "estimate_memo",
                                             "perm", "speculation"))},
            "results": [{"query": result.query.label(),
                         "attributes": list(result.attributes),
                         "explainability": result.explainability}
                        for result in results],
        }
        if best is None or seconds < best["seconds"]:
            best = sample
    return best


def _ipw_perm_bundle():
    graph = build_world_knowledge_graph(IPW_PERM_KG_CONFIG)
    return load_dataset(DATASET, seed=11, n_rows=IPW_PERM_N_ROWS,
                        knowledge_graph=graph)


def run_ipw_perm_bench(repeats: int = 2, bundle=None) -> dict:
    """The IPW-heavy + permutation-heavy scenario, plus an early-exit run."""
    if bundle is None:
        bundle = _ipw_perm_bundle()
    queries = ipw_perm_queries()

    after = time_ipw_perm(bundle, queries, repeats=repeats)
    early_exit = time_ipw_perm(bundle, queries, repeats=1,
                               permutation_early_exit=True)
    early_exit_same_attributes = all(
        a["attributes"] == e["attributes"]
        for a, e in zip(after["results"], early_exit["results"])
    )
    return {
        "workload": "ipw+permutation-heavy (selection bias on, "
                    f"{IPW_PERM_PERMUTATIONS} responsibility permutations, "
                    "context-sharing query groups)",
        "n_rows": bundle.table.n_rows,
        "n_queries": len(queries),
        "after": after,
        "early_exit": {"permutation_early_exit": True,
                       "same_attributes": early_exit_same_attributes,
                       **early_exit},
    }


def verify_explainers_speculative(bundle, queries) -> list:
    """All seven explainers: sequential vs. speculative pipelined search.

    Speculation only overlaps wall-clock (disjoint memo caches), so the
    explanations must be *bit-identical*, not merely equivalent.
    """
    sequential_pipeline = ExplanationPipeline(
        bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
        config=_ipw_perm_config(bundle))
    speculative_pipeline = ExplanationPipeline(
        bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
        config=_ipw_perm_config(bundle, speculative_search=True))
    rows = []
    for method in available_explainers():
        for query in queries:
            before = sequential_pipeline.run_explainer(
                get_explainer(method), query, k=K)
            after = speculative_pipeline.run_explainer(
                get_explainer(method), query, k=K)
            equal_attributes = before.attributes == after.attributes
            score_delta = abs(before.explainability - after.explainability)
            responsibility_delta = max(
                (abs(before.responsibilities[name] - after.responsibilities[name])
                 for name in before.responsibilities), default=0.0,
            ) if set(before.responsibilities) == set(after.responsibilities) \
                else float("inf")
            rows.append({
                "method": method,
                "query": query.label(),
                "attributes": list(after.attributes),
                "equal_attributes": equal_attributes,
                "score_delta": score_delta,
                "responsibility_delta": responsibility_delta,
                "equivalent": (equal_attributes
                               and score_delta == 0.0
                               and responsibility_delta == 0.0),
            })
    return rows


def run_adaptive_bench(repeats: int = 2, bundle=None) -> dict:
    """The adaptive-scheduler before/after scenario.

    The comparison is at *matched worst-case budget*: ``before`` pays the
    adaptive cap (``ADAPTIVE_MAX_PERMUTATIONS``) as a fixed budget on
    every responsibility test — the only fixed policy whose verdict
    resolution matches what the adaptive scheduler can reach — while
    ``after`` starts every test at the base
    ``IPW_PERM_PERMUTATIONS`` and lets the scheduler decide: clear-cut
    tests exit in a handful of draws, decisively dependent ones stop the
    moment the Clopper–Pearson bound settles, and only the statistically
    uncertain rump extends toward the cap.  The ``after`` mode compounds
    the vectorised argsort RNG stream and the speculative pipelined
    search on top.
    """
    if bundle is None:
        bundle = _ipw_perm_bundle()
    queries = ipw_perm_queries()

    fixed = time_ipw_perm(
        bundle, queries, repeats=repeats,
        responsibility_permutations=ADAPTIVE_MAX_PERMUTATIONS)
    adaptive = time_ipw_perm(
        bundle, queries, repeats=repeats,
        max_responsibility_permutations=ADAPTIVE_MAX_PERMUTATIONS,
        permutation_rng_stream="argsort",
        speculative_search=True)
    # Budget extensions deliberately revise statistically uncertain
    # verdicts (and argsort is a different documented RNG stream), so
    # attribute agreement is recorded, not gated.
    same_attributes = all(
        b["attributes"] == a["attributes"]
        for b, a in zip(fixed["results"], adaptive["results"])
    )
    explainer_rows = verify_explainers_speculative(bundle, queries[:1])
    return {
        "workload": "adaptive scheduler on the ipw+permutation workload at "
                    f"matched worst-case budget (fixed "
                    f"{ADAPTIVE_MAX_PERMUTATIONS} permutations vs base "
                    f"{IPW_PERM_PERMUTATIONS} adapting up to "
                    f"{ADAPTIVE_MAX_PERMUTATIONS}, argsort stream, "
                    "speculative search)",
        "n_rows": bundle.table.n_rows,
        "n_queries": len(queries),
        "before": {"responsibility_permutations": ADAPTIVE_MAX_PERMUTATIONS,
                   "max_responsibility_permutations": 0,
                   "permutation_rng_stream": "legacy",
                   "speculative_search": False, **fixed},
        "after": {"responsibility_permutations": IPW_PERM_PERMUTATIONS,
                  "max_responsibility_permutations": ADAPTIVE_MAX_PERMUTATIONS,
                  "permutation_rng_stream": "argsort",
                  "speculative_search": True, **adaptive},
        "speedup": fixed["seconds"] / adaptive["seconds"],
        "same_attributes": same_attributes,
        "explainers": explainer_rows,
        "all_explainers_equivalent": all(row["equivalent"]
                                         for row in explainer_rows),
    }


def run_bench(repeats: int = 2) -> dict:
    graph = build_world_knowledge_graph(PERF_KG_CONFIG)
    bundle = load_dataset(DATASET, seed=7, n_rows=N_ROWS, knowledge_graph=graph)
    queries = [entry.query for entry in bundle.queries]

    return {
        "version": __version__,
        "python": platform.python_version(),
        "dataset": bundle.name,
        "n_rows": bundle.table.n_rows,
        "n_queries": len(queries),
        "k": K,
        "workload": "fig4-candidate-heavy (explain_many, single process, "
                    "selection-bias handling off as in the Fig. 4 protocol)",
        "fig4": time_explain_many(bundle, queries, repeats=repeats),
    }


def run_full_bench(repeats: int = 2) -> dict:
    payload = run_bench(repeats=repeats)
    ipw_bundle = _ipw_perm_bundle()
    payload["ipw_perm"] = run_ipw_perm_bench(repeats=repeats,
                                             bundle=ipw_bundle)
    payload["adaptive"] = run_adaptive_bench(repeats=repeats,
                                             bundle=ipw_bundle)
    return payload


def counter_mismatches(payload: dict, baseline: dict) -> list:
    """The runs whose work counters differ from the recorded baseline."""
    return [f"{scenario}.after counters {payload[scenario]['after']['counters']} "
            f"!= baseline {baseline[scenario]['after']['counters']}"
            for scenario in ("ipw_perm", "adaptive")
            if payload[scenario]["after"]["counters"]
            != baseline[scenario]["after"]["counters"]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="Path of the JSON timing artifact")
    parser.add_argument("--min-adaptive-speedup", type=float, default=1.5,
                        help="Fail when the adaptive-scheduler scenario's "
                             "wall-clock speedup over the fixed-budget path "
                             "falls below this factor (0 disables the gate)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="Timing repetitions per mode (best is kept)")
    args = parser.parse_args()

    payload = run_full_bench(repeats=args.repeats)
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        mismatches = counter_mismatches(payload, json.load(handle))
    payload["counters_match_baseline"] = not mismatches
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"Wrote {args.out}: fig4 kernel path "
          f"{payload['fig4']['seconds']:.2f}s on {payload['n_queries']} "
          f"queries / {payload['n_rows']} rows")
    ipw = payload["ipw_perm"]
    print(f"ipw+perm scenario: {ipw['after']['seconds']:.2f}s total "
          f"(ipw_fit {ipw['after']['ipw_fit_s']:.2f}s, permutation "
          f"{ipw['after']['permutation_s']:.2f}s); early-exit total "
          f"{ipw['early_exit']['seconds']:.2f}s "
          f"(saved {ipw['early_exit']['counters'].get('perm_saved', 0)} "
          f"permutations)")
    adaptive = payload["adaptive"]
    adaptive_counters = adaptive["after"]["counters"]
    print(f"adaptive scenario: fixed {adaptive['before']['seconds']:.2f}s -> "
          f"adaptive {adaptive['after']['seconds']:.2f}s "
          f"({adaptive['speedup']:.2f}x); "
          f"{adaptive_counters.get('perm_budget_extended', 0)} budgets "
          f"extended, {adaptive_counters.get('perm_budget_saved', 0)} "
          f"permutations saved, speculation "
          f"{adaptive_counters.get('speculation_hit', 0)} hits / "
          f"{adaptive_counters.get('speculation_waste', 0)} discards; "
          f"same attributes as fixed: {adaptive['same_attributes']}")

    failures = list(mismatches)
    if not ipw["early_exit"]["same_attributes"]:
        failures.append("early-exit run changed explanation attributes")
    if not adaptive["all_explainers_equivalent"]:
        diverged = [row["method"] for row in adaptive["explainers"]
                    if not row["equivalent"]]
        failures.append("explainers diverge between sequential and "
                        f"speculative search: {diverged}")
    if (args.min_adaptive_speedup > 0
            and adaptive["speedup"] < args.min_adaptive_speedup):
        failures.append(f"adaptive scheduler speedup "
                        f"{adaptive['speedup']:.2f}x is below the "
                        f"{args.min_adaptive_speedup:.1f}x gate")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
