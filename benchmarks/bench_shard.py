"""Row-shard benchmark: 1 vs 4 shards on the data axis, exactness gated.

Serves the SO workload through the row-sharded data plane
(``ExplanationService(pool=ShardPool(n_shards=N))``: one service
whose engine counts through N shard workers that each hold only a
contiguous row range and answer partial-count / permutation /
IRLS-partial requests; above one shard the pool ships columns through
its shared-memory frame store) and verifies, at both shard counts, that
every envelope equals the single-process engine and that all 7
explainers reproduce the plain pipeline's explanations through a 4-shard
pool.

**What the 2x gate measures.**  Key-sharded replicas (bench_cluster.py)
scale the *user* axis; the row-sharded tier scales the *data* axis — its
machine-independent win is per-worker data residency, not wall-clock: at
N shards every worker holds ``ceil(rows / N)`` rows of the registered
table instead of all of them, which is what lets the service serve tables
no single worker could hold.  The gate therefore checks **data-plane
scaling**: the largest per-worker resident row count must shrink by at
least ``--min-scaling`` (default 2x; the 4-shard layout gives 4x) and
every worker's residency must respect the ``ceil(rows / N)`` bound — the
``O(rows/N)`` term of the worker's ``O(rows/N) + O(1)`` footprint, with
``maxrss_kb`` recorded per worker so the ``O(1)`` interpreter baseline is
visible in the artifact.  Wall-clock at N shards is host-dependent (the
scatter-gather computes in parallel only when cores are available; on a
single-core host it pays IPC overhead instead), so elapsed seconds are
reported and regression-gated against the committed baseline but carry no
machine-independent speedup assertion.

Writes ``BENCH_shard.json`` (``sharded.seconds`` is what
``check_regression.py`` gates) and exits non-zero when envelopes diverge
from the engine, any explainer diverges through the sharded problem, a
worker exceeds its residency bound, or data-plane scaling falls below the
gate.

Run with:  PYTHONPATH=src python benchmarks/bench_shard.py [--shards 4]
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time

from repro import __version__
from repro.datasets.registry import load_dataset
from repro.distributed.coordinator import ShardPool
from repro.engine import ExplanationPipeline, available_explainers, get_explainer
from repro.mesa.config import MESAConfig
from repro.serving.service import ExplanationService

DATASET = "SO"
N_ROWS = 4000
K = 3
TOL = 1e-9


def explanations_equal(ours, reference) -> bool:
    if ours.attributes != reference.attributes:
        return False
    if abs(ours.explainability - reference.explainability) > TOL:
        return False
    for name, value in reference.responsibilities.items():
        if abs(ours.responsibilities.get(name, float("nan")) - value) > TOL:
            return False
    return True


def run_topology(bundle, config, n_shards: int, queries) -> dict:
    """Cold-serve the workload through a service over row shards."""
    startup_begin = time.perf_counter()
    service = ExplanationService(
        coalesce_window_seconds=0.0,
        pool=ShardPool(n_shards=n_shards, frame_store=n_shards > 1))
    try:
        service.register_bundle(bundle, config=config, warm=False)
        startup_seconds = time.perf_counter() - startup_begin
        start = time.perf_counter()
        served = [service.explain(DATASET, query, k=K) for query in queries]
        seconds = time.perf_counter() - start
        snapshot = service.stats()
    finally:
        service.close()
    workers = {
        index: {
            "role": worker.get("role"),
            "resident_rows": worker.get("resident_rows", 0),
            "max_context_rows": worker.get("max_context_rows", 0),
            "peak_resident_rows": worker.get("peak_resident_rows", 0),
            "maxrss_kb": worker.get("maxrss_kb", 0),
        }
        for index, worker in snapshot["workers"].items()
    }
    return {
        "n_shards": n_shards,
        "seconds": round(seconds, 6),
        "startup_seconds": round(startup_seconds, 6),
        "requests": len(queries),
        "row_bound_per_worker": math.ceil(bundle.table.n_rows / n_shards),
        "max_worker_context_rows": max(
            worker["max_context_rows"] for worker in workers.values()),
        "workers": workers,
        "data_plane": snapshot["data_plane"],
        "explanations": [one.envelope.explanation for one in served],
    }


def verify_explainers(bundle, config, query, n_shards: int) -> dict:
    """All 7 explainers through a sharded problem vs. the plain pipeline."""
    plain = ExplanationPipeline(
        bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
        config=config)
    sharded = ExplanationPipeline(
        bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
        config=config)
    verdicts = {}
    with ShardPool(n_shards=n_shards) as pool:
        sharded.context.shard_pool = pool
        sharded.context.shard_label = bundle.name
        for name in available_explainers():
            reference = plain.run_explainer(get_explainer(name), query, k=K)
            ours = sharded.run_explainer(get_explainer(name), query, k=K)
            verdicts[name] = explanations_equal(ours, reference)
    return verdicts


def run_bench(n_shards: int) -> dict:
    bundle = load_dataset(DATASET, seed=7, n_rows=N_ROWS)
    config = MESAConfig(excluded_columns=tuple(bundle.id_columns), k=K)
    queries = [entry.query for entry in bundle.queries]

    engine = ExplanationPipeline(
        bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
        config=config)
    engine_begin = time.perf_counter()
    reference = [engine.explain(query, k=K).explanation for query in queries]
    engine_seconds = time.perf_counter() - engine_begin

    single = run_topology(bundle, config, 1, queries)
    sharded = run_topology(bundle, config, n_shards, queries)

    mismatches = []
    for topology in (single, sharded):
        for query, ours, theirs in zip(queries, topology.pop("explanations"),
                                       reference):
            if not explanations_equal(ours, theirs):
                mismatches.append(f"{topology['n_shards']}-shard:{query.name}")

    residency_violations = []
    for topology in (single, sharded):
        for index, worker in topology["workers"].items():
            if worker["max_context_rows"] > topology["row_bound_per_worker"]:
                residency_violations.append(
                    f"{topology['n_shards']}-shard worker {index}: "
                    f"{worker['max_context_rows']} rows > bound "
                    f"{topology['row_bound_per_worker']}")

    data_scaling = single["max_worker_context_rows"] / max(
        1, sharded["max_worker_context_rows"])
    explainers = verify_explainers(bundle, config, queries[0], n_shards)

    return {
        "version": __version__,
        "python": platform.python_version(),
        "dataset": DATASET,
        "n_rows": bundle.table.n_rows,
        "k": K,
        "n_queries": len(queries),
        "engine_seconds": round(engine_seconds, 6),
        "single": single,
        "sharded": sharded,
        "data_scaling": round(data_scaling, 3),
        "envelopes_equal_engine": not mismatches,
        "mismatches": mismatches,
        "residency_bound_ok": not residency_violations,
        "residency_violations": residency_violations,
        "explainers_equal": explainers,
        "all_explainers_equal": all(explainers.values()),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_shard.json")
    parser.add_argument("--shards", type=int, default=4,
                        help="Shard count of the sharded topology")
    parser.add_argument("--min-scaling", type=float, default=2.0,
                        help="Fail when per-worker data residency shrinks "
                             "by less than this factor at N shards")
    args = parser.parse_args()

    results = run_bench(args.shards)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)

    single, sharded = results["single"], results["sharded"]
    print(f"row-sharded workload: {results['n_queries']} queries over "
          f"{results['n_rows']} rows (engine {results['engine_seconds']:.2f}s)")
    print(f"  1 shard : {single['seconds']:.2f}s, "
          f"per-worker residency {single['max_worker_context_rows']} rows, "
          f"maxrss {max(w['maxrss_kb'] for w in single['workers'].values())} kB")
    print(f"  {sharded['n_shards']} shards: {sharded['seconds']:.2f}s, "
          f"per-worker residency {sharded['max_worker_context_rows']} rows, "
          f"maxrss {max(w['maxrss_kb'] for w in sharded['workers'].values())} kB")
    print(f"  data-plane scaling: {results['data_scaling']:.2f}x smaller "
          f"per-worker footprint (bound {sharded['row_bound_per_worker']} "
          f"rows/worker, respected: {results['residency_bound_ok']})")
    print(f"  served == engine: {results['envelopes_equal_engine']}; "
          f"all explainers equal: {results['all_explainers_equal']}")

    if not results["envelopes_equal_engine"]:
        print(f"FAIL: sharded envelopes diverge from the engine for "
              f"{results['mismatches']}", file=sys.stderr)
        raise SystemExit(1)
    if not results["all_explainers_equal"]:
        bad = [name for name, ok in results["explainers_equal"].items()
               if not ok]
        print(f"FAIL: explainers diverge through the sharded problem: {bad}",
              file=sys.stderr)
        raise SystemExit(1)
    if not results["residency_bound_ok"]:
        print(f"FAIL: worker residency exceeds the O(rows/N) bound: "
              f"{results['residency_violations']}", file=sys.stderr)
        raise SystemExit(1)
    if results["data_scaling"] < args.min_scaling:
        print(f"FAIL: data-plane scaling {results['data_scaling']:.2f}x is "
              f"below the {args.min_scaling:.1f}x gate", file=sys.stderr)
        raise SystemExit(1)
    print(f"OK: data-plane scaling >= {args.min_scaling:.1f}x with "
          f"engine-identical envelopes")


if __name__ == "__main__":
    main()
