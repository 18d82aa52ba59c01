"""Memory benchmark: per-worker RSS with and without the frame store.

Builds a **wide synthetic numeric table** (no missing values) whose bulk
is pad columns excluded from candidate generation — the shape of a real
analytics table where any one query touches a handful of columns — and
serves the same two-query workload through four topologies, each one
``ExplanationService`` over a ``ReplicaPool`` of engine replicas:

* 1 replica / 4 replicas, frame store **off** — every replica receives
  the pickled table and holds a private copy, so per-worker RSS carries
  the whole dataset (plus the unpickle transient);
* 1 replica / 4 replicas, frame store **on** — replicas attach read-only
  views over the pool's shared segments and ``warm()`` publishes each
  hot context's encoded frame once, so a worker's RSS carries only the
  pages it actually touches.

Both arms use the **spawn** start method: a forked worker inherits the
parent's resident pages, which makes ``ru_maxrss`` meaningless as a
per-worker figure.

Every envelope served by every topology is verified byte-identical
against a fresh single-process engine, and the store arm's counters are
asserted: the owner publishes exactly one frame per hot context and the
workers adopt them instead of re-encoding (zero worker frame misses).

Writes ``BENCH_memory.json`` (``cluster_on.seconds`` is what
``check_regression.py`` gates) and exits non-zero when the 4-worker
per-worker RSS with the store is above ``--max-rss-ratio`` (default
0.35x) of the per-worker RSS without it, or any equality/counter gate
fails.

Run with:  PYTHONPATH=src python benchmarks/bench_memory.py [--rows 150000]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro import __version__
from repro.engine import ExplanationPipeline
from repro.mesa.config import MESAConfig
from repro.query.aggregate_query import AggregateQuery
from repro.distributed import ReplicaPool
from repro.serving import ExplanationService, LocalClient
from repro.table.column import Column, DType
from repro.table.expressions import Gt, Lt
from repro.table.table import Table

DATASET = "MemSynth"
K = 2
N_PADS = 512


def build_table(n_rows: int, n_pads: int) -> Table:
    """A wide numeric table: 7 live columns + ``n_pads`` pad columns.

    All float64, no missing values — numeric columns ship zero-copy
    through the frame store, and the absence of missingness keeps the
    engine off the IPW path, so the workload is pure count-kernel work.
    """
    rng = np.random.default_rng(23)
    c1 = rng.integers(0, 6, n_rows).astype(np.float64)
    c2 = rng.integers(0, 5, n_rows).astype(np.float64)
    c3 = rng.integers(0, 4, n_rows).astype(np.float64)
    c4 = rng.integers(0, 7, n_rows).astype(np.float64)
    exposure = np.floor(c1 + rng.random(n_rows) * 3.0)
    outcome = 3.0 * c1 + 2.0 * c2 + 0.5 * exposure + rng.random(n_rows)
    depth = rng.random(n_rows) * 10.0
    live = {"E": exposure, "O": outcome, "Depth": depth,
            "C1": c1, "C2": c2, "C3": c3, "C4": c4}
    no_missing = np.zeros(n_rows, dtype=bool)
    columns = [Column.from_numpy(name, values, DType.FLOAT, no_missing)
               for name, values in live.items()]
    for index in range(n_pads):
        columns.append(Column.from_numpy(
            f"pad_{index:03d}", rng.random(n_rows), DType.FLOAT, no_missing))
    return Table(columns, name=DATASET)


def pad_names(n_pads: int):
    return tuple(f"pad_{index:03d}" for index in range(n_pads))


def workload():
    return [
        AggregateQuery(exposure="E", outcome="O", aggregate="avg",
                       context=Gt("Depth", 2.0), table_name=DATASET,
                       name="mem-deep"),
        AggregateQuery(exposure="E", outcome="O", aggregate="avg",
                       context=Lt("Depth", 8.0), table_name=DATASET,
                       name="mem-shallow"),
    ]


def run_topology(table: Table, config: MESAConfig, n_workers: int,
                 frame_store: bool, queries) -> dict:
    """Cold-start, warm, serve; returns per-worker RSS + timings + stats."""
    service = ExplanationService(pool=ReplicaPool(
        n_workers=n_workers, start_method="spawn", frame_store=frame_store))
    start = time.perf_counter()
    # Registration starts the replicas and waits until they serve.
    service.register_dataset(DATASET, table, config=config, warm=False)
    with LocalClient(service) as client:
        startup_seconds = time.perf_counter() - start
        warm_start = time.perf_counter()
        service.warm(DATASET, queries=queries)
        warm_seconds = time.perf_counter() - warm_start
        envelopes = {query.name: client.explain(DATASET, query, k=K).envelope
                     for query in queries}
        stats = client.stats()
        seconds = time.perf_counter() - start
    rss_kb = {index: worker["memory"]["maxrss_kb"]
              for index, worker in stats["workers"].items()}
    counters = stats["contexts"][DATASET]["counters"]
    return {
        "n_workers": n_workers,
        "frame_store": stats["frame_store"],
        "seconds": round(seconds, 6),
        "startup_seconds": round(startup_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "worker_maxrss_kb": rss_kb,
        "max_worker_maxrss_kb": max(rss_kb.values()),
        "frame_cache_misses": counters.get("frame_cache_misses", 0),
        "frame_store_attach": counters.get("frame_store_attach", 0),
        "envelopes": envelopes,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_memory.json")
    parser.add_argument("--rows", type=int, default=150_000,
                        help="Row count of the synthetic table")
    parser.add_argument("--workers", type=int, default=4,
                        help="Worker count of the cluster arms")
    parser.add_argument("--max-rss-ratio", type=float, default=0.35,
                        help="Fail when store-on per-worker RSS exceeds this "
                             "fraction of store-off at the cluster width")
    args = parser.parse_args()

    table = build_table(args.rows, N_PADS)
    table_mb = sum(table.column(name).values.nbytes
                   for name in table.column_names) / 2**20
    config = MESAConfig(excluded_columns=pad_names(N_PADS), k=K)
    queries = workload()

    reference = ExplanationPipeline(table, config=config)
    engine_json = {query.name: reference.explain(query, k=K)
                   .to_envelope().canonical_json() for query in queries}

    arms = {}
    for label, n_workers, store in (("single_off", 1, False),
                                    ("single_on", 1, True),
                                    ("cluster_off", args.workers, False),
                                    ("cluster_on", args.workers, True)):
        arms[label] = run_topology(table, config, n_workers, store, queries)
        print(f"  {label:11s}: max worker RSS "
              f"{arms[label]['max_worker_maxrss_kb'] / 1024:.0f} MiB, "
              f"cold start {arms[label]['startup_seconds']:.1f}s, "
              f"warm {arms[label]['warm_seconds']:.1f}s")

    mismatches = []
    for label, arm in arms.items():
        served = arm.pop("envelopes")
        for query in queries:
            if served[query.name].canonical_json() != engine_json[query.name]:
                mismatches.append(f"{label}:{query.name}")

    off = arms["cluster_off"]["max_worker_maxrss_kb"]
    on = arms["cluster_on"]["max_worker_maxrss_kb"]
    ratio = on / off
    # warm() must have encoded each hot context exactly once in the owner
    # and the replicas must have adopted, not re-encoded.
    store_stats = arms["cluster_on"]["frame_store"]
    frames_ok = store_stats.get("frames_published", 0) == len(queries)
    adopt_ok = (arms["cluster_on"]["frame_cache_misses"] == 0
                and arms["cluster_on"]["frame_store_attach"] >= len(queries))

    results = {
        "version": __version__,
        "python": platform.python_version(),
        "dataset": DATASET,
        "n_rows": args.rows,
        "n_columns": 7 + N_PADS,
        "table_mb": round(table_mb, 1),
        "k": K,
        "workload": f"{len(queries)} hot contexts over a "
                    f"{7 + N_PADS}-column, {table_mb:.0f} MB table "
                    f"(spawn workers, per-worker ru_maxrss)",
        **arms,
        "rss_ratio": round(ratio, 4),
        "rss_reduction": round(off / max(on, 1), 3),
        "served_equals_engine": not mismatches,
        "mismatches": mismatches,
        "frames_published_equals_contexts": frames_ok,
        "workers_adopted_not_reencoded": adopt_ok,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)

    print(f"memory workload: {results['workload']}")
    print(f"  {args.workers}-worker per-worker RSS: "
          f"{off / 1024:.0f} MiB without store -> {on / 1024:.0f} MiB with "
          f"({results['rss_reduction']:.1f}x lower, ratio {ratio:.2f})")
    print(f"  served == fresh engine: {results['served_equals_engine']}; "
          f"frames published == contexts: {frames_ok}; "
          f"workers adopted (0 misses): {adopt_ok}")

    if mismatches:
        print(f"FAIL: served envelopes diverge from the engine for "
              f"{mismatches}", file=sys.stderr)
        raise SystemExit(1)
    if not frames_ok:
        print(f"FAIL: owner published "
              f"{store_stats.get('frames_published', 0)} frames for "
              f"{len(queries)} hot contexts", file=sys.stderr)
        raise SystemExit(1)
    if not adopt_ok:
        print(f"FAIL: workers re-encoded instead of adopting "
              f"({arms['cluster_on']['frame_cache_misses']} frame misses, "
              f"{arms['cluster_on']['frame_store_attach']} attaches)",
              file=sys.stderr)
        raise SystemExit(1)
    if ratio > args.max_rss_ratio:
        print(f"FAIL: store-on per-worker RSS ratio {ratio:.2f} is above "
              f"the {args.max_rss_ratio:.2f} gate", file=sys.stderr)
        raise SystemExit(1)
    print(f"OK: frame store cuts {args.workers}-worker RSS to "
          f"<= {args.max_rss_ratio:.0%} with engine-identical envelopes")


if __name__ == "__main__":
    main()
