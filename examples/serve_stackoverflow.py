"""Serve Stack Overflow salary explanations over HTTP, end to end.

Starts an :class:`~repro.serving.ExplanationService` for the synthetic
Stack Overflow dataset — running the engine in process by default, or on
a :class:`~repro.distributed.ReplicaPool` of N engine replicas with
``--workers N`` (the *same* service and HTTP handler serve both) — brings
up the JSON-over-HTTP front end on a free port, and then plays a short
traffic script against it:

1. a cold ``POST /explain`` (full engine run),
2. the same request again (explanation-cache hit, byte-identical),
3. a repeated-context batch (``POST /explain_batch`` — the context-level
   frame cache means the shared WHERE clause is encoded once),
4. a burst of identical concurrent requests (coalesced to one execution),
5. ``GET /stats`` to show what the serving layer did — with replicas
   including the data-plane counters and each replica's engine runs.

Run with:  PYTHONPATH=src python examples/serve_stackoverflow.py [--workers 4]

For a long-running server use the CLI instead:

    PYTHONPATH=src python -m repro.serving --dataset SO --port 8080 --workers 4
"""

from __future__ import annotations

import argparse
import json
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro import MESAConfig, load_dataset
from repro.distributed import ReplicaPool
from repro.serving import ExplanationService, LocalClient, make_server


def post(base: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST")
    with urllib.request.urlopen(request, timeout=300) as response:
        return json.loads(response.read())


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=60) as response:
        return json.loads(response.read())


def build_client(bundle, n_workers: int):
    config = MESAConfig(excluded_columns=tuple(bundle.id_columns), k=3)
    replicas = None
    if n_workers > 1:
        replicas = ReplicaPool(n_workers=n_workers, frame_store=True)
        print(f"Starting {n_workers} engine replicas for {bundle.name} "
              f"({bundle.table.n_rows} rows); each warms its own caches ...")
    else:
        print(f"Registering {bundle.name} ({bundle.table.n_rows} rows) and "
              f"warming the cross-query caches ...")
    service = ExplanationService(cache_size=4096 * n_workers,
                                 coalesce_window_seconds=0.01,
                                 pool=replicas)
    service.register_bundle(bundle, config=config)
    return LocalClient(service)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1,
                        help="1 = engine in process, N > 1 = N engine "
                             "replicas")
    args = parser.parse_args()

    bundle = load_dataset("SO", seed=7, n_rows=2000)
    client = build_client(bundle, args.workers)

    server = make_server(client, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = "http://{}:{}".format(*server.server_address[:2])
    print(f"Serving on {base}\n")

    explain_salary = {
        "dataset": "SO",
        "sql": "SELECT Country, avg(Salary) FROM SO GROUP BY Country",
        "k": 3,
    }

    # 1-2. Cold request, then the cache hit.
    start = time.perf_counter()
    cold = post(base, "/explain", explain_salary)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = post(base, "/explain", explain_salary)
    warm_seconds = time.perf_counter() - start
    print(f"Cold explain: {cold_seconds * 1e3:.0f} ms, attributes="
          f"{cold['envelope']['explanation']['attributes']}")
    print(f"Warm repeat:  {warm_seconds * 1e3:.1f} ms "
          f"(cache_hit={warm['cache_hit']}, byte-identical="
          f"{warm['envelope'] == cold['envelope']})\n")

    # 3. A repeated-context batch: every query shares the WHERE clause, so
    #    the context-level frame cache factorises the columns only once.
    context = [{"column": "Continent", "op": "eq", "value": "Europe"}]
    batch = post(base, "/explain_batch", {
        "dataset": "SO",
        "queries": [
            {"exposure": "Country", "outcome": "Salary", "context": context},
            {"exposure": "EdLevel", "outcome": "Salary", "context": context},
            {"exposure": "DevType", "outcome": "Salary", "context": context},
        ],
        "k": 3,
    })
    print("Repeated-context batch:")
    for result in batch["results"]:
        explanation = result["envelope"]["explanation"]
        print(f"  {result['envelope']['query']['exposure']:>8} -> "
              f"{explanation['attributes']}")

    # 4. A thundering herd of one query: requests attach to the in-flight
    #    execution instead of recomputing.
    herd_query = {
        "dataset": "SO", "exposure": "EdLevel", "outcome": "Salary", "k": 2,
    }
    with ThreadPoolExecutor(max_workers=8) as pool:
        herd = list(pool.map(
            lambda _: post(base, "/explain", herd_query), range(8)))
    verdicts = {(one["cache_hit"], one["coalesced"]) for one in herd}
    print(f"\nHerd of 8 identical requests -> verdicts {sorted(verdicts)} "
          "(one execution, everyone else cache/in-flight)")

    # 5. What the serving layer did.
    stats = get(base, "/stats")
    cache = stats["cache"]
    counters = stats["contexts"]["SO"]["counters"]
    print(f"\nStats: cache {cache['hits']} hits / {cache['misses']} misses "
          f"(per dataset: {cache['by_dataset']}); "
          f"engine explained {counters['queries_explained']} queries, "
          f"frame cache {counters.get('frame_cache_hits', 0)} hits")
    if "batchers" in stats:
        batcher = stats["batchers"]["SO"]
        print(f"Batcher deduplicated {batcher['requests_deduplicated']} of "
              f"{batcher['requests_submitted']} submissions")
    if "data_plane" in stats:
        plane = stats["data_plane"]
        print(f"Data plane: {plane['requests']} engine requests over "
              f"{plane['n_workers']} replicas "
              f"({plane['workers_alive']} alive, "
              f"{plane['worker_restarts']} restarts)")
        print("Per-replica engine runs (each replica keeps its key range):")
        for worker_id, snapshot in sorted(stats["workers"].items()):
            worker_counters = snapshot["contexts"]["SO"]["counters"]
            print(f"  replica {worker_id}: "
                  f"{worker_counters.get('queries_explained', 0):>3} "
                  f"queries explained, "
                  f"{worker_counters.get('frame_cache_hits', 0):>3} "
                  f"frame cache hits")

    server.shutdown()
    server.server_close()
    client.close()


if __name__ == "__main__":
    main()
