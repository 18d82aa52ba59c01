"""``python -m repro.serving`` — serve registry datasets over HTTP.

Loads evaluation datasets (synthetic table + knowledge graph) from
:mod:`repro.datasets.registry` and serves the JSON API until interrupted.
Every topology is one :class:`~repro.serving.service.ExplanationService`
behind a :class:`~repro.serving.client.LocalClient` and the same HTTP
handler; the ``--workers`` and ``--shard`` flags pick the pool behind it:

* ``--workers 1`` (default) — no pool: the engine runs in process;
* ``--workers N`` — a :class:`~repro.distributed.replicas.ReplicaPool` of
  N engine replicas: each cache miss runs on the replica its canonical
  query key routes to (by stable hash), so each replica's caches stay hot
  for its key range and compute scales past one GIL, while the service
  keeps one envelope cache of ``--cache-size`` x N entries;
* ``--workers N --shard rows`` — a
  :class:`~repro.distributed.coordinator.ShardPool` of N workers that
  shard the *data* instead of the requests: each holds one contiguous row
  range and answers partial-count / partial-IRLS jobs, so the service can
  serve tables no single worker could hold in memory.

``--store`` (durable envelopes, jobs, live appends) and ``--coalesce-window``
apply to every topology alike.

::

    PYTHONPATH=src python -m repro.serving --dataset SO --port 8080 --workers 4

    PYTHONPATH=src python -m repro.serving --dataset SO --rows 200000 \
        --workers 4 --shard rows

    curl -s localhost:8080/healthz
    curl -s -X POST localhost:8080/explain -d '{
        "dataset": "SO",
        "sql": "SELECT Country, avg(Salary) FROM SO GROUP BY Country",
        "k": 3
    }'
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.distributed.coordinator import ShardPool
from repro.distributed.replicas import ReplicaPool
from repro.engine.config import MESAConfig
from repro.obs.logs import JsonLogFormatter
from repro.serving.client import LocalClient
from repro.serving.http import serve_forever
from repro.serving.service import ExplanationService

_LOG_LEVELS = ("debug", "info", "warning", "error")


def configure_logging(level: str = "info", log_json: bool = False) -> None:
    """Attach a stderr handler to the ``repro`` logger hierarchy.

    Called only from this entry point: the library itself logs under
    ``repro.*`` but never configures handlers or touches the root logger,
    so embedding applications keep full control of their logging setup.
    Idempotent — rerunning replaces the handler instead of stacking one.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level.upper()))
    logger.propagate = False
    handler = logging.StreamHandler(sys.stderr)
    if log_json:
        handler.setFormatter(JsonLogFormatter())
    else:
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s %(message)s"))
    for old in list(logger.handlers):
        logger.removeHandler(old)
    logger.addHandler(handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dataset", choices=DATASET_NAMES, action="append",
                        dest="datasets", default=None,
                        help="Dataset(s) to register (repeatable; default SO)")
    parser.add_argument("--rows", type=int, default=None,
                        help="Row count for the row-parameterised datasets")
    parser.add_argument("--seed", type=int, default=7,
                        help="Generator seed for the synthetic data")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="Listen port (0 picks a free one)")
    parser.add_argument("--workers", type=int, default=1,
                        help="Worker processes behind the service: 1 = the "
                             "engine runs in process, N > 1 = a pool of N "
                             "workers (see --shard)")
    parser.add_argument("--shard", choices=("keys", "rows"), default="keys",
                        help="What the N workers split: 'keys' runs engine "
                             "replicas that each hold the data and take the "
                             "cache misses their query keys route to; 'rows' "
                             "splits each table into row ranges and "
                             "scatter-gathers partial counts (needs "
                             "--workers > 1)")
    parser.add_argument("--start-method", choices=("fork", "spawn"),
                        default=None,
                        help="Worker start method (default: fork where "
                             "available, else spawn)")
    parser.add_argument("--frame-store", choices=("auto", "off"),
                        default="auto",
                        help="Shared-memory frame store: hold the encoded "
                             "dataset in POSIX shared segments that workers "
                             "map read-only instead of copying ('auto' = on "
                             "for --workers > 1 when /dev/shm works; "
                             "silently falls back to the copy path "
                             "otherwise)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="SQLite path for the durable metastore: "
                             "envelopes survive restarts (warm-start), "
                             "POST /jobs and POST /append_rows come alive, "
                             "and killed jobs resume from their completed "
                             "prefix on the next start")
    parser.add_argument("--cache-size", type=int, default=4096,
                        help="Explanation-cache entries per worker: the "
                             "service's one cache holds --cache-size x "
                             "--workers envelopes over a replica pool")
    parser.add_argument("--ttl", type=float, default=None,
                        help="Optional TTL (seconds) for cached explanations")
    parser.add_argument("--coalesce-window", type=float, default=0.005,
                        help="Micro-batching window in seconds of the "
                             "service's batchers (one per dataset, or one "
                             "per replica and dataset)")
    parser.add_argument("--log-level", choices=_LOG_LEVELS, default="info",
                        help="Verbosity of the repro.* loggers")
    parser.add_argument("--log-json", action="store_true",
                        help="Emit one JSON object per log line (machine-"
                             "readable; the slow-query log is always "
                             "structured)")
    parser.add_argument("--slow-query-seconds", type=float, default=1.0,
                        help="Log requests slower than this many seconds to "
                             "the structured slow-query log (<= 0 disables)")
    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level, log_json=args.log_json)
    log = logging.getLogger("repro.serving")
    datasets = args.datasets or ["SO"]
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    bundles = [load_dataset(name, seed=args.seed, n_rows=args.rows)
               for name in dict.fromkeys(datasets)]
    configs = {bundle.name: MESAConfig(
        excluded_columns=tuple(bundle.id_columns)) for bundle in bundles}

    pool = None
    cache_size = args.cache_size
    if args.workers > 1:
        frame_store = args.frame_store != "off"
        if args.shard == "rows":
            log.info("starting %d row-shard worker processes", args.workers)
            pool = ShardPool(n_shards=args.workers,
                             start_method=args.start_method,
                             frame_store=frame_store)
        else:
            log.info("starting %d engine replicas", args.workers)
            pool = ReplicaPool(n_workers=args.workers,
                               start_method=args.start_method,
                               frame_store=frame_store)
            cache_size *= args.workers
    service = ExplanationService(
        cache_size=cache_size, ttl_seconds=args.ttl,
        coalesce_window_seconds=args.coalesce_window, store=args.store,
        pool=pool)
    for bundle in bundles:
        log.info("registering %s (%d rows) and warming the cross-query "
                 "caches", bundle.name, bundle.table.n_rows)
        service.register_bundle(bundle, config=configs[bundle.name])
    if args.store is not None:
        service.enable_jobs()
    client = LocalClient(service)
    slow = args.slow_query_seconds if args.slow_query_seconds > 0 else None
    serve_forever(client, host=args.host, port=args.port,
                  slow_query_seconds=slow,
                  install_signal_handlers=True)


if __name__ == "__main__":
    main()
