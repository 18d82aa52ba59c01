"""Served-path benchmark of ``python -m repro.serving``.

Run from the checkout root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Each run starts the unmodified CLI as a child process, pre-warms it, then
drives one workload (see :mod:`workloads`) through
:class:`repro.serving.client.HTTPClient` in a closed loop for ``--seconds``
and checks every answer against a fresh in-process engine
(:mod:`reference`).  It prints a report, then, as its last line, one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
benchmark tracing; set-up launches the server ``SETUP_LAUNCHES`` times and
reports the median time to a healthy ``/healthz`` plus the pre-warm.  With
``--trace 1`` the workload runs twice on one launch each, plain and under
``perfbench/launcher.py``, and the metrics are the per-layer ones reduced
from the traced run (:mod:`reduce`) plus the tracing overhead.

Every run also records the work counters of ``/stats`` over a fixed prefix
of its stream and flags any that differ from an earlier run with the same
code and seed (and, with ``--trace 1``, between the two passes).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("cold", "hot", "update", "rows")
SETUP_LAUNCHES = 2
REQUEST_TIMEOUT = 120.0
#: Tail percentile per workload: the highest of p99/p90/p75 with at least
#: ten samples beyond it at the workload's usual length in a 10 s run.
TAIL_PCT = {"cold": 75, "hot": 90, "update": 75, "rows": 75}
END_TO_END_UNITS = {
    "setup_s": "s", "throughput_qps": "ops/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "success_rate": "ratio", "cpu_ms_per_op": "ms",
    "peak_rss_mib": "MiB", "freshness_s": "s",
}
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")
#: The environment as found.  Servers get it unchanged, so the program's own
#: BLAS thread policy is what gets measured, except on ``rows``: there the
#: front process and two shard workers share two cores, and multi-threaded
#: BLAS made the same four pre-warm queries take 15 to 51 s from run to run.
#: The benchmark process pins BLAS to one thread for its reference engines.
FOUND_ENVIRON = dict(os.environ)
PINNED_BLAS = {name: "1" for name in BLAS_VARIABLES}


@dataclass
class Measurement:
    """One launch-and-drive of a workload."""

    healthz_s: List[float]
    prewarm_window: Tuple[float, float]
    warm_ops: list
    phase: object
    stats_before: Dict
    stats_after: Dict
    probe_before: Dict
    probe_after: Dict
    spans: Optional[list] = None
    wrong: List[str] = field(default_factory=list)
    references_computed: int = 0
    check_s: float = 0.0

    @property
    def prewarm_s(self) -> float:
        return self.prewarm_window[1] - self.prewarm_window[0]

    @property
    def wall(self) -> float:
        return max(1e-9, self.phase.end - self.phase.start)

    @property
    def completed(self) -> int:
        return sum(op.error is None for op in self.phase.ops)

    @property
    def attempted(self) -> int:
        return len(self.warm_ops) + len(self.phase.ops)

    @property
    def failed(self) -> int:
        errors = sum(op.error is not None
                     for op in self.warm_ops + self.phase.ops)
        return errors + len(self.wrong)

    @property
    def throughput(self) -> float:
        return self.completed / self.wall

    @property
    def cpu_s(self) -> float:
        return self.probe_after["cpu_s"] - self.probe_before["cpu_s"]


def server_environ(workload: str) -> Dict[str, str]:
    if workload == "rows":
        return {**FOUND_ENVIRON, **PINNED_BLAS}
    return dict(FOUND_ENVIRON)


def server_args(workload: str, store: Path) -> List[str]:
    args = ["--dataset", "SO"]
    if workload == "update":
        args += ["--store", str(store)]
    if workload == "rows":
        args += ["--workers", "2", "--shard", "rows", "--frame-store", "auto"]
    return args


def prewarm_specs(workload: str):
    import workloads

    return {"cold": workloads.openers, "rows": workloads.openers,
            "hot": workloads.hot_set,
            "update": workloads.update_set}[workload]()


def remove_store(store: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        Path(str(store) + suffix).unlink(missing_ok=True)


def measure(workload: str, seed: int, seconds: float, launches: int,
            spans_out: Optional[Path] = None) -> Measurement:
    """Launch (``launches`` times), pre-warm, drive and stop the server."""
    import clients
    import workloads
    from repro.serving.client import HTTPClient
    from server import Server

    store = WORK / f"store-{os.getpid()}.sqlite3"
    healthz: List[float] = []
    server = None
    for launch in range(launches):
        remove_store(store)
        last = launch == launches - 1
        server = Server(ROOT, server_args(workload, store),
                        server_environ(workload),
                        spans_out=spans_out if last else None)
        try:
            healthz.append(server.wait_healthy(HTTPClient))
        except BaseException:
            server.stop()
            raise
        if not last:
            server.stop()
    client = HTTPClient(server.url, timeout=REQUEST_TIMEOUT)
    stats_client = HTTPClient(server.url, timeout=REQUEST_TIMEOUT)
    try:
        started = time.monotonic()
        warm_ops = clients.prewarm(client, prewarm_specs(workload))
        prewarm_window = (started, time.monotonic())
        stats_before, probe_before = stats_client.stats(), server.probe()
        if workload == "hot":
            phase = clients.run_hot(
                lambda: HTTPClient(server.url, timeout=REQUEST_TIMEOUT),
                stats_client, seed, seconds)
        elif workload == "update":
            phase = clients.run_update(client, stats_client, seed, seconds)
        else:
            phase = clients.run_stream(client, stats_client,
                                      workloads.cold_stream(seed), seconds,
                                      clients.PREFIX_OPS[workload])
        probe_after, stats_after = server.probe(), stats_client.stats()
    finally:
        client.close()
        stats_client.close()
        server.stop()
        remove_store(store)
    spans = None
    if spans_out is not None:
        spans = json.loads(spans_out.read_text())["spans"]
        spans_out.unlink()
    return Measurement(healthz, prewarm_window, warm_ops, phase, stats_before,
                       stats_after, probe_before, probe_after, spans)


def check(workload: str, seed: int, result: Measurement) -> None:
    """Compare every served answer with the reference; fill ``wrong``."""
    import workloads
    from reference import References, mismatch

    started = time.monotonic()
    ops = [op for op in result.warm_ops + result.phase.ops
           if op.kind == "explain" and op.error is None]
    by_version: Dict[int, list] = {}
    for op in ops:
        by_version.setdefault(op.version, []).append(op)
    shards = 2 if workload == "rows" else 1
    specs = {spec.key: spec for spec in workloads.universe()}
    for version, version_ops in sorted(by_version.items()):
        tag = ("base" if version == 0 else
               f"update-rows{workloads.row_set(seed)}-v{version}")
        appended = [workloads.appended_rows(seed, index)
                    for index in range(1, version + 1)]
        references = References(ROOT, tag, shards=shards, appended=appended)
        answers = references.get_many([specs[op.key] for op in version_ops])
        result.references_computed += references.computed
        for op in version_ops:
            reason = mismatch(op.summary, answers[op.key])
            if reason is None and op.expect_miss is not None \
                    and op.cache_hit == op.expect_miss:
                reason = (f"cache_hit={op.cache_hit} at version {version}, "
                          f"expected {'a miss' if op.expect_miss else 'a hit'}")
            if reason is not None:
                result.wrong.append(f"{op.key}: {reason}")
    result.check_s = time.monotonic() - started


def end_to_end(workload: str, result: Measurement) -> Dict[str, float]:
    from stats import percentile

    latencies = [op.latency for op in result.phase.ops
                 if op.kind == "explain" and op.error is None]
    # On update, the time from append_rows until the hot queries answer at
    # the new version.  The other workloads never change their data, so
    # every answer is at the current version and its freshness lag is the
    # time the answer takes to reach the client: the mean latency.
    freshness = (statistics.median(result.phase.freshness)
                 if workload == "update" else statistics.fmean(latencies))
    return {
        "setup_s": statistics.median(result.healthz_s) + result.prewarm_s,
        "throughput_qps": result.throughput,
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_tail_ms": 1000.0 * percentile(latencies, TAIL_PCT[workload]),
        "success_rate": 1.0 - result.failed / result.attempted,
        "cpu_ms_per_op": 1000.0 * result.cpu_s / max(1, result.completed),
        "peak_rss_mib": result.probe_after["peak_rss_mib"],
        "freshness_s": freshness,
    }


def prefix_counters(result: Measurement) -> Dict[str, float]:
    """Deterministic counters over the counted prefix of the stream."""
    from stats import DETERMINISTIC, phase_counters

    phase = result.phase
    if phase.prefix_stats is None:
        return {}
    rounds = [phase.prefix_stats] if phase.round_stats else ()
    counters = phase_counters(result.stats_before, phase.prefix_stats, rounds)
    picked = {name: counters.get(name, 0.0) for name in DETERMINISTIC}
    if result.spans is not None:
        picked["newton_iters"] = float(sum(
            (span[5] or {}).get("newton_iters", 0) for span in result.spans
            if span[0] in ("missingness.logistic.fit",
                           "distributed.coordinator.irls")
            and phase.start <= span[1] and span[2] <= phase.prefix_at))
    return picked


def repeat_check(key: str, counters: Dict[str, float]) -> Optional[List[str]]:
    """Counters that differ from an earlier run with the same key (None if
    this is the first run with the key)."""
    path = WORK / "counters.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    earlier = seen.get(key)
    differing = [] if earlier is None else sorted(
        name for name in set(earlier) & set(counters)
        if earlier[name] != counters[name])
    if earlier is None:
        seen[key] = counters
        scratch = path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(scratch, path)
        return None
    return differing


def environment() -> Dict[str, str]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
            capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    from reference import source_digest

    info = {"nproc": str(os.cpu_count()), "numpy": numpy.__version__,
            "python": sys.version.split()[0], "commit": commit,
            "source_digest": source_digest(ROOT)}
    for name in BLAS_VARIABLES:
        info[name] = FOUND_ENVIRON.get(name, "(unset)")
    return info


def report(workload: str, result: Measurement, label: str,
           counters: Dict[str, float]) -> None:
    phase = result.phase
    explains = [op for op in phase.ops if op.kind == "explain"]
    print(f"[{label}] launches to /healthz: "
          + ", ".join(f"{value:.3f}s" for value in result.healthz_s)
          + f"; pre-warm {len(result.warm_ops)} queries in "
          f"{result.prewarm_s:.3f}s")
    print(f"[{label}] timed phase {result.wall:.3f}s: {len(phase.ops)} ops "
          f"({len(explains)} explains, "
          f"{sum(op.cache_hit is True for op in explains)} cache hits), "
          f"{len(phase.ops) - result.completed} failed, "
          f"{len(result.wrong)} wrong; {result.references_computed} "
          f"references computed, check took {result.check_s:.1f}s")
    print(f"[{label}] server tree: cpu {result.cpu_s:.3f}s, "
          f"peak rss {result.probe_after['peak_rss_mib']:.1f} MiB, "
          f"threads {result.probe_after['threads']:.0f}")
    if workload == "update":
        print(f"[{label}] freshness per round: " + ", ".join(
            f"{value:.3f}s" for value in phase.freshness))
    if counters:
        n_prefix = max(1, sum(op.end <= phase.prefix_at for op in phase.ops))
        print(f"[{label}] counted prefix ({n_prefix} ops), per op: "
              + ", ".join(f"{name}={value / n_prefix:.4g}"
                          for name, value in sorted(counters.items())))
    for op in result.warm_ops + phase.ops:
        if op.error is not None:
            print(f"[{label}] FAILED {op.key}: {op.error}")
    for line in result.wrong:
        print(f"[{label}] WRONG {line}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "serving" / "__main__.py").exists():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_BLAS)  # before numpy loads, for references
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)

    info = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g}s per timed phase, trace {args.trace}")
    key = f"{info['source_digest']}|{args.workload}|{args.seed}"
    if args.trace:
        passes = [("plain", measure(args.workload, args.seed, args.seconds,
                                    launches=1))]
        spans_out = WORK / f"spans-{os.getpid()}.json"
        passes.append(("traced", measure(args.workload, args.seed,
                                         args.seconds, launches=1,
                                         spans_out=spans_out)))
    else:
        passes = [("plain", measure(args.workload, args.seed, args.seconds,
                                    launches=SETUP_LAUNCHES))]

    flagged: List[str] = []
    prefix = {}
    for label, result in passes:
        check(args.workload, args.seed, result)
        prefix[label] = prefix_counters(result)
        report(args.workload, result, label, prefix[label])
    plain = passes[0][1]
    differing = repeat_check(key, prefix["plain"])
    if differing is None:
        flagged.append("first run with this code and seed, recorded")
    elif differing:
        flagged.append("DIFFER from an earlier run: " + ", ".join(differing))
    if args.trace:
        traced_counters = {name: value for name, value
                           in prefix["traced"].items() if name in prefix["plain"]}
        between = sorted(name for name, value in traced_counters.items()
                         if prefix["plain"][name] != value)
        if between:
            flagged.append("DIFFER between plain and traced passes: "
                           + ", ".join(between))
    print("counted-prefix counters: "
          + ("; ".join(flagged) if flagged else "repeat exactly"))

    results = [result for _, result in passes]
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    metrics: Dict[str, Dict[str, object]] = {}
    e2e = end_to_end(args.workload, plain)
    samples = sum(op.kind == "explain" for op in plain.phase.ops)
    beyond = int(samples * (100 - TAIL_PCT[args.workload]) / 100)
    print(f"latency_tail_ms is p{TAIL_PCT[args.workload]} of {samples} "
          f"samples ({beyond} beyond it)")
    for name, value in e2e.items():
        print(f"  {name:22s} {value:14.4f} {END_TO_END_UNITS[name]}")
    if args.trace:
        from reduce import PER_LAYER_UNITS, reduce
        from stats import phase_counters

        traced = passes[1][1]
        phase = traced.phase
        counters = phase_counters(traced.stats_before, traced.stats_after,
                                  phase.round_stats)
        layer, lines = reduce(phase.ops, traced.spans,
                              (phase.start, phase.end), counters,
                              traced.stats_after, traced.cpu_s,
                              TAIL_PCT[args.workload])
        layer["obs.trace_overhead_qps"] = traced.throughput - plain.throughput
        print(f"per-layer attribution ({args.workload}, traced pass, "
              f"{len(phase.ops)} ops):")
        for line in lines:
            print("  " + line)
        print(f"server time no wrapped layer covers: "
              f"{100 * layer['obs.uncovered_share']:.2f}% of op latency")
        _, warm_lines = reduce(traced.warm_ops, traced.spans,
                               traced.prewarm_window, {}, {}, 0.0,
                               TAIL_PCT[args.workload])
        print(f"per-layer attribution of the set-up pre-warm "
              f"({len(traced.warm_ops)} queries):")
        for line in warm_lines:
            print("  " + line)
        print(f"tracing overhead: {layer['obs.trace_overhead_qps']:+.4f} "
              f"ops/s (traced {traced.throughput:.4f} vs plain "
              f"{plain.throughput:.4f})")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:42s} {layer[name]:14.6g} {unit}")
            metrics[name] = {"value": layer[name], "unit": unit}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
