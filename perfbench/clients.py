"""Closed-loop clients of the four workloads.

Every operation is one HTTP request through
:class:`repro.serving.client.HTTPClient`; its client-side interval (on the
``time.monotonic`` clock the traced server shares) and outcome land in an
:class:`Op`.  Each loop also takes one ``/stats`` snapshot at a fixed point
of its stream (the *counted prefix*): counters between the start of the
timed phase and that point depend only on code and seed, so two runs can
be compared exactly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import workloads
from reference import summary
from workloads import DATASET, K, Spec

#: Operations before the counted-prefix snapshot, per workload.
PREFIX_OPS = {"cold": 12, "rows": 4, "hot": 100}


@dataclass
class Op:
    kind: str  # "explain" | "append"
    key: str
    start: float
    end: float = 0.0
    trace_id: Optional[str] = None
    cache_hit: Optional[bool] = None
    error: Optional[str] = None
    summary: Optional[Dict] = None
    #: update: the append round the answer must reflect (0 = initial table).
    version: int = 0
    #: update: whether this explain must miss (first pass after an append).
    expect_miss: Optional[bool] = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    """What a timed phase produced."""

    ops: List[Op] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    prefix_stats: Optional[Dict] = None
    prefix_at: float = 0.0
    #: update: seconds from sending append_rows to the last miss answered.
    freshness: List[float] = field(default_factory=list)
    #: update: /stats after each round (context counters reset per append).
    round_stats: List[Dict] = field(default_factory=list)
    rounds: int = 0


def explain(client, spec: Spec, **extra) -> Op:
    op = Op("explain", spec.key, time.monotonic(), **extra)
    try:
        served = client.explain(DATASET, spec.query(), k=K)
        op.end = time.monotonic()
        op.trace_id = served.trace_id
        op.cache_hit = served.cache_hit
        op.summary = summary(served.envelope.to_dict())
    except Exception as error:  # every failure counts against the run
        op.end = time.monotonic()
        op.error = f"{type(error).__name__}: {error}"
    return op


def prewarm(client, specs: List[Spec]) -> List[Op]:
    return [explain(client, spec) for spec in specs]


def run_stream(client, stats_client, stream: List[Spec], seconds: float,
               prefix_ops: int) -> Phase:
    """cold / rows: one client walks the stream until time runs out."""
    phase = Phase(start=time.monotonic())
    deadline = phase.start + seconds
    for spec in stream:
        if time.monotonic() >= deadline:
            break
        phase.ops.append(explain(client, spec))
        if len(phase.ops) == prefix_ops:
            phase.prefix_at = time.monotonic()
            phase.prefix_stats = stats_client.stats()
    phase.end = time.monotonic()
    return phase


def run_hot(client_factory: Callable, stats_client, seed: int,
            seconds: float, threads: int = 2) -> Phase:
    """hot: ``threads`` closed-loop clients on the Zipf-skewed working set."""
    specs = workloads.hot_set()
    per_thread = PREFIX_OPS["hot"] // threads
    barrier = threading.Barrier(threads)
    phase = Phase()
    results: List[List[Op]] = [[] for _ in range(threads)]
    errors: List[Exception] = []

    def worker(index: int) -> None:
        client = client_factory()
        draws = workloads.zipf_draws(seed, index)
        try:
            for count, draw in enumerate(draws):
                if count == per_thread:
                    barrier.wait()
                    if index == 0:
                        phase.prefix_at = time.monotonic()
                        phase.prefix_stats = stats_client.stats()
                    barrier.wait()
                if count >= per_thread and time.monotonic() >= deadline:
                    break
                results[index].append(explain(client, specs[draw]))
        except Exception as error:
            errors.append(error)
            barrier.abort()
        finally:
            client.close()

    phase.start = time.monotonic()
    deadline = phase.start + seconds
    pool = [threading.Thread(target=worker, args=(index,))
            for index in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    phase.end = time.monotonic()
    if errors:
        raise errors[0]
    phase.ops = sorted((op for ops in results for op in ops),
                       key=lambda op: op.start)
    return phase


def run_update(client, stats_client, seed: int, seconds: float) -> Phase:
    """update: rounds of append, one missing pass and two hitting passes."""
    phase = Phase(start=time.monotonic())
    deadline = phase.start + seconds
    round_index = 0
    while round_index == 0 or time.monotonic() < deadline:
        round_index += 1
        rows = workloads.appended_rows(seed, round_index)
        append = Op("append", f"append-{round_index}", time.monotonic(),
                    version=round_index)
        try:
            client.append_rows(DATASET, rows, rewarm=False)
        except Exception as error:
            append.error = f"{type(error).__name__}: {error}"
        append.end = time.monotonic()
        phase.ops.append(append)
        order = workloads.update_order(seed, round_index)
        for spec in order:
            phase.ops.append(explain(client, spec, version=round_index,
                                     expect_miss=True))
        phase.freshness.append(phase.ops[-1].end - append.start)
        for _ in range(workloads.UPDATE_HIT_PASSES):
            for spec in order:
                phase.ops.append(explain(client, spec, version=round_index,
                                         expect_miss=False))
        if round_index == 1:
            phase.prefix_at = time.monotonic()
        phase.round_stats.append(stats_client.stats())
        if round_index == 1:
            phase.prefix_stats = phase.round_stats[-1]
    phase.rounds = round_index
    phase.end = time.monotonic()
    return phase
