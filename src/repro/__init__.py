"""repro: a reproduction of "On Explaining Confounding Bias" (ICDE 2023).

The package implements the MESA system and the MCIMR algorithm end to end —
aggregate-query model, knowledge-graph mining of candidate confounders,
information-theoretic explanation search, selection-bias handling and
unexplained-subgroup discovery — together with the substrates the paper
relies on (a columnar table engine, discrete information-theoretic
estimators, a synthetic DBpedia-like knowledge graph and synthetic versions
of the four evaluation datasets).

The public API is the **explanation engine** (:mod:`repro.engine`): a
staged pipeline over a shared cross-query context, a string-keyed registry
of interchangeable explainers, and JSON-serializable result envelopes.

Quickstart
----------

>>> from repro import ExplanationPipeline, load_dataset
>>> from repro.datasets import representative_queries
>>> bundle = load_dataset("Covid-19")
>>> pipeline = ExplanationPipeline(bundle.table, bundle.knowledge_graph,
...                                bundle.extraction_specs)
>>> result = pipeline.explain(representative_queries("Covid-19")[0].query)
>>> result.attributes          # doctest: +SKIP
('HDI', 'Confirmed_cases', ...)

Batches reuse the cross-query caches (extraction and offline pruning run
once for the whole batch, in ``pipeline.warm()``, timed as
``stage_seconds['warm']``), and results serialize for process boundaries:

>>> results = pipeline.explain_many([q.query for q in bundle.queries])  # doctest: +SKIP
>>> payload = results[0].to_envelope().to_json()                        # doctest: +SKIP

Any registered method runs behind the same surface:

>>> from repro import get_explainer
>>> explainer = get_explainer("top_k")
>>> explanation = explainer.explain(result.problem, k=3)  # doctest: +SKIP

Performance
-----------

Every CMI/MI/entropy estimate runs on the contingency-count kernel
(:mod:`repro.infotheory.kernel`): one weighted ``bincount`` per term
instead of four masked entropy calls, incremental joint coding of
conditioning sets (extending ``Z`` to ``Z ∪ {a}`` is one ``O(n)`` fuse
against cached codes), and batched candidate scoring
(:meth:`~repro.core.problem.CorrelationExplanationProblem.score_candidates`)
for the greedy search rounds.  The two dominant per-query inference costs
run on a unified batched backend: permutation-based independence tests on
one permutation driver (:mod:`repro.infotheory.permutation` — one count
kernel counts a block of permutations in one ``bincount``, one finaliser
turns the counts into null CMIs and one loop makes the sequential
decision, locally and on row shards alike; local p-values are
bit-identical to a per-permutation loop) and IPW selection fits on the
fit cache
(:mod:`repro.missingness.fitcache` — fits memoised by observed-mask hash +
design signature, uncached attributes batched into one multi-label IRLS
solve; ``context.counters['ipw_fit_hit']`` / ``['ipw_fit_miss']`` count
reuse, and ``context.stage_seconds['ipw_fit']`` /
``['permutation_test']`` carry the phase timings, surfaced by a serving
deployment via ``GET /stats``).  ``benchmarks/bench_perf.py`` records
these paths' timings and gates their work counters.  The knobs on
:class:`MESAConfig` controlling the permutation tests and the search:

* ``permutation_early_exit`` (default ``False``) — let the sequential
  test stop a permutation run as soon as the verdict is determined (a
  deterministic exceedance bracket that never flips the full-run verdict,
  plus a Clopper–Pearson bound for large budgets).  Verdicts are
  preserved, but the run counts — and therefore exact p-values — differ,
  so it is opt-in.  ``context.counters['perm_early_exit']`` /
  ``['perm_saved']`` report the exits and the permutations saved.
* ``max_responsibility_permutations`` (default ``0`` = off) — adaptive
  permutation budgets: a test whose verdict is still statistically
  uncertain when its base budget runs out (the Clopper–Pearson interval
  on the exceedance probability straddles ``alpha``) extends its budget
  geometrically up to this cap, while clear-cut tests exit early (the
  cap implies the sequential early exit).  Tests that never extend keep
  the fixed-budget verdict exactly; extended tests trade bit-identical
  p-values for verdicts resting on more permutations.
  ``context.counters['perm_budget_extended']`` /
  ``['perm_budget_saved']`` report the extensions and the permutations
  saved against always paying the base budget.
* ``permutation_rng_stream`` (default ``"legacy"``) — how stratified
  permutations are drawn.  ``"argsort"`` vectorises the draw (one
  uniform block + segmented stable argsort) and is several times faster
  on many-strata plans, but is a *different* documented RNG stream:
  p-values match the legacy per-stratum Fisher–Yates stream in
  distribution, not bit-for-bit.  Pair it with early exit or adaptive
  budgets, where exact run counts already vary.  Every kernel test draws
  from the configured stream, including the one-permutation-at-a-time
  path for code spaces too wide to count densely.
* ``speculative_search`` (default ``False``; serving turns it on) —
  pipeline MCIMR rounds: while round ``i``'s responsibility test runs, a
  worker thread speculatively scores round ``i+1``'s candidates against
  disjoint memo caches, so explanations stay bit-identical to the
  sequential schedule.  ``context.counters['speculation_hit']`` /
  ``['speculation_waste']`` count consumed and discarded speculations.

Repeated-context queries additionally hit the context-level encoded-frame
cache (``PipelineContext.context_frame``): two queries sharing a WHERE
clause filter the table and factorise each column only once, and share
the frame's estimate memo, so the exposure-free independence tests and
entropies of online pruning run once per context.

Serving
-------

The serving layer (:mod:`repro.serving`) turns the engine into a
long-lived service — the shape a production deployment under heavy query
traffic takes:

>>> from repro.serving import ExplanationService
>>> service = ExplanationService(cache_size=4096, ttl_seconds=None)
>>> service.register_bundle(load_dataset("SO"))      # doctest: +SKIP
>>> served = service.explain("SO", query)            # doctest: +SKIP
>>> served.envelope.to_json()                        # doctest: +SKIP

An :class:`~repro.serving.ExplanationService` keeps one warm
:class:`PipelineContext` per registered dataset, caches envelopes under a
canonical query key (bounded LRU + optional TTL; repeats serialize
byte-identically), and funnels cache misses through a per-dataset
micro-batcher that coalesces concurrent requests into single engine
batches and deduplicates identical in-flight queries.  Client-input
failures (zero-row contexts and other deterministic ``QueryError`` /
``ExplanationError`` verdicts) are negative-cached under the same key, so
hostile repeats never reach the engine (``service.negative_hit``).

Callers program against the transport-agnostic
:class:`~repro.serving.ExplanationClient` protocol — ``explain`` /
``explain_batch`` / ``stats`` / ``warm`` / ``close`` — with two
interchangeable implementations: :class:`~repro.serving.LocalClient`
(in-process service) and :class:`~repro.serving.HTTPClient` (stdlib JSON
client for any remote deployment, with per-thread keep-alive connections
and a single idempotent retry when a pooled socket turns out stale).

``ExplanationService(pool=ReplicaPool(n_workers=N))`` scales the
engine past one GIL: N engine replicas (:mod:`repro.distributed.
replicas`) each hold every registered dataset, and each cache miss runs
on the replica its canonical query key routes to by **stable hash**, so
every replica's prepared-state, frame and fit caches stay hot for exactly
its key range while the service keeps the one envelope cache, history,
jobs, health and metrics.  Misses queue in one micro-batcher per replica,
so a slow query on one replica never holds back another's.  A dead
replica is respawned by the next miss routed to it (the request is
retried; envelopes cached in the front survive), ``stats()`` folds the
replicas' engine counters into its ``contexts`` (monotonic across
restarts), and ``clear_cache`` bumps every replica — every canonical key
carries a **dataset version** that bumps on registration/invalidation,
so envelope, negative and frame caches in every process retire
coherently.  On the serving path the
permutation early exit is on by default (the p-value audit: nothing
consumes more than the boolean independence verdict, which the exit
provably never flips), and so is the speculative pipelined search (it is
bit-identical by construction); to serve with the engine defaults,
register a pre-built pipeline with ``ExplanationService.register``, which
never rewrites its configuration.
Adaptive budgets stay caller-opt-in even when serving — an extension can
replace a statistically uncertain verdict, which is a semantic change the
deployment must choose (``config.with_overrides(
max_responsibility_permutations=...)`` at registration).

``ExplanationService(pool=ShardPool(n_shards=N))`` scales the
**data** axis instead of the key axis: each registered table is split
into N contiguous row ranges,
one per shard worker, and the service's engine scatter-gathers the
row-sharded data plane (:mod:`repro.distributed`): per-shard partial
contingency counts summed before the entropy step (weighted bincounts
over fused codes are additive over row partitions, so estimates equal
the single-process engine's exactly), permutation tests run as the
local test's sharded case (each shard counts its permutations with the
local count kernel, and the coordinator sums them and applies the local
finaliser) stratified *within*
shards on chunk-aligned per-shard RNG streams (deterministic for a given
shard count, and provably identical between early-exit and full runs;
adaptive budget extensions request whole chunks, so an extended run
re-derives the exact draws a fixed run would have made — and the
``"argsort"`` stream, like the legacy one, draws each chunk from the
start of its per-chunk stream, so both streams stay shard-deterministic),
and IPW selection fits solved by distributed IRLS (per-shard ``X'WX`` /
``X'Wz`` partials, coefficients matching the local solver to 1e-7).
Every worker holds only ``O(rows / N)`` of the table, so the service
serves tables no single worker could hold; ``stats()`` reports the data
plane (``data_plane``) and each shard's role and resident row count
(``workers``), and ``health()`` reads ``degraded`` while a shard is down.
``python -m repro.serving --workers 4 --shard rows`` serves this topology
over the same HTTP API.

A stdlib JSON-over-HTTP front end serves **any** client — one process or
four engine replicas is just ``python -m repro.serving --dataset SO
--workers 4`` — exposing ``POST /explain``, ``POST /explain_batch``,
``POST /warm``, ``POST /clear_cache``, ``GET /stats`` and ``GET
/healthz`` (503 while any worker is down) with strict request validation
mapped to HTTP 400s and missing-data failures to 422.  See
``examples/serve_stackoverflow.py`` for an end-to-end tour, including the
``--workers`` replica demo with per-replica engine runs.  Each response
leaves in one write on a TCP_NODELAY socket, so a cache hit over a
keep-alive connection costs about 1.6 ms instead of the 44 ms that
Nagle's algorithm and the client's delayed ACK used to add, and the
listen backlog of 128 takes a burst of new connections without a 1 s
SYN retransmit (``repro.serving.http`` gives the measurements).

Memory
------

A replica pool would naively hold one private copy of every registered
table per process.  The **shared-memory frame store**
(:mod:`repro.shm`) removes that multiplier: the pool's owner packs each
dataset's encoded columns — numeric value/missing-mask arrays, categorical
code arrays plus their category tables — into POSIX shared segments
(``multiprocessing.shared_memory``) and ships workers a tiny *manifest*
instead of the pickled table.  Workers attach the named segments and map
their columns as **read-only numpy views**: zero copies, one physical page
set shared by every worker on the box.  ``warm()`` goes further and
pre-encodes the hot query contexts once in the owner, publishing each
:class:`~repro.infotheory.encoding.EncodedFrame` so workers adopt the
factorised code arrays instead of re-encoding the same columns N times.

The CLI turns the store **on for every worker pool** whenever POSIX
shared memory actually works (probed, not assumed — containers may mount
no ``/dev/shm``), and falls back to the classic copy path otherwise;
``python -m repro.serving --workers 8 --frame-store off`` opts out, and
``ReplicaPool(frame_store=True)`` is the programmatic knob.
A shard pool (``ShardPool(frame_store=True)``, which ``--shard rows``
builds unless ``--frame-store off``) publishes each context's columns
through a pool-owned store, so scatter-gather jobs ship refs instead of
array pickles.  Lifecycle rides the dataset version: invalidation
retires a generation of segments, which unlink once the last worker
detaches — readers mid-request finish on their old views (an unlinked
mapping stays valid until unmapped), and attachment never registers with
the ``multiprocessing`` resource tracker, so a SIGKILLed worker can never
unlink the dataset out from under its siblings while an owner crash still
cleans ``/dev/shm``.  Observability: ``stats()["frame_store"]`` reports
segment counts/bytes and frames published, per-worker ``maxrss_kb`` lands
in merged stats, and ``GET /metrics`` exposes
``repro_worker_maxrss_bytes``, ``repro_shm_segments``,
``repro_shm_segment_bytes`` and ``repro_frame_store_attach_total``.
``benchmarks/bench_memory.py`` measures the effect (per-worker RSS and
cold-start at 1 vs 4 workers, with and without the store) and CI gates
the 4-worker RSS ratio; ``BENCH_memory.baseline.json`` records the
committed baseline.

Two quieter pieces keep the footprint honest on wide tables.  Context
restriction uses **lazy filtered views** (``Table.filter_view``):
filtering a context no longer copies every column of the augmented
table — columns materialise on first access, so a query over a
300-column table touches the handful it reads and the excluded pad/id
columns never leave the shared pages.  Offline pruning judges columns
the same way, lazily per requested candidate, so identifier columns are
never scanned.  And per-worker ``maxrss_kb`` reads ``VmHWM`` from
``/proc/self/status`` rather than ``ru_maxrss``: on Linux the latter
survives ``fork`` *and* ``exec``, so a freshly spawned worker would
forever report the parent's peak.

Durability
----------

Nothing above survives a process death — the durability layer
(:mod:`repro.storage` + :mod:`repro.jobs`) fixes that with one storage
substrate.  ``ExplanationService(store="meta.sqlite3")`` (or ``python -m
repro.serving --store PATH``, in every topology) opens a
:class:`~repro.storage.MetaStore`: a WAL-mode SQLite
file owned by a single writer thread fed from a queue, so HTTP request
threads enqueue writes and never block on an fsync.  Three things live
in it:

* **A disk-backed envelope store** behind the in-memory TTL cache,
  keyed by (canonical query key, dataset version).  Cache misses fall
  through to disk before reaching the engine; computed envelopes are
  written behind asynchronously.  A restarted service re-warms from its
  own durably recorded query history — ``warm()`` replays the top-K
  queries of *previous* processes, so a crash costs a re-read, not a
  recompute (``benchmarks/bench_recovery.py`` gates the post-restart
  warm-hit ratio at >= 0.8 and byte-identity with the pre-restart run).
* **Resumable jobs.**  ``service.enable_jobs()`` (automatic in the CLI
  with ``--store``) runs ``explain_batch`` and ``warm`` as
  durable jobs with a PENDING -> RUNNING -> DONE/FAILED/CANCELLED state
  machine, heartbeats and owner-epoch crash recovery: every completed
  query streams its envelope into the store, so a SIGKILLed deployment
  restarted on the same path re-queues the stale RUNNING job and
  resumes from the completed prefix — zero recomputation, byte-identical
  results (the kill-mid-workload test in ``tests/test_durability.py``
  proves exactly this).  Over HTTP: ``POST /jobs`` -> id,
  ``GET /jobs/<id>`` (``?result=1`` inlines envelopes),
  ``DELETE /jobs/<id>`` cancels at the next query boundary; both
  clients grow ``submit_job`` / ``job_status`` / ``wait_job`` /
  ``cancel_job`` / ``list_jobs``.
* **Live datasets.**  ``append_rows(dataset, rows)`` grows a registered
  table in place: the dataset version bumps durably, every cache tier
  in every process retires coherently (engine replicas merge the
  appended rows or attach the merged table, a service over row shards
  re-partitions their ranges, frame-store generations retire), and a
  background re-warm job replays the recorded top-K queries against the
  new version — streaming scenarios like "explain this week's drift"
  need no re-registration.  ``POST /append_rows`` over HTTP.

Serving under SIGTERM/SIGINT is graceful: the signal drains in-flight
connections, checkpoints RUNNING jobs back to PENDING (their prefix
stays durable) and flushes the write-behind queue before exit.
``GET /metrics`` exposes the ``repro_jobs_*``, ``repro_envelope_store_*``
and ``repro_metastore_*`` families.

Observability
-------------

The whole stack is instrumented end to end (:mod:`repro.obs`) — and the
instrumentation is cheap enough to leave **on by default** (a no-op span
is one thread-local read; the CI benchmark ``benchmarks/bench_obs.py``
gates the measured overhead of per-request tracing on an engine-heavy
workload at <= 5%, recorded in ``BENCH_obs.json``).

* **Tracing** — every request gets a trace id; spans cover the pipeline
  stages, each permutation test (tagged with permutations run, early
  exits, budget extensions), IPW fit batches (cache hits/misses), frame
  encodes, envelope/negative cache lookups, micro-batcher queue wait and
  batch execution, and every replica/shard RPC.  Trace context propagates
  across process boundaries — replica and row-shard request frames carry
  the caller's ``(trace_id, parent_span_id)`` and ship their
  spans back in the reply — so one HTTP request renders as a single tree:
  front end -> ``rpc.*`` -> worker/shard spans.  ``GET /trace/<id>``
  serves the tree; ``"debug": true`` in an explain request inlines it in
  the response (``debug.trace``); spans live in a bounded in-memory LRU
  (:class:`repro.obs.trace.Tracer`).
* **Metrics** — a registry of counters, gauges and fixed-bucket latency
  histograms (:mod:`repro.obs.metrics`) absorbs the engine's per-context
  counters and stage timings, adds request/batch latency series, cache
  occupancy and hit ratios, queue depths and worker liveness; engine
  replicas' counters fold into the front's ``stats()`` — monotonic
  tallies of a dead replica's last snapshot are kept in a base, so
  lifetime counters never move backwards on a restart.
  ``GET /metrics`` serves the Prometheus text exposition (histograms with
  ``_bucket``/``_sum``/``_count`` plus estimated p50/p90/p99 gauges) from
  every topology.
* **Structured logs** — ``python -m repro.serving --log-level debug
  --log-json`` configures the ``repro.*`` logger hierarchy (the library
  itself never configures handlers or the root logger); requests slower
  than ``--slow-query-seconds`` (default 1s) emit one JSON line on
  ``repro.serving.slowlog`` carrying endpoint, dataset, duration and the
  trace id — grep the slow log, then pull the matching trace.

Migration note
--------------

The historical ``MESA`` facade still works unchanged — it is now a thin
shim delegating to the engine (``MESA(...).explain(query)`` is
``ExplanationPipeline(...).explain(query)``), and ``MESAResult`` is an
alias of :class:`repro.engine.result.ExplanationResult`.  Prefer the
engine for new code; the facade remains for the paper-shaped examples and
the unexplained-subgroup helper.
"""

from repro.core.explanation import Explanation
from repro.core.mcimr import mcimr
from repro.core.problem import CorrelationExplanationProblem
from repro.datasets.registry import DatasetBundle, load_dataset
from repro.engine import (
    ExplanationEnvelope,
    ExplanationPipeline,
    ExplanationResult,
    PipelineContext,
    available_explainers,
    get_explainer,
    register_explainer,
)
from repro.mesa.config import MESAConfig
from repro.mesa.system import MESA, MESAResult
from repro.query.aggregate_query import AggregateQuery
from repro.query.parser import parse_query
from repro.table.table import Table

__version__ = "1.1.0"

__all__ = [
    "Explanation",
    "mcimr",
    "CorrelationExplanationProblem",
    "DatasetBundle",
    "load_dataset",
    "ExplanationEnvelope",
    "ExplanationPipeline",
    "ExplanationResult",
    "PipelineContext",
    "available_explainers",
    "get_explainer",
    "register_explainer",
    "MESAConfig",
    "MESA",
    "MESAResult",
    "AggregateQuery",
    "parse_query",
    "Table",
    "__version__",
]
