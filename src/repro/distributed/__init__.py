"""Data planes across processes: engine replicas and row shards.

A registered table can be served two ways across processes.  The
*replica* plane (:class:`~repro.distributed.replicas.ReplicaPool`) runs N
engine replicas that each hold the whole table, and the serving front
routes every cache miss to one of them by canonical query key.  The
*row-shard* plane (:class:`~repro.distributed.coordinator.ShardPool`)
instead splits the table into contiguous row ranges, each owned by a
stateful shard worker process, and a query's information-theoretic work
units fan out as scatter-gather rounds:

* **counts** — every entropy/MI/CMI term reduces to one weighted
  contingency count over fused codes, and counts are additive over row
  partitions, so each worker returns the partial counts of its rows
  (:func:`repro.infotheory.kernel.cmi_counts` /
  :func:`~repro.infotheory.kernel.joint_counts`) and the coordinator
  performs one entropy step on their sum — an *exact* decomposition, not
  an approximation;
* **permutations** — the local test is the one-shard case: each worker
  counts permutations of its rows with the local count kernel, and the
  coordinator sums the counts, merges their bounds by max and applies
  the local finaliser (:mod:`repro.infotheory.permutation`).  Null
  distributions are stratified within (shard × stratum), a finer and
  equally valid stratification under the permutation null, with each
  shard consuming its own deterministic RNG stream
  (:func:`repro.utils.rng.derive_seed` over the shard index and chunk
  index), so verdicts are reproducible for a given shard count;
* **IRLS** — the IPW selection fits decompose per Newton step into
  per-shard ``X'WX`` / ``X'(s - p)`` partials
  (:func:`repro.missingness.logistic.logistic_partials`); the coordinator
  merges them and runs the local fit's own Newton loop
  (:func:`repro.missingness.logistic.drive_newton`: ridge penalty, solve,
  convergence), so it follows the same trajectory as
  :func:`repro.missingness.logistic.fit_logistic_multi` to numerical
  tolerance.

:class:`~repro.distributed.coordinator.ShardPool` owns the worker
processes, and :class:`~repro.distributed.counts.ShardCounts` is the
counts source a :class:`~repro.core.problem.CorrelationExplanationProblem`
uses to route its estimates through one.  Both pools start, replace and
stop their workers through the one lifecycle in
:mod:`repro.distributed.ipc`, and both plug into the one serving front:
``ExplanationService(pool=ShardPool(...))`` attaches the shard pool to
every pipeline it registers, ``ExplanationService(pool=ReplicaPool(...))``
sends every dataset to every replica.
"""

from repro.distributed.coordinator import ShardContext, ShardPool
from repro.distributed.counts import ShardCounts
from repro.distributed.ipc import WorkerDiedError, WorkerFaultError
from repro.distributed.partition import row_ranges
from repro.distributed.replicas import ReplicaPool

__all__ = [
    "ReplicaPool",
    "ShardContext",
    "ShardCounts",
    "ShardPool",
    "WorkerDiedError",
    "WorkerFaultError",
    "row_ranges",
]
