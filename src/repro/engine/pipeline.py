"""The staged explanation pipeline — the engine behind ``MESA.explain``.

An :class:`ExplanationPipeline` composes the first-class stages of
:mod:`repro.engine.stages` over a shared :class:`PipelineContext`:

* ``explain(query, k)`` runs the full pipeline for one query and returns an
  :class:`~repro.engine.result.ExplanationResult`;
* ``explain_many(queries, k)`` is the batch API: the context caches make
  extraction and offline pruning run exactly once for the whole batch (the
  paper's "across-queries" pre-processing, generalised);
* ``warm()`` builds that cross-query pre-processing up front, timed as the
  ``warm`` stage — the one pre-warm every batch, the serving tier and the
  engine replicas run;
* ``prepare(query)`` runs every stage up to (but not including) the search
  and memoises the resulting :class:`QueryState`, so several explainers can
  search the same prepared problem without re-running the pipeline;
* ``run_explainer(explainer, query, k)`` resolves an
  :class:`~repro.engine.registry.Explainer` against the prepared problem —
  honouring the explainer's configuration variant (e.g. MESA- prepares
  without pruning) — which is what the evaluation harness is built on;
* ``with_config(config)`` derives a pipeline for a configuration variant
  that shares this pipeline's context (and therefore its caches).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.explanation import Explanation
from repro.core.pruning import PruningResult
from repro.engine.context import PipelineContext
from repro.engine.result import ExplanationResult
from repro.engine.stages import PipelineStage, QueryState, default_stages
from repro.exceptions import ConfigurationError
from repro.kg.graph import KnowledgeGraph
from repro.engine.config import MESAConfig
from repro.obs import trace
from repro.query.aggregate_query import AggregateQuery
from repro.table.table import Table
from repro.utils.timing import Timer


class ExplanationPipeline:
    """The staged MESA pipeline over a shared cross-query context.

    Parameters
    ----------
    table:
        The input dataset ``D`` (ignored when ``context`` is given).
    knowledge_graph:
        The knowledge source; ``None`` disables extraction.
    extraction_specs:
        Which columns to link against which entity classes.
    config:
        Pipeline configuration (defaults to :class:`MESAConfig`).
    context:
        An existing :class:`PipelineContext` to share caches with; when
        given, ``table``/``knowledge_graph``/``extraction_specs`` must be
        omitted.
    stages:
        Custom stage list; defaults to :func:`default_stages`.
    max_prepared_states:
        Bound on the per-query prepared-state memo (LRU): a long query
        stream keeps at most this many problem instances alive instead of
        growing without bound.
    """

    def __init__(self, table: Optional[Table] = None,
                 knowledge_graph: Optional[KnowledgeGraph] = None,
                 extraction_specs: Sequence = (),
                 config: Optional[MESAConfig] = None,
                 context: Optional[PipelineContext] = None,
                 stages: Optional[Sequence[PipelineStage]] = None,
                 max_prepared_states: int = 64):
        if context is None:
            if table is None:
                raise ConfigurationError(
                    "ExplanationPipeline needs either a table or an existing context"
                )
            context = PipelineContext(table, knowledge_graph, extraction_specs)
        elif table is not None and table is not context.table:
            raise ConfigurationError(
                "Pass either a table or a context, not a different table alongside one"
            )
        self.context = context
        self.config = config or MESAConfig()
        self.stages: List[PipelineStage] = list(stages) if stages is not None \
            else default_stages()
        if max_prepared_states < 1:
            raise ConfigurationError(
                f"max_prepared_states must be >= 1, got {max_prepared_states}")
        self.max_prepared_states = max_prepared_states
        self._prepared: "OrderedDict[object, QueryState]" = OrderedDict()
        self._prepared_version = context.dataset_version
        self._variants: Dict[MESAConfig, "ExplanationPipeline"] = {}

    # ------------------------------------------------------------------ #
    # convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def table(self) -> Table:
        """The input dataset the pipeline explains queries over."""
        return self.context.table

    def prepared_states(self) -> int:
        """How many prepared query states the memo holds (at most
        ``max_prepared_states``)."""
        return len(self._prepared)

    def with_config(self, config: MESAConfig) -> "ExplanationPipeline":
        """A pipeline for a configuration variant sharing this context.

        Variant pipelines are memoised, so e.g. every MESA- run of a batch
        reuses one prepared-state cache.
        """
        if config == self.config:
            return self
        if config not in self._variants:
            self._variants[config] = ExplanationPipeline(
                context=self.context, config=config, stages=self.stages)
        return self._variants[config]

    # ------------------------------------------------------------------ #
    # staged execution
    # ------------------------------------------------------------------ #
    def warm(self) -> None:
        """Build the cross-query artefacts: the augmented table, then the
        offline-pruning verdicts of every candidate-eligible column.

        Idempotent (both are context caches).  Batches, the serving tier
        and engine replicas all pre-warm through this one call, which
        times itself as ``stage_seconds["warm"]`` under a
        ``stage.warm`` span, so pre-warm time is attributed like any stage.
        """
        config = self.config
        started = time.perf_counter()
        try:
            with trace.span("stage.warm"):
                augmented = self.context.augmented_table(config.hops)
                if config.use_offline_pruning:
                    # Verdicts are judged lazily per column, so warm exactly
                    # the columns queries can use as candidates — excluded
                    # (identifier) columns of a wide table are never scanned.
                    candidates = [name for name in augmented.column_names
                                  if name not in config.excluded_columns]
                    self.context.offline_pruning(
                        candidates, hops=config.hops,
                        max_missing_fraction=config.max_missing_fraction,
                        high_entropy_unique_ratio=config.high_entropy_unique_ratio)
        finally:
            self.context.add_seconds("warm", time.perf_counter() - started)

    def prepare(self, query: AggregateQuery) -> QueryState:
        """Run every non-search stage for the query (memoised per query).

        The returned state carries the prepared problem instance (pruned
        candidates, IPW weights applied) that any explainer can search.
        The memo holds states of the context's current dataset version
        only: a bump (``clear_cache()``, re-registration) empties it, so
        the next query re-runs its stages over fresh frames.
        """
        if self._prepared_version != self.context.dataset_version:
            self._prepared.clear()
            self._prepared_version = self.context.dataset_version
        key = self._query_key(query)
        state = self._prepared.get(key)
        if state is None:
            state = QueryState(query=query, config=self.config, k=self.config.k)
            for stage in self.stages:
                if stage.is_search:
                    continue
                self._run_stage(stage, state)
            self._prepared[key] = state
            while len(self._prepared) > self.max_prepared_states:
                self._prepared.popitem(last=False)
        else:
            self._prepared.move_to_end(key)
        return state

    def explain(self, query: AggregateQuery, k: Optional[int] = None) -> ExplanationResult:
        """Run the full pipeline for one query."""
        prepared = self.prepare(query)
        state = QueryState(
            query=prepared.query, config=self.config,
            k=k if k is not None else self.config.k,
            timer=Timer(durations=prepared.timer.as_dict()),
            augmented=prepared.augmented,
            extracted_names=list(prepared.extracted_names),
            candidate_set=prepared.candidate_set,
            candidates=list(prepared.candidates),
            # Copy the mutable pruning report so mutating a result cannot
            # corrupt the memoised prepared state (or other results).
            pruning=PruningResult(kept=list(prepared.pruning.kept),
                                  dropped=dict(prepared.pruning.dropped)),
            problem=prepared.problem,
            selection_bias_reports=list(prepared.selection_bias_reports),
            ipw_weights=dict(prepared.ipw_weights),
            search_cache=prepared.search_cache,
        )
        for stage in self.stages:
            if stage.is_search:
                self._run_stage(stage, state)
        self.context.count("queries_explained")
        return ExplanationResult(
            query=state.query,
            explanation=state.explanation,
            candidate_set=state.candidate_set,
            pruning=state.pruning,
            selection_bias_reports=state.selection_bias_reports,
            ipw_weights=state.ipw_weights,
            timings=state.timer.as_dict(),
            problem=state.problem,
            n_candidates_after_pruning=len(state.candidates),
        )

    def explain_many(self, queries: Iterable[AggregateQuery],
                     k: Optional[int] = None,
                     trace_captures: Optional[Sequence] = None,
                     ) -> List[ExplanationResult]:
        """Explain a batch of queries, amortising the cross-query work.

        Extraction and offline pruning run at most once for the whole batch
        (assertable via ``context.counters``); per-query stages still run
        per query, in query order.  Process-level fan-out is the serving
        tier's job (an ``ExplanationService`` over a
        :class:`~repro.distributed.replicas.ReplicaPool`).

        ``trace_captures`` (one :func:`repro.obs.trace.capture` per query,
        or ``None``) re-activates each query's originating trace around
        its engine run, so a batch coalesced from several traced requests
        attributes stage/test spans to the right request.
        """
        queries = list(queries)
        if len(queries) > 1:
            # Judge the whole candidate pool in one pruning pass so
            # per-query calls (whose candidate sets differ by their own
            # exposure/outcome) find every verdict cached.
            self.warm()
        results = []
        for index, query in enumerate(queries):
            captured = trace_captures[index] if trace_captures else None
            with trace.activation(captured):
                results.append(self.explain(query, k=k))
        return results

    def explain_many_envelopes(self, queries: Iterable[AggregateQuery],
                               k: Optional[int] = None,
                               trace_captures: Optional[Sequence] = None,
                               ) -> List["ExplanationEnvelope"]:
        """:meth:`explain_many`, with each result wrapped as an envelope.

        This is the method a serving tier or result cache should call —
        envelopes carry no live problem instances and round-trip through
        JSON.
        """
        from repro.engine.envelope import ExplanationEnvelope

        results = self.explain_many(queries, k=k,
                                    trace_captures=trace_captures)
        return [ExplanationEnvelope.from_result(result) for result in results]

    def run_explainer(self, explainer, query: AggregateQuery,
                      k: Optional[int] = None) -> Explanation:
        """Resolve an :class:`Explainer` against the prepared problem.

        The explainer's ``config_variant`` hook decides which pipeline
        configuration prepares its problem (MESA- asks for the no-pruning
        variant; everything else shares the default prepared state), and
        ``bind`` hands the pipeline configuration to explainers resolved
        without one — so the caller needs no per-method knowledge.
        Deterministic searches are memoised per prepared query via the
        explainer's ``cache_token`` (the pipeline's own search shares the
        cache, so ``explain`` followed by ``run_explainer("mesa")`` searches
        once).
        """
        variant = explainer.config_variant(self.config)
        pipeline = self.with_config(variant)
        explainer = explainer.bind(variant)
        state = pipeline.prepare(query)
        k = k if k is not None else self.config.k
        token = explainer.cache_token(k)
        if token is not None and token in state.search_cache:
            return state.search_cache[token]
        explanation = explainer.explain(state.problem, k=k)
        if token is not None:
            state.search_cache[token] = explanation
        return explanation

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _run_stage(self, stage: PipelineStage, state: QueryState) -> None:
        self.context.notify_stage_start(stage.name, state)
        start = time.perf_counter()
        try:
            with trace.span(f"stage.{stage.name}"):
                stage.run(state, self.context)
        finally:
            seconds = time.perf_counter() - start
            self.context.count(f"stage.{stage.name}")
            self.context.notify_stage_end(stage.name, state, seconds)

    @staticmethod
    def _query_key(query: AggregateQuery) -> object:
        try:
            hash(query)
        except TypeError:
            return id(query)
        return query
