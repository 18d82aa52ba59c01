"""The MESA system facade — a thin shim over the explanation engine.

Historically this module *was* the pipeline: ``MESA.explain`` inlined the
seven stages of the paper.  The pipeline now lives in
:mod:`repro.engine` as composable stage objects
(:class:`~repro.engine.pipeline.ExplanationPipeline` over a shared
:class:`~repro.engine.context.PipelineContext`); :class:`MESA` remains for
backward compatibility and delegates every call to the engine, so existing
code — and results — are unchanged:

1. **Extraction** — mine candidate attributes from the knowledge source
   (cached across queries in the pipeline context).
2. **Candidate assembly** — the candidate set ``A``.
3. **Offline pruning** — constant / mostly-missing / identifier attributes.
4. **Online pruning** — logical dependencies with ``T``/``O`` and
   low-relevance attributes (query specific).
5. **Selection-bias handling** — recoverability analysis; IPW weights.
6. **MCIMR** — the explanation search with the responsibility-test
   stopping criterion.
7. **Responsibility** — per-attribute degree of responsibility.

New code should use the engine directly::

    from repro.engine import ExplanationPipeline
    pipeline = ExplanationPipeline(table, knowledge_graph, extraction_specs)
    result = pipeline.explain(query)            # one query
    results = pipeline.explain_many(queries)    # batch, caches shared

``MESAResult`` is an alias of :class:`repro.engine.result.ExplanationResult`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.subgroups import Subgroup, top_k_unexplained_groups
from repro.engine.pipeline import ExplanationPipeline
from repro.engine.result import ExplanationResult
from repro.exceptions import ConfigurationError
from repro.kg.extraction import ExtractionResult
from repro.kg.graph import KnowledgeGraph
from repro.mesa.config import MESAConfig
from repro.query.aggregate_query import AggregateQuery
from repro.table.table import Table

#: Backward-compatible name of the engine's result object.
MESAResult = ExplanationResult


class MESA:
    """The MESA system (back-compat facade over the engine).

    Parameters
    ----------
    table:
        The input dataset ``D``.
    knowledge_graph:
        The knowledge source candidate attributes are mined from; ``None``
        disables extraction (MESA then behaves like an input-only explainer).
    extraction_specs:
        Which columns to link against which entity classes (see
        :class:`repro.datasets.registry.ExtractionSpec`).
    config:
        Pipeline configuration.
    """

    def __init__(self, table: Table, knowledge_graph: Optional[KnowledgeGraph] = None,
                 extraction_specs: Sequence = (), config: Optional[MESAConfig] = None):
        self.table = table
        self.knowledge_graph = knowledge_graph
        self.extraction_specs = tuple(extraction_specs)
        self.config = config or MESAConfig()
        self.engine = ExplanationPipeline(
            table, knowledge_graph, self.extraction_specs, config=self.config)

    # ------------------------------------------------------------------ #
    # extraction (cached across queries in the engine context)
    # ------------------------------------------------------------------ #
    def augmented_table(self) -> Table:
        """The dataset joined with every extracted attribute (cached)."""
        return self.engine.context.augmented_table(self.config.hops)

    def extraction_results(self) -> List[ExtractionResult]:
        """Per-spec extraction results."""
        return self.engine.context.extraction_results(self.config.hops)

    def extracted_attribute_names(self) -> List[str]:
        """All attribute names added by extraction."""
        return self.engine.context.extracted_attribute_names(self.config.hops)

    # ------------------------------------------------------------------ #
    # pipeline
    # ------------------------------------------------------------------ #
    def explain(self, query: AggregateQuery, k: Optional[int] = None) -> MESAResult:
        """Run the full MESA pipeline for one query."""
        return self.engine.explain(query, k=k)

    def explain_many(self, queries: Sequence[AggregateQuery],
                     k: Optional[int] = None) -> List[MESAResult]:
        """Batch counterpart of :meth:`explain` (delegates to the engine)."""
        return self.engine.explain_many(queries, k=k)

    def unexplained_subgroups(self, result: MESAResult, k: int = 5,
                              threshold: Optional[float] = None,
                              refine_attributes: Optional[Sequence[str]] = None,
                              **kwargs) -> List[Subgroup]:
        """Algorithm 2: the largest data groups the explanation fails on.

        ``threshold`` defaults to twice the achieved explainability score (a
        group is "unexplained" when it retains clearly more dependence than
        the global explanation left behind), never below 0.1 bits.
        """
        if result.problem is None:
            raise ConfigurationError("The MESAResult does not carry its problem instance")
        if threshold is None:
            threshold = max(0.1, 2.0 * result.explanation.explainability)
        if refine_attributes is None:
            original_columns = set(self.table.column_names)
            refine_attributes = [
                name for name in result.problem.candidates
                if name in original_columns
                and not self.table.column(name).is_numeric()
            ]
        return top_k_unexplained_groups(
            result.problem, list(result.explanation.attributes), k=k,
            threshold=threshold, refine_attributes=refine_attributes, **kwargs,
        )
