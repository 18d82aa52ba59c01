"""The composable explanation engine.

This package is the public API of the reproduction's pipeline, redesigned
around three ideas:

1. **Staged pipeline** — the seven phases of the MESA pipeline are
   first-class :mod:`stage objects <repro.engine.stages>` composed by an
   :class:`ExplanationPipeline` over a shared :class:`PipelineContext` that
   owns the cross-query caches (extraction, offline pruning), per-stage
   counters and instrumentation hooks.
2. **Unified explainers** — every method (MESA, MESA-, and all baselines)
   sits behind the :class:`Explainer` protocol and a string-keyed registry
   (:func:`get_explainer`), so harnesses and servers treat methods as
   interchangeable values.
3. **Serializable results** — :class:`ExplanationEnvelope` is the
   JSON-safe, process-boundary form of a result
   (``to_dict``/``from_dict`` round-trip exactly).

The historical ``repro.mesa.MESA`` facade remains as a thin shim over this
engine.
"""

from repro.engine.context import PipelineContext, StageHook
from repro.engine.envelope import ExplanationEnvelope, query_descriptor
from repro.engine.pipeline import ExplanationPipeline
from repro.engine.registry import (
    BaselineExplainer,
    BruteForceExplainer,
    Explainer,
    MCIMRExplainer,
    MesaMinusExplainer,
    available_explainers,
    get_explainer,
    register_explainer,
)
from repro.engine.result import ExplanationResult
from repro.engine.stages import (
    CandidateStage,
    ExtractionStage,
    OfflinePruningStage,
    OnlinePruningStage,
    PipelineStage,
    QueryState,
    SearchStage,
    SelectionBiasStage,
    default_stages,
)

__all__ = [
    "PipelineContext",
    "StageHook",
    "ExplanationEnvelope",
    "query_descriptor",
    "ExplanationPipeline",
    "Explainer",
    "MCIMRExplainer",
    "MesaMinusExplainer",
    "BaselineExplainer",
    "BruteForceExplainer",
    "available_explainers",
    "get_explainer",
    "register_explainer",
    "ExplanationResult",
    "PipelineStage",
    "QueryState",
    "ExtractionStage",
    "CandidateStage",
    "OfflinePruningStage",
    "OnlinePruningStage",
    "SelectionBiasStage",
    "SearchStage",
    "default_stages",
]
