"""JSON-serializable result envelopes for batch and serving workloads.

An :class:`ExplanationEnvelope` is the process-boundary form of an
explanation result: unlike :class:`~repro.engine.result.ExplanationResult`
it carries no live problem instance, table or weight vectors — only plain
data (strings, numbers, dicts, tuples) — so it survives
``json.dumps``/``json.loads``, a result cache, or a queue between a worker
and a serving tier.  ``to_dict``/``from_dict`` round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.explanation import Explanation
from repro.exceptions import ExplanationError
from repro.query.aggregate_query import AggregateQuery

#: Bumped whenever the envelope's dict layout changes incompatibly.
ENVELOPE_SCHEMA_VERSION = 1


def query_descriptor(query: AggregateQuery) -> Dict[str, Optional[str]]:
    """A plain-string description of an aggregate query (one-way)."""
    return {
        "exposure": query.exposure,
        "outcome": query.outcome,
        "aggregate": query.aggregate,
        "context": repr(query.context),
        "table_name": query.table_name,
        "name": query.name,
        "sql": query.to_sql(),
    }


@dataclass(frozen=True)
class ExplanationEnvelope:
    """A serializable explanation result.

    Attributes
    ----------
    explanation:
        The :class:`Explanation` (fully reconstructed on ``from_dict``).
    query:
        Plain-string descriptor of the explained query (see
        :func:`query_descriptor`); the live predicate object is not
        serialized.
    timings:
        Per-phase wall-clock seconds of the producing pipeline run.
    pruning_kept / pruning_dropped:
        The pruning report: surviving candidates and ``attribute -> rule``
        for the dropped ones.
    biased_attributes:
        Attributes for which selection bias was detected (IPW-corrected).
    extracted_attributes:
        Selected attributes that came from the knowledge source.
    n_candidates:
        Candidate-set size after pruning.
    schema_version:
        Layout version for forward-compatible consumers.
    """

    explanation: Explanation
    query: Dict[str, Optional[str]] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    pruning_kept: Tuple[str, ...] = ()
    pruning_dropped: Dict[str, str] = field(default_factory=dict)
    biased_attributes: Tuple[str, ...] = ()
    extracted_attributes: Tuple[str, ...] = ()
    n_candidates: int = 0
    schema_version: int = ENVELOPE_SCHEMA_VERSION

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the dict
        # fields; hash the canonical JSON rendering instead so envelopes
        # work as cache keys and in sets.
        return hash(self.to_json(sort_keys=True))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_result(cls, result) -> "ExplanationEnvelope":
        """Build the envelope of an :class:`ExplanationResult`."""
        extracted = tuple(a for a in result.explanation.attributes
                          if result.candidate_set.is_extracted(a))
        return cls(
            explanation=result.explanation,
            query=query_descriptor(result.query),
            timings=dict(result.timings),
            pruning_kept=tuple(result.pruning.kept),
            pruning_dropped=dict(result.pruning.dropped),
            biased_attributes=tuple(result.biased_attributes()),
            extracted_attributes=extracted,
            n_candidates=result.n_candidates_after_pruning,
        )

    @classmethod
    def from_explanation(cls, explanation: Explanation,
                         query: Optional[AggregateQuery] = None,
                         timings: Optional[Mapping[str, float]] = None,
                         ) -> "ExplanationEnvelope":
        """Wrap a bare :class:`Explanation` (e.g. from a baseline explainer)."""
        return cls(
            explanation=explanation,
            query=query_descriptor(query) if query is not None else {},
            timings=dict(timings or {}),
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-data rendering; safe for ``json.dumps``."""
        explanation = self.explanation
        return {
            "schema_version": self.schema_version,
            "query": dict(self.query),
            "explanation": {
                "method": explanation.method,
                "attributes": list(explanation.attributes),
                "explainability": float(explanation.explainability),
                "baseline_cmi": float(explanation.baseline_cmi),
                "objective": float(explanation.objective),
                "responsibilities": {name: float(value) for name, value
                                     in explanation.responsibilities.items()},
                "runtime_seconds": float(explanation.runtime_seconds),
                "trace": [[attribute, float(score)]
                          for attribute, score in explanation.trace],
            },
            "timings": {name: float(seconds) for name, seconds in self.timings.items()},
            "pruning": {"kept": list(self.pruning_kept),
                        "dropped": dict(self.pruning_dropped)},
            "biased_attributes": list(self.biased_attributes),
            "extracted_attributes": list(self.extracted_attributes),
            "n_candidates": self.n_candidates,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExplanationEnvelope":
        """Reconstruct an envelope from :meth:`to_dict` output.

        The payload's ``schema_version`` (absent means 1, the pre-field
        layout) must be one this build can read; durably stored envelopes
        written by a *newer* build raise a clear error instead of being
        silently misparsed.
        """
        version = data.get("schema_version", 1)
        if not isinstance(version, int) or isinstance(version, bool) \
                or not 1 <= version <= ENVELOPE_SCHEMA_VERSION:
            raise ExplanationError(
                f"unsupported envelope schema_version {version!r}: this "
                f"build reads versions 1..{ENVELOPE_SCHEMA_VERSION}; the "
                "envelope was likely written by a newer build")
        raw = data.get("explanation", {})
        explanation = Explanation(
            attributes=tuple(raw.get("attributes", ())),
            explainability=float(raw.get("explainability", 0.0)),
            baseline_cmi=float(raw.get("baseline_cmi", 0.0)),
            objective=float(raw.get("objective", 0.0)),
            responsibilities={str(k): float(v)
                              for k, v in raw.get("responsibilities", {}).items()},
            method=str(raw.get("method", "mcimr")),
            runtime_seconds=float(raw.get("runtime_seconds", 0.0)),
            trace=tuple((str(attribute), float(score))
                        for attribute, score in raw.get("trace", ())),
        )
        pruning = data.get("pruning", {})
        return cls(
            explanation=explanation,
            query={str(k): v for k, v in data.get("query", {}).items()},
            timings={str(k): float(v) for k, v in data.get("timings", {}).items()},
            pruning_kept=tuple(pruning.get("kept", ())),
            pruning_dropped={str(k): str(v)
                             for k, v in pruning.get("dropped", {}).items()},
            biased_attributes=tuple(data.get("biased_attributes", ())),
            extracted_attributes=tuple(data.get("extracted_attributes", ())),
            n_candidates=int(data.get("n_candidates", 0)),
            schema_version=version,
        )

    def to_json(self, **kwargs) -> str:
        """``json.dumps(self.to_dict())``."""
        return json.dumps(self.to_dict(), **kwargs)

    def canonical_dict(self) -> Dict[str, object]:
        """The dict rendering with the run-dependent timings nulled out.

        Two runs of the same query produce equal canonical dicts exactly
        when they found the same explanation — wall-clock timings are the
        only envelope fields that legitimately differ between runs, so
        equality tests across serving tiers (local vs. engine replica vs.
        a fresh engine) compare this form.
        """
        data = self.to_dict()
        data["timings"] = None
        data["explanation"]["runtime_seconds"] = None
        return data

    def canonical_json(self) -> str:
        """Sorted-key JSON of :meth:`canonical_dict` (byte-comparable)."""
        return json.dumps(self.canonical_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ExplanationEnvelope":
        """Parse an envelope serialized with :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))
