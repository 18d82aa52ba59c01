"""Request/response schema of the JSON-over-HTTP serving API.

Requests are plain JSON objects parsed into small dataclasses with *strict*
validation — unknown fields, wrong types and malformed context clauses all
raise :class:`~repro.exceptions.RequestValidationError`, which the HTTP
front end maps to a 400 response listing every problem found.  Responses
reuse the engine's canonical envelope JSON
(:meth:`~repro.engine.envelope.ExplanationEnvelope.to_dict`) wrapped in a
thin metadata layer (dataset, cache verdict).

A query can be stated either as the paper's SQL form (``"sql": "SELECT
Country, avg(Salary) FROM SO GROUP BY Country"``) or structurally::

    {
      "exposure": "Country",
      "outcome": "Salary",
      "aggregate": "avg",
      "context": [{"column": "Continent", "op": "eq", "value": "Europe"}],
      "k": 3
    }

Context clauses are ANDed; supported ops are ``eq``, ``ne``, ``in``,
``gt``, ``ge``, ``lt``, ``le``, ``between``, ``is_null`` and ``not_null``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import QueryError, RequestValidationError
from repro.query.aggregate_query import AggregateQuery
from repro.query.parser import parse_query
from repro.table.expressions import (
    And,
    Between,
    Eq,
    Ge,
    Gt,
    In,
    IsNull,
    Le,
    Lt,
    Ne,
    Not,
    NotNull,
    Predicate,
    TRUE,
)

#: Bumped whenever the request/response layout changes incompatibly.
API_SCHEMA_VERSION = 1

_EXPLAIN_FIELDS = frozenset(
    {"sql", "exposure", "outcome", "aggregate", "context", "k", "name",
     "table_name", "debug"})
_BATCH_FIELDS = frozenset({"queries", "k"})

#: op name -> (predicate factory, required value fields)
_COMPARISONS = {
    "eq": Eq, "ne": Ne, "gt": Gt, "ge": Ge, "lt": Lt, "le": Le,
}
#: What a clause may compare a cell with: a JSON scalar.
_SCALARS = (str, int, float, bool, type(None))
_SCALAR_NAMES = "string, number, boolean or null"


def _require_mapping(payload: Any, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise RequestValidationError(
            f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def _clause_predicate(clause: Any, errors: List[str], position: int) -> Optional[Predicate]:
    """Parse one context clause dict into a predicate (collecting errors)."""
    label = f"context[{position}]"
    if not isinstance(clause, Mapping):
        errors.append(f"{label} must be an object, got {type(clause).__name__}")
        return None
    column = clause.get("column")
    if not isinstance(column, str) or not column:
        errors.append(f"{label}.column must be a non-empty string")
        return None
    op = clause.get("op", "eq")
    negate = clause.get("negate", False)
    if not isinstance(negate, bool):
        errors.append(f"{label}.negate must be a boolean")
        return None
    known = {"column", "op", "value", "values", "low", "high", "negate"}
    unknown = sorted(set(clause) - known)
    if unknown:
        errors.append(f"{label} has unknown field(s) {unknown}")
        return None
    predicate: Optional[Predicate] = None
    if op in _COMPARISONS:
        if "value" not in clause:
            errors.append(f"{label} with op {op!r} requires a 'value'")
            return None
        value = clause["value"]
        if not isinstance(value, _SCALARS):
            errors.append(f"{label} with op {op!r} requires a JSON scalar "
                          f"'value' ({_SCALAR_NAMES})")
            return None
        if op != "eq" and op != "ne" and not isinstance(value, (int, float)):
            errors.append(f"{label} with op {op!r} requires a numeric 'value'")
            return None
        predicate = _COMPARISONS[op](column, value)
    elif op == "in":
        values = clause.get("values")
        if not isinstance(values, (list, tuple)) or not values:
            errors.append(f"{label} with op 'in' requires a non-empty 'values' list")
            return None
        if not all(isinstance(value, _SCALARS) for value in values):
            errors.append(f"{label} with op 'in' requires JSON scalars "
                          f"({_SCALAR_NAMES}) in 'values'")
            return None
        predicate = In(column, values)
    elif op == "between":
        low, high = clause.get("low"), clause.get("high")
        if not isinstance(low, (int, float)) or not isinstance(high, (int, float)):
            errors.append(f"{label} with op 'between' requires numeric 'low' and 'high'")
            return None
        predicate = Between(column, low, high)
    elif op == "is_null":
        predicate = IsNull(column)
    elif op == "not_null":
        predicate = NotNull(column)
    else:
        errors.append(
            f"{label}.op {op!r} is not supported; use one of "
            "eq/ne/in/gt/ge/lt/le/between/is_null/not_null")
        return None
    return Not(predicate) if negate else predicate


def _context_predicate(raw: Any, errors: List[str]) -> Predicate:
    """Parse the ``context`` field (a clause list) into an ANDed predicate."""
    if raw is None:
        return TRUE
    if not isinstance(raw, (list, tuple)):
        errors.append(f"context must be a list of clause objects, got {type(raw).__name__}")
        return TRUE
    clauses: List[Predicate] = []
    for position, clause in enumerate(raw):
        predicate = _clause_predicate(clause, errors, position)
        if predicate is not None:
            clauses.append(predicate)
    if not clauses:
        return TRUE
    if len(clauses) == 1:
        return clauses[0]
    return And(*clauses)


def _parse_k(raw: Any, errors: List[str]) -> Optional[int]:
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        errors.append(f"k must be an integer, got {raw!r}")
        return None
    if raw < 1:
        errors.append(f"k must be >= 1, got {raw}")
        return None
    return raw


def context_clauses(predicate: Predicate) -> List[Dict[str, Any]]:
    """Render a context predicate as the wire format's clause list.

    The inverse of the ``context`` parsing above, used by
    :class:`~repro.serving.client.HTTPClient` to ship an
    :class:`~repro.query.aggregate_query.AggregateQuery` over the JSON API.
    Round-trip guarantee: parsing the returned clauses yields a predicate
    with the same :func:`~repro.table.expressions.canonical_predicate_key`.
    Predicates the wire format cannot express (``OR``, nested ``NOT``)
    raise :class:`RequestValidationError`.
    """
    if predicate is TRUE or isinstance(predicate, And) and not predicate.operands:
        return []
    if isinstance(predicate, And):
        clauses: List[Dict[str, Any]] = []
        for operand in predicate.operands:
            clauses.extend(context_clauses(operand))
        return clauses
    if isinstance(predicate, Not):
        inner = context_clauses(predicate.operand)
        if len(inner) != 1 or inner[0].get("negate"):
            raise RequestValidationError(
                f"cannot serialize predicate {predicate!r}: NOT is only "
                "supported around a single simple clause")
        inner[0]["negate"] = True
        return inner
    for op, factory in _COMPARISONS.items():
        if isinstance(predicate, factory):
            return [{"column": predicate.column, "op": op,
                     "value": predicate.value}]
    if isinstance(predicate, In):
        return [{"column": predicate.column, "op": "in",
                 "values": list(predicate.values)}]
    if isinstance(predicate, Between):
        return [{"column": predicate.column, "op": "between",
                 "low": predicate.low, "high": predicate.high}]
    if isinstance(predicate, IsNull):
        return [{"column": predicate.column, "op": "is_null"}]
    if isinstance(predicate, NotNull):
        return [{"column": predicate.column, "op": "not_null"}]
    raise RequestValidationError(
        f"cannot serialize predicate {predicate!r} into the wire format; "
        "supported: AND of eq/ne/in/gt/ge/lt/le/between/is_null/not_null "
    "clauses (optionally negated)")


def query_payload(query: AggregateQuery, k: Optional[int] = None,
                  dataset: Optional[str] = None) -> Dict[str, Any]:
    """The structural request body for a query (HTTP client's wire form)."""
    payload: Dict[str, Any] = {
        "exposure": query.exposure,
        "outcome": query.outcome,
        "aggregate": query.aggregate,
    }
    clauses = context_clauses(query.context)
    if clauses:
        payload["context"] = clauses
    if query.table_name != "table":
        payload["table_name"] = query.table_name
    if query.name is not None:
        payload["name"] = query.name
    if k is not None:
        payload["k"] = k
    if dataset is not None:
        payload["dataset"] = dataset
    return payload


@dataclass(frozen=True)
class ExplainRequest:
    """One validated explanation request (the body of ``POST /explain``)."""

    query: AggregateQuery
    k: Optional[int] = None
    #: Opt-in diagnostics: when True the HTTP front end embeds the
    #: request's finished span tree in the response (``debug.trace``).
    debug: bool = False

    @classmethod
    def from_dict(cls, payload: Any) -> "ExplainRequest":
        """Strictly parse a request body; raises :class:`RequestValidationError`."""
        payload = _require_mapping(payload, "request body")
        errors: List[str] = []
        unknown = sorted(set(payload) - _EXPLAIN_FIELDS)
        if unknown:
            errors.append(f"unknown field(s) {unknown}")
        k = _parse_k(payload.get("k"), errors)
        debug = payload.get("debug", False)
        if not isinstance(debug, bool):
            errors.append(f"debug must be a boolean, got {debug!r}")
            debug = False
        sql = payload.get("sql")
        if sql is not None:
            if not isinstance(sql, str):
                errors.append(f"sql must be a string, got {type(sql).__name__}")
            overlapping = sorted(
                {"exposure", "outcome", "aggregate", "context"} & set(payload))
            if overlapping:
                errors.append(
                    f"pass either 'sql' or structural fields, not both: {overlapping}")
            if errors:
                raise RequestValidationError(errors)
            try:
                query = parse_query(sql, name=payload.get("name"))
            except QueryError as exc:
                raise RequestValidationError([str(exc)]) from exc
            return cls(query=query, k=k, debug=debug)
        for required in ("exposure", "outcome"):
            value = payload.get(required)
            if not isinstance(value, str) or not value:
                errors.append(f"{required} must be a non-empty string")
        aggregate = payload.get("aggregate", "avg")
        if not isinstance(aggregate, str):
            errors.append(f"aggregate must be a string, got {type(aggregate).__name__}")
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            errors.append(f"name must be a string, got {type(name).__name__}")
        table_name = payload.get("table_name", "table")
        if not isinstance(table_name, str):
            errors.append(f"table_name must be a string, got {type(table_name).__name__}")
        context = _context_predicate(payload.get("context"), errors)
        if errors:
            raise RequestValidationError(errors)
        try:
            query = AggregateQuery(
                exposure=payload["exposure"], outcome=payload["outcome"],
                aggregate=aggregate, context=context, table_name=table_name,
                name=name,
            )
        except QueryError as exc:
            raise RequestValidationError([str(exc)]) from exc
        return cls(query=query, k=k, debug=debug)


@dataclass(frozen=True)
class BatchExplainRequest:
    """A validated batch request (the body of ``POST /explain_batch``)."""

    requests: Tuple[ExplainRequest, ...]
    k: Optional[int] = None

    @classmethod
    def from_dict(cls, payload: Any) -> "BatchExplainRequest":
        payload = _require_mapping(payload, "request body")
        errors: List[str] = []
        unknown = sorted(set(payload) - _BATCH_FIELDS)
        if unknown:
            errors.append(f"unknown field(s) {unknown}")
        k = _parse_k(payload.get("k"), errors)
        raw_queries = payload.get("queries")
        if not isinstance(raw_queries, (list, tuple)) or not raw_queries:
            errors.append("queries must be a non-empty list of request objects")
            raise RequestValidationError(errors)
        requests: List[ExplainRequest] = []
        for position, raw in enumerate(raw_queries):
            try:
                requests.append(ExplainRequest.from_dict(raw))
            except RequestValidationError as exc:
                errors.extend(f"queries[{position}]: {error}" for error in exc.errors)
        if errors:
            raise RequestValidationError(errors)
        return cls(requests=tuple(requests), k=k)


_JOB_FIELDS = frozenset({"kind", "queries", "k", "top"})
_JOB_KINDS = frozenset({"explain_batch", "warm"})


@dataclass(frozen=True)
class JobSubmitRequest:
    """A validated job submission (the body of ``POST /jobs``).

    ``queries`` are kept in wire form (payload dicts) — the job body is
    stored durably as JSON, so normalising to :class:`AggregateQuery` here
    would only round-trip back through :func:`query_payload`.  Each entry
    is still parsed through :class:`ExplainRequest` so malformed queries
    fail at submission with a 400, not inside the background worker.
    """

    kind: str
    queries: Optional[Tuple[Dict[str, Any], ...]] = None
    k: Optional[int] = None
    top: int = 8

    @classmethod
    def from_dict(cls, payload: Any) -> "JobSubmitRequest":
        payload = _require_mapping(payload, "request body")
        errors: List[str] = []
        unknown = sorted(set(payload) - _JOB_FIELDS)
        if unknown:
            errors.append(f"unknown field(s) {unknown}")
        kind = payload.get("kind", "explain_batch")
        if kind not in _JOB_KINDS:
            errors.append(
                f"kind must be one of {sorted(_JOB_KINDS)}, got {kind!r}")
        k = _parse_k(payload.get("k"), errors)
        top = payload.get("top", 8)
        if not isinstance(top, int) or isinstance(top, bool) or top < 0:
            errors.append(f"top must be an integer >= 0, got {top!r}")
            top = 8
        raw_queries = payload.get("queries")
        queries: Optional[Tuple[Dict[str, Any], ...]] = None
        if raw_queries is not None:
            if not isinstance(raw_queries, (list, tuple)):
                errors.append("queries must be a list of request objects")
            else:
                for position, raw in enumerate(raw_queries):
                    try:
                        ExplainRequest.from_dict(raw)
                    except RequestValidationError as exc:
                        errors.extend(f"queries[{position}]: {error}"
                                      for error in exc.errors)
                queries = tuple(dict(raw) for raw in raw_queries
                                if isinstance(raw, Mapping))
        if kind == "explain_batch" and not queries and not errors:
            errors.append(
                "an explain_batch job needs a non-empty queries list")
        if errors:
            raise RequestValidationError(errors)
        return cls(kind=kind, queries=queries, k=k, top=top)


@dataclass(frozen=True)
class AppendRowsRequest:
    """A validated live-update request (the body of ``POST /append_rows``)."""

    rows: Tuple[Dict[str, Any], ...]
    rewarm: bool = True
    top: int = 8

    @classmethod
    def from_dict(cls, payload: Any) -> "AppendRowsRequest":
        payload = _require_mapping(payload, "request body")
        errors: List[str] = []
        unknown = sorted(set(payload) - {"rows", "rewarm", "top"})
        if unknown:
            errors.append(f"unknown field(s) {unknown}")
        rewarm = payload.get("rewarm", True)
        if not isinstance(rewarm, bool):
            errors.append(f"rewarm must be a boolean, got {rewarm!r}")
            rewarm = True
        top = payload.get("top", 8)
        if not isinstance(top, int) or isinstance(top, bool) or top < 0:
            errors.append(f"top must be an integer >= 0, got {top!r}")
            top = 8
        raw_rows = payload.get("rows")
        if not isinstance(raw_rows, (list, tuple)) or not raw_rows:
            errors.append("rows must be a non-empty list of objects")
            raise RequestValidationError(errors)
        for position, row in enumerate(raw_rows):
            if not isinstance(row, Mapping):
                errors.append(f"rows[{position}] must be an object, "
                              f"got {type(row).__name__}")
        if errors:
            raise RequestValidationError(errors)
        return cls(rows=tuple(dict(row) for row in raw_rows),
                   rewarm=rewarm, top=top)


@dataclass(frozen=True)
class ExplainResponse:
    """The served form of one explanation: envelope JSON + cache metadata."""

    dataset: str
    envelope_dict: Dict[str, Any]
    cache_hit: bool
    coalesced: bool = False
    schema_version: int = API_SCHEMA_VERSION
    #: The distributed trace id this request ran under, when tracing is on.
    trace_id: Optional[str] = None
    #: Opt-in diagnostics block (``{"trace": <span tree>}``), present only
    #: when the request asked for ``"debug": true``.
    debug: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "api_schema_version": self.schema_version,
            "dataset": self.dataset,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "envelope": self.envelope_dict,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.debug is not None:
            payload["debug"] = self.debug
        return payload
