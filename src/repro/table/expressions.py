"""Row predicates used for WHERE clauses and context refinements.

The paper's queries carry a *context* ``C`` — the WHERE clause — and the
unexplained-subgroup search of Section 4.3 refines that context by adding
attribute-value assignments.  Predicates here are small immutable objects
that can evaluate themselves against a :class:`repro.table.Table` to produce
a boolean selection mask, and that print as readable SQL-ish fragments for
the MESA report.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, FrozenSet, Iterable, Sequence, Tuple

import numpy as np

from repro.exceptions import QueryError


class Predicate(ABC):
    """Base class for all row predicates."""

    @abstractmethod
    def mask(self, table) -> np.ndarray:
        """Return a boolean numpy array selecting the rows that satisfy the predicate."""

    @abstractmethod
    def columns(self) -> FrozenSet[str]:
        """Names of the columns the predicate reads."""

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class _AlwaysTrue(Predicate):
    """The empty context: selects every row."""

    def mask(self, table) -> np.ndarray:
        return np.ones(table.n_rows, dtype=bool)

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "TRUE"

    def __reduce__(self):
        # Unpickle to the module singleton: code tests the empty context
        # with ``query.context is TRUE``, which must keep working for
        # queries that crossed a process boundary (a replica pool ships
        # queries to its engine replicas).
        return (_resolve_true, ())


TRUE = _AlwaysTrue()


def _resolve_true() -> "_AlwaysTrue":
    return TRUE


def _column_values(table, column: str):
    return table.column(column)


def _ordered_values(table, column: str):
    """The column and its float values, for an ordered comparison.

    Ordering needs numbers, so a string or bool column is a malformed
    query (:class:`QueryError`), not a schema fault of the table.
    """
    col = _column_values(table, column)
    if not col.is_numeric():
        raise QueryError(
            f"Ordered comparison on column {column!r} of type "
            f"{col.dtype.value}: it needs an int or float column")
    return col, col.numeric_array()


@dataclass(frozen=True)
class Eq(Predicate):
    """``column = value`` (missing cells never match)."""

    column: str
    value: Any

    def mask(self, table) -> np.ndarray:
        col = _column_values(table, self.column)
        return np.array([(not m) and v == self.value
                         for v, m in zip(col.to_list(), col.missing_mask)], dtype=bool)

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"{self.column} = {self.value!r}"


@dataclass(frozen=True)
class Ne(Predicate):
    """``column != value`` (missing cells never match)."""

    column: str
    value: Any

    def mask(self, table) -> np.ndarray:
        col = _column_values(table, self.column)
        return np.array([(not m) and v != self.value
                         for v, m in zip(col.to_list(), col.missing_mask)], dtype=bool)

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"{self.column} != {self.value!r}"


@dataclass(frozen=True)
class In(Predicate):
    """``column IN (values)``."""

    column: str
    values: Tuple[Any, ...]

    def __init__(self, column: str, values: Iterable[Any]):
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", tuple(values))

    def mask(self, table) -> np.ndarray:
        col = _column_values(table, self.column)
        allowed = set(self.values)
        return np.array([(not m) and v in allowed
                         for v, m in zip(col.to_list(), col.missing_mask)], dtype=bool)

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"{self.column} IN {tuple(self.values)!r}"


class _NumericComparison(Predicate):
    """Shared implementation of the ordered comparisons."""

    _symbol = "?"

    def __init__(self, column: str, value: float):
        self.column = column
        self.value = value

    def _compare(self, array: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mask(self, table) -> np.ndarray:
        col, values = _ordered_values(table, self.column)
        with np.errstate(invalid="ignore"):
            result = self._compare(values)
        result[col.missing_mask] = False
        return result

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"{self.column} {self._symbol} {self.value!r}"

    def __eq__(self, other: object) -> bool:
        return (type(self) is type(other) and self.column == other.column
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.column, self.value))


class Gt(_NumericComparison):
    """``column > value``."""

    _symbol = ">"

    def _compare(self, array: np.ndarray) -> np.ndarray:
        return array > self.value


class Ge(_NumericComparison):
    """``column >= value``."""

    _symbol = ">="

    def _compare(self, array: np.ndarray) -> np.ndarray:
        return array >= self.value


class Lt(_NumericComparison):
    """``column < value``."""

    _symbol = "<"

    def _compare(self, array: np.ndarray) -> np.ndarray:
        return array < self.value


class Le(_NumericComparison):
    """``column <= value``."""

    _symbol = "<="

    def _compare(self, array: np.ndarray) -> np.ndarray:
        return array <= self.value


@dataclass(frozen=True)
class Between(Predicate):
    """``low <= column <= high`` on a numeric column."""

    column: str
    low: float
    high: float

    def mask(self, table) -> np.ndarray:
        col, values = _ordered_values(table, self.column)
        with np.errstate(invalid="ignore"):
            result = (values >= self.low) & (values <= self.high)
        result[col.missing_mask] = False
        return result

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"{self.column} BETWEEN {self.low!r} AND {self.high!r}"


@dataclass(frozen=True)
class IsNull(Predicate):
    """``column IS NULL``."""

    column: str

    def mask(self, table) -> np.ndarray:
        return _column_values(table, self.column).missing_mask

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"{self.column} IS NULL"


@dataclass(frozen=True)
class NotNull(Predicate):
    """``column IS NOT NULL``."""

    column: str

    def mask(self, table) -> np.ndarray:
        return ~_column_values(table, self.column).missing_mask

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"{self.column} IS NOT NULL"


class And(Predicate):
    """Conjunction of predicates."""

    def __init__(self, *operands: Predicate):
        flat = []
        for operand in operands:
            if isinstance(operand, And):
                flat.extend(operand.operands)
            elif isinstance(operand, _AlwaysTrue):
                continue
            else:
                flat.append(operand)
        self.operands: Tuple[Predicate, ...] = tuple(flat)

    def mask(self, table) -> np.ndarray:
        result = np.ones(table.n_rows, dtype=bool)
        for operand in self.operands:
            result &= operand.mask(table)
        return result

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result = result | operand.columns()
        return result

    def __repr__(self) -> str:
        if not self.operands:
            return "TRUE"
        return " AND ".join(f"({operand!r})" for operand in self.operands)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.operands == other.operands

    def __hash__(self) -> int:
        return hash(("And", self.operands))


class Or(Predicate):
    """Disjunction of predicates."""

    def __init__(self, *operands: Predicate):
        self.operands: Tuple[Predicate, ...] = tuple(operands)

    def mask(self, table) -> np.ndarray:
        result = np.zeros(table.n_rows, dtype=bool)
        for operand in self.operands:
            result |= operand.mask(table)
        return result

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result = result | operand.columns()
        return result

    def __repr__(self) -> str:
        return " OR ".join(f"({operand!r})" for operand in self.operands)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and self.operands == other.operands

    def __hash__(self) -> int:
        return hash(("Or", self.operands))


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    operand: Predicate

    def mask(self, table) -> np.ndarray:
        return ~self.operand.mask(table)

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"NOT ({self.operand!r})"


def canonical_predicate_key(predicate: Predicate) -> str:
    """A canonical string key for a predicate, for use in context caches.

    Two predicates that select the same rows *by construction* — the same
    conjunction/disjunction up to operand order, the same ``IN`` list up to
    value order — map to the same key.  (Semantic equivalence beyond that,
    e.g. De Morgan rewrites, is not detected; a cache keyed on this string
    is still correct, it just stores such contexts separately.)
    """
    if isinstance(predicate, And):
        parts = sorted(canonical_predicate_key(operand) for operand in predicate.operands)
        if not parts:
            return "TRUE"
        return "AND(" + ",".join(parts) + ")"
    if isinstance(predicate, Or):
        parts = sorted(canonical_predicate_key(operand) for operand in predicate.operands)
        return "OR(" + ",".join(parts) + ")"
    if isinstance(predicate, Not):
        return "NOT(" + canonical_predicate_key(predicate.operand) + ")"
    if isinstance(predicate, In):
        values = ",".join(sorted(repr(value) for value in predicate.values))
        return f"IN({predicate.column},[{values}])"
    return repr(predicate)


def stable_key_digest(key: Sequence) -> int:
    """A process-stable 64-bit digest of a canonical cache key.

    Python's builtin ``hash`` is salted per process, so it cannot route a
    canonical query key consistently to the engine replicas of a serving
    front (or across restarts).  This digest hashes the ``repr`` of the
    key tuple — canonical keys are built from plain strings, numbers and
    ``None``, whose reprs are deterministic — so every process maps the
    same key to the same shard.
    """
    payload = repr(tuple(key)).encode("utf-8")
    return int.from_bytes(hashlib.sha1(payload).digest()[:8], "big")


class Condition:
    """An ordered conjunction of attribute-value equality assignments.

    This is the representation of query *contexts* and their refinements
    used by the unexplained-subgroup search (Section 4.3).  A ``Condition``
    behaves like a predicate (it has :meth:`mask`), supports refinement by
    adding one more assignment, and has a canonical hashable form so that
    the pattern-graph traversal can generate each refinement at most once.
    """

    def __init__(self, assignments: Iterable[Tuple[str, Any]] = ()):  # noqa: D401
        pairs = tuple(sorted(((str(a), v) for a, v in assignments), key=lambda p: p[0]))
        seen = set()
        for attribute, _ in pairs:
            if attribute in seen:
                raise ValueError(f"Condition assigns attribute {attribute!r} more than once")
            seen.add(attribute)
        self.assignments: Tuple[Tuple[str, Any], ...] = pairs

    @classmethod
    def from_predicate(cls, predicate: Predicate) -> "Condition":
        """Build a Condition from a conjunction of equality predicates.

        Non-equality predicates cannot be represented and raise ``ValueError``.
        """
        if isinstance(predicate, _AlwaysTrue):
            return cls()
        if isinstance(predicate, Eq):
            return cls([(predicate.column, predicate.value)])
        if isinstance(predicate, And):
            assignments = []
            for operand in predicate.operands:
                if not isinstance(operand, Eq):
                    raise ValueError(f"Cannot convert {operand!r} into a Condition assignment")
                assignments.append((operand.column, operand.value))
            return cls(assignments)
        raise ValueError(f"Cannot convert {predicate!r} into a Condition")

    def mask(self, table) -> np.ndarray:
        result = np.ones(table.n_rows, dtype=bool)
        for attribute, value in self.assignments:
            result &= Eq(attribute, value).mask(table)
        return result

    def columns(self) -> FrozenSet[str]:
        return frozenset(attribute for attribute, _ in self.assignments)

    def refine(self, attribute: str, value: Any) -> "Condition":
        """Return a new condition with one more assignment."""
        return Condition(self.assignments + ((attribute, value),))

    def is_refinement_of(self, other: "Condition") -> bool:
        """True if this condition contains all assignments of ``other``."""
        return set(other.assignments).issubset(set(self.assignments))

    def to_predicate(self) -> Predicate:
        """Render the condition as a plain predicate."""
        if not self.assignments:
            return TRUE
        return And(*[Eq(attribute, value) for attribute, value in self.assignments])

    def __len__(self) -> int:
        return len(self.assignments)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Condition) and self.assignments == other.assignments

    def __hash__(self) -> int:
        return hash(self.assignments)

    def __repr__(self) -> str:
        if not self.assignments:
            return "Condition()"
        body = " AND ".join(f"{attribute} = {value!r}" for attribute, value in self.assignments)
        return f"Condition({body})"
