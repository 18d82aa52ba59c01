"""Typed columns with explicit missing-value masks.

A :class:`Column` stores its values in a numpy array plus a boolean
``missing`` mask of the same length.  Keeping the mask separate (instead of
using ``NaN`` sentinels) lets the same machinery work uniformly for string,
integer, float and boolean columns, and makes the missing-data handling of
Section 3.2 of the paper (selection attributes ``R_E``) a first-class
concept rather than an afterthought.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SchemaError


class DType(str, enum.Enum):
    """Logical column types supported by the table engine."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type can take part in numeric aggregation."""
        return self in (DType.INT, DType.FLOAT)

    def holds(self, value: Any) -> bool:
        """Whether a column of this type can store ``value``.

        Missing values fit every type.  A float column takes any number
        and an int column any integral one (``3`` or ``3.0``); booleans are
        not numbers, and only strings fit a string column.
        """
        if _is_missing_value(value):
            return True
        if self is DType.STRING:
            return isinstance(value, str)
        kind = infer_dtype([value])
        if not (self.is_numeric and kind.is_numeric):
            return kind is self
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            return False
        return self is DType.FLOAT or number.is_integer()


_MISSING_SENTINELS = (None,)


def _is_missing_value(value: Any) -> bool:
    """Return True when ``value`` denotes a missing cell."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


def infer_dtype(values: Iterable[Any]) -> DType:
    """Infer the logical dtype of a sequence of raw Python values.

    Missing values are ignored during inference.  A mixed int/float column is
    promoted to float; any non-numeric, non-bool value makes the column a
    string column.
    """
    seen_float = False
    seen_int = False
    seen_bool = False
    seen_str = False
    for value in values:
        if _is_missing_value(value):
            continue
        if isinstance(value, bool) or isinstance(value, np.bool_):
            seen_bool = True
        elif isinstance(value, (int, np.integer)):
            seen_int = True
        elif isinstance(value, (float, np.floating)):
            seen_float = True
        else:
            seen_str = True
    if seen_str:
        return DType.STRING
    if seen_bool and not (seen_int or seen_float):
        return DType.BOOL
    if seen_float:
        return DType.FLOAT
    if seen_int:
        return DType.INT
    # An all-missing column defaults to string: it carries no information
    # either way and string is the safest round-trip type.
    return DType.STRING


class Column:
    """A single named, typed column with a missing-value mask."""

    __slots__ = ("name", "dtype", "_values", "_missing")

    def __init__(self, name: str, values: Sequence[Any], dtype: Optional[DType] = None,
                 missing: Optional[Sequence[bool]] = None):
        self.name = str(name)
        raw = list(values)
        if missing is None:
            missing_mask = np.array([_is_missing_value(v) for v in raw], dtype=bool)
        else:
            missing_mask = np.asarray(missing, dtype=bool)
            if len(missing_mask) != len(raw):
                raise SchemaError(
                    f"Column {name!r}: missing mask length {len(missing_mask)} "
                    f"does not match value length {len(raw)}"
                )
            explicit = np.array([_is_missing_value(v) for v in raw], dtype=bool)
            missing_mask = missing_mask | explicit
        if dtype is None:
            dtype = infer_dtype(raw)
        self.dtype = dtype
        self._missing = missing_mask
        self._values = self._coerce(raw, dtype, missing_mask)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(raw: List[Any], dtype: DType, missing: np.ndarray) -> np.ndarray:
        """Coerce raw values into the storage array for ``dtype``."""
        n = len(raw)
        if dtype is DType.FLOAT:
            out = np.zeros(n, dtype=np.float64)
            for i, value in enumerate(raw):
                out[i] = np.nan if missing[i] else float(value)
            return out
        if dtype is DType.INT:
            # Integers are stored as float64 so that missing cells can keep a
            # NaN placeholder without forcing an object array.
            out = np.zeros(n, dtype=np.float64)
            for i, value in enumerate(raw):
                out[i] = np.nan if missing[i] else float(int(value))
            return out
        if dtype is DType.BOOL:
            out = np.zeros(n, dtype=object)
            for i, value in enumerate(raw):
                out[i] = None if missing[i] else bool(value)
            return out
        out = np.zeros(n, dtype=object)
        for i, value in enumerate(raw):
            out[i] = None if missing[i] else str(value)
        return out

    @classmethod
    def from_numpy(cls, name: str, values: np.ndarray, dtype: DType,
                   missing: Optional[np.ndarray] = None) -> "Column":
        """Fast-path constructor used internally when arrays are already coerced."""
        column = cls.__new__(cls)
        column.name = str(name)
        column.dtype = dtype
        column._values = values
        if missing is None:
            if dtype.is_numeric:
                missing = np.isnan(values.astype(np.float64))
            else:
                missing = np.array([v is None for v in values], dtype=bool)
        column._missing = np.asarray(missing, dtype=bool)
        return column

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index: int) -> Any:
        if self._missing[index]:
            return None
        value = self._values[index]
        if self.dtype is DType.INT:
            return int(value)
        if self.dtype is DType.FLOAT:
            return float(value)
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (self.name == other.name and self.dtype == other.dtype
                and list(self.to_list()) == list(other.to_list()))

    def __repr__(self) -> str:
        return f"Column(name={self.name!r}, dtype={self.dtype.value}, n={len(self)})"

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def missing_mask(self) -> np.ndarray:
        """Boolean array, True where the cell is missing."""
        return self._missing.copy()

    @property
    def values(self) -> np.ndarray:
        """The raw storage array (floats for numeric columns, objects otherwise)."""
        return self._values

    def missing_count(self) -> int:
        """Number of missing cells."""
        return int(self._missing.sum())

    def missing_fraction(self) -> float:
        """Fraction of missing cells (0.0 for an empty column)."""
        if len(self) == 0:
            return 0.0
        return float(self._missing.mean())

    def is_numeric(self) -> bool:
        """Whether the column holds int or float values."""
        return self.dtype.is_numeric

    def to_list(self) -> List[Any]:
        """Materialise the column as a Python list with ``None`` for missing."""
        return [self[i] for i in range(len(self))]

    def non_missing_values(self) -> List[Any]:
        """All present (non-missing) values, in row order."""
        return [self[i] for i in range(len(self)) if not self._missing[i]]

    def unique(self) -> List[Any]:
        """Sorted list of distinct present values."""
        present = self.non_missing_values()
        return sorted(set(present), key=lambda v: (str(type(v)), v))

    def n_unique(self) -> int:
        """Number of distinct present values.

        Counted over the storage array, with no per-cell call: an int
        column's float64 cells are integral, so they count as their ints
        do, and ``0.0`` equals ``-0.0`` here as it does there.
        """
        return len(set(self._values[~self._missing].tolist()))

    def value_counts(self) -> dict:
        """Mapping from present value to its number of occurrences."""
        counts: dict = {}
        for value in self.non_missing_values():
            counts[value] = counts.get(value, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def take(self, indices: Sequence[int]) -> "Column":
        """Return a new column with the rows at ``indices`` (in that order)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Column.from_numpy(self.name, self._values[idx], self.dtype, self._missing[idx])

    def filter(self, mask: Sequence[bool]) -> "Column":
        """Return a new column keeping rows where ``mask`` is True."""
        mask_arr = np.asarray(mask, dtype=bool)
        if len(mask_arr) != len(self):
            raise SchemaError(
                f"Column {self.name!r}: filter mask length {len(mask_arr)} != {len(self)}"
            )
        return Column.from_numpy(self.name, self._values[mask_arr], self.dtype,
                                  self._missing[mask_arr])

    def rename(self, new_name: str) -> "Column":
        """Return a copy of this column under a different name."""
        return Column.from_numpy(new_name, self._values.copy(), self.dtype, self._missing.copy())

    def with_missing(self, missing: Sequence[bool]) -> "Column":
        """Return a copy with additional cells marked missing."""
        extra = np.asarray(missing, dtype=bool)
        if len(extra) != len(self):
            raise SchemaError("missing mask length mismatch")
        new_missing = self._missing | extra
        values = self._values.copy()
        if self.dtype.is_numeric:
            values[new_missing] = np.nan
        else:
            values[new_missing] = None
        return Column.from_numpy(self.name, values, self.dtype, new_missing)

    def numeric_array(self) -> np.ndarray:
        """Return float64 values with NaN for missing cells.

        Raises :class:`SchemaError` for non-numeric columns.
        """
        if not self.dtype.is_numeric:
            raise SchemaError(f"Column {self.name!r} of type {self.dtype.value} is not numeric")
        return self._values.astype(np.float64)

    def concat(self, other: "Column") -> "Column":
        """Stack another column of the same name/dtype below this one."""
        if other.dtype != self.dtype:
            raise SchemaError(
                f"Cannot concatenate column {self.name!r}: dtype {self.dtype.value} "
                f"vs {other.dtype.value}"
            )
        values = np.concatenate([self._values, other._values])
        missing = np.concatenate([self._missing, other._missing])
        return Column.from_numpy(self.name, values, self.dtype, missing)

    def codes(self) -> Tuple[np.ndarray, List[Any]]:
        """Factorise the column into integer codes.

        Returns ``(codes, categories)`` where missing cells receive code -1
        and ``categories[code]`` recovers the original value.  This is the
        encoding used throughout :mod:`repro.infotheory`.

        The factorisation is a single vectorised ``np.unique`` pass over the
        present cells; category order matches :meth:`unique` (all present
        values of a column share one logical type, so the sort is plain
        ascending order).
        """
        codes = np.full(len(self), -1, dtype=np.int64)
        present = ~self._missing
        if not present.any():
            return codes, []
        values = self._values[present]
        categories_array, inverse = np.unique(values, return_inverse=True)
        codes[present] = inverse
        if self.dtype is DType.INT:
            categories: List[Any] = [int(value) for value in categories_array]
        elif self.dtype is DType.FLOAT:
            categories = [float(value) for value in categories_array]
        elif self.dtype is DType.BOOL:
            categories = [bool(value) for value in categories_array]
        else:
            categories = list(categories_array)
        return codes, categories
