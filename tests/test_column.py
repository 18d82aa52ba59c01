"""Unit tests for repro.table.column."""

import numpy as np
import pytest

from repro.exceptions import SchemaError
from repro.table.column import Column, DType, infer_dtype


class TestInferDtype:
    def test_int(self):
        assert infer_dtype([1, 2, 3]) is DType.INT

    def test_float_promotion(self):
        assert infer_dtype([1, 2.5, 3]) is DType.FLOAT

    def test_string_wins(self):
        assert infer_dtype([1, "a", 3.5]) is DType.STRING

    def test_bool(self):
        assert infer_dtype([True, False]) is DType.BOOL

    def test_missing_ignored(self):
        assert infer_dtype([None, 1, None]) is DType.INT

    def test_all_missing_defaults_to_string(self):
        assert infer_dtype([None, None]) is DType.STRING


class TestDtypeHolds:
    @pytest.mark.parametrize("dtype, value", [
        (DType.INT, 3), (DType.INT, 3.0), (DType.INT, np.int64(3)),
        (DType.FLOAT, 3), (DType.FLOAT, 2.5), (DType.STRING, "x"),
        (DType.BOOL, True), (DType.INT, None), (DType.STRING, float("nan")),
    ])
    def test_holds(self, dtype, value):
        assert dtype.holds(value)

    @pytest.mark.parametrize("dtype, value", [
        (DType.INT, 3.5), (DType.INT, True), (DType.INT, "3"),
        (DType.INT, float("inf")), (DType.FLOAT, 10 ** 400),
        (DType.FLOAT, "lots"), (DType.STRING, 7), (DType.BOOL, 1),
        (DType.STRING, [1]),
    ])
    def test_does_not_hold(self, dtype, value):
        assert not dtype.holds(value)


class TestColumnBasics:
    def test_length_and_values(self):
        column = Column("x", [1, 2, None, 4])
        assert len(column) == 4
        assert column[0] == 1
        assert column[2] is None
        assert column.to_list() == [1, 2, None, 4]

    def test_missing_mask_and_counts(self):
        column = Column("x", [1.0, None, float("nan"), 4.0])
        assert column.missing_count() == 2
        assert column.missing_fraction() == pytest.approx(0.5)
        assert list(column.missing_mask) == [False, True, True, False]

    def test_int_column_returns_python_ints(self):
        column = Column("x", [1, 2, 3])
        assert isinstance(column[0], int)

    def test_string_column_coerces_to_str(self):
        column = Column("x", ["a", "b"])
        assert column.dtype is DType.STRING
        assert column[1] == "b"

    def test_explicit_missing_mask_is_merged(self):
        column = Column("x", [1, 2, 3], missing=[False, True, False])
        assert column.missing_count() == 1
        assert column[1] is None

    def test_mismatched_missing_mask_raises(self):
        with pytest.raises(SchemaError):
            Column("x", [1, 2, 3], missing=[False, True])

    def test_unique_and_value_counts(self):
        column = Column("x", ["b", "a", "b", None])
        assert column.unique() == ["a", "b"]
        assert column.n_unique() == 2
        assert column.value_counts() == {"a": 1, "b": 2}

    def test_equality(self):
        assert Column("x", [1, 2]) == Column("x", [1, 2])
        assert Column("x", [1, 2]) != Column("x", [1, 3])


class TestColumnTransforms:
    def test_take_and_filter(self):
        column = Column("x", [10, 20, 30, 40])
        assert column.take([2, 0]).to_list() == [30, 10]
        assert column.filter([True, False, True, False]).to_list() == [10, 30]

    def test_filter_length_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Column("x", [1, 2]).filter([True])

    def test_rename(self):
        renamed = Column("x", [1]).rename("y")
        assert renamed.name == "y"
        assert renamed.to_list() == [1]

    def test_with_missing_adds_mask(self):
        column = Column("x", [1, 2, 3]).with_missing([False, True, False])
        assert column.to_list() == [1, None, 3]

    def test_numeric_array_nan_for_missing(self):
        values = Column("x", [1.5, None]).numeric_array()
        assert values[0] == 1.5
        assert np.isnan(values[1])

    def test_numeric_array_raises_for_strings(self):
        with pytest.raises(SchemaError):
            Column("x", ["a"]).numeric_array()

    def test_concat(self):
        combined = Column("x", [1, 2]).concat(Column("x", [3, None]))
        assert combined.to_list() == [1, 2, 3, None]

    def test_concat_dtype_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Column("x", [1, 2]).concat(Column("x", ["a"]))

    def test_codes_round_trip(self):
        column = Column("x", ["b", "a", None, "b"])
        codes, categories = column.codes()
        assert list(codes) == [1, 0, -1, 1]
        assert categories == ["a", "b"]
