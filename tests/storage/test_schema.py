"""Unit tests for relation schemas."""

import pytest

from repro.errors import SchemaError
from repro.storage import RelationSchema, check_value


def make_schema():
    return RelationSchema("Emp", ("name", "age", "salary", "dno"))


class TestRelationSchema:
    def test_arity(self):
        assert make_schema().arity == 4

    def test_position(self):
        schema = make_schema()
        assert schema.position("name") == 0
        assert schema.position("dno") == 3

    def test_position_unknown_attribute(self):
        with pytest.raises(SchemaError, match="no attribute 'floor'"):
            make_schema().position("floor")

    def test_has_attribute(self):
        schema = make_schema()
        assert schema.has_attribute("salary")
        assert not schema.has_attribute("missing")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("", ("a",))

    def test_no_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ())

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            RelationSchema("R", ("a", "a"))

    def test_validate_row_ok(self):
        row = ("Mike", 30, 1000.5, None)
        assert make_schema().validate_row(row) == row

    def test_validate_row_wrong_arity(self):
        with pytest.raises(SchemaError, match="expects 4 values"):
            make_schema().validate_row(("Mike", 30))

    def test_validate_row_bad_type(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row(("Mike", 30, [], None))

    def test_validate_row_rejects_bool(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row(("Mike", True, 1.0, None))

    def test_row_from_mapping_full(self):
        schema = make_schema()
        row = schema.row_from_mapping(
            {"name": "Sam", "age": 40, "salary": 900, "dno": 7}
        )
        assert row == ("Sam", 40, 900, 7)

    def test_row_from_mapping_defaults_to_none(self):
        schema = make_schema()
        assert schema.row_from_mapping({"name": "Sam"}) == ("Sam", None, None, None)

    def test_row_from_mapping_unknown_attribute(self):
        with pytest.raises(SchemaError, match="no attribute 'floor'"):
            make_schema().row_from_mapping({"floor": 1})

    def test_schemas_compare_by_value(self):
        assert make_schema() == make_schema()
        assert make_schema() != RelationSchema("Emp", ("name",))


class TestCheckValue:
    @pytest.mark.parametrize("value", [1, -2.5, "x", None])
    def test_accepts_scalars(self, value):
        assert check_value(value) == value

    @pytest.mark.parametrize("value", [True, [], {}, object(), (1,)])
    def test_rejects_non_scalars(self, value):
        with pytest.raises(SchemaError):
            check_value(value)

    @pytest.mark.parametrize("value", [1e308 * 10, -1e308 * 10])
    def test_accepts_infinities(self, value):
        assert check_value(value) == value

    def test_rejects_nan(self):
        """NaN equals nothing, itself included: a hash probe (identity)
        and ``compare("=")`` would disagree on whether it joins."""
        with pytest.raises(SchemaError, match="NaN"):
            check_value(float("nan"))
        with pytest.raises(SchemaError, match="NaN"):
            make_schema().validate_row(("x", 1, float("nan"), 2))
