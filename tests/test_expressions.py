"""Vectorized expression evaluator tests, including property-based checks
that the vectorized three-valued logic agrees with the scalar reference
semantics in repro.types.values."""

import operator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ExecutionError, TypeCheckError
from repro.execution import Frame, evaluate, evaluate_predicate
from repro.plan.logical import Field
from repro.sql import parse
from repro.storage import Column
from repro.types import (SqlType, sql_and, sql_compare, sql_equal, sql_not,
                         sql_or)


def expr_of(text):
    return parse(f"SELECT {text}").items[0].expr


def eval_scalar(text):
    """Evaluate a constant expression on the dual frame."""
    return evaluate(expr_of(text), Frame.dual())[0]


def frame_of(**columns):
    """Build a one-table frame from name=(type, values) kwargs."""
    fields = []
    cols = []
    for name, (sql_type, values) in columns.items():
        fields.append(Field("t", name, sql_type))
        cols.append(Column.from_values(sql_type, values))
    return Frame(tuple(fields), cols)


class TestArithmetic:
    def test_basic_ops(self):
        assert eval_scalar("1 + 2 * 3") == 7
        assert eval_scalar("10 - 4") == 6
        assert eval_scalar("2.5 * 4") == 10.0

    def test_int_division_truncates_toward_zero(self):
        # PostgreSQL semantics.
        assert eval_scalar("7 / 2") == 3
        assert eval_scalar("-7 / 2") == -3

    def test_float_division(self):
        assert eval_scalar("7.0 / 2") == 3.5
        assert eval_scalar("7 / 2.0") == 3.5

    def test_modulo_sign_follows_dividend(self):
        assert eval_scalar("7 % 3") == 1
        assert eval_scalar("-7 % 3") == -1

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            eval_scalar("1 / 0")
        with pytest.raises(ExecutionError):
            eval_scalar("1 % 0")

    def test_null_divisor_does_not_raise(self):
        assert eval_scalar("1 / NULL") is None

    def test_null_propagation(self):
        assert eval_scalar("1 + NULL") is None
        assert eval_scalar("NULL * 2") is None

    def test_unary_minus(self):
        assert eval_scalar("-(3 + 4)") == -7

    def test_arithmetic_on_text_raises(self):
        with pytest.raises(TypeCheckError):
            eval_scalar("'a' + 1")


class TestComparisons:
    def test_basic(self):
        assert eval_scalar("1 < 2") is True
        assert eval_scalar("2 <= 1") is False
        assert eval_scalar("3 = 3") is True
        assert eval_scalar("3 <> 3") is False

    def test_null_comparison_is_unknown(self):
        assert eval_scalar("NULL = NULL") is None
        assert eval_scalar("1 < NULL") is None

    def test_mixed_numeric_comparison(self):
        assert eval_scalar("1 = 1.0") is True

    def test_text_comparison(self):
        assert eval_scalar("'abc' < 'abd'") is True


class TestBooleanLogic:
    def test_kleene_and_or(self):
        assert eval_scalar("TRUE AND NULL") is None
        assert eval_scalar("FALSE AND NULL") is False
        assert eval_scalar("TRUE OR NULL") is True
        assert eval_scalar("FALSE OR NULL") is None

    def test_not(self):
        assert eval_scalar("NOT TRUE") is False
        assert eval_scalar("NOT NULL") is None

    TRI_LITERAL = {True: "TRUE", False: "FALSE", None: "NULL"}

    @given(st.sampled_from([True, False, None]),
           st.sampled_from([True, False, None]))
    def test_vectorized_and_matches_scalar_reference(self, a, b):
        text = f"{self.TRI_LITERAL[a]} AND {self.TRI_LITERAL[b]}"
        assert eval_scalar(text) == sql_and(a, b)

    @given(st.sampled_from([True, False, None]),
           st.sampled_from([True, False, None]))
    def test_vectorized_or_matches_scalar_reference(self, a, b):
        text = f"{self.TRI_LITERAL[a]} OR {self.TRI_LITERAL[b]}"
        assert eval_scalar(text) == sql_or(a, b)

    @given(st.sampled_from([True, False, None]))
    def test_vectorized_not_matches_scalar_reference(self, a):
        assert eval_scalar(f"NOT {self.TRI_LITERAL[a]}") == sql_not(a)


class TestPredicates:
    def test_is_null(self):
        frame = frame_of(x=(SqlType.INTEGER, [1, None, 3]))
        keep = evaluate_predicate(expr_of("x IS NULL"), frame)
        assert keep.tolist() == [False, True, False]

    def test_is_not_null(self):
        frame = frame_of(x=(SqlType.INTEGER, [1, None]))
        keep = evaluate_predicate(expr_of("x IS NOT NULL"), frame)
        assert keep.tolist() == [True, False]

    def test_unknown_rows_are_dropped(self):
        frame = frame_of(x=(SqlType.INTEGER, [1, None, 3]))
        keep = evaluate_predicate(expr_of("x > 1"), frame)
        assert keep.tolist() == [False, False, True]

    def test_in_list(self):
        frame = frame_of(x=(SqlType.INTEGER, [1, 2, 3, None]))
        keep = evaluate_predicate(expr_of("x IN (1, 3)"), frame)
        assert keep.tolist() == [True, False, True, False]

    def test_not_in_with_null_operand(self):
        frame = frame_of(x=(SqlType.INTEGER, [None]))
        keep = evaluate_predicate(expr_of("x NOT IN (1)"), frame)
        assert keep.tolist() == [False]  # NULL NOT IN ... is UNKNOWN

    def test_between(self):
        frame = frame_of(x=(SqlType.INTEGER, [0, 5, 10, 11]))
        keep = evaluate_predicate(expr_of("x BETWEEN 5 AND 10"), frame)
        assert keep.tolist() == [False, True, True, False]

    def test_not_between(self):
        frame = frame_of(x=(SqlType.INTEGER, [0, 7]))
        keep = evaluate_predicate(expr_of("x NOT BETWEEN 5 AND 10"), frame)
        assert keep.tolist() == [True, False]

    def test_non_boolean_predicate_rejected(self):
        frame = frame_of(x=(SqlType.INTEGER, [1]))
        with pytest.raises(TypeCheckError):
            evaluate_predicate(expr_of("x + 1"), frame)

    def test_like(self):
        frame = frame_of(s=(SqlType.TEXT, ["apple", "banana", None]))
        keep = evaluate_predicate(expr_of("s LIKE 'a%'"), frame)
        assert keep.tolist() == [True, False, False]

    def test_like_underscore(self):
        frame = frame_of(s=(SqlType.TEXT, ["cat", "cart"]))
        keep = evaluate_predicate(expr_of("s LIKE 'c_t'"), frame)
        assert keep.tolist() == [True, False]


class TestCase:
    def test_searched_case(self):
        frame = frame_of(x=(SqlType.INTEGER, [1, 2, 3]))
        result = evaluate(
            expr_of("CASE WHEN x = 1 THEN 10 WHEN x = 2 THEN 20 "
                    "ELSE 30 END"), frame)
        assert result.to_list() == [10, 20, 30]

    def test_no_else_gives_null(self):
        frame = frame_of(x=(SqlType.INTEGER, [1, 2]))
        result = evaluate(expr_of("CASE WHEN x = 1 THEN 10 END"), frame)
        assert result.to_list() == [10, None]

    def test_simple_case(self):
        frame = frame_of(x=(SqlType.INTEGER, [1, 9]))
        result = evaluate(expr_of("CASE x WHEN 1 THEN 'one' "
                                  "ELSE 'other' END"), frame)
        assert result.to_list() == ["one", "other"]

    def test_first_matching_branch_wins(self):
        frame = frame_of(x=(SqlType.INTEGER, [5]))
        result = evaluate(
            expr_of("CASE WHEN x > 0 THEN 'pos' WHEN x > 3 THEN 'big' END"),
            frame)
        assert result.to_list() == ["pos"]

    def test_branch_types_unify(self):
        frame = frame_of(x=(SqlType.INTEGER, [1, 2]))
        result = evaluate(expr_of("CASE WHEN x = 1 THEN 1 ELSE 2.5 END"),
                          frame)
        assert result.sql_type is SqlType.FLOAT


class TestScalarFunctions:
    def test_least_greatest_ignore_nulls(self):
        # PostgreSQL semantics: NULL args skipped.
        assert eval_scalar("LEAST(3, NULL, 1)") == 1
        assert eval_scalar("GREATEST(3, NULL, 1)") == 3
        assert eval_scalar("LEAST(NULL, NULL)") is None

    def test_coalesce(self):
        assert eval_scalar("COALESCE(NULL, NULL, 7)") == 7
        assert eval_scalar("COALESCE(1, 2)") == 1
        assert eval_scalar("COALESCE(NULL, NULL)") is None

    def test_nullif(self):
        assert eval_scalar("NULLIF(1, 1)") is None
        assert eval_scalar("NULLIF(1, 2)") == 1

    def test_rounding_family(self):
        assert eval_scalar("CEILING(1.2)") == 2.0
        assert eval_scalar("CEIL(-1.2)") == -1.0
        assert eval_scalar("FLOOR(1.8)") == 1.0
        assert eval_scalar("ROUND(1.567, 2)") == 1.57
        assert eval_scalar("ROUND(1.5)") == 2.0

    def test_mod_function(self):
        assert eval_scalar("MOD(10, 3)") == 1
        assert eval_scalar("MOD(10, 0.75)") == 0.25

    def test_math(self):
        assert eval_scalar("ABS(-4)") == 4
        assert eval_scalar("SQRT(9)") == 3.0
        assert eval_scalar("POWER(2, 10)") == 1024.0
        assert abs(eval_scalar("EXP(1)") - 2.718281828) < 1e-6
        assert abs(eval_scalar("LN(EXP(2))") - 2.0) < 1e-12
        assert eval_scalar("SIGN(-3.2)") == -1

    def test_sqrt_domain_error(self):
        with pytest.raises(ExecutionError):
            eval_scalar("SQRT(-1)")

    def test_text_functions(self):
        assert eval_scalar("LENGTH('hello')") == 5
        assert eval_scalar("UPPER('abc')") == "ABC"
        assert eval_scalar("LOWER('ABC')") == "abc"

    def test_concat_function_ignores_null(self):
        assert eval_scalar("CONCAT('a', NULL, 'b')") == "ab"

    def test_concat_operator_propagates_null(self):
        assert eval_scalar("'a' || NULL") is None
        assert eval_scalar("'a' || 'b'") == "ab"

    def test_unknown_function(self):
        from repro.errors import BindError
        with pytest.raises(BindError):
            eval_scalar("FROBNICATE(1)")

    def test_cast(self):
        assert eval_scalar("CAST(1.9 AS int)") == 1
        assert eval_scalar("CAST('42' AS int)") == 42
        assert eval_scalar("CAST(NULL AS float)") is None

    def test_round_per_row_digits(self):
        frame = frame_of(x=(SqlType.FLOAT, [1.567, 1.567]),
                         n=(SqlType.INTEGER, [1, 2]))
        result = evaluate(expr_of("ROUND(x, n)"), frame)
        assert result.to_list() == [1.6, 1.57]


class TestVectorProperties:
    @given(st.lists(st.one_of(st.none(),
                              st.integers(-100, 100)), max_size=50))
    def test_coalesce_never_null_with_fallback(self, values):
        frame = frame_of(x=(SqlType.INTEGER, values))
        result = evaluate(expr_of("COALESCE(x, 0)"), frame)
        assert not result.mask.any()
        expected = [0 if v is None else v for v in values]
        assert result.to_list() == expected

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=50))
    def test_least_below_greatest(self, values):
        frame = frame_of(x=(SqlType.INTEGER, values),
                         y=(SqlType.INTEGER, values[::-1]))
        low = evaluate(expr_of("LEAST(x, y)"), frame).to_list()
        high = evaluate(expr_of("GREATEST(x, y)"), frame).to_list()
        assert all(a <= b for a, b in zip(low, high))


def _arith(op, a, b):
    """Python arithmetic with SQL NULL propagation."""
    return None if a is None or b is None else op(a, b)


def _less(a, b):
    order = sql_compare(a, b)
    return None if order is None else order < 0


def _greater(a, b):
    order = sql_compare(a, b)
    return None if order is None else order > 0


# Row-level references built from repro.types.values.
INTEGER_REFERENCE = {
    "x + y": lambda x, y: _arith(operator.add, x, y),
    "x * y - 3": lambda x, y: _arith(
        operator.sub, _arith(operator.mul, x, y), 3),
    "x < y": _less,
    "x = y": sql_equal,
    "x IS NULL OR y > 0": lambda x, y: sql_or(x is None, _greater(y, 0)),
}
BOOLEAN_REFERENCE = {
    "p AND q": sql_and,
    "p OR q": sql_or,
    "NOT p": lambda p, q: sql_not(p),
}


class TestColumnsMatchScalarReference:
    """Row by row over columns that mix NULL and valid rows, the
    vectorized evaluator agrees with the scalar reference."""

    @pytest.mark.parametrize("text", sorted(INTEGER_REFERENCE))
    @given(st.lists(st.one_of(st.none(), st.integers(-100, 100)),
                    min_size=1, max_size=30),
           st.lists(st.one_of(st.none(), st.integers(-100, 100)),
                    min_size=1, max_size=30))
    def test_integer_columns(self, text, xs, ys):
        size = min(len(xs), len(ys))
        xs, ys = xs[:size], ys[:size]
        frame = frame_of(x=(SqlType.INTEGER, xs), y=(SqlType.INTEGER, ys))
        reference = INTEGER_REFERENCE[text]
        assert evaluate(expr_of(text), frame).to_list() == \
            [reference(x, y) for x, y in zip(xs, ys)]

    @pytest.mark.parametrize("text", sorted(BOOLEAN_REFERENCE))
    @given(st.lists(st.one_of(st.none(), st.booleans()),
                    min_size=1, max_size=25),
           st.lists(st.one_of(st.none(), st.booleans()),
                    min_size=1, max_size=25))
    def test_boolean_columns(self, text, ps, qs):
        size = min(len(ps), len(qs))
        ps, qs = ps[:size], qs[:size]
        frame = frame_of(p=(SqlType.BOOLEAN, ps), q=(SqlType.BOOLEAN, qs))
        reference = BOOLEAN_REFERENCE[text]
        assert evaluate(expr_of(text), frame).to_list() == \
            [reference(p, q) for p, q in zip(ps, qs)]
