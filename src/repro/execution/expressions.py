"""Vectorized expression evaluation over frames.

Implements SQL scalar semantics — three-valued logic, NULL propagation,
PostgreSQL-style integer division and modulo — entirely with numpy
operations on (data, mask) column pairs.  The scalar reference semantics
live in :mod:`repro.types.values`; property-based tests assert the two
agree.
"""

from __future__ import annotations

import math
import re
from typing import Callable

import numpy as np

from ..errors import BindError, ExecutionError, TypeCheckError
from ..plan.binding import SCALAR_FUNCTIONS, infer_type
from ..sql import ast
from ..storage import Column
from ..types import SqlType, common_type
from .frame import Frame
from .kernels import unique_sorted


def evaluate(expr: ast.Expr, frame: Frame) -> Column:
    """Evaluate ``expr`` against every row of ``frame``."""
    if isinstance(expr, ast.Literal):
        return _literal_column(expr.value, frame.num_rows)
    if isinstance(expr, ast.ColumnRef):
        return frame.resolve(expr)
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, frame)
    if isinstance(expr, ast.UnaryOp):
        return _unary(expr, frame)
    if isinstance(expr, ast.IsNull):
        operand = evaluate(expr.operand, frame)
        data = ~operand.mask if expr.negated else operand.mask.copy()
        return Column(SqlType.BOOLEAN, data,
                      np.zeros(frame.num_rows, dtype=np.bool_))
    if isinstance(expr, ast.InList):
        return _in_list(expr, frame)
    if isinstance(expr, ast.Between):
        lowered = ast.BinaryOp(
            ast.BinaryOperator.AND,
            ast.BinaryOp(ast.BinaryOperator.GE, expr.operand, expr.low),
            ast.BinaryOp(ast.BinaryOperator.LE, expr.operand, expr.high))
        result = evaluate(lowered, frame)
        if expr.negated:
            return _not(result)
        return result
    if isinstance(expr, ast.Case):
        return _case(expr, frame)
    if isinstance(expr, ast.Cast):
        from ..types import type_from_name
        operand = evaluate(expr.operand, frame)
        return operand.cast(type_from_name(expr.type_name))
    if isinstance(expr, ast.FunctionCall):
        return _call(expr, frame)
    if isinstance(expr, ast.Star):
        raise BindError("'*' is not valid in a scalar expression")
    raise ExecutionError(
        f"cannot evaluate expression node {type(expr).__name__}")


def evaluate_predicate(expr: ast.Expr, frame: Frame) -> np.ndarray:
    """Evaluate a WHERE/ON/HAVING predicate: UNKNOWN (NULL) rows drop."""
    column = evaluate(expr, frame)
    if column.sql_type not in (SqlType.BOOLEAN, SqlType.NULL):
        raise TypeCheckError(
            f"predicate must be boolean, got {column.sql_type}")
    return column.data.astype(np.bool_) & ~column.mask


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------


def _literal_column(value, count: int) -> Column:
    if value is None:
        return Column.nulls(SqlType.NULL, count)
    if isinstance(value, bool):
        return Column.constant(SqlType.BOOLEAN, value, count)
    if isinstance(value, int):
        return Column.constant(SqlType.INTEGER, value, count)
    if isinstance(value, float):
        return Column.constant(SqlType.FLOAT, value, count)
    if isinstance(value, str):
        return Column.constant(SqlType.TEXT, value, count)
    raise ExecutionError(f"unsupported literal: {value!r}")


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------


_ARITHMETIC = {
    ast.BinaryOperator.ADD, ast.BinaryOperator.SUB,
    ast.BinaryOperator.MUL, ast.BinaryOperator.DIV, ast.BinaryOperator.MOD,
}


def _binary(expr: ast.BinaryOp, frame: Frame) -> Column:
    op = expr.op
    if op is ast.BinaryOperator.AND:
        return _kleene_and(evaluate(expr.left, frame),
                           evaluate(expr.right, frame))
    if op is ast.BinaryOperator.OR:
        return _kleene_or(evaluate(expr.left, frame),
                          evaluate(expr.right, frame))
    left = evaluate(expr.left, frame)
    right = evaluate(expr.right, frame)
    if op in _ARITHMETIC:
        return _arithmetic(op, left, right)
    if op.is_comparison:
        return _comparison(op, left, right)
    if op is ast.BinaryOperator.CONCAT:
        return _concat(left, right)
    if op is ast.BinaryOperator.LIKE:
        return _like(left, right)
    raise ExecutionError(f"unsupported binary operator: {op}")


def _arithmetic(op: ast.BinaryOperator, left: Column,
                right: Column) -> Column:
    result_type = common_type(left.sql_type, right.sql_type)
    if result_type is SqlType.NULL:
        # NULL op NULL — type as FLOAT so storage has a dtype.
        result_type = SqlType.FLOAT
    if not result_type.is_numeric:
        raise TypeCheckError(
            f"operator {op.value} requires numeric operands")
    left = left.cast(result_type)
    right = right.cast(result_type)
    mask = left.mask | right.mask
    a, b = left.data, right.data
    valid = ~mask

    if op is ast.BinaryOperator.ADD:
        data = a + b
    elif op is ast.BinaryOperator.SUB:
        data = a - b
    elif op is ast.BinaryOperator.MUL:
        data = a * b
    elif op is ast.BinaryOperator.DIV:
        _check_zero_divisor(b, valid, "division by zero")
        if result_type is SqlType.INTEGER:
            # PostgreSQL integer division truncates toward zero.
            safe_b = np.where(b == 0, 1, b)
            data = np.fix(a / safe_b).astype(np.int64)
        else:
            safe_b = np.where(b == 0.0, 1.0, b)
            data = a / safe_b
    else:  # MOD
        _check_zero_divisor(b, valid, "modulo by zero")
        safe_b = np.where(b == 0, 1, b)
        data = np.fmod(a, safe_b)
    return Column(result_type, data, mask)


def _check_zero_divisor(divisor: np.ndarray, valid: np.ndarray,
                        message: str) -> None:
    if valid.any() and (divisor[valid] == 0).any():
        raise ExecutionError(message)


def _comparison(op: ast.BinaryOperator, left: Column,
                right: Column) -> Column:
    target = common_type(left.sql_type, right.sql_type)
    if target is not SqlType.NULL:
        left = left.cast(target)
        right = right.cast(target)
    mask = left.mask | right.mask
    count = len(left)
    data = np.zeros(count, dtype=np.bool_)
    valid = ~mask
    if valid.any():
        a = left.data[valid]
        b = right.data[valid]
        if op is ast.BinaryOperator.EQ:
            out = a == b
        elif op is ast.BinaryOperator.NE:
            out = a != b
        elif op is ast.BinaryOperator.LT:
            out = a < b
        elif op is ast.BinaryOperator.LE:
            out = a <= b
        elif op is ast.BinaryOperator.GT:
            out = a > b
        else:
            out = a >= b
        data[valid] = np.asarray(out, dtype=np.bool_)
    return Column(SqlType.BOOLEAN, data, mask)


def _kleene_and(left: Column, right: Column) -> Column:
    l_true = ~left.mask & left.data.astype(np.bool_)
    r_true = ~right.mask & right.data.astype(np.bool_)
    l_false = ~left.mask & ~left.data.astype(np.bool_)
    r_false = ~right.mask & ~right.data.astype(np.bool_)
    true = l_true & r_true
    false = l_false | r_false
    mask = ~(true | false)
    return Column(SqlType.BOOLEAN, true, mask)


def _kleene_or(left: Column, right: Column) -> Column:
    l_true = ~left.mask & left.data.astype(np.bool_)
    r_true = ~right.mask & right.data.astype(np.bool_)
    l_false = ~left.mask & ~left.data.astype(np.bool_)
    r_false = ~right.mask & ~right.data.astype(np.bool_)
    true = l_true | r_true
    false = l_false & r_false
    mask = ~(true | false)
    return Column(SqlType.BOOLEAN, true, mask)


def _not(column: Column) -> Column:
    return Column(SqlType.BOOLEAN,
                  ~column.data.astype(np.bool_) & ~column.mask,
                  column.mask.copy())


def _unary(expr: ast.UnaryOp, frame: Frame) -> Column:
    operand = evaluate(expr.operand, frame)
    if expr.op is ast.UnaryOperator.NOT:
        if operand.sql_type not in (SqlType.BOOLEAN, SqlType.NULL):
            raise TypeCheckError("NOT requires a boolean operand")
        return _not(operand)
    if not operand.sql_type.is_numeric and operand.sql_type is not SqlType.NULL:
        raise TypeCheckError(f"unary {expr.op.value} requires a number")
    if expr.op is ast.UnaryOperator.NEG:
        return Column(operand.sql_type, -operand.data, operand.mask.copy())
    return operand


def _in_list(expr: ast.InList, frame: Frame) -> Column:
    # x IN (a, b, c)  ==  x = a OR x = b OR x = c  (three-valued).
    result: Column | None = None
    for item in expr.items:
        comparison = evaluate(
            ast.BinaryOp(ast.BinaryOperator.EQ, expr.operand, item), frame)
        result = comparison if result is None else _kleene_or(result,
                                                              comparison)
    if result is None:
        result = Column.constant(SqlType.BOOLEAN, False, frame.num_rows)
    if expr.negated:
        return _not(result)
    return result


def _case(expr: ast.Case, frame: Frame) -> Column:
    result_type = infer_type(expr, frame.fields)
    if result_type is SqlType.NULL:
        result_type = SqlType.FLOAT
    count = frame.num_rows
    out = Column.nulls(result_type, count)
    data = out.data.copy()
    mask = out.mask.copy()
    remaining = np.ones(count, dtype=np.bool_)

    for condition, branch in expr.whens:
        if expr.operand is not None:
            condition = ast.BinaryOp(ast.BinaryOperator.EQ, expr.operand,
                                     condition)
        taken = evaluate_predicate(condition, frame) & remaining
        if taken.any():
            value = evaluate(branch, frame).cast(result_type)
            data[taken] = value.data[taken]
            mask[taken] = value.mask[taken]
        remaining &= ~taken
    if expr.default is not None and remaining.any():
        value = evaluate(expr.default, frame).cast(result_type)
        data[remaining] = value.data[remaining]
        mask[remaining] = value.mask[remaining]
    return Column(result_type, data, mask)


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _call(expr: ast.FunctionCall, frame: Frame) -> Column:
    name = expr.name
    if name in ast.AGGREGATE_FUNCTIONS:
        raise ExecutionError(
            f"aggregate {name.upper()} cannot be evaluated as a scalar "
            "(it must be decomposed by the planner)")
    if name not in SCALAR_FUNCTIONS:
        raise BindError(f"unknown function: {name!r}")
    args = [evaluate(arg, frame) for arg in expr.args]
    handler = _SCALAR_HANDLERS.get(name)
    if handler is None:
        raise BindError(f"unknown function: {name!r}")
    return handler(args, frame.num_rows)


def _require_args(name: str, args: list[Column], count: int) -> None:
    if len(args) != count:
        raise TypeCheckError(
            f"{name.upper()} expects {count} argument(s), got {len(args)}")


def _numeric_common(args: list[Column]) -> SqlType:
    result = SqlType.NULL
    for arg in args:
        result = common_type(result, arg.sql_type)
    if result is SqlType.NULL:
        result = SqlType.FLOAT
    return result


def _fn_least(args: list[Column], count: int) -> Column:
    return _extreme(args, count, smallest=True)


def _fn_greatest(args: list[Column], count: int) -> Column:
    return _extreme(args, count, smallest=False)


def _extreme(args: list[Column], count: int, smallest: bool) -> Column:
    # PostgreSQL semantics: NULL arguments are ignored; result is NULL only
    # when every argument is NULL.
    if not args:
        raise TypeCheckError("LEAST/GREATEST need at least one argument")
    target = _numeric_common(args)
    args = [a.cast(target) for a in args]
    data = args[0].data.astype(target.numpy_dtype, copy=True)
    mask = args[0].mask.copy()
    for arg in args[1:]:
        take_other = arg.mask.copy()
        both = ~mask & ~arg.mask
        if smallest:
            better = np.zeros(count, dtype=np.bool_)
            better[both] = arg.data[both] < data[both]
        else:
            better = np.zeros(count, dtype=np.bool_)
            better[both] = arg.data[both] > data[both]
        replace = (mask & ~arg.mask) | better
        data[replace] = arg.data[replace]
        mask &= take_other
    return Column(target, data, mask)


def _fn_coalesce(args: list[Column], count: int) -> Column:
    if not args:
        raise TypeCheckError("COALESCE needs at least one argument")
    target = _numeric_common(args) if all(
        a.sql_type.is_numeric or a.sql_type is SqlType.NULL for a in args) \
        else args[0].sql_type
    args = [a.cast(target) for a in args]
    data = args[0].data.copy()
    mask = args[0].mask.copy()
    for arg in args[1:]:
        fill = mask & ~arg.mask
        data[fill] = arg.data[fill]
        mask &= arg.mask
    return Column(target, data, mask)


def _fn_nullif(args: list[Column], count: int) -> Column:
    _require_args("nullif", args, 2)
    first, second = args
    equal = Column(SqlType.BOOLEAN, first.equals(second),
                   np.zeros(count, dtype=np.bool_))
    mask = first.mask | equal.data
    return Column(first.sql_type, first.data.copy(), mask)


def _float_unary(fn: Callable[[np.ndarray], np.ndarray], domain=None):
    def handler(args: list[Column], count: int) -> Column:
        _require_args(fn.__name__, args, 1)
        arg = args[0].cast(SqlType.FLOAT)
        valid = ~arg.mask
        if domain is not None and valid.any() \
                and not domain(arg.data[valid]).all():
            raise ExecutionError(
                f"argument out of domain for {fn.__name__}")
        data = np.zeros(count, dtype=np.float64)
        if valid.any():
            data[valid] = fn(arg.data[valid])
        return Column(SqlType.FLOAT, data, arg.mask.copy())
    return handler


def _fn_round(args: list[Column], count: int) -> Column:
    if len(args) not in (1, 2):
        raise TypeCheckError("ROUND expects 1 or 2 arguments")
    value = args[0].cast(SqlType.FLOAT)
    digits = 0
    if len(args) == 2:
        if args[1].mask.any():
            raise ExecutionError("ROUND digit count must not be NULL")
        unique = unique_sorted(args[1].data)
        if len(unique) != 1:
            # Per-row digit counts: bulk-convert once, round per row
            # (Python round keeps the decimal semantics of the scalar
            # path; only the numpy indexing round-trips are gone).
            raw = value.data.tolist()
            digits_raw = args[1].data.tolist()
            nulls = value.mask.tolist()
            data = np.fromiter(
                (0.0 if null else round(float(v), int(d))
                 for v, d, null in zip(raw, digits_raw, nulls)),
                dtype=np.float64, count=count)
            return Column(SqlType.FLOAT, data, value.mask.copy())
        digits = int(unique[0])
    data = np.round(value.data, digits)
    return Column(SqlType.FLOAT, data, value.mask.copy())


def _fn_mod(args: list[Column], count: int) -> Column:
    _require_args("mod", args, 2)
    return _arithmetic(ast.BinaryOperator.MOD, args[0], args[1])


def _fn_power(args: list[Column], count: int) -> Column:
    _require_args("power", args, 2)
    base = args[0].cast(SqlType.FLOAT)
    exponent = args[1].cast(SqlType.FLOAT)
    mask = base.mask | exponent.mask
    data = np.zeros(count, dtype=np.float64)
    valid = ~mask
    if valid.any():
        data[valid] = np.power(base.data[valid], exponent.data[valid])
    return Column(SqlType.FLOAT, data, mask)


def _fn_abs(args: list[Column], count: int) -> Column:
    _require_args("abs", args, 1)
    arg = args[0]
    if not arg.sql_type.is_numeric and arg.sql_type is not SqlType.NULL:
        raise TypeCheckError("ABS requires a numeric argument")
    return Column(arg.sql_type, np.abs(arg.data), arg.mask.copy())


def _fn_sign(args: list[Column], count: int) -> Column:
    _require_args("sign", args, 1)
    arg = args[0].cast(SqlType.FLOAT)
    data = np.sign(arg.data).astype(np.int64)
    return Column(SqlType.INTEGER, data, arg.mask.copy())


def _text_unary(fn: Callable[[str], object], result_type: SqlType):
    def handler(args: list[Column], count: int) -> Column:
        _require_args("text function", args, 1)
        arg = args[0].cast(SqlType.TEXT)
        raw = arg.data.tolist()
        nulls = arg.mask.tolist()
        values = [None if null else fn(value)
                  for value, null in zip(raw, nulls)]
        return Column.from_values(result_type, values)
    return handler


def _fn_concat(args: list[Column], count: int) -> Column:
    # PostgreSQL CONCAT treats NULL as empty string.
    casts = [a.cast(SqlType.TEXT) for a in args]
    if not casts:
        return Column.from_values(SqlType.TEXT, [""] * count)
    columns = []
    for cast in casts:
        raw = cast.data.tolist()
        nulls = cast.mask.tolist()
        columns.append(["" if null else str(value)
                        for value, null in zip(raw, nulls)])
    values = ["".join(parts) for parts in zip(*columns)]
    return Column.from_values(SqlType.TEXT, values)


def _concat(left: Column, right: Column) -> Column:
    # `||` propagates NULL (unlike CONCAT).
    left = left.cast(SqlType.TEXT)
    right = right.cast(SqlType.TEXT)
    mask = left.mask | right.mask
    left_raw = left.data.tolist()
    right_raw = right.data.tolist()
    nulls = mask.tolist()
    values = [None if null else f"{a}{b}"
              for a, b, null in zip(left_raw, right_raw, nulls)]
    return Column.from_values(SqlType.TEXT, values)


def _like(value: Column, pattern: Column) -> Column:
    value = value.cast(SqlType.TEXT)
    pattern = pattern.cast(SqlType.TEXT)
    mask = value.mask | pattern.mask
    count = len(value)
    raw = value.data.tolist()
    pats = pattern.data.tolist()
    nulls = mask.tolist()
    compiled: dict[str, re.Pattern] = {}
    flags = []
    for text, pat, null in zip(raw, pats, nulls):
        if null:
            flags.append(False)
            continue
        rex = compiled.get(pat)
        if rex is None:
            rex = compiled[pat] = _like_regex(pat)
        flags.append(rex.fullmatch(text) is not None)
    data = np.array(flags, dtype=np.bool_) if flags else \
        np.zeros(0, dtype=np.bool_)
    return Column(SqlType.BOOLEAN, data, mask)


def _like_regex(pattern: str) -> re.Pattern:
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("".join(out), re.DOTALL)


_SCALAR_HANDLERS = {
    "least": _fn_least,
    "greatest": _fn_greatest,
    "coalesce": _fn_coalesce,
    "nullif": _fn_nullif,
    "abs": _fn_abs,
    "ceiling": _float_unary(np.ceil),
    "ceil": _float_unary(np.ceil),
    "floor": _float_unary(np.floor),
    "round": _fn_round,
    "sqrt": _float_unary(np.sqrt, domain=lambda x: x >= 0),
    "ln": _float_unary(np.log, domain=lambda x: x > 0),
    "exp": _float_unary(np.exp),
    "power": _fn_power,
    "mod": _fn_mod,
    "sign": _fn_sign,
    "length": _text_unary(len, SqlType.INTEGER),
    "upper": _text_unary(str.upper, SqlType.TEXT),
    "lower": _text_unary(str.lower, SqlType.TEXT),
    "concat": _fn_concat,
}
