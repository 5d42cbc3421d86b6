"""Name resolution and type inference shared by the builder and executor.

The same resolution rules are applied at bind time (building the logical
plan, where errors should surface) and at run time (mapping column
references onto frame slots): a qualified reference must match exactly one
field with that qualifier; an unqualified reference must match exactly one
field by name across all qualifiers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import BindError, TypeCheckError
from ..sql import ast
from ..types import SqlType, common_type
from .logical import Field


def resolve_column(fields: Sequence[Field], ref: ast.ColumnRef) -> int:
    """Index of the field ``ref`` resolves to, or raise BindError."""
    name, table = ref.folded
    matches = [i for i, f in enumerate(fields) if f.matches(name, table)]
    if not matches:
        available = ", ".join(str(f) for f in fields) or "<none>"
        raise BindError(
            f"column {ref.qualified!r} not found (available: {available})")
    if len(matches) > 1:
        raise BindError(f"column reference {ref.qualified!r} is ambiguous")
    return matches[0]


# Scalar function return types.  ``None`` means "common type of arguments".
_FUNCTION_TYPES: dict[str, Optional[SqlType]] = {
    "least": None,
    "greatest": None,
    "coalesce": None,
    "nullif": None,
    "abs": None,
    "ceiling": SqlType.FLOAT,
    "ceil": SqlType.FLOAT,
    "floor": SqlType.FLOAT,
    "round": SqlType.FLOAT,
    "sqrt": SqlType.FLOAT,
    "ln": SqlType.FLOAT,
    "exp": SqlType.FLOAT,
    "power": SqlType.FLOAT,
    "mod": None,
    "sign": SqlType.INTEGER,
    "length": SqlType.INTEGER,
    "upper": SqlType.TEXT,
    "lower": SqlType.TEXT,
    "concat": SqlType.TEXT,
}

SCALAR_FUNCTIONS = frozenset(_FUNCTION_TYPES)


def infer_type(expr: ast.Expr, fields: Sequence[Field]) -> SqlType:
    """Static result type of ``expr`` over a row of ``fields``."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        if value is None:
            return SqlType.NULL
        if isinstance(value, bool):
            return SqlType.BOOLEAN
        if isinstance(value, int):
            return SqlType.INTEGER
        if isinstance(value, float):
            return SqlType.FLOAT
        return SqlType.TEXT
    if isinstance(expr, ast.ColumnRef):
        return fields[resolve_column(fields, expr)].sql_type
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        if op in (ast.BinaryOperator.AND, ast.BinaryOperator.OR):
            return SqlType.BOOLEAN
        if op.is_comparison or op is ast.BinaryOperator.LIKE:
            return SqlType.BOOLEAN
        if op is ast.BinaryOperator.CONCAT:
            return SqlType.TEXT
        left = infer_type(expr.left, fields)
        right = infer_type(expr.right, fields)
        result = common_type(left, right)
        if not result.is_numeric and result is not SqlType.NULL:
            raise TypeCheckError(
                f"operator {op.value} requires numeric operands, "
                f"got {left} and {right}")
        return result
    if isinstance(expr, ast.UnaryOp):
        if expr.op is ast.UnaryOperator.NOT:
            return SqlType.BOOLEAN
        return infer_type(expr.operand, fields)
    if isinstance(expr, (ast.IsNull, ast.InList, ast.Between)):
        return SqlType.BOOLEAN
    if isinstance(expr, ast.Case):
        result = SqlType.NULL
        for _, branch in expr.whens:
            result = common_type(result, infer_type(branch, fields))
        if expr.default is not None:
            result = common_type(result, infer_type(expr.default, fields))
        return result
    if isinstance(expr, ast.Cast):
        from ..types import type_from_name
        return type_from_name(expr.type_name)
    if isinstance(expr, ast.FunctionCall):
        return _infer_call_type(expr, fields)
    if isinstance(expr, ast.Star):
        raise BindError("'*' is not valid in this context")
    raise TypeCheckError(f"cannot type expression {type(expr).__name__}")


def _infer_call_type(call: ast.FunctionCall,
                     fields: Sequence[Field]) -> SqlType:
    name = call.name
    if name in ast.AGGREGATE_FUNCTIONS:
        if name == "count":
            return SqlType.INTEGER
        if name == "avg":
            return SqlType.FLOAT
        # SUM/MIN/MAX follow their argument.
        arg_type = infer_type(call.args[0], fields)
        if name == "sum" and arg_type is SqlType.INTEGER:
            return SqlType.INTEGER
        return arg_type
    if name in _FUNCTION_TYPES:
        fixed = _FUNCTION_TYPES[name]
        if fixed is not None:
            return fixed
        result = SqlType.NULL
        for arg in call.args:
            result = common_type(result, infer_type(arg, fields))
        return result
    raise BindError(f"unknown function: {name!r}")
