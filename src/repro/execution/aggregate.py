"""Grouped aggregate kernels with SQL NULL semantics.

SUM/MIN/MAX/AVG ignore NULL inputs and return NULL for groups with no
valid input; COUNT returns 0.  COUNT(*) counts rows regardless of NULLs.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError, TypeCheckError
from ..plan.binding import infer_type
from ..sql import ast
from ..storage import Column
from ..types import SqlType
from .expressions import evaluate
from .frame import Frame
from .kernels import factorize


def compute_aggregate(call: ast.FunctionCall, frame: Frame,
                      gids: np.ndarray, n_groups: int) -> Column:
    """Evaluate one aggregate call per group over ``frame``."""
    name = call.name
    if name == "count":
        return _count(call, frame, gids, n_groups)
    if len(call.args) != 1:
        raise TypeCheckError(f"{name.upper()} expects exactly one argument")
    if call.distinct:
        raise ExecutionError(
            f"DISTINCT is only supported inside COUNT, not {name.upper()}")
    values = evaluate(call.args[0], frame)
    if name == "sum":
        return _sum(values, gids, n_groups)
    if name == "avg":
        total = _sum(values.cast(SqlType.FLOAT), gids, n_groups)
        counts = _valid_counts(values, gids, n_groups)
        data = np.zeros(n_groups, dtype=np.float64)
        nonzero = counts > 0
        data[nonzero] = total.data[nonzero] / counts[nonzero]
        return Column(SqlType.FLOAT, data, counts == 0)
    if name in ("min", "max"):
        return _extreme(values, gids, n_groups, smallest=(name == "min"))
    raise ExecutionError(f"unknown aggregate: {name!r}")


def _count(call: ast.FunctionCall, frame: Frame, gids: np.ndarray,
           n_groups: int) -> Column:
    if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
        data = np.bincount(gids, minlength=n_groups).astype(np.int64)
        return Column(SqlType.INTEGER, data,
                      np.zeros(n_groups, dtype=np.bool_))
    if len(call.args) != 1:
        raise TypeCheckError("COUNT expects exactly one argument")
    values = evaluate(call.args[0], frame)
    if call.distinct:
        codes, _ = factorize(values, nulls_match=False)
        valid = codes >= 0
        if not valid.any():
            data = np.zeros(n_groups, dtype=np.int64)
        else:
            pairs = gids[valid] * (codes.max() + 1) + codes[valid]
            unique_pairs = np.unique(pairs)
            pair_gids = unique_pairs // (codes.max() + 1)
            data = np.bincount(pair_gids,
                               minlength=n_groups).astype(np.int64)
        return Column(SqlType.INTEGER, data,
                      np.zeros(n_groups, dtype=np.bool_))
    data = _valid_counts(values, gids, n_groups).astype(np.int64)
    return Column(SqlType.INTEGER, data, np.zeros(n_groups, dtype=np.bool_))


def _valid_counts(values: Column, gids: np.ndarray,
                  n_groups: int) -> np.ndarray:
    valid = ~values.mask
    if not valid.any():
        return np.zeros(n_groups, dtype=np.int64)
    return np.bincount(gids[valid], minlength=n_groups).astype(np.int64)


def _sum(values: Column, gids: np.ndarray, n_groups: int) -> Column:
    if not values.sql_type.is_numeric and values.sql_type is not SqlType.NULL:
        raise TypeCheckError("SUM requires a numeric argument")
    counts = _valid_counts(values, gids, n_groups)
    valid = ~values.mask
    mask = counts == 0
    if values.sql_type is SqlType.INTEGER:
        return Column(SqlType.INTEGER,
                      _exact_int_sums(values.data[valid], gids[valid],
                                      n_groups), mask)
    sums = np.zeros(n_groups, dtype=np.float64)
    if valid.any():
        sums = np.bincount(
            gids[valid],
            weights=values.data[valid].astype(np.float64),
            minlength=n_groups)
    return Column(SqlType.FLOAT, sums, mask)


def _exact_int_sums(data: np.ndarray, gids: np.ndarray,
                    n_groups: int) -> np.ndarray:
    """Per-group int64 sums, exact, raising where a sum leaves int64.

    Each value splits into a signed high and an unsigned low 32-bit
    half; neither half's per-group total can overflow int64 below 2^31
    rows per group, and recombining them tells an in-range sum from one
    that would wrap.  Overflow is judged on the group's total, so unlike
    SQLite (which fails as soon as a running sum leaves int64) a group
    whose partial sums overflow and come back still succeeds."""
    data = data.astype(np.int64, copy=False)
    low = np.zeros(n_groups, dtype=np.int64)
    high = np.zeros(n_groups, dtype=np.int64)
    np.add.at(low, gids, data & 0xFFFFFFFF)
    np.add.at(high, gids, data >> 32)
    high += low >> 32
    if ((high < -(1 << 31)) | (high >= (1 << 31))).any():
        raise ExecutionError("integer overflow in SUM")
    return (high << 32) | (low & 0xFFFFFFFF)


def _extreme(values: Column, gids: np.ndarray, n_groups: int,
             smallest: bool) -> Column:
    valid = ~values.mask
    counts = _valid_counts(values, gids, n_groups)
    mask = counts == 0
    if values.sql_type is SqlType.TEXT:
        # Object dtype: no ufunc.at — loop over valid rows.
        best: list = [None] * n_groups
        for i in np.nonzero(valid)[0]:
            gid = gids[i]
            value = values.data[i]
            if best[gid] is None or (smallest and value < best[gid]) \
                    or (not smallest and value > best[gid]):
                best[gid] = value
        return Column.from_values(SqlType.TEXT, best)
    result_type = values.sql_type
    if result_type is SqlType.NULL:
        result_type = SqlType.FLOAT
    if result_type is SqlType.BOOLEAN:
        init = True if smallest else False
        data = np.full(n_groups, init, dtype=np.bool_)
    elif result_type is SqlType.INTEGER:
        init = np.iinfo(np.int64).max if smallest else np.iinfo(np.int64).min
        data = np.full(n_groups, init, dtype=np.int64)
    else:
        init = np.inf if smallest else -np.inf
        data = np.full(n_groups, init, dtype=np.float64)
    if valid.any():
        reducer = np.minimum if smallest else np.maximum
        reducer.at(data, gids[valid], values.data[valid])
    # Give empty groups an in-band placeholder consistent with the mask.
    if mask.any():
        data[mask] = 0
    return Column(result_type, data, mask)


def internal_aggregate_fields(node, child_fields):
    """Field descriptors for the key/aggregate slots of an Aggregate node."""
    from ..plan.logical import Field
    fields = []
    for key_expr, slot in node.keys:
        fields.append(Field(None, slot, infer_type(key_expr, child_fields)))
    for spec in node.aggregates:
        fields.append(Field(None, spec.name,
                            infer_type(spec.call, child_fields)))
    return tuple(fields)
