"""Grouped aggregate kernels with SQL NULL semantics.

SUM/MIN/MAX/AVG ignore NULL inputs and return NULL for groups with no
valid input; COUNT returns 0.  COUNT(*) counts rows regardless of NULLs.

An input without NULLs (:func:`_null_free`) skips the ``gids[valid]`` /
``data[valid]`` copies, and SUM, MIN and MAX skip the valid-row counts.
Every group id in ``gids`` occurs (``_execute_aggregate`` numbers only
the groups it finds), so then no group lacks a valid input: the result
mask is all False, except for a no-key aggregate over 0 rows, whose one
group is empty.  Sums add the same values in the same row order, so
FLOAT results stay bit-identical.
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
from .kernels import factorize, unique_sorted


def compute_aggregate(call: ast.FunctionCall, frame: Frame,
                      gids: np.ndarray, n_groups: int) -> Column:
    """Evaluate one aggregate call per group over ``frame``.

    Every id below ``n_groups`` must occur in ``gids`` unless ``frame``
    has no rows: the NULL-free path reads the result mask off that."""
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
            unique_pairs = unique_sorted(pairs)
            pair_gids = unique_pairs // (codes.max() + 1)
            data = np.bincount(pair_gids,
                               minlength=n_groups).astype(np.int64)
        return Column(SqlType.INTEGER, data,
                      np.zeros(n_groups, dtype=np.bool_))
    data = _valid_counts(values, gids, n_groups).astype(np.int64)
    return Column(SqlType.INTEGER, data, np.zeros(n_groups, dtype=np.bool_))


def _null_free(values: Column) -> bool:
    return not values.mask.any()


def _valid_counts(values: Column, gids: np.ndarray,
                  n_groups: int) -> np.ndarray:
    if _null_free(values):
        return np.bincount(gids, minlength=n_groups).astype(np.int64)
    valid = ~values.mask
    if not valid.any():
        return np.zeros(n_groups, dtype=np.int64)
    return np.bincount(gids[valid], minlength=n_groups).astype(np.int64)


def _valid_rows(values: Column, gids: np.ndarray, n_groups: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The data and group ids of the rows without NULLs, and the result
    mask: the groups with none.  A NULL-free input is used as it is,
    and then every group has a row unless there are no rows at all."""
    if _null_free(values):
        return (values.data, gids,
                np.full(n_groups, len(gids) == 0, dtype=np.bool_))
    valid = ~values.mask
    mask = _valid_counts(values, gids, n_groups) == 0
    return values.data[valid], gids[valid], mask


def _sum(values: Column, gids: np.ndarray, n_groups: int) -> Column:
    if not values.sql_type.is_numeric and values.sql_type is not SqlType.NULL:
        raise TypeCheckError("SUM requires a numeric argument")
    data, gids, mask = _valid_rows(values, gids, n_groups)
    if values.sql_type is SqlType.INTEGER:
        return Column(SqlType.INTEGER,
                      _exact_int_sums(data, gids, n_groups), mask)
    sums = np.zeros(n_groups, dtype=np.float64)
    if len(gids):
        sums = np.bincount(gids, weights=data.astype(np.float64, copy=False),
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
    data, gids, mask = _valid_rows(values, gids, n_groups)
    if values.sql_type is SqlType.TEXT:
        # Object dtype: no ufunc.at — loop over valid rows.
        best: list = [None] * n_groups
        for gid, value in zip(gids.tolist(), data):
            if best[gid] is None or (smallest and value < best[gid]) \
                    or (not smallest and value > best[gid]):
                best[gid] = value
        return Column.from_values(SqlType.TEXT, best)
    result_type = values.sql_type
    if result_type is SqlType.NULL:
        result_type = SqlType.FLOAT
    if result_type is SqlType.BOOLEAN:
        init = True if smallest else False
        result = np.full(n_groups, init, dtype=np.bool_)
    elif result_type is SqlType.INTEGER:
        init = np.iinfo(np.int64).max if smallest else np.iinfo(np.int64).min
        result = np.full(n_groups, init, dtype=np.int64)
    else:
        init = np.inf if smallest else -np.inf
        result = np.full(n_groups, init, dtype=np.float64)
    if len(gids):
        reducer = np.minimum if smallest else np.maximum
        reducer.at(result, gids, data)
    # Give empty groups an in-band placeholder consistent with the mask.
    if mask.any():
        result[mask] = 0
    return Column(result_type, result, mask)


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
