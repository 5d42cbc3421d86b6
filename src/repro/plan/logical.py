"""Logical plan operators.

A logical plan is a tree of the relational operators the rewrite subsystem
and the planner manipulate.  Every node exposes:

* ``fields`` — the ordered output columns as (qualifier, name, type)
  triples; qualifiers are lower-cased binding names (table aliases, CTE
  names) or None for anonymous computed columns;
* ``children()`` / ``with_children()`` — uniform traversal and functional
  update, which the rewrite framework relies on.

Expressions inside nodes are AST expressions (:mod:`repro.sql.ast`); they are
resolved against fields both at bind time (by the builder) and at run time
(by the vectorized evaluator), with identical resolution rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

from ..errors import PlanError
from ..sql import ast
from ..types import SqlType


@dataclass(frozen=True)
class Field:
    """One output column of a logical operator."""

    qualifier: Optional[str]
    name: str
    sql_type: SqlType

    def matches(self, ref: ast.ColumnRef) -> bool:
        if ref.table is not None and (self.qualifier is None
                                      or ref.table.lower() != self.qualifier):
            return False
        return ref.name.lower() == self.name

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        prefix = f"{self.qualifier}." if self.qualifier else ""
        return f"{prefix}{self.name}"


class LogicalOp:
    """Base class for logical operators."""

    fields: tuple[Field, ...]

    def children(self) -> tuple["LogicalOp", ...]:
        return ()

    def with_children(self, children: Sequence["LogicalOp"]) -> "LogicalOp":
        if children:
            raise PlanError(f"{type(self).__name__} takes no children")
        return self

    def walk(self) -> Iterator["LogicalOp"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    # Short operator label for EXPLAIN.
    def label(self) -> str:
        return type(self).__name__.removeprefix("Logical")


@dataclass(frozen=True)
class LogicalScan(LogicalOp):
    """Scan of a catalog base table."""

    table_name: str
    alias: str  # binding name, lower-cased
    fields: tuple[Field, ...] = ()

    def label(self) -> str:
        if self.alias != self.table_name.lower():
            return f"Scan({self.table_name} AS {self.alias})"
        return f"Scan({self.table_name})"


@dataclass(frozen=True)
class LogicalTempScan(LogicalOp):
    """Scan of an intermediate result held in the ResultRegistry.

    Used for CTE working/main tables and common-result materializations.
    """

    result_name: str
    alias: str
    fields: tuple[Field, ...] = ()

    def label(self) -> str:
        if self.alias != self.result_name.lower():
            return f"TempScan({self.result_name} AS {self.alias})"
        return f"TempScan({self.result_name})"


@dataclass(frozen=True)
class LogicalValues(LogicalOp):
    """Inline literal rows (VALUES / SELECT without FROM)."""

    rows: tuple[tuple[object, ...], ...]
    fields: tuple[Field, ...] = ()

    def label(self) -> str:
        return f"Values({len(self.rows)} rows)"


@dataclass(frozen=True)
class LogicalFilter(LogicalOp):
    child: LogicalOp
    predicate: ast.Expr

    @property
    def fields(self) -> tuple[Field, ...]:  # type: ignore[override]
        return self.child.fields

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "LogicalFilter":
        (child,) = children
        return replace(self, child=child)

    def label(self) -> str:
        from ..sql.printer import expr_to_sql
        return f"Filter({expr_to_sql(self.predicate)})"


@dataclass(frozen=True)
class LogicalProject(LogicalOp):
    """Projection: compute named output expressions.

    ``qualifier`` labels the produced columns (e.g. a subquery alias) so
    parents can reference them qualified.
    """

    child: LogicalOp
    exprs: tuple[tuple[ast.Expr, str], ...]
    qualifier: Optional[str] = None
    fields: tuple[Field, ...] = ()

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "LogicalProject":
        (child,) = children
        return replace(self, child=child)

    def label(self) -> str:
        names = ", ".join(name for _, name in self.exprs)
        return f"Project({names})"


@dataclass(frozen=True)
class LogicalRename(LogicalOp):
    """Positional relabel: same columns, new names/qualifiers/types.

    Unlike a Project it needs no column references, so it is immune to
    duplicate names in the child's output (``SELECT n, n FROM t``) —
    which is why CTE declared-column renames and derived-table
    requalification use it.
    """

    child: LogicalOp
    fields: tuple[Field, ...] = ()

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "LogicalRename":
        (child,) = children
        return replace(self, child=child)

    def label(self) -> str:
        names = ", ".join(str(f) for f in self.fields)
        return f"Rename({names})"


@dataclass(frozen=True)
class LogicalJoin(LogicalOp):
    """Join of two inputs.  The condition resolves against
    ``input_fields``, every column of both inputs; ``output`` (set by
    the ``prune_columns`` pass) lists the positions of those columns
    the join emits, in order, and None emits them all."""

    kind: ast.JoinKind
    left: LogicalOp
    right: LogicalOp
    condition: Optional[ast.Expr] = None
    output: Optional[tuple[int, ...]] = None

    @property
    def input_fields(self) -> tuple[Field, ...]:
        return (*self.left.fields, *self.right.fields)

    @property
    def fields(self) -> tuple[Field, ...]:  # type: ignore[override]
        fields = self.input_fields
        if self.output is None:
            return fields
        return tuple(fields[i] for i in self.output)

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[LogicalOp]) -> "LogicalJoin":
        left, right = children
        return replace(self, left=left, right=right)

    def label(self) -> str:
        from ..sql.printer import expr_to_sql
        condition = (f" ON {expr_to_sql(self.condition)}"
                     if self.condition is not None else "")
        kept = ""
        if self.output is not None:
            kept = f" keep({', '.join(str(f) for f in self.fields)})"
        return f"{self.kind.value}Join{condition}{kept}"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate computation: the call and its output slot name."""

    call: ast.FunctionCall
    name: str


@dataclass(frozen=True)
class LogicalAggregate(LogicalOp):
    """Hash aggregation.

    ``keys`` are the GROUP BY expressions (with generated slot names);
    ``aggregates`` are the distinct aggregate calls found in the select
    list / HAVING; ``outputs`` are the final select items expressed over
    key slots and aggregate slots (see builder decomposition).
    """

    child: LogicalOp
    keys: tuple[tuple[ast.Expr, str], ...]
    aggregates: tuple[AggregateSpec, ...]
    outputs: tuple[tuple[ast.Expr, str], ...]
    having: Optional[ast.Expr] = None
    qualifier: Optional[str] = None
    fields: tuple[Field, ...] = ()

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self,
                      children: Sequence[LogicalOp]) -> "LogicalAggregate":
        (child,) = children
        return replace(self, child=child)

    def label(self) -> str:
        keys = ", ".join(name for _, name in self.keys)
        aggs = ", ".join(spec.name for spec in self.aggregates)
        return f"Aggregate(keys=[{keys}], aggs=[{aggs}])"


@dataclass(frozen=True)
class LogicalSemiJoin(LogicalOp):
    """Semi join (EXISTS / IN-subquery) or anti join (NOT EXISTS / NOT IN).

    Keeps left rows with at least one (semi) or zero (anti) qualifying
    matches on the right; outputs only the left columns.  ``null_aware``
    selects SQL's NOT IN semantics: a NULL probe value, or any NULL in
    the subquery's output, disqualifies unmatched rows (three-valued
    logic makes them UNKNOWN, which WHERE drops).
    """

    left: LogicalOp
    right: LogicalOp
    condition: Optional[ast.Expr] = None
    anti: bool = False
    null_aware: bool = False
    # For null-aware anti joins: the probe/key pair whose NULLs matter.
    probe_expr: Optional[ast.Expr] = None
    key_expr: Optional[ast.Expr] = None

    @property
    def fields(self) -> tuple[Field, ...]:  # type: ignore[override]
        return self.left.fields

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[LogicalOp]) -> "LogicalSemiJoin":
        left, right = children
        return replace(self, left=left, right=right)

    def label(self) -> str:
        from ..sql.printer import expr_to_sql
        name = "AntiJoin" if self.anti else "SemiJoin"
        condition = (f" ON {expr_to_sql(self.condition)}"
                     if self.condition is not None else "")
        return f"{name}{condition}"


@dataclass(frozen=True)
class LogicalSetDifference(LogicalOp):
    """EXCEPT (``intersect=False``) or INTERSECT (``intersect=True``),
    both with SQL's distinct semantics."""

    left: LogicalOp
    right: LogicalOp
    intersect: bool = False
    fields: tuple[Field, ...] = ()

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.left, self.right)

    def with_children(self,
                      children: Sequence[LogicalOp]) -> "LogicalSetDifference":
        left, right = children
        return replace(self, left=left, right=right)

    def label(self) -> str:
        return "Intersect" if self.intersect else "Except"


@dataclass(frozen=True)
class LogicalUnion(LogicalOp):
    left: LogicalOp
    right: LogicalOp
    all: bool = False
    fields: tuple[Field, ...] = ()

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[LogicalOp]) -> "LogicalUnion":
        left, right = children
        return replace(self, left=left, right=right)

    def label(self) -> str:
        return "UnionAll" if self.all else "Union"


@dataclass(frozen=True)
class LogicalDistinct(LogicalOp):
    child: LogicalOp

    @property
    def fields(self) -> tuple[Field, ...]:  # type: ignore[override]
        return self.child.fields

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "LogicalDistinct":
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class LogicalSort(LogicalOp):
    child: LogicalOp
    keys: tuple[tuple[ast.Expr, bool], ...]  # (expr, ascending)

    @property
    def fields(self) -> tuple[Field, ...]:  # type: ignore[override]
        return self.child.fields

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "LogicalSort":
        (child,) = children
        return replace(self, child=child)

    def label(self) -> str:
        from ..sql.printer import expr_to_sql
        keys = ", ".join(expr_to_sql(e) + ("" if asc else " DESC")
                         for e, asc in self.keys)
        return f"Sort({keys})"


@dataclass(frozen=True)
class LogicalLimit(LogicalOp):
    child: LogicalOp
    limit: Optional[int] = None
    offset: int = 0

    @property
    def fields(self) -> tuple[Field, ...]:  # type: ignore[override]
        return self.child.fields

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "LogicalLimit":
        (child,) = children
        return replace(self, child=child)

    def label(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.offset:
            parts.append(f"offset={self.offset}")
        return f"Limit({', '.join(parts)})"


def plan_to_text(op: LogicalOp, indent: int = 0) -> str:
    """Indented tree rendering of a logical plan (used by EXPLAIN)."""
    lines = ["  " * indent + op.label()]
    for child in op.children():
        lines.append(plan_to_text(child, indent + 1))
    return "\n".join(lines)


def transform(op: LogicalOp, visitor) -> LogicalOp:
    """Bottom-up rewrite: apply ``visitor`` to every node after its
    children have been rewritten.  ``visitor`` returns a (possibly new)
    node."""
    children = op.children()
    if children:
        new_children = [transform(child, visitor) for child in children]
        if any(new is not old
               for new, old in zip(new_children, children)):
            op = op.with_children(new_children)
    return visitor(op)


def rebind_temp_scans(op: LogicalOp, source: str, target: str,
                      alias: Optional[str] = None) -> tuple[LogicalOp, int]:
    """``op`` with every TempScan of ``source`` (under ``alias``, when
    given) reading ``target`` instead — same alias, same fields — plus
    how many scans were rebound."""
    source = source.lower()
    rebound = 0

    def visit(node: LogicalOp) -> LogicalOp:
        nonlocal rebound
        if isinstance(node, LogicalTempScan) \
                and node.result_name.lower() == source \
                and alias in (None, node.alias):
            rebound += 1
            return replace(node, result_name=target)
        return node

    return transform(op, visit), rebound
