"""Abstract syntax tree for the supported SQL dialect.

The dialect covers what the paper's workloads and baselines need: full
SELECT (joins, grouping, set operations, ordering), DDL/DML for the
middleware and stored-procedure baselines, and the three CTE flavours —
regular ``WITH``, ANSI ``WITH RECURSIVE``, and the paper's extension
``WITH ITERATIVE … ITERATE … UNTIL`` with Metadata / Data / Delta
termination conditions.

All nodes are plain dataclasses; rewrites build new trees instead of
mutating shared ones (expressions are treated as immutable after parse).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for scalar expressions."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of this expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any  # None (NULL), bool, int, float, or str


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    @property
    def folded(self) -> tuple[str, Optional[str]]:
        """``(name, table)`` lowercased, as names bind.  Computed once
        per node and kept outside the dataclass fields, so equality,
        hashing and printing see only ``name`` and ``table``; recomputed
        if either field was replaced in place."""
        name, table = self.name, self.table
        cached = self.__dict__.get("_folded")
        if cached is None or cached[0] is not name or cached[1] is not table:
            cached = (name, table, name.lower(),
                      None if table is None else table.lower())
            self.__dict__["_folded"] = cached
        return cached[2], cached[3]

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``t.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


class BinaryOperator(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "AND"
    OR = "OR"
    CONCAT = "||"
    LIKE = "LIKE"

    @property
    def is_comparison(self) -> bool:
        return self in (BinaryOperator.EQ, BinaryOperator.NE,
                        BinaryOperator.LT, BinaryOperator.LE,
                        BinaryOperator.GT, BinaryOperator.GE)


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: BinaryOperator
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


class UnaryOperator(enum.Enum):
    NOT = "NOT"
    NEG = "-"
    POS = "+"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: UnaryOperator
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, *self.items)


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.low, self.high)


@dataclass(frozen=True)
class Case(Expr):
    """Searched or simple CASE.  ``operand`` is None for searched CASE."""

    whens: tuple[tuple[Expr, Expr], ...]
    operand: Optional[Expr] = None
    default: Optional[Expr] = None

    def children(self) -> tuple[Expr, ...]:
        parts: list[Expr] = []
        if self.operand is not None:
            parts.append(self.operand)
        for condition, result in self.whens:
            parts.extend((condition, result))
        if self.default is not None:
            parts.append(self.default)
        return tuple(parts)


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar or aggregate function call; name is stored lower-case."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    def children(self) -> tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    type_name: str

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class ExistsExpr(Expr):
    """``[NOT] EXISTS (subquery)`` — only valid in WHERE; the planner
    decorrelates it into a semi/anti join."""

    query: "SelectLike"
    negated: bool = False

    def __eq__(self, other):  # queries are mutable: identity equality
        return self is other

    def __hash__(self):
        return id(self)


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (subquery)`` — only valid in WHERE."""

    operand: Expr
    query: "SelectLike"
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)


AGGREGATE_FUNCTIONS = frozenset({"sum", "count", "min", "max", "avg"})


def is_aggregate_call(expr: Expr) -> bool:
    return (isinstance(expr, FunctionCall)
            and expr.name in AGGREGATE_FUNCTIONS)


def contains_aggregate(expr: Expr) -> bool:
    return any(is_aggregate_call(node) for node in expr.walk())


def referenced_columns(expr: Expr) -> list[ColumnRef]:
    return [node for node in expr.walk() if isinstance(node, ColumnRef)]


def referenced_tables(expr: Expr) -> set[str]:
    return {ref.table for ref in referenced_columns(expr)
            if ref.table is not None}


# ---------------------------------------------------------------------------
# Relations (FROM clause)
# ---------------------------------------------------------------------------


class Relation:
    """Base class for FROM-clause items."""


@dataclass(frozen=True)
class TableRef(Relation):
    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef(Relation):
    query: "SelectLike"
    alias: Optional[str] = None


class JoinKind(enum.Enum):
    INNER = "INNER"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    FULL = "FULL"
    CROSS = "CROSS"


@dataclass
class Join(Relation):
    kind: JoinKind
    left: Relation
    right: Relation
    condition: Optional[Expr] = None


# ---------------------------------------------------------------------------
# SELECT and set operations
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass
class Select:
    items: list[SelectItem]
    from_clause: Optional[Relation] = None
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    distinct: bool = False
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    with_clause: Optional["WithClause"] = None


class SetOpKind(enum.Enum):
    UNION = "UNION"
    UNION_ALL = "UNION ALL"
    EXCEPT = "EXCEPT"
    INTERSECT = "INTERSECT"


@dataclass
class SetOp:
    kind: SetOpKind
    left: "SelectLike"
    right: "SelectLike"
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    with_clause: Optional["WithClause"] = None


SelectLike = Union[Select, SetOp]


# ---------------------------------------------------------------------------
# CTEs (regular, recursive, iterative)
# ---------------------------------------------------------------------------


class TerminationKind(enum.Enum):
    """Taxonomy of UNTIL conditions from the paper (§II, §VI-B)."""

    ITERATIONS = "iterations"   # metadata: stop after N iterations
    UPDATES = "updates"         # metadata: stop once N rows were updated
    DATA_ANY = "data_any"       # data: stop when >=1 row satisfies expr
    DATA_ALL = "data_all"       # data: stop when all rows satisfy expr
    DELTA = "delta"             # delta: rows changed this iteration vs N

    @property
    def family(self) -> str:
        """Metadata / Data / Delta — the Type tag of Fig. 3."""
        if self in (TerminationKind.ITERATIONS, TerminationKind.UPDATES):
            return "Metadata"
        if self in (TerminationKind.DATA_ANY, TerminationKind.DATA_ALL):
            return "Data"
        return "Delta"


@dataclass
class Termination:
    kind: TerminationKind
    count: Optional[int] = None       # N for ITERATIONS/UPDATES/DELTA
    expr: Optional[Expr] = None       # for DATA_* conditions
    comparator: Optional[str] = None  # for DELTA: one of = < <= > >=

    def describe(self) -> str:
        """The <<Type, N, Expr>> annotation the paper shows in Fig. 4."""
        expr_text = "NONE"
        if self.expr is not None:
            from .printer import expr_to_sql
            expr_text = expr_to_sql(self.expr)
        count = self.count if self.count is not None else "NONE"
        return f"<<Type:{self.kind.family.lower()}, N:{count}, Expr:{expr_text}>>"


@dataclass
class CommonTableExpr:
    """Regular or recursive CTE definition."""

    name: str
    query: SelectLike
    columns: Optional[list[str]] = None
    recursive: bool = False


@dataclass
class IterativeCte:
    """``WITH ITERATIVE name (cols) AS (init ITERATE step UNTIL tc)``."""

    name: str
    init: SelectLike
    step: SelectLike
    termination: Termination
    columns: Optional[list[str]] = None


CteDefinition = Union[CommonTableExpr, IterativeCte]


@dataclass
class WithClause:
    ctes: list[CteDefinition]


# ---------------------------------------------------------------------------
# DDL / DML / control statements
# ---------------------------------------------------------------------------


@dataclass
class ColumnDef:
    name: str
    type_name: str
    primary_key: bool = False


@dataclass
class CreateTable:
    name: str
    columns: list[ColumnDef]
    temporary: bool = False
    if_not_exists: bool = False


@dataclass
class DropTable:
    name: str
    if_exists: bool = False


@dataclass
class Insert:
    table: str
    columns: Optional[list[str]]
    source: Union[list[list[Expr]], SelectLike]  # VALUES rows or a query


@dataclass
class Update:
    table: str
    assignments: list[tuple[str, Expr]]
    from_clause: Optional[Relation] = None
    where: Optional[Expr] = None


@dataclass
class Delete:
    table: str
    where: Optional[Expr] = None


@dataclass
class Explain:
    statement: "Statement"


@dataclass
class Analyze:
    """``ANALYZE [table]`` — collect optimizer statistics."""

    table: Optional[str] = None


@dataclass
class BeginTransaction:
    pass


@dataclass
class CommitTransaction:
    pass


@dataclass
class RollbackTransaction:
    pass


Statement = Union[
    Select, SetOp, CreateTable, DropTable, Insert, Update, Delete, Explain,
    Analyze, BeginTransaction, CommitTransaction, RollbackTransaction,
]
