"""Predicate push down.

Two parts, matching the paper's §V-B:

* :func:`push_filters` — the ordinary rule: move filter conjuncts through
  projections, below joins (respecting outer-join semantics), into union
  arms and below aggregations when they only touch grouping keys.

* :func:`pushable_final_predicate` — the iterative-CTE rule: a predicate
  from the final query block may be pushed into the *non-iterative part*
  only when the iterative part evolves rows independently per key (the
  proof :func:`repro.rewrite.delta.analyze_iterative_delta` also gives
  the delta rewrite), the referenced columns pass through it unchanged,
  and nothing else reads the CTE.  Pushing blindly (as for regular CTEs)
  is incorrect — e.g. PageRank needs all neighbours even when the final
  query asks for one node.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..plan.logical import (
    Field,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalOp,
    LogicalProject,
    LogicalRename,
    LogicalSort,
    LogicalUnion,
)
from ..sql import ast
from .delta import DeltaSafety
from .expr_utils import (
    conjoin,
    map_column_refs,
    refs_resolve_in,
    split_conjuncts,
    substitute_by_position,
)


def push_filters(node: LogicalOp) -> LogicalOp:
    """One bottom-up rewrite step for the generic pushdown rule."""
    if not isinstance(node, LogicalFilter):
        return node
    child = node.child

    if isinstance(child, LogicalFilter):
        merged = conjoin(split_conjuncts(node.predicate)
                         + split_conjuncts(child.predicate))
        return LogicalFilter(child.child, merged)

    if isinstance(child, LogicalProject):
        replacements = [expr for expr, _ in child.exprs]
        pushed = substitute_by_position(node.predicate, child.fields,
                                        replacements)
        if ast.contains_aggregate(pushed):
            return node
        new_child = replace(child,
                            child=LogicalFilter(child.child, pushed))
        return new_child

    if isinstance(child, LogicalRename):
        pushed = _rebase_through_rename(node.predicate, child)
        if pushed is None:
            return node
        return replace(child, child=LogicalFilter(child.child, pushed))

    if isinstance(child, LogicalJoin):
        return _push_into_join(node, child)

    if isinstance(child, LogicalUnion):
        pushed_left = _rebase_union_predicate(node.predicate, child,
                                              child.left)
        pushed_right = _rebase_union_predicate(node.predicate, child,
                                               child.right)
        if pushed_left is None or pushed_right is None:
            return node
        return replace(child,
                       left=LogicalFilter(child.left, pushed_left),
                       right=LogicalFilter(child.right, pushed_right))

    if isinstance(child, LogicalAggregate):
        return _push_into_aggregate(node, child)

    if isinstance(child, (LogicalSort, LogicalDistinct)):
        return child.with_children(
            [LogicalFilter(child.children()[0], node.predicate)])

    return node


def _push_into_join(node: LogicalFilter, join: LogicalJoin) -> LogicalOp:
    conjuncts = split_conjuncts(node.predicate)
    to_left: list[ast.Expr] = []
    to_right: list[ast.Expr] = []
    keep: list[ast.Expr] = []

    left_ok = join.kind in (ast.JoinKind.INNER, ast.JoinKind.LEFT,
                            ast.JoinKind.CROSS)
    right_ok = join.kind in (ast.JoinKind.INNER, ast.JoinKind.RIGHT,
                             ast.JoinKind.CROSS)

    for conjunct in conjuncts:
        if left_ok and refs_resolve_in(conjunct, join.left.fields):
            to_left.append(conjunct)
        elif right_ok and refs_resolve_in(conjunct, join.right.fields):
            to_right.append(conjunct)
        else:
            keep.append(conjunct)

    if not to_left and not to_right:
        return node

    left = join.left
    right = join.right
    if to_left:
        left = LogicalFilter(left, conjoin(to_left))
    if to_right:
        right = LogicalFilter(right, conjoin(to_right))
    new_join = replace(join, left=left, right=right)
    remaining = conjoin(keep)
    if remaining is None:
        return new_join
    return LogicalFilter(new_join, remaining)


def _rebase_through_rename(predicate: ast.Expr,
                           rename: "LogicalRename"):
    """Map a predicate over renamed outputs onto the child's columns.

    Refuses (returns None) when the child's names are ambiguous — the
    reason LogicalRename exists in the first place.
    """
    from ..plan.binding import resolve_column

    def mapping(ref: ast.ColumnRef) -> ast.Expr:
        index = resolve_column(rename.fields, ref)
        child_field = rename.child.fields[index]
        child_ref = ast.ColumnRef(child_field.name, child_field.qualifier)
        if resolve_column(rename.child.fields, child_ref) != index:
            raise _NotPushable()
        return child_ref

    try:
        return map_column_refs(predicate, mapping)
    except (_NotPushable, Exception):
        return None


def _rebase_union_predicate(predicate: ast.Expr, union: LogicalUnion,
                            arm: LogicalOp) -> Optional[ast.Expr]:
    """Rewrite a predicate over union output fields onto one arm."""
    from ..plan.binding import resolve_column

    def mapping(ref: ast.ColumnRef) -> ast.Expr:
        index = resolve_column(union.fields, ref)
        field = arm.fields[index]
        return ast.ColumnRef(field.name, field.qualifier)

    try:
        return map_column_refs(predicate, mapping)
    except Exception:
        return None


def _push_into_aggregate(node: LogicalFilter,
                         agg: LogicalAggregate) -> LogicalOp:
    """Push conjuncts that only reference grouping keys below the agg."""
    key_slots = {slot: expr for expr, slot in agg.keys}
    conjuncts = split_conjuncts(node.predicate)
    pushable: list[ast.Expr] = []
    keep: list[ast.Expr] = []

    output_by_name = {name: expr for expr, name in agg.outputs}

    for conjunct in conjuncts:
        rewritten = _rewrite_over_keys(conjunct, agg.fields, output_by_name,
                                       key_slots)
        if rewritten is not None:
            pushable.append(rewritten)
        else:
            keep.append(conjunct)

    if not pushable:
        return node
    new_agg = replace(agg, child=LogicalFilter(agg.child, conjoin(pushable)))
    remaining = conjoin(keep)
    if remaining is None:
        return new_agg
    return LogicalFilter(new_agg, remaining)


def _rewrite_over_keys(conjunct: ast.Expr, fields, output_by_name,
                       key_slots) -> Optional[ast.Expr]:
    """Map a predicate over aggregate outputs onto pre-aggregation input
    expressions; None when it touches an aggregate value."""

    def mapping(ref: ast.ColumnRef) -> ast.Expr:
        output = output_by_name.get(ref.name.lower())
        if output is None:
            raise _NotPushable()
        # The output must itself be a pure key-slot expression.
        resolved = _resolve_slots(output, key_slots)
        if resolved is None:
            raise _NotPushable()
        return resolved

    try:
        return map_column_refs(conjunct, mapping)
    except _NotPushable:
        return None


class _NotPushable(Exception):
    pass


def _resolve_slots(expr: ast.Expr, key_slots) -> Optional[ast.Expr]:
    """Replace __key slots with their defining expressions; None if the
    expression touches an aggregate slot."""

    def mapping(ref: ast.ColumnRef) -> ast.Expr:
        if ref.name in key_slots:
            return key_slots[ref.name]
        raise _NotPushable()

    try:
        return map_column_refs(expr, mapping)
    except _NotPushable:
        return None


# ---------------------------------------------------------------------------
# Iterative-CTE pushdown (§V-B)
# ---------------------------------------------------------------------------


def count_cte_references(query: ast.SelectLike, cte_name: str) -> int:
    """Occurrences of the CTE name in FROM clauses of ``query``, its
    nested WITH clauses and its WHERE clauses' EXISTS / IN subqueries."""
    count = 0
    key = cte_name.lower()

    def visit_relation(relation: ast.Relation) -> None:
        nonlocal count
        if isinstance(relation, ast.TableRef):
            if relation.name.lower() == key:
                count += 1
        elif isinstance(relation, ast.SubqueryRef):
            visit_query(relation.query)
        elif isinstance(relation, ast.Join):
            visit_relation(relation.left)
            visit_relation(relation.right)

    def visit_query(node: ast.SelectLike) -> None:
        if isinstance(node, ast.SetOp):
            visit_query(node.left)
            visit_query(node.right)
        else:
            if node.from_clause is not None:
                visit_relation(node.from_clause)
            if node.where is not None:
                for expr in node.where.walk():
                    if isinstance(expr, (ast.ExistsExpr, ast.InSubquery)):
                        visit_query(expr.query)
        if node.with_clause is not None:
            for cte in node.with_clause.ctes:
                if isinstance(cte, ast.CommonTableExpr):
                    visit_query(cte.query)
                else:
                    visit_query(cte.init)
                    visit_query(cte.step)

    visit_query(query)
    return count


def pushable_final_predicate(statement: ast.SelectLike,
                             cte: ast.IterativeCte,
                             safety: Optional[DeltaSafety]
                             ) -> Optional[ast.Expr]:
    """The Qf WHERE conjuncts that may move into R0, rebased onto the
    CTE's columns; None when none may.

    ``statement`` is the whole statement (WITH clause included) and
    ``safety`` the per-key proof of ``cte.step`` (None: unproven).  A
    conjunct moves only when all five hold:

    1. the proof holds and its anchor is the step's only CTE reference,
       so each row evolves from itself alone and dropping it early drops
       exactly its own future;
    2. the loop stops after ``N ITERATIONS`` — every other termination
       reads the whole table;
    3. the step has no WHERE clause — the merge path raises
       DuplicateKeyError on duplicate working keys (§II), and a filter
       could hide them;
    4. the CTE is referenced exactly once outside its own definition,
       counted over Qf and every other CTE of the WITH clause, and that
       reference is a FROM leaf of Qf off the null-supplying side of an
       outer join — nothing else reads the filtered table;
    5. the conjunct holds no subquery and no aggregate, and reads only
       invariant columns of that one reference.

    The original predicate stays in Qf.
    """
    if safety is None or safety.cte_leaves != 1:
        return None
    if cte.termination.kind is not ast.TerminationKind.ITERATIONS:
        return None
    if cte.step.where is not None:
        return None
    if not isinstance(statement, ast.Select) or statement.where is None:
        return None
    outside = (count_cte_references(statement, cte.name)
               - count_cte_references(cte.init, cte.name)
               - count_cte_references(cte.step, cte.name))
    reference = _preserved_leaf(statement.from_clause, cte.name.lower())
    if outside != 1 or reference is None:
        return None
    binding = reference.binding_name.lower()

    def movable(ref: ast.ColumnRef) -> bool:
        return ((ref.table is None or ref.table.lower() == binding)
                and ref.name.lower() in safety.invariant)

    def rebase(ref: ast.ColumnRef) -> ast.Expr:
        return ast.ColumnRef(ref.name.lower(), cte.name.lower())

    pushable: list[ast.Expr] = []
    for conjunct in split_conjuncts(statement.where):
        nodes = list(conjunct.walk())
        refs = [node for node in nodes if isinstance(node, ast.ColumnRef)]
        if not refs or not all(movable(ref) for ref in refs):
            continue
        if any(isinstance(node, (ast.ExistsExpr, ast.InSubquery))
               or ast.is_aggregate_call(node) for node in nodes):
            continue
        pushable.append(map_column_refs(conjunct, rebase))
    return conjoin(pushable)


def _preserved_leaf(relation: Optional[ast.Relation],
                    name: str) -> Optional[ast.TableRef]:
    """The FROM leaf named ``name``, unless it sits on the null-supplying
    side of an outer join (or is absent from this FROM clause)."""
    if isinstance(relation, ast.TableRef):
        return relation if relation.name.lower() == name else None
    if not isinstance(relation, ast.Join):
        return None
    kind = relation.kind
    left = (None if kind in (ast.JoinKind.RIGHT, ast.JoinKind.FULL)
            else _preserved_leaf(relation.left, name))
    right = (None if kind in (ast.JoinKind.LEFT, ast.JoinKind.FULL)
             else _preserved_leaf(relation.right, name))
    return left or right
