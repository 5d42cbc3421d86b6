"""Safety analysis for semi-naive delta evaluation of ITERATIVE CTEs.

Full recomputation of the iterative part is always correct; recomputing
only the rows *affected* by the previous iteration's changes is correct
exactly when the step query evolves each key independently — the same
per-key property §V-B's predicate pushdown (Fig. 10) relies on.  This
module proves that property syntactically, conservatively:

* the step is a plain SELECT whose leftmost FROM leaf is the CTE itself
  (the *anchor*: the row being evolved);
* every other reference to the CTE in FROM is reachable from the anchor
  key through one equi-join link — either directly (``r.key = anchor.key``)
  or through one loop-invariant base table ``b`` (``r.key = b.x AND
  anchor.key = b.y``), so a changed key's influence on other keys can be
  expanded by scanning ``b``;
* the output key (item 0) is the anchor key, and grouping — if any — is
  by anchor columns with the key first, so each output row is a function
  of one anchor row plus its linked/base join partners.

Anything the analysis cannot prove returns None and the loop runs the
always-correct full body.  The affected set the links produce is an
over-approximation: recomputing an unchanged row is wasted work, never a
wrong answer.

The proof has two consumers: the delta rewrite reads ``influences`` and
``anchor``; §V-B's pushdown rule
(:func:`repro.rewrite.pushdown.pushable_final_predicate`) reads
``anchor``, ``cte_leaves`` and ``invariant``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..sql import ast


@dataclass(frozen=True)
class DeltaSafety:
    """Proof artifact: how frontier keys reach other keys.

    ``influences`` holds one ``(base_table, frontier_column,
    affected_column)`` triple per non-identity link: keys in the frontier
    match ``base_table.frontier_column`` and influence the keys found in
    ``base_table.affected_column`` of the same rows.  Identity links
    need no entry — the frontier always influences itself.

    ``guard_keyset`` marks bodies with an INNER join but no WHERE clause:
    per-key evolution holds for *surviving* keys, but the join may drop a
    key whose partners vanish, so the delta apply must verify the
    recomputed partition reproduced its keyset exactly and fall back to
    the full body otherwise.

    ``anchor`` is the lowercase binding of the leftmost FROM leaf (the
    CTE row being evolved), ``cte_leaves`` the number of FROM leaves that
    reference the CTE (1: the anchor alone), and ``invariant`` the CTE
    columns whose step item is that same bare anchor column — they pass
    through every iteration unchanged.
    """

    influences: tuple[tuple[str, str, str], ...]
    anchor: str
    cte_leaves: int
    invariant: frozenset
    guard_keyset: bool = False


@dataclass(frozen=True)
class _Leaf:
    binding: str            # lowercase binding name (alias or table name)
    table: str              # lowercase underlying table / CTE name
    is_cte: bool
    columns: frozenset      # lowercase column names visible on this leaf


def analyze_iterative_delta(cte: ast.IterativeCte, columns: list[str],
                            catalog) -> Optional[DeltaSafety]:
    """Prove per-key independent evolution of ``cte.step`` or return None.

    ``columns`` are the CTE's lowercase output columns (key first);
    ``catalog`` resolves base-table schemas for unqualified references
    and loop-invariance of join inputs.
    """
    step = cte.step
    if not isinstance(step, ast.Select):
        return None
    if (step.with_clause is not None or step.distinct
            or step.having is not None or step.order_by
            or step.limit is not None or step.offset is not None):
        return None
    if step.from_clause is None:
        return None
    for expr in _step_exprs(step):
        for node in expr.walk():
            if isinstance(node, (ast.ExistsExpr, ast.InSubquery, ast.Star)):
                return None

    cte_name = cte.name.lower()
    key_column = columns[0]
    cte_columns = frozenset(columns)

    # -- FROM shape: TableRef leaves only, anchor leftmost -----------------
    leaves: list[_Leaf] = []
    joins: list[ast.Join] = []
    for node in _flatten_from(step.from_clause):
        if isinstance(node, ast.Join):
            joins.append(node)
            continue
        if not isinstance(node, ast.TableRef):
            return None
        name = node.name.lower()
        if name == cte_name:
            leaf_columns = cte_columns
            is_cte = True
        elif catalog.exists(name):
            leaf_columns = frozenset(
                c.lower() for c in catalog.get(name).schema.names)
            is_cte = False
        else:
            return None  # some other CTE or unknown relation
        leaves.append(_Leaf(node.binding_name.lower(), name, is_cte,
                            leaf_columns))
    if not leaves or not leaves[0].is_cte:
        return None
    bindings = [leaf.binding for leaf in leaves]
    if len(set(bindings)) != len(bindings):
        return None
    anchor = leaves[0]

    # -- join kinds --------------------------------------------------------
    # LEFT joins preserve every anchor row; INNER joins may drop anchor
    # rows whose partners vanish.  With a WHERE clause the body merges by
    # key anyway, so dropped rows simply keep their old values; without
    # one the full body *replaces* the table, so a dropped key changes the
    # result keyset — accepted, but flagged for a run-time keyset guard.
    allowed = {ast.JoinKind.LEFT, ast.JoinKind.INNER}
    if any(join.kind not in allowed for join in joins):
        return None
    guard_keyset = step.where is None and any(
        join.kind is ast.JoinKind.INNER for join in joins)

    def resolve(ref: ast.ColumnRef) -> Optional[_Leaf]:
        name = ref.name.lower()
        if ref.table is not None:
            qualifier = ref.table.lower()
            for leaf in leaves:
                if leaf.binding == qualifier:
                    return leaf if name in leaf.columns else None
            return None
        matches = [leaf for leaf in leaves if name in leaf.columns]
        return matches[0] if len(matches) == 1 else None

    # -- output key: item 0 is the bare anchor key -------------------------
    if not step.items:
        return None
    first = step.items[0].expr
    if not isinstance(first, ast.ColumnRef) \
            or first.name.lower() != key_column \
            or resolve(first) is not anchor:
        return None

    # -- grouping: by anchor columns, key first ----------------------------
    if step.group_by:
        head = step.group_by[0]
        if not isinstance(head, ast.ColumnRef) \
                or head.name.lower() != key_column \
                or resolve(head) is not anchor:
            return None
        for expr in step.group_by:
            for node in expr.walk():
                if isinstance(node, ast.ColumnRef) \
                        and resolve(node) is not anchor:
                    return None
    else:
        # Without grouping only a pure per-row map over the anchor is
        # per-key: joins could multiply rows and a full-table aggregate
        # collapses them.
        if len(leaves) > 1:
            return None
        for item in step.items:
            for node in item.expr.walk():
                if isinstance(node, ast.FunctionCall) \
                        and node.name in ast.AGGREGATE_FUNCTIONS:
                    return None

    # -- influence links for every non-anchor CTE reference ----------------
    equalities = []
    conditions = [join.condition for join in joins
                  if join.condition is not None]
    if step.where is not None:
        conditions.append(step.where)
    from .expr_utils import split_conjuncts
    for condition in conditions:
        for conjunct in split_conjuncts(condition):
            if isinstance(conjunct, ast.BinaryOp) \
                    and conjunct.op is ast.BinaryOperator.EQ \
                    and isinstance(conjunct.left, ast.ColumnRef) \
                    and isinstance(conjunct.right, ast.ColumnRef):
                left_leaf = resolve(conjunct.left)
                right_leaf = resolve(conjunct.right)
                if left_leaf is not None and right_leaf is not None:
                    equalities.append(
                        (left_leaf, conjunct.left.name.lower(),
                         right_leaf, conjunct.right.name.lower()))

    def key_links(ref_leaf: _Leaf):
        """(other leaf, other column) pairs equated with ``ref_leaf``'s
        key column."""
        for ll, lc, rl, rc in equalities:
            if ll is ref_leaf and lc == key_column:
                yield rl, rc
            if rl is ref_leaf and rc == key_column:
                yield ll, lc

    influences: list[tuple[str, str, str]] = []
    for leaf in leaves[1:]:
        if not leaf.is_cte:
            continue
        linked = False
        for other, other_column in key_links(leaf):
            if other is anchor and other_column == key_column:
                linked = True  # identity: frontier influences itself
                break
            if other.is_cte:
                continue
            # r.key = b.x; need anchor.key = b.y on the same base leaf.
            for anchor_side, anchor_column in key_links(anchor):
                if anchor_side is other:
                    influences.append(
                        (other.table, other_column, anchor_column))
                    linked = True
                    break
            if linked:
                break
        if not linked:
            return None

    invariant = frozenset(
        column for column, item in zip(columns, step.items)
        if isinstance(item.expr, ast.ColumnRef)
        and item.expr.name.lower() == column
        and resolve(item.expr) is anchor)
    return DeltaSafety(influences=tuple(influences), anchor=anchor.binding,
                       cte_leaves=sum(leaf.is_cte for leaf in leaves),
                       invariant=invariant, guard_keyset=guard_keyset)


def _flatten_from(relation: ast.Relation) -> Iterator[ast.Relation]:
    """Yield every Join node and every leaf, leftmost leaf first."""
    if isinstance(relation, ast.Join):
        yield relation
        yield from _flatten_from(relation.left)
        yield from _flatten_from(relation.right)
    else:
        yield relation


def _step_exprs(step: ast.Select) -> Iterator[ast.Expr]:
    for item in step.items:
        yield item.expr
    if step.where is not None:
        yield step.where
    yield from step.group_by
    for node in _flatten_from(step.from_clause):
        if isinstance(node, ast.Join) and node.condition is not None:
            yield node.condition
