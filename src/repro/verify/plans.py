"""Logical-plan verifier: schema and type propagation invariants.

Every operator in a well-formed plan satisfies three properties the
builder establishes and every rewrite must preserve:

* **resolution** — every column reference inside the operator's
  expressions resolves to exactly one field of the operator's input;
* **typing** — every expression has a static type under
  :func:`repro.plan.binding.infer_type`, and declared output field types
  are coercion-compatible with the types the expressions produce;
* **arity** — declared output field lists line up positionally with what
  the operator computes (projection lists, set-operation arms, VALUES
  rows, scan schemas);
* **kept columns** — a join's ``output`` positions (``prune_columns``)
  are in range, distinct and ascending.  Its condition resolves against
  both inputs in full, and the resolution checks of every parent catch
  a column dropped that the parent reads.

``check_plan`` walks a plan and returns the violations as strings;
``verify_plan`` raises :class:`VerificationError` naming the pass that
produced the plan.  Checks are deliberately *coercion-lenient* (a field
declared FLOAT fed by an INTEGER expression is fine — the executor
widens) so the verifier never rejects a plan the executor would run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import BindError, TypeCheckError, VerificationError
from ..plan.binding import infer_type, resolve_column
from ..plan.logical import (
    Field,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalOp,
    LogicalProject,
    LogicalRename,
    LogicalScan,
    LogicalSemiJoin,
    LogicalSetDifference,
    LogicalSort,
    LogicalTempScan,
    LogicalUnion,
    LogicalValues,
)
from ..sql import ast
from ..types import SqlType, common_type

# Filter predicates and join conditions must be boolean-valued; NULL
# literals are admitted (three-valued logic folds them to UNKNOWN).
_PREDICATE_TYPES = (SqlType.BOOLEAN, SqlType.NULL)


class PlanChecker:
    """Accumulates violations over one plan tree.

    ``catalog`` (a :class:`repro.storage.Catalog`) unlocks the
    scan-vs-schema checks; lookups go through :meth:`Catalog.peek` so
    verification never perturbs the metadata-overhead counters.
    """

    def __init__(self, catalog=None):
        self.catalog = catalog
        self.violations: list[str] = []
        self.checks = 0

    # -- entry point -------------------------------------------------------

    def check(self, plan: LogicalOp) -> list[str]:
        for op in plan.walk():
            if isinstance(op, LogicalJoin):
                self._check_kept(op)
        if self.violations:
            # A malformed position list leaves the join's fields, and so
            # every check above it, undefined.
            return self.violations
        for op in plan.walk():
            self._check_op(op)
        return self.violations

    # -- helpers -----------------------------------------------------------

    def _note(self, op: LogicalOp, message: str) -> None:
        self.violations.append(f"{op.label()}: {message}")

    def _refs_resolve(self, op: LogicalOp, expr: ast.Expr,
                      fields: Sequence[Field], where: str) -> None:
        """Every column reference in ``expr`` resolves against ``fields``."""
        for node in expr.walk():
            if not isinstance(node, ast.ColumnRef):
                continue
            self.checks += 1
            try:
                resolve_column(fields, node)
            except BindError as exc:
                self._note(op, f"{where}: {exc}")

    def _type_of(self, op: LogicalOp, expr: ast.Expr,
                 fields: Sequence[Field],
                 where: str) -> Optional[SqlType]:
        """Static type of ``expr``, or None (with a violation noted)."""
        self.checks += 1
        try:
            return infer_type(expr, fields)
        except (BindError, TypeCheckError) as exc:
            self._note(op, f"{where}: {exc}")
            return None

    def _predicate(self, op: LogicalOp, expr: ast.Expr,
                   fields: Sequence[Field], where: str) -> None:
        self._refs_resolve(op, expr, fields, where)
        inferred = self._type_of(op, expr, fields, where)
        if inferred is not None and inferred not in _PREDICATE_TYPES:
            self._note(op, f"{where}: predicate has type {inferred}, "
                           "expected BOOLEAN")

    def _compatible(self, op: LogicalOp, produced: Optional[SqlType],
                    declared: SqlType, where: str) -> None:
        """Declared field type must be coercible with the produced type."""
        if produced is None:
            return
        self.checks += 1
        try:
            common_type(produced, declared)
        except TypeCheckError:
            self._note(op, f"{where}: produces {produced} but the output "
                           f"field declares {declared}")

    # -- per-operator invariants -------------------------------------------

    def _check_op(self, op: LogicalOp) -> None:
        if isinstance(op, LogicalScan):
            self._check_scan(op)
        elif isinstance(op, LogicalTempScan):
            self.checks += 1
            if not op.fields:
                self._note(op, "temp scan declares no output fields")
        elif isinstance(op, LogicalValues):
            self._check_values(op)
        elif isinstance(op, LogicalFilter):
            self._predicate(op, op.predicate, op.child.fields, "WHERE")
        elif isinstance(op, LogicalProject):
            self._check_project(op)
        elif isinstance(op, LogicalRename):
            self._check_rename(op)
        elif isinstance(op, LogicalJoin):
            if op.condition is not None:
                self._predicate(op, op.condition, op.input_fields, "ON")
        elif isinstance(op, LogicalSemiJoin):
            self._check_semi_join(op)
        elif isinstance(op, LogicalAggregate):
            self._check_aggregate(op)
        elif isinstance(op, (LogicalUnion, LogicalSetDifference)):
            self._check_set_op(op)
        elif isinstance(op, LogicalSort):
            for expr, _asc in op.keys:
                self._refs_resolve(op, expr, op.child.fields, "ORDER BY")
        # Distinct / Limit add no expressions or fields of their own.

    def _check_kept(self, op: LogicalJoin) -> None:
        if op.output is None:
            return
        self.checks += 1
        width = len(op.input_fields)
        where = f"{op.kind.value}Join keep{op.output}"
        if any(not 0 <= p < width for p in op.output):
            self.violations.append(
                f"{where}: keeps a position outside its {width} input "
                "columns")
        elif any(b <= a for a, b in zip(op.output, op.output[1:])):
            self.violations.append(
                f"{where}: kept positions must be distinct and ascending")

    def _check_scan(self, op: LogicalScan) -> None:
        if self.catalog is None:
            return
        self.checks += 1
        table = self.catalog.peek(op.table_name)
        if table is None:
            self._note(op, f"scans unknown table {op.table_name!r}")
            return
        schema = {c.name: c.sql_type for c in table.schema.columns}
        for field in op.fields:
            self.checks += 1
            declared = schema.get(field.name)
            if declared is None:
                self._note(op, f"column {field.name!r} is not in the "
                               f"schema of {op.table_name!r}")
            elif declared is not field.sql_type:
                self._note(op, f"column {field.name!r} declares "
                               f"{field.sql_type}, schema says {declared}")

    def _check_values(self, op: LogicalValues) -> None:
        width = len(op.fields)
        for i, row in enumerate(op.rows):
            self.checks += 1
            if len(row) != width:
                self._note(op, f"row {i} has {len(row)} values for "
                               f"{width} declared columns")

    def _check_project(self, op: LogicalProject) -> None:
        self.checks += 1
        if len(op.exprs) != len(op.fields):
            self._note(op, f"{len(op.exprs)} expressions for "
                           f"{len(op.fields)} output fields")
            return
        for (expr, name), field in zip(op.exprs, op.fields):
            self._refs_resolve(op, expr, op.child.fields, name)
            produced = self._type_of(op, expr, op.child.fields, name)
            self._compatible(op, produced, field.sql_type, name)

    def _check_rename(self, op: LogicalRename) -> None:
        self.checks += 1
        if len(op.child.fields) != len(op.fields):
            self._note(op, f"relabels {len(op.child.fields)} columns "
                           f"as {len(op.fields)}")
            return
        for child_field, field in zip(op.child.fields, op.fields):
            self._compatible(op, child_field.sql_type, field.sql_type,
                             field.name)

    def _check_semi_join(self, op: LogicalSemiJoin) -> None:
        combined = (*op.left.fields, *op.right.fields)
        if op.condition is not None:
            self._predicate(op, op.condition, combined, "ON")
        if op.probe_expr is not None:
            self._refs_resolve(op, op.probe_expr, op.left.fields, "probe")
        if op.key_expr is not None:
            self._refs_resolve(op, op.key_expr, op.right.fields, "key")

    def _slot_fields(self, op: LogicalAggregate) -> list[Field]:
        """The key/aggregate slot row the outputs and HAVING bind over."""
        slots: list[Field] = []
        for expr, slot in op.keys:
            produced = self._type_of(op, expr, op.child.fields, slot)
            slots.append(Field(None, slot, produced or SqlType.NULL))
        for spec in op.aggregates:
            produced = self._type_of(op, spec.call, op.child.fields,
                                     spec.name)
            slots.append(Field(None, spec.name, produced or SqlType.NULL))
        return slots

    def _check_aggregate(self, op: LogicalAggregate) -> None:
        for expr, slot in op.keys:
            self._refs_resolve(op, expr, op.child.fields, f"key {slot}")
        for spec in op.aggregates:
            for arg in spec.call.args:
                # count(*) carries a Star argument; nothing to resolve.
                if not isinstance(arg, ast.Star):
                    self._refs_resolve(op, arg, op.child.fields, spec.name)
        slots = self._slot_fields(op)
        self.checks += 1
        if len(op.outputs) != len(op.fields):
            self._note(op, f"{len(op.outputs)} outputs for "
                           f"{len(op.fields)} output fields")
            return
        for (expr, name), field in zip(op.outputs, op.fields):
            self._refs_resolve(op, expr, slots, name)
            produced = self._type_of(op, expr, slots, name)
            self._compatible(op, produced, field.sql_type, name)
        if op.having is not None:
            self._predicate(op, op.having, slots, "HAVING")

    def _check_set_op(self, op) -> None:
        arms = (op.left, op.right)
        width = len(op.fields)
        for arm in arms:
            self.checks += 1
            if len(arm.fields) != width:
                self._note(op, f"arm produces {len(arm.fields)} columns "
                               f"for {width} declared")
                return
        for left_field, right_field, field in zip(
                op.left.fields, op.right.fields, op.fields):
            self._compatible(op, left_field.sql_type, field.sql_type,
                             field.name)
            self._compatible(op, right_field.sql_type, field.sql_type,
                             field.name)


def check_plan(plan: LogicalOp, catalog=None) -> list[str]:
    """All schema/type violations in ``plan`` (empty when well-formed)."""
    return PlanChecker(catalog).check(plan)


def verify_plan(plan: LogicalOp, pass_name: str, catalog=None) -> int:
    """Raise :class:`VerificationError` if ``plan`` is malformed.

    Returns the number of invariants checked, for verdict reporting.
    """
    checker = PlanChecker(catalog)
    violations = checker.check(plan)
    if violations:
        raise VerificationError(pass_name, violations)
    return checker.checks


class VerifiedPlans:
    """The plan objects one compile has verified, each with the number
    of invariants its check took.

    Plans are frozen, so a plan object that checked clean once — in the
    rewrite pass that produced it, in ``prune_columns``, or in the
    program check — is not checked again in the same compile; its
    recorded count still goes into the verdict.
    """

    def __init__(self):
        # id -> (plan, checks); holding the plan keeps its id unique.
        self._plans: dict[int, tuple[LogicalOp, int]] = {}

    def checks(self, plan: LogicalOp) -> Optional[int]:
        """The invariants ``plan``'s clean check took; None if unchecked."""
        known = self._plans.get(id(plan))
        return None if known is None else known[1]

    def add(self, plan: LogicalOp, checks: int) -> None:
        self._plans[id(plan)] = (plan, checks)

    def verify(self, plan: LogicalOp, pass_name: str, catalog=None) -> int:
        """:func:`verify_plan`, once per plan object."""
        checks = self.checks(plan)
        if checks is None:
            checks = verify_plan(plan, pass_name, catalog)
            self.add(plan, checks)
        return checks
