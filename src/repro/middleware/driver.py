"""The external/middleware baseline (paper §II, the approach of [16]).

This driver executes an iterative CTE *outside* the engine, exactly the
way Fig. 1 sketches: it creates temporary tables through DDL, runs the
non-iterative part as an INSERT ... SELECT, then loops DELETE + INSERT
statements into a working table and applies it to the main table —
a keyed UPDATE for a step with WHERE, DELETE + INSERT (Algorithm 1's
rename) otherwise — checking the termination condition client-side with
extra SELECT count(*) round trips.  Every operation is a separate
statement the engine parses, plans, locks and schedules independently —
the overheads the native rewrite avoids.

The driver accepts the *same SQL text* as the native engine, so the
benchmarks run identical queries through both paths.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import Optional

from ..errors import IterationLimitError, PlanError
from ..engine import Database, QueryResult
from ..obs.telemetry import LoopTelemetry
from ..obs.trace import NULL_TRACER, Tracer
from ..runtime import LoopRun
from ..sql import ast, parse, statement_to_sql
from ..types import SqlType


_TYPE_NAMES = {
    SqlType.INTEGER: "int",
    SqlType.FLOAT: "float",
    SqlType.NUMERIC: "float",
    SqlType.BOOLEAN: "boolean",
    SqlType.TEXT: "text",
    SqlType.NULL: "float",
}


@dataclass
class MiddlewareReport:
    """What the driver did: statement counts per kind, iterations run."""

    statements_issued: int = 0
    ddl_statements: int = 0
    dml_statements: int = 0
    probe_queries: int = 0
    iterations: int = 0


class MiddlewareDriver:
    """Runs iterative CTE queries as external statement sequences."""

    def __init__(self, db: Database):
        self._db = db
        self._names = itertools.count()
        self.report = MiddlewareReport()
        self._tracer = NULL_TRACER
        # Per-iteration telemetry of the most recent run, for the Fig. 1
        # side-by-side with native loop telemetry.
        self.last_telemetry: Optional[LoopTelemetry] = None

    # -- public API ----------------------------------------------------------

    def run(self, sql: str) -> QueryResult:
        """Execute an iterative-CTE query the middleware way.

        With the database's ``enable_tracing`` option on, the run records
        a span per issued statement under a ``middleware`` baseline span,
        plus per-iteration loop telemetry, and publishes the trace to the
        database — so ``Database.trace_json()`` shows the Fig. 1 baseline
        side by side with native engine traces.
        """
        statement = parse(sql)
        if not isinstance(statement, (ast.Select, ast.SetOp)) \
                or statement.with_clause is None:
            raise PlanError("the middleware driver expects a query with "
                            "an iterative CTE")
        iterative = [cte for cte in statement.with_clause.ctes
                     if isinstance(cte, ast.IterativeCte)]
        others = [cte for cte in statement.with_clause.ctes
                  if not isinstance(cte, ast.IterativeCte)]
        if len(iterative) != 1:
            raise PlanError("the middleware driver supports exactly one "
                            "iterative CTE per query")
        if others:
            raise PlanError("mixing regular CTEs is not supported by the "
                            "middleware driver")
        tracer = (Tracer() if self._db.options.enable_tracing
                  else NULL_TRACER)
        self._tracer = tracer
        stats_before = (self._db.stats.snapshot() if tracer.enabled
                        else None)
        try:
            with tracer.span("middleware", kind="baseline"):
                result = self._run_single(iterative[0], statement)
        finally:
            self._tracer = NULL_TRACER
        if tracer.enabled:
            self._db.publish_trace(
                tracer,
                loops=([self.last_telemetry]
                       if self.last_telemetry is not None else []),
                metrics=self._db.stats.delta_since(stats_before),
                sql=sql)
        return result

    # -- internals -------------------------------------------------------------

    def _execute(self, sql: str, kind: str) -> QueryResult:
        self.report.statements_issued += 1
        if kind == "ddl":
            self.report.ddl_statements += 1
        elif kind == "dml":
            self.report.dml_statements += 1
        else:
            self.report.probe_queries += 1
        if self._tracer.enabled:
            with self._tracer.span("statement", kind="statement",
                                   category=kind):
                return self._db.execute(sql)
        return self._db.execute(sql)

    def _run_single(self, cte: ast.IterativeCte,
                    statement: ast.SelectLike) -> QueryResult:
        suffix = next(self._names)
        main = f"__mw_main_{suffix}"
        working = f"__mw_working_{suffix}"

        init_sql = statement_to_sql(cte.init)
        # Probe the result shape once to derive the temp-table schema —
        # middleware can only see result-set metadata.
        probe = self._execute(f"{init_sql} LIMIT 0", "probe")
        schema = probe.table.schema
        columns = [c.lower() for c in (cte.columns or schema.names)]
        if len(columns) != len(schema.columns):
            raise PlanError(
                f"iterative CTE {cte.name!r} declares {len(columns)} "
                f"columns but its query produces {len(schema.columns)}")
        types = [_TYPE_NAMES[c.sql_type] for c in schema.columns]
        # Numeric columns may widen in the iterative part; declare float.
        types = ["float" if t == "int" else t for t in types]
        column_ddl = ", ".join(f"{n} {t}" for n, t in zip(columns, types))

        key = columns[0]
        try:
            self._execute(f"CREATE TABLE {main} ({column_ddl})", "ddl")
            self._execute(f"CREATE TABLE {working} ({column_ddl})", "ddl")
            self._execute(f"INSERT INTO {main} {init_sql}", "dml")

            step_sql = statement_to_sql(
                _rebind_cte(cte.step, cte.name, main))
            # As the engine does: a step with WHERE merges by key, any
            # other step replaces the table (the dialect has no RENAME).
            if isinstance(cte.step, ast.Select) \
                    and cte.step.where is not None:
                apply_sqls = [self._update_statement(main, working,
                                                     columns, key)]
            else:
                apply_sqls = [f"DELETE FROM {main}",
                              f"INSERT INTO {main} SELECT * FROM {working}"]

            # The unified loop shell: same telemetry records and span
            # shape as the native engine's loops, kind "middleware".
            run = LoopRun(0, cte.name.lower(), "middleware",
                          tracer=self._tracer)
            run.begin()
            counts_updates = cte.termination.kind in (
                ast.TerminationKind.UPDATES, ast.TerminationKind.DELTA)
            iterations = 0
            total_updates = 0
            max_iterations = self._db.options.max_iterations
            while True:
                self._execute(f"DELETE FROM {working}", "dml")
                inserted = self._execute(
                    f"INSERT INTO {working} {step_sql}", "dml").rowcount
                changed = 0
                if counts_updates:
                    changed = self._count_changes(main, working, columns,
                                                  key)
                for apply_sql in apply_sqls:
                    self._execute(apply_sql, "dml")
                iterations += 1
                total_updates += changed
                done = self._terminated(cte.termination, main, iterations,
                                        total_updates, changed)
                # Catalog read, not a SQL probe: the statement count is
                # the baseline's defining overhead and must not change.
                run.finish_iteration(
                    not done,
                    delta_rows=changed if counts_updates else inserted,
                    working_rows=inserted,
                    total_rows=self._db.table(main).num_rows)
                if done:
                    break
                if iterations >= max_iterations:
                    raise IterationLimitError(
                        "iterative query exceeded max_iterations "
                        f"({max_iterations}); raise the session option "
                        "if this is intentional")
            run.close()
            self.last_telemetry = run.telemetry
            self.report.iterations += iterations

            final = copy.copy(statement)
            final.with_clause = None
            final = _rebind_cte(final, cte.name, main)
            return self._execute(statement_to_sql(final), "probe")
        finally:
            self._execute(f"DROP TABLE IF EXISTS {working}", "ddl")
            self._execute(f"DROP TABLE IF EXISTS {main}", "ddl")

    def _update_statement(self, main: str, working: str,
                          columns: list[str], key: str) -> str:
        assignments = ", ".join(f"{c} = w.{c}" for c in columns
                                if c != key)
        return (f"UPDATE {main} SET {assignments} FROM {working} AS w "
                f"WHERE {main}.{key} = w.{key}")

    def _count_changes(self, main: str, working: str,
                       columns: list[str], key: str) -> int:
        # NULL-aware like the engine's changed-row count: a NULL on one
        # side only is a change (the engine cannot parse IS DISTINCT FROM).
        differs = " OR ".join(
            f"w.{c} <> m.{c} OR (w.{c} IS NULL) <> (m.{c} IS NULL)"
            for c in columns if c != key)
        sql = (f"SELECT count(*) FROM {working} AS w "
               f"JOIN {main} AS m ON w.{key} = m.{key} "
               f"WHERE {differs}")
        return int(self._execute(sql, "probe").scalar() or 0)

    def _terminated(self, termination: ast.Termination, main: str,
                    iterations: int, total_updates: int,
                    changed: int) -> bool:
        kind = termination.kind
        if kind is ast.TerminationKind.ITERATIONS:
            return iterations >= termination.count
        if kind is ast.TerminationKind.UPDATES:
            return total_updates >= termination.count
        if kind is ast.TerminationKind.DELTA:
            comparator = termination.comparator
            target = termination.count
            return {"=": changed == target, "<": changed < target,
                    "<=": changed <= target, ">": changed > target,
                    ">=": changed >= target}[comparator]
        from ..sql.printer import expr_to_sql
        expr = expr_to_sql(termination.expr)
        count = int(self._execute(
            f"SELECT count(*) FROM {main} WHERE {expr}", "probe").scalar())
        if kind is ast.TerminationKind.DATA_ANY:
            return count > 0
        total = int(self._execute(
            f"SELECT count(*) FROM {main}", "probe").scalar())
        return count >= total


def _rebind_cte(query: ast.SelectLike, cte_name: str,
                table: str) -> ast.SelectLike:
    """Rewrite references to the CTE into references to the temp table,
    keeping the original name as the alias so column qualifiers hold."""
    key = cte_name.lower()

    def rebind_relation(relation: ast.Relation) -> ast.Relation:
        if isinstance(relation, ast.TableRef):
            if relation.name.lower() == key:
                return ast.TableRef(table,
                                    alias=relation.alias or relation.name)
            return relation
        if isinstance(relation, ast.Join):
            return ast.Join(relation.kind,
                            rebind_relation(relation.left),
                            rebind_relation(relation.right),
                            relation.condition)
        if isinstance(relation, ast.SubqueryRef):
            return ast.SubqueryRef(rebind_query(relation.query),
                                   relation.alias)
        return relation

    def rebind_query(node: ast.SelectLike) -> ast.SelectLike:
        node = copy.copy(node)
        if isinstance(node, ast.SetOp):
            node.left = rebind_query(node.left)
            node.right = rebind_query(node.right)
            return node
        if node.from_clause is not None:
            node.from_clause = rebind_relation(node.from_clause)
        return node

    return rebind_query(query)
