"""Per-connection sessions over a shared :class:`~repro.engine.engine.Engine`.

A :class:`Session` owns exactly the state that belongs to one client:
its option set, its transaction manager (including the pinned read
snapshot), its intermediate-result registry, and its traces.  Every
durable structure — catalog, statistics, kernel cache, plan cache,
metrics — is reached through the engine, exposed here as read-only
properties so existing ``db.catalog`` / ``db.stats`` call sites work
unchanged.

Concurrency contract (what the serving layer relies on):

* a session is used by one statement at a time (the server dispatches
  per-session serially);
* read statements never block: they pin a per-statement (or, inside
  BEGIN/COMMIT, per-transaction) :class:`~repro.storage.snapshot.\
SnapshotCatalog` whose watermarks freeze each table at statement start;
* write statements (DML/DDL) serialize engine-wide on
  ``engine.write_lock`` and drop the session's own snapshot
  (:meth:`TransactionManager.note_write`) so it reads its own writes.

The shared plan cache is consulted twice: ``execute`` tries the exact
statement text first (a hit skips even the parse), and ``_run_query``
tries the normalized shape+literals after parsing.  EXPLAIN variants
always bypass the cache — their reports must reflect a real compile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Any, Iterable, Optional, Sequence

from ..errors import CatalogError, ReproError
from ..execution import (
    ExecutionContext,
    ExecutionStats,
    SessionOptions,
)
from ..obs import (
    NULL_TRACER,
    MetricsRegistry,
    Trace,
    Tracer,
    build_trace,
)
from ..plan import PlanContext
from ..plan.program import Program
from ..sql import ast, parse, parse_script
from ..sql.normalize import normalize_statement
from ..storage import (
    Catalog,
    ColumnSchema,
    ResultRegistry,
    Schema,
    SnapshotCatalog,
    Table,
    pretty_table,
)
from ..core.rewrite import compile_statement
from ..runtime import ProgramRunner
from ..stats import CardinalityEstimator
from ..types import SqlType, type_from_name
from .dml import execute_delete, execute_insert, execute_update
from .engine import Engine
from .transactions import LockMode, TransactionManager, TxnState


@dataclass
class QueryResult:
    """Result of one statement: a table for queries, a row count for DML."""

    table: Optional[Table] = None
    rowcount: int = 0

    def rows(self) -> list[tuple]:
        return self.table.rows() if self.table is not None else []

    def to_dicts(self) -> list[dict[str, Any]]:
        return self.table.to_dicts() if self.table is not None else []

    def column_names(self) -> list[str]:
        if self.table is None:
            return []
        return self.table.schema.names

    def scalar(self) -> Any:
        rows = self.rows()
        if len(rows) != 1 or len(rows[0]) != 1:
            raise ReproError(
                f"scalar() needs a 1x1 result, got {len(rows)} row(s)")
        return rows[0][0]

    def pretty(self, limit: int = 20) -> str:
        if self.table is None:
            return f"({self.rowcount} rows affected)"
        return pretty_table(self.table, limit)


class Session:
    """One connection's view of a shared :class:`Engine`."""

    def __init__(self, engine: Engine,
                 options: Optional[SessionOptions] = None):
        self._engine = engine
        self.session_id = engine.next_session_id()
        # An explicit option set is adopted as-is (the embedded façade
        # hands the caller's object through); otherwise the engine's
        # defaults are copied so sessions diverge independently.
        self.options = options if options is not None \
            else engine.default_options.copy()
        self.registry = ResultRegistry()
        self.transactions = TransactionManager()
        self._last_trace: Optional[Trace] = None
        # Loop telemetry published by the most recent traced run, picked
        # up by execute()/explain_analyze() when freezing the trace.
        self._trace_loops: list = []
        # The snapshot the most recent read statement ran against
        # (diagnostics; the stress harness reads its watermarks).
        self.last_snapshot: Optional[SnapshotCatalog] = None

    # -- shared state, reached through the engine ----------------------------

    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def catalog(self) -> Catalog:
        return self._engine.catalog

    @property
    def stats(self) -> ExecutionStats:
        return self._engine.stats

    @property
    def statistics(self):
        return self._engine.statistics

    @property
    def kernel_cache(self):
        return self._engine.kernel_cache

    @property
    def metrics(self) -> MetricsRegistry:
        return self._engine.metrics

    @property
    def workload(self):
        return self._engine.workload

    # -- public API --------------------------------------------------------

    def execute(self, sql: str | ast.Statement,
                tracer: Optional[Tracer] = None) -> QueryResult:
        """Parse (if needed) and run one statement.

        With the ``enable_tracing`` session option on, the statement
        records a span trace plus per-iteration loop telemetry,
        retrievable afterwards via :meth:`last_trace` /
        :meth:`trace_json`.  The server passes an external ``tracer``
        (a :class:`~repro.obs.trace.ContextTracer`) to collect the
        statement's spans itself; trace freezing is then the caller's
        responsibility.
        """
        external = tracer is not None
        if tracer is None:
            tracer = Tracer() if self.options.enable_tracing \
                else NULL_TRACER
        started = time.perf_counter()
        freeze = tracer.enabled and not external
        stats_before = self.stats.snapshot() if freeze else None
        sql_text = sql if isinstance(sql, str) else None
        with tracer.span("statement", kind="query"):
            result = self._execute_statement(sql, sql_text, tracer)
        self.metrics.counter("statements").add(1)
        self.metrics.histogram("statement_seconds").observe(
            time.perf_counter() - started)
        if freeze:
            self._last_trace = build_trace(
                tracer, loops=self._pending_loop_telemetry(tracer),
                metrics=self.stats.delta_since(stats_before),
                sql=sql_text)
        elif tracer.enabled:
            self._trace_loops = []
        return result

    def _execute_statement(self, sql: str | ast.Statement,
                           sql_text: Optional[str],
                           tracer) -> QueryResult:
        """The body of :meth:`execute`: text-cache fast path, else
        parse and dispatch; either way an autocommit boundary."""
        probed = False
        if sql_text is not None and self.options.enable_plan_cache:
            snapshot = self._read_catalog()
            program = self._engine.plan_cache.get_text(
                sql_text, self.options.compile_fingerprint(),
                snapshot.catalog_version)
            if program is not None:
                if tracer.enabled:
                    tracer.event("plan_cache_hit", kind="decision",
                                 level="text",
                                 reason="exact statement text seen "
                                        "before; parse and compile "
                                        "skipped")
                self.stats.statements += 1
                try:
                    return QueryResult(table=self._run_program(
                        program, snapshot, tracer))
                finally:
                    self.transactions.statement_boundary()
            # A known text whose program entry went stale (or was
            # evicted) already counted its miss in get_text; the
            # post-parse lookup in _run_query must not count it twice.
            probed = self._engine.plan_cache.knows_text(
                sql_text, self.options.compile_fingerprint())
        statement = parse(sql, tracer) if isinstance(sql, str) else sql
        self.stats.statements += 1
        try:
            return self._dispatch(statement, tracer, sql_text,
                                  cache_probed=probed)
        finally:
            self.transactions.statement_boundary()

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Run a ';'-separated script; returns one result per statement."""
        return [self.execute(stmt) for stmt in parse_script(sql)]

    def explain(self, sql: str | ast.Statement,
                verbose: bool = False) -> str:
        """The step program for a query, in the paper's Table I style."""
        statement = parse(sql) if isinstance(sql, str) else sql
        if isinstance(statement, ast.Explain):
            statement = statement.statement
        if not isinstance(statement, (ast.Select, ast.SetOp)):
            raise ReproError("EXPLAIN supports only queries")
        program = self._compile(statement)
        return program.explain(verbose=verbose)

    def explain_analyze(self, sql: str | ast.Statement) -> str:
        """Run the query and report measured per-step executions, rows
        and time — the runtime counterpart of :meth:`explain`.

        Always traces (regardless of ``enable_tracing``): the rendered
        report includes the span tree plus a per-iteration breakdown for
        every loop, and the trace is stored for :meth:`last_trace`.
        Always compiles (bypassing the plan cache): the per-step report
        must describe a program built for this very statement.
        """
        sql_text = sql if isinstance(sql, str) else None
        tracer = Tracer()
        stats_before = self.stats.snapshot()
        with tracer.span("statement", kind="query"):
            statement = parse(sql, tracer) if isinstance(sql, str) else sql
            if not isinstance(statement, (ast.Select, ast.SetOp)):
                raise ReproError("EXPLAIN ANALYZE supports only queries")
            program = self._compile(statement, tracer)
            ctx = ExecutionContext(self.catalog, self.registry,
                                   self.options, self.stats,
                                   self.kernel_cache, tracer=tracer)
            runner = ProgramRunner(program, ctx, instrument=True)
            with tracer.span("execute", kind="phase"):
                runner.run()
        loops = [runner.loop_telemetry[key]
                 for key in sorted(runner.loop_telemetry)]
        self._last_trace = build_trace(
            tracer, loops=loops,
            metrics=self.stats.delta_since(stats_before), sql=sql_text)
        return runner.report() + "\n" + self._plan_cache_report_line()

    def _plan_cache_report_line(self) -> str:
        """Engine-wide plan-cache counters, EXPLAIN ANALYZE's footer."""
        stats = self.stats
        return (f"plan cache: {stats.plan_cache_hits} hits "
                f"({stats.plan_cache_shape_hits} shape), "
                f"{stats.plan_cache_misses} misses, "
                f"{stats.plan_cache_invalidations} invalidations, "
                f"{len(self._engine.plan_cache)} cached programs")

    def publish_trace(self, tracer: Tracer, loops: Iterable = (),
                      sql: Optional[str] = None,
                      metrics: Optional[dict] = None) -> Trace:
        """Freeze ``tracer`` as this session's last trace.

        Used by the out-of-engine drivers (middleware, stored
        procedures, MPP harnesses) so their baseline runs appear in
        :meth:`trace_json` side by side with engine traces."""
        self._last_trace = build_trace(tracer, loops=loops,
                                       metrics=metrics, sql=sql)
        return self._last_trace

    def last_trace(self) -> Optional[Trace]:
        """The trace of the most recent traced statement (``None`` when
        nothing has been traced — tracing is opt-in via the
        ``enable_tracing`` option or ``explain_analyze``)."""
        return self._last_trace

    def trace_json(self, indent: Optional[int] = None) -> str:
        """The last trace serialized to its stable JSON schema."""
        if self._last_trace is None:
            raise ReproError(
                "no trace recorded: set the enable_tracing option or run "
                "explain_analyze() first")
        return self._last_trace.to_json(indent=indent)

    def metrics_snapshot(self) -> dict:
        """Current contents of the metrics registry plus the flat
        execution counters ingested as gauges."""
        return self._engine.metrics_snapshot()

    def set_option(self, name: str, value) -> None:
        # Not hasattr(): methods and class attributes of SessionOptions
        # (copy, compile_fingerprint, ...) are not options.
        valid = [f.name for f in fields(SessionOptions)]
        if name not in valid:
            raise ReproError(
                f"unknown session option: {name!r} "
                f"(valid options: {', '.join(valid)})")
        setattr(self.options, name, value)

    def reset_stats(self) -> None:
        self._engine.reset_stats()

    # -- convenience loaders -------------------------------------------------

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, SqlType]],
                     primary_key: Optional[str] = None) -> None:
        schema = Schema(tuple(ColumnSchema(n.lower(), t)
                              for n, t in columns), primary_key)
        with self._engine.write_lock:
            self.catalog.create(name, schema)
            self.transactions.note_write()

    def load_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk append rows to an existing table (no per-row DML cost)."""
        with self._engine.write_lock:
            table = self.catalog.get(name)
            loaded = Table.from_rows(table.schema, rows)
            self.kernel_cache.invalidate_tables(table)
            self.catalog.put(name, table.concat(loaded)
                             if table.num_rows else loaded)
            self.transactions.note_write()
        return loaded.num_rows

    def table(self, name: str) -> Table:
        return self.catalog.get(name)

    # -- snapshots -----------------------------------------------------------

    def _read_catalog(self) -> SnapshotCatalog:
        """The catalog view a read statement runs against.

        Inside an explicit transaction the first read pins the
        transaction's snapshot and later reads reuse it (repeatable
        reads until the session's own next write); in autocommit each
        statement pins its own.  Pinning is lazy per table, so the
        snapshot freezes only what the statement actually touches.
        """
        txn = self.transactions
        if txn.state is TxnState.ACTIVE:
            if txn.snapshot is None:
                txn.snapshot = SnapshotCatalog(self._engine.catalog)
            snapshot = txn.snapshot
        else:
            snapshot = SnapshotCatalog(self._engine.catalog)
        self.last_snapshot = snapshot
        return snapshot

    # -- dispatch ------------------------------------------------------------

    def _plan_context(self, catalog=None) -> PlanContext:
        return PlanContext(catalog if catalog is not None
                           else self.catalog)

    def _compile(self, statement: ast.SelectLike,
                 tracer=NULL_TRACER, catalog=None) -> Program:
        self.stats.plans_built += 1
        estimator = CardinalityEstimator(self.statistics)
        with tracer.span("compile", kind="phase") as span:
            program = compile_statement(statement,
                                        self._plan_context(catalog),
                                        self.options, estimator, tracer)
            if tracer.enabled:
                span.set(steps=len(program.steps))
                if program.verifier_verdict is not None:
                    span.set(verifier=program.verifier_verdict)
        return program

    def _pending_loop_telemetry(self, tracer) -> list:
        """Loop telemetry handed up by the runner of a traced run."""
        loops, self._trace_loops = self._trace_loops, []
        return loops

    def _run_query(self, statement: ast.SelectLike,
                   tracer=NULL_TRACER,
                   sql_text: Optional[str] = None,
                   cache_probed: bool = False) -> Table:
        """Compile (or fetch from the plan cache) and run one query
        against this statement's read snapshot.

        ``cache_probed`` means the text-level fast path already did (and
        counted) the program lookup for this statement and missed — the
        lookup here is skipped so counters see one miss, not two."""
        snapshot = self._read_catalog()
        program = None
        cached_key = None
        if self.options.enable_plan_cache:
            fingerprint = self.options.compile_fingerprint()
            norm = normalize_statement(statement)
            if not cache_probed:
                program = self._engine.plan_cache.get_normalized(
                    norm, fingerprint, snapshot.catalog_version, sql_text)
            if program is not None and tracer.enabled:
                tracer.event("plan_cache_hit", kind="decision",
                             level="normalized",
                             parameters=norm.parameter_count,
                             reason="normalized statement seen before; "
                                    "compile skipped")
            cached_key = (norm, fingerprint)
        if program is None:
            program = self._compile(statement, tracer, snapshot)
            if cached_key is not None:
                norm, fingerprint = cached_key
                self._engine.plan_cache.store(
                    sql_text, norm, fingerprint,
                    snapshot.catalog_version, program)
        return self._run_program(program, snapshot, tracer)

    def _run_program(self, program: Program, snapshot: SnapshotCatalog,
                     tracer=NULL_TRACER) -> Table:
        self.workload.admit()
        ctx = ExecutionContext(snapshot, self.registry, self.options,
                               self.stats, self.kernel_cache,
                               tracer=tracer)
        runner = ProgramRunner(program, ctx)
        with tracer.span("execute", kind="phase"):
            table = runner.run()
        if tracer.enabled:
            self._trace_loops = [runner.loop_telemetry[key]
                                 for key in sorted(runner.loop_telemetry)]
        if table is None:
            raise ReproError("query program produced no result")
        return table

    def _dispatch(self, statement: ast.Statement,
                  tracer=NULL_TRACER,
                  sql_text: Optional[str] = None,
                  cache_probed: bool = False) -> QueryResult:
        if isinstance(statement, (ast.Select, ast.SetOp)):
            return QueryResult(table=self._run_query(statement, tracer,
                                                     sql_text,
                                                     cache_probed))

        if isinstance(statement, ast.Explain):
            text = self.explain(statement.statement)
            table = Table.from_columns([
                ("plan", SqlType.TEXT, text.splitlines()),
            ])
            return QueryResult(table=table)

        if isinstance(statement, ast.CreateTable):
            with self._engine.write_lock:
                self._execute_create(statement)
                self.transactions.note_write()
            return QueryResult()

        if isinstance(statement, ast.Analyze):
            with self._engine.write_lock:
                self.workload.admit()
                analyzed = self.statistics.analyze(statement.table)
            table = Table.from_columns([
                ("analyzed", SqlType.TEXT, analyzed)])
            return QueryResult(table=table, rowcount=len(analyzed))

        if isinstance(statement, ast.DropTable):
            with self._engine.write_lock:
                self.workload.admit()
                self.transactions.lock(statement.name, LockMode.EXCLUSIVE)
                self.catalog.drop(statement.name, statement.if_exists)
                self.statistics.invalidate(statement.name)
                self.transactions.note_write()
            return QueryResult()

        if isinstance(statement, ast.Insert):
            with self._engine.write_lock:
                self.workload.admit()
                self.transactions.lock(statement.table,
                                       LockMode.EXCLUSIVE)
                self.transactions.note_write()
                self.statistics.invalidate(statement.table)
                ctx = self._write_context()
                count = execute_insert(statement, ctx,
                                       self._plan_context(),
                                       self._run_query)
            return QueryResult(rowcount=count)

        if isinstance(statement, ast.Update):
            with self._engine.write_lock:
                self.workload.admit()
                self.transactions.lock(statement.table,
                                       LockMode.EXCLUSIVE)
                self.transactions.note_write()
                self.statistics.invalidate(statement.table)
                ctx = self._write_context()
                count = execute_update(statement, ctx,
                                       self._plan_context())
            return QueryResult(rowcount=count)

        if isinstance(statement, ast.Delete):
            with self._engine.write_lock:
                self.workload.admit()
                self.transactions.lock(statement.table,
                                       LockMode.EXCLUSIVE)
                self.transactions.note_write()
                self.statistics.invalidate(statement.table)
                ctx = self._write_context()
                count = execute_delete(statement, ctx,
                                       self._plan_context())
            return QueryResult(rowcount=count)

        if isinstance(statement, ast.BeginTransaction):
            self.workload.admit()
            self.transactions.begin()
            return QueryResult()
        if isinstance(statement, ast.CommitTransaction):
            self.workload.admit()
            self.transactions.commit()
            return QueryResult()
        if isinstance(statement, ast.RollbackTransaction):
            self.workload.admit()
            self.transactions.rollback()
            return QueryResult()

        raise ReproError(
            f"unsupported statement: {type(statement).__name__}")

    def _write_context(self) -> ExecutionContext:
        """DML runs against the base catalog (never a snapshot): its
        reads are serialized by the engine write lock anyway, and its
        writes must land in shared storage."""
        return ExecutionContext(self.catalog, self.registry, self.options,
                                self.stats, self.kernel_cache)

    def _execute_create(self, statement: ast.CreateTable) -> None:
        self.workload.admit()
        self.transactions.lock(statement.name, LockMode.EXCLUSIVE)
        primary_key = None
        columns = []
        for definition in statement.columns:
            sql_type = type_from_name(definition.type_name)
            columns.append(ColumnSchema(definition.name.lower(), sql_type))
            if definition.primary_key:
                if primary_key is not None:
                    raise CatalogError("multiple PRIMARY KEY columns")
                primary_key = definition.name.lower()
        schema = Schema(tuple(columns), primary_key)
        self.catalog.create(statement.name, schema,
                            statement.if_not_exists)
