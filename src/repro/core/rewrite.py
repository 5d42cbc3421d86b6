"""The functional rewrite of iterative CTEs (paper §IV, Algorithm 1).

``compile_statement`` turns a SELECT containing iterative (and recursive)
CTEs into one plan *program*: a step sequence over existing operators plus
the two new ones, rename and loop.  The structure for a single iterative
CTE follows Algorithm 1 exactly:

1.  materialize R0 into cteTable;
2.  initialize loop operator;
3.  materialize Ri into workingTable;
4.  if Ri has no WHERE clause: rename workingTable to cteTable
    (with the rename optimization off, the engine instead merges and
    physically copies — the Fig. 8 baseline);
5.  else: merge via ``SELECT CASE WHEN w.key IS NOT NULL THEN w.col ELSE
    m.col END ... FROM cteTable m LEFT JOIN workingTable w`` and rename
    the merge result to cteTable;
6.  update the loop operator; jump back to 3 while it says continue;
7.  return Qf.

The two iterative-specific optimizer rules hook in here: predicate push
down from Qf into R0 (§V-B) and common-result extraction from Ri (§V-A).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Optional

from ..errors import PlanError
from ..execution import SessionOptions
from ..plan import (
    CteBinding,
    LogicalFilter,
    LogicalJoin,
    LogicalOp,
    LogicalTempScan,
    PlanContext,
    build_statement,
    rebind_temp_scans,
    rename_outputs,
    transform,
)
from ..plan.program import (
    CountUpdatesStep,
    DeltaCaptureStep,
    DeltaFusedStep,
    DeltaSpec,
    DropStep,
    DuplicateCheckStep,
    IncrementLoopStep,
    InitLoopStep,
    LoopSpec,
    LoopStep,
    MaterializeStep,
    Program,
    RenameStep,
    ReturnStep,
    SnapshotStep,
    Step,
    CopyStep,
)
from ..rewrite import (
    analyze_iterative_delta,
    extract_common_results,
    optimize_plan,
    prune_columns,
    pushable_final_predicate,
)
from ..sql import ast
from ..types import SqlType, common_type
from .recursive import emit_recursive_cte


@dataclass
class CompilerState:
    """Shared state while compiling one statement into a program."""

    context: PlanContext
    options: SessionOptions
    estimator: object = None  # repro.stats.CardinalityEstimator or None
    tracer: object = None     # repro.obs.Tracer or None (untraced)
    steps: list[Step] = dataclass_field(default_factory=list)
    loops: dict[int, LoopSpec] = dataclass_field(default_factory=dict)
    temp_results: list[str] = dataclass_field(default_factory=list)
    loop_counter: itertools.count = dataclass_field(
        default_factory=lambda: itertools.count())
    common_counter: itertools.count = dataclass_field(
        default_factory=lambda: itertools.count())


def compile_statement(stmt: ast.SelectLike, context: PlanContext,
                      options: SessionOptions,
                      estimator=None, tracer=None) -> Program:
    """Compile a SELECT (possibly with iterative/recursive CTEs) into a
    runnable program ending in a ReturnStep.

    ``tracer`` (a :class:`repro.obs.Tracer`) makes plan building and the
    rewrite pipeline emit phase spans; ``None`` compiles untraced.
    """
    context.tracer = tracer if tracer is not None \
        and getattr(tracer, "enabled", False) else None
    state = CompilerState(context=context, options=options,
                          estimator=estimator, tracer=context.tracer)

    final = copy.copy(stmt)
    with_clause = final.with_clause
    final.with_clause = None

    if with_clause is not None:
        for cte in with_clause.ctes:
            if isinstance(cte, ast.IterativeCte):
                _emit_iterative(cte, state, stmt)
            elif cte.recursive:
                emit_recursive_cte(cte, state)
            else:
                state.context.inline_ctes[cte.name.lower()] = (
                    cte.query, cte.columns)

    final_plan = build_statement(final, state.context)
    final_plan = optimize_plan(final_plan, options, state.estimator,
                               state.tracer, context.catalog)
    state.steps.append(ReturnStep(final_plan))
    if state.temp_results:
        state.steps.append(DropStep(list(state.temp_results)))
    pruned = prune_program(state.steps, options, context.catalog)
    program = Program(state.steps, state.loops)
    if options.enable_plan_verifier:
        from ..verify import verify_program
        report = verify_program(program, "compile", context.catalog,
                                checked=pruned)
        program.verifier_verdict = report.verdict()
    return program


# ---------------------------------------------------------------------------
# Iterative CTE emission (Algorithm 1)
# ---------------------------------------------------------------------------


def _emit_iterative(cte: ast.IterativeCte, state: CompilerState,
                    statement: ast.SelectLike) -> None:
    context = state.context
    options = state.options
    cte_name = cte.name.lower()
    suffix = context.fresh_name("it").lstrip("_")
    cte_result = f"__cte_{cte_name}_{suffix}"
    working = f"__work_{cte_name}_{suffix}"
    merge_result = f"__merge_{cte_name}_{suffix}"
    previous = f"__prev_{cte_name}_{suffix}"

    # -- the non-iterative part -------------------------------------------
    init_raw = build_statement(cte.init, context.child())
    columns = [c.lower() for c in (cte.columns or init_raw.field_names())]
    if len(columns) != len(init_raw.fields):
        raise PlanError(
            f"iterative CTE {cte.name!r} declares {len(columns)} columns "
            f"but its non-iterative part produces {len(init_raw.fields)}")
    key_column = columns[0]

    # -- type unification across R0 and Ri --------------------------------
    types = [f.sql_type for f in init_raw.fields]
    step_plan: Optional[LogicalOp] = None
    for _ in range(4):
        binding = CteBinding(cte_result, tuple(zip(columns, types)))
        step_context = context.child()
        step_context.cte_bindings[cte_name] = binding
        step_plan = build_statement(cte.step, step_context)
        if len(step_plan.fields) != len(columns):
            raise PlanError(
                f"the iterative part of {cte.name!r} produces "
                f"{len(step_plan.fields)} columns, expected {len(columns)}")
        unified = [common_type(t, f.sql_type)
                   for t, f in zip(types, step_plan.fields)]
        unified = [SqlType.FLOAT if t is SqlType.NULL else t
                   for t in unified]
        if unified == types:
            break
        types = unified
    assert step_plan is not None
    binding = CteBinding(cte_result, tuple(zip(columns, types)))

    # -- the per-key proof, read by §V-B pushdown and the delta rewrite ----
    safety = None
    if options.enable_delta_iteration or (
            options.enable_predicate_pushdown
            and isinstance(statement, ast.Select)
            and statement.where is not None):
        safety = analyze_iterative_delta(cte, columns, context.catalog)

    # -- §V-B: push final-query predicates into R0 -------------------------
    init_plan = rename_outputs(init_raw, columns, cte_name)
    init_counts = ""
    if options.enable_predicate_pushdown:
        pushed = pushable_final_predicate(statement, cte, safety)
        if pushed is not None:
            init_plan = LogicalFilter(init_plan, pushed)
            init_counts = "pushdown"
    init_plan = optimize_plan(init_plan, options, state.estimator,
                              state.tracer, context.catalog)

    step_plan = optimize_plan(step_plan, options, state.estimator,
                              state.tracer, context.catalog)

    # -- §V-A: hoist loop-invariant join blocks out of Ri ------------------
    common_steps: list[MaterializeStep] = []
    if options.enable_common_results:
        step_plan, blocks = extract_common_results(
            step_plan, {cte_result}, state.common_counter)
        for block in blocks:
            common_steps.append(MaterializeStep(
                block.result_name, block.plan, block.column_names,
                comment="loop-invariant common result (§V-A)",
                counts="common"))
            state.temp_results.append(block.result_name)

    # -- assemble the step program -----------------------------------------
    has_where = isinstance(cte.step, ast.Select) \
        and cte.step.where is not None
    loop_id = next(state.loop_counter)
    needs_update_count = cte.termination.kind in (
        ast.TerminationKind.UPDATES, ast.TerminationKind.DELTA)
    spec = LoopSpec(loop_id=loop_id, termination=cte.termination,
                    cte_result=cte_result, cte_name=cte_name,
                    columns=columns,
                    movement=("rename" if options.enable_rename
                              else "copy"),
                    has_where=has_where)
    state.loops[loop_id] = spec

    # -- semi-naive delta rewrite (when provably per-key independent) ------
    delta_spec = None
    delta_plan = None
    if options.enable_delta_iteration and safety is not None:
        partition = f"__part_{cte_name}_{suffix}"
        delta_working = f"__dwork_{cte_name}_{suffix}"
        delta_spec = DeltaSpec(
            loop_id=loop_id, cte_name=cte_name, cte_result=cte_result,
            working=working, partition=partition,
            delta_working=delta_working, key_column=key_column,
            columns=columns, merge_by_key=has_where,
            influences=list(safety.influences),
            guard_keyset=safety.guard_keyset)
        spec.delta = delta_spec
        delta_plan = _rebind_anchor(step_plan, cte, safety.anchor,
                                    cte_result, partition)

    steps = state.steps
    steps.append(MaterializeStep(
        cte_result, init_plan, columns,
        comment=f"non-iterative part of {cte.name}", counts=init_counts))
    steps.extend(common_steps)
    steps.append(InitLoopStep(spec))

    loop_start = len(steps)
    if delta_spec is not None:
        fused = DeltaFusedStep(delta_spec, delta_plan, columns,
                               dup_check=has_where)
        steps.append(fused)
        # Delta capture always needs the previous iteration to diff
        # against, even when the termination condition does not.
        fused.jump_full = len(steps)
        steps.append(SnapshotStep(cte_result, previous))
    elif needs_update_count:
        steps.append(SnapshotStep(cte_result, previous))
    steps.append(MaterializeStep(
        working, step_plan, columns,
        comment=f"iterative part of {cte.name}"))

    if not has_where:
        # Full-dataset update.
        if options.enable_rename:
            steps.append(RenameStep(working, cte_result))
        else:
            # Fig. 8 baseline: identify updated rows via the merge and
            # physically move the data back into the main table.
            merge_plan = _build_merge_plan(
                state, cte_name, cte_result, working, columns, types,
                key_column)
            steps.append(MaterializeStep(
                merge_result, merge_plan, columns,
                comment="identify updated rows (baseline)"))
            steps.append(CopyStep(merge_result, cte_result))
    else:
        # Partial update: merge workingTable into cteTable by key.
        steps.append(DuplicateCheckStep(working, key_column))
        merge_plan = _build_merge_plan(
            state, cte_name, cte_result, working, columns, types,
            key_column)
        steps.append(MaterializeStep(
            merge_result, merge_plan, columns,
            comment=f"merge updates into {cte.name}"))
        if options.enable_rename:
            steps.append(RenameStep(merge_result, cte_result))
        else:
            steps.append(CopyStep(merge_result, cte_result))

    if delta_spec is not None:
        # The capture step's one diff also feeds the update counter.
        steps.append(DeltaCaptureStep(delta_spec, previous))
        fused.jump_to = len(steps)
    elif needs_update_count:
        steps.append(CountUpdatesStep(previous, cte_result, key_column,
                                      loop_id))
    steps.append(IncrementLoopStep(loop_id))
    steps.append(LoopStep(loop_id, loop_start))

    state.temp_results.extend([cte_result, working])
    if needs_update_count or delta_spec is not None:
        state.temp_results.append(previous)
    if delta_spec is not None:
        state.temp_results.extend([delta_spec.partition,
                                   delta_spec.delta_working])

    # Later parts of the statement (including Qf) see the CTE as a
    # materialized result.
    context.cte_bindings[cte_name] = binding


def prune_program(steps: list[Step], options: SessionOptions,
                  catalog) -> dict[int, int]:
    """The ``prune_columns`` pass over every plan a step executes, after
    every other rewrite.  A §V-A block whose consumers read only some of
    its columns first materializes just those, and its temp scans shrink
    to match; then every plan's joins gather only what is read above
    them.  Each plan the pass changed is verified as ``prune_columns``;
    returns the invariants checked per index of such a step, so the
    program check does not check those plans again.
    """
    planned = [step for step in steps
               if isinstance(step, (MaterializeStep, DeltaFusedStep,
                                    ReturnStep))]
    before = [step.plan for step in planned]
    blocks = {step.result_name.lower(): step for step in planned
              if isinstance(step, MaterializeStep)
              and step.counts == "common"
              and isinstance(step.plan, LogicalJoin)}
    if blocks:
        reads: dict[str, set[int]] = {}
        for step in planned:
            prune_columns(step.plan, reads=reads)
        for name, block in blocks.items():
            kept = sorted(reads.get(name, ()))
            if not kept or len(kept) == len(block.column_names):
                continue
            block.plan = prune_columns(block.plan, keep=kept)
            block.column_names = [block.column_names[i] for i in kept]
            for step in planned:
                step.plan = _narrow_temp_scans(step.plan, name, kept)
    checked: dict[int, int] = {}
    for step, plan in zip(planned, before):
        step.plan = prune_columns(step.plan)
        if step.plan is not plan and options.enable_plan_verifier:
            from ..verify.plans import verify_plan
            index = next(i for i, other in enumerate(steps)
                         if other is step)
            checked[index] = verify_plan(step.plan, "prune_columns",
                                         catalog)
    return checked


def _narrow_temp_scans(plan: LogicalOp, result_name: str,
                       kept: list[int]) -> LogicalOp:
    """``plan`` with every temp scan of ``result_name`` emitting only the
    fields at positions ``kept``."""
    def visit(node: LogicalOp) -> LogicalOp:
        if isinstance(node, LogicalTempScan) \
                and node.result_name.lower() == result_name:
            return replace(node, fields=tuple(node.fields[i] for i in kept))
        return node

    return transform(plan, visit)


def _rebind_anchor(step_plan: LogicalOp, cte: ast.IterativeCte,
                   alias: str, cte_result: str,
                   partition: str) -> LogicalOp:
    """The delta body: the finished full body (optimized, §V-A blocks
    extracted) with its *anchor* scan rebound to the affected partition.

    The anchor is the CTE scan under ``alias``, the binding the per-key
    proof found for the row being evolved.  Every other CTE reference
    still reads the full CTE table, so joins against it see all keys,
    and the loop-invariant COMMON blocks serve delta trips exactly as
    they serve full ones.
    """
    plan, rebound = rebind_temp_scans(step_plan, cte_result, partition,
                                      alias)
    if rebound != 1:
        raise PlanError(
            f"delta body of {cte.name!r}: expected one anchor scan of "
            f"{cte_result} AS {alias}, found {rebound}")
    return plan


def _build_merge_plan(state: CompilerState, cte_name: str, cte_result: str,
                      working: str, columns: list[str],
                      types: list[SqlType],
                      key_column: str) -> LogicalOp:
    """Algorithm 1 line 8: the CASE/LEFT JOIN merge select."""
    main_name = f"__{cte_name}_merge_main"
    work_name = f"__{cte_name}_merge_work"
    sub_context = state.context.child()
    sub_context.cte_bindings[main_name] = CteBinding(
        cte_result, tuple(zip(columns, types)))
    sub_context.cte_bindings[work_name] = CteBinding(
        working, tuple(zip(columns, types)))

    items = []
    for column in columns:
        if column == key_column:
            items.append(ast.SelectItem(ast.ColumnRef(column, "m"), column))
            continue
        case = ast.Case(
            whens=((ast.IsNull(ast.ColumnRef(key_column, "w"),
                               negated=True),
                    ast.ColumnRef(column, "w")),),
            default=ast.ColumnRef(column, "m"))
        items.append(ast.SelectItem(case, column))

    select = ast.Select(
        items=items,
        from_clause=ast.Join(
            ast.JoinKind.LEFT,
            ast.TableRef(main_name, alias="m"),
            ast.TableRef(work_name, alias="w"),
            ast.BinaryOp(ast.BinaryOperator.EQ,
                         ast.ColumnRef(key_column, "m"),
                         ast.ColumnRef(key_column, "w"))))
    return build_statement(select, sub_context)
