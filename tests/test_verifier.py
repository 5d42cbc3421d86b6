"""IR verifier mutation harness.

Compiles real programs (rename-in-place iterative, semi-naive delta,
recursive fixpoint, WHERE-body merge), corrupts each one in a systematic
way, and requires the verifier to reject every corruption with a
structured, pass-attributed :class:`VerificationError`.  The pristine
programs must verify clean — the full test suite running with
``enable_plan_verifier`` on is the zero-false-positive check; this file
is the zero-false-negative one.
"""

import dataclasses

import pytest

from repro.core.rewrite import compile_statement
from repro.datasets import dblp_like, generate_edges, generate_vertex_status
from repro.engine.database import Database
from repro.errors import VerificationError
from repro.execution import SessionOptions
from repro.plan import PlanContext, rebind_temp_scans, transform
from repro.plan.logical import Field, LogicalTempScan
from repro.plan.program import CopyStep, DropStep
from repro.sql import ast, parse
from repro.types import SqlType
from repro.verify import check_plan, check_program, verify_program
from repro.workloads import sssp_query

EDGES = generate_edges(dblp_like(nodes=60, seed=3))

RECURSIVE_SQL = """
WITH RECURSIVE reach (node) AS (
  SELECT dst FROM edges WHERE src = 1
  UNION
  SELECT e.dst FROM reach r JOIN edges e ON e.src = r.node
) SELECT node FROM reach"""

WHERE_SQL = """
WITH ITERATIVE r (node, v) AS (
  SELECT src, 0.0 FROM edges GROUP BY src
  ITERATE SELECT r.node, min(r.v + e.weight)
          FROM r JOIN edges e ON e.src = r.node
          WHERE r.v < 2.0
          GROUP BY r.node
  UNTIL 3 ITERATIONS
) SELECT node, v FROM r ORDER BY node"""


def _graph_db(**options) -> Database:
    db = Database(SessionOptions(**options))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", EDGES)
    return db


def _compile(db, sql):
    return compile_statement(parse(sql), PlanContext(db.catalog),
                             db.options)


def _fresh(shape):
    """(program, catalog) for one of the four program shapes, compiled
    fresh so mutations never leak between tests."""
    if shape == "iterative":
        db = _graph_db(enable_delta_iteration=False)
        sql = sssp_query(source=1, iterations=5)
    elif shape == "fused":
        db = _graph_db(enable_delta_iteration=True)
        sql = sssp_query(source=1, iterations=5)
    elif shape == "fused_vs":
        db = _graph_db(enable_delta_iteration=True)
        db.create_table("vertexStatus", [("node", SqlType.INTEGER),
                                         ("status", SqlType.INTEGER)])
        db.load_rows("vertexStatus",
                     generate_vertex_status(dblp_like(nodes=60, seed=3)))
        sql = sssp_query(source=1, iterations=5, with_vertex_status=True)
    elif shape == "recursive":
        db = _graph_db()
        sql = RECURSIVE_SQL
    elif shape == "where":
        db = _graph_db(enable_delta_iteration=False)
        sql = WHERE_SQL
    else:  # pragma: no cover
        raise AssertionError(shape)
    return _compile(db, sql), db.catalog


def _first_column_ref(node):
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.ColumnRef):
            return current
        if dataclasses.is_dataclass(current):
            stack.extend(getattr(current, f.name)
                         for f in dataclasses.fields(current))
        elif isinstance(current, (list, tuple)):
            stack.extend(current)
    raise AssertionError("plan has no ColumnRef to corrupt")


# -- the mutation catalogue -------------------------------------------------
#
# Step layouts the index-based corruptions rely on (from _emit_iterative /
# _emit_recursive; the layout tests below pin them):
#
#   iterative/where: 0 mat cte, 1 init, 2 mat work, 3 dupcheck,
#                    4 mat merge, 5 rename, 6 inc, 7 loop, 8 ret, 9 drop
#   fused:           0 mat cte, 1 init, 2 fused, 3 snapshot, 4 mat work,
#                    5 dupcheck, 6 mat merge, 7 rename, 8 diff,
#                    9 inc, 10 loop, 11 ret, 12 drop
#   fused_vs:        fused with 1 mat COMMON#1 inserted (fused at 3)
#   recursive:       0 mat cte, 1 mat work, 2 init, 3 mat cand,
#                    4 merge, 5 loop, 6 ret, 7 drop


def _mut_jump_past_end(program):
    program.steps[7].jump_to = 99


def _mut_drop_init(program):
    program.steps[1] = DropStep([])


def _mut_drop_increment(program):
    program.steps[6] = DropStep([])


def _mut_drop_return(program):
    program.steps[8] = DropStep([])


def _mut_rename_undefined_source(program):
    program.steps[5].source = "__ghost"


def _mut_plan_scans_ghost_temp(program):
    scan = next(op for op in program.steps[4].plan.walk()
                if isinstance(op, LogicalTempScan))
    object.__setattr__(scan, "result_name", "__ghost")


def _mut_drop_live_table(program):
    program.steps[3] = DropStep([program.loops[0].cte_result])


def _mut_orphan_snapshot(program):
    program.steps[3].target = "__orphan"


def _mut_materialize_arity(program):
    program.steps[0].column_names = \
        list(program.steps[0].column_names) + ["extra"]


def _mut_return_plan_bad_column(program):
    ref = _first_column_ref(program.steps[8].plan)
    object.__setattr__(ref, "name", "no_such_column")


def _mut_movement_kind_flip(program):
    old = program.steps[5]
    program.steps[5] = CopyStep(source=old.source, target=old.target)


def _mut_rename_bypasses_merge(program):
    program.steps[5].source = program.steps[2].result_name


def _mut_unknown_loop_id(program):
    program.steps[6].loop_id = 7


def _mut_swap_fused_capture(program):
    program.steps[2], program.steps[8] = \
        program.steps[8], program.steps[2]


def _mut_merge_feeds_wrong_working(program):
    program.steps[4].working = "__other"


def _mut_fused_unpatched_jump(program):
    program.steps[2].jump_full = -1


def _mut_fused_dup_check_flip(program):
    program.steps[2].dup_check = False


def _mut_fused_columns_diverge(program):
    names = list(program.steps[2].column_names)
    names[0] = "not_the_key"
    program.steps[2].column_names = names


def _mut_fused_jump_to_enters_full_body(program):
    program.steps[2].jump_to = program.steps[2].jump_full


def _mut_fused_step_missing(program):
    program.steps[2] = DropStep([])


def _mut_fused_capture_missing(program):
    program.steps[8] = DropStep([])


def _mut_diff_before_move(program):
    program.steps[7], program.steps[8] = \
        program.steps[8], program.steps[7]


def _mut_delta_body_unbound(program):
    # The delta body runs the full body as is: no anchor rebound.
    program.steps[2].plan = program.steps[4].plan


def _mut_delta_body_rebinds_every_cte_scan(program):
    fused = program.steps[2]
    fused.plan, _ = rebind_temp_scans(program.steps[4].plan,
                                      fused.spec.cte_result,
                                      fused.spec.partition)


def _mut_delta_body_reads_base_tables(program):
    # Inline the §V-A block: the delta body rejoins edges and
    # vertexStatus instead of reading COMMON#1.
    common = program.steps[1]
    fused = program.steps[3]

    def inline(node):
        if isinstance(node, LogicalTempScan) \
                and node.result_name == common.result_name:
            return common.plan
        return node

    fused.plan = transform(fused.plan, inline)


def _mut_common_scan_wider_than_block(program):
    # The §V-A block stores its narrowed columns; one scan of it still
    # expects a column the block no longer holds.
    common = program.steps[1]
    fused = program.steps[3]

    def widen(node):
        if isinstance(node, LogicalTempScan) \
                and node.result_name == common.result_name:
            extra = Field(node.alias, "status", SqlType.INTEGER)
            return dataclasses.replace(node, fields=(*node.fields, extra))
        return node

    fused.plan = transform(fused.plan, widen)


MUTATIONS = [
    ("jump_past_end", "iterative", _mut_jump_past_end,
     "past the end"),
    ("missing_init_loop", "iterative", _mut_drop_init,
     "InitLoopStep"),
    ("missing_increment", "iterative", _mut_drop_increment,
     "IncrementLoopStep"),
    ("missing_return", "iterative", _mut_drop_return,
     "ReturnSteps, expected 1"),
    ("rename_undefined_source", "iterative", _mut_rename_undefined_source,
     "reads '__ghost'"),
    ("plan_scans_ghost_temp", "iterative", _mut_plan_scans_ghost_temp,
     "reads '__ghost'"),
    ("drop_live_table", "iterative", _mut_drop_live_table,
     "drops live result"),
    ("orphan_snapshot", "fused", _mut_orphan_snapshot,
     "never consumed"),
    ("materialize_arity", "iterative", _mut_materialize_arity,
     "column names"),
    ("return_plan_bad_column", "iterative", _mut_return_plan_bad_column,
     "no_such_column"),
    ("movement_kind_flip", "iterative", _mut_movement_kind_flip,
     "declares movement"),
    ("rename_bypasses_merge", "where", _mut_rename_bypasses_merge,
     "without merging"),
    ("unknown_loop_id", "iterative", _mut_unknown_loop_id,
     "unknown loop 7"),
    ("swap_fused_capture", "fused", _mut_swap_fused_capture,
     "must precede"),
    ("merge_feeds_wrong_working", "recursive",
     _mut_merge_feeds_wrong_working, "RecursiveMergeStep"),
    ("fused_unpatched_jump", "fused", _mut_fused_unpatched_jump,
     "never patched"),
    ("fused_dup_check_flip", "fused", _mut_fused_dup_check_flip,
     "duplicate-check"),
    ("fused_columns_diverge", "fused", _mut_fused_columns_diverge,
     "diverge from the DeltaSpec"),
    ("fused_jump_to_enters_full_body", "fused",
     _mut_fused_jump_to_enters_full_body, "must skip past"),
    ("fused_step_missing", "fused", _mut_fused_step_missing,
     "has no DeltaFusedStep"),
    ("fused_capture_missing", "fused", _mut_fused_capture_missing,
     "0 TripDiffSteps, expected 1"),
    ("diff_before_move", "fused", _mut_diff_before_move,
     "before the body moves"),
    ("delta_body_unbound", "fused", _mut_delta_body_unbound,
     "0 times, expected exactly once"),
    ("delta_body_rebinds_every_cte_scan", "fused",
     _mut_delta_body_rebinds_every_cte_scan,
     "2 times, expected exactly once"),
    ("delta_body_reads_base_tables", "fused_vs",
     _mut_delta_body_reads_base_tables, "only its anchor scan rebound"),
    ("common_scan_wider_than_block", "fused_vs",
     _mut_common_scan_wider_than_block, "of a result stored with 3"),
]


class TestPristinePrograms:
    @pytest.mark.parametrize(
        "shape", ["iterative", "fused", "fused_vs", "recursive", "where"])
    def test_compiles_clean(self, shape):
        program, catalog = _fresh(shape)
        assert check_program(program, catalog) == []

    def test_compile_attaches_verdict(self):
        program, _ = _fresh("iterative")
        assert program.verifier_verdict is not None
        assert program.verifier_verdict.startswith("ok (")
        assert f"verifier: {program.verifier_verdict}" \
            in program.explain()


class TestMutations:
    @pytest.mark.parametrize(
        "name,shape,mutate,expected",
        MUTATIONS, ids=[m[0] for m in MUTATIONS])
    def test_corruption_rejected(self, name, shape, mutate, expected):
        program, catalog = _fresh(shape)
        mutate(program)
        violations = check_program(program, catalog)
        assert violations, f"{name}: corruption went undetected"
        assert any(expected in v for v in violations), \
            f"{name}: none of {violations!r} mentions {expected!r}"

    @pytest.mark.parametrize(
        "name,shape,mutate,expected",
        MUTATIONS, ids=[m[0] for m in MUTATIONS])
    def test_error_names_the_pass(self, name, shape, mutate, expected):
        program, catalog = _fresh(shape)
        mutate(program)
        with pytest.raises(VerificationError) as excinfo:
            verify_program(program, f"mutation:{name}", catalog)
        error = excinfo.value
        assert error.pass_name == f"mutation:{name}"
        assert any(expected in v for v in error.violations)
        assert f"after pass 'mutation:{name}'" in str(error)


class TestErrorStructure:
    def test_long_violation_lists_are_elided(self):
        error = VerificationError(
            "compile", [f"violation {i}" for i in range(7)])
        assert error.pass_name == "compile"
        assert len(error.violations) == 7
        assert "... 3 more" in str(error)

    def test_plan_checker_rejects_unknown_base_column(self):
        # The recursive base case scans the edges table directly, so its
        # materializing plan is a convenient plan-over-base-table victim.
        program, catalog = _fresh("recursive")
        plan = program.steps[0].plan
        ref = _first_column_ref(plan)
        object.__setattr__(ref, "name", "no_such_column")
        violations = check_plan(plan, catalog)
        assert any("no_such_column" in v for v in violations)


class TestVerifierToggle:
    def test_pytest_runs_default_on(self):
        # On by default, so the whole suite doubles as the
        # zero-false-positive corpus.
        assert SessionOptions().enable_plan_verifier

    def test_disabled_sessions_skip_verification(self):
        db = _graph_db(enable_plan_verifier=False)
        program = _compile(db, sssp_query(source=1, iterations=3))
        assert program.verifier_verdict is None

    def test_verdict_reaches_explain_output(self):
        db = _graph_db()
        report = db.explain(sssp_query(source=1, iterations=3))
        assert "verifier: ok (" in report

    def test_verdict_reaches_trace_json(self):
        import json

        db = _graph_db(enable_tracing=True)
        db.execute(sssp_query(source=1, iterations=3))
        trace = json.loads(db.trace_json())

        def spans(span):
            yield span
            for child in span["children"]:
                yield from spans(child)

        compile_span = next(s for s in spans(trace["root"])
                            if s["name"] == "compile")
        assert compile_span["attributes"]["verifier"].startswith("ok (")


# -- exchange plans (the distributed IR) ---------------------------------

from repro.mpp.plan import (ExchangeOp, ExchangePlan, LocalOp,  # noqa: E402
                            RegisterDef, pagerank_exchange_plan,
                            sssp_exchange_plan)
from repro.verify import check_exchange_plan, verify_exchange_plan  # noqa: E402


def _xmut_duplicate_register(plan):
    return dataclasses.replace(
        plan, registers=plan.registers + (plan.registers[0],))


def _xmut_key_not_a_column(plan):
    bad = dataclasses.replace(plan.registers[0], key="no_such_column")
    return dataclasses.replace(
        plan, registers=(bad,) + plan.registers[1:])


def _xmut_read_undefined(plan):
    first = dataclasses.replace(
        plan.steps[0], reads=plan.steps[0].reads + ("phantom",))
    return dataclasses.replace(plan, steps=(first,) + plan.steps[1:])


def _xmut_ship_undefined(plan):
    steps = tuple(
        dataclasses.replace(step, register="phantom")
        if isinstance(step, ExchangeOp) else step
        for step in plan.steps)
    return dataclasses.replace(plan, steps=steps)


def _xmut_route_key_not_a_column(plan):
    steps = tuple(
        dataclasses.replace(step, key="no_such_column")
        if isinstance(step, ExchangeOp) else step
        for step in plan.steps)
    return dataclasses.replace(plan, steps=steps)


def _xmut_drop_exchange(plan):
    # Remove the motion: the apply phase's co-location contract on the
    # shuffled register can no longer hold (it was never re-keyed).
    return dataclasses.replace(
        plan, steps=tuple(step for step in plan.steps
                          if not isinstance(step, ExchangeOp)))


def _xmut_produce_writes_elsewhere(plan):
    # The exchange would ship a register the produce phase never wrote.
    produce = dataclasses.replace(plan.steps[0], writes=("scratch",))
    return dataclasses.replace(plan, steps=(produce,) + plan.steps[1:])


def _xmut_apply_writes_scratch(plan):
    # The runners install the apply output as a resident register.
    apply = dataclasses.replace(plan.steps[2], writes=("scratch",))
    return dataclasses.replace(plan, steps=plan.steps[:2] + (apply,))


def _xmut_second_exchange(plan):
    # Verifiable as a dataflow, but no runner executes two motions.
    return dataclasses.replace(plan, steps=plan.steps + (plan.steps[1],))


EXCHANGE_MUTATIONS = [
    ("duplicate_register", _xmut_duplicate_register, "duplicate register"),
    ("key_not_a_column", _xmut_key_not_a_column, "not one of its columns"),
    ("read_undefined", _xmut_read_undefined, "undefined register"),
    ("ship_undefined", _xmut_ship_undefined, "undefined register"),
    ("route_key_not_a_column", _xmut_route_key_not_a_column,
     "routes on"),
    ("drop_exchange", _xmut_drop_exchange, "requires"),
    ("produce_writes_elsewhere", _xmut_produce_writes_elsewhere,
     "but the exchange ships"),
    ("apply_writes_scratch", _xmut_apply_writes_scratch,
     "exactly one resident register"),
    ("second_exchange", _xmut_second_exchange,
     "a superstep runs LocalOp, ExchangeOp, LocalOp"),
]


class TestExchangePlanVerifier:
    @pytest.mark.parametrize("build", [
        pagerank_exchange_plan,
        sssp_exchange_plan,
    ], ids=["pagerank", "sssp"])
    def test_pristine_plans_pass(self, build):
        assert check_exchange_plan(build()) == []

    @pytest.mark.parametrize(
        "name,mutate,expected",
        EXCHANGE_MUTATIONS, ids=[m[0] for m in EXCHANGE_MUTATIONS])
    def test_corruption_rejected(self, name, mutate, expected):
        for build in (pagerank_exchange_plan, sssp_exchange_plan):
            plan = mutate(build())
            violations = check_exchange_plan(plan)
            assert violations, f"{name}: corruption went undetected"
            assert any(expected in v for v in violations), \
                f"{name}: none of {violations!r} mentions {expected!r}"

    def test_error_names_the_pass(self):
        plan = _xmut_ship_undefined(pagerank_exchange_plan())
        with pytest.raises(VerificationError) as excinfo:
            verify_exchange_plan(plan, "pagerank:exchange_plan")
        assert excinfo.value.pass_name == "pagerank:exchange_plan"
        assert "after pass 'pagerank:exchange_plan'" in str(excinfo.value)

    def test_colocation_tracks_exchange_rekey(self):
        # A register shuffled onto one key then required on another must
        # be flagged — the exchange is what establishes the distribution.
        plan = ExchangePlan(
            name="rekey",
            registers=(RegisterDef("state", ("node", "rank"), key="node"),),
            steps=(
                LocalOp("produce", reads=("state",), writes=("out",)),
                ExchangeOp("out", key="dst", columns=("dst", "value")),
                LocalOp("consume", reads=("state", "out"),
                        requires=((("state", "node"), ("out", "value")),)),
            ))
        violations = check_exchange_plan(plan)
        assert any("hashed on" in v and "'out'" in v for v in violations)

    def test_local_write_invalidates_key_knowledge(self):
        # Rebuilding a shuffled register locally (not reading it) drops
        # its partition-key fact; a later contract on the old key fails.
        plan = ExchangePlan(
            name="invalidate",
            registers=(RegisterDef("state", ("node", "rank"), key="node"),),
            steps=(
                LocalOp("produce", reads=("state",), writes=("out",)),
                ExchangeOp("out", key="dst", columns=("dst", "value")),
                LocalOp("rebuild", reads=("state",), writes=("out",)),
                LocalOp("consume", reads=("out",),
                        requires=((("out", "dst"),),)),
            ))
        violations = check_exchange_plan(plan)
        assert any("not hash-partitioned" in v for v in violations)

    def test_drivers_verify_before_running(self):
        # The distributed drivers must reject a broken plan before any
        # partitioning work happens.
        from repro.mpp.iterative import _verify_spec
        from repro.mpp.superstep import SuperstepSpec

        plan = dataclasses.replace(
            _xmut_ship_undefined(pagerank_exchange_plan()), name="broken")
        spec = SuperstepSpec(plan=plan, produce=lambda regs: None,
                             apply=lambda regs, pieces, aux: None)
        with pytest.raises(VerificationError) as excinfo:
            _verify_spec(spec)
        assert excinfo.value.pass_name == "broken:exchange_plan"

    def test_spec_reads_the_trip_from_its_plan(self):
        from repro.mpp import pagerank_superstep_spec, sssp_superstep_spec

        for build in (pagerank_superstep_spec, sssp_superstep_spec):
            spec = build()
            assert spec.exchange.key == "dst"
            assert spec.state == "state"
            assert spec.plan.register(spec.state).key == "node"

    def test_loaded_tables_must_match_the_declared_registers(self):
        # The plan, not the caller, says what each register holds: a
        # table whose columns disagree is refused before partitioning.
        from repro.mpp import Cluster, pagerank_superstep_spec
        from repro.mpp.iterative import (_edges_table, _node_ids,
                                         _run_distributed_loop, _state_table)
        from repro.obs.trace import NULL_TRACER

        cluster = Cluster(2)
        edges = _edges_table([(1, 2, 1.0)])
        with pytest.raises(VerificationError) as excinfo:
            _run_distributed_loop(
                cluster, pagerank_superstep_spec(),
                {"edges": edges, "state": edges}, 1, NULL_TRACER, None)
        assert excinfo.value.pass_name == "pagerank:exchange_plan"
        assert "declares columns" in str(excinfo.value)
        _, loop = _run_distributed_loop(
            cluster, pagerank_superstep_spec(),
            {"edges": edges, "state": _state_table(_node_ids(edges))}, 1,
            NULL_TRACER, None)
        assert loop["iterations"] == 1
