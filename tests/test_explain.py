"""EXPLAIN output tests: the step program must mirror the paper's Table I
(PR logical plan) and Fig. 5 (common-result plan)."""

import pytest

from repro.workloads import ff_query, pagerank_query, sssp_query


class TestTableOne:
    """Table I of the paper, step by step, for the PR query."""

    def test_pr_plan_structure(self, graph_db):
        text = graph_db.explain(pagerank_query(iterations=10))
        lines = [line.strip() for line in text.splitlines()]
        # Step 1: materialize the non-iterative part.
        assert lines[0].startswith("1  Materialize")
        assert "non-iterative" in lines[0]
        # Step 2: initialize the counter.
        assert "Initialize counter to zero" in lines[1]
        # Step 3: materialize the iterative part.
        assert "iterative part" in lines[2]
        # Step 4: rename intermediate to main (PR updates everything).
        assert lines[3].startswith("4  Rename")
        # Step 5: increment, step 6: conditional jump to step 3.
        assert "Increment counter by 1" in lines[4]
        assert "Go to step 3" in lines[5]

    def test_pr_loop_annotation_matches_fig4(self, graph_db):
        """Fig. 4 annotates the loop <<Type:metadata, N:10, Expr:NONE>>."""
        text = graph_db.explain(pagerank_query(iterations=10))
        assert "<<Type:metadata, N:10, Expr:NONE>>" in text

    def test_data_condition_annotation(self, db):
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT 1, 1 ITERATE SELECT k, v + 1 FROM r UNTIL v > 10
        ) SELECT v FROM r"""
        text = db.explain(sql)
        assert "Type:data" in text
        assert "(v > 10)" in text

    def test_delta_condition_annotation(self, db):
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT 1, 1 ITERATE SELECT k, v FROM r UNTIL DELTA = 0
        ) SELECT v FROM r"""
        assert "Type:delta" in db.explain(sql)

    def test_sssp_uses_merge_path(self, graph_db):
        text = graph_db.explain(sssp_query(iterations=10))
        assert "merge updates" in text
        assert "unique" in text  # duplicate-key check step

    def test_verbose_shows_operator_trees(self, graph_db):
        text = graph_db.explain(pagerank_query(iterations=5), verbose=True)
        assert "LEFTJoin" in text
        assert "Aggregate" in text
        assert "TempScan" in text


class TestFigureFive:
    """Fig. 5: PR-VS materializes COMMON#1 = edges ⋈ vertexStatus before
    the loop and reuses it inside the iterative part."""

    def test_common_block_materialized_before_loop(self, graph_vs_db):
        text = graph_vs_db.explain(
            pagerank_query(iterations=5, with_vertex_status=True))
        lines = text.splitlines()
        common_line = next(i for i, line in enumerate(lines)
                           if "COMMON#1" in line)
        init_line = next(i for i, line in enumerate(lines)
                         if "Initialize counter" in line)
        assert common_line < init_line

    def test_common_block_contains_the_invariant_join(self, graph_vs_db):
        text = graph_vs_db.explain(
            pagerank_query(iterations=5, with_vertex_status=True),
            verbose=True)
        # The block joins edges and vertexStatus with the status filter.
        assert "COMMON#1" in text
        assert "vertexStatus" in text or "vertexstatus" in text

    def test_common_block_built_once_per_query(self, graph_vs_db):
        sql = pagerank_query(iterations=5, with_vertex_status=True)
        graph_vs_db.execute(sql)
        assert graph_vs_db.stats.common_results_built == 1
        graph_vs_db.set_option("enable_common_results", False)
        graph_vs_db.reset_stats()
        graph_vs_db.execute(sql)
        assert graph_vs_db.stats.common_results_built == 0

    def test_disabled_option_removes_common_block(self, graph_vs_db):
        graph_vs_db.set_option("enable_common_results", False)
        text = graph_vs_db.explain(
            pagerank_query(iterations=5, with_vertex_status=True))
        assert "COMMON#" not in text

    def test_delta_body_reads_the_common_block(self, graph_vs_db):
        # SSSP-VS with delta on: the fused pass's plan is the full body
        # with its anchor rebound, so it reads COMMON#1 and the partition
        # and never rescans vertexStatus.
        graph_vs_db.set_option("enable_delta_iteration", True)
        text = graph_vs_db.explain(
            sssp_query(iterations=5, with_vertex_status=True), verbose=True)
        lines = text.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if "Fused delta pass" in line)
        end = next(i for i in range(start + 1, len(lines))
                   if not lines[i].startswith("      "))
        fused = "\n".join(lines[start + 1:end])
        assert "TempScan(COMMON#1)" in fused
        assert "TempScan(__part_sssp" in fused
        assert "Scan(vertexStatus" not in fused

    def test_explain_statement_form(self, graph_db):
        result = graph_db.execute("EXPLAIN SELECT src FROM edges")
        assert result.table is not None
        assert any("Return final query" in row[0]
                   for row in result.rows())


class TestPushdownVisibility:
    def test_pushed_predicate_visible_in_init_plan(self, graph_db):
        text = graph_db.explain(
            ff_query(iterations=5, selectivity_mod=100), verbose=True)
        head = text.split("Initialize")[0]
        assert "MOD" in head  # the predicate moved before the loop

    def test_disabled_pushdown_leaves_predicate_in_final(self, graph_db):
        graph_db.set_option("enable_predicate_pushdown", False)
        text = graph_db.explain(
            ff_query(iterations=5, selectivity_mod=100), verbose=True)
        head = text.split("Initialize")[0]
        assert "MOD" not in head

    def test_pushdown_counted_once_and_results_unchanged(self, graph_db):
        sql = ff_query(iterations=5, selectivity_mod=2,
                       order_and_limit=False)
        pushed = sorted(graph_db.execute(sql).rows())
        assert pushed
        assert graph_db.stats.predicate_pushdowns == 1
        graph_db.set_option("enable_predicate_pushdown", False)
        graph_db.reset_stats()
        assert sorted(graph_db.execute(sql).rows()) == pushed
        assert graph_db.stats.predicate_pushdowns == 0
