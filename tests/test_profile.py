"""Profile aggregation and the ``repro-profile`` CLI (repro.obs.profile).

Folds real traces (from explain_analyze runs) into hot-stack profiles,
per-loop iteration rollups, collapsed-stack export, and the rendered
decision timeline.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import dblp_like, generate_edges
from repro.engine.database import Database
from repro.execution import SessionOptions
from repro.obs.export import validate_trace_dict
from repro.obs.profile import (
    aggregate_profile,
    collapsed_stacks,
    main,
    render_decision_timeline,
    render_profile,
)
from repro.types import SqlType
from repro.workloads import pagerank_query, sssp_query

EDGES = generate_edges(dblp_like(nodes=200, seed=21))


def explained(sql, **options) -> tuple[str, dict]:
    """The EXPLAIN ANALYZE report of ``sql`` and the trace it stored."""
    db = Database(SessionOptions(**options))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", EDGES)
    report = db.explain_analyze(sql)
    return report, json.loads(db.trace_json())


def traced_trace(sql, **options) -> dict:
    return explained(sql, **options)[1]


@pytest.fixture(scope="module")
def pagerank_trace() -> dict:
    return traced_trace(pagerank_query(iterations=8),
                        enable_delta_iteration=True)


class TestAggregation:
    def test_iterations_fold_into_one_frame(self, pagerank_trace):
        profile = aggregate_profile(pagerank_trace)
        iteration_entries = [e for e in profile.entries.values()
                             if e.frame == "iteration"]
        assert len(iteration_entries) == 1
        assert iteration_entries[0].count == 8

    def test_exclusive_never_exceeds_inclusive(self, pagerank_trace):
        profile = aggregate_profile(pagerank_trace)
        assert profile.entries, "profile folded no stacks"
        for entry in profile.entries.values():
            assert 0.0 <= entry.exclusive <= entry.inclusive + 1e-9

    def test_step_frames_keyed_by_program_position(self, pagerank_trace):
        profile = aggregate_profile(pagerank_trace)
        step_frames = {e.frame for e in profile.entries.values()
                       if "#" in e.frame}
        assert step_frames, "expected step frames keyed as name#index"

    def test_loop_rollup_counts_iterations_and_seconds(self,
                                                       pagerank_trace):
        profile = aggregate_profile(pagerank_trace)
        (rollup,) = profile.loops
        assert rollup.cte == "pagerank"
        assert rollup.iterations == 8
        assert rollup.total_seconds > 0

    def test_decision_events_collected(self, pagerank_trace):
        profile = aggregate_profile(pagerank_trace)
        names = [event["name"] for event in profile.decisions]
        assert "strategy_selection" in names
        # PageRank's near-full frontier demotes the loop mid-flight.
        assert "strategy_demotion" in names


class TestCollapsedStacks:
    def test_lines_sum_to_total_within_rounding(self, pagerank_trace):
        lines = collapsed_stacks(pagerank_trace)
        assert lines
        total_us = 0
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert ";" in stack or stack  # root line has no separator
            assert int(weight) > 0
            total_us += int(weight)
        root_us = pagerank_trace["root"]["seconds"] * 1e6
        assert total_us <= root_us + len(lines)  # rounding slack only

    def test_stacks_are_semicolon_paths_from_root(self, pagerank_trace):
        lines = collapsed_stacks(pagerank_trace)
        root_name = pagerank_trace["root"]["name"]
        deep = [line for line in lines if ";" in line]
        assert deep
        for line in deep:
            assert line.startswith(root_name + ";")


class TestRendering:
    def test_render_profile_sections(self, pagerank_trace):
        text = render_profile(pagerank_trace)
        assert "hot frames" in text
        assert "loop pagerank" in text
        assert "decision timeline:" in text
        assert "selected semi-naive-delta" in text

    def test_demotion_line_shows_frontier_vs_budget(self, pagerank_trace):
        profile = aggregate_profile(pagerank_trace)
        lines = render_decision_timeline(profile.decisions)
        demotions = [line for line in lines if "demoted" in line]
        assert demotions
        assert "vs budget" in demotions[0]

    def test_explain_analyze_prints_the_same_timeline(self):
        report, trace = explained(pagerank_query(iterations=8),
                                  enable_delta_iteration=True)
        lines = render_decision_timeline(
            aggregate_profile(trace).decisions)
        assert any("demoted" in line for line in lines)
        start = report.splitlines().index("decision timeline:")
        assert report.splitlines()[start:start + len(lines)] == lines
        assert render_profile(trace).splitlines()[-len(lines):] == lines

    def test_sssp_without_demotion_still_has_selection(self):
        trace = traced_trace(sssp_query(source=1, iterations=5),
                             enable_delta_iteration=True)
        text = render_profile(trace)
        assert "selected semi-naive-delta" in text
        assert "demoted" not in text


class TestCli:
    def test_report_and_collapsed_output(self, pagerank_trace, tmp_path,
                                         capsys):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(pagerank_trace))
        folded_path = tmp_path / "folded.txt"
        assert main([str(trace_path), "--top", "3",
                     "--collapsed", str(folded_path)]) == 0
        out = capsys.readouterr().out
        assert "decision timeline:" in out
        folded = folded_path.read_text().splitlines()
        assert folded and all(line.rsplit(" ", 1)[1].isdigit()
                              for line in folded)

    def test_reads_the_trace_of_a_plan_cache_hit(self, tmp_path, capsys):
        db = Database(SessionOptions(enable_tracing=True))
        db.create_table("edges", [("src", SqlType.INTEGER),
                                  ("dst", SqlType.INTEGER),
                                  ("weight", SqlType.FLOAT)])
        db.load_rows("edges", EDGES)
        sql = sssp_query(iterations=3)
        db.execute(sql)
        db.execute(sql)  # served from the plan cache
        trace = json.loads(db.trace_json())
        assert "plan_cache_hit" in json.dumps(trace)
        validate_trace_dict(trace)
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(trace))
        assert main([str(trace_path)]) == 0
        assert "decision timeline:" in capsys.readouterr().out

    def test_rejects_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        assert main([str(bad)]) == 2
        assert "repro-profile" in capsys.readouterr().err

    def test_rejects_unreadable_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err
