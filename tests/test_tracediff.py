"""Trace diff: native vs baseline span-tree comparison.

A real native run and a real middleware run of the same query must diff
to full agreement (same iterations, same delta_rows convergence curve).
"""

import copy
import json

import pytest

from repro.datasets import dblp_like, fresh_database
from repro.errors import ReproError
from repro.middleware.driver import MiddlewareDriver
from repro.obs.tracediff import (
    diff_traces,
    main,
    render_diff,
    summarize_trace,
)
from repro.workloads import pagerank_query, sssp_query

SPEC = dblp_like(nodes=80, seed=9)


def _native_trace(sql):
    db = fresh_database(SPEC)
    db.options.enable_tracing = True
    db.execute(sql)
    return json.loads(db.trace_json())


def _middleware_trace(sql):
    db = fresh_database(SPEC)
    db.options.enable_tracing = True
    MiddlewareDriver(db).run(sql)
    return json.loads(db.trace_json())


@pytest.fixture(scope="module")
def pagerank_traces():
    sql = pagerank_query(iterations=5)
    return _native_trace(sql), _middleware_trace(sql)


class TestNativeVsMiddleware:
    def test_summaries_classify_both_sides(self, pagerank_traces):
        native, middleware = map(summarize_trace, pagerank_traces)
        assert native.family == "native"
        assert native.step_spans > 0
        assert not native.statements
        assert middleware.family == "middleware"
        assert middleware.step_spans == 0
        assert middleware.statements["ddl"] > 0
        assert middleware.statements["dml"] > 0
        assert middleware.statements["probe"] > 0

    def test_diff_agrees_on_convergence(self, pagerank_traces):
        diff = diff_traces(*pagerank_traces)
        assert diff.agreement
        assert len(diff.loops) == 1
        comparison = diff.loops[0]
        assert comparison.cte == "pagerank"
        assert comparison.native.iterations == 5
        assert comparison.iterations_match
        assert comparison.convergence_match

    def test_baseline_statement_storm(self, pagerank_traces):
        # The Fig. 1 point: the middleware issues one statement per
        # round trip while the native engine runs one statement total.
        diff = diff_traces(*pagerank_traces)
        assert diff.baseline.statement_total \
            > diff.baseline.loops[0].iterations

    def test_order_insensitive(self, pagerank_traces):
        native, middleware = pagerank_traces
        diff = diff_traces(middleware, native)
        assert diff.native.family == "native"
        assert diff.baseline.family == "middleware"

    def test_render_mentions_verdict(self, pagerank_traces):
        text = render_diff(diff_traces(*pagerank_traces))
        assert "trace diff: native vs middleware" in text
        assert "agreement  : ok" in text
        assert "convergence (delta_rows): identical" in text


def test_sssp_measurement_gap_is_surfaced():
    # Full-refresh rename-in-place loops report delta_rows as the whole
    # working table, while the middleware probes the rows that actually
    # changed; the diff must surface that measurement gap (iterations
    # still align) rather than paper over it.
    sql = sssp_query(source=0)
    diff = diff_traces(_native_trace(sql), _middleware_trace(sql))
    comparison = diff.loops[0]
    assert comparison.iterations_match
    assert not comparison.convergence_match
    assert not diff.agreement


class TestDivergenceDetection:
    def test_iteration_mismatch_flagged(self, pagerank_traces):
        native, middleware = pagerank_traces
        corrupted = copy.deepcopy(middleware)
        corrupted["loops"][0]["iterations"].pop()
        for index, record in enumerate(
                corrupted["loops"][0]["iterations"]):
            record["index"] = index + 1
        diff = diff_traces(native, corrupted)
        assert not diff.agreement
        assert not diff.loops[0].iterations_match
        assert "MISMATCH" in render_diff(diff)

    def test_convergence_mismatch_flagged(self, pagerank_traces):
        native, middleware = pagerank_traces
        corrupted = copy.deepcopy(middleware)
        corrupted["loops"][0]["iterations"][-1]["delta_rows"] += 1
        diff = diff_traces(native, corrupted)
        assert not diff.agreement
        assert diff.loops[0].iterations_match
        assert not diff.loops[0].convergence_match
        assert "DIVERGE" in render_diff(diff)

    def test_two_native_traces_rejected(self, pagerank_traces):
        native, _ = pagerank_traces
        with pytest.raises(ReproError, match="both traces are native"):
            diff_traces(native, copy.deepcopy(native))

    def test_two_baseline_traces_rejected(self, pagerank_traces):
        _, middleware = pagerank_traces
        with pytest.raises(ReproError, match="neither trace"):
            diff_traces(middleware, copy.deepcopy(middleware))

    def test_invalid_trace_rejected(self, pagerank_traces):
        native, middleware = pagerank_traces
        corrupted = copy.deepcopy(middleware)
        del corrupted["loops"]
        with pytest.raises(ValueError, match="schema violation"):
            diff_traces(native, corrupted)


class TestCli:
    def _write(self, tmp_path, pagerank_traces):
        native, middleware = pagerank_traces
        native_path = tmp_path / "native.json"
        baseline_path = tmp_path / "middleware.json"
        native_path.write_text(json.dumps(native))
        baseline_path.write_text(json.dumps(middleware))
        return str(native_path), str(baseline_path)

    def test_cli_agreement_exit_zero(self, tmp_path, pagerank_traces,
                                     capsys):
        native, baseline = self._write(tmp_path, pagerank_traces)
        assert main([native, baseline, "--require-agreement"]) == 0
        out = capsys.readouterr().out
        assert "trace diff: native vs middleware" in out

    def test_cli_disagreement_exit_nonzero(self, tmp_path,
                                           pagerank_traces, capsys):
        native, middleware = pagerank_traces
        corrupted = copy.deepcopy(middleware)
        corrupted["loops"][0]["iterations"][-1]["delta_rows"] += 7
        native_path = tmp_path / "native.json"
        baseline_path = tmp_path / "bad.json"
        native_path.write_text(json.dumps(native))
        baseline_path.write_text(json.dumps(corrupted))
        assert main([str(native_path), str(baseline_path),
                     "--require-agreement"]) == 1
        assert "DIVERGE" in capsys.readouterr().out
