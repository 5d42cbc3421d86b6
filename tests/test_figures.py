"""``benchmarks/figures.py`` at a small scale: it writes a file only
where ``--out`` points, its document carries every sample with each
side's median and quartiles, the checks and the floor verdicts, and a
floor below the scale it needs reads unchecked, never passed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads import pagerank_query

FIGURES = Path(__file__).resolve().parent.parent / "benchmarks" / "figures.py"


def _figures(cwd, *args):
    # table1 is the cheapest arm; serving at 0.05 has floors that need
    # a larger scale.
    done = subprocess.run(
        [sys.executable, str(FIGURES), "--scale", "0.05",
         "--arm", "table1", "--arm", "serving", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_writes_no_file_without_out(tmp_path):
    report = _figures(tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert "Table I step structure" in report
    assert "floor unchecked (needs scale ≥ 0.75): plan-cache hit rate" \
        in report


def test_document_has_samples_quartiles_and_verdicts(tmp_path):
    out = tmp_path / "out" / "figures.json"
    out.parent.mkdir()
    _figures(tmp_path, "--out", str(out))
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    document = json.loads(out.read_text())
    assert document["scale"] == 0.05
    assert list(document["arms"]) == ["table1", "serving"]
    for arm in document["arms"].values():
        assert set(arm["host_factor"]) == {"wall", "cpu"}
        assert arm["cases"] and all(arm["checks"].values())
        for case in arm["cases"]:
            assert list(case["sides"]) == arm["sides"]
            for side in case["sides"].values():
                assert len(side["samples"]) >= 3
                assert side["q1"] <= side["median"] <= side["q3"]
    floors = document["arms"]["serving"]["floors"]
    assert [floor["needs_scale"] for floor in floors] == [0.75, 1.0]
    assert all(floor["verdict"] == f"unchecked (needs scale ≥ "
                                   f"{floor['needs_scale']:g})"
               for floor in floors)


def test_wide_pr_vs_computes_pr_vs(graph_vs_db, figures):
    """The common-size arm's extra invariant joins change neither the
    answer nor its agreement across the common-result switch."""
    wide_sql = figures.wide_pr_vs(iterations=3, extra_invariant_joins=2)
    wide = sorted(graph_vs_db.execute(wide_sql).rows())
    narrow = sorted(graph_vs_db.execute(
        pagerank_query(iterations=3, with_vertex_status=True)).rows())
    assert len(wide) == len(narrow)
    for have, want in zip(wide, narrow):
        assert have == pytest.approx(want)
    graph_vs_db.set_option("enable_common_results", False)
    for have, want in zip(sorted(graph_vs_db.execute(wide_sql).rows()),
                          wide):
        assert have == pytest.approx(want)
