"""Smoke test of the end-to-end benchmark (not in ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload at 5 % size for two seconds through the real command
line, and checks the pieces the numbers rest on: the NumPy oracles
against the engine's own reference implementations, that a seed changes
wiring and literals but not the amount of work, that the probe restores
what it patched and accounts for all of a root span's time, and that
nothing outlives a run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layermetrics  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from layers import TARGETS  # noqa: E402
from probe import Probe  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SMALL = ["--seconds", "2", "--scale", "0.05"]


def _processes_in_group(group: int) -> list[int]:
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == group and fields[0] != "Z":
            alive.append(int(entry))
    return alive


@pytest.fixture(scope="module")
def smoke_runs():
    """All four workloads untraced plus one traced run, side by side in
    their own process groups; yields name -> (exit code, result, text)."""
    shm_before = set(os.listdir("/dev/shm"))
    started = {}
    for name in workloads.WORKLOADS:
        started[name] = subprocess.Popen(
            RUN + ["--workload", name, "--seed", "3", "--trace", "0"] + SMALL,
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True)
    started["traced"] = subprocess.Popen(
        RUN + ["--workload", "serve_mixed", "--seed", "4", "--trace", "1"]
        + SMALL, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    results = {}
    for name, process in started.items():
        text, _ = process.communicate(timeout=120)
        lines = text.strip().splitlines()
        results[name] = (process.returncode,
                         json.loads(lines[-1]) if lines else None, text)
    results["leftover_processes"] = [
        pid for process in started.values()
        for pid in _processes_in_group(process.pid)]
    results["leftover_shm"] = set(os.listdir("/dev/shm")) - shm_before
    return results


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_prints_all_end_to_end_metrics(smoke_runs, name):
    code, result, text = smoke_runs[name]
    assert code == 0, text
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m[0]: m[1] for m in layermetrics.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for diagnostic in ("raw.op_p50_ms", "raw.op_cpu_ms", "host.factor_p50"):
        assert diagnostic in text


def test_traced_run_prints_every_per_layer_metric(smoke_runs):
    code, result, text = smoke_runs["traced"]
    assert code == 0, text
    assert result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == [m[0] for m in layermetrics.PER_LAYER]
    assert metrics["plan.cache_shape_hit_ratio"]["value"] > 0
    assert metrics["server.queue_ms"]["value"] > 0
    assert metrics["probe.span_coverage"]["value"] > 0.9
    assert "share.front_end" in text
    assert (HERE / "out" / "spans-serve_mixed.json").is_file()


def test_nothing_outlives_a_run(smoke_runs):
    assert smoke_runs["leftover_processes"] == []
    assert smoke_runs["leftover_shm"] == set()


def test_exits_nonzero_without_src(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir()
    for source in HERE.glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "pr_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == layermetrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layermetrics.PER_LAYER
    import run
    assert spec["run_seconds"] == run.RUN_SECONDS


# -- oracles -----------------------------------------------------------------


def _small_graph(uniform: bool):
    rng = np.random.default_rng(11)
    return workloads.seeded_graph(200, rng, uniform_weights=uniform)


def test_pagerank_oracle_agrees_with_reference():
    from repro.workloads.pagerank import reference_pagerank
    g = _small_graph(uniform=False)
    expected = reference_pagerank(g.rows, iterations=6)
    actual = oracles.pagerank(g.src, g.dst, g.weight, g.nodes, 6)
    assert oracles.close(actual, [expected[v] for v in range(g.nodes)])


def test_sssp_oracle_agrees_with_reference():
    from repro.workloads.sssp import reference_sssp
    g = _small_graph(uniform=True)
    available = np.random.default_rng(5).random(g.nodes) < 0.8
    for mask in (None, available):
        lookup = None if mask is None else dict(enumerate(mask.tolist()))
        expected = reference_sssp(g.rows, source=7, iterations=9,
                                  available=lookup)
        actual = oracles.sssp(g.src, g.dst, g.weight, g.nodes, 7, 9, mask)
        assert oracles.close(actual, [expected[v] for v in range(g.nodes)])


def test_oracle_rejects_a_wrong_answer():
    assert not oracles.close([1.0, 2.0], [1.0, 2.0 + 1e-6])
    assert oracles.by_node(np.array([0, 0, 1]), np.ones(3), 3) is None
    assert oracles.by_node(np.array([0, 1, 7]), np.ones(3), 3) is None


# -- seeds -------------------------------------------------------------------


def test_a_seed_changes_wiring_but_not_the_amount_of_work():
    first = workloads.ServeMixed(1, 0.05)
    second = workloads.ServeMixed(2, 0.05)
    assert first.class_counts() == second.class_counts()
    assert first.edges.edges == second.edges.edges
    assert first.small.edges == second.small.edges
    assert len(first.base_rows) == len(second.base_rows)
    assert [r.cls for r in first.schedules[0]] != \
        [r.cls for r in second.schedules[0]]
    assert {r.sql for r in first.schedules[0]} != \
        {r.sql for r in second.schedules[0]}
    for a, b in zip(first.schedules, second.schedules):
        assert len(a) == len(b)

    one, two = workloads.SsspDelta(1, 0.05), workloads.SsspDelta(2, 0.05)
    assert one.graph.edges == two.graph.edges
    assert int(one.available.sum()) == int(two.available.sum())
    assert one.query != two.query
    degree = (np.bincount(one.graph.src, minlength=one.graph.nodes),
              np.bincount(two.graph.src, minlength=two.graph.nodes))
    assert degree[0][one.source] == degree[1][two.source] == degree[0].max()
    assert sorted(degree[0]) == sorted(degree[1])


# -- probe -------------------------------------------------------------------


def _patchable_names():
    probe = Probe(TARGETS)
    probe.install()
    try:
        return [(owner, attr) for owner, attr, _ in probe._patched]
    finally:
        probe.restore()


def test_probe_restores_every_patched_name():
    places = _patchable_names()
    before = [getattr(owner, attr) for owner, attr in places]
    probe = Probe(TARGETS)
    with probe:
        during = [getattr(owner, attr) for owner, attr in places]
        assert all(a is not b for a, b in zip(before, during))
        # A by-name import inside another repro module is patched too.
        import repro.engine.session as session
        import repro.sql.parser as parser
        assert session.parse is parser.parse
    after = [getattr(owner, attr) for owner, attr in places]
    assert all(a is b for a, b in zip(before, after))
    assert not probe.installed


def test_probe_self_times_sum_to_the_root_spans():
    workload = workloads.SsspDelta(1, 0.05)
    probe = Probe(TARGETS)
    with probe:
        workload.setup()
        workload.operation()
    spans = probe.spans()
    roots = [s for s in spans if s.parent < 0 and s.name == "engine.execute"]
    assert len(roots) == 2
    for root in roots:
        inside = [s for s in spans if s.statement == root.id]
        assert len(inside) > 50
        assert sum(s.self_time for s in inside) == \
            pytest.approx(root.duration, rel=1e-6)
        assert all(s.self_time >= -1e-9 for s in inside)
    names = {s.name for s in spans}
    assert {"sql.parse", "core.compile", "runtime.run", "execution.plan",
            "execution.join", "rewrite.delta_analysis"} <= names
    looped = [s for s in spans if s.name == "runtime.run"]
    assert [s.attr for s in looped] == [workload.ITERATIONS] * 2
