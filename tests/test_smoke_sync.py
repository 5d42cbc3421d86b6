"""Guard-list health: ``repro.harness.smoke._MARKERS`` is the only
declaration of the tier-1 smoke guards (conftest registers the pytest
markers from it, ``scripts/check_all_smoke.sh`` runs ``repro-smoke``);
these tests keep every guard selecting something, the CI racecheck job
in place, and every advertised entry point and CI-referenced script
present.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from repro.harness.smoke import _MARKERS, marker_expression

REPO = Path(__file__).resolve().parent.parent


def test_marker_expression_covers_all_guards():
    expression = marker_expression()
    for marker in _MARKERS.values():
        assert marker in expression
    assert marker_expression(only="perf") == "perf_smoke"


def test_racecheck_guard_script_exists_and_is_executable():
    script = REPO / "scripts" / "check_racecheck_smoke.sh"
    assert script.exists()
    assert script.stat().st_mode & 0o111, "guard script not executable"
    text = script.read_text()
    assert "repro.verify.concurrency.cli" in text
    assert "racecheck_smoke" in text


def test_ci_runs_the_racecheck_job():
    """The dynamic detector only exists in CI through this job; a
    deleted or renamed job silently turns the lockset prong off."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "racecheck:" in ci
    assert 'REPRO_RACECHECK: "1"' in ci
    assert "repro-racecheck --replay RACECHECK_REPORT.json" in ci
    assert "check_racecheck_smoke.sh" in ci


def test_every_guard_selects_at_least_one_test():
    """A marker that matches nothing is a guard that silently passes."""
    import pytest

    class Collector:
        def __init__(self):
            self.count = 0

        def pytest_collection_finish(self, session):
            self.count = len(session.items)

    for marker in _MARKERS.values():
        collector = Collector()
        code = pytest.main(
            ["-m", marker, "--collect-only", "-q", "--no-header", "-p",
             "no:cacheprovider", str(REPO / "tests")],
            plugins=[collector])
        assert code == 0, f"collection failed for marker {marker}"
        assert collector.count > 0, \
            f"marker {marker} selects no tests under tests/"


def _console_scripts() -> dict[str, str]:
    """``[project.scripts]`` of pyproject.toml, parsed with a regex
    (``tomllib`` is not available on every supported Python)."""
    text = (REPO / "pyproject.toml").read_text()
    block = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                      re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml has no [project.scripts] table"
    return dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]+)"', block.group(1),
                           re.MULTILINE))


def test_every_console_script_resolves_to_a_callable():
    scripts = _console_scripts()
    assert scripts
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        entry = importlib.import_module(module_name)
        for part in attr.split("."):
            entry = getattr(entry, part)
        assert callable(entry), f"{name} = {target!r} is not callable"


def test_every_referenced_shell_script_exists_and_is_executable():
    referenced = set()
    for source in (".github/workflows/ci.yml", "scripts/check_all_smoke.sh"):
        referenced.update(re.findall(r"scripts/[\w.-]+\.sh",
                                     (REPO / source).read_text()))
    assert referenced
    for relative in sorted(referenced):
        script = REPO / relative
        assert script.exists(), f"{relative} is referenced but missing"
        assert script.stat().st_mode & 0o111, \
            f"{relative} is not executable"
