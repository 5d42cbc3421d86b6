"""Entry-point health: every advertised console script resolves, the CI
workflow and the top-level docs only name paths that exist, and the CI
racecheck job — the only place the dynamic lockset detector runs —
stays in place.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CI = REPO / ".github" / "workflows" / "ci.yml"


def test_ci_runs_the_racecheck_job():
    """The dynamic detector only exists in CI through this job; a
    deleted or renamed job silently turns the lockset prong off."""
    ci = CI.read_text()
    assert "racecheck:" in ci
    assert 'REPRO_RACECHECK: "1"' in ci
    assert "repro-racecheck --replay RACECHECK_REPORT.json" in ci


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


def test_every_repo_path_named_in_ci_exists():
    referenced = set(re.findall(r"\b(?:src|tests|benchmarks|examples)/"
                                r"[\w./-]*\w", CI.read_text()))
    assert referenced
    for relative in sorted(referenced):
        assert (REPO / relative).exists(), \
            f"{relative} is named in ci.yml but missing"


def test_every_repo_path_named_in_the_docs_exists():
    """A deletion that leaves a stale backticked path in README.md,
    DESIGN.md or EXPERIMENTS.md fails here."""
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        referenced = set(re.findall(
            r"`((?:src|tests|benchmarks|examples)/[\w./-]*\w)(?:::[^`]*)?`",
            (REPO / doc).read_text()))
        assert referenced, f"{doc} names no repo paths"
        for relative in sorted(referenced):
            assert (REPO / relative).exists(), \
                f"{relative} is named in {doc} but missing"
