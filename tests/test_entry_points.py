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


DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def test_every_repo_path_named_in_the_docs_exists():
    """A deletion that leaves a stale backticked path in README.md,
    DESIGN.md or EXPERIMENTS.md fails here."""
    for doc in DOCS:
        referenced = set(re.findall(
            r"`((?:src|tests|benchmarks|examples)/[\w./-]*\w)(?:::[^`]*)?`",
            (REPO / doc).read_text()))
        assert referenced, f"{doc} names no repo paths"
        for relative in sorted(referenced):
            assert (REPO / relative).exists(), \
                f"{relative} is named in {doc} but missing"


def test_every_file_and_module_named_in_the_docs_exists():
    """Unquoted file paths (``python examples/x.py`` in a code block)
    and bare ``bench_*.py`` / ``test_*.py`` module names count too."""
    modules = {path.name for folder in ("benchmarks", "tests")
               for path in (REPO / folder).rglob("*.py")}
    for doc in DOCS:
        text = (REPO / doc).read_text()
        for relative in set(re.findall(
                r"(?<![\w./-])((?:src|tests|benchmarks|examples)/"
                r"[\w./-]*\.(?:py|json|md|txt))", text)):
            assert (REPO / relative).exists(), \
                f"{relative} is named in {doc} but missing"
        for name in set(re.findall(r"(?<![\w./-])((?:bench|test)_\w+\.py)",
                                   text)):
            assert name in modules, f"{name} is named in {doc} but missing"


def _resolve_dotted(dotted: str):
    """The object a dotted ``repro.…`` name denotes: the longest
    importable module prefix, then an attribute chain for the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(name)
        except ModuleNotFoundError as err:
            # Only a missing prefix of ``name`` itself means "not a
            # module"; any other missing module is a real import error.
            if not f"{name}.".startswith(f"{err.name}."):
                raise
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(dotted)


def test_every_dotted_name_in_the_docs_resolves():
    """A backticked ``repro.x.y[.Attr]`` in README.md, DESIGN.md or
    EXPERIMENTS.md must name a module plus an attribute chain, so a
    rename or deletion that leaves the docs behind fails here."""
    for doc in DOCS:
        names = set(re.findall(r"`(repro(?:\.\w+)+)",
                               (REPO / doc).read_text()))
        for dotted in sorted(names):
            try:
                _resolve_dotted(dotted)
            except (ImportError, AttributeError):
                raise AssertionError(
                    f"{dotted} is named in {doc} but does not resolve"
                ) from None
