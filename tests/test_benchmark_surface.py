"""The benchmark's entry points are a tier-1 contract.

``benchmarks/e2e`` may not change with the code it measures, and its
traced mode patches every entry point ``layers.py`` names.  The
benchmark's own smoke test is outside tier-1, so a deletion that breaks
``--trace 1`` would otherwise surface only in the benchmark run; this
resolves the same targets the probe does, in tier-1.  Reads
``benchmarks/e2e``, changes nothing there.

Session options exist as experiment arms: every one is set by some
benchmark or example, so an option nothing measures cannot linger.
Likewise every execution counter is incremented somewhere in ``src/``,
so a counter nothing writes cannot outlive the code that fed it.
"""

from __future__ import annotations

import importlib
import re
import sys
from dataclasses import fields
from pathlib import Path

from repro.execution import ExecutionStats, SessionOptions

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
E2E = REPO / "benchmarks" / "e2e"

# Options no experiment arm sets, each with the reason it stays.
UNMEASURED_OPTIONS = {
    "enable_tracing": "the user's switch behind Database.last_trace()",
    "max_iterations": "the runaway-loop cap; IterationLimitError tells "
                      "the user to raise it",
}


def _targets():
    # layers.py imports its sibling probe.py by bare name, as run.py
    # arranges; keep both off sys.path / sys.modules afterwards.
    sys.path.insert(0, str(E2E))
    try:
        return list(importlib.import_module("layers").TARGETS)
    finally:
        sys.path.remove(str(E2E))
        sys.modules.pop("layers", None)
        sys.modules.pop("probe", None)


def _resolve(target):
    owner = importlib.import_module(target.module)
    *path, leaf = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # Methods are looked up the way the probe patches them: on the
    # class that defines them, not through inheritance.
    return owner.__dict__[leaf] if path else getattr(owner, leaf)


def test_every_probe_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    broken = []
    for target in targets:
        try:
            resolved = callable(_resolve(target))
        except (ImportError, AttributeError, KeyError):
            resolved = False
        if not resolved:
            broken.append(f"{target.module}:{target.qualname}")
    assert not broken, f"benchmarks/e2e/layers.py targets gone: {broken}"


def test_benchmark_option_set_constructs():
    options = SessionOptions(enable_plan_verifier=True,
                             enable_delta_iteration=True)
    assert options.enable_plan_verifier and options.enable_delta_iteration


def test_every_option_is_an_experiment_arm():
    sources = [path.read_text()
               for directory in ("benchmarks", "examples")
               for path in sorted((REPO / directory).rglob("*.py"))]
    unset = []
    for option in fields(SessionOptions):
        setter = re.compile(rf"""["']{option.name}["']|"""
                            rf"""\b{option.name}\s*=(?!=)""")
        if not any(setter.search(text) for text in sources):
            unset.append(option.name)
    assert sorted(unset) == sorted(UNMEASURED_OPTIONS), \
        f"options no benchmark or example sets: {unset}"


def test_every_counter_is_written():
    sources = [path.read_text() for path in sorted(SRC.rglob("*.py"))]
    unwritten = []
    for counter in fields(ExecutionStats):
        writer = re.compile(rf"""\.{counter.name}\s*\+=|"""
                            rf"""_count\(["']{counter.name}["']\)""")
        if not any(writer.search(text) for text in sources):
            unwritten.append(counter.name)
    assert unwritten == [], f"counters nothing increments: {unwritten}"
