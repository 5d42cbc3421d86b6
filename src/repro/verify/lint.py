"""Engine lint: AST-based repo-specific rules (the ``repro-lint`` CLI).

Three rule families, each encoding a convention a refactor established
but nothing else enforces (each was kept because a mutant of its bug
class passes the test suite and only this lint flags it):

* **mutation-api** — handler modules touch ``ctx.registry`` only through
  the documented mutation API (store/fetch/exists/rename/drop) and the
  catalog only through read accessors (get/peek/exists); private
  attribute access on either would bypass the accounting (renames,
  bytes released, metadata lookups) the overhead model reads.
* **tracer-discipline** — span trees are built only through
  :mod:`repro.obs`: no ``Tracer()``/``Span()`` construction outside the
  known entry points, and every ``tracer.start(...)`` call sits under an
  ``enabled``/``is not None`` guard so the untraced hot path never pays
  for span objects (``NULL_TRACER`` short-circuits ``span()`` but a bare
  unguarded ``start`` defeats the null-object pattern).
* **engine-layering** — the Engine/Session split (PR 9) flows strictly
  downward: the shared :class:`~repro.engine.engine.Engine` must not
  store session-scoped state (a registry, transaction manager, tracer,
  pinned snapshot, ...) on itself, nor import the session module at
  module level.  Session state reachable from the engine would be
  silently shared across connections — exactly the aliasing bug class
  the split exists to make impossible.

Run as ``repro-lint`` (see ``[project.scripts]``) or
``python -m repro.verify.lint``; exits non-zero on any finding.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

_PACKAGE_ROOT = Path(__file__).resolve().parents[1]  # src/repro

# Modules allowed to construct Tracer objects: the obs subsystem itself
# plus the statement entry points that decide whether a run is traced —
# including the worker-process entry point, where a ContextTracer is the
# only way spans can exist at all.
_TRACER_BUILDERS = (
    "obs/",
    "engine/database.py",
    "engine/session.py",
    "middleware/driver.py",
    "procedures/runner.py",
    "mpp/workers.py",
    "server/",
)

# Attribute names that are session-scoped by design: finding the Engine
# storing one of these on itself means per-connection state has leaked
# into the shared layer.
_SESSION_SCOPED_ATTRS = frozenset({
    "session",
    "sessions",
    "registry",
    "transactions",
    "tracer",
    "last_trace",
    "_last_trace",
    "_trace_loops",
    "last_snapshot",
    "snapshot",
})

_REGISTRY_API = frozenset({"store", "fetch", "exists", "rename", "drop"})
_CATALOG_API = frozenset({"get", "peek", "exists"})


@dataclass
class LintIssue:
    """One finding: a file/line plus the rule that fired."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _relative(path: Path, root: Path) -> str:
    try:
        return str(path.relative_to(root))
    except ValueError:
        return str(path)


def _parse_tree(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text(), filename=str(path))
    except SyntaxError:
        return None


def _parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


class Linter:
    """Runs every rule over one source tree (``src/repro`` by default)."""

    def __init__(self, root: Optional[Path] = None):
        self.root = root or _PACKAGE_ROOT
        self.issues: list[LintIssue] = []
        self._trees: dict[Path, ast.Module] = {}
        for path in sorted(self.root.rglob("*.py")):
            tree = _parse_tree(path)
            if tree is None:
                self._note(path, 1, "parse", "file does not parse")
            else:
                self._trees[path] = tree

    def _note(self, path: Path, line: int, rule: str,
              message: str) -> None:
        self.issues.append(
            LintIssue(_relative(path, self.root), line, rule, message))

    def _rel(self, path: Path) -> str:
        return _relative(path, self.root).replace("\\", "/")

    # -- rule 1: handler mutation API --------------------------------------

    def check_mutation_api(self) -> None:
        for path, module in self._trees.items():
            if "runtime/handlers" not in self._rel(path):
                continue
            for node in ast.walk(module):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = node.value
                if not isinstance(owner, (ast.Attribute, ast.Name)):
                    continue
                owner_name = owner.attr if isinstance(
                    owner, ast.Attribute) else owner.id
                if owner_name == "registry" and (
                        node.attr.startswith("_")
                        or node.attr not in _REGISTRY_API):
                    self._note(path, node.lineno, "mutation-api",
                               f"registry.{node.attr} is outside the "
                               "documented mutation API "
                               f"({'/'.join(sorted(_REGISTRY_API))})")
                elif owner_name == "catalog" and (
                        node.attr.startswith("_")
                        or node.attr not in _CATALOG_API):
                    self._note(path, node.lineno, "mutation-api",
                               f"catalog.{node.attr} is outside the "
                               "read-only accessors handlers may use "
                               f"({'/'.join(sorted(_CATALOG_API))})")

    # -- rule 2: tracer discipline -----------------------------------------

    def _in_obs(self, path: Path) -> bool:
        return self._rel(path).startswith("obs/")

    def check_tracer_discipline(self) -> None:
        for path, module in self._trees.items():
            if self._in_obs(path):
                continue
            rel = self._rel(path)
            may_build = any(rel.startswith(prefix) or rel == prefix
                            for prefix in _TRACER_BUILDERS)
            parents = None
            for node in ast.walk(module):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) \
                        and func.id in ("Tracer", "Span") \
                        and not may_build:
                    self._note(path, node.lineno, "tracer-discipline",
                               f"bare {func.id}() construction outside "
                               "the traced entry points; pass a tracer "
                               "down or use NULL_TRACER")
                if isinstance(func, ast.Attribute) \
                        and func.attr == "start" \
                        and self._is_tracer_receiver(func.value):
                    if parents is None:
                        parents = _parents(module)
                    if not self._guarded(node, parents):
                        self._note(path, node.lineno, "tracer-discipline",
                                   "tracer.start() without an "
                                   "enabled/is-not-None guard bypasses "
                                   "the NULL_TRACER fast path")

    @staticmethod
    def _is_tracer_receiver(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return "tracer" in node.id.lower()
        if isinstance(node, ast.Attribute):
            return "tracer" in node.attr.lower()
        return False

    @staticmethod
    def _guarded(node: ast.AST,
                 parents: dict[ast.AST, ast.AST]) -> bool:
        cursor = parents.get(node)
        while cursor is not None:
            if isinstance(cursor, (ast.If, ast.IfExp)):
                dump = ast.dump(cursor.test)
                if "attr='enabled'" in dump or "IsNot()" in dump:
                    return True
            cursor = parents.get(cursor)
        return False

    # -- rule 3: engine layering -------------------------------------------

    def check_engine_layering(self) -> None:
        """The shared Engine must not hold (or structurally depend on)
        session-scoped state — see the module docstring."""
        for path, module in self._trees.items():
            if self._rel(path) != "engine/engine.py":
                continue
            for node in module.body:
                if isinstance(node, ast.ImportFrom) and (
                        (node.module or "").split(".")[-1] == "session"):
                    self._note(path, node.lineno, "engine-layering",
                               "module-level import of the session "
                               "module from the engine: the dependency "
                               "must flow session → engine only (use a "
                               "function-level import)")
            for node in ast.walk(module):
                if not isinstance(node, ast.ClassDef) \
                        or node.name != "Engine":
                    continue
                for inner in ast.walk(node):
                    if not isinstance(inner, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = inner.targets if isinstance(
                        inner, ast.Assign) else [inner.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self" \
                                and target.attr in _SESSION_SCOPED_ATTRS:
                            self._note(
                                path, inner.lineno, "engine-layering",
                                f"Engine stores session-scoped state "
                                f"self.{target.attr}; per-connection "
                                "state belongs on Session, never on "
                                "the shared Engine")

    # -- entry point -------------------------------------------------------

    def run(self) -> list[LintIssue]:
        self.check_mutation_api()
        self.check_tracer_discipline()
        self.check_engine_layering()
        return self.issues

    @property
    def file_count(self) -> int:
        return len(self._trees)


def run_lint(root: Optional[Path] = None) -> list[LintIssue]:
    """All lint findings over ``root`` (default: the installed package)."""
    return Linter(root).run()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based engine lint (mutation API, tracer "
                    "discipline, engine layering).")
    parser.add_argument("--root", type=Path, default=None,
                        help="package root to lint (default: the "
                             "installed repro package)")
    args = parser.parse_args(argv)

    linter = Linter(args.root)
    issues = linter.run()
    for issue in issues:
        print(issue.render())
    if issues:
        print(f"repro-lint: {len(issues)} issue(s) in "
              f"{linter.file_count} files")
        return 1
    print(f"repro-lint: ok ({linter.file_count} files, 3 rule families)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
