"""Engine lint: clean on the real tree, non-vacuous on seeded trees.

The real-tree check runs the ``repro-lint`` CLI itself; the seeded-tree
tests prove
each rule family actually fires by building tiny synthetic package
trees with one violation each.
"""

import textwrap

from repro.verify.lint import Linter, main, run_lint


class TestRealTree:
    def test_cli_exit_zero(self, capsys):
        # Exit 0 means no findings; the CLI prints each one otherwise.
        code = main([])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "repro-lint: ok (" in out
        assert "4 rule families" in out


def _tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


# A minimal program.py/handlers pair, used as the clean baseline each
# seeded violation perturbs.
_CLEAN = {
    "plan/program.py": """
        class Step:
            pass

        class MoveStep(Step):
            pass
        """,
    "runtime/handlers/core.py": """
        @handles(MoveStep)
        def run_move(runner, step):
            runner.ctx.registry.rename(step.source, step.target)
        """,
}


def _rules(issues):
    return {issue.rule for issue in issues}


class TestSeededViolations:
    def test_clean_baseline(self, tmp_path):
        assert run_lint(_tree(tmp_path, _CLEAN)) == []

    def test_private_registry_access_detected(self, tmp_path):
        files = dict(_CLEAN)
        files["runtime/handlers/core.py"] = """
            @handles(MoveStep)
            def run_move(runner, step):
                runner.ctx.registry._tables.pop(step.source)
            """
        issues = run_lint(_tree(tmp_path, files))
        assert _rules(issues) == {"mutation-api"}
        assert any("registry._tables" in i.message for i in issues)

    def test_catalog_mutation_detected(self, tmp_path):
        files = dict(_CLEAN)
        files["runtime/handlers/core.py"] = """
            @handles(MoveStep)
            def run_move(runner, step):
                runner.ctx.catalog.register(step.target)
            """
        issues = run_lint(_tree(tmp_path, files))
        assert _rules(issues) == {"mutation-api"}

    def test_bare_tracer_construction_detected(self, tmp_path):
        files = dict(_CLEAN)
        files["execution/helper.py"] = """
            def run(plan):
                tracer = Tracer()
                return tracer
            """
        issues = run_lint(_tree(tmp_path, files))
        assert _rules(issues) == {"tracer-discipline"}

    def test_tracer_entry_points_may_build(self, tmp_path):
        files = dict(_CLEAN)
        files["engine/database.py"] = """
            def execute(sql, options):
                tracer = Tracer() if options.enable_tracing else NULL_TRACER
                return tracer
            """
        assert run_lint(_tree(tmp_path, files)) == []

    def test_unguarded_start_detected(self, tmp_path):
        files = dict(_CLEAN)
        files["execution/helper.py"] = """
            def run(tracer):
                span = tracer.start("phase")
                return span
            """
        issues = run_lint(_tree(tmp_path, files))
        assert _rules(issues) == {"tracer-discipline"}
        assert any("NULL_TRACER" in i.message for i in issues)

    def test_guarded_start_is_clean(self, tmp_path):
        files = dict(_CLEAN)
        files["execution/helper.py"] = """
            def run(tracer):
                span = None
                if tracer.enabled:
                    span = tracer.start("phase")
                return span
            """
        assert run_lint(_tree(tmp_path, files)) == []

    def test_engine_session_state_detected(self, tmp_path):
        files = dict(_CLEAN)
        files["engine/engine.py"] = """
            class Engine:
                def __init__(self):
                    self.catalog = object()
                    self.transactions = object()
            """
        issues = run_lint(_tree(tmp_path, files))
        assert _rules(issues) == {"engine-layering"}
        assert any("self.transactions" in i.message for i in issues)

    def test_engine_module_level_session_import_detected(self, tmp_path):
        files = dict(_CLEAN)
        files["engine/engine.py"] = """
            from .session import Session

            class Engine:
                def __init__(self):
                    self.catalog = object()
            """
        issues = run_lint(_tree(tmp_path, files))
        assert _rules(issues) == {"engine-layering"}
        assert any("session → engine" in i.message for i in issues)

    def test_engine_function_level_import_is_clean(self, tmp_path):
        files = dict(_CLEAN)
        files["engine/engine.py"] = """
            class Engine:
                def __init__(self):
                    self.catalog = object()

                def create_session(self):
                    from .session import Session
                    return Session(self)
            """
        assert run_lint(_tree(tmp_path, files)) == []

    def test_session_scoped_names_allowed_outside_engine(self, tmp_path):
        files = dict(_CLEAN)
        files["engine/session.py"] = """
            class Session:
                def __init__(self, engine):
                    self.transactions = object()
                    self.registry = object()
            """
        assert run_lint(_tree(tmp_path, files)) == []

    def test_numpy_unique_outside_kernels_detected(self, tmp_path):
        files = dict(_CLEAN)
        files["runtime/handlers/core.py"] = """
            import numpy as np
            from numpy import union1d

            def dedup(codes, other):
                first = np.unique(codes, return_index=True)[1]
                return first, union1d(codes, other), numpy.union1d
            """
        issues = run_lint(_tree(tmp_path, files))
        assert _rules(issues) == {"unique-kernel"}
        assert sorted(i.line for i in issues) == [3, 6, 7]
        assert any("np.unique" in i.message for i in issues)

    def test_unique_kernel_home_and_callers_are_clean(self, tmp_path):
        files = dict(_CLEAN)
        files["execution/kernels.py"] = """
            import numpy as np

            def unique_sorted(values):
                return np.unique(values, return_inverse=True)[0]
            """
        files["execution/aggregate.py"] = """
            from .kernels import unique_sorted

            def count_distinct(values):
                return len(unique_sorted(values))
            """
        assert run_lint(_tree(tmp_path, files)) == []

    def test_syntax_error_reported_not_crashed(self, tmp_path):
        files = dict(_CLEAN)
        files["broken.py"] = "def nope(:\n"
        issues = run_lint(_tree(tmp_path, files))
        assert _rules(issues) == {"parse"}

    def test_cli_exit_nonzero_on_findings(self, tmp_path, capsys):
        files = dict(_CLEAN)
        files["execution/helper.py"] = """
            def run(plan):
                return Tracer()
            """
        root = _tree(tmp_path, files)
        assert main(["--root", str(root)]) == 1
        assert "tracer-discipline" in capsys.readouterr().out
