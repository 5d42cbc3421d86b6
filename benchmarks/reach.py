"""Which functions of ``src/repro`` do the workloads, figures and examples
reach?  (The reach table of the ROADMAP's prune items.)

Runs every target in its own child process under a ``sys.setprofile``
hook (and ``threading.setprofile``, so server and sender threads count),
collects the code objects entered, and prints, per package of
``src/repro``, the unreached and total function lines plus every
function no target entered.  The targets are:

* the four ``benchmarks/e2e/run.py`` workloads at ``--scale 0.05``, with
  ``sssp_delta`` run traced (``--trace 1``);
* every arm of ``benchmarks/figures.py`` at ``--scale 0.05`` (the
  fixed-size engine ablations run at full size);
* every ``examples/*.py``.

Each target runs with a fresh temporary directory as its working
directory; nothing in the checkout is written except what ``run.py
--trace 1`` puts under the ignored ``benchmarks/e2e/out/``.

Limits: forked pool workers (``repro.mpp.workers``) inherit the hook
but never report back, so code that runs only inside a worker counts as
unreached; a function is keyed by its first line, so one that is only
ever entered through a ``functools.wraps`` shim still counts.  Lines
are those of the outermost enclosing function (methods included, nested
closures folded into their parent); function counts include nested
ones.

Each child runs in its own process group, which is killed once the
child has exited or timed out, so no target leaves a process behind.

    python3 benchmarks/reach.py                # everything (~10 min)
    python3 benchmarks/reach.py --only figures # just the figures
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import signal
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TIMEOUT_S = 1800


def targets(seconds: float) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every target."""
    runs = []
    for workload in ("pr_full", "sssp_delta", "serve_mixed", "mpp_pr"):
        traced = "1" if workload == "sssp_delta" else "0"
        runs.append((f"run.py {workload}",
                     [str(ROOT / "benchmarks" / "e2e" / "run.py"),
                      "--workload", workload, "--seed", "1",
                      "--seconds", str(seconds), "--scale", "0.05",
                      "--trace", traced]))
    runs.append(("figures.py", [str(ROOT / "benchmarks" / "figures.py"),
                                "--scale", "0.05"]))
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"examples/{example.name}", [str(example)]))
    return runs


# ---------------------------------------------------------------------------
# Child side: run one script under the hook, dump what it entered
# ---------------------------------------------------------------------------


def run_child(out: str, argv: list[str]) -> int:
    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.argv = list(argv)
    sys.path.insert(0, str(Path(argv[0]).parent))
    threading.setprofile(hook)
    sys.setprofile(hook)
    status = 0
    try:
        runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) \
            else int(exc.code is not None)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = str(PACKAGE)
        reached = sorted({(code.co_filename, code.co_firstlineno)
                          for code in seen
                          if code.co_filename.startswith(prefix)})
        Path(out).write_text(json.dumps(reached))
    return status


# ---------------------------------------------------------------------------
# Parent side: the function inventory and the table
# ---------------------------------------------------------------------------


def inventory() -> list[dict]:
    """Every ``def`` under ``src/repro``: file, first line (its first
    decorator's, as in ``co_firstlineno``), span, and whether it is the
    outermost function of its lines."""
    functions = []

    def visit(node, path: Path, scope: str, outer: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                name = f"{scope}{child.name}"
                functions.append({
                    "file": str(path), "first": first, "name": name,
                    "lines": child.end_lineno - first + 1,
                    "outer": outer})
                visit(child, path, f"{name}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{scope}{child.name}.", outer)
            else:
                visit(child, path, scope, outer)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "", True)
    return functions


def package_of(path: str) -> str:
    relative = Path(path).relative_to(PACKAGE)
    return f"{relative.parts[0]}/" if len(relative.parts) > 1 \
        else relative.name


def run_targets(selected, workdir: Path) -> set[tuple[str, int]]:
    reached: set[tuple[str, int]] = set()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for index, (label, argv) in enumerate(selected):
        out = workdir / f"reached-{index}.json"
        cwd = workdir / f"cwd-{index}"
        cwd.mkdir()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             str(out), *argv],
            cwd=cwd, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = child.communicate(timeout=TIMEOUT_S)
            status = str(child.returncode)
        except subprocess.TimeoutExpired:
            child.kill()
            _, stderr = child.communicate()
            status = "timeout"
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        found = json.loads(out.read_text()) if out.exists() else []
        reached.update(map(tuple, found))
        print(f"  {label:<40} exit {status:>7}  "
              f"{len(found):>5} functions", file=sys.stderr, flush=True)
        if status != "0":
            print("\n".join(stderr.strip().splitlines()[-5:]),
                  file=sys.stderr)
    return reached


def report(functions: list[dict], reached: set[tuple[str, int]]) -> None:
    total = defaultdict(lambda: [0, 0, 0, 0])  # lines, unreached, fns, hit
    for fn in functions:
        hit = (fn["file"], fn["first"]) in reached
        fn["hit"] = hit
        row = total[package_of(fn["file"])]
        row[2] += 1
        row[3] += hit
        if fn["outer"]:
            row[0] += fn["lines"]
            row[1] += 0 if hit else fn["lines"]
    print("| package | unreached / total function lines "
          "| functions reached |")
    print("|---|---|---|")
    for package in sorted(total):
        lines, unreached, count, hits = total[package]
        print(f"| `{package}` | {unreached} / {lines} | {hits} / {count} |")
    sums = [sum(row[i] for row in total.values()) for i in range(4)]
    print(f"| total | {sums[1]} / {sums[0]} | {sums[3]} / {sums[2]} |")
    print("\nunreached outermost functions:")
    for fn in functions:
        if fn["outer"] and not fn["hit"]:
            relative = Path(fn["file"]).relative_to(SRC)
            print(f"  {relative}:{fn['first']}  {fn['name']}  "
                  f"({fn['lines']} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="run only targets whose label "
                        "contains this text")
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="--seconds of each run.py workload")
    args = parser.parse_args(argv)
    selected = [t for t in targets(args.seconds)
                if args.only is None or args.only in t[0]]
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        reached = run_targets(selected, Path(workdir))
    report(inventory(), reached)
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        sys.exit(run_child(sys.argv[2], sys.argv[3:]))
    sys.exit(main())
