"""Compare two checkouts on one e2e workload by alternating seeded pairs.

Usage::

    python3 benchmarks/pairs.py --parent DIR --change DIR --workload W \\
        --pairs 10 [--first-seed N] [--seconds 24]

Pair ``i`` runs ``benchmarks/e2e/run.py --trace 0`` with seed
``first_seed + i`` in each checkout (its working directory), the parent
first on even pairs and the change first on odd ones.  A run that exits
non-zero, reports ``correct: false`` or has failed operations stops the
command with exit status 1.

For every end-to-end metric ``BENCHMARK.json`` declares, it prints each
side's median, Q1 and Q3 and the pairs the change won (direction from
``better``; a tie counts for neither side), then the verdict by the
ROADMAP's rule: a gain needs wins in at least nine tenths of the pairs
and a median gap, in the better direction, larger than the distance
between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class RunFailed(Exception):
    """A benchmark run that exited non-zero, was incorrect or had failed
    operations."""


class Verdict(NamedTuple):
    """One metric over all pairs.  ``gap`` is the parent's median minus
    the change's, signed so that positive means the change is better;
    ``spread`` is the parent's Q3 - Q1."""

    wins: int
    pairs: int
    gap: float
    spread: float

    @property
    def gain(self) -> bool:
        return 10 * self.wins >= 9 * self.pairs and self.gap > self.spread


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3), the quartiles as ``run.py --repeat`` takes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent: list[float], change: list[float],
            better: str) -> Verdict:
    """Judge paired runs (``parent[i]`` and ``change[i]`` share a seed)
    of a metric where ``better`` is ``"lower"`` or ``"higher"``."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("verdict needs two or more complete pairs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    mid, q1, q3 = quartiles(parent)
    gap = sign * (mid - statistics.median(change))
    return Verdict(wins, len(parent), gap, q3 - q1)


def run_side(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict[str, float]:
    """One untraced benchmark run in ``checkout``; its metrics by name.
    The run gets its own process group, killed afterwards, so no worker
    it started outlives it."""
    child = subprocess.Popen(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, start_new_session=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = child.communicate(timeout=4 * seconds + 180)
    except subprocess.TimeoutExpired:
        child.kill()
        stdout, stderr = child.communicate()
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if child.returncode != 0 or result is None or not result["correct"] \
            or result["failed"]:
        raise RunFailed(f"{checkout} seed {seed} exited "
                        f"{child.returncode}:\n{stdout}\n{stderr}")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(),
             "change": args.change.resolve()}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change",
                                                             "parent"]
        for side in order:
            try:
                runs[side].append(run_side(sides[side], args.workload,
                                           seed, args.seconds))
            except RunFailed as failure:
                print(f"FAILED  {failure}", file=sys.stderr)
                return 1
        print(f"pair {pair + 1}  seed {seed}  {order[0]} first  " + "  ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.4f} -> "
            f"{runs['change'][-1][m['name']]:.4f}" for m in metrics),
            flush=True)

    print(f"\n## {args.workload}: {args.pairs} pairs, seeds "
          f"{args.first_seed}..{args.first_seed + args.pairs - 1}, "
          f"{args.seconds:g} s runs\n")
    print("| metric | parent median | Q1 | Q3 | change median | Q1 | Q3 "
          "| change wins | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for metric in metrics:
        name = metric["name"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        result = verdict(parent, change, metric["better"])
        cells = [f"{value:.4f}" for side in (parent, change)
                 for value in quartiles(side)]
        print(f"| {name} ({metric['unit']}, {metric['better']} is better) | "
              + " | ".join(cells)
              + f" | {result.wins}/{result.pairs} | "
              + ("gain" if result.gain else "no gain")
              + f": gap {result.gap:.4f}, spread {result.spread:.4f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
