"""Trace diff: native vs baseline span trees (Fig. 1 / Fig. 11).

The paper's headline comparisons put the native iterative rewrite next
to a middleware driver (Fig. 1: one statement vs a storm of DDL/DML
round trips) and a stored-procedure loop (Fig. 11).  Both baselines
publish ``baseline``/``statement`` span trees plus per-loop telemetry
through :meth:`Database.publish_trace`; the native engine publishes
``query`` traces with ``step`` spans.  This module aligns the two shapes
so the writeups can quote a single diff instead of two raw span trees:

* wall clock and speedup,
* statement counts by category (the §II metadata/locking overhead),
* per-loop iteration counts and ``delta_rows`` convergence curves,
  checked for agreement (the baselines must converge identically —
  differing curves mean the baseline computes something else).

Works on the exported trace dict (``Trace.to_dict()`` /
``Database.trace_json()``), so it runs both in-process and over saved
JSON artifacts: ``python -m repro.obs.tracediff native.json
baseline.json`` (the ``repro-tracediff`` console script).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ReproError
from .export import validate_trace_dict

_STATEMENT_CATEGORIES = ("ddl", "dml", "probe")


@dataclass
class LoopDigest:
    """One loop's convergence behaviour, shape-independent."""

    cte: str
    kind: str
    strategy: Optional[str]
    iterations: int
    delta_rows: list[int]
    seconds: float


@dataclass
class TraceSummary:
    """One trace reduced to the quantities the diff compares."""

    label: str            # "native", "middleware", "procedure:<name>"
    family: str           # "native" | "middleware" | "procedure"
    seconds: float
    statements: dict[str, int] = field(default_factory=dict)
    step_spans: int = 0
    loops: list[LoopDigest] = field(default_factory=list)

    @property
    def statement_total(self) -> int:
        return sum(self.statements.values())


def _walk_spans(span: dict):
    yield span
    for child in span.get("children", ()):
        yield from _walk_spans(child)


def summarize_trace(data: dict) -> TraceSummary:
    """Classify and digest one exported trace dict."""
    validate_trace_dict(data)
    root = data["root"]
    anchor = next((span for span in _walk_spans(root)
                   if span["kind"] in ("query", "baseline")), None)
    if anchor is None:
        raise ReproError(
            "trace has neither a query span (native) nor a baseline "
            "span (middleware/procedure); nothing to diff")
    if anchor["kind"] == "query":
        label, family = "native", "native"
    elif anchor["name"].startswith("procedure"):
        label, family = anchor["name"], "procedure"
    else:
        label, family = anchor["name"], "middleware"

    statements: dict[str, int] = {}
    step_spans = 0
    for span in _walk_spans(anchor):
        if span["kind"] == "statement":
            category = span["attributes"].get("category", "other")
            statements[category] = statements.get(category, 0) + 1
        elif span["kind"] == "step":
            step_spans += 1

    loops = [
        LoopDigest(
            cte=loop["cte"],
            kind=loop["kind"],
            strategy=loop["strategy"],
            iterations=len(loop["iterations"]),
            delta_rows=[record["delta_rows"]
                        for record in loop["iterations"]],
            seconds=sum(record["seconds"]
                        for record in loop["iterations"]),
        )
        for loop in data["loops"]
    ]
    return TraceSummary(label=label, family=family,
                        seconds=anchor["seconds"],
                        statements=statements, step_spans=step_spans,
                        loops=loops)


@dataclass
class LoopComparison:
    """One loop aligned across the two traces (matched by CTE name)."""

    cte: str
    native: Optional[LoopDigest]
    baseline: Optional[LoopDigest]

    @property
    def iterations_match(self) -> bool:
        return (self.native is not None and self.baseline is not None
                and self.native.iterations == self.baseline.iterations)

    @property
    def convergence_match(self) -> bool:
        return (self.native is not None and self.baseline is not None
                and self.native.delta_rows == self.baseline.delta_rows)


@dataclass
class TraceDiff:
    """The full native-vs-baseline comparison."""

    native: TraceSummary
    baseline: TraceSummary
    loops: list[LoopComparison]

    @property
    def speedup(self) -> Optional[float]:
        if self.native.seconds <= 0:
            return None
        return self.baseline.seconds / self.native.seconds

    @property
    def agreement(self) -> bool:
        """Every aligned loop converged identically."""
        return all(c.iterations_match and c.convergence_match
                   for c in self.loops)


def diff_traces(native: dict, baseline: dict) -> TraceDiff:
    """Diff two exported trace dicts: one native, one baseline.

    Order-insensitive: the two arguments are classified by their span
    kinds and swapped if needed, so callers can pass traces in either
    order.
    """
    first, second = summarize_trace(native), summarize_trace(baseline)
    if first.family != "native" and second.family == "native":
        first, second = second, first
    if first.family != "native":
        raise ReproError("neither trace is a native engine trace")
    if second.family == "native":
        raise ReproError("both traces are native engine traces; one "
                         "must be a middleware/procedure baseline")

    by_cte = {loop.cte: loop for loop in second.loops}
    comparisons = [LoopComparison(loop.cte, loop, by_cte.pop(loop.cte,
                                                            None))
                   for loop in first.loops]
    comparisons.extend(LoopComparison(cte, None, loop)
                       for cte, loop in sorted(by_cte.items()))
    return TraceDiff(native=first, baseline=second, loops=comparisons)


def render_diff(diff: TraceDiff) -> str:
    """Human-readable diff for the Fig. 1 / Fig. 11 writeups."""
    native, baseline = diff.native, diff.baseline
    lines = [f"trace diff: native vs {baseline.label}"]
    speedup = diff.speedup
    ratio = f" ({speedup:.2f}x)" if speedup is not None else ""
    lines.append(f"  wall clock : native {native.seconds:.4f}s, "
                 f"{baseline.label} {baseline.seconds:.4f}s{ratio}")
    categories = ", ".join(
        f"{name}={baseline.statements[name]}"
        for name in _STATEMENT_CATEGORIES if name in baseline.statements)
    lines.append(f"  statements : {baseline.label} issued "
                 f"{baseline.statement_total} SQL statements"
                 f"{' (' + categories + ')' if categories else ''}; "
                 f"native ran 1 statement / {native.step_spans} steps")
    for comparison in diff.loops:
        n, b = comparison.native, comparison.baseline
        if n is None or b is None:
            present = "baseline" if n is None else "native"
            lines.append(f"  loop {comparison.cte} : only in the "
                         f"{present} trace")
            continue
        verdict = "match" if comparison.iterations_match else "MISMATCH"
        lines.append(f"  loop {comparison.cte} : native {n.iterations} "
                     f"iterations ({n.strategy or n.kind}), "
                     f"{baseline.family} {b.iterations} [{verdict}]")
        curve = ("identical" if comparison.convergence_match
                 else f"DIVERGE native={n.delta_rows} "
                      f"baseline={b.delta_rows}")
        lines.append(f"    convergence (delta_rows): {curve}")
    lines.append(f"  agreement  : "
                 f"{'ok' if diff.agreement else 'MISMATCH'}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-tracediff",
        description="Diff a native engine trace against a middleware/"
                    "procedure baseline trace (Fig. 1 / Fig. 11).")
    parser.add_argument("native", help="trace JSON file (either side)")
    parser.add_argument("baseline", help="trace JSON file (other side)")
    parser.add_argument("--require-agreement", action="store_true",
                        help="exit non-zero unless every loop matches "
                             "iterations and convergence")
    args = parser.parse_args(argv)

    with open(args.native) as handle:
        native = json.load(handle)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    diff = diff_traces(native, baseline)
    print(render_diff(diff))
    if args.require_agreement and not diff.agreement:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
