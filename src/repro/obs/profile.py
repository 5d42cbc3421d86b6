"""Profile aggregation over finished span trees (``repro-profile``).

A trace answers "what happened"; a profile answers "where did the time
go".  This module folds one trace (the :class:`~repro.obs.export.Trace`
JSON produced by ``Database.trace_json()``) into:

* **Stack aggregation** — inclusive/exclusive wall time per span stack
  (phase → step → kernel), with every ``iteration`` span of a
  loop folded into one frame so a 60-trip loop reads as one hot stack
  with ``count=60`` instead of 60 near-identical stacks.
* **Collapsed-stack export** — the ``a;b;c <weight>`` format flamegraph
  and speedscope both ingest (weights in microseconds of *exclusive*
  time, so the stacks sum to the root without double counting).
* **Loop rollups** — per-iteration cost statistics per loop, joined
  against the cost model's ``loop_estimate`` decision events so the
  report shows estimated vs measured iteration counts side by side.
* **Decision timeline** — the strategy selection / demotion / promotion
  decision events in document order, rendered as one line per decision
  (also embedded in EXPLAIN ANALYZE output).

Everything operates on the *dict* form of a trace (the JSON schema), so
the CLI can profile traces from other processes, other hosts, or old
runs without the engine in the loop.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .export import validate_trace_dict

# Zero-duration structured events: excluded from timing stacks (they
# carry no time), collected separately for the decision timeline.
_EVENT_KINDS = frozenset({"event", "decision", "strategy"})


@dataclass
class ProfileEntry:
    """Aggregated timing of one span stack."""

    stack: tuple[str, ...]
    inclusive: float = 0.0
    exclusive: float = 0.0
    count: int = 0

    @property
    def frame(self) -> str:
        return self.stack[-1] if self.stack else ""


@dataclass
class LoopRollup:
    """Per-iteration cost statistics of one loop, plus the estimate."""

    cte: str
    kind: str
    strategy: Optional[str]
    iterations: int
    total_seconds: float
    mean_seconds: float
    median_seconds: float
    max_seconds: float
    estimated_iterations: Optional[float] = None
    estimate_basis: Optional[str] = None
    estimated_cost_per_iteration: Optional[float] = None


@dataclass
class Profile:
    """One folded trace: stacks, loop rollups, decisions."""

    entries: dict[tuple[str, ...], ProfileEntry] = field(
        default_factory=dict)
    loops: list[LoopRollup] = field(default_factory=list)
    decisions: list[dict] = field(default_factory=list)
    total_seconds: float = 0.0
    sql: Optional[str] = None

    def top(self, n: int = 10) -> list[ProfileEntry]:
        """The ``n`` hottest stacks by exclusive time."""
        return sorted(self.entries.values(),
                      key=lambda e: e.exclusive, reverse=True)[:n]


def _frame(span: dict) -> str:
    """One stack frame per span.  Iterations fold into a single frame
    (the per-iteration detail lives in the loop rollups); step spans are
    keyed by program position so the same step aggregates across
    iterations while distinct steps of the same type stay distinct."""
    if span["kind"] == "iteration":
        return "iteration"
    if span["kind"] == "step":
        index = span["attributes"].get("index")
        if index is not None:
            return f"{span['name']}#{index}"
    return span["name"]


def _fold_spans(span: dict, stack: tuple[str, ...],
                entries: dict[tuple[str, ...], ProfileEntry]) -> None:
    frame_stack = stack + (_frame(span),)
    entry = entries.get(frame_stack)
    if entry is None:
        entry = entries[frame_stack] = ProfileEntry(frame_stack)
    seconds = float(span["seconds"])
    timed_children = [child for child in span["children"]
                      if child["kind"] not in _EVENT_KINDS]
    child_seconds = sum(float(child["seconds"])
                        for child in timed_children)
    entry.inclusive += seconds
    entry.exclusive += max(0.0, seconds - child_seconds)
    entry.count += 1
    for child in timed_children:
        _fold_spans(child, frame_stack, entries)


def collect_events(root: dict, kinds: Iterable[str]) -> list[dict]:
    """All event spans of the given kinds, in document (DFS) order."""
    wanted = frozenset(kinds)
    found: list[dict] = []

    def walk(span: dict) -> None:
        if span["kind"] in wanted:
            found.append(span)
        for child in span["children"]:
            walk(child)

    walk(root)
    return found


def decision_events(root: dict) -> list[dict]:
    """The strategy decisions of a span tree, in the order taken (the
    cost model's ``loop_estimate`` events feed the loop rollups
    instead)."""
    return [event for event in collect_events(root, ("decision",))
            if event["name"] != "loop_estimate"]


def _loop_rollups(trace: dict) -> list[LoopRollup]:
    estimates = {event["attributes"].get("cte"): event["attributes"]
                 for event in collect_events(trace["root"], ("decision",))
                 if event["name"] == "loop_estimate"}
    rollups = []
    for loop in trace["loops"]:
        seconds = [record["seconds"] for record in loop["iterations"]]
        if not seconds:
            continue
        estimate = estimates.get(loop["cte"]) or {}
        rollups.append(LoopRollup(
            cte=loop["cte"],
            kind=loop["kind"],
            strategy=loop["strategy"],
            iterations=len(seconds),
            total_seconds=sum(seconds),
            mean_seconds=statistics.fmean(seconds),
            median_seconds=statistics.median(seconds),
            max_seconds=max(seconds),
            estimated_iterations=estimate.get("estimated_iterations"),
            estimate_basis=estimate.get("basis"),
            estimated_cost_per_iteration=estimate.get(
                "estimated_cost_per_iteration"),
        ))
    return rollups


def aggregate_profile(trace: dict) -> Profile:
    """Fold one trace dict into a :class:`Profile`."""
    profile = Profile(sql=trace.get("sql"))
    root = trace["root"]
    profile.total_seconds = float(root["seconds"])
    _fold_spans(root, (), profile.entries)
    profile.loops = _loop_rollups(trace)
    profile.decisions = decision_events(root)
    return profile


def collapsed_stacks(trace: dict) -> list[str]:
    """The profile in collapsed-stack format: one ``a;b;c weight`` line
    per stack, weight = exclusive microseconds (flamegraph.pl and
    speedscope both read this directly)."""
    profile = aggregate_profile(trace)
    lines = []
    for entry in sorted(profile.entries.values(),
                        key=lambda e: e.stack):
        weight = int(round(entry.exclusive * 1e6))
        if weight <= 0:
            continue
        lines.append(f"{';'.join(entry.stack)} {weight}")
    return lines


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_decision_timeline(decisions: list[dict]) -> list[str]:
    """One line per strategy decision (see :func:`decision_events`), in
    the order they were taken — the same lines in ``repro-profile`` and
    in EXPLAIN ANALYZE."""
    if not decisions:
        return []
    lines = ["decision timeline:"]
    for event in decisions:
        attrs = event["attributes"]
        if event["name"] == "strategy_selection":
            lines.append(f"  loop {attrs['cte']}: selected "
                         f"{attrs['strategy']} — {attrs['reason']}")
            continue
        verb = ("demoted" if event["name"] == "strategy_demotion"
                else "promoted")
        lines.append(
            f"  loop {attrs['cte']}: {verb} {attrs['from_strategy']} -> "
            f"{attrs['to_strategy']} after iteration {attrs['iteration']} "
            f"(frontier {attrs['frontier']}/{attrs['total']} rows vs "
            f"budget {attrs['budget_frontier']})")
    return lines


def _render_loop(rollup: LoopRollup) -> list[str]:
    strategy = f", strategy {rollup.strategy}" if rollup.strategy else ""
    lines = [f"loop {rollup.cte} ({rollup.kind}{strategy}): "
             f"{rollup.iterations} iterations, "
             f"{rollup.total_seconds * 1000:.2f}ms total"]
    lines.append(
        f"  per-iteration: mean {rollup.mean_seconds * 1000:.2f}ms, "
        f"median {rollup.median_seconds * 1000:.2f}ms, "
        f"max {rollup.max_seconds * 1000:.2f}ms")
    if rollup.estimated_iterations is not None:
        error = ((rollup.estimated_iterations - rollup.iterations)
                 / max(rollup.iterations, 1))
        line = (f"  estimated {rollup.estimated_iterations:.0f} "
                f"iterations ({rollup.estimate_basis}) vs measured "
                f"{rollup.iterations} ({error:+.0%})")
        if rollup.estimated_cost_per_iteration is not None:
            cost = rollup.estimated_cost_per_iteration
            line += (f"; estimated {cost:.0f} cost-rows/iteration vs "
                     f"measured {rollup.median_seconds * 1000:.2f}ms"
                     f"/iteration")
        lines.append(line)
    return lines


def render_profile(trace: dict, top: int = 10) -> str:
    """The ``repro-profile`` text report for one trace dict."""
    profile = aggregate_profile(trace)
    lines = []
    if profile.sql:
        first = profile.sql.strip().splitlines()[0]
        lines.append(f"sql: {first}")
    lines.append(f"total: {profile.total_seconds * 1000:.2f}ms "
                 f"across {len(profile.entries)} distinct stacks")
    entries = [entry for entry in profile.top(top) if entry.inclusive > 0]
    if entries:
        lines.append(f"top {len(entries)} hot frames (by exclusive "
                     f"time):")
        width = max(len(entry.frame) for entry in entries)
        for entry in entries:
            share = (entry.exclusive / profile.total_seconds
                     if profile.total_seconds else 0.0)
            lines.append(
                f"  {entry.frame:<{width}}  "
                f"excl {entry.exclusive * 1000:>9.2f}ms ({share:>5.1%})"
                f"  incl {entry.inclusive * 1000:>9.2f}ms"
                f"  x{entry.count}"
                f"  {' > '.join(entry.stack[1:-1]) or '-'}")
    for rollup in profile.loops:
        lines.extend(_render_loop(rollup))
    lines.extend(render_decision_timeline(profile.decisions))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _load_trace(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description="Aggregate a trace JSON (Database.trace_json()) "
                    "into a hot-stack profile, loop cost rollups, and "
                    "the runtime decision timeline.")
    parser.add_argument("trace",
                        help="path to a trace JSON file, or - for stdin")
    parser.add_argument("--top", type=int, default=10,
                        help="number of hot frames to show (default 10)")
    parser.add_argument("--collapsed", metavar="FILE",
                        help="also write collapsed-stack output "
                             "(flamegraph/speedscope format) to FILE, "
                             "or - for stdout")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip trace schema validation")
    args = parser.parse_args(argv)

    try:
        trace = _load_trace(args.trace)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro-profile: cannot read {args.trace}: {exc}",
              file=sys.stderr)
        return 2
    if not args.no_validate:
        try:
            validate_trace_dict(trace)
        except ValueError as exc:
            print(f"repro-profile: {exc}", file=sys.stderr)
            return 2

    if args.collapsed is not None:
        folded = "\n".join(collapsed_stacks(trace))
        if args.collapsed == "-":
            print(folded)
        else:
            with open(args.collapsed, "w", encoding="utf-8") as handle:
                handle.write(folded + "\n")
    if args.collapsed != "-":
        print(render_profile(trace, top=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
