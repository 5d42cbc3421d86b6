#!/usr/bin/env python3
"""One command for the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload, checks its outputs, prints every metric by name with
its unit and ends with the result line ``BENCHMARK.json``'s contract
asks for.  ``--repeat N`` instead runs the benchmark N times per
workload (seeds 1..N, fresh processes) and prints the statistic the
driver gates on.  README.md explains the method; in short:

* the window is cut into ``SLOTS`` slots; a slot runs whole operations
  until its time is up, and the host thermometer (hostspeed.py) is read
  before the first and after every slot while the workload is idle;
* a slot's figure is the mean over its operations divided by the mean
  of its two bracketing readings; a run reports the median slot;
* CPU time is this process (all threads) plus live child processes;
* ``--trace 1`` installs the probe (probe.py) around the entry points
  in layers.py for six of the eight slots and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import layermetrics as lm
from layers import TARGETS
from probe import Probe

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 24       # BENCHMARK.json's run_seconds
SLOTS = 8
SETUPS = 3
CONTROL_EVERY = 4      # in a traced run, slots 0 and 4 run untraced
TICKS = os.sysconf("SC_CLK_TCK")


def find_src() -> Path:
    """``src/`` of the checkout: under the working directory (how the
    driver runs us) or two levels above this file."""
    for base in (Path.cwd(), HERE.parents[1]):
        if (base / "src" / "repro" / "__init__.py").is_file():
            return base / "src"
    sys.exit("benchmarks/e2e/run.py: no src/repro here — run from the root "
             "of a checkout that holds the engine's source")


# ---------------------------------------------------------------------------
# Clocks outside the engine
# ---------------------------------------------------------------------------


def _proc_cpu(pid: int) -> float:
    """utime + stime of one process, seconds (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / TICKS


def child_cpu() -> dict[int, float]:
    return {child.pid: _proc_cpu(child.pid)
            for child in multiprocessing.active_children()}


def _peak_rss_kib(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    pids = ["self"] + [c.pid for c in multiprocessing.active_children()]
    return sum(_peak_rss_kib(pid) for pid in pids) / 1024.0


def host_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            values = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (values[7] if len(values) > 7 else 0), sum(values[:8])


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Slot:
    start: float
    end: float
    traced: bool
    latencies: list[float]
    coord_cpu: float
    children_cpu: list[float]
    factor: hostspeed.Reading

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def op_ms(self) -> float:
        return statistics.fmean(self.latencies) * 1000.0

    @property
    def op_cpu_ms(self) -> float:
        return (self.coord_cpu + sum(self.children_cpu)) * 1000.0 / self.ops


@dataclass
class Setup:
    start: float
    end: float
    times: object             # workloads.SetupTimes
    factor: hostspeed.Reading

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Run:
    workload: object
    generate_s: float
    setups: list[Setup] = field(default_factory=list)
    slots: list[Slot] = field(default_factory=list)
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)
    steal_ratio: float = 0.0
    peak_rss_mb: float = 0.0


def measure(name: str, seed: int, seconds: float, scale: float, probe):
    """Set up three times, run the slotted window, check the outputs.
    ``probe`` is ``None`` for an untraced run."""
    from workloads import WORKLOADS

    thermometer = hostspeed.Thermometer()
    started = time.perf_counter()
    workload = WORKLOADS[name](seed, scale)
    run = Run(workload, time.perf_counter() - started)
    try:
        for attempt in range(SETUPS):
            workload.teardown()
            if probe is not None and attempt == SETUPS - 1:
                probe.install()
            before = thermometer.read()
            begin = time.perf_counter()
            times = workload.setup()
            end = time.perf_counter()
            run.setups.append(Setup(begin, end, times, hostspeed.between(
                before, thermometer.read())))

        run.counters_before = workload.counters()
        steal0, total0 = host_ticks()
        slot_seconds = seconds / SLOTS
        reading = thermometer.read()
        window_start = time.perf_counter()
        for index in range(SLOTS):
            traced = probe is not None and index % CONTROL_EVERY != 0
            if probe is not None and traced != probe.installed:
                probe.install() if traced else probe.restore()
            children0, coord0 = child_cpu(), time.process_time()
            begin = time.perf_counter()
            latencies = workload.run_slot(
                window_start + (index + 1) * slot_seconds)
            end = time.perf_counter()
            coord1, children1 = time.process_time(), child_cpu()
            before, reading = reading, thermometer.read()
            run.slots.append(Slot(
                begin, end, traced, latencies, coord1 - coord0,
                [children1[pid] - children0.get(pid, 0.0)
                 for pid in sorted(children1)],
                hostspeed.between(before, reading)))
            if index < SLOTS - 1:
                workload.between_slots()
        steal1, total1 = host_ticks()
        run.steal_ratio = (steal1 - steal0) / max(total1 - total0, 1)
        run.peak_rss_mb = peak_rss_mb()
        if probe is not None:
            probe.restore()
        workload.verify()
        run.counters_after = workload.counters()
    finally:
        if probe is not None:
            probe.restore()
        workload.teardown()
    return run


def end_to_end(run: Run) -> tuple[dict, dict]:
    """The four gated metrics, and the raw/host diagnostics beside them."""
    slots, setups = run.slots, run.setups
    latencies = [x for slot in slots for x in slot.latencies]
    factors = [slot.factor.wall for slot in slots]
    gated = {
        "setup_s": lm.median(s.seconds / s.factor.wall for s in setups),
        "op_ms": lm.median(s.op_ms / s.factor.wall for s in slots),
        "op_cpu_ms": lm.median(s.op_cpu_ms / s.factor.cpu for s in slots),
        "peak_rss_mb": run.peak_rss_mb,
    }
    beside = {
        "raw.op_p50_ms": lm.percentile(latencies, 0.5) * 1000.0,
        "raw.op_p90_ms": lm.percentile(latencies, 0.9) * 1000.0,
        "raw.op_cpu_ms": lm.median(s.op_cpu_ms for s in slots),
        "raw.setup_s": lm.median(s.seconds for s in setups),
        "host.factor_p50": lm.median(factors),
        "host.factor_spread": (max(factors) - min(factors))
        / lm.median(factors),
        "host.steal_ratio": run.steal_ratio,
        "datasets.generate_s": run.generate_s,
    }
    return gated, beside


def per_layer(run: Run, probe, out_dir: Path) -> tuple[dict, dict]:
    """Every per-layer metric (0 where the layer was not entered) and the
    layer share table."""
    from workloads import CLASS_KIND

    name = run.workload.name
    root_name = run.workload.root_span
    _, values = end_to_end(run)
    values.update(dict.fromkeys((m[0] for m in lm.PER_LAYER
                                 if m[0] not in values), 0.0))
    last = run.setups[-1]
    traced = [slot for slot in run.slots if slot.traced]
    control = [slot for slot in run.slots if not slot.traced]

    spans = probe.spans()
    out_dir.mkdir(parents=True, exist_ok=True)
    probe.export(spans, out_dir / f"spans-{name}.json")
    intervals = [lm.Interval(last.start, last.end, last.factor.wall, False)]
    intervals += [lm.Interval(s.start, s.end, s.factor.wall, True)
                  for s in traced]
    found = lm.statements(spans, intervals)
    values.update(lm.span_metrics(found))
    values.update(lm.iteration_metrics(spans, found))
    values["storage.snapshot_ms"] = lm.snapshot_metric(spans, found)
    values["probe.span_coverage"] = lm.coverage(
        found, root_name, sum(sum(s.latencies) for s in traced))
    values["probe.overhead_ratio"] = lm.ratio(
        lm.median(s.op_cpu_ms / s.factor.cpu for s in traced),
        lm.median(s.op_cpu_ms / s.factor.cpu for s in control))

    operations = sum(slot.ops for slot in run.slots)
    before, after = run.counters_before, run.counters_after
    if "stats" in after:
        values.update(lm.counter_metrics(before["stats"], after["stats"],
                                         operations))
        values["plan.cache_text_hit_ratio"] = lm.text_hit_ratio(found)
    times = last.times
    values["engine.first_op_ms"] = \
        times.first_op_s * 1000.0 / last.factor.wall
    if times.rows_loaded:
        values["storage.load_rows_s"] = times.load_s / last.factor.wall
        values["storage.load_rows_per_s"] = \
            times.rows_loaded * last.factor.wall / times.load_s

    if "server" in after:
        values["storage.segments_end"] = after["segments_end"]
        values["server.rejected"] = after["server"]["rejected"]
        values["server.queue_ms"] = lm.queue_metric(spans, found)
        by_slot = run.workload.class_latencies()
        for kind in ("read", "write", "iter"):
            values[f"server.{kind}_p50_ms"] = lm.median(
                lm.percentile([x for cls, xs in per_class.items()
                               if CLASS_KIND[cls] == kind for x in xs], 0.5)
                * 1000.0 / slot.factor.wall
                for slot, per_class in zip(run.slots, by_slot))
        values["server.req_p99_ms"] = lm.median(
            lm.percentile(s.latencies, 0.99) * 1000.0 / s.factor.wall
            for s in run.slots)
        values["server.req_per_s"] = lm.median(
            s.ops * s.factor.wall / (s.end - s.start) for s in run.slots)
    if "mpp" in after:
        values["mpp.rows_moved"] = after["mpp"]["rows_moved"]
        values["mpp.bytes_moved"] = after["mpp"]["bytes_moved"]
        values["mpp.coord_cpu_ms"] = lm.median(
            s.coord_cpu * 1000.0 / s.ops / s.factor.cpu for s in run.slots)
        for label, fold in (("max", max), ("mean", statistics.fmean)):
            values[f"mpp.worker_cpu_{label}_ms"] = lm.median(
                fold(s.children_cpu) * 1000.0 / s.ops / s.factor.cpu
                for s in run.slots if s.children_cpu)
        values["mpp.pool_vs_inline_ratio"] = lm.ratio(
            values["raw.op_p50_ms"] / 1000.0, run.workload.inline_seconds)
    return values, lm.layer_shares(found, root_name)


def report(metrics: dict, units: dict, extra: dict, shares: dict) -> None:
    width = max(len(name) for name in list(metrics) + list(extra))
    for name, value in list(metrics.items()) + list(extra.items()):
        print(f"{name:<{width}}  {value:>14.4f}  {units[name]}")
    for layer, share in shares.items():
        print(f"share.{layer:<{width - 6}}  {share * 100:>14.2f}  "
              "% of traced operation time (self)")


def run_once(args) -> int:
    units = {m[0]: m[1] for m in lm.END_TO_END + lm.PER_LAYER}
    probe = Probe(TARGETS) if args.trace else None
    run = measure(args.workload, args.seed, args.seconds, args.scale, probe)
    if args.trace:
        metrics, shares = per_layer(run, probe, HERE / "out")
        metrics = {m[0]: metrics[m[0]] for m in lm.PER_LAYER}
        extra = {}
    else:
        metrics, extra = end_to_end(run)
        shares = {}
    workload = run.workload
    correct = workload.failed == 0
    print(f"workload {workload.name}  seed {args.seed}  "
          f"{sum(s.ops for s in run.slots)} operations in {SLOTS} slots of "
          f"{args.seconds / SLOTS:g} s  "
          f"({'traced' if args.trace else 'untraced'})")
    report(metrics, units, extra, shares)
    for message in workload.errors:
        print(f"FAILED  {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# --repeat: the driver's statistic
# ---------------------------------------------------------------------------


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, IQR/median) exactly as the driver computes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid


def repeat(args) -> int:
    from workloads import WORKLOADS

    seconds = args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    baseline = json.loads(Path(args.baseline).read_text()) \
        if args.baseline else None
    bounds = {m[0]: m[3] for m in lm.END_TO_END}
    shown = {"setup_s": "raw.setup_s", "op_ms": "raw.op_p50_ms",
             "op_cpu_ms": "raw.op_cpu_ms"}
    results: dict[str, dict[str, list[float]]] = {}
    ok = True
    print(f"# {args.repeat} runs per workload, seeds 1..{args.repeat}, "
          f"{seconds:g} s each, started "
          f"{time.strftime('%Y-%m-%d %H:%M:%S')}\n")
    for name in names:
        rows = []
        for seed in range(1, args.repeat + 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", f"{seconds:g}",
                 "--trace", "0", "--scale", str(args.scale)],
                capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout, done.stderr, sep="\n")
                return 1
            row = {k: v["value"]
                   for k, v in json.loads(lines[-1])["metrics"].items()}
            for line in lines[:-1]:
                parts = line.split()
                if parts and parts[0] in shown.values():
                    row[parts[0]] = float(parts[1])
            rows.append(row)
        results[name] = {key: [row[key] for row in rows] for key in rows[0]}

        print(f"## {name}\n")
        print("| seed | " + " | ".join(
            f"{m} | {shown[m]}" if m in shown else m for m in bounds) + " |")
        print("|---|" + "---|" * (len(bounds) + len(shown)))
        for seed, row in enumerate(rows, 1):
            print(f"| {seed} | " + " | ".join(
                f"{row[m]:.4f} | {row[shown[m]]:.4f}" if m in shown
                else f"{row[m]:.4f}" for m in bounds) + " |")
        print("\n| metric | median | q1 | q3 | IQR/median | bound | "
              "raw IQR/median | shift vs first set |")
        print("|---|---|---|---|---|---|---|---|")
        for metric, bound in bounds.items():
            mid, q1, q3, iqr = spread(results[name][metric])
            raw = f"{spread(results[name][shown[metric]])[3]:.4f}" \
                if metric in shown else "—"
            shift, verdict = "—", ""
            if baseline is not None:
                first = statistics.median(baseline[name][metric])
                worse = (mid - first) / first
                shift = f"{worse:+.4f}"
                if worse > bound:
                    verdict, ok = " **over bound**", False
            if metric != "setup_s" and iqr > bound:
                verdict, ok = verdict + " **spread over bound**", False
            print(f"| {metric} | {mid:.4f} | {q1:.4f} | {q3:.4f} | "
                  f"{iqr:.4f} | {bound} | {raw} | {shift}{verdict} |")
        print(flush=True)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(results))
    print("every spread and shift is within its bound" if ok
          else "OUTSIDE A BOUND — see the marked rows")
    return 0 if ok else 1


def print_shares(args) -> int:
    """CPU share of each request kind when ``serve_mixed``'s schedule is
    replayed on a direct engine (the calibration README records)."""
    from workloads import CLASS_KIND, ServeMixed

    workload = ServeMixed(args.seed, args.scale)
    db, _ = workload.build_engine()
    spent = dict.fromkeys(("read", "write", "iter"), 0.0)
    for request in workload.schedules[0][:3000]:
        started = time.process_time()
        db.execute(request.sql)
        spent[CLASS_KIND[request.cls]] += time.process_time() - started
    total = sum(spent.values())
    for kind, seconds in spent.items():
        print(f"{kind:<6} {seconds / total * 100:5.1f} % of CPU")
    print(f"class counts per client: {workload.class_counts()}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[
        "pr_full", "sssp_delta", "serve_mixed", "mpp_pr"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses 0.05)")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N seeds per workload and print the "
                             "driver's statistic")
    parser.add_argument("--save", help="with --repeat: keep the runs (JSON)")
    parser.add_argument("--baseline", help="with --repeat: an earlier "
                        "--save file to report the median shift against")
    parser.add_argument("--shares", action="store_true",
                        help="print serve_mixed's direct-replay CPU shares")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(find_src()))
    if args.shares:
        return print_shares(args)
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
