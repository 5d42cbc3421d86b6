#!/usr/bin/env bash
# Tier-1 combined smoke: the pytest guards plus the CLI guards, with
# per-guard failure attribution — when something breaks, the summary
# names the guard that failed.
#
#   repro-smoke      every *_smoke pytest marker in one run (the list is
#                    repro.harness.smoke._MARKERS; `repro-smoke --only X`
#                    runs a single one)
#   repro-lint       engine lint over the real tree
#   trace-diff       scripts/check_trace_diff.sh   native vs baseline diff
#   repro-racecheck  static lock-discipline pass over the real tree
#
# Usage: scripts/check_all_smoke.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

failed=""

run_guard() {
    name="$1"
    shift
    echo "== guard: $name =="
    if "$@"; then
        echo "== guard: $name ok =="
    else
        echo "== guard: $name FAILED ==" >&2
        failed="$failed $name"
    fi
}

run_guard repro-smoke env PYTHONPATH=src \
    python -m repro.harness.smoke -- "$@"
run_guard repro-lint env PYTHONPATH=src python -m repro.verify.lint
run_guard trace-diff scripts/check_trace_diff.sh
run_guard repro-racecheck env PYTHONPATH=src \
    python -m repro.verify.concurrency.cli

if [ -n "$failed" ]; then
    echo "smoke: FAILED guards:$failed" >&2
    exit 1
fi
echo "smoke: all guards ok"
