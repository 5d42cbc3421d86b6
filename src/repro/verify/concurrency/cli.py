"""``repro-racecheck``: the concurrency safety net's console entry.

Two modes:

* default — run the static lock-discipline pass over the source tree
  (the same rules the tier-1 racecheck tests run); exits
  non-zero on any finding.
* ``--replay report.json`` — re-render a dynamic lockset report
  recorded by a ``REPRO_RACECHECK=1`` pytest run (the conftest hook
  writes one at session end); exits non-zero when the report contains
  candidate races.  This is how CI fails the job from an uploaded
  artifact without re-running the stress tests.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .lockset import load_report
from .static import ConcurrencyChecker


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-racecheck",
        description="Concurrency safety net: static lock-discipline "
                    "pass (default) or dynamic lockset report replay "
                    "(--replay).")
    parser.add_argument("--root", type=Path, default=None,
                        help="package root for the static pass "
                             "(default: the installed repro package)")
    parser.add_argument("--replay", type=Path, default=None,
                        metavar="REPORT",
                        help="render a recorded dynamic lockset report "
                             "instead of running the static pass")
    args = parser.parse_args(argv)

    if args.replay is not None:
        races = load_report(str(args.replay))
        for race in races:
            print(race.render())
        if races:
            print(f"repro-racecheck: {len(races)} candidate race(s) in "
                  f"{args.replay}")
            return 1
        print(f"repro-racecheck: report clean ({args.replay})")
        return 0

    checker = ConcurrencyChecker(args.root)
    issues = checker.run()
    for issue in issues:
        print(issue.render())
    if issues:
        print(f"repro-racecheck: {len(issues)} issue(s) in "
              f"{checker.file_count} files")
        return 1
    print(f"repro-racecheck: ok ({checker.file_count} files, "
          "5 rule families)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
