"""Console entry point for the combined tier-1 smoke guards.

``repro-smoke`` (see ``[project.scripts]`` in pyproject.toml) runs the
bench, observability, delta-evaluation, lint, stored-procedure,
trace-diff, tracing-overhead budget (``perf``), MPP worker-pool,
serving-layer and racecheck guards in one pytest invocation.  Pass ``--only
bench|obs|delta|lint|procedures|tracediff|perf|mpp|serving|racecheck``
to run a single guard, plus any extra pytest arguments after ``--``.

``_MARKERS`` is the only declaration of the guard list:
``tests/conftest.py`` registers the pytest markers from it and
``scripts/check_all_smoke.sh`` runs this entry point.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

_MARKERS = {
    "bench": "bench_smoke",
    "obs": "obs_smoke",
    "delta": "delta_smoke",
    "lint": "lint_smoke",
    "procedures": "procedures_smoke",
    "tracediff": "tracediff_smoke",
    "perf": "perf_smoke",
    "mpp": "mpp_smoke",
    "serving": "serving_smoke",
    "racecheck": "racecheck_smoke",
}


def marker_expression(only: Optional[str] = None) -> str:
    """The pytest ``-m`` expression selecting the requested guards."""
    if only is not None:
        return _MARKERS[only]
    return " or ".join(_MARKERS.values())


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-smoke",
        description="Run the tier-1 smoke guards (bench + obs + delta "
                    "+ lint + procedures + tracediff + perf + mpp "
                    "+ serving + racecheck).")
    parser.add_argument("--only", choices=sorted(_MARKERS),
                        help="run a single guard instead of all of them")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra arguments forwarded to pytest "
                             "(prefix with --)")
    args = parser.parse_args(argv)

    import pytest

    return pytest.main(["-m", marker_expression(args.only), "-q",
                        *args.pytest_args])


if __name__ == "__main__":
    sys.exit(main())
