"""Static analysis for the engine's two IRs (the ISSUE-5 verifier).

Two layers live here:

* **IR verifier** — machine-checked invariants over logical plans
  (:mod:`repro.verify.plans`) and step programs
  (:mod:`repro.verify.programs`).  It runs after plan building, after
  each rewrite pass (hooked into :mod:`repro.rewrite.framework`), and
  after program compilation; violations raise a structured
  :class:`repro.errors.VerificationError` naming the pass that produced
  the bad IR.  Enabled per session via the ``enable_plan_verifier``
  option, which defaults on.

* **Engine lint** — AST-based repo-specific rules over the source tree
  (:mod:`repro.verify.lint`), exposed as the ``repro-lint`` console
  script and run by the tier-1 tests.
"""

from ..errors import VerificationError
from .exchange import check_exchange_plan, verify_exchange_plan
from .plans import check_plan, verify_plan
from .programs import VerificationReport, check_program, verify_program
from .storage import check_segmented_table, verify_segmented_table

__all__ = [
    "VerificationError",
    "VerificationReport",
    "check_exchange_plan",
    "check_plan",
    "check_program",
    "check_segmented_table",
    "verify_exchange_plan",
    "verify_plan",
    "verify_program",
    "verify_segmented_table",
]
