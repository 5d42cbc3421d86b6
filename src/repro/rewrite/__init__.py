"""Rewrite subsystem: rule framework plus the optimization rewrites.

The standard pipeline (applied to every materialized plan) is exposed as
:func:`optimize_plan`; the iterative-CTE-specific rewrites (§V-B
pushdown, common results, the delta proof) are invoked from :mod:`repro.core.rewrite`.
"""

from ..execution.context import SessionOptions
from ..plan.logical import LogicalOp
from .columns import prune_columns
from .common_results import (
    CommonBlock,
    extract_common_results,
    is_loop_invariant,
)
from .delta import DeltaSafety, analyze_iterative_delta
from .expr_utils import conjoin, split_conjuncts
from .folding import fold_expr, fold_plan_filters
from .framework import apply_rules
from .join_reorder import reorder_joins
from .join_rules import inner_over_left_commute, outer_to_inner
from .pushdown import push_filters, pushable_final_predicate

__all__ = [
    "CommonBlock",
    "extract_common_results",
    "is_loop_invariant",
    "DeltaSafety",
    "analyze_iterative_delta",
    "conjoin",
    "split_conjuncts",
    "fold_expr",
    "fold_plan_filters",
    "apply_rules",
    "inner_over_left_commute",
    "outer_to_inner",
    "push_filters",
    "pushable_final_predicate",
    "prune_columns",
    "reorder_joins",
    "optimize_plan",
]


def optimize_plan(plan: LogicalOp, options: SessionOptions,
                  estimator=None, tracer=None, catalog=None,
                  verified=None) -> LogicalOp:
    """The standard optimization-rewrite pipeline for one plan tree.

    ``estimator`` (a :class:`repro.stats.CardinalityEstimator`) unlocks
    the cost-based passes; rule-based passes run regardless.  ``tracer``
    (a :class:`repro.obs.Tracer`) wraps the pass in a ``rewrite`` phase
    span whose ``rule.<name>`` attributes count how often each rule
    actually changed the plan.

    With the ``enable_plan_verifier`` option on, the IR verifier
    (:mod:`repro.verify`) checks the incoming plan (attributed to the
    ``build`` pass) and re-checks after every rewrite pass that changed
    it, so a broken rewrite is caught at the pass that broke it.
    ``verified`` (a :class:`repro.verify.plans.VerifiedPlans`) records
    each plan checked, so the compile's later checks skip it.
    """
    verifier = None
    if options.enable_plan_verifier:
        from ..verify.plans import VerifiedPlans
        if verified is None:
            verified = VerifiedPlans()

        def verifier(p: LogicalOp, pass_name: str) -> None:
            verified.verify(p, f"rewrite:{pass_name}", catalog)

        verified.verify(plan, "build", catalog)

    rules = [fold_plan_filters]
    if options.enable_predicate_pushdown:
        rules.append(push_filters)
    rules.append(outer_to_inner)
    rules.append(inner_over_left_commute)

    def reorder(plan: LogicalOp, observer=None) -> LogicalOp:
        if estimator is None:
            return plan
        reordered = reorder_joins(plan, estimator)
        if reordered is not plan:
            if observer is not None:
                observer(reorder_joins)
            if verifier is not None:
                verifier(reordered, "reorder_joins")
        return reordered

    if tracer is None or not tracer.enabled:
        plan = apply_rules(plan, rules, verifier=verifier)
        return reorder(plan)

    fired: dict[str, int] = {}

    def observer(rule) -> None:
        name = getattr(rule, "__name__", str(rule))
        fired[name] = fired.get(name, 0) + 1

    with tracer.span("rewrite", kind="phase") as span:
        plan = apply_rules(plan, rules, observer, verifier=verifier)
        plan = reorder(plan, observer)
        span.set(**{f"rule.{name}": count
                    for name, count in sorted(fired.items())})
    return plan
