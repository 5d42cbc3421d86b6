"""Static verification of exchange plans (the distributed IR).

The local IR verifier (:mod:`repro.verify.plans` / ``programs``) gives
single-process programs machine-checked invariants; this module extends
the same guarantees to the distributed superstep programs described by
:class:`repro.mpp.plan.ExchangePlan` before any worker runs them:

* **Definition before motion** — every register a LocalOp reads or an
  ExchangeOp ships must be resident (declared in ``registers``) or
  written by an earlier step; an exchange of an undefined register would
  ship garbage or deadlock a receiver waiting on a phantom channel.
* **Partition-key consistency** — a LocalOp's ``requires`` co-location
  contracts must hold given the partition keys in effect at that step
  (declared keys for resident registers, the exchange key for shuffled
  ones).  Hash partitioning is deterministic per column value, so two
  registers co-locate exactly when both are currently hashed on the
  contracted columns.
* **Delta-shuffle legality** — ``ExchangeOp.delta`` is only sound under
  the ``semi_naive`` strategy: suppression replays the receiver's cached
  piece, which is only equivalent when state evolves by deltas and an
  unchanged outbound piece implies an unchanged contribution.
* **Superstep shape** — both runners (:mod:`repro.mpp.superstep`)
  execute exactly produce → exchange → apply: a LocalOp writing the
  one register the ExchangeOp ships, then a LocalOp rewriting one
  resident register in place.  A plan of any other shape would verify
  a program nothing runs.

Violations are collected (not raised one at a time) and surface as the
same structured :class:`repro.errors.VerificationError` the local
verifier raises, naming the pass that produced the bad plan.
"""

from __future__ import annotations

from ..errors import VerificationError
from ..mpp.plan import (SEMI_NAIVE, STRATEGIES, ExchangeOp, ExchangePlan,
                        LocalOp)

__all__ = ["check_exchange_plan", "verify_exchange_plan"]


def check_exchange_plan(plan: ExchangePlan) -> list[str]:
    """Return every violated invariant of ``plan`` (empty == valid)."""
    violations: list[str] = []

    if plan.strategy not in STRATEGIES:
        violations.append(
            f"unknown plan strategy {plan.strategy!r} "
            f"(expected one of {', '.join(STRATEGIES)})")

    seen: set[str] = set()
    for reg in plan.registers:
        if reg.name in seen:
            violations.append(f"duplicate register {reg.name!r}")
        seen.add(reg.name)
        if reg.key not in reg.columns:
            violations.append(
                f"register {reg.name!r} hashed on {reg.key!r} "
                f"which is not one of its columns {list(reg.columns)}")

    # Walk the steps tracking which registers are defined and what
    # column each is currently partitioned on (None == unknown/local).
    defined: set[str] = {reg.name for reg in plan.registers}
    current_key: dict[str, str] = {
        reg.name: reg.key for reg in plan.registers}

    for position, step in enumerate(plan.steps):
        where = f"step {position}"
        if isinstance(step, LocalOp):
            where += f" ({step.operation!r})"
            for name in step.reads:
                if name not in defined:
                    violations.append(
                        f"{where} reads undefined register {name!r}")
            for contract in step.requires:
                _check_colocation(contract, current_key, defined,
                                  where, violations)
            defined.update(step.writes)
            # A local write invalidates any partition-key knowledge for
            # the produced register until an exchange re-establishes it,
            # unless it overwrites a resident register in place (which
            # keeps its distribution).
            for name in step.writes:
                if name not in step.reads and name in current_key \
                        and plan.register(name) is None:
                    del current_key[name]
        elif isinstance(step, ExchangeOp):
            where += f" (exchange {step.register!r})"
            if step.register not in defined:
                violations.append(
                    f"{where} ships undefined register {step.register!r}")
            columns = step.columns or (
                plan.register(step.register).columns
                if plan.register(step.register) else ())
            if columns and step.key not in columns:
                violations.append(
                    f"{where} routes on {step.key!r} which is not one of "
                    f"its columns {list(columns)}")
            if step.delta and plan.strategy != SEMI_NAIVE:
                violations.append(
                    f"{where} requests delta suppression under the "
                    f"{plan.strategy!r} strategy (requires semi_naive: "
                    f"replaying a cached piece is only equivalent when "
                    f"state evolves by deltas)")
            current_key[step.register] = step.key
        else:  # pragma: no cover - frozen dataclass union
            violations.append(f"{where} is not a LocalOp or ExchangeOp")

    violations.extend(_check_superstep_shape(plan))
    return violations


def _check_superstep_shape(plan: ExchangePlan) -> list[str]:
    kinds = [type(step).__name__ for step in plan.steps]
    if kinds != ["LocalOp", "ExchangeOp", "LocalOp"]:
        return [f"a superstep runs LocalOp, ExchangeOp, LocalOp; "
                f"the plan has {kinds}"]
    produce, exchange, apply = plan.steps
    violations = []
    if produce.writes != (exchange.register,):
        violations.append(
            f"produce phase {produce.operation!r} writes "
            f"{list(produce.writes)} but the exchange ships "
            f"{exchange.register!r}")
    if len(apply.writes) != 1 or plan.register(apply.writes[0]) is None:
        violations.append(
            f"apply phase {apply.operation!r} writes "
            f"{list(apply.writes)}; it must rewrite exactly one "
            f"resident register")
    return violations


def _check_colocation(contract: tuple[tuple[str, str], ...],
                      current_key: dict[str, str], defined: set[str],
                      where: str, violations: list[str]) -> None:
    for name, column in contract:
        if name not in defined:
            violations.append(
                f"{where} requires co-location of undefined "
                f"register {name!r}")
            return
    for name, column in contract:
        key = current_key.get(name)
        if key != column:
            have = f"hashed on {key!r}" if key else "not hash-partitioned"
            violations.append(
                f"{where} requires {name!r} hashed on {column!r} "
                f"but it is {have} at this point")


def verify_exchange_plan(plan: ExchangePlan,
                         pass_name: str = "exchange_plan") -> ExchangePlan:
    """Raise :class:`VerificationError` if ``plan`` is invalid."""
    violations = check_exchange_plan(plan)
    if violations:
        raise VerificationError(pass_name, violations)
    return plan
