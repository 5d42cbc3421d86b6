"""The unified loop runtime (§VI).

One execution path for every iterative construct in the system:

* :mod:`repro.runtime.interpreter` — the step interpreter: a program
  counter over the handler registry.
* :mod:`repro.runtime.registry` + :mod:`repro.runtime.handlers` — the
  dispatch table; each :class:`~repro.plan.program.Step` kind has one
  handler module.
* :mod:`repro.runtime.loop_engine` — loop control, telemetry, and spans
  for the SQL engine *and* the MPP / middleware / procedure drivers.
* :mod:`repro.runtime.strategies` — the pluggable ``LoopStrategy``
  implementations (full recompute, rename in place, semi-naive delta)
  with cost-based, feedback-driven selection and mid-loop demotion.
* :mod:`repro.runtime.conditions` — termination-condition evaluation.
"""

from .conditions import LoopState, count_changed_rows, should_continue
from .interpreter import ProgramRunner, StepProfile
from .loop_engine import LoopEngine, LoopRun
from .registry import HANDLERS, dispatch, handles
from .strategies import (
    DeltaLoopRuntime,
    DeltaShuffleExchange,
    ExchangeStrategy,
    FixpointIncremental,
    FullRecompute,
    LoopStrategy,
    RenameInPlace,
    SemiNaiveDelta,
    StrategySwitch,
    choose_strategy,
    make_exchange_strategy,
)

__all__ = [
    "HANDLERS",
    "DeltaLoopRuntime",
    "DeltaShuffleExchange",
    "ExchangeStrategy",
    "FixpointIncremental",
    "FullRecompute",
    "LoopEngine",
    "LoopRun",
    "LoopState",
    "LoopStrategy",
    "ProgramRunner",
    "RenameInPlace",
    "SemiNaiveDelta",
    "StepProfile",
    "StrategySwitch",
    "choose_strategy",
    "count_changed_rows",
    "dispatch",
    "handles",
    "make_exchange_strategy",
    "should_continue",
]
