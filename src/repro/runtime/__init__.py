"""The unified loop runtime (§VI).

One execution path for every iterative construct in the system:

* :mod:`repro.runtime.interpreter` — the step interpreter: a program
  counter over the handler registry.
* :mod:`repro.runtime.registry` + :mod:`repro.runtime.handlers` — the
  dispatch table; each :class:`~repro.plan.program.Step` kind has one
  handler module.
* :mod:`repro.runtime.loop_engine` — loop control, telemetry, and spans
  for the SQL engine *and* the MPP / middleware / procedure drivers;
  one :class:`LoopState` record per loop holds everything the loop owns.
* :mod:`repro.runtime.strategies` — a loop's strategy as a pure
  function of its spec and mode (full recompute, rename in place,
  semi-naive delta, fixpoint), the frontier hysteresis behind mid-loop
  demotion and promotion, and the distributed exchange strategies.
* :mod:`repro.runtime.conditions` — termination-condition evaluation and
  the changed-rows kernel.
"""

from .conditions import changed_rows, should_continue
from .interpreter import ProgramRunner, StepProfile
from .loop_engine import LoopEngine, LoopRun, LoopState
from .registry import HANDLERS, dispatch, handles
from .strategies import (
    DeltaShuffleExchange,
    ExchangeStrategy,
    StrategySwitch,
    make_exchange_strategy,
)

__all__ = [
    "HANDLERS",
    "DeltaShuffleExchange",
    "ExchangeStrategy",
    "LoopEngine",
    "LoopRun",
    "LoopState",
    "ProgramRunner",
    "StepProfile",
    "StrategySwitch",
    "changed_rows",
    "dispatch",
    "handles",
    "make_exchange_strategy",
    "should_continue",
]
