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
  semi-naive delta, fixpoint), and the frontier watch behind mid-loop
  demotion, which is final.
* :mod:`repro.runtime.conditions` — termination-condition evaluation and
  the changed-rows kernel.
"""

from .conditions import changed_rows, should_continue
from .interpreter import ProgramRunner, StepProfile
from .loop_engine import LoopEngine, LoopRun, LoopState
from .registry import HANDLERS, dispatch, handles
from .strategies import StrategySwitch

__all__ = [
    "HANDLERS",
    "LoopEngine",
    "LoopRun",
    "LoopState",
    "ProgramRunner",
    "StepProfile",
    "StrategySwitch",
    "changed_rows",
    "dispatch",
    "handles",
    "should_continue",
]
