"""Every Step subclass dispatches through the runtime registry.

The static half of this guarantee is the engine lint's handler-coverage
rule (AST-level); this is the dynamic half: import the real handler
modules, enumerate the actual ``Step`` subclasses, and check the
registry resolves each one without the ``unknown step type`` fallback.
"""

import inspect

import pytest

import repro.plan.program as program_module
import repro.runtime.handlers  # noqa: F401  -- populates HANDLERS
from repro.plan.program import Step
from repro.runtime.registry import HANDLERS


def _step_subclasses():
    return sorted(
        (obj for _, obj in inspect.getmembers(program_module, inspect.isclass)
         if issubclass(obj, Step) and obj is not Step),
        key=lambda cls: cls.__name__)


def _resolve(step_type):
    for cls in step_type.__mro__:
        if cls in HANDLERS:
            return HANDLERS[cls]
    return None


@pytest.mark.parametrize("step_type", _step_subclasses(),
                         ids=lambda cls: cls.__name__)
def test_step_has_registered_handler(step_type):
    handler = _resolve(step_type)
    assert handler is not None, \
        f"{step_type.__name__} would raise 'unknown step type' at dispatch"
    assert callable(handler)


def test_registry_names_only_real_steps():
    for registered in HANDLERS:
        assert issubclass(registered, Step), \
            f"{registered.__name__} is registered but is not a Step"


def test_enumeration_is_not_vacuous():
    # The program IR currently defines 14 step kinds; a refactor that
    # moves them out of repro.plan.program must move this guard too.
    assert len(_step_subclasses()) >= 14
