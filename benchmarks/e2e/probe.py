"""Tracing from outside: timing wrappers around the engine's entry points.

The change that defines a benchmark records its spans from the
benchmark's own files (choosing-metrics §4); spans inside the program
are a later change.  :class:`Probe` therefore patches the callables
listed in :mod:`layers` with a wrapper that records one span per call —
name, start, end, the span that caused it — and restores every name on
exit.  No file under ``src/`` changes and the engine's own
``enable_tracing`` stays off.

A function is patched where it is defined *and* in every loaded
``repro.*`` module that imported it by name (``from ..sql import
parse`` binds a second reference that a definition-site patch would
miss).  A method is patched on its class.

Spans are kept per thread (so two server workers never contend on one
list) and in memory; :meth:`Probe.export` writes them out at the end of
the run.  A span's *self time* is its duration minus the part its
direct children cover; the spans of one statement share the index of
their root span as identifier.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``qualname`` is ``function`` or ``Class.method`` inside ``module``;
    ``span`` is the name recorded (``layer.what``); ``attr`` optionally
    derives one value from the call's arguments, stored with the span
    (the session id of a statement, a table's pending segment count) —
    before the call, or with ``attr_after`` once it has returned (the
    iterations a program run took).
    """

    module: str
    qualname: str
    span: str
    attr: Optional[Callable] = None
    attr_after: bool = False


@dataclass
class Span:
    """One recorded call, as exported."""

    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int      # span id, -1 for a root
    statement: int   # id of the root span
    attr: object
    self_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Probe:
    """Installs, removes and reads the timing wrappers."""

    def __init__(self, targets: Iterable[Target]):
        self._targets = list(targets)
        self._names = [t.span for t in self._targets]
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._threads: list[list] = []
        self._threads_lock = threading.Lock()

    # -- patching ------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("probe is already installed")
        for target in self._targets:
            importlib.import_module(target.module)
        repro_modules = [module for name, module in list(sys.modules.items())
                         if module is not None
                         and (name == "repro" or name.startswith("repro."))]
        for name_id, target in enumerate(self._targets):
            owner = sys.modules[target.module]
            *path, leaf = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            wrapper = self._wrap(name_id, original, target)
            if path:
                self._patch(owner, leaf, original, wrapper)
                continue
            for module in repro_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _thread_state(self):
        state = ([], [])   # spans, stack of open span indices
        self._local.state = state
        with self._threads_lock:
            self._threads.append(state[0])
        return state

    def _wrap(self, name_id: int, fn, target: Target):
        before = None if target.attr_after else target.attr
        after = target.attr if target.attr_after else None
        local = self._local
        clock = time.perf_counter
        thread_state = self._thread_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = thread_state()
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1,
                    before(*args) if before is not None else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    span[4] = after(*args)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    # -- reading -------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Every finished span, ids global across threads, with its
        statement (root) id and self time filled in."""
        out: list[Span] = []
        with self._threads_lock:
            threads = list(self._threads)
        for thread_no, raw in enumerate(threads):
            base = len(out)
            rows = list(raw)
            children = [0.0] * len(rows)
            roots = [0] * len(rows)
            for index, (_, start, end, parent, _) in enumerate(rows):
                if parent < 0:
                    roots[index] = index
                else:
                    roots[index] = roots[parent]
                    children[parent] += end - start
            for index, (name_id, start, end, parent, attr) in enumerate(rows):
                out.append(Span(
                    id=base + index, name=self._names[name_id],
                    thread=thread_no, start=start, end=end,
                    parent=base + parent if parent >= 0 else -1,
                    statement=base + roots[index], attr=attr,
                    self_time=(end - start) - children[index]))
        return out

    @staticmethod
    def export(spans: list[Span], path) -> None:
        """Write ``spans`` (from :meth:`spans`) as JSON."""
        with open(path, "w") as handle:
            json.dump({
                "schema": "benchmarks-e2e/spans@1",
                "clock": "time.perf_counter seconds",
                "columns": ["id", "name", "thread", "start", "end",
                            "parent", "statement", "attr"],
                "spans": [[s.id, s.name, s.thread, s.start, s.end,
                           s.parent, s.statement, s.attr] for s in spans],
            }, handle)
