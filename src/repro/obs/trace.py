"""Hierarchical span tracer: where time goes inside one iterative plan.

DBSpinner's evaluation is entirely about attributing end-to-end time to
pieces of a *single* plan — data movement between iterations (Fig. 8),
loop-invariant subtrees (Fig. 9), per-iteration deltas.  The tracer
records that attribution as a tree of :class:`Span` objects:

    query → phase (parse / plan / rewrite / compile / execute)
          → program step → loop iteration

A :class:`Tracer` is created per traced statement and threaded through
the :class:`~repro.execution.context.ExecutionContext` (and the plan
context) — there is no global state, so concurrent sessions cannot see
each other's spans.  When tracing is off the engine passes
:data:`NULL_TRACER`, whose every operation is a no-op attribute lookup,
keeping the untraced hot path within noise of the pre-tracing engine.

Spans carry wall time, a ``kind`` tag, and a flat scalar attribute map;
the stable JSON projection lives in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


def _scalar(value):
    """Attributes are JSON scalars; anything else is stringified."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("name", "kind", "attributes", "children", "started",
                 "seconds")

    def __init__(self, name: str, kind: str = "span",
                 attributes: Optional[dict] = None):
        self.name = name
        self.kind = kind
        self.attributes = dict(attributes) if attributes else {}
        self.children: list["Span"] = []
        self.started = time.perf_counter()
        self.seconds = 0.0

    def set(self, **attributes) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attributes.update(attributes)

    def find(self, name: str, kind: Optional[str] = None
             ) -> Optional["Span"]:
        """Depth-first search for the first descendant with ``name``."""
        for child in self.children:
            if child.name == name and (kind is None or child.kind == kind):
                return child
            found = child.find(name, kind)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "seconds": self.seconds,
            "attributes": {key: _scalar(value)
                           for key, value in self.attributes.items()},
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, "
                f"children={len(self.children)})")


def span_from_dict(data: dict) -> Span:
    """Rebuild a (closed) :class:`Span` tree from its ``to_dict`` form.

    The inverse of :meth:`Span.to_dict` for *finished* spans: ``seconds``
    is restored as recorded and ``started`` is meaningless afterwards —
    wall-clock anchors do not survive serialization (and are not
    comparable across processes anyway)."""
    span = Span(data["name"], data["kind"], data.get("attributes"))
    span.seconds = float(data.get("seconds", 0.0))
    span.children = [span_from_dict(child)
                     for child in data.get("children", ())]
    return span


@dataclass(frozen=True)
class TraceContext:
    """A picklable handle onto one open span of a parent trace.

    Child workers (the in-process segment tasks and the pool's worker
    processes) cannot share a :class:`Tracer`: spans are mutable and the
    open-span stack is single-owner.  Instead the parent captures a
    ``TraceContext`` at the point in the tree where the child's work
    belongs, hands it to the child, and the child builds a
    :class:`ContextTracer` from it.  The child's spans buffer locally;
    on join the parent grafts them back with :meth:`Tracer.merge`, so
    the merged trace is shaped exactly as if the work had run inline.
    """

    trace_id: str
    context_id: int


class Tracer:
    """Builds one span tree via an explicit open-span stack.

    ``start``/``end`` exist for code (like the program runner) whose span
    boundaries do not nest lexically; ``span`` is the context-manager
    sugar for code where they do.  ``end`` unwinds the stack *through*
    the given span, so a span abandoned by an exception is closed by the
    first enclosing ``end`` instead of leaking.
    """

    enabled = True

    def __init__(self, name: str = "trace",
                 trace_id: Optional[str] = None):
        self.root = Span(name, "root")
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self._stack: list[Span] = [self.root]
        # Spans pinned by context() so merge() can graft worker spans
        # onto the exact capture point even after the span has closed.
        self._context_spans: dict[int, Span] = {}

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def start(self, name: str, kind: str = "span", **attributes) -> Span:
        span = Span(name, kind, attributes)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        if span not in self._stack:
            return
        now = time.perf_counter()
        while len(self._stack) > 1:
            top = self._stack.pop()
            top.seconds = now - top.started
            if top is span:
                break

    @contextmanager
    def span(self, name: str, kind: str = "span", **attributes):
        opened = self.start(name, kind, **attributes)
        try:
            yield opened
        finally:
            self.end(opened)

    def event(self, name: str, kind: str = "event", **attributes) -> None:
        """A zero-duration child of the current span."""
        span = Span(name, kind, attributes)
        self._stack[-1].children.append(span)

    def finish(self) -> Span:
        """Close every open span (including the root) and return it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            top.seconds = now - top.started
        self._stack = [self.root]
        return self.root

    # -- process-safe contexts ----------------------------------------------

    def context(self) -> TraceContext:
        """Capture the current span as a merge target.

        The capture span itself is pinned locally so :meth:`merge`
        grafts exported worker spans under it later, open or closed."""
        context_id = len(self._context_spans)
        self._context_spans[context_id] = self.current
        return TraceContext(self.trace_id, context_id)

    def merge(self, context: TraceContext,
              spans: Iterable[dict]) -> None:
        """Graft serialized worker spans under ``context``'s capture span.

        ``spans`` is what :meth:`ContextTracer.export_spans` returned on
        the worker side.  A context from another trace id is rejected —
        merging foreign spans would silently corrupt attribution."""
        if context.trace_id != self.trace_id:
            raise ValueError(
                f"cannot merge context of trace {context.trace_id!r} "
                f"into trace {self.trace_id!r}")
        anchor = self._context_spans[context.context_id]
        for data in spans:
            anchor.children.append(span_from_dict(data))


class _NullSpan:
    """Inert span: accepts every operation, records nothing.  Doubles as
    its own context manager so ``with tracer.span(...)`` costs only the
    call."""

    __slots__ = ()
    name = ""
    kind = "null"
    seconds = 0.0
    attributes: dict = {}
    children: list = []

    def set(self, **attributes) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class ContextTracer(Tracer):
    """The worker-side tracer built from a :class:`TraceContext`.

    Spans buffer under a synthetic local root; :meth:`export_spans`
    closes them and returns their serialized forms for the parent to
    :meth:`Tracer.merge`.  Identical API to :class:`Tracer`, so worker
    code is oblivious to which side of the process boundary it runs on.
    """

    def __init__(self, context: TraceContext):
        super().__init__(f"worker:{context.trace_id}",
                         trace_id=context.trace_id)

    def export_spans(self) -> list[dict]:
        """Close all buffered spans and serialize them for the merge."""
        self.finish()
        return [child.to_dict() for child in self.root.children]


class NullTracer:
    """The disabled tracer: every method is a no-op (see module doc)."""

    enabled = False
    root = None
    trace_id = ""

    def span(self, name: str, kind: str = "span", **attributes):
        return _NULL_SPAN

    def start(self, name: str, kind: str = "span", **attributes):
        return _NULL_SPAN

    def end(self, span) -> None:
        pass

    def event(self, name: str, kind: str = "event", **attributes) -> None:
        pass

    def finish(self):
        return None

    def context(self) -> None:
        """No context: workers of an untraced run skip span buffering."""
        return None

    def merge(self, context, spans) -> None:
        pass


NULL_TRACER = NullTracer()
