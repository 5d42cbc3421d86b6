"""Observability subsystem: span tracing, metrics, loop telemetry,
and stable JSON export (see DESIGN.md § Observability).

The pieces compose as: the engine threads a :class:`Tracer` (or the
no-op :data:`NULL_TRACER`) through parse → plan → rewrite → execute,
loops publish :class:`LoopTelemetry`, and :func:`build_trace` freezes
both plus a metrics snapshot into a :class:`Trace` whose JSON schema is
validated by :func:`validate_trace_dict`.
"""

from .export import (
    BENCH_SCHEMA_VERSION,
    DECISION_EVENT_NAMES,
    TRACE_SCHEMA_VERSION,
    Trace,
    build_trace,
    validate_bench_dict,
    validate_trace_dict,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import (
    Profile,
    aggregate_profile,
    collapsed_stacks,
    render_decision_timeline,
    render_profile,
)
from .telemetry import (
    ITERATION_RECORD_KEYS,
    IterationRecord,
    LoopTelemetry,
    render_iteration_table,
)
from .trace import (
    NULL_TRACER,
    ContextTracer,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    render_span_tree,
    span_from_dict,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DECISION_EVENT_NAMES",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "build_trace",
    "validate_bench_dict",
    "validate_trace_dict",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profile",
    "aggregate_profile",
    "collapsed_stacks",
    "render_decision_timeline",
    "render_profile",
    "ITERATION_RECORD_KEYS",
    "IterationRecord",
    "LoopTelemetry",
    "render_iteration_table",
    "NULL_TRACER",
    "ContextTracer",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "render_span_tree",
    "span_from_dict",
]
