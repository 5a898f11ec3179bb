"""``repro.trace`` — lightweight structured tracing for the KEM service.

The paper's evaluation lives and dies by *per-stage attribution*:
Tables I–II break BCH decoding and the KEM operations into per-stage
cycle costs, which is what turns "the accelerator is faster" into "the
accelerator is faster *because* the multiplication stage shrank".  The
serving stack (``repro.serve``) needs the same lens at request
granularity: a slow request must be attributable to admission, queue
wait, batch formation, kernel execution, or reply serialization.

This package provides that lens as a span model:

* :class:`~repro.trace.core.Span` — one timed region with a trace id,
  a span id, an optional parent, and free-form tags (``op``,
  ``key_id``, ``batch_size``, ``fault_site``, …);
* :class:`~repro.trace.core.Tracer` — the factory the serving stack
  holds; it stamps spans from an injectable monotonic clock and hands
  finished spans to a pluggable recorder.  The disabled singleton
  :data:`~repro.trace.core.NULL_TRACER` makes every call site a single
  predictable branch (``if tracer.enabled:``) so tracing is near-zero
  cost when off;
* recorders — :class:`~repro.trace.core.NullRecorder`,
  :class:`~repro.trace.core.InMemoryRecorder` (tests, benchmarks) and
  :class:`~repro.trace.core.JsonlRecorder` (a span dump
  :func:`~repro.trace.report.load_spans` reads back);
* :mod:`~repro.trace.context` — an ambient tag sink
  (:func:`~repro.trace.context.annotate`) that lets deep layers (the
  fault plan, kernel workers) annotate the active request/batch span
  without threading span objects through every signature;
* :mod:`~repro.trace.report` — stage aggregation: exact
  p50/p95/p99 per stage and share-of-total, the serve-side analogue of
  Table II's per-stage breakdown.

Trace context propagates over the wire as an optional frame extension
(protocol version 2 — see :mod:`repro.serve.protocol`), so a client
span and the server spans it caused share one trace id end to end.
"""

from repro.trace.context import annotate, collect_tags, current_tags
from repro.trace.core import (
    NULL_TRACER,
    InMemoryRecorder,
    JsonlRecorder,
    NullRecorder,
    Span,
    SpanRecorder,
    TraceContext,
    Tracer,
)
from repro.trace.report import StageStats, format_stage_table, stage_breakdown

__all__ = [
    "NULL_TRACER",
    "InMemoryRecorder",
    "JsonlRecorder",
    "NullRecorder",
    "Span",
    "SpanRecorder",
    "StageStats",
    "TraceContext",
    "Tracer",
    "annotate",
    "collect_tags",
    "current_tags",
    "format_stage_table",
    "stage_breakdown",
]
