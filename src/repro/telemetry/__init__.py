"""Observability for the verification pipeline: spans, metrics, proof provenance.

Three zero-dependency pillars, all process-wide and safe under threads:

* **Span tracing** (:mod:`repro.telemetry.tracing`) — nested wall-clock spans
  opened with the :func:`span` context manager, tagged with a pipeline
  ``region`` (``parse`` / ``denotation`` / ``wp`` / ``prover`` /
  ``order-decision`` / ``loop`` / ``compare`` / ``superop``) plus
  workload attributes (qubit count, Kraus rank, matrix bytes).
  Disabled by default; enable with ``configure_tracing(enabled=True)``,
  export with ``get_tracer().export_jsonl(path)`` or render with
  ``get_tracer().render()``.

* **Metrics** (:mod:`repro.telemetry.metrics`) — counters, gauges and latency
  histograms in the shared :data:`METRICS` registry, read via
  :func:`metrics_snapshot`: order decisions and their latencies, proof
  events by kind, checked rules.

* **Proof provenance** (:mod:`repro.telemetry.provenance`) — the prover's log
  as typed, timestamped :class:`ProofEvent` records that still render to the
  historical strings; events of an annotation the prover reuses within one
  run are re-emitted with ``replayed=True``.

The CLI exposes the tracer via ``--trace`` / ``--trace-json PATH`` /
``--metrics``; ``benchmarks/bench_scaling.py`` embeds
:func:`region_breakdown` summaries into ``BENCH_scaling.json``.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    METRICS,
    MetricsRegistry,
    metrics_snapshot,
)
from .provenance import ProofEvent, proof_event, render_events
from .tracing import (
    Span,
    TRACER,
    Tracer,
    configure_tracing,
    get_tracer,
    leaf_coverage,
    region_breakdown,
    render_span_tree,
    span,
    traced_regions,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "get_tracer",
    "configure_tracing",
    "render_span_tree",
    "region_breakdown",
    "leaf_coverage",
    "traced_regions",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "metrics_snapshot",
    # provenance
    "ProofEvent",
    "proof_event",
    "render_events",
]
