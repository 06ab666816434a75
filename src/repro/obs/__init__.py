"""Observability + resilience layer: tracing, metrics, solve policies.

Everything time- and effort-related flows through this package:

- :mod:`repro.obs.clock` — the one place allowed to read the wall clock
  (lint rule C006 bans ``time.perf_counter()`` / ``time.time()`` elsewhere
  outside :mod:`repro.runtime`);
- :mod:`repro.obs.tracing` — spans over the solve pipeline plus a sampled
  B&B node-event stream, exportable as JSON and renderable as a text flame
  summary (``repro design --trace``);
- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters / gauges / histograms the solver stack writes into;
- :mod:`repro.obs.policy` — :class:`SolvePolicy` (deadline, node budget,
  gap tolerance, degradation ladder, incumbent checkpointing), its
  :class:`SolverOptions` block (root cut and presolve rounds), and the
  :class:`FallbackReport` provenance record.

The blessed public names (re-exported by :mod:`repro.api`): ``SolvePolicy``,
``FallbackReport``, ``MetricsRegistry``, ``trace_solve``, ``get_metrics``.
"""

from repro.obs.clock import Stopwatch, now
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
    use_metrics,
)
from repro.obs.policy import (
    DEFAULT_FALLBACK,
    FALLBACK_RUNGS,
    CheckpointStore,
    FallbackReport,
    SolvePolicy,
    SolverOptions,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    current_tracer,
    event,
    node_event,
    set_tracer,
    span,
    trace_solve,
)

__all__ = [
    "CheckpointStore",
    "Counter",
    "DEFAULT_FALLBACK",
    "FALLBACK_RUNGS",
    "FallbackReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SolvePolicy",
    "SolverOptions",
    "Span",
    "Stopwatch",
    "Tracer",
    "current_tracer",
    "event",
    "get_metrics",
    "node_event",
    "now",
    "set_metrics",
    "set_tracer",
    "span",
    "trace_solve",
    "use_metrics",
]
