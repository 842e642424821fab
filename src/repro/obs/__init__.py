"""Runtime observability: structured traces, metrics, phase profiling.

The serving runtime's only visibility used to be ``OpCounters`` totals
and the coarse ``StreamMetrics`` summary.  This package adds the three
observability primitives a production deployment needs, as *composable*
pieces that never perturb the run they observe:

* :class:`~repro.obs.trace.TraceRecorder` — structured JSONL span and
  event records using the journal's canonical-JSON framing
  (:mod:`repro.journal.wal`).  Wall-clock lives only under each
  record's ``timing`` sub-object, so two traces of the same
  :class:`~repro.runtime.RunSpec` are byte-identical once timing is
  masked (:func:`~repro.obs.trace.masked_trace_bytes`).
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  fixed-bucket log2 streaming histograms with exact, deterministic
  p50/p95/p99 (:class:`~repro.obs.metrics.LogHistogram`).
* :class:`~repro.obs.profile.PhaseProfiler` — attributes wall time
  *and* :class:`~repro.core.instrumentation.OpCounters` deltas to
  named phases (index-repair / solve / reconcile / journal), with
  :class:`~repro.obs.profile.ProfiledLayer` wrapping any other serving
  layer's hooks into a phase.

:class:`~repro.obs.layer.Telemetry` bundles all three per run;
:class:`~repro.obs.layer.TelemetryLayer` is the
:class:`~repro.runtime.layers.ServingLayer` that plugs the bundle into
the streaming seam.  ``RunSpec(telemetry=True, trace_out=...)`` is the
spec-level switch; ``python -m repro trace-report`` renders a trace.

Zero-overhead contract: attaching telemetry must not change the plan,
the stream metrics, or a single op count — every cell of
``python -m repro bench matrix`` gates it across the {plain, stream}
x shards x journal x backend grid.

On top of the record stream sits the trace analytics engine:

* :mod:`repro.obs.causal` — every record carries a deterministic
  ``causal`` span id; :class:`~repro.obs.causal.SpanGraph` builds the
  per-run span tree, attributes per-task end-to-end cost, and computes
  the critical path in exact virtual-cost units.
* :mod:`repro.obs.query` — :class:`~repro.obs.query.TraceQuery`
  filter/aggregate chains and :func:`~repro.obs.query.diff_traces`
  first-divergence localization (``python -m repro trace-diff``).
* :mod:`repro.obs.regress` — the committed op-count regression ledger
  (``benchmarks/baselines/``, ``python -m repro bench-regress``).
"""

from repro.obs.causal import CriticalPath, Span, SpanGraph, causal_id
from repro.obs.layer import Telemetry, TelemetryLayer
from repro.obs.metrics import Counter, Gauge, LogHistogram, MetricsRegistry
from repro.obs.profile import PhaseProfiler, PhaseStat, ProfiledLayer
from repro.obs.query import TraceDivergence, TraceQuery, diff_traces
from repro.obs.trace import (
    TraceRecorder,
    mask_timing,
    masked_trace_bytes,
    read_trace,
)

__all__ = [
    "Counter",
    "CriticalPath",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "PhaseStat",
    "ProfiledLayer",
    "Span",
    "SpanGraph",
    "Telemetry",
    "TelemetryLayer",
    "TraceDivergence",
    "TraceQuery",
    "TraceRecorder",
    "causal_id",
    "diff_traces",
    "mask_timing",
    "masked_trace_bytes",
    "read_trace",
]
