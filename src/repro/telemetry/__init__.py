"""Telemetry: metric primitives, request tracing, pluggable exporters.

The observability layer for the simulator and kvstore.  Everything is
opt-in: instrumented components default to :data:`NULL_TELEMETRY` /
:data:`NULL_REGISTRY`, whose methods are no-ops, so a run without
telemetry is byte-for-byte identical to the uninstrumented code path.

Enable it by constructing a :class:`TelemetrySession` and attaching it
to a run as ``RunOptions(..., telemetry=session)``, then export with
:func:`write_trace_jsonl`, :func:`prometheus_text`, or
:func:`summary_table` — or from the shell: ``python -m repro telemetry``.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    StreamingHistogram,
    describe_metric,
    metric_description,
)
from repro.telemetry.tracing import (
    FollowSpan,
    NullTracer,
    NULL_TELEMETRY,
    NULL_TRACER,
    RequestTrace,
    Span,
    TelemetrySession,
    Tracer,
)
from repro.telemetry.critical_path import (
    AttributionTable,
    PathSegment,
    compute_trace_digest,
    critical_path,
    tail_attribution,
    waterfall,
)
from repro.telemetry.exporters import (
    escape_label_value,
    prometheus_text,
    summary_table,
    trace_events,
    trace_events_json,
    trace_to_jsonl,
    validate_trace_events,
    write_prometheus,
    write_trace_events,
    write_trace_jsonl,
)
from repro.telemetry.timeseries import (
    TimeSeriesRecorder,
    WindowedSeries,
    write_timeseries_jsonl,
)
from repro.telemetry.slo import (
    Alert,
    BurnRateRule,
    SloMonitor,
    SloObjective,
    default_burn_rules,
    paper_sla_objectives,
)
from repro.telemetry.energy import (
    EnergyMeter,
    WAIT_COMPONENTS,
    energy_tail_attribution,
    segment_power_w,
    trace_energy_j,
)
from repro.telemetry.profiler import SimProfiler

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "StreamingHistogram",
    "describe_metric",
    "metric_description",
    "FollowSpan",
    "NullTracer",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "RequestTrace",
    "Span",
    "TelemetrySession",
    "Tracer",
    "AttributionTable",
    "PathSegment",
    "compute_trace_digest",
    "critical_path",
    "tail_attribution",
    "waterfall",
    "escape_label_value",
    "prometheus_text",
    "summary_table",
    "trace_events",
    "trace_events_json",
    "trace_to_jsonl",
    "validate_trace_events",
    "write_prometheus",
    "write_trace_events",
    "write_trace_jsonl",
    "TimeSeriesRecorder",
    "WindowedSeries",
    "write_timeseries_jsonl",
    "Alert",
    "BurnRateRule",
    "SloMonitor",
    "SloObjective",
    "default_burn_rules",
    "paper_sla_objectives",
    "EnergyMeter",
    "WAIT_COMPONENTS",
    "energy_tail_attribution",
    "segment_power_w",
    "trace_energy_j",
    "SimProfiler",
]
