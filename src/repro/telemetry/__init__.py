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

from repro._lazy import lazy_exports

# Bound eagerly: the function shares its module's name, and importing
# that module would otherwise set ``repro.telemetry.critical_path`` to it.
from repro.telemetry.critical_path import critical_path

_EXPORTS = {
    "repro.telemetry.metrics": (
        "Counter",
        "Gauge",
        "MetricsRegistry",
        "NullRegistry",
        "NULL_REGISTRY",
        "StreamingHistogram",
        "describe_metric",
        "metric_description",
    ),
    "repro.telemetry.tracing": (
        "FollowSpan",
        "NullTracer",
        "NULL_TELEMETRY",
        "NULL_TRACER",
        "RequestTrace",
        "Span",
        "TelemetrySession",
        "Tracer",
    ),
    "repro.telemetry.critical_path": (
        "AttributionTable",
        "PathSegment",
        "compute_trace_digest",
        "critical_path",
        "tail_attribution",
        "waterfall",
    ),
    "repro.telemetry.exporters": (
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
    ),
    "repro.telemetry.timeseries": (
        "TimeSeriesRecorder",
        "WindowedSeries",
        "write_timeseries_jsonl",
    ),
    "repro.telemetry.slo": (
        "Alert",
        "BurnRateRule",
        "SloMonitor",
        "SloObjective",
        "default_burn_rules",
        "paper_sla_objectives",
    ),
    "repro.telemetry.energy": (
        "EnergyMeter",
        "WAIT_COMPONENTS",
        "energy_tail_attribution",
        "segment_power_w",
        "trace_energy_j",
    ),
    "repro.telemetry.profiler": ("SimProfiler",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
