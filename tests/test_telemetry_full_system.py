"""Full-system telemetry: zero-overhead guarantee and trace consistency.

These are the PR's acceptance gates: telemetry must observe the
simulation without perturbing it (identical outcomes on vs off), traced
span durations must sum to each request's measured RTT, and the
Prometheus snapshot's percentiles must agree with exact sample-based
percentiles to within one histogram bucket width.
"""

import json

import pytest

from repro.core import mercury_stack
from repro.sim.full_system import FullSystemStack
from repro.sim.run_options import RunOptions
from repro.telemetry import (
    NULL_TRACER,
    MetricsRegistry,
    TelemetrySession,
    prometheus_text,
    trace_to_jsonl,
)
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.distributions import fixed_size


def run_system(telemetry=None, keep_samples=False, seed=3, trace_digest=False):
    system = FullSystemStack(
        stack=mercury_stack(4), memory_per_core_bytes=8 * MB, seed=seed
    )
    workload = WorkloadSpec(
        name="telemetry-test",
        get_fraction=0.9,
        key_population=5_000,
        value_sizes=fixed_size(64),
    )
    return system.run(
        workload,
        RunOptions(
            offered_rate_hz=30_000.0,
            duration_s=0.2,
            warmup_requests=5_000,
            telemetry=telemetry,
            keep_samples=keep_samples,
            trace_digest=trace_digest,
        ),
    )


class TestTraceDigestRegistry:
    def test_digest_keeps_the_callers_live_registry(self):
        # A digest with no live tracer traces internally; the pipeline's
        # metrics must still land in the caller's registry.
        registry = MetricsRegistry()
        results = run_system(
            telemetry=TelemetrySession(registry=registry, tracer=NULL_TRACER),
            trace_digest=True,
        )
        assert results.trace_digest is not None
        assert results.completed > 0
        completed = registry.counter("requests_completed_total").value
        assert completed == results.completed


class TestZeroOverheadGuarantee:
    def test_enabled_vs_disabled_outcomes_identical(self):
        plain = run_system()
        traced = run_system(telemetry=TelemetrySession())
        assert traced.completed == plain.completed
        assert traced.mean_rtt == plain.mean_rtt
        assert traced.get_hits == plain.get_hits
        assert traced.get_misses == plain.get_misses
        assert traced.mac_drops == plain.mac_drops
        assert traced.per_core_served == plain.per_core_served
        assert traced.rtt_histogram.counts == plain.rtt_histogram.counts

    def test_keep_samples_does_not_change_aggregates(self):
        lean = run_system()
        sampled = run_system(keep_samples=True)
        assert sampled.completed == lean.completed
        assert len(sampled.rtts) == sampled.completed
        assert lean.rtts == []
        assert sampled.mean_rtt == lean.mean_rtt


class TestTraceConsistency:
    def test_span_durations_sum_to_rtt(self):
        telemetry = TelemetrySession()
        results = run_system(telemetry=telemetry)
        traces = telemetry.tracer.traces
        assert len(traces) == results.completed
        for trace in traces:
            assert trace.span_total_s() == pytest.approx(
                trace.rtt_s, rel=1e-9, abs=1e-15
            )

    def test_jsonl_dump_preserves_rtt_identity(self):
        telemetry = TelemetrySession()
        run_system(telemetry=telemetry)
        for line in trace_to_jsonl(telemetry.tracer.traces).strip().split("\n"):
            record = json.loads(line)
            total = sum(span["duration_s"] for span in record["spans"])
            assert total == pytest.approx(record["rtt_s"], rel=1e-9, abs=1e-15)
            assert {s["name"] for s in record["spans"]} == {
                "queue", "network", "hash", "memcached",
            }

    def test_component_totals_match_results_breakdown(self):
        telemetry = TelemetrySession()
        results = run_system(telemetry=telemetry)
        components = telemetry.tracer.component_seconds
        for name in ("hash", "memcached", "network"):
            assert components[name] == pytest.approx(results.component_seconds[name])
        # queue time is traced too, beyond the Fig. 4 service split
        assert components["queue"] >= 0.0


class TestMetricsSnapshot:
    def test_percentiles_match_samples_within_bucket_width(self):
        telemetry = TelemetrySession()
        results = run_system(telemetry=telemetry, keep_samples=True)
        histogram = telemetry.registry.get("request_rtt_seconds")
        assert histogram.count == results.completed
        for p in (0.5, 0.95, 0.99):
            exact = results.rtt_percentile(p)  # exact: samples were kept
            estimate = histogram.percentile(p)
            assert exact / histogram.bucket_ratio <= estimate
            assert estimate <= exact * histogram.bucket_ratio

    def test_prometheus_snapshot_contents(self):
        telemetry = TelemetrySession()
        results = run_system(telemetry=telemetry)
        text = prometheus_text(telemetry.registry)
        assert 'request_rtt_seconds{quantile="0.5"}' in text
        assert 'request_rtt_seconds{quantile="0.95"}' in text
        assert 'request_rtt_seconds{quantile="0.99"}' in text
        assert f"requests_completed_total {results.completed}" in text
        assert f"get_hits_total {results.get_hits}" in text
        assert 'queue_wait_seconds{resource="core0",quantile="0.5"}' in text

    def test_histogram_percentiles_without_samples(self):
        results = run_system()
        p50 = results.rtt_percentile(0.5)
        p99 = results.rtt_percentile(0.99)
        assert 0.0 < p50 <= p99 <= results.max_rtt
        assert 0.0 < results.sla_fraction(1e-3) <= 1.0
