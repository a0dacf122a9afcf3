"""Critical-path extraction, tail attribution, waterfall, digest."""

import importlib

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    compute_trace_digest,
    critical_path,
    tail_attribution,
    waterfall,
)


def flat_trace(tracer, arrival=0.0, stages=(("queue", 3e-5), ("memcached", 1e-5))):
    trace = tracer.begin(arrival, verb="GET")
    t = arrival
    for name, duration in stages:
        trace.add_span(name, t, duration, kind="server", node="core0")
        t += duration
    trace.finish(t)
    return trace


def quorum_put_trace(tracer, arrival=0.0):
    """A PUT fanned to two replicas; the slower branch bounds the RTT."""
    trace = tracer.begin(arrival, verb="PUT")
    fast = trace.add_span("replica_put", arrival, 5e-5, kind="server", node="core0")
    trace.add_span("queue", arrival, 4e-5, parent=fast, node="core0")
    trace.add_span("memcached", arrival + 4e-5, 1e-5, parent=fast, node="core0")
    slow = trace.add_span("replica_put", arrival, 8e-5, kind="server", node="core1")
    trace.add_span("queue", arrival, 6e-5, parent=slow, node="core1")
    trace.add_span("memcached", arrival + 6e-5, 2e-5, parent=slow, node="core1")
    trace.finish(arrival + 8e-5)
    return trace


class TestCriticalPath:
    def test_flat_trace_path_is_the_stage_chain(self):
        tracer = Tracer(MetricsRegistry())
        trace = flat_trace(tracer)
        path = critical_path(trace)
        assert [segment.component for segment in path] == ["queue", "memcached"]
        assert sum(s.duration_s for s in path) == pytest.approx(trace.rtt_s)

    def test_losing_replica_branch_contributes_nothing(self):
        tracer = Tracer(MetricsRegistry())
        trace = quorum_put_trace(tracer)
        path = critical_path(trace)
        # Branch-qualified components, and only the slow (core1) branch.
        assert [s.component for s in path] == [
            "replica_put.queue",
            "replica_put.memcached",
        ]
        assert all(s.node == "core1" for s in path)
        assert sum(s.duration_s for s in path) == pytest.approx(trace.rtt_s)

    def test_uncovered_time_attributes_to_client(self):
        tracer = Tracer(MetricsRegistry())
        trace = tracer.begin(0.0)
        trace.add_span("queue", 2e-5, 3e-5)
        trace.finish(5e-5)
        path = critical_path(trace)
        assert [s.component for s in path] == ["client", "queue"]
        assert path[0].duration_s == pytest.approx(2e-5)
        assert sum(s.duration_s for s in path) == pytest.approx(trace.rtt_s)

    def test_segments_tile_the_request_interval(self):
        tracer = Tracer(MetricsRegistry())
        trace = quorum_put_trace(tracer, arrival=1.0)
        path = critical_path(trace)
        assert path[0].start_s == pytest.approx(trace.arrival_s)
        assert path[-1].end_s == pytest.approx(trace.end_s)
        for before, after in zip(path, path[1:]):
            assert before.end_s == pytest.approx(after.start_s)

    def test_unfinished_trace_rejected(self):
        trace = Tracer(MetricsRegistry()).begin(0.0)
        with pytest.raises(ConfigurationError):
            critical_path(trace)
        with pytest.raises(ConfigurationError):
            waterfall(trace)


class TestTailAttribution:
    def test_shares_sum_to_one_per_cohort(self):
        tracer = Tracer(MetricsRegistry())
        traces = [
            flat_trace(tracer, arrival=float(i), stages=(("queue", (i + 1) * 1e-5),
                                                         ("memcached", 1e-5)))
            for i in range(10)
        ]
        table = tail_attribution(traces, quantiles=(0.5, 0.9))
        for q in (0.5, 0.9):
            assert sum(table.shares[q].values()) == pytest.approx(1.0)
        assert table.cohort_sizes[0.5] == 5
        assert table.cohort_sizes[0.9] == 1
        # The tail cohort is the slowest trace: queue-dominated.
        assert table.shares[0.9]["queue"] > table.shares[0.5]["queue"]

    def test_walks_only_the_cohorts_paths(self, monkeypatch):
        # The default quantiles start at p50: the faster half of the
        # traces is in no cohort, so none of their paths is walked.
        module = importlib.import_module("repro.telemetry.critical_path")
        tracer = Tracer(MetricsRegistry())
        traces = [
            flat_trace(tracer, arrival=float(i), stages=(("queue", (i + 1) * 1e-5),
                                                         ("memcached", 1e-5)))
            for i in range(10)
        ]
        walked = []

        def counting(trace):
            walked.append(trace)
            return critical_path(trace)

        monkeypatch.setattr(module, "critical_path", counting)
        table = tail_attribution(traces)
        assert walked == traces[5:]
        assert table.cohort_sizes[0.5] == 5

    def test_render_lists_components_and_cohorts(self):
        tracer = Tracer(MetricsRegistry())
        table = tail_attribution([quorum_put_trace(tracer)], quantiles=(0.5,))
        text = table.render()
        assert "replica_put.queue" in text
        assert "cohort size" in text
        assert "p50" in text

    def test_needs_a_finished_trace(self):
        with pytest.raises(ConfigurationError):
            tail_attribution([])
        tracer = Tracer(MetricsRegistry())
        with pytest.raises(ConfigurationError):
            tail_attribution([flat_trace(tracer)], quantiles=(1.0,))


class TestWaterfall:
    def test_marks_critical_spans(self):
        tracer = Tracer(MetricsRegistry())
        trace = quorum_put_trace(tracer)
        text = waterfall(trace)
        assert f"trace {trace.request_id}" in text
        assert "#" in text  # critical bars
        assert "-" in text  # off-path bars (the losing branch)
        assert "*queue" in text
        assert "verb=PUT" in text


class TestTraceDigest:
    def test_digest_is_deterministic(self):
        def build():
            tracer = Tracer(MetricsRegistry(), sampling_seed=3)
            for i in range(5):
                tracer.commit(flat_trace(tracer, arrival=float(i)))
            return tracer

        first, second = compute_trace_digest(build()), compute_trace_digest(build())
        assert first == second
        assert first["committed"] == 5
        assert first["retained"] == 5
        assert "critical_path" in first
        assert len(first["trace_ids_sha256"]) == 16

    def test_empty_tracer_digest_has_no_critical_path(self):
        digest = compute_trace_digest(Tracer(MetricsRegistry()))
        assert digest["committed"] == 0
        assert "critical_path" not in digest
