"""Digest-only tracing: each retained trace folds to its critical path.

A run that asks for ``trace_digest`` with no live tracer attached traces
through a :class:`DigestTracer`, which keeps one flat record per
retained trace instead of its span tree.  These tests hold it to the
live tracer's digest byte for byte (same sampling, same attribution),
hold the iterative critical-path walk to the recursive one it replaced,
and check that neither the walk nor the retained set leaves work for
the cyclic GC.
"""

from __future__ import annotations

import gc
import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mercury_stack
from repro.errors import ConfigurationError
from repro.faults import ResiliencePolicy
from repro.faults.schedule import crash_restart, lossy_link
from repro.replication.config import ReplicationConfig
from repro.sim.full_system import FullSystemStack, RequestPipeline
from repro.sim.run_options import RunOptions
from repro.telemetry import (
    FollowSpan,
    MetricsRegistry,
    PathSegment,
    RequestTrace,
    Span,
    TelemetrySession,
    Tracer,
    compute_trace_digest,
    critical_path,
)
from repro.telemetry.critical_path import (
    DigestTracer,
    digest_record,
    path_record,
)
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.distributions import fixed_size

#: The tail-sampling deadline a digest-only run uses (the paper SLA).
SLA_S = 1.1e-3

WORKLOAD = WorkloadSpec(
    name="digest-tracer",
    get_fraction=0.5,
    key_population=2_000,
    value_sizes=fixed_size(64),
)


def reference_critical_path(
    trace: RequestTrace, eps: float = 1e-12
) -> list[PathSegment]:
    """The recursive walk ``critical_path`` replaced, copied verbatim."""
    if trace.end_s is None:
        raise ConfigurationError("critical path requires a finished trace")
    children = trace.child_map()
    segments: list[PathSegment] = []

    def emit(
        component: str, start: float, end: float, node: str, span_id: int | None
    ) -> None:
        if end - start > 0.0:
            segments.append(PathSegment(component, start, end - start, node, span_id))

    def walk(
        component: str,
        branch: str | None,
        start: float,
        end: float,
        kids,
        node: str,
        span_id: int | None,
    ) -> None:
        current = end
        ordered = sorted(
            kids, key=lambda s: (s.end_s, s.start_s, s.span_id), reverse=True
        )
        for child in ordered:
            if current - start <= eps:
                break
            if child.end_s > current + eps:
                continue  # overlaps an interval already attributed
            child_end = min(child.end_s, current)
            child_start = max(min(child.start_s, child_end), start)
            emit(component, child_end, current, node, span_id)
            walk(
                child.name if branch is None else f"{branch}.{child.name}",
                child.name if branch is None else branch,
                child_start,
                child_end,
                children.get(child.span_id, ()),
                child.node,
                child.span_id,
            )
            current = child_start
        emit(component, start, current, node, span_id)

    walk(
        "client", None, trace.arrival_s, trace.end_s, children.get(None, ()), "", None
    )
    segments.reverse()
    return segments


def reference_record(trace: RequestTrace) -> tuple:
    record = [trace.rtt_s, trace.request_id]
    for segment in reference_critical_path(trace):
        record += segment.component, segment.duration_s
    return tuple(record)


# --- span forests -------------------------------------------------------------------

#: Times on a coarse grid, nudged by multiples of a third of the walk's
#: eps so that ends land within eps of each other, on either side.
_times = st.builds(
    lambda grid, nudge: grid * 1e-6 + nudge * 3e-13,
    st.integers(0, 12),
    st.integers(-4, 4),
)
_spans = st.lists(
    st.tuples(
        st.integers(-1, 30),  # parent: an earlier span's index, or a root
        _times,  # start
        st.one_of(st.just(0.0), _times.map(abs)),  # duration (zero-length too)
        st.sampled_from(["queue", "memcached", "replica_put", "hedge", "net"]),
    ),
    max_size=24,
)


def build_trace(arrival: float, spans, tail: float, request_id: int = 0):
    trace = RequestTrace(request_id=request_id, arrival_s=arrival)
    made = []
    for parent, start, duration, name in spans:
        parent_span = made[parent] if 0 <= parent < len(made) else None
        made.append(
            trace.add_span(
                name, arrival + start, duration, parent=parent_span,
                node=f"core{len(made) % 3}",
            )
        )
    end = max([arrival + abs(tail)] + [span.end_s for span in made])
    trace.finish(end)
    return trace


class TestIterativeWalk:
    @settings(max_examples=300, deadline=None)
    @given(arrival=_times, spans=_spans, tail=_times)
    def test_matches_the_recursive_walk_on_span_forests(self, arrival, spans, tail):
        trace = build_trace(arrival, spans, tail)
        expected = reference_critical_path(trace)
        assert critical_path(trace) == expected
        assert critical_path(trace, eps=0.0) == reference_critical_path(trace, 0.0)
        assert digest_record(trace) == path_record(trace) == reference_record(trace)

    def test_matches_the_recursive_walk_on_a_quorum_cell(self):
        session = TelemetrySession()
        stack = FullSystemStack(
            stack=mercury_stack(4), memory_per_core_bytes=1 * MB, seed=5
        )
        stack.run(WORKLOAD, quorum_options(session=session, duration_s=0.15))
        traces = session.tracer.traces
        assert len(traces) > 500
        assert any(
            span.parent_id is not None for trace in traces for span in trace.spans
        )
        for trace in traces:
            assert critical_path(trace) == reference_critical_path(trace)
            assert digest_record(trace) == reference_record(trace)

    def test_deep_chain_does_not_recurse(self):
        # The recursive walk needed one Python frame per level and hit
        # the recursion limit here.
        trace = RequestTrace(request_id=0, arrival_s=0.0)
        parent = None
        for depth in range(3_000):
            parent = trace.add_span(
                "hop", depth * 1e-9, 1.0 - 2 * depth * 1e-9, parent=parent
            )
        trace.finish(1.0)
        path = critical_path(trace)
        # A leading and a trailing gap per enclosing span, then the leaf.
        assert len(path) == 2 * 2_999 + 1
        assert math.fsum(s.duration_s for s in path) == pytest.approx(1.0)

    def test_parent_cycle_is_rejected(self):
        # Only a hand-built span list can repeat a span id; a span whose
        # parent id is its own would otherwise be descended forever.
        trace = RequestTrace(
            request_id=0,
            arrival_s=0.0,
            spans=[
                Span("replica_put", 0.0, 1e-5, span_id=1),
                Span("queue", 0.0, 1e-5, span_id=1, parent_id=1),
            ],
        )
        trace.finish(1e-5)
        with pytest.raises(ConfigurationError):
            critical_path(trace)

    def test_leaves_no_cyclic_garbage(self):
        tracer = Tracer(MetricsRegistry())
        traces = []
        for i in range(50):
            trace = tracer.begin(float(i))
            fan = trace.add_span("replica_put", float(i), 5e-5, node="core0")
            trace.add_span("queue", float(i), 4e-5, parent=fan)
            trace.add_span("memcached", i + 4e-5, 1e-5, parent=fan)
            trace.add_span("queue", float(i), 2e-5)
            trace.finish(i + 6e-5)
            traces.append(trace)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for trace in traces:
                critical_path(trace)
                digest_record(trace)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


# --- sampling ---------------------------------------------------------------------

_finished = st.lists(
    st.tuples(
        st.integers(1, 40),  # RTT in units of 50 us: above 1.1 ms from 23 on
        st.booleans(),  # error
        st.booleans(),  # fan out under a wrapper
    ),
    max_size=60,
)


class TestDigestTracerSampling:
    def test_keepers_and_reservoir_eviction_match_the_live_tracer(self):
        registry = MetricsRegistry()
        live = Tracer(registry, max_traces=40, slo_deadline_s=SLA_S,
                      sampling_seed=11)
        folded = DigestTracer(MetricsRegistry(), max_traces=40,
                              slo_deadline_s=SLA_S, sampling_seed=11)

        def commit(ids, units):
            for i in ids:
                rtt = units(i) * 50e-6
                trace = RequestTrace(request_id=i, arrival_s=i * 1e-3)
                wrapper = trace.add_span("replica_put", i * 1e-3, rtt, node="core1")
                trace.add_span("queue", i * 1e-3, rtt * 0.75, parent=wrapper)
                trace.add_span(
                    "memcached", i * 1e-3 + rtt * 0.75, rtt / 4, parent=wrapper
                )
                if i % 37 == 0:
                    trace.annotate(error="gave_up")
                trace.finish(i * 1e-3 + rtt)
                live.commit(trace)
                folded.commit(trace)
            assert folded.records == [path_record(t) for t in live.traces]
            assert compute_trace_digest(folded) == compute_trace_digest(live)

        # Normals under the deadline overflow the reservoir: Algorithm R
        # replaces residents and drops the rest.
        commit(range(200), lambda i: 1 + (i * 7919) % 20)
        assert live.dropped_traces > 0
        assert live.slo_violations < 40
        admitted = registry.counter("tracer_sampled_total").value
        assert admitted > len(live.traces)
        # Then SLA violators: each evicts a reservoir normal, until the
        # keepers alone pass the cap.
        commit(range(200, 400), lambda i: 23 + i % 17)
        assert live.slo_violations > 40
        assert all(record[0] > SLA_S or record[1] % 37 == 0
                   for record in folded.records)

    @settings(max_examples=150, deadline=None)
    @given(
        finished=_finished,
        max_traces=st.integers(0, 8),
        seed=st.integers(0, 3),
    )
    def test_same_digest_as_a_live_tracer(self, finished, max_traces, seed):
        live = Tracer(MetricsRegistry(), max_traces=max_traces,
                      slo_deadline_s=SLA_S, sampling_seed=seed)
        folded = DigestTracer(MetricsRegistry(), max_traces=max_traces,
                              slo_deadline_s=SLA_S, sampling_seed=seed)
        for i, (units, error, fan_out) in enumerate(finished):
            rtt = units * 50e-6
            trace = RequestTrace(request_id=i, arrival_s=float(i))
            parent = (
                trace.add_span("replica_put", float(i), rtt) if fan_out else None
            )
            trace.add_span("queue", float(i), rtt / 2, parent=parent)
            trace.add_span("memcached", i + rtt / 2, rtt / 2, parent=parent)
            if error:
                trace.annotate(error="gave_up")
            trace.finish(i + rtt)
            live.commit(trace)
            folded.commit(trace)
        assert folded.records == [path_record(trace) for trace in live.traces]
        assert compute_trace_digest(folded) == compute_trace_digest(live)

    def test_rejected_traces_are_never_walked(self, monkeypatch):
        module = importlib.import_module("repro.telemetry.critical_path")
        walked = []
        original = module._walk

        def counting(trace, eps):
            walked.append(trace.request_id)
            return original(trace, eps)

        monkeypatch.setattr(module, "_walk", counting)
        registry = MetricsRegistry()
        tracer = DigestTracer(registry, max_traces=3, sampling_seed=2)
        for i in range(50):
            trace = RequestTrace(request_id=i, arrival_s=float(i))
            trace.add_span("queue", float(i), 1e-5)
            trace.finish(i + 1e-5)
            tracer.commit(trace)
        admitted = registry.counter("tracer_sampled_total").value
        assert admitted < tracer.committed
        assert len(walked) == admitted

    def test_keeps_records_not_span_trees(self):
        tracer = DigestTracer(MetricsRegistry())
        trace = RequestTrace(request_id=0, arrival_s=0.0)
        trace.add_span("queue", 0.0, 1e-5)
        trace.finish(1e-5)
        tracer.commit(trace)
        tracer.follow_from("anti_entropy", 0.0, 1e-4)
        assert tracer.records == [(1e-5, 0, "queue", 1e-5)]
        assert tracer.follow_spans == []
        with pytest.raises(ConfigurationError):
            tracer.traces


# --- whole runs -------------------------------------------------------------------


def quorum_options(session=None, duration_s=0.3):
    return RunOptions(
        offered_rate_hz=5_000.0, duration_s=duration_s, warmup_requests=2_000,
        fill_on_miss=True,
        faults=crash_restart("core1", 0.1, 0.2),
        resilience=ResiliencePolicy(failover_after=None),
        replication=ReplicationConfig(
            n=3, r=2, w=2, hinted_handoff=True, anti_entropy_interval_s=0.08
        ),
        trace_digest=True,
        telemetry=session,
    )


def hedged_options(session=None):
    return RunOptions(
        offered_rate_hz=10_000.0, duration_s=0.2, warmup_requests=2_000,
        resilience=ResiliencePolicy(hedge_after_s=120e-6),
        trace_digest=True,
        telemetry=session,
    )


def lossy_options(session=None):
    return RunOptions(
        offered_rate_hz=10_000.0, duration_s=0.2, warmup_requests=2_000,
        faults=lossy_link(0.3),
        resilience=ResiliencePolicy(max_retries=1, failover_after=None),
        trace_digest=True,
        telemetry=session,
    )


CELLS = {
    "quorum-crash": (quorum_options, lambda r: r.hints_replayed > 0),
    "hedged": (hedged_options, lambda r: r.hedges > 0),
    "lossy": (lossy_options, lambda r: r.retries > 0 and r.failed > 0),
}


def run_cell(name: str, seed: int, session=None):
    options, _ = CELLS[name]
    stack = FullSystemStack(
        stack=mercury_stack(4), memory_per_core_bytes=1 * MB, seed=seed
    )
    return stack.run(WORKLOAD, options(session))


class TestDigestOnlyRuns:
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_folded_digest_equals_a_live_tracers(self, name):
        seed = 3
        folded = run_cell(name, seed)
        live = run_cell(
            name, seed, TelemetrySession(slo_deadline_s=SLA_S, sampling_seed=seed)
        )
        assert CELLS[name][1](folded)
        digest = folded.trace_digest
        assert digest["retained"] > 0
        assert "critical_path" in digest
        assert digest == live.trace_digest
        assert folded.to_dict() == live.to_dict()
        if name == "lossy":
            # Give-ups are error traces, kept whatever their RTT.
            assert digest["slo_violations"] >= folded.failed > 0

    def test_retains_no_span_trees(self, monkeypatch):
        captured = []
        finish = RequestPipeline.finish

        def capture(pipeline):
            captured.append(pipeline.tracer)
            return finish(pipeline)

        monkeypatch.setattr(RequestPipeline, "finish", capture)
        results = run_cell("quorum-crash", 3)
        (tracer,) = captured
        assert results.trace_digest["retained"] > 0
        records = tracer._keepers + tracer._reservoir
        assert len(records) == results.trace_digest["retained"]
        seen = set()
        pending = records + list(tracer.follow_spans)
        while pending:
            obj = pending.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (RequestTrace, Span, FollowSpan)), obj
            pending.extend(gc.get_referents(obj))
