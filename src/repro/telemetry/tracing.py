"""Causal span-tree tracing on the simulated clock.

A request crossing the full-system pipeline touches the NIC MAC, a
core's FIFO queue, and the Memcached service components; each stage is a
:class:`Span` with a start time and duration in *simulated* seconds.
Spans form a **forest** per request: every span carries a ``span_id``
and an optional ``parent_id``, so fan-out structure — quorum replica
writes, hedged GETs, verify reads — nests under wrapper spans instead of
flattening into one contiguous list.  A trace with no fan-out degrades
to the flat PR 1 layout (every span a root), which keeps the Fig. 4
identity: root span durations sum to the request's RTT.

Work that outlives the request — hinted-handoff replay, anti-entropy
sweeps, read-repair, hedge stragglers — cannot nest inside the trace
without breaking that identity, so it is emitted as a
:class:`FollowSpan` via :meth:`Tracer.follow_from`, linked back to the
originating trace by request id (the OpenTracing *follows-from*
relationship).

Committed traces feed three consumers: the JSONL trace dump, the
per-component histograms in the
:class:`~repro.telemetry.metrics.MetricsRegistry`, and the
critical-path analyzer (:mod:`repro.telemetry.critical_path`).

Retention is **deterministic tail-based sampling**: traces that violate
the configured SLO deadline or carry an error attribute are always kept
(they are the ones worth debugging), while the remaining "normal"
traces pass through a seeded Algorithm-R reservoir so the retained set
stays within ``max_traces`` and is bit-identical across same-seed runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY

#: Traces retained by default before the reservoir starts evicting (the
#: aggregates keep counting; only the per-request span lists are capped).
DEFAULT_MAX_TRACES = 100_000

#: Keys of :meth:`RequestTrace.to_dict` that user attrs may not shadow;
#: attrs live under the ``"attrs"`` key precisely so they cannot.
RESERVED_TRACE_KEYS = frozenset({"request_id", "arrival_s", "rtt_s", "attrs", "spans"})


class Span:
    """One stage of one request, a node in the trace's causal forest.

    ``span_id`` is unique within its trace; ``parent_id`` is ``None``
    for root spans (direct children of the request itself).  ``kind``
    is a coarse role tag (``server``, ``client``, ``producer``,
    ``internal``); ``node`` and ``stack`` say *where* the time went
    (e.g. ``core2`` on the ``mercury-4`` stack).

    A plain slotted class, not a dataclass: several Spans are built per
    request on the tracing hot path, and a hand-written ``__init__``
    is measurably cheaper than the generated (frozen) one.  Treat
    instances as immutable.
    """

    __slots__ = (
        "name", "start_s", "duration_s", "span_id",
        "parent_id", "kind", "node", "stack",
    )

    def __init__(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        span_id: int = 0,
        parent_id: int | None = None,
        kind: str = "internal",
        node: str = "",
        stack: str = "",
    ):
        self.name = name
        self.start_s = start_s
        self.duration_s = duration_s
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.node = node
        self.stack = stack

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.start_s}, {self.duration_s}, "
            f"span_id={self.span_id}, parent_id={self.parent_id}, "
            f"kind={self.kind!r}, node={self.node!r}, stack={self.stack!r})"
        )


class FollowSpan:
    """Background work causally linked to (but outside) a request trace.

    ``follows_from`` is the originating trace's request id, or ``None``
    when the work has no single originating request (an anti-entropy
    sweep repairs keys from many writers).  Slotted for the same
    hot-path reason as :class:`Span`; treat instances as immutable.
    """

    __slots__ = (
        "name", "start_s", "duration_s", "node", "stack",
        "kind", "follows_from",
    )

    def __init__(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        node: str = "",
        stack: str = "",
        kind: str = "producer",
        follows_from: int | None = None,
    ):
        self.name = name
        self.start_s = start_s
        self.duration_s = duration_s
        self.node = node
        self.stack = stack
        self.kind = kind
        self.follows_from = follows_from

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def __repr__(self) -> str:
        return (
            f"FollowSpan({self.name!r}, {self.start_s}, {self.duration_s}, "
            f"node={self.node!r}, stack={self.stack!r}, kind={self.kind!r}, "
            f"follows_from={self.follows_from})"
        )


@dataclass(slots=True)
class RequestTrace:
    """The span tree and outcome of a single request."""

    request_id: int
    arrival_s: float
    attrs: dict = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    end_s: float | None = None
    _next_span_id: int = field(default=1, repr=False, compare=False)

    def add_span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        *,
        parent: Span | int | None = None,
        kind: str = "internal",
        node: str = "",
        stack: str = "",
    ) -> Span:
        """Append a span and return it (so callers can parent under it).

        ``parent`` accepts a :class:`Span` from the same trace or a raw
        span id; ``None`` makes a root span.
        """
        if duration_s < 0:
            raise ConfigurationError("span duration cannot be negative")
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        span = Span(name, start_s, duration_s, span_id, parent_id, kind, node, stack)
        self.spans.append(span)
        return span

    def annotate(self, **attrs) -> None:
        """Merge request-level attributes (core, verb, hit, error, ...)."""
        self.attrs.update(attrs)

    def finish(self, end_s: float) -> None:
        if end_s < self.arrival_s:
            raise ConfigurationError("trace cannot end before it arrived")
        self.end_s = end_s

    @property
    def rtt_s(self) -> float:
        if self.end_s is None:
            raise ConfigurationError("trace not finished")
        return self.end_s - self.arrival_s

    @property
    def is_error(self) -> bool:
        """True when the request did not complete (``error`` attr set)."""
        return "error" in self.attrs

    def span_total_s(self) -> float:
        """Total *root* span time — nested children refine their parent's
        interval rather than adding to it, preserving the RTT identity."""
        return sum(span.duration_s for span in self.spans if span.parent_id is None)

    def child_map(self) -> dict[int | None, list[Span]]:
        """Spans grouped by ``parent_id`` (key ``None`` = roots),
        preserving append order within each group."""
        children: dict[int | None, list[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent_id, []).append(span)
        return children

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent_id is None]

    def to_dict(self) -> dict:
        """JSON-safe record.  User attrs are namespaced under ``"attrs"``
        so an attr named ``spans`` or ``rtt_s`` can never shadow the
        reserved keys (:data:`RESERVED_TRACE_KEYS`)."""
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "rtt_s": self.rtt_s,
            "attrs": dict(self.attrs),
            "spans": [
                {
                    "name": s.name,
                    "start_s": s.start_s,
                    "duration_s": s.duration_s,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "kind": s.kind,
                    "node": s.node,
                    "stack": s.stack,
                }
                for s in self.spans
            ],
        }


class Tracer:
    """Collects request traces and folds them into component aggregates.

    ``slo_deadline_s`` arms tail-based sampling: a committed trace whose
    RTT exceeds the deadline (or that carries an ``error`` attr) is a
    *keeper* and is always retained; the rest compete for the remaining
    ``max_traces`` slots through a seeded reservoir.  Keepers are never
    evicted — if violations alone exceed ``max_traces`` the cap yields,
    because losing the evidence of an SLA breach is worse than a larger
    retained set.  Without a deadline only error traces are keepers,
    which on an error-free workload reduces to a uniform reservoir
    sample of size ``max_traces``.
    """

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        max_traces: int = DEFAULT_MAX_TRACES,
        *,
        slo_deadline_s: float | None = None,
        sampling_seed: int = 0,
        max_follow_spans: int = DEFAULT_MAX_TRACES,
    ):
        if max_traces < 0:
            raise ConfigurationError("max_traces cannot be negative")
        if slo_deadline_s is not None and slo_deadline_s <= 0:
            raise ConfigurationError("SLO deadline must be positive")
        if max_follow_spans < 0:
            raise ConfigurationError("max_follow_spans cannot be negative")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_traces = max_traces
        self.slo_deadline_s = slo_deadline_s
        self.sampling_seed = sampling_seed
        self.max_follow_spans = max_follow_spans
        self.committed = 0
        self.dropped_traces = 0
        self.slo_violations = 0
        self.component_seconds: dict[str, float] = {}
        self.follow_spans: list[FollowSpan] = []
        self.dropped_follow_spans = 0
        self._keepers: list[RequestTrace] = []
        self._reservoir: list[RequestTrace] = []
        self._normals_seen = 0
        self._next_id = 0
        # Plain int seed: deterministic across processes (no str hashing).
        self._rng = random.Random(sampling_seed)
        self._committed_total = self.registry.counter("tracer_committed_total")
        self._dropped_total = self.registry.counter("tracer_dropped_traces_total")
        self._sampled_total = self.registry.counter("tracer_sampled_total")
        # Hot-path caches: registry.histogram() normalizes labels on
        # every call, which dominates commit() at full-system rates.
        self._span_histograms: dict = {}
        self._rtt_histogram = None
        self._error_rtt_histogram = None

    def _span_histogram(self, component: str):
        histogram = self._span_histograms.get(component)
        if histogram is None:
            histogram = self.registry.histogram(
                "span_duration_seconds", labels={"component": component}
            )
            self._span_histograms[component] = histogram
        return histogram

    @property
    def traces(self) -> list[RequestTrace]:
        """Retained traces (keepers + reservoir), in request-id order."""
        return sorted(
            self._keepers + self._reservoir, key=lambda trace: trace.request_id
        )

    def begin(self, arrival_s: float, **attrs) -> RequestTrace:
        """Open a trace for a request arriving at ``arrival_s``."""
        trace = RequestTrace(
            request_id=self._next_id, arrival_s=arrival_s, attrs=dict(attrs)
        )
        self._next_id += 1
        return trace

    def commit(self, trace: RequestTrace) -> None:
        """Finalize a finished trace: aggregate spans, then sample."""
        if trace.end_s is None:
            raise ConfigurationError("commit requires a finished trace")
        self.committed += 1
        self._committed_total.inc()
        component_seconds = self.component_seconds
        histograms = self._span_histograms
        for span in trace.spans:
            name = span.name
            duration = span.duration_s
            component_seconds[name] = component_seconds.get(name, 0.0) + duration
            histogram = histograms.get(name)
            if histogram is None:
                histogram = self._span_histogram(name)
            histogram.record(duration)
        if trace.is_error:
            # Errored requests never completed: keep the unlabeled RTT
            # histogram equal to the completed-request population.
            if self._error_rtt_histogram is None:
                self._error_rtt_histogram = self.registry.histogram(
                    "request_rtt_seconds", labels={"outcome": "error"}
                )
            self._error_rtt_histogram.record(trace.rtt_s)
        else:
            if self._rtt_histogram is None:
                self._rtt_histogram = self.registry.histogram(
                    "request_rtt_seconds"
                )
            self._rtt_histogram.record(trace.rtt_s, exemplar=trace.request_id)
        self._retain(trace)

    # --- tail-based sampling -----------------------------------------------------

    def is_keeper(self, trace: RequestTrace) -> bool:
        """Would tail sampling always retain this trace?"""
        if trace.is_error:
            return True
        return self.slo_deadline_s is not None and trace.rtt_s > self.slo_deadline_s

    def _drop(self, count: int = 1) -> None:
        self.dropped_traces += count
        self._dropped_total.inc(count)

    def _retain(self, trace: RequestTrace) -> None:
        keeper = self.is_keeper(trace)
        if keeper:
            self.slo_violations += 1
        if self.max_traces == 0:
            self._drop()
            return
        if keeper:
            self._keepers.append(self._keep(trace))
            self._sampled_total.inc()
            # Evict reservoir normals (never keepers) to honor the cap.
            while (
                len(self._keepers) + len(self._reservoir) > self.max_traces
                and self._reservoir
            ):
                victim = self._rng.randrange(len(self._reservoir))
                self._reservoir.pop(victim)
                self._drop()
            return
        capacity = self.max_traces - len(self._keepers)
        if capacity <= 0:
            self._drop()
            return
        self._normals_seen += 1
        if len(self._reservoir) < capacity:
            self._reservoir.append(self._keep(trace))
            self._sampled_total.inc()
            return
        # Algorithm R: the new normal replaces a random resident with
        # probability reservoir_size / normals_seen.
        slot = self._rng.randrange(self._normals_seen)
        if slot < len(self._reservoir):
            self._reservoir[slot] = self._keep(trace)
            self._sampled_total.inc()
        self._drop()

    def _keep(self, trace: RequestTrace):
        """What a retention slot holds for an admitted trace: here the
        trace itself (:class:`~repro.telemetry.critical_path.DigestTracer`
        holds its digest record)."""
        return trace

    # --- follows-from ------------------------------------------------------------

    def follow_from(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        *,
        node: str = "",
        stack: str = "",
        kind: str = "producer",
        trace: RequestTrace | int | None = None,
    ) -> FollowSpan | None:
        """Record background work linked to (but outside) a trace.

        ``trace`` is the originating :class:`RequestTrace` or its
        request id (``None`` for unattributed background work).  The
        duration folds into the component aggregates either way; the
        span object itself is retained up to ``max_follow_spans``.
        """
        if duration_s < 0:
            raise ConfigurationError("span duration cannot be negative")
        origin = trace.request_id if isinstance(trace, RequestTrace) else trace
        if origin is not None and origin < 0:
            origin = None  # a null trace's sentinel id carries no link
        self.component_seconds[name] = (
            self.component_seconds.get(name, 0.0) + duration_s
        )
        self._span_histogram(name).record(duration_s)
        span = FollowSpan(
            name=name,
            start_s=start_s,
            duration_s=duration_s,
            node=node,
            stack=stack,
            kind=kind,
            follows_from=origin,
        )
        if len(self.follow_spans) < self.max_follow_spans:
            self.follow_spans.append(span)
        else:
            self.dropped_follow_spans += 1
        return span

    def breakdown_fractions(self) -> dict[str, float]:
        """Component shares of total traced time (the Fig. 4 split)."""
        total = sum(self.component_seconds.values())
        if total == 0.0:
            return {name: 0.0 for name in self.component_seconds}
        return {
            name: seconds / total for name, seconds in self.component_seconds.items()
        }


#: Inert span handed out by the null trace so fan-out call sites can
#: still parent under the return value without branching.
_NULL_SPAN = Span("null", 0.0, 0.0)


class _NullTrace(RequestTrace):
    def add_span(self, name, start_s, duration_s, **kwargs) -> Span:
        return _NULL_SPAN

    def annotate(self, **attrs) -> None:
        pass

    def finish(self, end_s: float) -> None:
        pass


class NullTracer(Tracer):
    """No-op tracer: begin() hands out one shared inert trace."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(registry=NULL_REGISTRY, max_traces=0)
        self._trace = _NullTrace(request_id=-1, arrival_s=0.0)

    @property
    def traces(self) -> list[RequestTrace]:
        return []

    def begin(self, arrival_s: float, **attrs) -> RequestTrace:
        return self._trace

    def commit(self, trace: RequestTrace) -> None:
        pass

    def follow_from(self, name, start_s, duration_s, **kwargs) -> FollowSpan | None:
        return None


#: Shared no-op tracer, the default wherever tracing is optional.
NULL_TRACER = NullTracer()


class TelemetrySession:
    """One run's registry + tracer, handed to instrumented components.

    ``TelemetrySession()`` gives live telemetry; :data:`NULL_TELEMETRY`
    (the default everywhere) gives the zero-cost no-op pair.
    ``slo_deadline_s`` and ``sampling_seed`` configure the tracer's
    tail-based sampling (see :class:`Tracer`).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        max_traces: int = DEFAULT_MAX_TRACES,
        slo_deadline_s: float | None = None,
        sampling_seed: int = 0,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(
                self.registry,
                max_traces=max_traces,
                slo_deadline_s=slo_deadline_s,
                sampling_seed=sampling_seed,
            )
        )

    @property
    def enabled(self) -> bool:
        return self.registry.enabled or self.tracer.enabled


class _NullTelemetry(TelemetrySession):
    def __init__(self) -> None:
        super().__init__(registry=NULL_REGISTRY, tracer=NULL_TRACER)


#: Shared disabled session: instrumentation against it records nothing.
NULL_TELEMETRY = _NullTelemetry()
