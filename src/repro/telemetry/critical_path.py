"""Critical-path extraction and tail attribution over causal traces.

The Fig. 4 component breakdown explains the *average* RTT; the 1.1 ms /
99.9 % SLA is a *tail* property, and with quorum fan-out, hedged GETs
and fault windows in the pipeline, the mean no longer says which branch
put a request over the deadline.  This module answers that: for each
committed trace, :func:`critical_path` walks the span tree backwards
from the completion time and extracts the unique chain of intervals
that *bounded* the RTT — a replica branch that lost the W-ack race
contributes nothing, the one that arrived W-th contributes its whole
chain.  The extracted segments exactly tile ``[arrival, end]``, so
their durations sum to the RTT (an identity, tested as one).

Components on the path are branch-qualified: a ``queue`` span nested
under a ``replica_put`` wrapper reports as ``replica_put.queue``, so
quorum fan-out, hedges, and handoff stay distinguishable from the PR 1
pipeline stages in the same table.  :func:`tail_attribution` aggregates
per-component shares over the p50/p99/p99.9 cohorts (the traces at and
above each RTT quantile) — the "why does Iridium miss the SLA" table —
and :func:`waterfall` renders one trace as an ASCII tree with the
critical path highlighted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.tracing import RequestTrace, Span, Tracer

#: Quantile cohorts reported by default: the median and the SLA tails.
DEFAULT_QUANTILES = (0.5, 0.99, 0.999)


@dataclass(frozen=True)
class PathSegment:
    """One interval of the chain that bounded a request's RTT.

    ``component`` is the branch-qualified owner of the interval
    (``replica_put.queue``, ``hedge.memcached``, or ``client`` for time
    outside every span); ``span_id`` is the owning span, ``None`` for
    the virtual root.
    """

    component: str
    start_s: float
    duration_s: float
    node: str = ""
    span_id: int | None = None

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


def critical_path(
    trace: RequestTrace, eps: float = 1e-12
) -> list[PathSegment]:
    """The chain of intervals that bounded ``trace``'s RTT, in time order.

    Backward walk: starting from the completion time, repeatedly step to
    the child span that ends latest at or before the current frontier —
    that child is what the parent was waiting on — attribute the gap to
    the parent, recurse into the child, and continue from the child's
    start.  Branches that end earlier (replicas that lost the W-ack
    race, the slower side of a hedge) never advance the frontier and
    drop out.  The returned segments exactly tile
    ``[arrival_s, end_s]``: their durations sum to the RTT.
    """
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
        kids: Sequence[Span],
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


# --- tail attribution ---------------------------------------------------------------


@dataclass
class AttributionTable:
    """Critical-path component shares per RTT-quantile cohort.

    ``shares[q][component]`` is the fraction of the cohort's total RTT
    spent in ``component`` on the critical path; shares per cohort sum
    to 1.  The cohort at quantile ``q`` is every trace whose RTT is at
    or above the ``q``-th percentile, so p50 reads "the slower half"
    and p99.9 reads "the worst 0.1 %".
    """

    quantiles: tuple[float, ...]
    shares: dict[float, dict[str, float]]
    cohort_sizes: dict[float, int]
    cohort_min_rtt_s: dict[float, float]

    def components(self) -> list[str]:
        """Union of components, sorted by their share in the tightest
        (last) cohort, largest first."""
        tail = self.shares[self.quantiles[-1]]
        names = {name for row in self.shares.values() for name in row}
        return sorted(names, key=lambda name: (-tail.get(name, 0.0), name))

    def to_dict(self) -> dict:
        return {
            "quantiles": list(self.quantiles),
            "shares": {
                str(q): {name: round(share, 6) for name, share in sorted(row.items())}
                for q, row in self.shares.items()
            },
            "cohort_sizes": {str(q): n for q, n in self.cohort_sizes.items()},
            "cohort_min_rtt_s": {
                str(q): rtt for q, rtt in self.cohort_min_rtt_s.items()
            },
        }

    def render(self) -> str:
        """Terminal-friendly tail-vs-median attribution table."""
        def p_label(q: float) -> str:
            return ("p%g" % (q * 100)).replace(".0", "")

        header = f"{'component':<28s}" + "".join(
            f"{p_label(q):>10s}" for q in self.quantiles
        )
        lines = ["critical-path share of cohort RTT", header]
        for name in self.components():
            row = f"{name:<28s}" + "".join(
                f"{self.shares[q].get(name, 0.0) * 100:>9.1f}%"
                for q in self.quantiles
            )
            lines.append(row)
        lines.append(
            f"{'cohort size':<28s}"
            + "".join(f"{self.cohort_sizes[q]:>10d}" for q in self.quantiles)
        )
        lines.append(
            f"{'cohort min RTT':<28s}"
            + "".join(
                f"{self.cohort_min_rtt_s[q] * 1e6:>8.1f}us"
                for q in self.quantiles
            )
        )
        return "\n".join(lines)


def tail_attribution(
    traces: Iterable[RequestTrace],
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
) -> AttributionTable:
    """Aggregate critical-path component shares per RTT-quantile cohort."""
    finished = sorted(
        (t for t in traces if t.end_s is not None), key=lambda t: (t.rtt_s, t.request_id)
    )
    if not finished:
        raise ConfigurationError("tail attribution needs at least one finished trace")
    for q in quantiles:
        if not 0.0 <= q < 1.0:
            raise ConfigurationError("attribution quantiles must be in [0, 1)")
    count = len(finished)
    firsts = [min(count - 1, int(math.floor(q * count))) for q in quantiles]
    # Each cohort reads the paths from its first index on, so traces
    # faster than the lowest quantile's cohort need none.
    lowest = min(firsts, default=count)
    paths = [critical_path(trace) for trace in finished[lowest:]]
    shares: dict[float, dict[str, float]] = {}
    sizes: dict[float, int] = {}
    min_rtts: dict[float, float] = {}
    for q, first in zip(quantiles, firsts):
        cohort = finished[first:]
        cohort_paths = paths[first - lowest:]
        totals: dict[str, float] = {}
        for path in cohort_paths:
            for segment in path:
                totals[segment.component] = (
                    totals.get(segment.component, 0.0) + segment.duration_s
                )
        total_rtt = sum(trace.rtt_s for trace in cohort)
        shares[q] = (
            {name: value / total_rtt for name, value in totals.items()}
            if total_rtt > 0
            else {name: 0.0 for name in totals}
        )
        sizes[q] = len(cohort)
        min_rtts[q] = cohort[0].rtt_s
    return AttributionTable(
        quantiles=tuple(quantiles),
        shares=shares,
        cohort_sizes=sizes,
        cohort_min_rtt_s=min_rtts,
    )


# --- waterfall ----------------------------------------------------------------------


def waterfall(trace: RequestTrace, width: int = 48) -> str:
    """One trace as an ASCII waterfall tree.

    Each span is a row: indentation shows nesting, the bar shows its
    interval on a ``[arrival, end]`` timeline, and spans on the critical
    path are marked ``*`` and drawn with ``#``.
    """
    if trace.end_s is None:
        raise ConfigurationError("waterfall requires a finished trace")
    rtt = trace.rtt_s
    span_of_time = rtt if rtt > 0 else 1.0
    on_path = {
        segment.span_id
        for segment in critical_path(trace)
        if segment.span_id is not None
    }
    children = trace.child_map()

    def bar(span: Span) -> str:
        offset = int((span.start_s - trace.arrival_s) / span_of_time * width)
        offset = min(max(offset, 0), width)
        length = int(round(span.duration_s / span_of_time * width))
        length = min(max(length, 1 if span.duration_s > 0 else 0), width - offset)
        fill = "#" if span.span_id in on_path else "-"
        return " " * offset + fill * length

    attrs = " ".join(f"{k}={v}" for k, v in sorted(trace.attrs.items()))
    lines = [
        f"trace {trace.request_id}  rtt={rtt * 1e6:.1f}us  {attrs}".rstrip(),
        f"{'request':<26s} |{'=' * width}|",
    ]

    def render(span: Span, depth: int) -> None:
        marker = "*" if span.span_id in on_path else " "
        label = f"{'  ' * depth}{marker}{span.name}"
        where = span.node or "client"
        lines.append(f"{label:<20s} {where:>5s} |{bar(span):<{width}s}|")
        for child in children.get(span.span_id, ()):
            render(child, depth + 1)

    for root in children.get(None, ()):
        render(root, 1)
    return "\n".join(lines)


# --- digest -------------------------------------------------------------------------


def compute_trace_digest(
    tracer: Tracer, quantiles: tuple[float, ...] = DEFAULT_QUANTILES
) -> dict:
    """A compact, JSON-stable summary of a run's traces, cheap enough to
    ride inside every cached experiment-grid cell.

    Carries the sampling counters, a hash of the retained trace-id set
    (two same-seed runs must agree bit-for-bit), and the tail cohort's
    critical-path shares.
    """
    traces = tracer.traces
    ids = ",".join(str(trace.request_id) for trace in traces)
    digest: dict = {
        "committed": tracer.committed,
        "retained": len(traces),
        "dropped": tracer.dropped_traces,
        "slo_violations": tracer.slo_violations,
        "slo_deadline_s": tracer.slo_deadline_s,
        "trace_ids_sha256": hashlib.sha256(ids.encode()).hexdigest()[:16],
    }
    finished = [trace for trace in traces if trace.end_s is not None]
    if finished:
        digest["critical_path"] = tail_attribution(finished, quantiles).to_dict()
    return digest
