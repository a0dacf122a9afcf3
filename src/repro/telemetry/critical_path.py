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

A run whose only trace reader is its digest traces through a
:class:`DigestTracer`, which keeps each retained trace as its digest
record — the RTT, the request id and the critical path's (component,
seconds) pairs in one flat tuple — rather than its span tree.
:func:`compute_trace_digest` aggregates either kind of retained trace
through the one cohort function, :func:`attribute_cohorts`, and gives
the same bytes for both.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import itemgetter
from sys import intern
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import DEFAULT_MAX_TRACES, RequestTrace, Span, Tracer

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
    the parent, descend into the child, and continue from the child's
    start.  Branches that end earlier (replicas that lost the W-ack
    race, the slower side of a hedge) never advance the frontier and
    drop out.  The returned segments exactly tile
    ``[arrival_s, end_s]``: their durations sum to the RTT.
    """
    return [PathSegment(*segment) for segment in _walk(trace, eps)]


def _latest_first(span: Span) -> tuple:
    return (span.start_s + span.duration_s, span.start_s, span.span_id)


def _walk(trace: RequestTrace, eps: float) -> list[tuple]:
    """:func:`critical_path` as ``(component, start_s, duration_s, node,
    span_id)`` tuples, in time order.

    One loop over an explicit stack of open spans, so a call leaves no
    closure or frame cycle behind for the cyclic GC.  A frame is
    ``[component, branch, start, frontier, node, span_id, children
    latest first]``; a leaf child is attributed in place, without one.
    """
    if trace.end_s is None:
        raise ConfigurationError("critical path requires a finished trace")
    children = trace.child_map()
    span_count = len(trace.spans)
    segments: list[tuple] = []  # reverse time order until the end
    stack = [[
        "client", None, trace.arrival_s, trace.end_s, "", None,
        iter(sorted(children.get(None, ()), key=_latest_first, reverse=True)),
    ]]
    while stack:
        frame = stack[-1]
        component, branch, start, current, node, span_id, kids = frame
        descend = None
        for child in kids:
            if current - start <= eps:
                break
            child_end = child.start_s + child.duration_s
            if child_end > current + eps:
                continue  # overlaps an interval already attributed
            child_end = min(child_end, current)
            child_start = max(min(child.start_s, child_end), start)
            if current - child_end > 0.0:
                segments.append(
                    (component, child_end, current - child_end, node, span_id)
                )
            name = child.name
            if branch is None:
                child_component = child_branch = name
            else:
                child_component = intern(f"{branch}.{name}")
                child_branch = branch
            grandchildren = children.get(child.span_id)
            if grandchildren is None:
                if child_end - child_start > 0.0:
                    segments.append((
                        child_component, child_start, child_end - child_start,
                        child.node, child.span_id,
                    ))
                current = child_start
                continue
            if len(stack) > span_count:
                raise ConfigurationError("span parents form a cycle")
            # The parent resumes from the child's start once the child's
            # own chain is attributed.
            frame[3] = child_start
            descend = [
                child_component, child_branch, child_start, child_end,
                child.node, child.span_id,
                iter(sorted(grandchildren, key=_latest_first, reverse=True)),
            ]
            break
        if descend is not None:
            stack.append(descend)
            continue
        if current - start > 0.0:
            segments.append((component, start, current - start, node, span_id))
        stack.pop()
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
    table, _ = attribute_cohorts(finished, quantiles, fold=path_record)
    return table


def path_record(trace: RequestTrace) -> tuple:
    """``trace``'s digest record, walked through :func:`critical_path`:
    ``(rtt_s, request_id, component, seconds, component, seconds, ...)``
    along the critical path, in time order."""
    record = [trace.rtt_s, trace.request_id]
    for segment in critical_path(trace):
        record += segment.component, segment.duration_s
    return tuple(record)


def attribute_cohorts(
    ordered: Sequence,
    quantiles: tuple[float, ...],
    fold: Callable[[RequestTrace], tuple] | None = None,
    weigh: Callable[[str, float], float] | None = None,
) -> tuple[AttributionTable, dict[float, float]]:
    """Critical-path attribution of each RTT-quantile cohort.

    ``ordered`` is sorted by (RTT, request id).  It holds finished
    traces that ``fold`` turns into digest records (see
    :func:`path_record`), or digest records already (``fold=None``).
    The cohort at ``q`` is every entry from index ``floor(q * count)``
    on, so no entry below the lowest quantile's first index is folded.

    Each path segment counts its seconds, and a cohort's shares are of
    its total RTT; with ``weigh(component, seconds)`` it counts that
    weight instead, and shares are of the cohort's total weight.
    Returns the table and each cohort's total (RTT or weight).
    """
    for q in quantiles:
        if not 0.0 <= q < 1.0:
            raise ConfigurationError("attribution quantiles must be in [0, 1)")
    count = len(ordered)
    firsts = [min(count - 1, int(math.floor(q * count))) for q in quantiles]
    lowest = min(firsts, default=count)
    records = ordered[lowest:]
    if fold is not None:
        records = [fold(trace) for trace in records]
    shares: dict[float, dict[str, float]] = {}
    sizes: dict[float, int] = {}
    min_rtts: dict[float, float] = {}
    cohort_totals: dict[float, float] = {}
    for q, first in zip(quantiles, firsts):
        cohort = records[first - lowest:]
        totals: dict[str, float] = {}
        for record in cohort:
            for component, seconds in zip(record[2::2], record[3::2]):
                if weigh is not None:
                    seconds = weigh(component, seconds)
                totals[component] = totals.get(component, 0.0) + seconds
        if weigh is None:
            total = sum(record[0] for record in cohort)
        else:
            total = sum(totals.values())
        shares[q] = (
            {name: value / total for name, value in totals.items()}
            if total > 0
            else {name: 0.0 for name in totals}
        )
        sizes[q] = len(cohort)
        min_rtts[q] = cohort[0][0]
        cohort_totals[q] = total
    table = AttributionTable(
        quantiles=tuple(quantiles),
        shares=shares,
        cohort_sizes=sizes,
        cohort_min_rtt_s=min_rtts,
    )
    return table, cohort_totals


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


def digest_record(trace: RequestTrace) -> tuple:
    """What the digest reads of a finished trace, as one flat tuple:
    ``(rtt_s, request_id, component, seconds, component, seconds, ...)``
    along its critical path, in time order.

    Equal to :func:`path_record` of the trace, without building
    :class:`PathSegment` objects.  Every item is atomic, so CPython's
    cyclic GC stops tracking the tuple after its first collection.
    """
    record = [trace.rtt_s, trace.request_id]
    for component, _start, seconds, _node, _span_id in _walk(trace, 1e-12):
        record += component, seconds
    return tuple(record)


class DigestTracer(Tracer):
    """A tracer whose only reader is the run's trace digest.

    Sampling is the base tracer's, draw for draw: the same traces are
    keepers, and the reservoir makes the same draws.  Only what a slot
    holds changes: each trace admitted at commit is folded into its
    :func:`digest_record`, and its span tree and attrs are dropped with
    it.  Follow spans are never retained.  A trace the sampler turns
    away is never walked.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        max_traces: int = DEFAULT_MAX_TRACES,
        *,
        slo_deadline_s: float | None = None,
        sampling_seed: int = 0,
    ):
        super().__init__(
            registry,
            max_traces,
            slo_deadline_s=slo_deadline_s,
            sampling_seed=sampling_seed,
            max_follow_spans=0,
        )

    def _keep(self, trace: RequestTrace) -> tuple:
        return digest_record(trace)

    @property
    def traces(self) -> list[RequestTrace]:
        raise ConfigurationError(
            "a DigestTracer keeps digest records, not span trees"
        )

    @property
    def records(self) -> list[tuple]:
        """Retained digest records, in request-id order."""
        return sorted(self._keepers + self._reservoir, key=itemgetter(1))


def compute_trace_digest(
    tracer: Tracer, quantiles: tuple[float, ...] = DEFAULT_QUANTILES
) -> dict:
    """A compact, JSON-stable summary of a run's traces, cheap enough to
    ride inside every cached experiment-grid cell.

    Carries the sampling counters, a hash of the retained trace-id set
    (two same-seed runs must agree bit-for-bit), and the tail cohort's
    critical-path shares.  A :class:`DigestTracer` gives the same digest
    as a live tracer with the same deadline, seed and ``max_traces``.
    """
    if isinstance(tracer, DigestTracer):
        records = tracer.records
        ids = [record[1] for record in records]
        table = (
            attribute_cohorts(sorted(records), quantiles)[0] if records else None
        )
    else:
        traces = tracer.traces
        ids = [trace.request_id for trace in traces]
        finished = [trace for trace in traces if trace.end_s is not None]
        table = tail_attribution(finished, quantiles) if finished else None
    digest: dict = {
        "committed": tracer.committed,
        "retained": len(ids),
        "dropped": tracer.dropped_traces,
        "slo_violations": tracer.slo_violations,
        "slo_deadline_s": tracer.slo_deadline_s,
        "trace_ids_sha256": hashlib.sha256(
            ",".join(map(str, ids)).encode()
        ).hexdigest()[:16],
    }
    if table is not None:
        digest["critical_path"] = table.to_dict()
    return digest
