"""Low-overhead metric primitives: counters, gauges, streaming histograms.

The simulator produces millions of latency samples per run; storing and
sorting them all (the seed approach) costs memory linear in request count
and makes percentiles O(n log n).  :class:`StreamingHistogram` instead
bins samples into fixed log-spaced buckets (HDR-histogram style): O(1)
per sample, a few hundred integers of state, and any percentile within
one bucket width of the exact order statistic.

A :class:`MetricsRegistry` names and owns metrics; :data:`NULL_REGISTRY`
is a no-op drop-in so instrumented code pays nothing when telemetry is
off — the hot path does one attribute call on an object whose methods do
nothing, and no sample is ever recorded.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Mapping

from repro.errors import ConfigurationError

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram range: 100 ns .. 100 s covers every simulated
#: latency the models produce (service times are ~10 us, RTTs < 1 s).
DEFAULT_MIN_VALUE = 1e-7
DEFAULT_MAX_VALUE = 100.0
DEFAULT_BUCKETS_PER_DECADE = 25


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that moves both ways, with a high-water mark."""

    __slots__ = ("name", "labels", "value", "high_water")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class StreamingHistogram:
    """Fixed-bucket log-spaced histogram with streaming percentiles.

    Buckets span ``[min_value, max_value)`` with ``buckets_per_decade``
    bins per factor of ten, so each bucket covers a relative width of
    ``10**(1/buckets_per_decade)`` (~9.6 % at the default 25).  Samples
    below the range land in bucket 0, above it in the last bucket; the
    exact min/max/sum are tracked alongside, so ``mean`` is exact and
    percentile estimates are clamped to the observed extremes.
    """

    __slots__ = (
        "name", "labels", "min_value", "max_value", "buckets_per_decade",
        "counts", "count", "total", "min_seen", "max_seen", "exemplars",
    )

    def __init__(
        self,
        name: str = "",
        labels: tuple[tuple[str, str], ...] = (),
        min_value: float = DEFAULT_MIN_VALUE,
        max_value: float = DEFAULT_MAX_VALUE,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
    ):
        if min_value <= 0 or max_value <= min_value:
            raise ConfigurationError("need 0 < min_value < max_value")
        if buckets_per_decade < 1:
            raise ConfigurationError("need at least one bucket per decade")
        self.name = name
        self.labels = labels
        self.min_value = min_value
        self.max_value = max_value
        self.buckets_per_decade = buckets_per_decade
        decades = math.log10(max_value / min_value)
        self.counts = [0] * (int(math.ceil(decades * buckets_per_decade)) + 1)
        self.count = 0
        self.total = 0.0
        self.min_seen = math.inf
        self.max_seen = -math.inf
        # bucket index -> latest exemplar (e.g. a trace id) seen there
        self.exemplars: dict[int, object] = {}

    # --- recording ---------------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        index = int(math.log10(value / self.min_value) * self.buckets_per_decade)
        return min(index, len(self.counts) - 1)

    def record(self, value: float, exemplar: object | None = None) -> None:
        if value < 0:
            raise ConfigurationError("histogram values must be non-negative")
        index = self._index(value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value
        if exemplar is not None:
            self.exemplars[index] = exemplar

    def record_bucketed(
        self,
        bucket_counts: "Mapping[int, int] | dict[int, int]",
        total: float,
        min_seen: float,
        max_seen: float,
    ) -> None:
        """Fold a pre-bucketed batch of samples in one call.

        ``bucket_counts`` maps bucket index → sample count on *this*
        histogram's bucket grid; ``total`` is the batch's exact value
        sum and ``min_seen``/``max_seen`` its extremes.  This is the
        batched hot path for the fluid fast-forward windows: folding a
        calibration-derived distribution for a million requests costs
        one call per bucket, not one per request, and percentile reads
        land on the same bucket edges as sample-at-a-time recording.
        """
        counts = self.counts
        top = len(counts) - 1
        added = 0
        for index, n in bucket_counts.items():
            if n <= 0:
                continue
            if not 0 <= index <= top:
                raise ConfigurationError(
                    f"bucket index {index} outside histogram range 0..{top}"
                )
            counts[index] += n
            added += n
        if not added:
            return
        self.count += added
        self.total += total
        if min_seen < self.min_seen:
            self.min_seen = min_seen
        if max_seen > self.max_seen:
            self.max_seen = max_seen

    # --- exemplars ---------------------------------------------------------------

    def exemplars_above(self, threshold: float) -> list[object]:
        """Exemplars from every bucket that can hold values above
        ``threshold`` (ascending bucket order) — e.g. trace ids of
        SLO-violating RTTs.  Buckets straddling the threshold are
        included, so the list may contain one sub-threshold exemplar."""
        return [
            self.exemplars[index]
            for index in sorted(self.exemplars)
            if self.bucket_upper_bound(index) > threshold
        ]

    # --- bucket geometry ---------------------------------------------------------

    def bucket_upper_bound(self, index: int) -> float:
        """Upper edge of bucket ``index`` (the last bucket is open-ended)."""
        if index >= len(self.counts) - 1:
            return math.inf
        return self.min_value * 10 ** ((index + 1) / self.buckets_per_decade)

    @property
    def bucket_ratio(self) -> float:
        """Relative width of one bucket (upper/lower edge ratio)."""
        return 10 ** (1 / self.buckets_per_decade)

    # --- statistics --------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self.min_seen if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self.max_seen if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at quantile ``p`` in (0, 1), within one bucket width.

        Returns the upper edge of the bucket where the cumulative count
        crosses ``p * count``, clamped to the observed min/max so the
        estimate never leaves the sampled range.
        """
        if not 0.0 < p < 1.0:
            raise ConfigurationError("percentile must be in (0, 1)")
        if self.count == 0:
            return 0.0
        rank = p * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                edge = self.bucket_upper_bound(index)
                return min(self.max_seen, max(self.min_seen, edge))
        return self.max_seen  # pragma: no cover - rank <= count always hits

    def quantiles(self, ps: tuple[float, ...] = (0.5, 0.95, 0.99, 0.999)) -> dict[float, float]:
        return {p: self.percentile(p) for p in ps}

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples <= ``threshold`` (interpolated in-bucket)."""
        if self.count == 0:
            return 0.0
        if threshold >= self.max_seen:
            return 1.0
        if threshold < self.min_seen:
            return 0.0
        below = 0.0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            upper = self.bucket_upper_bound(index)
            lower = upper / self.bucket_ratio if index else 0.0
            if upper <= threshold:
                below += bucket_count
            elif lower < threshold:
                # log-linear interpolation within the straddling bucket
                if upper == math.inf:
                    upper = self.max_seen
                span = upper - lower
                below += bucket_count * ((threshold - lower) / span if span > 0 else 1.0)
        return min(1.0, below / self.count)

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Combine two histograms with identical bucket geometry."""
        if (
            other.min_value != self.min_value
            or other.max_value != self.max_value
            or other.buckets_per_decade != self.buckets_per_decade
        ):
            raise ConfigurationError("cannot merge histograms with different buckets")
        merged = StreamingHistogram(
            name=self.name,
            labels=self.labels,
            min_value=self.min_value,
            max_value=self.max_value,
            buckets_per_decade=self.buckets_per_decade,
        )
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        merged.min_seen = min(self.min_seen, other.min_seen)
        merged.max_seen = max(self.max_seen, other.max_seen)
        merged.exemplars = {**self.exemplars, **other.exemplars}
        return merged

    def to_dict(self) -> dict:
        """Snapshot for machine-readable export (only occupied buckets).

        Carries the bucket geometry and the exact min/max/sum alongside
        the counts, so :meth:`from_dict` restores a histogram whose
        ``minimum``/``maximum``/``mean`` — and any later :meth:`merge` —
        are exact, not bucket-quantised.
        """
        payload = {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "buckets_per_decade": self.buckets_per_decade,
            "buckets": {
                f"{self.bucket_upper_bound(i):.6g}": c
                for i, c in enumerate(self.counts)
                if c
            },
        }
        if self.exemplars:
            # Keyed by bucket index; omitted entirely when empty so
            # exemplar-free snapshots stay byte-identical to older ones.
            payload["exemplars"] = {
                str(index): self.exemplars[index] for index in sorted(self.exemplars)
            }
        return payload

    @classmethod
    def from_dict(
        cls,
        payload: Mapping,
        name: str = "",
        labels: tuple[tuple[str, str], ...] = (),
    ) -> "StreamingHistogram":
        """Rebuild a histogram from a :meth:`to_dict` snapshot.

        Bucket keys are mapped back to indices through the geometry (the
        ``.6g``-formatted upper bound is only used to locate the bucket,
        never as a sample), and the exact count/sum/min/max are restored
        verbatim — the round trip loses nothing.
        """
        histogram = cls(
            name=name,
            labels=labels,
            min_value=payload.get("min_value", DEFAULT_MIN_VALUE),
            max_value=payload.get("max_value", DEFAULT_MAX_VALUE),
            buckets_per_decade=payload.get(
                "buckets_per_decade", DEFAULT_BUCKETS_PER_DECADE
            ),
        )
        last = len(histogram.counts) - 1
        for key, bucket_count in payload["buckets"].items():
            upper = float(key)
            if math.isinf(upper):
                index = last
            else:
                index = round(
                    math.log10(upper / histogram.min_value)
                    * histogram.buckets_per_decade
                ) - 1
                index = min(max(index, 0), last)
            histogram.counts[index] += bucket_count
        histogram.count = payload["count"]
        histogram.total = payload["sum"]
        if histogram.count:
            histogram.min_seen = payload["min"]
            histogram.max_seen = payload["max"]
        for key, exemplar in payload.get("exemplars", {}).items():
            histogram.exemplars[min(int(key), last)] = exemplar
        return histogram


class MetricsRegistry:
    """Named metrics, created on first use and shared thereafter."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get(self, kind: type, name: str, labels: Mapping[str, str] | None, **kwargs):
        if not _METRIC_NAME.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise ConfigurationError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        **kwargs,
    ) -> StreamingHistogram:
        return self._get(StreamingHistogram, name, labels, **kwargs)

    def __iter__(self) -> Iterator[object]:
        """Metrics in registration order."""
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, labels: Mapping[str, str] | None = None):
        """Look up an existing metric, or None."""
        return self._metrics.get((name, _label_key(labels)))


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(StreamingHistogram):
    __slots__ = ()

    def record(self, value: float, exemplar: object | None = None) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The default: every metric is a shared do-nothing singleton."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        return self._counter

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        return self._gauge

    def histogram(self, name, labels=None, **kwargs) -> StreamingHistogram:
        return self._histogram

    def __iter__(self) -> Iterator[object]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def get(self, name, labels=None):
        return None


#: Shared no-op registry: the default for every instrumented component.
NULL_REGISTRY = NullRegistry()


#: Human descriptions for well-known metric names, emitted as ``# HELP``
#: lines by the Prometheus exporter.  Components register new names via
#: :func:`describe_metric` at import time.
METRIC_DESCRIPTIONS: dict[str, str] = {
    "request_rtt_seconds": "End-to-end request round-trip time on the simulated clock",
    "queue_wait_seconds": "Time a job waited in a FIFO resource before service",
    "queue_depth": "Jobs currently queued at a FIFO resource",
    "span_duration_seconds": "Per-component span durations from committed request traces",
    "requests_completed_total": "Requests that completed within the run horizon",
    "requests_served_total": "Requests served, by core",
    "requests_failed_total": "Requests the client gave up on",
    "mac_drops_total": "Packets dropped by the on-stack MAC buffer",
    "get_hits_total": "GET requests answered from the store",
    "get_misses_total": "GET requests that missed",
    "puts_total": "Logical PUT requests completed",
    "response_bytes_total": "Response payload bytes returned to clients",
    "client_retries_total": "Client retry attempts after timeouts",
    "client_timeouts_total": "Request attempts the client timed out",
    "client_failovers_total": "Nodes removed from the client ring after repeated timeouts",
    "client_hedged_requests_total": "Hedged duplicate GETs issued by the client",
    "fault_events_total": "Fault-schedule transitions applied, by kind",
    "fault_packets_dropped_total": "Packets lost to injected loss windows",
    "fault_packets_corrupted_total": "Packets corrupted in flight by injected windows",
    "degraded_mode": "Active fault windows plus nodes currently down",
    "nodes_down": "Nodes currently crashed",
    "nic_mac_drops_total": "Frames dropped because the MAC buffer was full",
    "nic_mac_forwarded_total": "Frames forwarded from the MAC to a core",
    "nic_mac_buffered_bytes": "Bytes currently buffered in the on-stack MAC",
    "replication_replica_writes_total": "Physical replica copies written for logical PUTs",
    "replication_redirected_reads_total": "GETs served by a non-primary replica",
    "replication_verify_reads_total": "Background read-quorum verification reads",
    "replication_read_repairs_total": "Stale replicas repaired on the read path",
    "replication_hints_queued_total": "Writes parked as hints for down replicas",
    "replication_hints_replayed_total": "Parked hints replayed at node readmission",
    "replication_hints_dropped_total": "Hints dropped because the hint queue was full",
    "replication_hint_queue_depth": "Hints currently parked across all nodes",
    "replication_antientropy_sweeps_total": "Anti-entropy digest sweeps completed",
    "replication_antientropy_repairs_total": "Keys repaired by anti-entropy sweeps",
    "replication_antientropy_dirty_buckets_total": "Digest buckets found divergent",
    "batch_flushes_total": "Coalesced batches shipped by the DES batch former, by flush reason",
    "batch_ops_total": "Requests that rode a coalesced batch in the DES",
    "batch_size": "Ops per coalesced batch shipped by the DES batch former",
    "client_batch_flushes_total": "Client batch buffers flushed, by reason (size/linger/barrier)",
    "client_batched_ops_total": "Operations shipped inside client-side batches",
    "client_batch_dedup_total": "Duplicate in-flight GETs folded onto an earlier batch rider",
    "client_batch_size": "Ops per flushed client batch",
    "memcached_batches_total": "Multi-op frames (multiget/mset) served by the server loop",
    "memcached_batched_ops_total": "Operations carried inside multi-op frames",
    "background_busy_seconds": "Simulated core-busy time charged to background tasks",
    "replica_put_wait_seconds": "Queue wait for replica PUT copies at follower cores",
    "tracer_committed_total": "Request traces finalized by the tracer",
    "tracer_dropped_traces_total": "Committed traces not retained by tail sampling",
    "tracer_sampled_total": "Committed traces admitted to the retained set",
    "slo_alerts_fired_total": "SLO burn-rate alert firings, by rule",
    "slo_alerts_cleared_total": "SLO burn-rate alert clearings, by rule",
    "slo_alerts_active": "SLO alerts currently firing",
    "slo_burn_rate": "Error-budget burn multiple, by rule and window",
    "bench_artefacts_total": "Benchmark artefacts regenerated this session",
    "flashstore_appends_total": "Items appended to the tiered store's log tier",
    "flashstore_pages_programmed_total": "Flash pages programmed by the tiered store, by cause (log/conversion/compaction)",
    "flashstore_pages_read_total": "Flash pages read on the tiered GET path, by tier",
    "flashstore_conversions_total": "Sealed log segments converted into hash stores",
    "flashstore_compactions_total": "Hash-store merge-compactions into the sorted tier",
    "flashstore_filter_false_positives_total": "Flash pages read because a cuckoo fingerprint matched a different key",
    "flashstore_write_amplification": "Measured tiered-store WA: flash bytes programmed per host byte written",
    "flashstore_read_amplification": "Measured tiered-store RA: flash pages read per GET hit, false positives included",
    "flashstore_index_bytes_per_key": "Modelled in-memory index bytes per live key across all tiers",
    "ftl_erases_total": "Blocks erased by the baseline FTL's garbage collector",
    "ftl_gc_page_moves_total": "Valid pages relocated by FTL garbage collection",
    "ftl_write_amplification": "Measured FTL WA: physical pages programmed per host page written",
    "energy_joules_total": "Measured energy by component (cores/memory/flash/NIC/chassis/delivery losses)",
    "energy_throttle_events_total": "Thermal-throttle alerts fired (windowed stack power over the passive-cooling limit)",
    "energy_budget_events_total": "Power-budget burn alerts fired (extrapolated enclosure power over the stack budget)",
    "power_stack_watts": "Mean stack-side power over the last complete energy window",
    "power_server_watts": "Extrapolated wall power over the last complete energy window (num_stacks alike + chassis + delivery)",
    "power_throttle_derate": "Current thermal frequency-derate factor (1.0 = full speed)",
    "thermal_per_stack_watts": "Per-stack dissipation carried by the thermal report (design TDP or measured mean)",
    "thermal_headroom_watts": "Watts of margin under the passive-cooling limit (negative = over)",
    "thermal_power_density_w_per_cm2": "Heat flux through the 4.41 cm^2 package top",
    "thermal_passively_coolable": "1 if the per-stack power fits passive cooling, else 0",
    "bench_wall_seconds": "Wall-clock time per benchmark",
}


def describe_metric(name: str, help_text: str) -> None:
    """Register (or update) the ``# HELP`` description for a metric."""
    if not _METRIC_NAME.match(name):
        raise ConfigurationError(f"invalid metric name {name!r}")
    METRIC_DESCRIPTIONS[name] = help_text


def metric_description(name: str) -> str | None:
    """The registered description for ``name``, if any."""
    return METRIC_DESCRIPTIONS.get(name)
