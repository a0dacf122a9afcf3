"""Windowed time-series metrics on the simulated clock.

The registry and tracer answer "what happened over the whole run"; this
module answers "what happened *when*".  A :class:`WindowedSeries` buckets
observations into fixed-cadence windows of simulated time — it is the
one windowing primitive shared by the hit-rate recovery timeline in
:mod:`repro.sim.full_system`, the SLO burn-rate monitor, and the
:class:`TimeSeriesRecorder` below.  Series are mergeable across runs
with the same cadence, and JSONL-exportable.

A :class:`TimeSeriesRecorder` turns a whole
:class:`~repro.telemetry.metrics.MetricsRegistry` into a timeline: on a
recurring DES event it snapshots every counter (per-window delta), gauge
(last value), and histogram (count/sum deltas plus per-window quantiles
computed from the *bucket-count delta*, so a tail spike inside one
window is visible even when the cumulative histogram has long since
averaged it away).  Everything is driven by the simulated clock, so two
identical-seed runs produce bit-identical timelines.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
)

#: Default ring capacity for recorder series: generous for any sane
#: cadence, bounded so an accidental microsecond interval cannot eat
#: the heap.
DEFAULT_MAX_WINDOWS = 65_536

#: Quantiles the recorder derives from per-window histogram deltas.
DEFAULT_WINDOW_QUANTILES = (0.5, 0.99)


class WindowedSeries:
    """Per-window aggregation of a stream of (time, value) observations.

    Window ``i`` covers simulated time ``[i * interval_s, (i+1) *
    interval_s)``.  ``kind`` selects the in-window fold: ``"sum"``
    accumulates (counts, deltas), ``"last"`` keeps the latest value
    (gauge snapshots), ``"max"`` keeps the peak.  Only occupied windows
    are stored, so a sparse timeline costs memory proportional to its
    active windows, and the dict-style views (``items``, ``get``,
    iteration over indices) make a series a drop-in for the ad-hoc
    ``{window_index: count}`` maps it replaces.
    """

    __slots__ = ("name", "interval_s", "kind", "_values", "_sum")

    _FOLDS: dict[str, Callable[[float, float], float]] = {
        "sum": lambda old, new: old + new,
        "last": lambda old, new: new,
        "max": max,
    }

    def __init__(
        self,
        name: str,
        interval_s: float,
        kind: str = "sum",
    ):
        if interval_s <= 0:
            raise ConfigurationError("window interval must be positive")
        if kind not in self._FOLDS:
            raise ConfigurationError(f"unknown series kind {kind!r}")
        self.name = name
        self.interval_s = interval_s
        self.kind = kind
        self._values: dict[int, float] = {}
        self._sum = kind == "sum"

    # --- window geometry ---------------------------------------------------------

    def index_of(self, t_s: float) -> int:
        """Window index covering simulated time ``t_s``."""
        return int(t_s / self.interval_s)

    def start_of(self, index: int) -> float:
        """Simulated start time of window ``index``."""
        return index * self.interval_s

    # --- recording ---------------------------------------------------------------

    def observe(self, t_s: float, value: float = 1.0) -> None:
        """Fold one observation at time ``t_s`` into its window."""
        # Hot path (SLO windows, energy activity): a sum into an occupied
        # window folds here; anything else takes ``observe_index``.
        index = int(t_s / self.interval_s)
        values = self._values
        old = values.get(index)
        if old is not None and self._sum:
            values[index] = old + value
        else:
            self.observe_index(index, value)

    def observe_index(self, index: int, value: float = 1.0) -> None:
        """Fold one observation directly into window ``index``."""
        values = self._values
        old = values.get(index)
        if old is None:
            values[index] = value
        elif self._sum:
            values[index] = old + value
        else:
            values[index] = self._FOLDS[self.kind](old, value)

    # --- dict-style views (drop-in for {index: value} maps) ----------------------

    def items(self) -> list[tuple[int, float]]:
        """Occupied ``(window_index, value)`` pairs, index-ordered."""
        return sorted(self._values.items())

    def get(self, index: int, default: float = 0) -> float:
        return self._values.get(index, default)

    def __getitem__(self, index: int) -> float:
        return self._values[index]

    def __contains__(self, index: int) -> bool:
        return index in self._values

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    @property
    def total(self) -> float:
        """Sum of all retained window values."""
        return sum(self._values.values())

    # --- time-domain views -------------------------------------------------------

    def timeline(self) -> list[tuple[float, float]]:
        """Occupied ``(window_start_s, value)`` pairs, time-ordered."""
        return [(self.start_of(i), v) for i, v in self.items()]

    def rate_timeline(
        self, denominator: "WindowedSeries"
    ) -> list[tuple[float, float]]:
        """Per-window ``self/denominator`` ratio over the denominator's
        occupied windows (0.0 where the denominator window is empty) —
        e.g. hits/gets for a hit-rate timeline."""
        if denominator.interval_s != self.interval_s:
            raise ConfigurationError("rate needs matching window cadence")
        return [
            (denominator.start_of(i), (self.get(i, 0.0) / v) if v else 0.0)
            for i, v in denominator.items()
        ]

    def sum_over(self, start_s: float, end_s: float) -> float:
        """Sum of values in windows whose start lies in ``[start_s, end_s)``."""
        return sum(
            v for i, v in self._values.items()
            if start_s <= self.start_of(i) < end_s
        )

    # --- merge / serialisation ---------------------------------------------------

    def merge(self, other: "WindowedSeries") -> "WindowedSeries":
        """Window-wise combination of two same-cadence series."""
        if other.interval_s != self.interval_s:
            raise ConfigurationError("cannot merge series with different cadence")
        if other.kind != self.kind:
            raise ConfigurationError("cannot merge series of different kinds")
        merged = WindowedSeries(self.name, self.interval_s, kind=self.kind)
        merged._values = dict(self._values)
        for index, value in other.items():
            merged.observe_index(index, value)
        return merged

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "interval_s": self.interval_s,
            "kind": self.kind,
            # Kept so stored payloads and cache entries keep their bytes;
            # a series never evicts.
            "evicted": 0,
            "windows": {str(i): v for i, v in self.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowedSeries":
        series = cls(
            payload["name"], payload["interval_s"], kind=payload.get("kind", "sum")
        )
        series._values = {int(i): v for i, v in payload["windows"].items()}
        return series


def _metric_key(metric) -> str:
    """Flattened ``name{k="v",...}`` key used in recorder rows."""
    if not metric.labels:
        return metric.name
    labels = ",".join(f'{k}="{v}"' for k, v in metric.labels)
    return "%s{%s}" % (metric.name, labels)


class TimeSeriesRecorder:
    """Snapshots a registry on a fixed simulated-time cadence.

    Each tick produces one row: per-counter increments since the last
    tick, current gauge values, and per-histogram count/sum deltas plus
    quantiles of the *samples recorded inside the window* (derived from
    the bucket-count delta, clamped to bucket resolution).  Rows are
    ring-buffered at ``max_windows`` and exportable as JSONL, one row
    per line, ``t_s`` first.

    :meth:`install` schedules the tick as a recurring DES event; the
    host should call :meth:`flush` after the run to capture the final
    partial window.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        quantiles: tuple[float, ...] = DEFAULT_WINDOW_QUANTILES,
    ):
        if interval_s <= 0:
            raise ConfigurationError("recorder interval must be positive")
        if max_windows < 1:
            raise ConfigurationError("max_windows must be positive")
        self.registry = registry
        self.interval_s = interval_s
        self.max_windows = max_windows
        self.quantiles = quantiles
        self.rows: list[dict] = []
        self.dropped_rows = 0
        self.ticks = 0
        self._last_t: float | None = None
        self._last_counter: dict[str, float] = {}
        self._last_hist: dict[str, tuple[int, float, tuple[int, ...]]] = {}

    # --- snapshotting ------------------------------------------------------------

    def snapshot(self, now_s: float) -> dict:
        """Take one row at simulated time ``now_s`` and retain it."""
        if self._last_t is not None and now_s <= self._last_t:
            raise ConfigurationError("recorder snapshots must move forward in time")
        row: dict = {"t_s": round(now_s, 12)}
        for metric in self.registry:
            key = _metric_key(metric)
            if isinstance(metric, StreamingHistogram):
                last_count, last_sum, last_buckets = self._last_hist.get(
                    key, (0, 0.0, ())
                )
                delta_count = metric.count - last_count
                row[f"{key}_count"] = delta_count
                row[f"{key}_sum"] = metric.total - last_sum
                if delta_count > 0:
                    delta_buckets = [
                        c - (last_buckets[i] if i < len(last_buckets) else 0)
                        for i, c in enumerate(metric.counts)
                    ]
                    for q in self.quantiles:
                        row[f"{key}_p{_q_label(q)}"] = _delta_percentile(
                            metric, delta_buckets, delta_count, q
                        )
                self._last_hist[key] = (
                    metric.count, metric.total, tuple(metric.counts)
                )
            elif isinstance(metric, Counter):
                row[key] = metric.value - self._last_counter.get(key, 0)
                self._last_counter[key] = metric.value
            elif isinstance(metric, Gauge):
                row[key] = metric.value
        self._last_t = now_s
        self.ticks += 1
        self.rows.append(row)
        if len(self.rows) > self.max_windows:
            del self.rows[0]
            self.dropped_rows += 1
        return row

    def flush(self, now_s: float) -> None:
        """Capture the final partial window, if time moved past the
        last tick (idempotent at a given ``now_s``)."""
        if self._last_t is None or now_s > self._last_t:
            self.snapshot(now_s)

    # --- DES wiring --------------------------------------------------------------

    def install(self, sim, horizon_s: float) -> None:
        """Schedule recurring snapshots on ``sim`` until ``horizon_s``.

        ``sim`` is duck-typed to :class:`repro.sim.events.Simulator`
        (needs ``recurring``).  The first tick fires one interval in,
        the last at or before the horizon.
        """
        if horizon_s <= 0:
            raise ConfigurationError("recorder horizon must be positive")
        sim.recurring(self.interval_s, self.snapshot, horizon_s)

    # --- views / export ----------------------------------------------------------

    def series(self, key: str, kind: str = "sum") -> WindowedSeries:
        """Re-window one row column as a :class:`WindowedSeries`."""
        out = WindowedSeries(key, self.interval_s, kind=kind)
        for row in self.rows:
            if key in row:
                out.observe(max(0.0, row["t_s"] - self.interval_s / 2), row[key])
        return out

    def to_jsonl(self) -> str:
        """One compact JSON object per retained row."""
        return "".join(
            json.dumps(row, separators=(",", ":"), sort_keys=True) + "\n"
            for row in self.rows
        )

    def merge(self, other: "TimeSeriesRecorder") -> list[dict]:
        """Combine two same-cadence recorders' rows by window time:
        counters/histogram deltas add, gauges take the later sample."""
        if other.interval_s != self.interval_s:
            raise ConfigurationError("cannot merge recorders with different cadence")
        by_time: dict[float, dict] = {}
        gauge_keys = {
            _metric_key(m)
            for source in (self.registry, other.registry)
            for m in source
            if isinstance(m, Gauge)
        }
        for row in self.rows + other.rows:
            merged = by_time.setdefault(row["t_s"], {"t_s": row["t_s"]})
            for key, value in row.items():
                if key == "t_s":
                    continue
                if key in gauge_keys or key not in merged:
                    merged[key] = value
                else:
                    merged[key] += value
        return [by_time[t] for t in sorted(by_time)]


def write_timeseries_jsonl(path: str | Path, recorder: TimeSeriesRecorder) -> Path:
    """Dump a recorder's rows to ``path`` as JSONL; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(recorder.to_jsonl())
    return path


def _q_label(q: float) -> str:
    """0.5 -> '50', 0.99 -> '99', 0.999 -> '999'."""
    scaled = round(q * 100, 9)
    if float(scaled).is_integer():
        return str(int(scaled))
    return f"{q:g}".replace("0.", "", 1)


def _delta_percentile(
    histogram: StreamingHistogram,
    delta_buckets: list[int],
    delta_count: int,
    p: float,
) -> float:
    """Quantile of the samples recorded since the last tick, to bucket
    resolution (the exact min/max of just this window are not kept)."""
    rank = p * delta_count
    seen = 0
    for index, bucket_count in enumerate(delta_buckets):
        seen += bucket_count
        if seen >= rank and bucket_count:
            upper = histogram.bucket_upper_bound(index)
            if math.isinf(upper):
                return histogram.max_seen
            return upper
    return histogram.max_seen
