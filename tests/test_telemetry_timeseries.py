"""Unit tests for :mod:`repro.telemetry.timeseries`.

WindowedSeries is pure window arithmetic (fold kinds, merge,
dict-style drop-in views); TimeSeriesRecorder is delta
bookkeeping over a registry plus a recurring DES event.  The DES tests
pin the PR's determinism claim: two identical runs produce bit-identical
JSONL timelines.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.sim.events import Simulator
from repro.telemetry import MetricsRegistry, TimeSeriesRecorder, WindowedSeries
from repro.telemetry.timeseries import _q_label, write_timeseries_jsonl


class TestWindowedSeries:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowedSeries("x", 0.0)
        with pytest.raises(ConfigurationError):
            WindowedSeries("x", 1.0, kind="median")

    def test_sum_fold_and_geometry(self):
        series = WindowedSeries("gets", 0.1)
        series.observe(0.05)
        series.observe(0.09, 2.0)
        series.observe(0.11)
        assert series.index_of(0.05) == 0
        assert series.start_of(1) == pytest.approx(0.1)
        assert series.items() == [(0, 3.0), (1, 1.0)]
        assert series.total == 4.0

    def test_last_and_max_folds(self):
        last = WindowedSeries("gauge", 1.0, kind="last")
        last.observe(0.1, 5.0)
        last.observe(0.9, 2.0)
        assert last[0] == 2.0
        peak = WindowedSeries("peak", 1.0, kind="max")
        peak.observe(0.1, 5.0)
        peak.observe(0.9, 2.0)
        assert peak[0] == 5.0

    def test_dict_style_views(self):
        series = WindowedSeries("w", 1.0)
        series.observe(2.5)
        series.observe(0.5)
        assert list(series) == [0, 2]
        assert len(series) == 2 and bool(series)
        assert 2 in series and 1 not in series
        assert series.get(1, 0) == 0
        assert series[0] == 1.0
        assert not WindowedSeries("empty", 1.0)

    def test_timeline_and_sum_over(self):
        series = WindowedSeries("t", 0.5)
        series.observe(0.2, 1.0)
        series.observe(1.2, 3.0)
        assert series.timeline() == [(0.0, 1.0), (1.0, 3.0)]
        assert series.sum_over(0.0, 1.0) == 1.0
        assert series.sum_over(1.0, float("inf")) == 3.0

    def test_rate_timeline(self):
        gets = WindowedSeries("gets", 1.0)
        hits = WindowedSeries("hits", 1.0)
        for t, hit in ((0.1, True), (0.2, False), (1.5, True)):
            gets.observe(t)
            if hit:
                hits.observe(t)
        assert hits.rate_timeline(gets) == [(0.0, 0.5), (1.0, 1.0)]
        with pytest.raises(ConfigurationError):
            hits.rate_timeline(WindowedSeries("other", 2.0))

    def test_merge(self):
        a = WindowedSeries("a", 1.0)
        b = WindowedSeries("a", 1.0)
        a.observe_index(0, 1.0)
        a.observe_index(1, 2.0)
        b.observe_index(1, 3.0)
        merged = a.merge(b)
        assert merged.items() == [(0, 1.0), (1, 5.0)]
        # Inputs untouched.
        assert a.items() == [(0, 1.0), (1, 2.0)]
        with pytest.raises(ConfigurationError):
            a.merge(WindowedSeries("a", 2.0))
        with pytest.raises(ConfigurationError):
            a.merge(WindowedSeries("a", 1.0, kind="last"))

    def test_dict_round_trip(self):
        series = WindowedSeries("rt", 0.25, kind="max")
        series.observe(0.1, 4.0)
        series.observe(0.6, 2.0)
        restored = WindowedSeries.from_dict(series.to_dict())
        assert restored.items() == series.items()
        assert restored.kind == "max"
        assert restored.interval_s == 0.25


class TestTimeSeriesRecorder:
    def test_counter_deltas_and_gauges(self):
        registry = MetricsRegistry()
        total = registry.counter("requests_total")
        depth = registry.gauge("queue_depth")
        recorder = TimeSeriesRecorder(registry, interval_s=1.0)
        total.inc(3)
        depth.set(2.0)
        row1 = recorder.snapshot(1.0)
        total.inc(1)
        depth.set(5.0)
        row2 = recorder.snapshot(2.0)
        assert row1["requests_total"] == 3 and row2["requests_total"] == 1
        assert row1["queue_depth"] == 2.0 and row2["queue_depth"] == 5.0

    def test_histogram_window_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rtt_seconds")
        recorder = TimeSeriesRecorder(registry, interval_s=1.0)
        for _ in range(10):
            hist.record(1e-4)
        recorder.snapshot(1.0)
        # A tail spike inside window 2 only.
        for _ in range(10):
            hist.record(1e-2)
        row = recorder.snapshot(2.0)
        assert row["rtt_seconds_count"] == 10
        assert row["rtt_seconds_sum"] == pytest.approx(0.1)
        # Window quantiles see the spike even though the cumulative p50
        # still straddles both modes.
        assert row["rtt_seconds_p50"] == pytest.approx(1e-2, rel=0.15)
        assert row["rtt_seconds_p99"] == pytest.approx(1e-2, rel=0.15)
        # Empty window: no quantile keys, zero deltas.
        row3 = recorder.snapshot(3.0)
        assert row3["rtt_seconds_count"] == 0
        assert "rtt_seconds_p50" not in row3

    def test_snapshots_must_move_forward(self):
        recorder = TimeSeriesRecorder(MetricsRegistry(), interval_s=1.0)
        recorder.snapshot(1.0)
        with pytest.raises(ConfigurationError):
            recorder.snapshot(1.0)

    def test_flush_idempotent(self):
        recorder = TimeSeriesRecorder(MetricsRegistry(), interval_s=1.0)
        recorder.snapshot(1.0)
        recorder.flush(1.5)
        recorder.flush(1.5)
        assert [row["t_s"] for row in recorder.rows] == [1.0, 1.5]

    def test_ring_bound(self):
        recorder = TimeSeriesRecorder(
            MetricsRegistry(), interval_s=1.0, max_windows=2
        )
        for t in (1.0, 2.0, 3.0):
            recorder.snapshot(t)
        assert [row["t_s"] for row in recorder.rows] == [2.0, 3.0]
        assert recorder.dropped_rows == 1
        assert recorder.ticks == 3

    def test_install_ticks_on_the_simulated_clock(self):
        registry = MetricsRegistry()
        total = registry.counter("ticks_total")
        recorder = TimeSeriesRecorder(registry, interval_s=0.5)
        sim = Simulator()
        recorder.install(sim, horizon_s=2.0)
        sim.schedule_at(0.7, lambda: total.inc())
        sim.run()
        assert [row["t_s"] for row in recorder.rows] == [0.5, 1.0, 1.5, 2.0]
        assert [row["ticks_total"] for row in recorder.rows] == [0, 1, 0, 0]

    def test_des_timeline_bit_identical_across_runs(self):
        def run() -> str:
            registry = MetricsRegistry()
            hist = registry.histogram("latency_seconds")
            count = registry.counter("done_total")
            recorder = TimeSeriesRecorder(registry, interval_s=0.25)
            sim = Simulator()
            recorder.install(sim, horizon_s=2.0)

            def work(i: int) -> None:
                hist.record(1e-5 * (1 + i % 7))
                count.inc()

            for i in range(40):
                sim.schedule_at(0.045 * (i + 1), lambda i=i: work(i))
            sim.run()
            recorder.flush(sim.now)
            return recorder.to_jsonl()

        assert run() == run()

    def test_series_view_and_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        total = registry.counter("n_total")
        recorder = TimeSeriesRecorder(registry, interval_s=1.0)
        total.inc(2)
        recorder.snapshot(1.0)
        total.inc(5)
        recorder.snapshot(2.0)
        series = recorder.series("n_total")
        assert series.total == 7
        path = write_timeseries_jsonl(tmp_path / "ts.jsonl", recorder)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["t_s"] for row in rows] == [1.0, 2.0]
        assert rows[1]["n_total"] == 5

    def test_merge_recorders(self):
        def make(counts):
            registry = MetricsRegistry()
            total = registry.counter("n_total")
            gauge = registry.gauge("depth")
            recorder = TimeSeriesRecorder(registry, interval_s=1.0)
            for t, n in counts:
                total.inc(n)
                gauge.set(n)
                recorder.snapshot(t)
            return recorder

        a = make([(1.0, 2), (2.0, 3)])
        b = make([(2.0, 10), (3.0, 1)])
        rows = a.merge(b)
        assert [row["t_s"] for row in rows] == [1.0, 2.0, 3.0]
        # Counters add, gauges take the later sample.
        assert rows[1]["n_total"] == 13
        assert rows[1]["depth"] == 10
        with pytest.raises(ConfigurationError):
            a.merge(TimeSeriesRecorder(MetricsRegistry(), interval_s=2.0))


def test_q_label():
    assert _q_label(0.5) == "50"
    assert _q_label(0.99) == "99"
    assert _q_label(0.999) == "999"
