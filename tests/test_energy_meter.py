"""Activity-based energy metering: integrator, alerts, attribution."""

import importlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServerDesign, iridium_stack, mercury_stack
from repro.core.thermal import PASSIVE_COOLING_LIMIT_W, ThermalReport
from repro.errors import ConfigurationError, SimulationError
from repro.exp.scenarios import get_scenario
from repro.faults import ResiliencePolicy
from repro.power import DEFAULT_BUDGET, CORE_IDLE_FRACTION, DynamicPowerModel
from repro.sim.full_system import FullSystemStack
from repro.sim.run_options import RunOptions
from repro.telemetry import (
    AttributionTable,
    EnergyMeter,
    MetricsRegistry,
    TelemetrySession,
    Tracer,
    critical_path,
    energy_tail_attribution,
    prometheus_text,
    segment_power_w,
    trace_energy_j,
)
from repro.telemetry.critical_path import DEFAULT_QUANTILES
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.distributions import fixed_size
from repro.workloads.diurnal import DiurnalSchedule


def model(cores: int = 2) -> DynamicPowerModel:
    return DynamicPowerModel.for_stack(mercury_stack(cores))


def small_workload() -> WorkloadSpec:
    return WorkloadSpec(
        name="energy-test",
        get_fraction=0.9,
        key_population=2_000,
        value_sizes=fixed_size(64),
    )


def make_stack(cores: int = 2) -> FullSystemStack:
    return FullSystemStack(
        stack=mercury_stack(cores), memory_per_core_bytes=4 * MB, seed=1
    )


class TestDynamicPowerModel:
    def test_prices_derive_from_stack_constants(self):
        stack = mercury_stack(4)
        m = DynamicPowerModel.for_stack(stack)
        assert m.cores == 4
        assert m.core_active_w == stack.core.power_w
        assert m.core_idle_w == pytest.approx(
            CORE_IDLE_FRACTION * stack.core.power_w
        )
        assert m.memory_j_per_byte == stack.dram.energy_j_per_byte
        assert m.flash_read_j_per_page == 0.0
        assert m.nic_idle_w == stack.mac.power_w + stack.phy.power_w
        assert m.delivery_loss_fraction == pytest.approx(
            1.0 / DEFAULT_BUDGET.delivery_margin - 1.0
        )

    def test_flash_stack_prices_array_energies(self):
        stack = iridium_stack(4)
        m = DynamicPowerModel.for_stack(stack)
        assert m.flash_read_j_per_page == stack.flash.read_energy_j_per_page
        assert m.flash_program_j_per_page == stack.flash.program_energy_j_per_page
        assert m.flash_erase_j_per_block == stack.flash.erase_energy_j_per_block
        assert m.memory_j_per_byte == stack.flash.bus_energy_j_per_byte

    def test_server_power_matches_static_budget_arithmetic(self):
        m = model()
        for stack_w in (0.0, 1.0, 4.7):
            assert m.server_power_w(stack_w, num_stacks=3) == pytest.approx(
                DEFAULT_BUDGET.server_power_w(stack_w * 3)
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicPowerModel.for_stack(mercury_stack(2), idle_fraction=1.5)
        m = model()
        with pytest.raises(ConfigurationError):
            m.stack_power_w(1.5)
        with pytest.raises(ConfigurationError):
            m.server_power_w(1.0, num_stacks=0)

    def test_stack_power_interpolates_idle_to_active(self):
        m = model(4)
        assert m.stack_power_w(0.0) == pytest.approx(m.idle_floor_w)
        assert m.stack_power_w(1.0) == pytest.approx(m.active_ceiling_w)
        mid = m.stack_power_w(0.5)
        assert m.idle_floor_w < mid < m.active_ceiling_w


class TestIntegrator:
    def test_meter_validation(self):
        with pytest.raises(ConfigurationError):
            EnergyMeter(model(), window_s=0.0)
        with pytest.raises(ConfigurationError):
            EnergyMeter(model(), num_stacks=0)
        with pytest.raises(ConfigurationError):
            EnergyMeter(model(), throttle_derate=0.0)
        meter = EnergyMeter(model())
        with pytest.raises(SimulationError):
            meter.charge_core_busy(0.0, -1.0)
        with pytest.raises(SimulationError):
            meter.charge_memory_bytes(0.0, -10)

    def test_core_busy_splits_windows_exactly(self):
        meter = EnergyMeter(model(), window_s=0.01)
        # A busy interval spanning three windows: [0.005, 0.025].
        meter.charge_core_busy(0.005, 0.020)
        watts = meter.model.core_active_w - meter.model.core_idle_w
        total = watts * 0.020
        assert meter.components["cores_active"] == total
        window_sum = sum(meter.activity.get(i, 0.0) for i in range(3))
        assert window_sum == total  # bit-exact, remainder in the last window
        assert meter.activity.get(0, 0.0) == pytest.approx(watts * 0.005)
        assert meter.activity.get(1, 0.0) == pytest.approx(watts * 0.010)

    @given(
        charges=st.lists(
            st.tuples(
                st.sampled_from(("busy", "memory", "nic", "read", "program", "erase")),
                st.floats(min_value=0.0, max_value=0.05),
                st.floats(min_value=0.0, max_value=1e4),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_window_tiling(self, charges):
        """Random charge streams: components sum to the total exactly and
        window sums equal the charged activity bit-for-bit."""
        meter = EnergyMeter(
            DynamicPowerModel.for_stack(iridium_stack(2)), window_s=0.01
        )
        for kind, t, magnitude in charges:
            if kind == "busy":
                meter.charge_core_busy(t, magnitude * 1e-6)
            elif kind == "memory":
                meter.charge_memory_bytes(t, magnitude)
            elif kind == "nic":
                meter.charge_nic_bytes(t, magnitude)
            elif kind == "read":
                meter.charge_flash_reads(t, magnitude * 1e-2)
            elif kind == "program":
                meter.charge_flash_programs(t, magnitude * 1e-2)
            else:
                meter.charge_flash_erases(t, magnitude * 1e-4)
        summary = meter.finalize(0.1, completed=len(charges))
        assert summary["total_j"] == sum(summary["components_j"].values())
        activity_components = (
            summary["components_j"]["cores_active"]
            + summary["components_j"]["memory"]
            + summary["components_j"]["flash_array"]
            + summary["components_j"]["flash_erase"]
            + summary["components_j"]["nic_wire"]
        )
        window_sum = sum(
            meter.activity.get(i, 0.0) for i in sorted(meter.activity._values)
        )
        assert window_sum == pytest.approx(activity_components, rel=1e-12)

    def test_floors_accrue_with_time(self):
        m = model(2)
        meter = EnergyMeter(m, window_s=0.01)
        summary = meter.finalize(1.0, completed=0)
        assert summary["components_j"]["cores_idle"] == pytest.approx(
            m.cores * m.core_idle_w
        )
        assert summary["components_j"]["nic"] == pytest.approx(m.nic_idle_w)
        assert summary["components_j"]["chassis"] == pytest.approx(m.chassis_w)
        assert summary["components_j"]["delivery_loss"] == pytest.approx(
            m.delivery_loss_fraction * meter.stack_side_j
        )
        # An idle second draws exactly the floor power.
        assert summary["stack_mean_power_w"] == pytest.approx(m.idle_floor_w)

    def test_finalize_is_idempotent(self):
        meter = EnergyMeter(model(), window_s=0.01)
        meter.charge_memory_bytes(0.005, 1024)
        first = meter.finalize(0.1, completed=7)
        assert meter.finalize(99.0, completed=999) is first
        assert first["completed"] == 7
        assert first["joules_per_op"] == first["total_j"] / 7

    def test_timeline_includes_idle_windows(self):
        meter = EnergyMeter(model(), window_s=0.01)
        meter.charge_memory_bytes(0.035, 4096)  # only window 3 has activity
        meter.finalize(0.05, completed=1)
        rows = meter.timeline()
        assert len(rows) == 5
        floor = meter.model.idle_floor_w
        assert rows[0][1] == pytest.approx(floor)
        assert rows[3][1] > floor

    def test_registry_metrics_exported(self):
        registry = MetricsRegistry()
        meter = EnergyMeter(model(), window_s=0.01, registry=registry)
        meter.charge_memory_bytes(0.002, 4096)
        meter.tick(0.01)
        text = prometheus_text(registry)
        assert 'energy_joules_total{component="memory"}' in text
        assert "power_stack_watts" in text
        assert "power_server_watts" in text
        assert "power_throttle_derate 1" in text


class TestAlerts:
    def hot_meter(self, **kwargs) -> EnergyMeter:
        """A meter whose passive limit sits below the idle floor is
        violated by any busy window at all."""
        m = model(2)
        return EnergyMeter(
            m,
            window_s=0.01,
            passive_limit_w=m.idle_floor_w + 0.01,
            **kwargs,
        )

    def burn(self, meter: EnergyMeter, window: int) -> None:
        meter.charge_core_busy(meter.window_s * window, meter.window_s)

    def test_throttle_fires_once_per_sustained_violation(self):
        events = []
        meter = self.hot_meter(
            throttle_derate=0.5,
            sinks=[lambda event, alert, t: events.append((event, alert.rule, t))],
        )
        # Three hot windows, two cool ones, one hot again.
        for window in (0, 1, 2):
            self.burn(meter, window)
        for window in range(6):
            meter.tick((window + 1) * meter.window_s)
        self.burn(meter, 6)
        meter.tick(0.07)

        throttles = [a for a in meter.alerts if a.rule == "thermal_throttle"]
        assert len(throttles) == 2  # one per sustained violation, not per window
        assert throttles[0].cleared_at_s == pytest.approx(0.04)
        assert meter.throttle_windows == 4
        assert [e[0] for e in events] == ["fire", "clear", "fire"]

    def test_derate_factor_tracks_throttle_lifecycle(self):
        meter = self.hot_meter(throttle_derate=0.5)
        assert meter.derate_factor == 1.0
        self.burn(meter, 0)
        meter.tick(0.01)
        assert meter.throttled
        assert meter.derate_factor == 0.5
        meter.tick(0.02)  # cool window clears it
        assert not meter.throttled
        assert meter.derate_factor == 1.0

    def test_finalize_force_clears_active_alerts(self):
        meter = self.hot_meter()
        self.burn(meter, 0)
        meter.tick(0.01)
        assert meter.throttled
        summary = meter.finalize(0.015, completed=1)
        assert not meter.throttled
        assert summary["alerts"][0]["cleared_at_s"] == pytest.approx(0.015)

    def test_budget_burn_alert_extrapolates_stacks(self):
        m = model(2)
        meter = EnergyMeter(
            m,
            window_s=0.01,
            num_stacks=100,
            budget_w=100 * m.idle_floor_w + 1.0,
        )
        meter.tick(0.01)  # idle window: under budget
        assert not [a for a in meter.alerts if a.rule == "power_budget_burn"]
        meter.charge_core_busy(0.01, 0.01)
        meter.tick(0.02)
        burns = [a for a in meter.alerts if a.rule == "power_budget_burn"]
        assert len(burns) == 1
        assert burns[0].peak_burn > 1.0
        assert "100x" in burns[0].objective


class TestSpanAttribution:
    def flat_trace(self, tracer, arrival=0.0):
        trace = tracer.begin(arrival, verb="GET")
        trace.add_span("queue", arrival, 3e-5, kind="server", node="core0")
        trace.add_span("memcached", arrival + 3e-5, 1e-5, kind="server", node="core0")
        trace.finish(arrival + 4e-5)
        return trace

    def test_wait_segments_price_at_idle(self):
        m = model()
        assert segment_power_w("queue", m) == m.core_idle_w
        assert segment_power_w("replica_put.queue", m) == m.core_idle_w
        assert segment_power_w("batch_wait", m) == m.core_idle_w
        assert segment_power_w("memcached", m) == m.core_active_w
        assert segment_power_w("replica_put.memcached", m) == m.core_active_w

    def test_trace_energy_tiles_the_rtt(self):
        m = model()
        tracer = Tracer(MetricsRegistry())
        trace = self.flat_trace(tracer)
        joules = trace_energy_j(trace, m)
        assert joules == pytest.approx(
            3e-5 * m.core_idle_w + 1e-5 * m.core_active_w
        )
        # Bounded by the all-idle and all-active envelopes.
        assert trace.rtt_s * m.core_idle_w < joules < trace.rtt_s * m.core_active_w

    def test_tail_attribution_shares_and_cohorts(self):
        m = model()
        tracer = Tracer(MetricsRegistry())
        traces = [self.flat_trace(tracer, arrival=i * 1e-3) for i in range(20)]
        # One slow outlier dominated by queueing.
        slow = tracer.begin(0.5, verb="GET")
        slow.add_span("queue", 0.5, 9e-4, kind="server", node="core0")
        slow.add_span("memcached", 0.5 + 9e-4, 1e-5, kind="server", node="core0")
        slow.finish(0.5 + 9.1e-4)
        traces.append(slow)

        table, cohort_j = energy_tail_attribution(
            traces, m, quantiles=(0.0, 0.95)
        )
        for q in (0.0, 0.95):
            assert sum(table.shares[q].values()) == pytest.approx(1.0)
        # The tail cohort burns more joules per op than the population...
        assert cohort_j[0.95] > cohort_j[0.0]
        # ...and its energy is queue-dominated (idle-priced wait time).
        assert table.shares[0.95]["queue"] > table.shares[0.0]["queue"]

    def test_attribution_needs_finished_traces(self):
        with pytest.raises(ConfigurationError):
            energy_tail_attribution([], model())


def reference_energy_tail_attribution(traces, model, quantiles=DEFAULT_QUANTILES):
    """``energy_tail_attribution`` before it shared the cohort function
    with ``tail_attribution``, copied verbatim: it walked every trace."""
    finished = sorted(
        (t for t in traces if t.end_s is not None),
        key=lambda t: (t.rtt_s, t.request_id),
    )
    if not finished:
        raise ConfigurationError(
            "energy attribution needs at least one finished trace"
        )
    for q in quantiles:
        if not 0.0 <= q < 1.0:
            raise ConfigurationError("attribution quantiles must be in [0, 1)")
    paths = [critical_path(trace) for trace in finished]
    count = len(finished)
    shares: dict[float, dict[str, float]] = {}
    sizes: dict[float, int] = {}
    min_rtts: dict[float, float] = {}
    cohort_j_per_op: dict[float, float] = {}
    for q in quantiles:
        first = min(count - 1, int(math.floor(q * count)))
        cohort = finished[first:]
        cohort_paths = paths[first:]
        totals: dict[str, float] = {}
        for path in cohort_paths:
            for segment in path:
                joules = segment.duration_s * segment_power_w(
                    segment.component, model
                )
                totals[segment.component] = (
                    totals.get(segment.component, 0.0) + joules
                )
        total_j = sum(totals.values())
        shares[q] = (
            {name: value / total_j for name, value in totals.items()}
            if total_j > 0
            else {name: 0.0 for name in totals}
        )
        sizes[q] = len(cohort)
        min_rtts[q] = cohort[0].rtt_s
        cohort_j_per_op[q] = total_j / len(cohort)
    table = AttributionTable(
        quantiles=tuple(quantiles),
        shares=shares,
        cohort_sizes=sizes,
        cohort_min_rtt_s=min_rtts,
    )
    return table, cohort_j_per_op


class TestEnergyCohorts:
    def flat_traces(self, count=10):
        tracer = Tracer(MetricsRegistry())
        traces = []
        for i in range(count):
            trace = tracer.begin(float(i), verb="GET")
            trace.add_span("queue", float(i), (i + 1) * 1e-5, node="core0")
            trace.add_span("memcached", i + (i + 1) * 1e-5, 1e-5, node="core0")
            trace.finish(i + (i + 2) * 1e-5)
            traces.append(trace)
        return traces

    def test_walks_only_the_cohorts_paths(self, monkeypatch):
        # The default quantiles start at p50: the faster half of the
        # traces is in no cohort, so none of their paths is walked.
        walked = []

        def counting(trace):
            walked.append(trace)
            return critical_path(trace)

        for name in ("repro.telemetry.critical_path", "repro.telemetry.energy"):
            monkeypatch.setattr(
                importlib.import_module(name), "critical_path", counting
            )
        traces = self.flat_traces()
        table, cohort_j = energy_tail_attribution(traces, model())
        assert walked == traces[5:]
        assert table.cohort_sizes[0.5] == 5
        assert cohort_j[0.5] > 0

    @pytest.mark.parametrize("quantiles", [DEFAULT_QUANTILES, (0.0, 0.95), (0.9, 0.3)])
    def test_same_table_and_joules_as_walking_every_trace(self, quantiles):
        session = TelemetrySession(max_traces=2_000)
        stack = FullSystemStack(
            stack=mercury_stack(4), memory_per_core_bytes=1 * MB, seed=9
        )
        stack.run(
            small_workload(),
            RunOptions(
                offered_rate_hz=8_000.0, duration_s=0.1, warmup_requests=1_000,
                resilience=ResiliencePolicy(hedge_after_s=100e-6),
                telemetry=session,
            ),
        )
        traces = session.tracer.traces
        assert len(traces) > 100
        m = model(4)
        table, cohort_j = energy_tail_attribution(traces, m, quantiles)
        expected_table, expected_j = reference_energy_tail_attribution(
            traces, m, quantiles
        )
        assert table.to_dict() == expected_table.to_dict()
        assert table.shares == expected_table.shares
        assert cohort_j == expected_j


class TestDiurnalSchedule:
    def test_factor_peaks_at_start_and_troughs_midday(self):
        schedule = DiurnalSchedule(day_length_s=1.0, trough_fraction=0.3)
        assert schedule.factor(0.0) == pytest.approx(1.0)
        assert schedule.factor(0.5) == pytest.approx(0.3)
        assert schedule.factor(1.0) == pytest.approx(1.0)
        assert schedule.mean_factor() == pytest.approx(0.65)

    def test_round_trip_and_validation(self):
        schedule = DiurnalSchedule(day_length_s=2.0, trough_fraction=0.25)
        assert DiurnalSchedule.from_dict(schedule.to_dict()) == schedule
        with pytest.raises(ConfigurationError):
            DiurnalSchedule(day_length_s=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalSchedule(day_length_s=1.0, trough_fraction=1.5)


class TestThermalReportMeasured:
    def test_from_measured_carries_server_extrapolation(self):
        report = ThermalReport.from_measured("mercury-8", 96, 4.0)
        assert report.per_stack_tdp_w == 4.0
        assert report.server_tdp_w == pytest.approx(
            DEFAULT_BUDGET.server_power_w(4.0 * 96)
        )
        assert report.passively_coolable
        assert report.headroom_w == pytest.approx(PASSIVE_COOLING_LIMIT_W - 4.0)

    def test_gauges_exported(self):
        registry = MetricsRegistry()
        ThermalReport.from_measured("mercury-8", 96, 12.0).export_gauges(registry)
        text = prometheus_text(registry)
        assert "thermal_per_stack_watts 12" in text
        assert "thermal_passively_coolable 0" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThermalReport.from_measured("x", 0, 1.0)
        with pytest.raises(ConfigurationError):
            ThermalReport.from_measured("x", 1, -1.0)


class TestRunOptionsEnergy:
    def test_energy_summary_round_trips(self):
        options = RunOptions(
            5_000.0,
            0.05,
            energy_summary=True,
            diurnal=DiurnalSchedule(day_length_s=0.05),
        )
        rebuilt = RunOptions.from_dict(json.loads(json.dumps(options.to_dict())))
        assert rebuilt == options
        assert rebuilt.diurnal == DiurnalSchedule(day_length_s=0.05)

    def test_defaults_leave_dict_unchanged(self):
        """Off-by-default energy keys stay out of to_dict so pre-existing
        experiment-cache entries keep their byte-identical keys."""
        payload = RunOptions(5_000.0, 0.05).to_dict()
        assert "energy_summary" not in payload
        assert "diurnal" not in payload

    def test_meter_instrument_excluded_from_identity(self):
        bare = RunOptions(5_000.0, 0.05)
        instrumented = bare.with_instruments(
            energy=EnergyMeter(model(), window_s=0.01)
        )
        assert instrumented == bare
        assert instrumented.to_dict() == bare.to_dict()
        assert instrumented.without_instruments().energy is None

    def test_energy_diurnal_scenario_registered(self):
        scenario = get_scenario("energy-diurnal")
        options = scenario.run_options(
            offered_rate_hz=5_000.0, duration_s=0.05
        )
        assert options.energy_summary
        assert options.diurnal is not None
        assert options.diurnal.day_length_s == 1.0


class TestFullSystemMetering:
    def run_metered(self, seed=1, meter=None, diurnal=None, duration=0.08):
        system = FullSystemStack(
            stack=mercury_stack(2), memory_per_core_bytes=4 * MB, seed=seed
        )
        options = RunOptions(
            offered_rate_hz=20_000.0,
            duration_s=duration,
            warmup_requests=500,
            energy_summary=meter is None,
            diurnal=diurnal,
        )
        if meter is not None:
            options = options.with_instruments(energy=meter)
        return system.run(small_workload(), options)

    def test_conservation_and_results_surface(self):
        results = self.run_metered()
        energy = results.energy
        assert energy is not None
        assert energy["total_j"] == sum(energy["components_j"].values())
        assert results.joules_per_op == pytest.approx(
            energy["total_j"] / results.completed
        )
        assert results.measured_tps_per_watt > 0
        assert results.peak_window_power_w >= energy["trough_window_power_w"]
        assert "energy" in results.to_dict()

    def test_unmetered_run_omits_energy(self):
        results = make_stack().run(
            small_workload(), RunOptions(20_000.0, 0.05, warmup_requests=500)
        )
        assert results.energy is None
        assert results.joules_per_op == 0.0
        assert "energy" not in results.to_dict()

    def test_metering_does_not_perturb_the_run(self):
        metered = self.run_metered(seed=3)
        meter = EnergyMeter(model(2), window_s=0.01)  # non-derating
        unmetered = FullSystemStack(
            stack=mercury_stack(2), memory_per_core_bytes=4 * MB, seed=3
        ).run(
            small_workload(),
            RunOptions(offered_rate_hz=20_000.0, duration_s=0.08, warmup_requests=500),
        )
        assert metered.completed == unmetered.completed
        assert metered.mean_rtt == unmetered.mean_rtt
        assert metered.get_hits == unmetered.get_hits
        assert metered.puts == unmetered.puts

    def test_identical_seeds_are_bit_identical(self):
        first = self.run_metered(seed=11)
        second = self.run_metered(seed=11)
        assert first.energy["total_j"] == second.energy["total_j"]
        assert first.energy["components_j"] == second.energy["components_j"]

    def test_diurnal_trough_draws_less_than_peak(self):
        results = self.run_metered(
            diurnal=DiurnalSchedule(day_length_s=0.08), duration=0.08
        )
        energy = results.energy
        assert energy["trough_window_power_w"] < energy["peak_window_power_w"]

    def test_throttle_derates_throughput(self):
        m = model(2)

        def run(derate):
            meter = EnergyMeter(
                m,
                window_s=0.01,
                passive_limit_w=m.idle_floor_w + 1e-3,
                throttle_derate=derate,
            )
            return self.run_metered(seed=5, meter=meter), meter

        free, free_meter = run(1.0)
        throttled, hot_meter = run(0.5)
        # The same offered load runs hot the whole way through: exactly
        # one sustained violation, one alert, visible TPS cost.
        throttle_alerts = [
            a for a in hot_meter.alerts if a.rule == "thermal_throttle"
        ]
        assert len(throttle_alerts) == 1
        assert hot_meter.throttle_windows > 1
        assert throttled.completed < free.completed
        assert throttled.energy["throttle_windows"] == hot_meter.throttle_windows
        # The measure-only meter saw the same hot windows but left the
        # run untouched.
        assert free_meter.throttle_windows > 1
        assert free.energy["throttle_derate"] == 1.0
