"""Activity-based energy metering for full-system DES runs.

The static power model prices a design at one operating point; this
module *measures* energy while the simulation runs.  An
:class:`EnergyMeter` is an instrument in the PR 4/5 sense — attach it
via ``RunOptions.with_instruments(energy=...)`` and the run charges it
as activity happens:

* every busy interval on a core charges ``(active - idle)`` watts for
  the service time (the idle floor is accrued continuously);
* every request charges its memory bytes at the DRAM/flash-bus
  joules-per-byte price and its wire bytes at the PHY serialisation
  price;
* flash page reads/programs and block erases (the FTL's and the tiered
  store's) charge the Grupp et al. array energies;
* the NIC floor, the chassis floor and delivery losses accrue with
  simulated time.

Energy is conserved by construction: ``sum(components) == total_j``
exactly, and the windowed series the meter keeps (joules of stack-side
activity per window) is charged so that window sums equal the charged
energy bit-for-bit.  On top of the windows the meter runs two
:class:`~repro.telemetry.slo.Alert`-style lifecycles:

* ``thermal_throttle`` — the simulated stack's windowed power exceeded
  the passive-cooling limit; fires once per sustained violation and
  clears when a window comes back under.  While active, the meter's
  :attr:`derate_factor` drops below 1.0 so the run can slow the cores
  and show the TPS cost of running hot.
* ``power_budget_burn`` — the extrapolated enclosure (``num_stacks``
  stacks behaving like the simulated one) exceeded the stack power
  budget.

Registry metrics (``energy_*`` / ``power_*``) carry the same numbers
for the Prometheus exporter and the :class:`TimeSeriesRecorder`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.power.dynamic import DynamicPowerModel
from repro.telemetry.critical_path import (
    DEFAULT_QUANTILES,
    AttributionTable,
    attribute_cohorts,
    critical_path,
    path_record,
)
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY
from repro.telemetry.slo import Alert
from repro.telemetry.timeseries import WindowedSeries
from repro.telemetry.tracing import RequestTrace

#: Critical-path components during which the serving core is *waiting*
#: (queueing, lingering, backoff) rather than executing: they burn the
#: idle floor, not active power.  Matched against the last dot-qualified
#: part of the branch-qualified component name.
WAIT_COMPONENTS = frozenset(
    {"queue", "client", "batch_wait", "linger", "backoff", "hedge_wait"}
)

#: Default frequency-derating factor applied while thermally throttled:
#: the memcached/hash phases slow to 1/0.8 = 1.25x their calibrated time.
DEFAULT_THROTTLE_DERATE = 0.8

_COMPONENTS = (
    "cores_active",
    "cores_idle",
    "memory",
    "flash_array",
    "flash_erase",
    "nic",
    "nic_wire",
    "delivery_loss",
    "chassis",
)


class EnergyMeter:
    """Integrates per-component power over simulated time.

    ``model`` prices events (see :class:`DynamicPowerModel`);
    ``window_s`` sets the power-averaging window for the timeline and
    the alerts.  ``num_stacks`` extrapolates enclosure-level numbers
    (wall power, budget burn, TPS/W) from the one simulated stack; the
    energy ledger itself always covers one stack plus the full chassis
    floor.  ``throttle_derate`` in (0, 1] is the frequency factor
    applied while the thermal alert is active (1.0 = measure only,
    never perturb).
    """

    def __init__(
        self,
        model: DynamicPowerModel,
        window_s: float = 0.01,
        registry: MetricsRegistry = NULL_REGISTRY,
        num_stacks: int = 1,
        passive_limit_w: float | None = None,
        budget_w: float | None = None,
        throttle_derate: float = 1.0,
        sinks: Sequence[Callable] = (),
    ):
        from repro.core.thermal import PASSIVE_COOLING_LIMIT_W

        if window_s <= 0:
            raise ConfigurationError("energy window must be positive")
        if num_stacks < 1:
            raise ConfigurationError("num_stacks must be at least 1")
        if not 0.0 < throttle_derate <= 1.0:
            raise ConfigurationError("throttle_derate must be in (0, 1]")
        self.model = model
        self.window_s = window_s
        self.registry = registry
        self.num_stacks = num_stacks
        self.passive_limit_w = (
            PASSIVE_COOLING_LIMIT_W if passive_limit_w is None else passive_limit_w
        )
        self.budget_w = budget_w
        self.throttle_derate = throttle_derate
        self._sinks = list(sinks)

        self.components: dict[str, float] = {name: 0.0 for name in _COMPONENTS}
        #: Stack-side *activity* joules per window (everything above the
        #: idle floor: core busy increments, memory/flash/wire charges).
        self.activity = WindowedSeries(
            "stack_activity_joules", window_s, kind="sum"
        )
        self._floor_until_s = 0.0
        self._stack_side_at_accrual = 0.0
        self.busy_core_seconds = 0.0
        self.alerts: list[Alert] = []
        self._throttle: Alert | None = None
        self._budget_alert: Alert | None = None
        self.throttle_windows = 0
        self._finalized: dict | None = None

        self._counters = {
            name: registry.counter("energy_joules_total", {"component": name})
            for name in _COMPONENTS
        }
        self._stack_gauge = registry.gauge("power_stack_watts")
        self._server_gauge = registry.gauge("power_server_watts")
        self._derate_gauge = registry.gauge("power_throttle_derate")
        self._derate_gauge.set(1.0)
        self._throttle_counter = registry.counter("energy_throttle_events_total")
        self._budget_counter = registry.counter("energy_budget_events_total")

    # --- charging -----------------------------------------------------------

    def _charge(self, component: str, joules: float) -> None:
        if joules < 0:
            raise SimulationError("cannot charge negative energy")
        self.components[component] += joules
        self._counters[component].inc(joules)

    def _charge_point(self, component: str, t_s: float, joules: float) -> None:
        if joules == 0.0:
            return
        self._charge(component, joules)
        self.activity.observe(t_s, joules)

    def charge_core_busy(self, start_s: float, service_s: float) -> None:
        """One busy interval on one core: active-above-idle watts for
        ``service_s``, split exactly across power windows."""
        if service_s < 0:
            raise SimulationError("service time cannot be negative")
        if service_s == 0.0:
            return
        self.busy_core_seconds += service_s
        watts = self.model.core_active_w - self.model.core_idle_w
        total = watts * service_s
        self._charge("cores_active", total)
        # Split across windows; the final window takes the remainder so
        # the window sum equals the charged total bit-for-bit.
        first = self.activity.index_of(start_s)
        last = self.activity.index_of(start_s + service_s)
        charged = 0.0
        for index in range(first, last):
            overlap = self.activity.start_of(index + 1) - max(
                start_s, self.activity.start_of(index)
            )
            part = watts * overlap
            self.activity.observe_index(index, part)
            charged += part
        self.activity.observe_index(last, total - charged)

    def _charge_spread(
        self, component: str, start_s: float, end_s: float, joules: float
    ) -> None:
        """Charge ``joules`` spread uniformly across ``[start_s, end_s)``.

        The bulk analogue of :meth:`_charge_point` for fluid
        fast-forward windows: a window's aggregate energy is deposited
        proportionally into each overlapped power window (final window
        takes the float remainder so the window sum equals the charged
        total bit-for-bit), keeping the power timeline — and therefore
        thermal-throttle evaluation — smooth instead of spiky.
        """
        if joules == 0.0:
            return
        if end_s <= start_s:
            self._charge_point(component, start_s, joules)
            return
        self._charge(component, joules)
        rate = joules / (end_s - start_s)
        first = self.activity.index_of(start_s)
        last = self.activity.index_of(end_s)
        charged = 0.0
        for index in range(first, last):
            overlap = self.activity.start_of(index + 1) - max(
                start_s, self.activity.start_of(index)
            )
            part = rate * overlap
            self.activity.observe_index(index, part)
            charged += part
        self.activity.observe_index(last, joules - charged)

    def charge_core_busy_bulk(
        self, start_s: float, end_s: float, busy_core_seconds: float
    ) -> None:
        """Aggregate core-busy time spread uniformly across a span."""
        if busy_core_seconds < 0:
            raise SimulationError("service time cannot be negative")
        if busy_core_seconds == 0.0:
            return
        self.busy_core_seconds += busy_core_seconds
        watts = self.model.core_active_w - self.model.core_idle_w
        self._charge_spread(
            "cores_active", start_s, end_s, watts * busy_core_seconds
        )

    def charge_memory_bytes_bulk(
        self, start_s: float, end_s: float, num_bytes: float
    ) -> None:
        """Aggregate memory traffic spread uniformly across a span."""
        self._charge_spread(
            "memory", start_s, end_s, self.model.memory_j_per_byte * num_bytes
        )

    def charge_nic_bytes_bulk(
        self, start_s: float, end_s: float, wire_bytes: float
    ) -> None:
        """Aggregate wire traffic spread uniformly across a span."""
        self._charge_spread(
            "nic_wire", start_s, end_s, self.model.nic_j_per_byte * wire_bytes
        )

    def charge_flash_bulk(
        self,
        start_s: float,
        end_s: float,
        pages_read: float,
        pages_programmed: float,
        blocks_erased: float,
    ) -> None:
        """Aggregate flash-array work spread uniformly across a span."""
        self._charge_spread(
            "flash_array",
            start_s,
            end_s,
            self.model.flash_read_j_per_page * pages_read
            + self.model.flash_program_j_per_page * pages_programmed,
        )
        self._charge_spread(
            "flash_erase",
            start_s,
            end_s,
            self.model.flash_erase_j_per_block * blocks_erased,
        )

    def charge_memory_bytes(self, t_s: float, num_bytes: float) -> None:
        """DRAM-port or flash-channel traffic for one request."""
        self._charge_point("memory", t_s, self.model.memory_j_per_byte * num_bytes)

    def charge_flash_reads(self, t_s: float, pages: float) -> None:
        self._charge_point(
            "flash_array", t_s, self.model.flash_read_j_per_page * pages
        )

    def charge_flash_programs(self, t_s: float, pages: float) -> None:
        self._charge_point(
            "flash_array", t_s, self.model.flash_program_j_per_page * pages
        )

    def charge_flash_erases(self, t_s: float, blocks: float) -> None:
        """``blocks`` may be fractional: log-structured stores amortise
        one block erase across the pages programmed into it."""
        self._charge_point(
            "flash_erase", t_s, self.model.flash_erase_j_per_block * blocks
        )

    def charge_nic_bytes(self, t_s: float, wire_bytes: float) -> None:
        """Serialisation energy for bytes on the wire (both directions)."""
        self._charge_point("nic_wire", t_s, self.model.nic_j_per_byte * wire_bytes)

    def _accrue_floors(self, until_s: float) -> None:
        """Time-priced components (idle cores, NIC, chassis) up to
        ``until_s``, plus delivery losses on stack-side energy so far."""
        elapsed = until_s - self._floor_until_s
        if elapsed < 0:
            raise SimulationError("energy meter clock moved backwards")
        if elapsed > 0:
            self._charge(
                "cores_idle", self.model.cores * self.model.core_idle_w * elapsed
            )
            self._charge("nic", self.model.nic_idle_w * elapsed)
            self._charge("chassis", self.model.chassis_w * elapsed)
            self._floor_until_s = until_s
        stack_side = self.stack_side_j
        delta = stack_side - self._stack_side_at_accrual
        if delta > 0:
            self._charge(
                "delivery_loss", self.model.delivery_loss_fraction * delta
            )
            self._stack_side_at_accrual = stack_side

    # --- readings -----------------------------------------------------------

    @property
    def stack_side_j(self) -> float:
        """Joules drawn by the stack itself (before delivery and chassis)."""
        return sum(
            self.components[name]
            for name in _COMPONENTS
            if name not in ("delivery_loss", "chassis")
        )

    @property
    def total_j(self) -> float:
        return sum(self.components.values())

    def stack_window_w(self, index: int) -> float:
        """Mean stack-side watts over one complete window."""
        return (
            self.model.idle_floor_w + self.activity.get(index, 0.0) / self.window_s
        )

    def server_window_w(self, index: int) -> float:
        """Extrapolated wall watts over one window (``num_stacks`` alike)."""
        return self.model.server_power_w(self.stack_window_w(index), self.num_stacks)

    def timeline(self) -> list[tuple[float, float, float]]:
        """Complete windows as ``(start_s, stack_w, server_w)`` rows.

        Every window up to the accrual clock is reported — including
        idle ones the sparse activity series never stored, which sit at
        the floor power.  That is the point of measuring: the troughs
        exist on the timeline.
        """
        last_complete = self.activity.index_of(self._floor_until_s)
        return [
            (
                self.activity.start_of(index),
                self.stack_window_w(index),
                self.server_window_w(index),
            )
            for index in range(last_complete)
        ]

    @property
    def derate_factor(self) -> float:
        """Current frequency factor: ``throttle_derate`` while the
        thermal alert is active, 1.0 otherwise."""
        if self._throttle is not None and self._throttle.active:
            return self.throttle_derate
        return 1.0

    @property
    def throttled(self) -> bool:
        return self._throttle is not None and self._throttle.active

    # --- alert lifecycle ----------------------------------------------------

    def _emit(self, event: str, alert: Alert, now_s: float) -> None:
        for sink in self._sinks:
            sink(event, alert, now_s)

    def _evaluate_window(self, index: int, now_s: float) -> None:
        stack_w = self.stack_window_w(index)
        if stack_w > self.passive_limit_w:
            self.throttle_windows += 1
            if self._throttle is None or not self._throttle.active:
                alert = Alert(
                    rule="thermal_throttle",
                    objective=self.model.stack_name,
                    fired_at_s=now_s,
                    peak_burn=stack_w / self.passive_limit_w,
                )
                self._throttle = alert
                self.alerts.append(alert)
                self._throttle_counter.inc()
                self._derate_gauge.set(self.throttle_derate)
                self._emit("fire", alert, now_s)
            else:
                self._throttle.peak_burn = max(
                    self._throttle.peak_burn, stack_w / self.passive_limit_w
                )
        elif self._throttle is not None and self._throttle.active:
            self._throttle.cleared_at_s = now_s
            self._derate_gauge.set(1.0)
            self._emit("clear", self._throttle, now_s)

        if self.budget_w is not None:
            aggregate_w = stack_w * self.num_stacks
            if aggregate_w > self.budget_w:
                if self._budget_alert is None or not self._budget_alert.active:
                    alert = Alert(
                        rule="power_budget_burn",
                        objective=f"{self.num_stacks}x{self.model.stack_name}",
                        fired_at_s=now_s,
                        peak_burn=aggregate_w / self.budget_w,
                    )
                    self._budget_alert = alert
                    self.alerts.append(alert)
                    self._budget_counter.inc()
                    self._emit("fire", alert, now_s)
                else:
                    self._budget_alert.peak_burn = max(
                        self._budget_alert.peak_burn, aggregate_w / self.budget_w
                    )
            elif self._budget_alert is not None and self._budget_alert.active:
                self._budget_alert.cleared_at_s = now_s
                self._emit("clear", self._budget_alert, now_s)

    def tick(self, now_s: float) -> None:
        """Close out the window ending at ``now_s``: accrue floors, set
        the power gauges, evaluate the alert rules."""
        self._accrue_floors(now_s)
        index = self.activity.index_of(now_s) - 1
        if index < 0:
            return
        self._stack_gauge.set(self.stack_window_w(index))
        self._server_gauge.set(self.server_window_w(index))
        self._evaluate_window(index, now_s)

    def install(self, sim, horizon_s: float) -> None:
        """Schedule the window tick on the simulated clock."""
        if horizon_s <= 0:
            raise ConfigurationError("horizon must be positive")
        # eps keeps the historical float-slop boundary: a horizon that is
        # an exact multiple of the window still gets its closing tick.
        sim.recurring(self.window_s, self.tick, horizon_s, eps=1e-12)

    # --- summary ------------------------------------------------------------

    def finalize(self, now_s: float, completed: int) -> dict:
        """Close the ledger at ``now_s`` and return the JSON-safe summary."""
        if self._finalized is not None:
            return self._finalized
        self._accrue_floors(now_s)
        if self._throttle is not None and self._throttle.active:
            self._throttle.cleared_at_s = now_s
            self._emit("clear", self._throttle, now_s)
            self._derate_gauge.set(1.0)
        if self._budget_alert is not None and self._budget_alert.active:
            self._budget_alert.cleared_at_s = now_s
            self._emit("clear", self._budget_alert, now_s)

        duration = now_s if now_s > 0 else self.window_s
        total = self.total_j
        stack_mean_w = self.stack_side_j / duration
        server_mean_w = self.model.server_power_w(stack_mean_w, self.num_stacks)
        windows = self.timeline()
        server_powers = [row[2] for row in windows]
        tps = completed / duration
        summary = {
            "stack": self.model.stack_name,
            "num_stacks": self.num_stacks,
            "window_s": self.window_s,
            "duration_s": duration,
            "completed": completed,
            "total_j": total,
            "components_j": {
                name: self.components[name] for name in _COMPONENTS
            },
            "stack_mean_power_w": stack_mean_w,
            "server_mean_power_w": server_mean_w,
            "peak_window_power_w": max(server_powers) if server_powers else server_mean_w,
            "trough_window_power_w": (
                min(server_powers) if server_powers else server_mean_w
            ),
            "joules_per_op": total / completed if completed else 0.0,
            "measured_tps_per_watt": (
                tps * self.num_stacks / server_mean_w if server_mean_w > 0 else 0.0
            ),
            "throttle_windows": self.throttle_windows,
            "throttle_derate": self.throttle_derate,
            "alerts": [alert.to_dict() for alert in self.alerts],
        }
        self._finalized = summary
        return summary


# --- per-span attribution -----------------------------------------------------------


def segment_power_w(component: str, model: DynamicPowerModel) -> float:
    """Core watts burned during one critical-path segment.

    Wait-type components (see :data:`WAIT_COMPONENTS`) hold the core at
    its idle floor; everything else executes at active power.  The
    branch qualifier is ignored: ``replica_put.queue`` waits like
    ``queue`` does.
    """
    leaf = component.rsplit(".", 1)[-1]
    if leaf in WAIT_COMPONENTS:
        return model.core_idle_w
    return model.core_active_w


def trace_energy_j(trace: RequestTrace, model: DynamicPowerModel) -> float:
    """Core energy attributed to one request along its critical path.

    The critical-path segments exactly tile ``[arrival, end]`` (the
    PR 6 identity), so per-segment joules — duration times the
    segment's power — tile the request's energy by construction.
    """
    return sum(
        segment.duration_s * segment_power_w(segment.component, model)
        for segment in critical_path(trace)
    )


def energy_tail_attribution(
    traces: Iterable[RequestTrace],
    model: DynamicPowerModel,
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
) -> tuple[AttributionTable, dict[float, float]]:
    """Joules-per-op attribution by RTT-quantile cohort.

    Returns the component share table (fractions of cohort *energy*
    rather than cohort RTT) and the mean joules-per-op of each cohort —
    "how much more energy does a p99.9 request burn than the median".
    """
    finished = sorted(
        (t for t in traces if t.end_s is not None),
        key=lambda t: (t.rtt_s, t.request_id),
    )
    if not finished:
        raise ConfigurationError(
            "energy attribution needs at least one finished trace"
        )
    table, cohort_j = attribute_cohorts(
        finished,
        quantiles,
        fold=path_record,
        weigh=lambda component, seconds: (
            seconds * segment_power_w(component, model)
        ),
    )
    cohort_j_per_op = {
        q: cohort_j[q] / table.cohort_sizes[q] for q in table.quantiles
    }
    return table, cohort_j_per_op
