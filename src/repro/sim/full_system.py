"""Full-system co-simulation: functional Memcached + timing model + DES.

This is the closest analogue in the library to the paper's gem5 runs.  A
simulated 3D stack runs one *real* :class:`MemcachedServer` per core
(actual hash table, slab allocator, LRU, protocol bytes); a Poisson
client drives it with a workload; the NIC MAC routes each request to the
core that owns its key (client-side consistent hashing, as production
Memcached shards); and the latency model charges each request the service
time of its actual verb, actual value size, and actual hit/miss outcome.

Where the analytic pipeline *assumes* (linear scaling, fixed sizes, 100 %
hit rate), this measures: per-component time breakdown, hit rates under
finite per-core memory, queueing at each core, and MAC buffer drops.

Every request walks one :class:`RequestPipeline`: arrive → route → loss
check → execute and cost → adjust → complete.  Code that only one
feature needs lives in its own module — quorum replication in
:mod:`repro.sim.quorum`, the batch former in :mod:`repro.sim.batch_former`,
the fluid fast-forward fold in :mod:`repro.sim.fluid` — and is wired in
once at set-up.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.core.latency_model import RequestTiming
from repro.core.stack import StackConfig
from repro.core.thermal import ThermalReport
from repro.errors import ConfigurationError, SimulationError
from repro.faults.injector import FaultInjector
from repro.flashstore.compaction import (
    TieredFlashStore,
    aggregate_tiered_results,
)
from repro.kvstore.items import ITEM_OVERHEAD_BYTES
from repro.kvstore.consistent_hash import ConsistentHashRing
from repro.kvstore.server_loop import MemcachedServer
from repro.kvstore.store import KVStore
from repro.network.packets import request_wire_payloads, wire_bytes_for_payload
from repro.power.dynamic import DynamicPowerModel
from repro.sim.batch_former import BatchFormer
from repro.sim.events import Simulator
from repro.sim.fluid import FluidFold, fidelity_provenance
from repro.sim.quorum import QuorumPath
from repro.sim.resources import FifoResource, ignore_completion
from repro.sim.rng import make_rng
from repro.sim.run_options import RunOptions
from repro.telemetry.critical_path import DigestTracer, compute_trace_digest
from repro.telemetry.energy import EnergyMeter
from repro.telemetry.metrics import MetricsRegistry, StreamingHistogram
from repro.telemetry.timeseries import TimeSeriesRecorder, WindowedSeries
from repro.telemetry.tracing import NULL_TELEMETRY, TelemetrySession
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

#: Deadline used for tail-based trace sampling when a run only asks for
#: a digest (matches the paper's 1.1 ms RTT SLA).
_DIGEST_SLA_DEADLINE_S = 1.1e-3

_BASE_TCP_PORT = 11211

#: Background core work, by ``background_busy_seconds`` task label.
_BACKGROUND_TASKS = ("hint_replay", "antientropy", "read_repair", "verify_read")


@dataclass
class FullSystemResults:
    """Measured outcomes of a full-system run.

    Latency outcomes stream into fixed-bucket log histograms (exact
    count/mean/min/max, percentiles within one bucket width) instead of
    per-sample lists; pass ``keep_samples=True`` to additionally retain
    the raw ``rtts``/``waits`` samples for validation runs that need
    exact order statistics.
    """

    duration_s: float
    offered_rate_hz: float
    completed: int = 0
    keep_samples: bool = False
    rtt_histogram: StreamingHistogram = field(
        default_factory=lambda: StreamingHistogram("request_rtt_seconds")
    )
    wait_histogram: StreamingHistogram = field(
        default_factory=lambda: StreamingHistogram("queue_wait_seconds")
    )
    rtts: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    component_seconds: dict[str, float] = field(
        default_factory=lambda: {"hash": 0.0, "memcached": 0.0, "network": 0.0}
    )
    get_hits: int = 0
    get_misses: int = 0
    puts: int = 0
    response_bytes: int = 0
    mac_drops: int = 0
    per_core_served: dict[int, int] = field(default_factory=dict)
    # Fault-plane outcomes (all zero on a fault-free run).
    failed: int = 0
    retries: int = 0
    failovers: int = 0
    hedges: int = 0
    fault_timeouts: int = 0
    # Replication outcomes (all zero on an unreplicated run).
    replica_puts: int = 0
    redirected_reads: int = 0
    verify_reads: int = 0
    read_repairs: int = 0
    hints_queued: int = 0
    hints_replayed: int = 0
    antientropy_sweeps: int = 0
    antientropy_repairs: int = 0
    # Batched-path outcomes (all zero when batching is off).
    batches: int = 0
    batched_ops: int = 0
    batch_flush_reasons: dict[str, int] = field(default_factory=dict)
    # Tiered flash-store outcomes (amplifications, per-tier traffic and
    # index memory), populated only when RunOptions.flashstore is set.
    flashstore: dict | None = None
    # Optional windowed hit-rate timeline for recovery analysis; the
    # series share the dict-style {window_index: count} surface the
    # old ad-hoc maps had.
    window_s: float | None = None
    window_gets: WindowedSeries | None = None
    window_hits: WindowedSeries | None = None
    # Observatory outcomes: SLO alert lifecycle and the time-series
    # recorder, populated when run() is given an SloMonitor / recorder.
    slo_alerts: list = field(default_factory=list)
    timeseries: TimeSeriesRecorder | None = None
    # Compact causal-trace summary (sampling counters + tail
    # critical-path shares), populated when RunOptions.trace_digest is
    # set; JSON-safe so cached experiment cells can carry it.
    trace_digest: dict | None = None
    # Measured-energy summary (per-component joules, windowed power,
    # throttle alerts), populated when an EnergyMeter instrument is
    # attached or RunOptions.energy_summary is set; JSON-safe so cached
    # experiment cells carry the measured watts.
    energy: dict | None = None
    # Fidelity provenance (mode, fluid/DES seconds, fluid request count,
    # fallback reason), populated only when RunOptions.fidelity is set;
    # keys mirror the ``sim_fidelity_*`` registry metric names so sweep
    # exports and metrics snapshots grep alike.
    fidelity: dict | None = None

    def __post_init__(self) -> None:
        interval = self.window_s if self.window_s is not None else 1.0
        if self.window_gets is None:
            self.window_gets = WindowedSeries("window_gets", interval)
        if self.window_hits is None:
            self.window_hits = WindowedSeries("window_hits", interval)

    def record(self, rtt_s: float, wait_s: float) -> None:
        """Count one completed request's latency outcome."""
        self.completed += 1
        self.rtt_histogram.record(rtt_s)
        self.wait_histogram.record(wait_s)
        if self.keep_samples:
            self.rtts.append(rtt_s)
            self.waits.append(wait_s)

    @property
    def throughput_hz(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mean_rtt(self) -> float:
        return self.rtt_histogram.mean

    @property
    def max_rtt(self) -> float:
        return self.rtt_histogram.maximum

    @property
    def mean_wait(self) -> float:
        return self.wait_histogram.mean

    def rtt_percentile(self, p: float) -> float:
        """RTT quantile: exact when samples are kept, else histogram-based."""
        if self.rtts:
            ordered = sorted(self.rtts)
            index = min(len(ordered) - 1, int(p * len(ordered)))
            return ordered[index]
        return self.rtt_histogram.percentile(p)

    @property
    def hit_rate(self) -> float:
        gets = self.get_hits + self.get_misses
        return self.get_hits / gets if gets else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Ops per coalesced batch (0.0 when batching never engaged)."""
        return self.batched_ops / self.batches if self.batches else 0.0

    @property
    def write_amplification(self) -> float:
        """Physical replica writes per logical PUT (≈N when healthy;
        exactly 1.0 for an unreplicated run)."""
        if not self.puts:
            return 0.0
        if not self.replica_puts:
            return 1.0
        return self.replica_puts / self.puts

    # Measured-energy accessors (0.0 when the run was not metered).
    @property
    def joules_per_op(self) -> float:
        """Measured energy per completed request (total stack + chassis
        joules over completions; 0.0 for unmetered runs)."""
        if self.energy is None:
            return 0.0
        return self.energy.get("joules_per_op", 0.0)

    @property
    def measured_tps_per_watt(self) -> float:
        """The paper's §5.4 figure of merit at *measured* power: server
        throughput over mean wall watts (0.0 for unmetered runs)."""
        if self.energy is None:
            return 0.0
        return self.energy.get("measured_tps_per_watt", 0.0)

    @property
    def peak_window_power_w(self) -> float:
        """Highest windowed server power seen during the run (0.0 for
        unmetered runs)."""
        if self.energy is None:
            return 0.0
        return self.energy.get("peak_window_power_w", 0.0)

    def sla_fraction(self, deadline_s: float = 1e-3) -> float:
        if self.rtts:
            return sum(1 for r in self.rtts if r <= deadline_s) / len(self.rtts)
        return self.rtt_histogram.fraction_below(deadline_s)

    def sla_violation_rate(self, deadline_s: float = 1e-3) -> float:
        """Share of requests that missed ``deadline_s`` *or never
        completed at all* — the SLA a fault schedule actually violates."""
        total = self.completed + self.failed
        if total == 0:
            return 0.0
        late = self.completed * (1.0 - self.sla_fraction(deadline_s))
        return (late + self.failed) / total

    # --- windowed hit-rate timeline (fault recovery analysis) ----------------

    def note_window_get(self, arrival_s: float, hit: bool) -> None:
        """Bucket one GET outcome into its arrival-time window."""
        if self.window_s is None:
            return
        self.window_gets.observe(arrival_s)
        if hit:
            self.window_hits.observe(arrival_s)

    def hit_rate_timeline(self) -> list[tuple[float, float]]:
        """(window start, hit rate) pairs; empty unless ``window_s`` set."""
        if self.window_s is None:
            return []
        return self.window_hits.rate_timeline(self.window_gets)

    def hit_rate_after(self, t_s: float) -> float:
        """Aggregate hit rate over windows starting at or after ``t_s``."""
        if self.window_s is None:
            raise ConfigurationError("run with window_s to get a timeline")
        horizon = math.inf
        gets = self.window_gets.sum_over(t_s, horizon)
        hits = self.window_hits.sum_over(t_s, horizon)
        return hits / gets if gets else 0.0

    def recovery_time_s(
        self,
        reference_hit_rate: float,
        after_s: float,
        within: float = 0.05,
    ) -> float | None:
        """Seconds from ``after_s`` (e.g. a restart) until the windowed
        hit rate is back within ``within`` of ``reference_hit_rate``;
        None if it never recovers inside the run."""
        floor = reference_hit_rate * (1.0 - within)
        for start_s, rate in self.hit_rate_timeline():
            if start_s >= after_s and rate >= floor:
                return max(0.0, start_s - after_s)
        return None

    def breakdown_fractions(self) -> dict[str, float]:
        """Measured Fig. 4-style component shares of total service time."""
        total = sum(self.component_seconds.values())
        if total == 0.0:
            return {name: 0.0 for name in self.component_seconds}
        return {
            name: seconds / total for name, seconds in self.component_seconds.items()
        }

    def core_load_imbalance(self) -> float:
        """max/mean requests served per core (1.0 = perfectly even)."""
        if not self.per_core_served:
            return 1.0
        counts = list(self.per_core_served.values())
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    def to_dict(self) -> dict:
        """The measured outcomes as a JSON-safe dict.

        This is the transport format of the experiment engine: workers
        return it across process boundaries and the result cache stores
        it verbatim, so it must be a pure function of the run (live
        instruments — ``slo_alerts``/``timeseries`` — are excluded, as
        are the raw sample lists, whose aggregate histograms are kept
        exactly).  Keys are stable and values round-trip through JSON
        bit-for-bit.
        """
        payload: dict = {
            "duration_s": self.duration_s,
            "offered_rate_hz": self.offered_rate_hz,
            "completed": self.completed,
            "get_hits": self.get_hits,
            "get_misses": self.get_misses,
            "puts": self.puts,
            "response_bytes": self.response_bytes,
            "mac_drops": self.mac_drops,
            "failed": self.failed,
            "retries": self.retries,
            "failovers": self.failovers,
            "hedges": self.hedges,
            "fault_timeouts": self.fault_timeouts,
            "replica_puts": self.replica_puts,
            "redirected_reads": self.redirected_reads,
            "verify_reads": self.verify_reads,
            "read_repairs": self.read_repairs,
            "hints_queued": self.hints_queued,
            "hints_replayed": self.hints_replayed,
            "antientropy_sweeps": self.antientropy_sweeps,
            "antientropy_repairs": self.antientropy_repairs,
            "component_seconds": {
                name: self.component_seconds[name]
                for name in sorted(self.component_seconds)
            },
            "per_core_served": {
                str(core): self.per_core_served[core]
                for core in sorted(self.per_core_served)
            },
            "rtt_histogram": self.rtt_histogram.to_dict(),
            "wait_histogram": self.wait_histogram.to_dict(),
            "window_s": self.window_s,
        }
        if self.window_s is not None:
            payload["window_gets"] = self.window_gets.to_dict()
            payload["window_hits"] = self.window_hits.to_dict()
        if self.trace_digest is not None:
            # Only present when the run asked for it, so digest-free
            # payloads stay byte-identical to pre-digest cache entries.
            payload["trace_digest"] = self.trace_digest
        if self.batches:
            # Same conditional-key rule as trace_digest: batch-free runs
            # keep their pre-batching cache-entry byte layout.
            payload["batches"] = self.batches
            payload["batched_ops"] = self.batched_ops
            payload["batch_flush_reasons"] = {
                reason: self.batch_flush_reasons[reason]
                for reason in sorted(self.batch_flush_reasons)
            }
        if self.flashstore is not None:
            # Conditional key again: runs without the tiered store keep
            # their pre-flashstore cache-entry byte layout.
            payload["flashstore"] = self.flashstore
        if self.energy is not None:
            # Conditional key again: unmetered runs keep their
            # pre-energy cache-entry byte layout.
            payload["energy"] = self.energy
        if self.fidelity is not None:
            # Conditional key again: full-DES runs keep their
            # pre-fidelity cache-entry byte layout.
            payload["fidelity"] = self.fidelity
        return payload


class FullSystemStack:
    """One simulated 3D stack running real Memcached instances."""

    def __init__(
        self,
        stack: StackConfig,
        memory_per_core_bytes: int | None = None,
        max_queue_per_core: int | None = 256,
        seed: int = 0,
    ):
        """Args:
            stack: the 3D stack configuration to simulate.
            memory_per_core_bytes: per-core store budget (defaults to the
                stack capacity split evenly).
            max_queue_per_core: the MAC's finite buffering, expressed as
                requests queued per core; arrivals beyond it are dropped
                (``None`` = infinite).
            seed: RNG seed for arrivals and the workload.
        """
        if max_queue_per_core is not None and max_queue_per_core < 1:
            raise ConfigurationError("queue bound must be positive (or None)")
        self.max_queue_per_core = max_queue_per_core
        self.stack = stack
        self.model = stack.latency_model()
        if memory_per_core_bytes is None:
            memory_per_core_bytes = stack.capacity_bytes // stack.cores
        if memory_per_core_bytes < 1 << 20:
            raise ConfigurationError("each core needs at least one slab page")
        self.servers = [
            MemcachedServer(KVStore(memory_per_core_bytes))
            for _ in range(stack.cores)
        ]
        self.connections = [server.connect() for server in self.servers]
        # Client-side sharding over the stack's cores, each a "node"
        # listening on its own TCP port behind the shared MAC (§4.1.4).
        self.ring = ConsistentHashRing(
            (str(_BASE_TCP_PORT + i) for i in range(stack.cores)), vnodes=128
        )
        self.seed = seed

    def core_for_key(self, key: bytes) -> int:
        return int(self.ring.node_for(key)) - _BASE_TCP_PORT

    # --- the run -----------------------------------------------------------------

    def _core_index(self, node: str) -> int:
        """Map a fault-schedule node label (``core3``, ``3``, or a TCP
        port) to a core index."""
        label = node[4:] if node.startswith("core") else node
        try:
            index = int(label)
        except ValueError:
            raise ConfigurationError(f"unknown full-system node {node!r}") from None
        if index >= _BASE_TCP_PORT:
            index -= _BASE_TCP_PORT
        if not 0 <= index < self.stack.cores:
            raise ConfigurationError(f"no core for fault target {node!r}")
        return index

    def run(self, workload: WorkloadSpec, options: RunOptions) -> FullSystemResults:
        """Drive the stack with ``workload`` under ``options``.

        ``options`` (a :class:`~repro.sim.run_options.RunOptions`, which
        documents every field) carries the load, the fault, replication,
        batching, flash-store and fidelity configuration, and any
        attached instruments.  Warm-up PUTs fill the stores outside
        simulated time; then every request walks the
        :class:`RequestPipeline` on the simulated clock, and the fluid
        fold fast-forwards quiescent stretches when ``options.fidelity``
        allows.  Instruments observe without perturbing: a run is
        bit-identical with them on or off.
        """
        # The refusals that depend on the stack, before anything is
        # built or any instrument is touched.
        if options.flashstore is not None and not self.model.memory.is_flash:
            raise ConfigurationError(
                "the tiered flash store needs a flash (Iridium) "
                "stack; Mercury keeps its DRAM path"
            )
        repl = options.replication
        if repl is not None and repl.n > self.stack.cores:
            raise ConfigurationError(
                f"replication factor {repl.n} exceeds the "
                f"{self.stack.cores}-core stack"
            )
        pipeline = RequestPipeline(self, workload, options)
        pipeline.warm(options.warmup_requests)
        pipeline.drive()
        return pipeline.finish()

    # --- functional execution -------------------------------------------------------

    def _execute(
        self, key: bytes, verb: str, value_bytes: int, core_index: int
    ) -> tuple[bool, int]:
        """Run the request against the real store; (hit, response bytes)."""
        connection = self.connections[core_index]
        if verb == "GET":
            reply = connection.feed(b"get %s\r\n" % key)
            hit = reply.startswith(b"VALUE ")
            return hit, len(reply)
        payload = b"x" * value_bytes
        reply = connection.feed(
            b"set %s 0 0 %d\r\n%s\r\n" % (key, value_bytes, payload)
        )
        if reply not in (b"STORED\r\n",) and not reply.startswith(b"SERVER_ERROR"):
            raise SimulationError(f"unexpected store reply {reply!r}")
        return True, len(reply)


class RequestPipeline:
    """One run of a :class:`FullSystemStack`: its state and the request
    pipeline every request walks.

    arrive → route → loss check → execute and cost → adjust → complete.
    Each step below has one implementation, shared by the serial path,
    the quorum's replica copies and the batch former.  Features are
    wired once at set-up (``quorum``, ``batcher``, ``tiered``,
    ``hedge_after_s``, ``adjust``, ``charge_op_energy`` are each an
    object, a bound function or ``None``), so a request never loops over
    feature objects.
    """

    def __init__(
        self, system: FullSystemStack, workload: WorkloadSpec, options: RunOptions
    ):
        self.system = system
        self.model = system.model
        self.stack = system.stack
        self.stack_label = system.stack.name
        self.base_port = _BASE_TCP_PORT
        self.max_queue = system.max_queue_per_core
        self.execute = system._execute
        self.options = options
        self.duration_s = duration_s = options.duration_s
        self.offered_rate_hz = options.offered_rate_hz
        self.fill_on_miss = options.fill_on_miss
        self.diurnal = options.diurnal
        # Fixed item framing shared with the latency model: the
        # calibrated default key length, not each request's actual key
        # bytes, so the tiered store, the energy charges and the timing
        # math all see the same item footprint.
        self.key_bytes = self.model.cal.default_key_bytes
        self.item_overhead = ITEM_OVERHEAD_BYTES + self.key_bytes
        self._prices: dict[tuple[str, int], tuple] = {}
        # Value size -> the one value object every functionally stored
        # item of that size shares (warm-up and the fluid fold).
        self.payloads: dict[int, bytes] = {}

        telemetry = options.telemetry
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        if options.trace_digest and not telemetry.tracer.enabled:
            # A digest was requested but no live tracer attached (the
            # experiment engine's cached cells run instrument-free):
            # trace internally with the paper SLA as the tail-sampling
            # deadline, seeded off the stack seed for reproducibility.
            # The digest is the only reader, so each retained trace is
            # folded to its digest record at commit.  A live registry
            # stays the caller's, so its metrics (and any recorder
            # reading them) still see the run.
            registry = (
                telemetry.registry
                if telemetry.registry.enabled
                else MetricsRegistry()
            )
            telemetry = TelemetrySession(
                registry=registry,
                tracer=DigestTracer(
                    registry,
                    slo_deadline_s=_DIGEST_SLA_DEADLINE_S,
                    sampling_seed=system.seed,
                ),
            )
        self.registry = registry = telemetry.registry
        self.tracer = telemetry.tracer
        # Set-up order is schedule order: the instruments' recurring
        # events, then the fault plane's, then anti-entropy's, then the
        # first arrival, so same-time events keep their tie-break order.
        self.sim = sim = Simulator()
        self.profiler = options.profiler
        self.timeseries = options.timeseries
        self.slo = slo = options.slo
        if self.profiler is not None:
            self.profiler.attach(sim)
        if self.timeseries is not None:
            self.timeseries.install(sim, horizon_s=duration_s)
        if slo is not None:
            slo.install(sim, horizon_s=duration_s)
            if self.tracer.enabled:
                # Link alerts to representative traces: at fire time the
                # alert samples the RTT histogram's exemplars from every
                # bucket reaching past the tightest latency objective.
                deadlines = [
                    objective.deadline_s
                    for objective in slo.objectives.values()
                    if objective.deadline_s is not None
                ]
                if deadlines:
                    rtt_histogram = registry.histogram("request_rtt_seconds")
                    exemplar_floor = min(deadlines)
                    slo.attach_exemplars(
                        lambda: rtt_histogram.exemplars_above(exemplar_floor)
                    )
        self.slo_record = slo.record if slo is not None else None
        meter = options.energy
        if meter is None and options.energy_summary:
            # A summary was requested but no live meter attached (the
            # experiment engine's cached cells run instrument-free):
            # meter internally against this stack's derived power model,
            # sized to the run's window_s (default: twenty windows).
            meter = EnergyMeter(
                DynamicPowerModel.for_stack(self.stack),
                window_s=(
                    options.window_s
                    if options.window_s is not None
                    else duration_s / 20.0
                ),
                registry=registry,
            )
        self.energy_meter = meter
        if meter is not None:
            meter.install(sim, horizon_s=duration_s)
            self.charge_op_energy = self._charge_op_energy
        else:
            self.charge_op_energy = None

        self.rng = make_rng("full-system", system.seed)
        self.generator = WorkloadGenerator(workload, seed=system.seed)
        self.cores = [
            FifoResource(
                sim,
                name=f"core{i}",
                registry=registry,
                busy_observer=meter.charge_core_busy if meter is not None else None,
            )
            for i in range(system.stack.cores)
        ]
        for server, core in zip(system.servers, self.cores):
            server.attach_queue(core)
        self.results = FullSystemResults(
            duration_s=duration_s,
            offered_rate_hz=options.offered_rate_hz,
            keep_samples=options.keep_samples,
            window_s=options.window_s,
        )
        self.completed_total = registry.counter("requests_completed_total")
        self.drops_total = registry.counter("mac_drops_total")
        self.hits_total = registry.counter("get_hits_total")
        self.misses_total = registry.counter("get_misses_total")
        self.puts_total = registry.counter("puts_total")
        self.response_bytes_total = registry.counter("response_bytes_total")
        self.served_per_core = [
            registry.counter("requests_served_total", {"core": str(i)})
            for i in range(system.stack.cores)
        ]
        self.failed_total = registry.counter("requests_failed_total")
        self.retries_total = registry.counter("client_retries_total")
        self.timeouts_total = registry.counter("client_timeouts_total")
        self.failovers_total = registry.counter("client_failovers_total")
        self.hedges_total = registry.counter("client_hedged_requests_total")

        self.policy = policy = options.resilience
        self.retry_rng = make_rng("resilience", system.seed)
        self.hedge_after_s = policy.hedge_after_s if policy is not None else None
        # The client's live view of the cluster: failover removes nodes
        # here and health checks re-add them; the stack's ring (the
        # MAC's port map) is never mutated.
        self.client_ring = ConsistentHashRing(
            (str(_BASE_TCP_PORT + i) for i in range(system.stack.cores)),
            vnodes=128,
        )
        self.down_cores: set[int] = set()
        self.failed_over: set[str] = set()
        self.consecutive_timeouts: dict[str, int] = {}

        self.tiered: list[TieredFlashStore] | None = None
        if options.flashstore is not None:
            # One tiered store per core, each seeded off (stack seed,
            # core index) so runs are reproducible and cores differ.
            self.tiered = [
                TieredFlashStore(
                    system.stack.flash,
                    options.flashstore,
                    seed=system.seed,
                    label=f"core{i}",
                    registry=registry,
                )
                for i in range(system.stack.cores)
            ]
        self.batcher = (
            BatchFormer(self, options.batching)
            if options.uses("batching")
            else None
        )
        self.admit = (
            self.batcher.enqueue if self.batcher is not None else self.dispatch
        )
        # Background busy-time histograms: simulated core seconds charged
        # to housekeeping, windowed into the time-series recorder like
        # any other metric so a run's timeline shows the fault -> hint
        # replay -> anti-entropy -> recovery sequence.
        tasks = _BACKGROUND_TASKS
        if self.tiered is not None:
            tasks = ("conversion", "compaction") + tasks
        self.background_busy = {
            task: registry.histogram("background_busy_seconds", {"task": task})
            for task in tasks
        }
        self.replica_put_wait = registry.histogram("replica_put_wait_seconds")
        self.quorum = (
            QuorumPath(self, options.replication)
            if options.uses("replication")
            else None
        )
        self.fill = self.quorum.fill if self.quorum is not None else self._fill_one

        self.injector: FaultInjector | None = None
        if options.faults is not None:
            self.injector = FaultInjector(
                options.faults, seed=system.seed, registry=registry
            )
            self.injector.install(
                sim, horizon_s=duration_s,
                on_crash=self._crash_core, on_restart=self._restart_core,
            )
        if self.quorum is not None:
            self.quorum.install_antientropy()
        self.memory_kind = "flash" if self.model.memory.is_flash else "dram"
        self.adjust = (
            self._adjust
            if self.injector is not None or meter is not None
            else None
        )
        self.next_arrival = 0.0
        self.arrival_event = None

    # --- set-up and wind-down ------------------------------------------------------

    def warm(self, warmup_requests: int) -> None:
        """Pre-populate the stores with PUTs outside simulated time.

        Warm-up executes functionally, as the fluid fold does: each
        draw takes the generator's RNG stream exactly as a request
        would, and its PUT goes straight to ``KVStore.set`` on the
        key's core (on every replica under quorum), with no protocol
        round trip.
        """
        next_raw = self.generator.next_raw
        core_for_key = self.system.core_for_key
        stores = [server.store for server in self.system.servers]
        quorum = self.quorum
        profiler = self.profiler
        warm_span = profiler.span("warmup") if profiler is not None else nullcontext()
        with warm_span:
            for _ in range(warmup_requests):
                key, size, _is_get = next_raw()
                value = self.payload(size)
                if quorum is not None:
                    for port in quorum.placement.replicas_for(key):
                        quorum.stores[port].set(key, value)
                    continue
                core = core_for_key(key)
                stores[core].set(key, value)
                if self.tiered is not None:
                    self.tiered[core].put(key, self.item_overhead + size)
        if self.tiered is not None:
            # Warmup populated the tiers outside simulated time; meter
            # only the measured run (registry counters start clean).
            for tiered in self.tiered:
                tiered.reset_stats()
                tiered.metered = True

    def payload(self, size: int) -> bytes:
        """The shared value object for items of ``size`` bytes."""
        payload = self.payloads.get(size)
        if payload is None:
            payload = self.payloads[size] = b"x" * size
        return payload

    def drive(self) -> None:
        """Run the simulated clock: pure DES, or the fluid fold when the
        fidelity policy allows it."""
        delay = self.arrival_delay()
        self.next_arrival = delay
        self.arrival_event = self.sim.schedule(delay, self.arrive)
        fidelity = self.options.fidelity
        reason = None
        if fidelity is not None and fidelity.mode != "full":
            # Features whose event-level interleaving is the phenomenon
            # under study cannot be folded analytically; the run
            # degrades to full DES and records why.
            reason = self.options.fluid_fallback_reason()
            if reason is None:
                FluidFold(self, fidelity).run()
                return
        self.sim.run()
        if fidelity is not None:
            self.registry.counter("sim_fidelity_des_seconds_total").inc(
                self.duration_s
            )
            self.results.fidelity = fidelity_provenance(
                fidelity.mode, self.duration_s, reason
            )

    def finish(self) -> FullSystemResults:
        """Close the instruments and summarise the run."""
        results, registry, now = self.results, self.registry, self.sim.now
        if self.slo is not None:
            self.slo.evaluate(now)
            results.slo_alerts = list(self.slo.alerts)
        if self.timeseries is not None:
            self.timeseries.flush(now)
            results.timeseries = self.timeseries
        if self.options.trace_digest and self.tracer.enabled:
            results.trace_digest = compute_trace_digest(self.tracer)
        if self.tiered is not None:
            summary = aggregate_tiered_results(self.tiered)
            results.flashstore = summary
            for name in (
                "write_amplification", "read_amplification", "index_bytes_per_key"
            ):
                registry.gauge(f"flashstore_{name}").set(summary[name])
        meter = self.energy_meter
        if meter is not None:
            energy_summary = meter.finalize(now, results.completed)
            results.energy = energy_summary
            # Re-check §6.5's passive-cooling argument at *measured*
            # power instead of the worst-case TDP.
            ThermalReport.from_measured(
                self.stack_label,
                meter.num_stacks,
                energy_summary["stack_mean_power_w"],
                passive_limit_w=meter.passive_limit_w,
            ).export_gauges(registry)
        return results

    def _crash_core(self, node: str) -> None:
        # §2.3: a downed node loses its share of the cache.
        index = self.system._core_index(node)
        self.down_cores.add(index)
        self.system.servers[index].store.flush_all()
        if self.tiered is not None:
            # The crash also loses the tiers' in-memory indexes, so the
            # tiered store restarts empty with its peer.
            self.tiered[index].flush()

    def _restart_core(self, node: str) -> None:
        index = self.system._core_index(node)
        self.down_cores.discard(index)
        if self.quorum is not None:
            self.quorum.replay_hints(index)

    # --- arrive → route → loss check -----------------------------------------------

    def arrival_delay(self) -> float:
        # Without a diurnal schedule the draw is untouched, so the RNG
        # stream (and every downstream outcome) stays bit-identical to
        # pre-diurnal runs.
        if self.diurnal is None:
            return self.rng.expovariate(self.offered_rate_hz)
        return self.rng.expovariate(
            self.offered_rate_hz * self.diurnal.factor(self.sim.now)
        )

    def arrive(self) -> None:
        """One Poisson arrival; keeps exactly one arrival event pending,
        whose fire time the fluid fold reads."""
        sim = self.sim
        now = sim.now
        if now >= self.duration_s:
            self.arrival_event = None
            return
        request = self.generator.next_request()
        # The trace opens at arrival so every attempt — retries, hedges,
        # replica fan-out — shares one causal context.
        state = {
            "done": False,
            "arrival": now,
            "attempts": 0,
            "trace": self.tracer.begin(now, verb=request.verb),
        }
        self.admit(request, state)
        delay = self.arrival_delay()
        self.next_arrival = now + delay
        self.arrival_event = sim.schedule(delay, self.arrive)

    def route(self, request, state) -> str | None:
        """The port the client's ring maps the key to (None: no node
        left, and the request gave up)."""
        if len(self.client_ring) == 0:
            self.give_up(request, state)
            return None
        return self.client_ring.node_for(request.key)

    def dispatch(self, request, state, attempt: int = 0) -> None:
        """One attempt of one logical request (``attempt`` 0-based)."""
        quorum = self.quorum
        if quorum is not None:
            if request.verb != "GET":
                quorum.dispatch_put(request, state, attempt)
                return
            state["attempts"] = attempt + 1
            port = quorum.read_port(request.key, attempt)
        else:
            state["attempts"] = attempt + 1
            port = self.route(request, state)
            if port is None:
                return
        core_index = int(port) - _BASE_TCP_PORT
        if self.lost(core_index):
            self.timed_out(request, state, attempt, port)
            return
        self.serve(request, state, core_index, port)

    def lost(self, core_index: int) -> bool:
        """Loss check for one packet train to ``core_index``: a down
        core, an injected drop or corruption, or a full MAC queue (the
        client sees each as a timeout)."""
        injector = self.injector
        if injector is not None and (
            core_index in self.down_cores
            or injector.should_drop()
            or injector.should_corrupt()
        ):
            return True
        if self._queue_full(core_index):
            self.results.mac_drops += 1
            self.drops_total.inc()
            return True
        return False

    def _queue_full(self, core_index: int) -> bool:
        """The MAC's buffer for ``core_index`` is full."""
        return (
            self.max_queue is not None
            and self.cores[core_index].queue_depth >= self.max_queue
        )

    # --- client resilience -----------------------------------------------------

    def note_timeout(self, port: str) -> None:
        """Count one timed-out attempt; enough in a row fail the node over."""
        self.results.fault_timeouts += 1
        self.timeouts_total.inc()
        count = self.consecutive_timeouts.get(port, 0) + 1
        self.consecutive_timeouts[port] = count
        if self.policy is not None and self.policy.should_fail_over(count):
            self._fail_over(port)

    def timed_out(self, request, state, attempt: int, port: str) -> None:
        self.note_timeout(port)
        self.retry_or_give_up(request, state, attempt, after_timeout=True)

    def retry_or_give_up(
        self, request, state, attempt: int, *, after_timeout: bool
    ) -> None:
        """Retry after backoff (plus the timeout that detected the loss)
        while attempts remain; otherwise the request fails."""
        policy = self.policy
        if policy is None or attempt + 1 >= policy.max_attempts:
            self.give_up(request, state)
            return
        self.results.retries += 1
        self.retries_total.inc()
        delay = policy.backoff_s(attempt, self.retry_rng)
        if after_timeout:
            delay = policy.request_timeout_s + delay
        self.sim.schedule(delay, lambda: self.dispatch(request, state, attempt + 1))

    def give_up(self, request, state) -> None:
        self.results.failed += 1
        self.failed_total.inc()
        if self.slo_record is not None:
            self.slo_record(self.sim.now, ok=False)
        if self.tracer.enabled:
            # Error traces are always retained by tail sampling.
            trace = state["trace"]
            trace.annotate(
                verb=request.verb, error="gave_up", attempts=state["attempts"]
            )
            trace.finish(self.sim.now)
            self.tracer.commit(trace)
        if request.verb == "GET":
            self.results.note_window_get(state["arrival"], hit=False)

    def _fail_over(self, port: str) -> None:
        if port in self.failed_over or len(self.client_ring) <= 1:
            return
        self.failed_over.add(port)
        self.client_ring.remove_node(port)
        self.results.failovers += 1
        self.failovers_total.inc()
        if self.sim.now < self.duration_s:
            self.sim.schedule(
                self.policy.health_check_interval_s,
                lambda: self._try_readmit(port),
            )

    def _try_readmit(self, port: str) -> None:
        """Health check: re-add a failed-over node once it is up."""
        if port not in self.failed_over:
            return
        if self.system._core_index(port) not in self.down_cores:
            self.failed_over.discard(port)
            self.client_ring.add_node(port)
            self.consecutive_timeouts[port] = 0
        elif self.sim.now < self.duration_s:
            self.sim.schedule(
                self.policy.health_check_interval_s,
                lambda: self._try_readmit(port),
            )

    # --- execute and cost → adjust ---------------------------------------------

    def serve(
        self, request, state, core_index: int, port: str, via: str | None = None
    ) -> None:
        """Execute one attempt on ``core_index``, cost it, and queue it."""
        sim = self.sim
        tracer = self.tracer
        verb = request.verb
        dispatched = sim.now
        hit, response_len = self.execute(
            request.key, verb, request.value_bytes, core_index
        )
        tiered_cost = None
        if self.tiered is not None:
            tiered_cost = self._mirror_tiered(request, core_index, state["trace"])
        quorum = self.quorum
        if verb == "GET":
            if not hit:
                if quorum is not None:
                    hit, response_len = quorum.read_repair(
                        request, state, core_index, response_len
                    )
                if self.fill_on_miss and not hit:
                    self.fill(request, core_index, state["trace"])
            if quorum is not None:
                quorum.note_redirect(request.key, port)
            served_bytes = response_len
        else:
            served_bytes = request.value_bytes
        if tiered_cost is not None:
            timing = self.model.request_timing_tiered(
                verb, served_bytes, tiered_cost.service_s
            )
        else:
            timing = self.model.request_timing(verb, served_bytes)
        if self.adjust is not None:
            timing = self.adjust(timing)
        if self.charge_op_energy is not None:
            self.charge_op_energy(dispatched, verb, served_bytes, tiered_cost)

        def complete(wait: float) -> None:
            if state["done"]:
                # A hedged twin already answered: the losing branch is
                # causally linked but outside the trace, so the RTT
                # identity over the span tree survives.
                if tracer.enabled:
                    tracer.follow_from(
                        "hedge_straggler" if via == "hedge" else "straggler",
                        dispatched,
                        sim.now - dispatched,
                        node=f"core{core_index}",
                        stack=self.stack_label,
                        kind="client",
                        trace=state["trace"],
                    )
                return
            state["done"] = True
            self.consecutive_timeouts[port] = 0
            self.count_outcome(verb, hit, response_len, state["arrival"])
            if sim.now <= self.duration_s:
                self.count_latency(state["arrival"], wait)
                self.charge_service(core_index, timing)
                if tracer.enabled:
                    self._trace_served(
                        request, state, core_index, hit, served_bytes,
                        timing, tiered_cost, dispatched, wait, via,
                    )

        self.cores[core_index].submit(timing.total_s, complete)
        if quorum is not None and verb == "GET":
            quorum.verify_reads(request, state, port)
        if self.hedge_after_s is not None and verb == "GET":
            sim.schedule(
                self.hedge_after_s, lambda: self._hedge(request, state, port)
            )

    def _adjust(self, timing: RequestTiming) -> RequestTiming:
        """Timing adjustment: the fault plane's service factor, then the
        thermal derate."""
        if self.injector is not None:
            factor = self.injector.service_factor(self.memory_kind)
            if factor != 1.0:
                timing = replace(timing, memcached_s=timing.memcached_s * factor)
        meter = self.energy_meter
        if meter is not None and meter.derate_factor != 1.0:
            # Thermal throttle feedback: the derated clock stretches the
            # on-core stages (hash + memcached); the wire time is
            # unaffected.
            derate = meter.derate_factor
            timing = replace(
                timing,
                hash_s=timing.hash_s / derate,
                memcached_s=timing.memcached_s / derate,
            )
        return timing

    def op_price(self, verb: str, served_bytes: int) -> tuple:
        """Energy activity of one op shape, cached: (memory bytes, wire
        bytes, flash page reads, programs, erases).  ``memory_bandwidth()``
        moves 2x the item per op (read + response copy, or lookup +
        store); a flash stack moves whole pages, as the latency model
        stalls for them."""
        price = self._prices.get((verb, served_bytes))
        if price is None:
            item_bytes = self.item_overhead + served_bytes
            wire = request_wire_payloads(verb, served_bytes, key_bytes=self.key_bytes)
            wire_bytes = wire_bytes_for_payload(
                wire.request_payload
            ) + wire_bytes_for_payload(wire.response_payload)
            reads = programs = erases = 0.0
            flash = self.stack.flash
            if flash is not None:
                pages = float(flash.pages_for(item_bytes))
                if verb == "GET":
                    reads = pages
                else:
                    programs = pages
                    erases = pages / flash.pages_per_block
            price = (2.0 * item_bytes, wire_bytes, reads, programs, erases)
            self._prices[(verb, served_bytes)] = price
        return price

    def _charge_op_energy(
        self,
        t: float,
        verb: str,
        served_bytes: int,
        tiered_cost=None,
        wire: bool = True,
    ) -> None:
        """Charge one op's memory, wire and flash activity to the energy
        meter; ``wire=False`` for stack-internal ops (replays, repairs,
        verify reads).  Core busy energy needs no per-op charge — the
        cores' busy observer charges it over exactly the busy intervals."""
        meter = self.energy_meter
        memory, wire_bytes, reads, programs, erases = self.op_price(
            verb, served_bytes
        )
        meter.charge_memory_bytes(t, memory)
        if wire:
            meter.charge_nic_bytes(t, wire_bytes)
        flash = self.stack.flash
        if flash is None:
            return
        if tiered_cost is not None:
            # Tiered store: reads cost what the tier probe actually
            # touched; log-structured writes amortise to the item's share
            # of a page, and erases to that share of a block.
            if verb == "GET":
                reads = float(tiered_cost.pages_read)
            else:
                programs = (self.item_overhead + served_bytes) / flash.page_bytes
                erases = programs / flash.pages_per_block
        if verb == "GET":
            meter.charge_flash_reads(t, reads)
        else:
            meter.charge_flash_programs(t, programs)
            meter.charge_flash_erases(t, erases)

    def _fill_one(self, request, core_index: int, trace) -> None:
        """Cache-aside refill: the application fetches the value from its
        backing store and re-caches it (functional only; the DB round
        trip is outside the simulated SLA)."""
        self.execute(request.key, "PUT", request.value_bytes, core_index)
        if self.tiered is not None:
            # The refill lands in the tiers too (free, like the plain
            # functional PUT), but any conversion it tips over is real
            # background flash work.
            refill = self.tiered[core_index].put(
                request.key, self.item_overhead + request.value_bytes
            )
            if refill.background:
                self._charge_tier_moves(core_index, refill.background, trace)

    def _mirror_tiered(self, request, core_index: int, trace):
        """Mirror the op against this core's tiered store: the functional
        outcome stays the plain store's (so runs with the tier on/off
        match request for request), the *cost* becomes the tiers'
        measured flash work."""
        tiered = self.tiered[core_index]
        if request.verb == "GET":
            cost = tiered.get(request.key)
        else:
            cost = tiered.put(request.key, self.item_overhead + request.value_bytes)
        if cost.background:
            self._charge_tier_moves(core_index, cost.background, trace)
        return cost

    def _charge_tier_moves(self, core_index: int, works, trace) -> None:
        """Conversion/compaction flash time lands on the core that
        triggered it (the tier moves already happened functionally)."""
        meter = self.energy_meter
        flash = self.stack.flash
        for work in works:
            if meter is not None:
                # Tier moves hit the NAND array: every page the move read
                # and rewrote, plus the rewritten pages' amortised share
                # of block erases.
                now = self.sim.now
                meter.charge_flash_reads(now, float(work.pages_read))
                meter.charge_flash_programs(now, float(work.pages_written))
                meter.charge_flash_erases(
                    now, work.pages_written / flash.pages_per_block
                )
            self.background_work(core_index, work.service_s, work.kind, trace)

    def background_work(
        self, core_index: int, service_s: float, task: str, trace=None
    ) -> None:
        """Occupy a core with work no request waits on: recorded under
        ``background_busy_seconds{task}`` and linked to ``trace`` (if
        any) by a follow-from span."""
        self.background_busy[task].record(service_s)
        if self.tracer.enabled:
            self.tracer.follow_from(
                task,
                self.sim.now,
                service_s,
                node=f"core{core_index}",
                stack=self.stack_label,
                trace=trace,
            )
        self.cores[core_index].submit(service_s, ignore_completion)

    def _hedge(self, request, state, port: str) -> None:
        """The hedged twin of a slow GET, on the next node."""
        if state["done"]:
            return
        if self.quorum is not None:
            alt = self.quorum.hedge_port(request.key, port)
            if alt is None:
                return
        else:
            if len(self.client_ring) < 2:
                return
            nodes = sorted(self.client_ring.nodes)
            try:
                alt = nodes[(nodes.index(port) + 1) % len(nodes)]
            except ValueError:  # primary failed over meanwhile
                alt = nodes[0]
        alt_core = self.system._core_index(alt)
        if alt_core in self.down_cores or self._queue_full(alt_core):
            return
        self.results.hedges += 1
        self.hedges_total.inc()
        self.serve(request, state, alt_core, alt, via="hedge")

    # --- complete ----------------------------------------------------------------

    def count_outcome(
        self, verb: str, hit: bool, response_len: int, arrival: float
    ) -> None:
        """A logical request's functional outcome: hit/miss/put and
        response bytes."""
        results = self.results
        if verb == "GET":
            if hit:
                results.get_hits += 1
                self.hits_total.inc()
            else:
                results.get_misses += 1
                self.misses_total.inc()
            results.note_window_get(arrival, hit)
        else:
            results.puts += 1
            self.puts_total.inc()
        results.response_bytes += response_len
        self.response_bytes_total.inc(response_len)

    def count_latency(self, arrival: float, wait: float) -> None:
        """A completion inside the horizon: RTT and wait samples and the
        SLO record."""
        now = self.sim.now
        self.results.record(now - arrival, wait)
        self.completed_total.inc()
        if self.slo_record is not None:
            self.slo_record(now, latency_s=now - arrival, ok=True)

    def charge_service(
        self, core_index: int, timing: RequestTiming, served: int = 1
    ) -> None:
        """One core job's component seconds and served-request count."""
        components = self.results.component_seconds
        components["hash"] += timing.hash_s
        components["memcached"] += timing.memcached_s
        components["network"] += timing.network_s
        per_core = self.results.per_core_served
        per_core[core_index] = per_core.get(core_index, 0) + served
        self.served_per_core[core_index].inc(served)

    def client_wait(self, trace, name: str, arrival: float, dispatched: float) -> None:
        """The client-side interval before the serving attempt went out
        (retry backoff, hedge delay, batch fill), if any."""
        if dispatched > arrival:
            trace.add_span(
                name, arrival, dispatched - arrival,
                kind="client", node="client", stack=self.stack_label,
            )

    def server_spans(self, trace, dispatched, wait, timing, parent, node):
        """The server span chain queue → network → hash → memcached under
        ``parent``; returns the memcached span."""
        stack = self.stack_label
        trace.add_span(
            "queue", dispatched, wait,
            parent=parent, kind="server", node=node, stack=stack,
        )
        served_at = dispatched + wait
        trace.add_span(
            "network", served_at, timing.network_s,
            parent=parent, kind="server", node=node, stack=stack,
        )
        trace.add_span(
            "hash", served_at + timing.network_s, timing.hash_s,
            parent=parent, kind="server", node=node, stack=stack,
        )
        return trace.add_span(
            "memcached",
            served_at + timing.network_s + timing.hash_s,
            timing.memcached_s,
            parent=parent, kind="server", node=node, stack=stack,
        )

    def _trace_served(
        self, request, state, core_index, hit, served_bytes,
        timing, tiered_cost, dispatched, wait, via,
    ) -> None:
        """Commit a served request's span tree.  It retraces the path: any
        client retry / hedge wait as a root interval, then the server
        chain — as roots on the plain path (the flat Fig. 4 layout), or
        nested under a "hedge" wrapper when the hedged twin won."""
        now = self.sim.now
        stack = self.stack_label
        node = f"core{core_index}"
        arrival = state["arrival"]
        trace = state["trace"]
        trace.annotate(
            core=core_index, verb=request.verb, value_bytes=served_bytes, hit=hit
        )
        if state["attempts"] > 1:
            trace.annotate(attempts=state["attempts"])
        parent = None
        if via == "hedge":
            self.client_wait(trace, "hedge_wait", arrival, dispatched)
            parent = trace.add_span(
                "hedge", dispatched, now - dispatched,
                kind="client", node=node, stack=stack,
            )
        else:
            self.client_wait(trace, "retry", arrival, dispatched)
        memcached_span = self.server_spans(
            trace, dispatched, wait, timing, parent, node
        )
        if tiered_cost is not None and tiered_cost.probes:
            # Per-tier flash intervals nest inside the memcached stage
            # (where the tiered timing folded them), laid back to back
            # in probe order: log, hash stores, sorted.
            probe_at = dispatched + wait + timing.network_s + timing.hash_s
            for tier_name, seconds in tiered_cost.probes:
                trace.add_span(
                    f"flash_{tier_name}", probe_at, seconds,
                    parent=memcached_span, kind="server", node=node, stack=stack,
                )
                probe_at += seconds
        if self.quorum is not None:
            self.quorum.close_verify_spans(trace, state)
        trace.finish(now)
        self.tracer.commit(trace)
