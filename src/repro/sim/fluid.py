"""The fluid fast-forward fold of the full-system request pipeline.

:class:`FluidFold` drives a run through its fidelity plan's DES islands
and fluid windows (see :mod:`repro.sim.fidelity`).  DES islands replay
the event loop unchanged, so everything inside them (RNG draws, store
mutations, event interleavings) is bit-identical to a pure-DES run.
Fluid windows consume the same arrival/workload RNG draws one by one and
execute each request *functionally* against the same stores — keeping
store contents, hit/miss outcomes, and the RNG cursor exact — while
folding the per-request latency/energy/SLO accounting in batches
calibrated from the DES-only portion of the run so far.  The fold reads
every piece of run state it needs from the pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kvstore.protocol import reply_len
from repro.kvstore.store import StoreResult
from repro.sim.fidelity import (
    FidelityPolicy,
    allocate_proportional,
    fault_intervals,
    plan_segments,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.full_system import RequestPipeline

#: Completed DES requests a fluid fast-forward window needs before its
#: calibration surrogate (latency distribution, per-core load split) is
#: trusted; thinner calibration keeps the window at full DES.
_MIN_CALIBRATION_SAMPLES = 32


def fidelity_provenance(
    mode: str,
    des_seconds: float,
    fallback_reason: str | None,
    *,
    fluid_windows: int = 0,
    fluid_seconds: float = 0.0,
    fluid_requests: int = 0,
) -> dict:
    """``FullSystemResults.fidelity``: keys mirror the ``sim_fidelity_*``
    registry metric names so sweep exports and metrics snapshots grep
    alike."""
    provenance = {
        "sim_fidelity_mode": mode,
        "sim_fidelity_fluid_windows_total": fluid_windows,
        "sim_fidelity_fluid_seconds_total": fluid_seconds,
        "sim_fidelity_des_seconds_total": des_seconds,
        "sim_fidelity_fluid_requests_total": fluid_requests,
    }
    if fallback_reason is not None:
        provenance["sim_fidelity_fallback_reason"] = fallback_reason
    return provenance


class FluidFold:
    """Runs one pipeline through its fidelity plan's DES and fluid spans."""

    def __init__(self, pipe: "RequestPipeline", fidelity: FidelityPolicy):
        self.pipe = pipe
        self.fidelity = fidelity
        self.hybrid = fidelity.mode == "hybrid"
        self.fluid_windows = 0
        self.fluid_seconds = 0.0
        self.fluid_requests = 0
        self.des_seconds = 0.0
        self.fallback_reason: str | None = None
        self.active_gauge = pipe.registry.gauge("sim_fidelity_fluid_active")
        # The RTT/wait histograms stay DES-only for the whole run:
        # counted fluid completions accumulate in ``deferred_counted``
        # and fold into the histograms exactly once, after the final
        # segment — over the distribution that *every* DES island
        # (calibration prefix, guard-banded fault windows, the trailing
        # run-end guard band) contributed to.  A per-window fold would
        # only see the islands before it; the end-of-run fold gives the
        # tail buckets the whole run's DES evidence.  SLO/throttle
        # housekeeping inside fluid windows reads the same DES-only
        # histograms, which is exactly the calibration distribution.
        self.rtt_hist = pipe.results.rtt_histogram
        self.wait_hist = pipe.results.wait_histogram
        self.deferred_counted = 0
        self.folded_per_core: dict[int, int] = {}
        # Hot-loop caches, all pure functions of (key, size) while the
        # ring is intact — which every window-entry guard ensures.
        self.key_core: dict[bytes, int] = {}
        # Value length -> GET-hit reply bytes, less the key's length.
        self.hit_reply_lens: dict[int, int] = {}
        step_limit = fidelity.max_fluid_step_s
        if pipe.timeseries is not None:
            step_limit = min(step_limit, pipe.timeseries.interval_s)
        if pipe.slo is not None:
            step_limit = min(step_limit, pipe.slo.resolution_s)
        self.step_limit = step_limit
        # Quiescent-DES sample tracking: fluid windows model the system
        # *between* perturbations, so the end-of-run fold must scale the
        # distribution of DES samples observed in quiescent islands
        # (calibration prefix, trailing guard band) — folding over
        # fault-window samples would amplify fault-elevated tails into
        # the fast-forwarded quiescent mass.
        faults = pipe.options.faults
        self.fault_spans = (
            []
            if faults is None
            else [
                (
                    max(0.0, start - fidelity.guard_band_s),
                    min(pipe.duration_s, end + fidelity.guard_band_s),
                )
                for start, end in fault_intervals(faults)
            ]
        )
        self.q_rtt = [0] * len(self.rtt_hist.counts)
        self.q_wait = [0] * len(self.wait_hist.counts)
        self.q_count = 0
        self.q_rtt_total = 0.0
        self.q_wait_total = 0.0

    # --- the segment plan --------------------------------------------------

    def run(self) -> None:
        """Execute the plan, drain, fold, and record provenance."""
        pipe = self.pipe
        sim = pipe.sim
        for seg_start, seg_end, seg_kind in plan_segments(
            self.fidelity, pipe.options.faults, pipe.duration_s
        ):
            if seg_kind == "des":
                self._des_island(seg_start, seg_end)
                continue
            # A refused window, or the rest of one a tripwire broke, runs
            # as DES.
            reason, reached = self._blocked(), seg_start
            if reason is None:
                reason, reached = self._window(seg_start, seg_end)
            if reason is not None:
                if self.fallback_reason is None:
                    self.fallback_reason = reason
                self.des_seconds += seg_end - reached
                sim.run(until=seg_end)
        sim.run()  # drain completions past the horizon
        if self.deferred_counted:
            self._final_fold()
        provenance = fidelity_provenance(
            self.fidelity.mode,
            self.des_seconds,
            self.fallback_reason,
            fluid_windows=self.fluid_windows,
            fluid_seconds=self.fluid_seconds,
            fluid_requests=self.fluid_requests,
        )
        for name in (
            "sim_fidelity_fluid_windows_total",
            "sim_fidelity_fluid_seconds_total",
            "sim_fidelity_des_seconds_total",
            "sim_fidelity_fluid_requests_total",
        ):
            pipe.registry.counter(name).inc(provenance[name])
        pipe.results.fidelity = provenance

    def _des_island(self, seg_start: float, seg_end: float) -> None:
        self.des_seconds += seg_end - seg_start
        quiet = not any(
            s < seg_end and seg_start < e for s, e in self.fault_spans
        )
        rtt_hist, wait_hist = self.rtt_hist, self.wait_hist
        if quiet:
            before_rtt = list(rtt_hist.counts)
            before_wait = list(wait_hist.counts)
            before = (rtt_hist.count, rtt_hist.total, wait_hist.total)
        self.pipe.sim.run(until=seg_end)
        if quiet:
            for i, c in enumerate(rtt_hist.counts):
                self.q_rtt[i] += c - before_rtt[i]
            for i, c in enumerate(wait_hist.counts):
                self.q_wait[i] += c - before_wait[i]
            self.q_count += rtt_hist.count - before[0]
            self.q_rtt_total += rtt_hist.total - before[1]
            self.q_wait_total += wait_hist.total - before[2]

    def _tripwire(self) -> str | None:
        """Hybrid-only signals that the system is *currently* in a regime
        whose event-level dynamics matter."""
        pipe = self.pipe
        results = pipe.results
        if pipe.down_cores:
            return "cores_down"
        if results.mac_drops or results.fault_timeouts or results.failed:
            return "losses_observed"
        if pipe.energy_meter is not None and pipe.energy_meter.derate_factor != 1.0:
            return "thermal_throttle"
        if pipe.slo is not None and pipe.slo.active_alerts:
            return "slo_alert"
        return None

    def _blocked(self) -> str | None:
        """Why a fluid window may not open right now (None = go)."""
        rtt_hist = self.rtt_hist
        des_count = rtt_hist.count
        if des_count < _MIN_CALIBRATION_SAMPLES:
            return "calibration_too_thin"
        mean_service = (rtt_hist.total - self.wait_hist.total) / des_count
        share_max = 1.0 / len(self.pipe.cores)
        des_core_total = 0
        des_core_max = 0
        for core, served in self.pipe.results.per_core_served.items():
            des_served = served - self.folded_per_core.get(core, 0)
            des_core_total += des_served
            if des_served > des_core_max:
                des_core_max = des_served
        if des_core_total:
            share_max = des_core_max / des_core_total
        # Peak-rate utilisation of the hottest core (the diurnal factor
        # only ever lowers the rate, so this bounds it).
        rho = self.pipe.offered_rate_hz * share_max * mean_service
        if rho > self.fidelity.max_utilization:
            return "saturated"
        if self.hybrid:
            return self._tripwire()
        return None

    # --- one fluid window --------------------------------------------------

    def _window(self, seg_start: float, seg_end: float) -> tuple[str | None, float]:
        """Fast-forward ``[seg_start, seg_end)``; returns the tripwire
        reason if the window broke early (None otherwise) and the
        simulated time actually covered fluidly."""
        pipe = self.pipe
        sim = pipe.sim
        self.fluid_windows += 1
        self.active_gauge.set(1.0)
        # The arrival chain keeps exactly one pending event; a fluid
        # window cancels it, replays the arrival process analytically
        # from its exact fire time, and hands the (still-undrawn) next
        # arrival back to DES afterwards.
        pending = pipe.arrival_event
        if pending is not None:
            sim.cancel(pending)
            pipe.arrival_event = None
        nt = pipe.next_arrival

        # Arrivals too close to the run's end would complete past
        # ``duration_s`` in DES, where the conditional stats stop
        # counting; mirror that cutoff at the calibrated mean RTT.
        threshold = pipe.duration_s - self.rtt_hist.mean
        window_s = pipe.options.window_s
        fill_on_miss = pipe.fill_on_miss
        offered_rate_hz = pipe.offered_rate_hz
        diurnal_factor = pipe.diurnal.factor if pipe.diurnal is not None else None
        base_port = pipe.base_port
        store_gets = [server.store.get for server in pipe.system.servers]
        store_sets = [server.store.set for server in pipe.system.servers]
        node_for = pipe.client_ring.node_for
        _expovariate = pipe.rng.expovariate
        _next_raw = pipe.generator.next_raw
        key_core = self.key_core
        payloads = pipe.payloads
        payload_for = pipe.payload
        hit_reply_lens = self.hit_reply_lens
        miss_reply_len = reply_len("END")
        stored = StoreResult.STORED
        stored_len = reply_len(stored.value)

        cursor = seg_start
        broke: str | None = None
        while cursor < seg_end - 1e-12:
            step_end = min(seg_end, cursor + self.step_limit)
            n_req = 0
            hits = misses = puts = resp_bytes = 0
            # Timing and energy are pure functions of (verb, served
            # bytes), so the inner loop only *counts* occurrences per op
            # shape — key ``served << 1 | is_get`` — and the float math
            # runs once per distinct shape at the step boundary.
            op_counts: dict[int, int] = {}
            late_counts: dict[int, int] = {}
            core_counts: dict[int, int] = {}
            win_gets: dict[int, int] = {}
            win_hits: dict[int, int] = {}
            _op_get = op_counts.get
            _core_get = core_counts.get
            _kc_get = key_core.get
            while nt < step_end:
                t = nt
                key, size, is_get = _next_raw()
                core = _kc_get(key)
                if core is None:
                    core = int(node_for(key)) - base_port
                    key_core[key] = core
                if is_get:
                    item = store_gets[core](key)
                    if item is not None:
                        hit = True
                        hits += 1
                        vlen = len(item.value)
                        resp_len = hit_reply_lens.get(vlen)
                        if resp_len is None:
                            resp_len = reply_len("END", 0, vlen)
                            hit_reply_lens[vlen] = resp_len
                        resp_len += len(key)
                    else:
                        hit = False
                        misses += 1
                        resp_len = miss_reply_len
                        if fill_on_miss:
                            store_sets[core](
                                key, payloads.get(size) or payload_for(size)
                            )
                    served = resp_len
                    if window_s is not None:
                        widx = int(t / window_s)
                        win_gets[widx] = win_gets.get(widx, 0) + 1
                        if hit:
                            win_hits[widx] = win_hits.get(widx, 0) + 1
                else:
                    puts += 1
                    result = store_sets[core](
                        key, payloads.get(size) or payload_for(size)
                    )
                    resp_len = (stored_len if result is stored
                                else reply_len(result.value))
                    served = size
                resp_bytes += resp_len
                op = served << 1 | is_get
                op_counts[op] = _op_get(op, 0) + 1
                if t <= threshold:
                    core_counts[core] = _core_get(core, 0) + 1
                else:
                    late_counts[op] = late_counts.get(op, 0) + 1
                n_req += 1
                if diurnal_factor is None:
                    nt = t + _expovariate(offered_rate_hz)
                else:
                    nt = t + _expovariate(offered_rate_hz * diurnal_factor(t))

            self._fold_step(
                cursor, step_end, n_req, hits, misses, puts, resp_bytes,
                op_counts, late_counts, core_counts, win_gets, win_hits,
            )
            # Let the DES heap run housekeeping (timeseries/SLO/energy
            # ticks) up to the step boundary against the freshened
            # counters.
            sim.run(until=step_end)
            cursor = step_end
            if self.hybrid and cursor < seg_end - 1e-12:
                broke = self._tripwire()
                if broke is not None:
                    break

        pipe.next_arrival = nt
        pipe.arrival_event = sim.schedule_at(nt, pipe.arrive)
        self.active_gauge.set(0.0)
        return broke, cursor

    def _fold_step(
        self, cursor, step_end, n_req, hits, misses, puts, resp_bytes,
        op_counts, late_counts, core_counts, win_gets, win_hits,
    ) -> None:
        """Fold one step's aggregates into the run's accounting."""
        pipe = self.pipe
        results = pipe.results
        meter = pipe.energy_meter
        counted_n = n_req - sum(late_counts.values())
        busy_s = 0.0
        comp_hash = comp_mc = comp_net = 0.0
        mem_bytes = wire_bytes = 0.0
        fl_reads = fl_programs = fl_erases = 0.0
        for op, n in op_counts.items():
            served = op >> 1
            verb = "GET" if op & 1 else "PUT"
            timing = pipe.model.request_timing(verb, served)
            busy_s += n * timing.total_s
            n_counted = n - late_counts.get(op, 0)
            if n_counted:
                comp_hash += n_counted * timing.hash_s
                comp_mc += n_counted * timing.memcached_s
                comp_net += n_counted * timing.network_s
            if meter is not None:
                mb, wb, fr, fp, fe = pipe.op_price(verb, served)
                mem_bytes += n * mb
                wire_bytes += n * wb
                fl_reads += n * fr
                fl_programs += n * fp
                fl_erases += n * fe

        if hits:
            results.get_hits += hits
            pipe.hits_total.inc(hits)
        if misses:
            results.get_misses += misses
            pipe.misses_total.inc(misses)
        if puts:
            results.puts += puts
            pipe.puts_total.inc(puts)
        if resp_bytes:
            results.response_bytes += resp_bytes
            pipe.response_bytes_total.inc(resp_bytes)
        if pipe.options.window_s is not None:
            for widx, n in win_gets.items():
                results.window_gets.observe_index(widx, float(n))
            for widx, n in win_hits.items():
                results.window_hits.observe_index(widx, float(n))
        if counted_n:
            self.deferred_counted += counted_n
            results.completed += counted_n
            pipe.completed_total.inc(counted_n)
            results.component_seconds["hash"] += comp_hash
            results.component_seconds["memcached"] += comp_mc
            results.component_seconds["network"] += comp_net
            folded = self.folded_per_core
            for core, n in core_counts.items():
                results.per_core_served[core] = (
                    results.per_core_served.get(core, 0) + n
                )
                pipe.served_per_core[core].inc(n)
                folded[core] = folded.get(core, 0) + n
            if pipe.slo is not None:
                pipe.slo.record_bulk(
                    cursor + (step_end - cursor) / 2.0,
                    counted_n,
                    self.rtt_hist.fraction_below,
                )
        if meter is not None and n_req:
            meter.charge_core_busy_bulk(cursor, step_end, busy_s)
            meter.charge_memory_bytes_bulk(cursor, step_end, mem_bytes)
            meter.charge_nic_bytes_bulk(cursor, step_end, wire_bytes)
            if fl_reads or fl_programs or fl_erases:
                meter.charge_flash_bulk(
                    cursor, step_end, fl_reads, fl_programs, fl_erases
                )
        self.fluid_requests += n_req
        self.fluid_seconds += step_end - cursor

    def _final_fold(self) -> None:
        """Distribute every counted fluid completion over the quiescent
        DES latency/wait distributions (largest-remainder, so totals are
        exact and the folded shape tracks the observed one as closely as
        integers allow).  Falls back to the whole DES-only distribution
        if quiescent islands saw too few samples to be a usable shape."""
        rtt_hist, wait_hist = self.rtt_hist, self.wait_hist
        deferred = self.deferred_counted
        if self.q_count >= _MIN_CALIBRATION_SAMPLES:
            rtt_counts, rtt_mean = self.q_rtt, self.q_rtt_total / self.q_count
            wait_counts, wait_mean = self.q_wait, self.q_wait_total / self.q_count
        else:
            rtt_counts, rtt_mean = rtt_hist.counts, rtt_hist.mean
            wait_counts, wait_mean = wait_hist.counts, wait_hist.mean
        for hist, counts, mean in (
            (rtt_hist, rtt_counts, rtt_mean),
            (wait_hist, wait_counts, wait_mean),
        ):
            hist.record_bucketed(
                allocate_proportional(counts, deferred),
                deferred * mean,
                hist.min_seen,
                hist.max_seen,
            )
