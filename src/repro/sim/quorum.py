"""Quorum replication on the full-system request pipeline.

With ``RunOptions.replication`` at ``n > 1`` the stack's cores form one
replica group.  Each PUT fans out to the key's N preferred cores, each
copy charged full service time, so the ≈N× write amplification shows up
in core load and TPS; the logical PUT completes at the W-th ack.  GETs
target the preferred list, and retries and hedges walk to the next
replica.  ``r - 1`` background verify reads charge the read-quorum cost,
and a replica that misses while a live peer holds the key is
read-repaired.  Copies for a crashed core are parked as hints and
replayed at its restart, and an anti-entropy sweep reconverges the
replicas on a DES timer.

:class:`QuorumPath` holds the code only replicated runs need; the shared
steps (loss check, timing adjustment, span chain, completion accounting,
energy price) are the pipeline's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.replication.antientropy import AntiEntropySweeper
from repro.replication.config import ReplicationConfig
from repro.replication.handoff import HintQueue
from repro.replication.placement import ReplicaPlacement
from repro.sim.resources import ignore_completion

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.full_system import RequestPipeline


class QuorumPath:
    """The replicated half of one run's request pipeline.

    It doubles as the coordinator-shaped view of the stack's per-core
    stores that :class:`~repro.replication.antientropy.AntiEntropySweeper`
    is duck-typed against (``stores``, ``live_nodes``, ``placement``),
    keyed by TCP port and reading the run's live crash state.
    """

    def __init__(self, pipe: "RequestPipeline", repl: ReplicationConfig):
        self.pipe = pipe
        self.repl = repl
        self.base_port = pipe.base_port
        registry = pipe.registry
        # Each core is its own failure domain here — the whole run is
        # one physical stack — so placement skips by node; the
        # rack/stack-aware rule matters in the multi-stack client.
        self.placement = ReplicaPlacement(
            pipe.system.ring, repl.n, stack_of=lambda port: port
        )
        self.hints = HintQueue(registry=registry)
        self.replica_writes_total = registry.counter(
            "replication_replica_writes_total"
        )
        self.redirected_total = registry.counter(
            "replication_redirected_reads_total"
        )
        self.verify_total = registry.counter("replication_verify_reads_total")
        self.read_repairs_total = registry.counter(
            "replication_read_repairs_total"
        )
        self.put_seq = 0  # the DES's version epoch (hint resolution order)
        self.stores = {
            str(self.base_port + i): server.store
            for i, server in enumerate(pipe.system.servers)
        }

    @property
    def live_nodes(self) -> list[str]:
        down = self.pipe.down_cores
        return sorted(
            port for port in self.stores if int(port) - self.base_port not in down
        )

    def install_antientropy(self) -> None:
        """Schedule the recurring anti-entropy sweep, if configured."""
        repl = self.repl
        if repl.anti_entropy_interval_s is None:
            return
        pipe = self.pipe
        self.sweeper = AntiEntropySweeper(
            self,
            buckets=repl.anti_entropy_buckets,
            max_repairs_per_sweep=repl.max_repairs_per_sweep,
            registry=pipe.registry,
        )
        pipe.sim.recurring(
            repl.anti_entropy_interval_s, self._antientropy_fire, pipe.duration_s
        )

    # --- reads -------------------------------------------------------------

    def read_port(self, key: bytes, attempt: int) -> str:
        """Walk the key's preferred list, skipping failed-over members;
        retries rotate to the next replica instead of hammering the same
        node."""
        preferred = self.placement.replicas_for(key)
        failed_over = self.pipe.failed_over
        candidates = [
            p for p in preferred if p not in failed_over
        ] or list(preferred)
        return candidates[attempt % len(candidates)]

    def read_repair(
        self, request, state, core_index: int, response_len: int
    ) -> tuple[bool, int]:
        """Quorum read after a miss: the coordinator consults the other
        replicas and any copy answers — a replica that misses while a
        live peer holds the key is read-repaired with that copy."""
        pipe = self.pipe
        hit = False
        for peer_port in self.placement.replicas_for(request.key):
            peer_core = int(peer_port) - self.base_port
            if peer_core == core_index or peer_core in pipe.down_cores:
                continue
            if pipe.system.servers[peer_core].store.peek(request.key) is None:
                continue
            hit, response_len = pipe.execute(
                request.key, "GET", request.value_bytes, peer_core
            )
            if hit:
                pipe.execute(request.key, "PUT", request.value_bytes, core_index)
                pipe.results.read_repairs += 1
                self.read_repairs_total.inc()
                # The repair write occupies the lagging core.
                service = pipe.model.request_timing(
                    "PUT", request.value_bytes
                ).total_s
                if pipe.charge_op_energy is not None:
                    # Internal repair write: no client wire.
                    pipe.charge_op_energy(
                        pipe.sim.now, "PUT", request.value_bytes, wire=False
                    )
                pipe.background_work(
                    core_index, service, "read_repair", state["trace"]
                )
            break
        return hit, response_len

    def fill(self, request, core_index: int, trace) -> None:
        """Cache-aside refill of every live replica."""
        pipe = self.pipe
        for port in self.placement.replicas_for(request.key):
            fill_core = int(port) - self.base_port
            if fill_core not in pipe.down_cores:
                pipe.execute(request.key, "PUT", request.value_bytes, fill_core)

    def note_redirect(self, key: bytes, port: str) -> None:
        if port != self.placement.replicas_for(key)[0]:
            self.pipe.results.redirected_reads += 1
            self.redirected_total.inc()

    def verify_reads(self, request, state, port: str) -> None:
        """Read-quorum cost: the coordinator also consults r-1 more
        replicas.  Their replies don't gate the RTT (the fastest copy
        answers the caller) but the reads occupy those replicas' cores."""
        if self.repl.r <= 1 or state.get("verified", False):
            return
        state["verified"] = True
        pipe = self.pipe
        busy = pipe.background_busy["verify_read"]
        extra = 0
        for verify_port in self.placement.replicas_for(request.key):
            if extra == self.repl.r - 1:
                break
            if verify_port == port:
                continue
            verify_core = int(verify_port) - self.base_port
            if verify_core in pipe.down_cores:
                continue
            service = pipe.model.request_timing("GET", request.value_bytes).total_s
            busy.record(service)
            if pipe.charge_op_energy is not None:
                # Internal quorum read: no client wire.
                pipe.charge_op_energy(
                    pipe.sim.now, "GET", request.value_bytes, wire=False
                )
            if pipe.tracer.enabled:
                # Parked until the winning attempt commits; the service
                # interval is known now, the queue wait is deliberately
                # ignored (the reply does not gate the caller).
                state.setdefault("verify_spans", []).append(
                    (pipe.sim.now, service, verify_core)
                )
            pipe.cores[verify_core].submit(service, ignore_completion)
            pipe.results.verify_reads += 1
            self.verify_total.inc()
            extra += 1

    def close_verify_spans(self, trace, state) -> None:
        """Attach the parked verify reads to the committing trace: they
        nest only while they fit the trace interval; late finishers
        become follow-from spans to keep every span inside its parent."""
        pipe = self.pipe
        now = pipe.sim.now
        for start, duration, core in state.get("verify_spans", ()):
            if start + duration <= now + 1e-12:
                trace.add_span(
                    "verify_read",
                    start,
                    duration,
                    kind="server",
                    node=f"core{core}",
                    stack=pipe.stack_label,
                )
            else:
                pipe.tracer.follow_from(
                    "verify_read",
                    start,
                    duration,
                    node=f"core{core}",
                    stack=pipe.stack_label,
                    trace=trace,
                )

    def hedge_port(self, key: bytes, port: str) -> str | None:
        """Hedge to the key's next live replica — the node that actually
        holds a copy (None when no other replica is up)."""
        pipe = self.pipe
        preferred = self.placement.replicas_for(key)
        start = preferred.index(port) if port in preferred else -1
        for offset in range(1, len(preferred)):
            candidate = preferred[(start + offset) % len(preferred)]
            if pipe.system._core_index(candidate) not in pipe.down_cores:
                return candidate
        return None

    # --- writes ------------------------------------------------------------

    def dispatch_put(self, request, state, attempt: int) -> None:
        """Fan a logical PUT to its preferred list (W-quorum)."""
        state["attempts"] = attempt + 1
        preferred = self.placement.replicas_for(request.key)
        self.put_seq += 1
        copy_state = {
            "acks": 0,
            "resolved": 0,
            "total": len(preferred),
            "need": min(self.repl.w, len(preferred)),
        }
        for port in preferred:
            self._send_copy(request, state, copy_state, port, attempt, self.put_seq)

    def _send_copy(
        self, request, state, copy_state, port: str, attempt: int, version: int
    ) -> None:
        """Fan one physical copy of a PUT to one replica core."""
        pipe = self.pipe
        sim = pipe.sim
        tracer = pipe.tracer
        core_index = int(port) - self.base_port
        if pipe.lost(core_index):
            trace = state["trace"]
            if (
                core_index in pipe.down_cores
                and self.repl.hinted_handoff
                and self.hints.park(
                    port,
                    request.key,
                    version,
                    request.value_bytes,
                    trace_id=trace.request_id if tracer.enabled else None,
                )
            ):
                pipe.results.hints_queued += 1
                if tracer.enabled and trace.end_s is None:
                    # An instant producer span: the copy was parked, its
                    # replay follows from this trace at the node's
                    # restart.
                    trace.add_span(
                        "hint",
                        sim.now,
                        0.0,
                        kind="producer",
                        node=f"core{core_index}",
                        stack=pipe.stack_label,
                    )
            pipe.note_timeout(port)
            policy = pipe.policy
            timeout = policy.request_timeout_s if policy is not None else 0.0
            sim.schedule(
                timeout,
                lambda: self._copy_resolved(
                    request, state, copy_state, attempt,
                    ok=False, wait=0.0, response_len=0,
                ),
            )
            return
        _hit, response_len = pipe.execute(
            request.key, "PUT", request.value_bytes, core_index
        )
        timing = pipe.model.request_timing("PUT", request.value_bytes)
        if pipe.adjust is not None:
            timing = pipe.adjust(timing)
        if pipe.charge_op_energy is not None:
            # Each physical copy moves over the wire and through memory
            # like its own PUT.
            pipe.charge_op_energy(sim.now, "PUT", request.value_bytes)
        pipe.results.replica_puts += 1
        self.replica_writes_total.inc()
        dispatched = sim.now
        node_label = f"core{core_index}"
        put_wait = pipe.replica_put_wait

        def complete(wait: float) -> None:
            pipe.consecutive_timeouts[port] = 0
            put_wait.record(wait)
            if sim.now <= pipe.duration_s:
                pipe.charge_service(core_index, timing)
            if tracer.enabled:
                trace = state["trace"]
                if trace.end_s is None:
                    # This copy resolves before the W-th ack, so its
                    # whole chain nests inside the logical PUT: one
                    # wrapper per replica, pipeline stages beneath.
                    wrapper = trace.add_span(
                        "replica_put",
                        dispatched,
                        sim.now - dispatched,
                        kind="server",
                        node=node_label,
                        stack=pipe.stack_label,
                    )
                    pipe.server_spans(
                        trace, dispatched, wait, timing, wrapper, node_label
                    )
                else:
                    # Acks past W land after the PUT completed.
                    tracer.follow_from(
                        "replica_put_straggler",
                        dispatched,
                        sim.now - dispatched,
                        node=node_label,
                        stack=pipe.stack_label,
                        kind="server",
                        trace=trace,
                    )
            self._copy_resolved(
                request, state, copy_state, attempt,
                ok=True, wait=wait, response_len=response_len,
            )

        pipe.cores[core_index].submit(timing.total_s, complete)

    def _copy_resolved(
        self, request, state, copy_state, attempt: int,
        ok: bool, wait: float, response_len: int,
    ) -> None:
        """One replica copy of a fanned PUT finished (or timed out)."""
        pipe = self.pipe
        copy_state["resolved"] += 1
        if ok:
            copy_state["acks"] += 1
            if copy_state["acks"] == copy_state["need"] and not state["done"]:
                # The W-th ack completes the logical PUT.
                state["done"] = True
                pipe.count_outcome("PUT", True, response_len, state["arrival"])
                if pipe.sim.now <= pipe.duration_s:
                    pipe.count_latency(state["arrival"], wait)
                    if pipe.tracer.enabled:
                        trace = state["trace"]
                        trace.annotate(
                            verb="PUT",
                            value_bytes=request.value_bytes,
                            acks=copy_state["acks"],
                            replicas=copy_state["total"],
                        )
                        if state["attempts"] > 1:
                            trace.annotate(attempts=state["attempts"])
                        trace.finish(pipe.sim.now)
                        pipe.tracer.commit(trace)
        if copy_state["resolved"] == copy_state["total"] and not state["done"]:
            # Every copy resolved and the quorum never formed.
            pipe.retry_or_give_up(request, state, attempt, after_timeout=False)

    # --- background reconvergence ------------------------------------------

    def replay_hints(self, core_index: int) -> None:
        """Hinted handoff at a core's restart: replay every parked copy
        as one back-to-back burst of PUTs on the restarted core."""
        if not self.repl.hinted_handoff:
            return
        hints = self.hints.drain(str(self.base_port + core_index))
        if not hints:
            return
        pipe = self.pipe
        now = pipe.sim.now
        replay_service = 0.0
        for hint in hints:
            pipe.execute(hint.key, "PUT", hint.payload, core_index)
            service = pipe.model.request_timing("PUT", hint.payload).total_s
            if pipe.charge_op_energy is not None:
                # Replays are stack-internal: memory and flash activity
                # but no client wire.
                pipe.charge_op_energy(now, "PUT", hint.payload, wire=False)
            if pipe.tracer.enabled:
                # Replay work follows from the PUT that parked the hint;
                # laid out back-to-back as the burst occupies the core.
                pipe.tracer.follow_from(
                    "handoff_replay",
                    now + replay_service,
                    service,
                    node=f"core{core_index}",
                    stack=pipe.stack_label,
                    trace=hint.trace_id,
                )
            replay_service += service
        pipe.results.hints_replayed += len(hints)
        pipe.background_busy["hint_replay"].record(replay_service)
        pipe.cores[core_index].submit(replay_service, ignore_completion)

    def _antientropy_fire(self, t: float) -> None:
        pipe = self.pipe
        report = self.sweeper.sweep()
        pipe.results.antientropy_sweeps += 1
        pipe.results.antientropy_repairs += report.repairs
        for port, count in sorted(report.repairs_by_node.items()):
            # Charge each receiving core the service time of its repair
            # writes (functional copies already landed).
            mean_bytes = report.bytes_by_node[port] // count
            service = pipe.model.request_timing("PUT", mean_bytes).total_s * count
            if pipe.charge_op_energy is not None:
                # Repair writes are stack-internal (no client wire);
                # count is bounded by the sweeper's max_repairs_per_sweep.
                for _ in range(count):
                    pipe.charge_op_energy(t, "PUT", mean_bytes, wire=False)
            # Sweeps repair keys from many writers: no single
            # originating trace to link.
            pipe.background_work(
                int(port) - self.base_port, service, "antientropy"
            )
