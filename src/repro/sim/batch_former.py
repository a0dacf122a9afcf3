"""The batch former of the full-system request pipeline.

With ``RunOptions.batching`` (a :class:`~repro.kvstore.batching.BatchPolicy`
with ``batch_max > 1``) arrivals coalesce per destination core: each op
joins its core's open batch, which flushes when it reaches ``batch_max``
ops ("size") or when the oldest rider has lingered ``linger_s``
("linger").  A flushed batch charges the latency model's *batched* cost —
one TCP/wire traversal for the coalesced frame plus per-op hash/memcached
work — and occupies the core as a single job, so riders share the queue
wait.  Functional outcomes are identical to the serial path (each op
still executes in arrival order against the real store); faults eat whole
batches, after which every rider retries down the serial path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kvstore.batching import (
    FLUSH_LINGER,
    FLUSH_SIZE,
    MAX_BATCH_OPS,
    BatchPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.full_system import RequestPipeline


class BatchFormer:
    """Per-core client buffers in front of each node's coalesced frame."""

    def __init__(self, pipe: "RequestPipeline", policy: BatchPolicy):
        self.pipe = pipe
        self.policy = policy
        cores = len(pipe.cores)
        self.pending: list[list] = [[] for _ in range(cores)]
        # Detects stale linger timers: a size flush reopens the buffer
        # and the old timer must not flush the successor batch early.
        self.open_id = [0] * cores
        registry = pipe.registry
        self.flushes_total = {
            reason: registry.counter("batch_flushes_total", {"reason": reason})
            for reason in (FLUSH_SIZE, FLUSH_LINGER)
        }
        self.ops_total = registry.counter("batch_ops_total")
        self.size_histogram = registry.histogram(
            "batch_size", min_value=1.0, max_value=float(MAX_BATCH_OPS)
        )

    def enqueue(self, request, state) -> None:
        """Buffer one arrival behind its key's core; flush on size or on
        the linger deadline, whichever lands first."""
        pipe = self.pipe
        port = pipe.route(request, state)
        if port is None:
            return
        core_index = int(port) - pipe.base_port
        pending = self.pending[core_index]
        pending.append((request, state))
        if len(pending) >= self.policy.batch_max:
            self.flush(core_index, FLUSH_SIZE)
        elif len(pending) == 1:
            open_id = self.open_id[core_index]

            def linger_fire() -> None:
                if self.open_id[core_index] == open_id:
                    self.flush(core_index, FLUSH_LINGER)

            pipe.sim.schedule(self.policy.linger_s, linger_fire)

    def flush(self, core_index: int, reason: str) -> None:
        """Ship one core's pending ops as a single coalesced frame."""
        ops = self.pending[core_index]
        if not ops:
            return
        self.pending[core_index] = []
        self.open_id[core_index] += 1
        pipe = self.pipe
        # The whole batch rides one packet train: a down core, an
        # injected drop, or a full MAC queue loses every op in it
        # together.  Each op then retries down the serial path —
        # coalescing is a fast path, not a reliability change.
        if pipe.lost(core_index):
            port = str(pipe.base_port + core_index)
            for request, state in ops:
                pipe.timed_out(request, state, 0, port)
            return
        results = pipe.results
        results.batches += 1
        results.batched_ops += len(ops)
        results.batch_flush_reasons[reason] = (
            results.batch_flush_reasons.get(reason, 0) + 1
        )
        self.flushes_total[reason].inc()
        self.ops_total.inc(len(ops))
        self.size_histogram.record(float(len(ops)))
        sim = pipe.sim
        dispatched = sim.now
        charge = pipe.charge_op_energy
        outcomes = []
        timing_ops = []
        for request, state in ops:
            state["attempts"] = 1
            hit, response_len = pipe.execute(
                request.key, request.verb, request.value_bytes, core_index
            )
            if pipe.fill_on_miss and request.verb == "GET" and not hit:
                pipe.fill(request, core_index, state["trace"])
            served_bytes = (
                response_len if request.verb == "GET" else request.value_bytes
            )
            if charge is not None:
                # Every rider moves its own item and wire payload; only
                # the per-request framing the batch coalesces away is
                # saved (matching batch_timing's model).
                charge(dispatched, request.verb, served_bytes)
            outcomes.append((request, state, hit, response_len, served_bytes))
            timing_ops.append((request.verb, served_bytes))
        timing = pipe.model.batch_timing(timing_ops)
        if pipe.adjust is not None:
            timing = pipe.adjust(timing)

        def complete(wait: float) -> None:
            for request, state, hit, response_len, _served in outcomes:
                state["done"] = True
                pipe.count_outcome(request.verb, hit, response_len, state["arrival"])
            if sim.now > pipe.duration_s:
                return
            # The batch occupies the core once: component seconds and
            # the served counter charge per batch/op exactly as the
            # latency model splits them, while every rider gets its own
            # RTT sample back to its own arrival.
            pipe.charge_service(core_index, timing, len(outcomes))
            for request, state, hit, _response_len, served_bytes in outcomes:
                pipe.count_latency(state["arrival"], wait)
                if pipe.tracer.enabled:
                    self._trace_rider(
                        request, state, hit, served_bytes, len(outcomes),
                        core_index, reason, dispatched, wait, timing,
                    )

        pipe.cores[core_index].submit(timing.total_s, complete)

    def _trace_rider(
        self, request, state, hit, served_bytes, batch_size,
        core_index, reason, dispatched, wait, timing,
    ) -> None:
        """Per-rider span tree: the time spent waiting for the batch to
        fill, then a "batch" wrapper holding the shared pipeline stages."""
        pipe = self.pipe
        now = pipe.sim.now
        stack = pipe.stack_label
        node_label = f"core{core_index}"
        arrival = state["arrival"]
        trace = state["trace"]
        trace.annotate(
            core=core_index,
            verb=request.verb,
            value_bytes=served_bytes,
            hit=hit,
            batch_size=batch_size,
            batch_flush=reason,
        )
        pipe.client_wait(trace, "batch_wait", arrival, dispatched)
        parent = trace.add_span(
            "batch",
            dispatched,
            now - dispatched,
            kind="server",
            node=node_label,
            stack=stack,
        )
        pipe.server_spans(trace, dispatched, wait, timing, parent, node_label)
        trace.finish(now)
        pipe.tracer.commit(trace)
