"""A cluster-aware Memcached client library (in-memory transport).

This is the API an application codes against: typed ``get``/``set``/
``cas``/``incr`` calls, client-side sharding over a consistent-hash ring,
multi-get batching per node, and a choice of wire protocol (ASCII or
binary).  Requests are *actually serialised* to protocol bytes and parsed
back, so the client exercises the same wire path a socket would — the
transport is simply an in-process :class:`MemcachedServer` /
:class:`BinaryServer` per node.

:class:`ResilientClient` layers a production-shaped failure story on
top: a :class:`FaultyNetwork` decides per request whether the link to a
node delivers (down nodes and lossy links both look like timeouts), and
a :class:`~repro.faults.resilience.ResiliencePolicy` governs how the
client responds — retries with exponential backoff and jitter, hedged
GETs to the next ring node, and failover rebalancing with health-check
readmission.  All draws come from seeded streams, so a faulty run is
reproducible bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ConfigurationError, NodeUnavailableError, ProtocolError
from repro.kvstore.batching import (
    MAX_BATCH_OPS,
    Batch,
    BatchBuffer,
    BatchFuture,
    BatchOp,
    BatchPolicy,
    FLUSH_BARRIER,
    FLUSH_LINGER,
    FLUSH_REASONS,
)
from repro.kvstore.binary_protocol import (
    BinaryServer,
    Opcode,
    Status,
    arith_request,
    batch_request,
    decode,
    encode,
    get_request,
    set_request,
    simple_request,
)
from repro.faults.resilience import DEFAULT_RESILIENCE, ResiliencePolicy
from repro.kvstore.consistent_hash import ConsistentHashRing
from repro.kvstore.protocol import (
    Command,
    parse_one_response,
    parse_response,
    render_command,
)
from repro.kvstore.server_loop import Connection, MemcachedServer
from repro.kvstore.store import KVStore
from repro.replication.config import QuorumConfig
from repro.replication.placement import ReplicaPlacement
from repro.sim.rng import make_rng
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY
from repro.telemetry.tracing import NULL_TELEMETRY, RequestTrace, TelemetrySession


#: The binary opcode of each storage verb (a ``cas`` is a SET carrying a
#: nonzero CAS id).
_STORAGE_OPCODE = {
    "set": Opcode.SET,
    "add": Opcode.ADD,
    "replace": Opcode.REPLACE,
    "cas": Opcode.SET,
}


@dataclass(frozen=True)
class GetResult:
    """A successful retrieval."""

    value: bytes
    flags: int
    cas: int | None = None


class MemcachedClient:
    """Client-side view of a Memcached fleet, over real protocol bytes."""

    def __init__(
        self,
        node_names: list[str],
        memory_per_node_bytes: int,
        protocol: str = "ascii",
        vnodes: int = 128,
    ):
        if not node_names:
            raise ConfigurationError("a client needs at least one node")
        if protocol not in ("ascii", "binary"):
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        self.protocol = protocol
        self.ring = ConsistentHashRing(node_names, vnodes=vnodes)
        self._stores: dict[str, KVStore] = {
            name: KVStore(memory_per_node_bytes) for name in node_names
        }
        if protocol == "ascii":
            self._ascii: dict[str, Connection] = {
                name: MemcachedServer(store).connect()
                for name, store in self._stores.items()
            }
        else:
            self._binary: dict[str, BinaryServer] = {
                name: BinaryServer(store) for name, store in self._stores.items()
            }

    # --- plumbing -----------------------------------------------------------------

    def node_for(self, key: bytes) -> str:
        return self.ring.node_for(key)

    def store_for(self, key: bytes) -> KVStore:
        """Direct store access (tests, cache-warming tools)."""
        return self._stores[self.node_for(key)]

    def advance_time(self, delta: float) -> None:
        for store in self._stores.values():
            store.advance_time(delta)

    def _ascii_roundtrip(self, node: str, command: Command) -> bytes:
        return self._ascii[node].feed(render_command(command))

    def _binary_roundtrip(self, node: str, request) -> tuple[Status, bytes, int]:
        wire = self._binary[node].handle(encode(request))
        response, rest = decode(wire)
        if rest:
            raise ProtocolError("unexpected trailing response bytes")
        return Status(response.status), response.value, response.cas

    # --- node-addressed operations ---------------------------------------------------
    #
    # One method per verb family, addressed to a given node; the public
    # operations below send to the key's ring owner, and ResilientClient
    # sends replica copies and retries through the same methods.

    def _get_on(self, node: str, key: bytes) -> GetResult | None:
        if self.protocol == "binary":
            status, value, cas = self._binary_roundtrip(node, get_request(key))
            if status is Status.KEY_NOT_FOUND:
                return None
            if status is not Status.NO_ERROR:
                raise ProtocolError(f"GET failed: {status.name}")
            return GetResult(value=value, flags=0, cas=cas)
        reply = self._ascii_roundtrip(node, Command(verb="gets", keys=(key,)))
        response = parse_response(reply)
        if not response.values:
            return None
        _key, flags, value, cas = response.values[0]
        return GetResult(value=value, flags=flags, cas=cas)

    def _store_on(self, node: str, verb: str, key: bytes, value: bytes,
                  flags: int, expire: float, cas: int = 0) -> bool:
        """One ``set``/``add``/``replace``/``cas`` sent to ``node``."""
        if self.protocol == "binary":
            status, _v, _c = self._binary_roundtrip(
                node,
                set_request(key, value, flags, int(expire), cas=cas,
                            opcode=_STORAGE_OPCODE[verb]),
            )
            return status is Status.NO_ERROR
        command = Command(
            verb=verb, keys=(key,), data=value, flags=flags, exptime=expire, cas=cas
        )
        return self._ascii_roundtrip(node, command).strip() == b"STORED"

    def _delete_on(self, node: str, key: bytes) -> bool:
        if self.protocol == "binary":
            status, _v, _c = self._binary_roundtrip(
                node, simple_request(Opcode.DELETE, key)
            )
            return status is Status.NO_ERROR
        reply = self._ascii_roundtrip(node, Command(verb="delete", keys=(key,)))
        return reply.strip() == b"DELETED"

    def _arith_on(self, node: str, verb: str, key: bytes, delta: int) -> int | None:
        """One ``incr``/``decr``; None when the key is missing or not a number."""
        if self.protocol == "binary":
            status, value, _c = self._binary_roundtrip(
                node, arith_request(key, delta, decrement=verb == "decr")
            )
            if status is not Status.NO_ERROR:
                return None
            return struct.unpack(">Q", value)[0]
        reply = self._ascii_roundtrip(
            node, Command(verb=verb, keys=(key,), delta=delta)
        )
        if reply.strip() == b"NOT_FOUND" or reply.startswith(b"CLIENT_ERROR"):
            return None
        return int(reply.strip())

    def _flush_on(self, node: str) -> None:
        if self.protocol == "binary":
            self._binary_roundtrip(node, simple_request(Opcode.FLUSH))
        else:
            self._ascii_roundtrip(node, Command(verb="flush_all"))

    # --- operations -------------------------------------------------------------------

    def get(self, key: bytes) -> GetResult | None:
        return self._get_on(self.node_for(key), key)

    def get_many(self, keys: list[bytes]) -> dict[bytes, GetResult]:
        """Multi-get, batched per owning node (one round trip per node)."""
        results: dict[bytes, GetResult] = {}
        if self.protocol == "binary":
            for key in keys:
                result = self.get(key)
                if result is not None:
                    results[key] = result
            return results
        by_node: dict[str, list[bytes]] = {}
        for key in keys:
            by_node.setdefault(self.node_for(key), []).append(key)
        for node, node_keys in by_node.items():
            reply = self._ascii_roundtrip(
                node, Command(verb="gets", keys=tuple(node_keys))
            )
            for key, flags, value, cas in parse_response(reply).values:
                results[key] = GetResult(value=value, flags=flags, cas=cas)
        return results

    def set(self, key: bytes, value: bytes, flags: int = 0, expire: float = 0) -> bool:
        return self._store_on(self.node_for(key), "set", key, value, flags, expire)

    def add(self, key: bytes, value: bytes, flags: int = 0, expire: float = 0) -> bool:
        return self._store_on(self.node_for(key), "add", key, value, flags, expire)

    def replace(self, key: bytes, value: bytes, flags: int = 0, expire: float = 0) -> bool:
        return self._store_on(
            self.node_for(key), "replace", key, value, flags, expire
        )

    def cas(self, key: bytes, value: bytes, cas: int, flags: int = 0,
            expire: float = 0) -> bool:
        return self._store_on(
            self.node_for(key), "cas", key, value, flags, expire, cas=cas
        )

    def delete(self, key: bytes) -> bool:
        return self._delete_on(self.node_for(key), key)

    def incr(self, key: bytes, delta: int = 1) -> int | None:
        return self._arith_on(self.node_for(key), "incr", key, delta)

    def decr(self, key: bytes, delta: int = 1) -> int | None:
        return self._arith_on(self.node_for(key), "decr", key, delta)

    def flush_all(self) -> None:
        for name in self._stores:
            self._flush_on(name)

    # --- accounting -------------------------------------------------------------------

    def hit_rate(self) -> float:
        gets = sum(s.stats.cmd_get for s in self._stores.values())
        hits = sum(s.stats.get_hits for s in self._stores.values())
        return hits / gets if gets else 0.0


class FaultyNetwork:
    """The client's view of its links to the fleet, with injected faults.

    Each roundtrip asks :meth:`delivers` whether the request (and its
    reply) make it: a down node never answers, and a lossy link drops
    the exchange with the configured probability.  Per-node loss and a
    ``global_loss`` compose independently, 1-(1-a)(1-b).  The drop draw
    comes from a dedicated seeded stream so runs replay exactly.
    """

    def __init__(self, seed: int = 0, latency_s: float = 100e-6):
        if latency_s < 0:
            raise ConfigurationError("latency cannot be negative")
        self.rng = make_rng("faults:client-network", seed)
        self.latency_s = latency_s
        self.global_loss = 0.0
        self._down: set[str] = set()
        self._loss: dict[str, float] = {}
        self.drops = 0

    def crash(self, node: str) -> None:
        self._down.add(node)

    def restart(self, node: str) -> None:
        self._down.discard(node)

    def node_is_down(self, node: str) -> bool:
        return node in self._down

    def set_loss(self, probability: float, node: str | None = None) -> None:
        """Set link loss for ``node``, or the shared ``global_loss``."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("loss probability must be in [0, 1]")
        if node is None:
            self.global_loss = probability
        elif probability == 0.0:
            self._loss.pop(node, None)
        else:
            self._loss[node] = probability

    def loss_for(self, node: str) -> float:
        link = self._loss.get(node, 0.0)
        return 1.0 - (1.0 - self.global_loss) * (1.0 - link)

    def delivers(self, node: str) -> bool:
        if node in self._down:
            return False
        loss = self.loss_for(node)
        if loss > 0.0 and self.rng.random() < loss:
            self.drops += 1
            return False
        return True


#: A network with no faults — ResilientClient's default transport.
def _clean_network() -> FaultyNetwork:
    return FaultyNetwork(seed=0)


class _FanoutFuture(BatchFuture):
    """One client-visible future over a replica fan-out.

    Each replica's buffered copy reports in through a
    :class:`_BranchFuture`; once every branch has resolved, this future
    resolves to whether the ack count met the quorum requirement.
    """

    __slots__ = ("required", "pending", "acks", "client")

    def __init__(self, total: int, required: int, client=None):
        super().__init__()
        self.pending = total
        self.required = required
        self.acks = 0
        self.client = client

    def _report(self, ok: bool) -> None:
        if ok:
            self.acks += 1
            if self.client is not None:
                self.client.replica_writes += 1
                self.client._replica_writes_total.inc()
        self.pending -= 1
        if self.pending == 0:
            self.resolve(self.acks >= self.required)


class _BranchFuture(BatchFuture):
    """A per-replica future that feeds its parent :class:`_FanoutFuture`."""

    __slots__ = ("parent",)

    def __init__(self, parent: _FanoutFuture):
        super().__init__()
        self.parent = parent

    def resolve(self, value) -> None:
        super().resolve(value)
        self.parent._report(bool(value))


class ResilientClient(MemcachedClient):
    """A :class:`MemcachedClient` that survives the faults it is dealt.

    Every operation runs under the :class:`ResiliencePolicy`: an
    undelivered exchange costs one request timeout, then the client
    backs off (exponentially, with seeded jitter) and retries — against
    whatever node the ring *now* maps the key to, so a failed-over
    node's keys retry on the survivors.  GETs can hedge to the next
    distinct ring node.  After ``failover_after`` consecutive timeouts a
    node is removed from the ring; once per ``health_check_interval_s``
    the client probes it and readmits it when it answers again.

    With a :class:`~repro.replication.config.QuorumConfig` (``n > 1``)
    the client is replica-aware: SETs and DELETEs fan out to the key's
    preferred list (a SET succeeds at ``w`` acks), and the hedged GET
    goes to the key's *next replica* — which actually holds a copy —
    instead of the next ring node, which usually doesn't.  ``n=1``
    (or ``quorum=None``) preserves the original sharded behaviour
    exactly.

    Wall-clock is modelled, not real: ``clock_s`` advances by the link
    latency per delivered exchange, by ``request_timeout_s`` per
    timeout, and by the backoff between attempts.  Telemetry lands in
    ``client_*`` counters and the ``client_degraded_nodes`` gauge.
    """

    def __init__(
        self,
        node_names: list[str],
        memory_per_node_bytes: int,
        protocol: str = "ascii",
        vnodes: int = 128,
        policy: ResiliencePolicy = DEFAULT_RESILIENCE,
        network: FaultyNetwork | None = None,
        registry: MetricsRegistry = NULL_REGISTRY,
        seed: int = 0,
        quorum: QuorumConfig | None = None,
        telemetry: TelemetrySession = NULL_TELEMETRY,
        batching: BatchPolicy | None = None,
    ):
        super().__init__(node_names, memory_per_node_bytes, protocol, vnodes)
        if quorum is not None and quorum.n > len(node_names):
            raise ConfigurationError(
                f"replication factor {quorum.n} exceeds the "
                f"{len(node_names)}-node cluster"
            )
        self.quorum = quorum
        # Placement wraps the live ring, so preferred lists follow
        # failover/readmission automatically.
        self.placement = (
            ReplicaPlacement(self.ring, quorum.n) if quorum is not None else None
        )
        self.replica_writes = 0
        self.policy = policy
        self.network = network if network is not None else _clean_network()
        self.tracer = telemetry.tracer
        # The trace of the operation in flight (spans attach to it from
        # _exchange, the shared transport choke point) and the prefix
        # marking hedge-attempt spans apart from primary ones.
        self._trace: RequestTrace | None = None
        self._span_prefix = ""
        self.clock_s = 0.0
        self._retry_rng = make_rng("faults:client-retry", seed)
        self._consecutive_timeouts: dict[str, int] = {}
        self._failed_over: dict[str, float] = {}
        self.retries = 0
        self.timeouts = 0
        self.failovers = 0
        self.readmissions = 0
        self.hedges = 0
        self.giveups = 0
        self._retries_total = registry.counter("client_retries_total")
        self._timeouts_total = registry.counter("client_timeouts_total")
        self._failovers_total = registry.counter("client_failovers_total")
        self._readmissions_total = registry.counter("client_readmissions_total")
        self._hedges_total = registry.counter("client_hedges_total")
        self._giveups_total = registry.counter("client_giveups_total")
        self._replica_writes_total = registry.counter("client_replica_writes_total")
        self._degraded_gauge = registry.gauge("client_degraded_nodes")
        # Batching state: per-node accumulation buffers behind the
        # submit_get/submit_set/submit_delete + barrier() pipeline API.
        # batch_max=1 (the default) makes every submit flush immediately,
        # i.e. serial behaviour over the same code path.
        self.batching = batching if batching is not None else BatchPolicy()
        self._batch_buffers: dict[str, BatchBuffer] = {}
        self.batches = 0
        self.batched_ops = 0
        self.deduped_gets = 0
        self.batch_flush_reasons = {reason: 0 for reason in FLUSH_REASONS}
        self._batch_flushes_total = {
            reason: registry.counter(
                "client_batch_flushes_total", {"reason": reason}
            )
            for reason in FLUSH_REASONS
        }
        self._batched_ops_total = registry.counter("client_batched_ops_total")
        self._batch_dedup_total = registry.counter("client_batch_dedup_total")
        self._batch_size_hist = registry.histogram(
            "client_batch_size", min_value=1.0, max_value=float(MAX_BATCH_OPS)
        )

    # --- fault-aware transport ---------------------------------------------------

    def _exchange(self, node: str) -> None:
        """Account one roundtrip to ``node``; raise if it never answers.

        When a causal trace is in flight every attempt becomes a span on
        it: ``rpc`` for a delivered exchange (duration = link latency),
        ``rpc_timeout`` for one that never answered (duration = the
        request timeout the client waited).  Hedge attempts carry a
        ``hedge_`` prefix, so they sit as distinguishable siblings of
        the primary attempt's spans.
        """
        start = self.clock_s
        if not self.network.delivers(node):
            self.clock_s += self.policy.request_timeout_s
            self.timeouts += 1
            self._timeouts_total.inc()
            count = self._consecutive_timeouts.get(node, 0) + 1
            self._consecutive_timeouts[node] = count
            if self.policy.should_fail_over(count):
                self._fail_over(node)
            reason = "down" if self.network.node_is_down(node) else "timeout"
            if self._trace is not None:
                self._trace.add_span(
                    f"{self._span_prefix}rpc_timeout", start,
                    self.clock_s - start, kind="client", node=node,
                )
            raise NodeUnavailableError(node, reason)
        self.clock_s += self.network.latency_s
        self._consecutive_timeouts[node] = 0
        if self._trace is not None:
            self._trace.add_span(
                f"{self._span_prefix}rpc", start,
                self.clock_s - start, kind="client", node=node,
            )

    def _ascii_roundtrip(self, node: str, command: Command) -> bytes:
        self._exchange(node)
        return super()._ascii_roundtrip(node, command)

    def _binary_roundtrip(self, node: str, request) -> tuple[Status, bytes, int]:
        self._exchange(node)
        return super()._binary_roundtrip(node, request)

    # --- failover and health checks ------------------------------------------------

    def _fail_over(self, node: str) -> None:
        if node not in self.ring.nodes or len(self.ring) <= 1:
            return
        self.ring.remove_node(node)
        self._failed_over[node] = self.clock_s
        self.failovers += 1
        self._failovers_total.inc()
        self._degraded_gauge.set(len(self._failed_over))

    def _health_check(self) -> None:
        """Readmit failed-over nodes that answer a probe again."""
        due = [
            node
            for node, since in self._failed_over.items()
            if self.clock_s - since >= self.policy.health_check_interval_s
        ]
        for node in due:
            if self.network.node_is_down(node):
                # Still dead: probe again a full interval from now.
                self._failed_over[node] = self.clock_s
                continue
            del self._failed_over[node]
            self.ring.add_node(node)
            self._consecutive_timeouts[node] = 0
            self.readmissions += 1
            self._readmissions_total.inc()
        self._degraded_gauge.set(len(self._failed_over))

    @property
    def degraded(self) -> bool:
        return bool(self._failed_over)

    # --- the retry loop ---------------------------------------------------------------

    def _resilient(self, operation, fallback, hedge=None):
        """Run ``operation`` under the policy; ``fallback`` on give-up.

        ``operation`` is re-invoked from scratch each attempt, so node
        selection sees ring changes made by failover in between.
        ``hedge``, when provided (GETs), is tried once after the first
        timeout — the duplicate request that a real hedging client
        would have in flight after ``hedge_after_s`` without a reply.
        """
        self._health_check()
        hedged = False
        for attempt in range(self.policy.max_attempts):
            try:
                return operation()
            except NodeUnavailableError:
                if (
                    hedge is not None
                    and not hedged
                    and self.policy.hedge_after_s is not None
                ):
                    hedged = True
                    self.hedges += 1
                    self._hedges_total.inc()
                    self._span_prefix = "hedge_"
                    try:
                        return hedge()
                    except NodeUnavailableError:
                        pass
                    finally:
                        self._span_prefix = ""
                if attempt + 1 < self.policy.max_attempts:
                    self.clock_s += self.policy.backoff_s(attempt, self._retry_rng)
                    self.retries += 1
                    self._retries_total.inc()
                    self._health_check()
        self.giveups += 1
        self._giveups_total.inc()
        return fallback

    def _hedge_node(self, key: bytes) -> str | None:
        """Where a hedged GET goes: the key's second replica when the
        client is replica-aware (that node holds a copy), else the next
        distinct ring node (the pre-replication guess)."""
        if self.quorum is not None and self.quorum.n > 1:
            replicas = self.placement.replicas_for(key)
            return replicas[1] if len(replicas) > 1 else None
        nodes = sorted(self.ring.nodes)
        if len(nodes) < 2:
            return None
        primary = self.node_for(key)
        return nodes[(nodes.index(primary) + 1) % len(nodes)]

    # --- resilient operations ----------------------------------------------------------

    def _traced(self, verb: str, operation, finalize=None, **attrs):
        """Run ``operation`` under a fresh causal trace on ``clock_s``.

        Every transport exchange inside lands as an rpc span; give-ups
        that happened during the operation annotate the trace as an
        error so tail sampling always keeps it.  ``finalize(trace,
        result)`` runs before commit, so outcome annotations (including
        errors) are visible to the tail sampler.
        """
        trace = self.tracer.begin(self.clock_s, verb=verb, **attrs)
        giveups_before = self.giveups
        self._trace = trace
        try:
            result = operation()
        finally:
            self._trace = None
        if self.giveups > giveups_before:
            trace.annotate(error="gave_up")
        if finalize is not None:
            finalize(trace, result)
        trace.finish(self.clock_s)
        self.tracer.commit(trace)
        return result

    def get(self, key: bytes) -> GetResult | None:
        def hedge() -> GetResult | None:
            node = self._hedge_node(key)
            if node is None:
                raise NodeUnavailableError("<none>", "no hedge target")
            return self._get_on(node, key)

        def operation() -> GetResult | None:
            return self._resilient(
                lambda: self._get_on(self.node_for(key), key), None, hedge=hedge
            )

        if not self.tracer.enabled:
            return operation()
        return self._traced(
            "GET",
            operation,
            finalize=lambda trace, result: trace.annotate(hit=result is not None),
        )

    def get_many(self, keys: list[bytes]) -> dict[bytes, GetResult]:
        results: dict[bytes, GetResult] = {}
        for key in keys:
            result = self.get(key)
            if result is not None:
                results[key] = result
        return results

    def set(self, key: bytes, value: bytes, flags: int = 0, expire: float = 0) -> bool:
        def operation() -> bool:
            if self.quorum is None or self.quorum.n == 1:
                return self._resilient(
                    lambda: MemcachedClient.set(self, key, value, flags, expire),
                    False,
                )
            replicas = self.placement.replicas_for(key)
            acks = 0
            for node in replicas:
                stored = self._resilient(
                    lambda n=node: self._store_on(n, "set", key, value, flags, expire),
                    False,
                )
                if stored:
                    acks += 1
                    self.replica_writes += 1
                    self._replica_writes_total.inc()
            return acks >= min(self.quorum.w, len(replicas))

        def finalize(trace, stored: bool) -> None:
            trace.annotate(stored=stored)
            if not stored:
                trace.annotate(error="set_failed")

        if not self.tracer.enabled:
            return operation()
        return self._traced("SET", operation, finalize=finalize,
                            value_bytes=len(value))

    def add(self, key: bytes, value: bytes, flags: int = 0, expire: float = 0) -> bool:
        return self._resilient(
            lambda: MemcachedClient.add(self, key, value, flags, expire), False
        )

    def replace(self, key: bytes, value: bytes, flags: int = 0,
                expire: float = 0) -> bool:
        return self._resilient(
            lambda: MemcachedClient.replace(self, key, value, flags, expire), False
        )

    def cas(self, key: bytes, value: bytes, cas: int, flags: int = 0,
            expire: float = 0) -> bool:
        return self._resilient(
            lambda: MemcachedClient.cas(self, key, value, cas, flags, expire), False
        )

    def delete(self, key: bytes) -> bool:
        if self.quorum is None or self.quorum.n == 1:
            return self._resilient(lambda: MemcachedClient.delete(self, key), False)
        deleted = False
        for node in self.placement.replicas_for(key):
            if self._resilient(lambda n=node: self._delete_on(n, key), False):
                deleted = True
        return deleted

    def incr(self, key: bytes, delta: int = 1) -> int | None:
        return self._resilient(lambda: MemcachedClient.incr(self, key, delta), None)

    def decr(self, key: bytes, delta: int = 1) -> int | None:
        return self._resilient(lambda: MemcachedClient.decr(self, key, delta), None)

    def flush_all(self) -> None:
        """Flush every *reachable* node; unreachable ones are skipped
        (their contents are gone when they come back anyway — §2.3)."""
        for name in self._stores:
            try:
                self._flush_on(name)
            except NodeUnavailableError:
                continue

    # --- batched/pipelined request path ------------------------------------------------
    #
    # The submit API buffers operations per owning node and flushes a
    # whole buffer as ONE wire exchange — on reaching batch_max ("size"),
    # on the linger deadline ("linger"), or at an explicit barrier().
    # Futures resolve at flush time with exactly the values the serial
    # get()/set()/delete() calls would have returned, in submission
    # order; if the flush exchange itself times out, every buffered op
    # falls back through the serial resilient path (retries, failover
    # and all), so no op is ever dropped.

    def submit_get(self, key: bytes) -> BatchFuture:
        """Buffer a GET; the future resolves to GetResult-or-None."""
        self._flush_expired()
        op = BatchOp(verb="get", key=key)
        self._append_op(self.node_for(key), op)
        return op.future

    def submit_set(
        self, key: bytes, value: bytes, flags: int = 0, expire: float = 0.0
    ) -> BatchFuture:
        """Buffer a SET; the future resolves to the stored bool.

        Replica-aware (``n > 1``) clients buffer one copy per replica —
        each in that replica's own batch — and the returned future
        resolves once all copies have, to whether ``w`` acked.
        """
        self._flush_expired()
        if self.quorum is None or self.quorum.n == 1:
            op = BatchOp(verb="set", key=key, value=value, flags=flags, expire=expire)
            self._append_op(self.node_for(key), op)
            return op.future
        replicas = self.placement.replicas_for(key)
        fanout = _FanoutFuture(
            len(replicas), min(self.quorum.w, len(replicas)), client=self
        )
        for node in replicas:
            op = BatchOp(
                verb="set", key=key, value=value, flags=flags, expire=expire,
                futures=[_BranchFuture(fanout)],
            )
            self._append_op(node, op)
        return fanout

    def submit_delete(self, key: bytes) -> BatchFuture:
        """Buffer a DELETE; the future resolves to the deleted bool."""
        self._flush_expired()
        if self.quorum is None or self.quorum.n == 1:
            op = BatchOp(verb="delete", key=key)
            self._append_op(self.node_for(key), op)
            return op.future
        replicas = self.placement.replicas_for(key)
        # Serial semantics: deleted if ANY replica had it.
        fanout = _FanoutFuture(len(replicas), 1)
        for node in replicas:
            op = BatchOp(verb="delete", key=key, futures=[_BranchFuture(fanout)])
            self._append_op(node, op)
        return fanout

    def barrier(self) -> None:
        """Flush every pending buffer now (explicit pipeline barrier)."""
        self._flush_expired()
        for node in sorted(self._batch_buffers):
            batch = self._batch_buffers[node].take(FLUSH_BARRIER, self.clock_s)
            if batch is not None:
                self._deliver(node, batch)

    def advance_clock(self, delta: float) -> None:
        """Advance the client's modelled clock, firing due linger flushes."""
        if delta < 0:
            raise ConfigurationError("time cannot go backwards")
        self.clock_s += delta
        self._flush_expired()

    def pending_ops(self) -> int:
        """Ops buffered and not yet flushed (tests, invariant checks)."""
        return sum(len(buffer) for buffer in self._batch_buffers.values())

    def _append_op(self, node: str, op: BatchOp) -> None:
        buffer = self._batch_buffers.get(node)
        if buffer is None:
            buffer = self._batch_buffers[node] = BatchBuffer(self.batching)
        before = len(buffer)
        batch = buffer.append(op, self.clock_s)
        if batch is None and len(buffer) == before and op.verb == "get":
            self.deduped_gets += 1
            self._batch_dedup_total.inc()
        if batch is not None:
            self._deliver(node, batch)

    def _flush_expired(self) -> None:
        for node in sorted(self._batch_buffers):
            buffer = self._batch_buffers[node]
            if buffer.expired(self.clock_s):
                batch = buffer.take(FLUSH_LINGER, self.clock_s)
                if batch is not None:
                    self._deliver(node, batch)

    def _deliver(self, node: str, batch: Batch) -> None:
        """Ship one flushed batch as a single wire exchange."""
        self.batches += 1
        self.batched_ops += len(batch)
        self.batch_flush_reasons[batch.reason] += 1
        self._batch_flushes_total[batch.reason].inc()
        self._batched_ops_total.inc(len(batch))
        self._batch_size_hist.record(float(len(batch)))
        try:
            self._exchange(node)
        except NodeUnavailableError:
            self._fallback_serial(node, batch)
            return
        if self.protocol == "binary":
            self._deliver_binary(node, batch)
        else:
            self._deliver_ascii(node, batch)

    def _deliver_ascii(self, node: str, batch: Batch) -> None:
        """Coalesce the batch into one ASCII blob and walk the replies.

        Consecutive GETs become one multi-key ``gets``; consecutive SETs
        become one ``mset`` frame; deletes stay one command each.  The
        whole blob is fed in a single call — one syscall-equivalent on
        the server — and responses are peeled sequentially, so each
        future resolves from exactly the bytes its serial call would
        have produced.
        """
        runs: list[tuple[str, list[BatchOp]]] = []
        for op in batch.ops:
            if runs and runs[-1][0] == op.verb and op.verb in ("get", "set"):
                runs[-1][1].append(op)
            else:
                runs.append((op.verb, [op]))
        blob = bytearray()
        for verb, ops in runs:
            if verb == "get":
                blob += render_command(
                    Command(verb="gets", keys=tuple(op.key for op in ops))
                )
            elif verb == "set":
                blob += render_command(
                    Command(
                        verb="mset",
                        subcommands=tuple(
                            Command(
                                verb="set", keys=(op.key,), data=op.value,
                                flags=op.flags, exptime=op.expire,
                            )
                            for op in ops
                        ),
                    )
                )
            else:
                for op in ops:
                    blob += render_command(Command(verb="delete", keys=(op.key,)))
        rest = self._ascii[node].feed(bytes(blob))
        for verb, ops in runs:
            if verb == "get":
                response, rest = parse_one_response(rest)
                if response.status != "END":
                    raise ProtocolError(
                        f"batched get ended with {response.status!r}"
                    )
                values = response.values
                index = 0
                for op in ops:
                    if index < len(values) and values[index][0] == op.key:
                        _key, flags, value, cas = values[index]
                        index += 1
                        op.resolve(GetResult(value=value, flags=flags, cas=cas))
                    else:
                        op.resolve(None)
                if index != len(values):
                    raise ProtocolError("unmatched VALUE blocks in batched get")
            else:
                for op in ops:
                    response, rest = parse_one_response(rest)
                    if verb == "set":
                        op.resolve(response.status == "STORED")
                    else:
                        op.resolve(response.status == "DELETED")
        if rest:
            raise ProtocolError("trailing bytes after batched responses")

    def _deliver_binary(self, node: str, batch: Batch) -> None:
        """Ship the batch as one BATCH envelope; match replies by opaque."""
        inner = []
        for index, op in enumerate(batch.ops):
            if op.verb == "get":
                inner.append(get_request(op.key, opaque=index))
            elif op.verb == "set":
                inner.append(
                    set_request(op.key, op.value, op.flags, int(op.expire),
                                opaque=index)
                )
            else:
                inner.append(simple_request(Opcode.DELETE, op.key, opaque=index))
        wire = self._binary[node].handle(encode(batch_request(inner)))
        envelope, rest = decode(wire)
        if rest:
            raise ProtocolError("unexpected trailing response bytes")
        if Status(envelope.status) is not Status.NO_ERROR:
            raise ProtocolError(
                f"batch envelope failed: {Status(envelope.status).name}"
            )
        blob = envelope.value
        (responded,) = struct.unpack_from(">H", blob, 0)
        remainder = blob[2:]
        by_opaque: dict[int, object] = {}
        for _ in range(responded):
            inner_response, remainder = decode(remainder)
            by_opaque[inner_response.opaque] = inner_response
        if remainder:
            raise ProtocolError("trailing bytes in batch envelope response")
        for index, op in enumerate(batch.ops):
            response = by_opaque.get(index)
            if response is None:
                raise ProtocolError(f"batched op {index} got no response")
            status = Status(response.status)
            if op.verb == "get":
                if status is Status.KEY_NOT_FOUND:
                    op.resolve(None)
                elif status is Status.NO_ERROR:
                    # flags=0 matches the serial binary GET path, which
                    # does not decode the flags extras either.
                    op.resolve(
                        GetResult(value=response.value, flags=0, cas=response.cas)
                    )
                else:
                    raise ProtocolError(f"batched GET failed: {status.name}")
            elif op.verb == "set":
                op.resolve(status is Status.NO_ERROR)
            else:
                op.resolve(status is Status.NO_ERROR)

    def _fallback_serial(self, node: str, batch: Batch) -> None:
        """The flush exchange never answered: run every buffered op
        through the serial resilient path, in submission order.

        Replica-addressed ops (quorum fan-out branches) stay addressed
        to their replica; primary-routed ops re-resolve the ring, so a
        failover triggered by the dead flush lands them on survivors —
        exactly what their serial counterparts would do.
        """
        replicated = self.quorum is not None and self.quorum.n > 1
        for op in batch.ops:
            pinned = node if replicated and op.verb != "get" else None

            def attempt(op=op, pinned=pinned):
                target = pinned if pinned is not None else self.node_for(op.key)
                if op.verb == "get":
                    return self._get_on(target, op.key)
                if op.verb == "set":
                    return self._store_on(
                        target, "set", op.key, op.value, op.flags, op.expire
                    )
                return self._delete_on(target, op.key)

            op.resolve(self._resilient(attempt, None if op.verb == "get" else False))
