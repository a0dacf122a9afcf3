"""A functional Memcached server loop: bytes in, bytes out.

:class:`MemcachedServer` owns a :class:`KVStore` and any number of
:class:`Connection` objects.  A connection accepts arbitrarily fragmented
request bytes (as TCP delivers them), executes complete commands against
the store, and produces exact response bytes.  This is the piece that
turns the kvstore substrate into something a socket loop — or the
discrete-event simulator — can drive directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.kvstore.batching import MAX_BATCH_OPS
from repro.kvstore.hashing import hash_key
from repro.kvstore.locks import StripedLocks
from repro.kvstore.protocol import Command, Response, parse_command, render_response
from repro.kvstore.store import KVStore, StoreResult
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY

#: Server banner returned by ``version``.
VERSION_STRING = "repro-memcached 1.4"


@dataclass
class ConnectionStats:
    commands: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    protocol_errors: int = 0
    # Batch-path accounting: one ``feed`` is one syscall-equivalent (a
    # recv that may carry a whole coalesced batch), one successful frame
    # parse is one protocol parse — so a multiget/mset of n ops costs one
    # syscall + one parse where n serial ops cost n of each.
    syscalls: int = 0
    parses: int = 0
    batches: int = 0
    batched_ops: int = 0

    def reset(self) -> None:
        self.commands = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.protocol_errors = 0
        self.syscalls = 0
        self.parses = 0
        self.batches = 0
        self.batched_ops = 0


class Connection:
    """One client connection's receive buffer and command execution."""

    def __init__(self, server: "MemcachedServer"):
        self.server = server
        self._buffer = b""
        self.stats = ConnectionStats()
        self.closed = False
        registry = server.registry
        self._commands_total = registry.counter("memcached_commands_total")
        self._bytes_in_total = registry.counter("memcached_bytes_in_total")
        self._bytes_out_total = registry.counter("memcached_bytes_out_total")
        self._protocol_errors_total = registry.counter(
            "memcached_protocol_errors_total"
        )
        self._batches_total = registry.counter("memcached_batches_total")
        self._batched_ops_total = registry.counter("memcached_batched_ops_total")

    def feed(self, data: bytes, trace=None) -> bytes:
        """Accept incoming bytes; returns response bytes (possibly empty).

        Incomplete trailing commands stay buffered until more bytes
        arrive.  A malformed *complete* command produces an ``ERROR``
        line and discards the offending line, as memcached does.

        ``trace`` (a :class:`~repro.telemetry.tracing.RequestTrace`)
        gets one zero-duration ``server_execute`` span per command run —
        the functional loop has no clock, so the span marks *where* the
        command executed (the store's local time) while durations stay
        with the DES.
        """
        if self.closed:
            raise ProtocolError("connection is closed")
        stats = self.stats
        stats.syscalls += 1
        stats.bytes_in += len(data)
        self._bytes_in_total.inc(len(data))
        # With nothing buffered, ``b"" + data`` is ``data`` itself: the
        # parse reads the caller's bytes without a copy.
        self._buffer = buffer = self._buffer + data
        replies = []
        while buffer and not self.closed:
            try:
                command, rest = parse_command(buffer)
            except ProtocolError:
                if not self._complete_command_buffered():
                    break  # wait for more bytes
                replies.append(self._discard_bad_line())
                buffer = self._buffer
                continue
            stats.parses += 1
            self._buffer = buffer = rest
            replies.append(self._execute(command))
            if trace is not None:
                trace.add_span(
                    "server_execute", self.server.store.now, 0.0, kind="server"
                )
        out = replies[0] if len(replies) == 1 else b"".join(replies)
        stats.bytes_out += len(out)
        self._bytes_out_total.inc(len(out))
        return out

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    # --- internals -------------------------------------------------------------

    def _complete_command_buffered(self) -> bool:
        """Whether the buffer holds a full (if malformed) command line.

        A storage command can legitimately sit incomplete while its data
        block streams in; distinguish "garbage line" from "not yet
        complete" by checking whether a CRLF-terminated line exists and,
        for storage verbs, whether the advertised data block is present.
        """
        end = self._buffer.find(b"\r\n")
        if end < 0:
            return False
        parts = self._buffer[:end].split()
        if not parts:
            return True
        verb = parts[0].lower()
        if verb in (b"set", b"add", b"replace", b"append", b"prepend", b"cas"):
            index = 4
            if len(parts) <= index:
                return True  # malformed header line, complete as a line
            try:
                length = int(parts[index])
            except ValueError:
                return True
            return len(self._buffer) >= end + 2 + length + 2
        if verb == b"mset":
            return self._complete_mset_buffered(end, parts)
        return True

    def _complete_mset_buffered(self, end: int, parts: list[bytes]) -> bool:
        """Whether a (possibly malformed) mset frame is fully buffered.

        Structurally hopeless headers (bad/oversized count, garbage
        sub-block line) are "complete" — parse_command will never accept
        them no matter how many bytes arrive, so the header line should
        be discarded now.  A well-formed prefix that is merely short on
        sub-block bytes is incomplete: keep waiting.
        """
        if len(parts) != 2:
            return True
        try:
            count = int(parts[1])
        except ValueError:
            return True
        if not 0 <= count <= MAX_BATCH_OPS:
            return True
        offset = end + 2
        for _ in range(count):
            line_end = self._buffer.find(b"\r\n", offset)
            if line_end < 0:
                return False
            sub_parts = self._buffer[offset:line_end].split()
            if len(sub_parts) != 4:
                return True
            try:
                length = int(sub_parts[3])
            except ValueError:
                return True
            if length < 0:
                return True
            offset = line_end + 2 + length + 2
            if len(self._buffer) < offset:
                return False
        return True

    def _discard_bad_line(self) -> bytes:
        self.stats.protocol_errors += 1
        self._protocol_errors_total.inc()
        end = self._buffer.find(b"\r\n")
        self._buffer = self._buffer[end + 2 :] if end >= 0 else b""
        return b"ERROR\r\n"

    def _execute(self, command: Command) -> bytes:
        self.stats.commands += 1
        self._commands_total.inc()
        store = self.server.store
        verb = command.verb
        if verb in ("get", "gets"):
            if len(command.keys) > 1:
                return self._execute_multiget(verb, command.keys)
            values = []
            for key in command.keys:
                item = store.get(key)
                if item is not None:
                    cas = item.cas if verb == "gets" else None
                    values.append((key, item.flags, item.value, cas))
            return render_response(Response(status="END", values=tuple(values)))
        if verb == "mset":
            return self._execute_mset(command)
        if verb == "quit":
            self.closed = True
            return b""
        if verb == "version":
            return b"VERSION %s\r\n" % VERSION_STRING.encode()
        if verb == "stats":
            # "stats", "stats slabs", "stats items", "stats reset".
            topic = command.keys[0] if command.keys else b""
            if topic == b"slabs":
                return self._render_slab_stats()
            if topic == b"items":
                return self._render_item_stats()
            if topic == b"reset":
                self.server.reset_stats()
                return b"RESET\r\n"
            return self._render_stats()
        if verb == "verbosity":
            self.server.verbosity = command.delta
            return b"" if command.noreply else b"OK\r\n"
        if verb == "flush_all":
            store.flush_all()
            return b"" if command.noreply else b"OK\r\n"
        if verb in ("incr", "decr"):
            method = store.incr if verb == "incr" else store.decr
            try:
                value = method(command.key, command.delta)
            except Exception:
                return b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
            if command.noreply:
                return b""
            if value is None:
                return b"NOT_FOUND\r\n"
            return b"%d\r\n" % value
        result = self._apply_mutation(command)
        if command.noreply:
            return b""
        return result.value.encode() + b"\r\n"

    def _execute_multiget(self, verb: str, keys: tuple[bytes, ...]) -> bytes:
        """Resolve a multi-key GET as one batch under per-stripe locks.

        The whole batch acquires its (distinct, sorted) stripes once,
        resolves every key through the store's batched read path, and
        releases — instead of n global-lock round trips.  Results and
        store-visible side effects match n serial gets exactly.
        """
        store = self.server.store
        hashes = [hash_key(key) for key in keys]
        stripes = self.server.read_locks.acquire_many(hashes)
        try:
            items = store.get_many(keys)
        finally:
            self.server.read_locks.release_many(stripes)
        values = []
        for key, item in zip(keys, items):
            if item is not None:
                cas = item.cas if verb == "gets" else None
                values.append((key, item.flags, item.value, cas))
        self._count_batch(len(keys))
        return render_response(Response(status="END", values=tuple(values)))

    def _execute_mset(self, command: Command) -> bytes:
        """Apply an mset frame's sub-stores in frame order.

        One parsed frame, n mutations, n status lines — byte-identical
        per-op outcomes to n serial sets, minus n-1 parses and syscalls.
        """
        out = bytearray()
        for sub in command.subcommands:
            result = self._apply_mutation(sub)
            out += result.value.encode() + b"\r\n"
        self._count_batch(len(command.subcommands))
        return bytes(out)

    def _count_batch(self, ops: int) -> None:
        self.stats.batches += 1
        self.stats.batched_ops += ops
        self._batches_total.inc()
        self._batched_ops_total.inc(ops)

    def _apply_mutation(self, command: Command) -> StoreResult:
        store = self.server.store
        verb = command.verb
        if verb == "set":
            return store.set(command.key, command.data, command.flags, command.exptime)
        if verb == "add":
            return store.add(command.key, command.data, command.flags, command.exptime)
        if verb == "replace":
            return store.replace(command.key, command.data, command.flags, command.exptime)
        if verb == "append":
            return store.append(command.key, command.data)
        if verb == "prepend":
            return store.prepend(command.key, command.data)
        if verb == "cas":
            return store.cas(
                command.key, command.data, command.cas, command.flags, command.exptime
            )
        if verb == "delete":
            return store.delete(command.key)
        if verb == "touch":
            return store.touch(command.key, command.exptime)
        raise ProtocolError(f"unhandled verb {verb!r}")  # pragma: no cover

    def _render_stats(self) -> bytes:
        server = self.server
        stats = server.store.stats
        connections = server.connection_stats()
        rows = {
            "cmd_get": stats.cmd_get,
            "cmd_set": stats.cmd_set,
            "get_hits": stats.get_hits,
            "get_misses": stats.get_misses,
            "delete_hits": stats.delete_hits,
            "delete_misses": stats.delete_misses,
            "evictions": stats.evictions,
            "total_items": stats.total_items,
            "bytes_read": stats.bytes_read,
            "bytes_written": stats.bytes_written,
            "curr_items": len(server.store),
            "curr_connections": server.connection_count,
            "total_connections": server.total_connections,
            "cmd_total": connections.commands,
            "conn_bytes_in": connections.bytes_in,
            "conn_bytes_out": connections.bytes_out,
            "protocol_errors": connections.protocol_errors,
            "conn_syscalls": connections.syscalls,
            "conn_parses": connections.parses,
            "batches": connections.batches,
            "batched_ops": connections.batched_ops,
            "read_lock_batches": server.read_locks.batch_acquisitions,
            "read_lock_contended": server.read_locks.contended,
        }
        if server.queue is not None:
            rows["queue_depth"] = server.queue.queue_depth
            rows["queue_depth_hwm"] = server.queue.max_queue_depth
            rows["queue_wait_total_usec"] = int(server.queue.total_wait * 1e6)
            rows["queue_jobs_served"] = server.queue.jobs_served
        out = bytearray()
        for name, value in rows.items():
            out += b"STAT %s %d\r\n" % (name.encode(), value)
        out += b"END\r\n"
        return bytes(out)

    def _render_slab_stats(self) -> bytes:
        """``stats slabs``: per-class counters, memcached layout."""
        out = bytearray()
        for class_id, entry in sorted(self.server.store.slabs.stats().items()):
            for field_name, value in entry.items():
                out += b"STAT %d:%s %d\r\n" % (class_id, field_name.encode(), value)
        out += b"STAT active_slabs %d\r\n" % len(self.server.store.slabs.stats())
        out += b"STAT total_malloced %d\r\n" % self.server.store.slabs.bytes_committed
        out += b"END\r\n"
        return bytes(out)

    def _render_item_stats(self) -> bytes:
        """``stats items``: per-class item counts and eviction totals."""
        store = self.server.store
        counts: dict[int, int] = {}
        for item in store.table:
            class_id = store.slabs.class_for(item.total_bytes).class_id
            counts[class_id] = counts.get(class_id, 0) + 1
        out = bytearray()
        for class_id in sorted(counts):
            out += b"STAT items:%d:number %d\r\n" % (class_id, counts[class_id])
        out += b"STAT evictions_total %d\r\n" % store.stats.evictions
        out += b"END\r\n"
        return bytes(out)


class MemcachedServer:
    """A Memcached node: one store, many connections.

    ``registry`` (default: the shared no-op) receives connection-level
    counters; ``queue`` is the DES FifoResource this node runs behind,
    attached by the full-system simulation so ``stats`` can surface
    queueing alongside cache state.
    """

    #: Stripe count for the shared read-lock bank (memcached 1.6 ships
    #: hash-power-dependent striping; 16 is plenty for the modelled cores).
    READ_LOCK_STRIPES = 16

    def __init__(self, store: KVStore, registry: MetricsRegistry = NULL_REGISTRY):
        self.store = store
        self.registry = registry
        self.verbosity = 0
        self.total_connections = 0
        self.queue = None  # optional FifoResource, set via attach_queue()
        self.read_locks = StripedLocks(self.READ_LOCK_STRIPES)
        self._connections: list[Connection] = []

    def connect(self) -> Connection:
        """Open a new client connection."""
        connection = Connection(self)
        self._connections.append(connection)
        self.total_connections += 1
        return connection

    def attach_queue(self, queue) -> None:
        """Associate the DES queue this server drains (for ``stats``)."""
        self.queue = queue

    def connection_stats(self) -> ConnectionStats:
        """Aggregate counters across every connection ever opened."""
        total = ConnectionStats()
        for connection in self._connections:
            total.commands += connection.stats.commands
            total.bytes_in += connection.stats.bytes_in
            total.bytes_out += connection.stats.bytes_out
            total.protocol_errors += connection.stats.protocol_errors
            total.syscalls += connection.stats.syscalls
            total.parses += connection.stats.parses
            total.batches += connection.stats.batches
            total.batched_ops += connection.stats.batched_ops
        return total

    def reset_stats(self) -> None:
        """``stats reset``: clear store *and* connection counters.

        (``total_connections`` survives, as in memcached: it counts
        lifetime accepts, not activity since the last reset.)
        """
        from repro.kvstore.store import StoreStats

        self.store.stats = StoreStats()
        for connection in self._connections:
            connection.stats.reset()

    @property
    def connection_count(self) -> int:
        return sum(1 for c in self._connections if not c.closed)

    def handle(self, wire: bytes) -> bytes:
        """One-shot convenience: run a whole request blob on a fresh
        connection and return the full response."""
        return self.connect().feed(wire)
