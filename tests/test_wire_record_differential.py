"""Differential and contract tests for the wire and the per-request records.

The reference below is the earlier ``Command``/``Response`` dataclasses,
``parse_command`` with its helpers, ``render_response``
(``repro/kvstore/protocol.py``) and ``Connection.feed``
(``repro/kvstore/server_loop.py``), copied verbatim.  Hypothesis byte
streams of the shapes ``test_fuzz_wire.py`` draws (well-formed commands,
malformed lines, short data blocks, mset frames, raw garbage), cut at
arbitrary points, must give the same replies, buffers and connection
counters through both.

The contract tests pin what callers rely on in the records that became
tuples (``Command``, ``Response``, ``Request``, ``TierOpCost``) and in
``Item``'s written-out ``__init__``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError, StorageError
from repro.flashstore.compaction import TierOpCost
from repro.kvstore import items as items_module
from repro.kvstore import protocol
from repro.kvstore.batching import MAX_BATCH_OPS
from repro.kvstore.items import Item
from repro.kvstore.protocol import (
    _CRLF,
    _KEY_BYTES,
    _MAX_FLAGS,
    RETRIEVAL_VERBS,
    STORAGE_VERBS,
)
from repro.kvstore.server_loop import Connection, MemcachedServer
from repro.kvstore.store import KVStore
from repro.units import MB
from repro.workloads.generator import Request

# --- reference: the earlier records, parser and renderer, verbatim --------------


@dataclass(frozen=True)
class Command:
    """A parsed client command."""

    verb: str
    keys: tuple[bytes, ...] = ()
    flags: int = 0
    exptime: float = 0.0
    data: bytes = b""
    cas: int = 0
    delta: int = 0
    noreply: bool = False
    # Batch frames (mset) carry their per-op payloads here; each
    # subcommand is a plain storage Command executed in frame order.
    subcommands: tuple["Command", ...] = ()

    @property
    def key(self) -> bytes:
        if not self.keys:
            raise ProtocolError(f"{self.verb} carries no key")
        return self.keys[0]


@dataclass(frozen=True)
class Response:
    """A server response: a status line and optional value blocks."""

    status: str
    values: tuple[tuple[bytes, int, bytes, int | None], ...] = ()
    # each value: (key, flags, data, cas-or-None)


# The request parsers test and raise inline instead of calling this, so
# that a message is formatted only when a request is rejected.
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _parse_int(token: bytes, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ProtocolError(f"bad {what}: {token!r}") from None


def _parse_flags(token: bytes) -> int:
    flags = _parse_int(token, "flags")
    if not 0 <= flags <= _MAX_FLAGS:
        raise ProtocolError(f"flags out of range: {flags}")
    return flags


def _check_key(key: bytes) -> bytes:
    if not 0 < len(key) <= 250:
        raise ProtocolError(f"bad key length {len(key)}")
    if key.translate(None, _KEY_BYTES):
        raise ProtocolError("keys must be printable ASCII without spaces")
    return key


def parse_command(blob: bytes) -> tuple[Command, bytes]:
    """Parse one command off the front of ``blob``.

    Returns ``(command, remainder)`` so a connection buffer can be drained
    by repeated calls.

    Raises:
        ProtocolError: on malformed input or an incomplete data block.
    """
    end = blob.find(_CRLF)
    if end < 0:
        raise ProtocolError("no CRLF-terminated command line")
    line = blob[:end]
    rest = blob[end + 2 :]
    parts = line.split()
    if not parts:
        raise ProtocolError("empty command line")
    verb = parts[0].decode("ascii", "replace").lower()

    if verb in STORAGE_VERBS:
        return _parse_storage(verb, parts, rest)
    if verb in RETRIEVAL_VERBS:
        if len(parts) < 2:
            raise ProtocolError(f"{verb} needs at least one key")
        keys = tuple(_check_key(k) for k in parts[1:])
        return Command(verb=verb, keys=keys), rest
    if verb == "delete":
        if len(parts) not in (2, 3):
            raise ProtocolError("delete <key> [noreply]")
        noreply = len(parts) == 3 and parts[2] == b"noreply"
        return Command(verb=verb, keys=(_check_key(parts[1]),), noreply=noreply), rest
    if verb in ("incr", "decr"):
        if len(parts) not in (3, 4):
            raise ProtocolError(f"{verb} <key> <delta> [noreply]")
        delta = _parse_int(parts[2], "delta")
        if delta < 0:
            raise ProtocolError("delta must be unsigned")
        noreply = len(parts) == 4 and parts[3] == b"noreply"
        return (
            Command(verb=verb, keys=(_check_key(parts[1]),), delta=delta, noreply=noreply),
            rest,
        )
    if verb == "touch":
        if len(parts) not in (3, 4):
            raise ProtocolError("touch <key> <exptime> [noreply]")
        exptime = _parse_int(parts[2], "exptime")
        noreply = len(parts) == 4 and parts[3] == b"noreply"
        return (
            Command(
                verb=verb, keys=(_check_key(parts[1]),), exptime=float(exptime), noreply=noreply
            ),
            rest,
        )
    if verb == "stats":
        # "stats" takes an optional topic ("slabs", "items", ...).
        if len(parts) > 2:
            raise ProtocolError("stats [topic]")
        keys = (_check_key(parts[1]),) if len(parts) == 2 else ()
        return Command(verb=verb, keys=keys), rest
    if verb == "verbosity":
        if len(parts) not in (2, 3):
            raise ProtocolError("verbosity <level> [noreply]")
        level = _parse_int(parts[1], "verbosity level")
        noreply = len(parts) == 3 and parts[2] == b"noreply"
        return Command(verb=verb, delta=level, noreply=noreply), rest
    if verb in ("flush_all", "version", "quit"):
        return Command(verb=verb), rest
    if verb == "mset":
        return _parse_mset(parts, rest)
    raise ProtocolError(f"unknown verb {verb!r}")


def _parse_mset(parts: list[bytes], rest: bytes) -> tuple[Command, bytes]:
    """``mset <n>`` followed by n ``<key> <flags> <exptime> <bytes>`` blocks.

    Each sub-block carries a data payload exactly like ``set``; the
    response is n bare status lines in frame order (no END trailer), so
    a batched client sees byte-identical per-op outcomes to n serial
    sets.  A zero-op frame is valid and produces an empty response.
    """
    if len(parts) != 2:
        raise ProtocolError("mset <count>")
    count = _parse_int(parts[1], "mset count")
    if not 0 <= count <= MAX_BATCH_OPS:
        raise ProtocolError(f"mset count out of range: {count}")
    subcommands = []
    for _ in range(count):
        end = rest.find(_CRLF)
        if end < 0:
            raise ProtocolError("incomplete data block")
        sub_parts = rest[:end].split()
        if len(sub_parts) != 4:
            raise ProtocolError("mset sub-block: <key> <flags> <exptime> <bytes>")
        key = _check_key(sub_parts[0])
        flags = _parse_flags(sub_parts[1])
        exptime = _parse_int(sub_parts[2], "exptime")
        length = _parse_int(sub_parts[3], "bytes")
        if length < 0:
            raise ProtocolError("negative data length")
        body_start = end + 2
        if len(rest) < body_start + length + 2:
            raise ProtocolError("incomplete data block")
        data = rest[body_start : body_start + length]
        if rest[body_start + length : body_start + length + 2] != _CRLF:
            raise ProtocolError("data block not CRLF-terminated")
        rest = rest[body_start + length + 2 :]
        subcommands.append(
            Command(
                verb="set",
                keys=(key,),
                flags=flags,
                exptime=float(exptime),
                data=data,
            )
        )
    return Command(verb="mset", subcommands=tuple(subcommands)), rest


def _parse_storage(verb: str, parts: list[bytes], rest: bytes) -> tuple[Command, bytes]:
    base_args = 5 if verb != "cas" else 6
    if len(parts) not in (base_args, base_args + 1):
        raise ProtocolError(
            f"{verb} <key> <flags> <exptime> <bytes>"
            + (" <cas>" if verb == "cas" else "")
            + " [noreply]"
        )
    key = _check_key(parts[1])
    flags = _parse_flags(parts[2])
    exptime = _parse_int(parts[3], "exptime")
    length = _parse_int(parts[4], "bytes")
    if length < 0:
        raise ProtocolError("negative data length")
    cas = _parse_int(parts[5], "cas id") if verb == "cas" else 0
    noreply = len(parts) == base_args + 1 and parts[base_args] == b"noreply"
    if len(rest) < length + 2:
        raise ProtocolError("incomplete data block")
    data = rest[:length]
    if rest[length : length + 2] != _CRLF:
        raise ProtocolError("data block not CRLF-terminated")
    remainder = rest[length + 2 :]
    return (
        Command(
            verb=verb,
            keys=(key,),
            flags=flags,
            exptime=float(exptime),
            data=data,
            cas=cas,
            noreply=noreply,
        ),
        remainder,
    )


def render_response(response: Response) -> bytes:
    """Serialise a response to wire bytes (server side)."""
    out = bytearray()
    for key, flags, data, cas in response.values:
        if cas is None:
            out += b"VALUE %s %d %d" % (key, flags, len(data))
        else:
            out += b"VALUE %s %d %d %d" % (key, flags, len(data), cas)
        out += _CRLF + data + _CRLF
    if response.status:
        out += response.status.encode() + _CRLF
    return bytes(out)


# --- reference: the earlier ``Connection.feed``, verbatim -----------------------


class ReferenceConnection(Connection):
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
        self.stats.syscalls += 1
        self.stats.bytes_in += len(data)
        self._bytes_in_total.inc(len(data))
        self._buffer += data
        out = bytearray()
        while self._buffer and not self.closed:
            try:
                command, rest = parse_command(self._buffer)
            except ProtocolError:
                if self._complete_command_buffered():
                    out += self._discard_bad_line()
                    continue
                break  # wait for more bytes
            self.stats.parses += 1
            self._buffer = rest
            out += self._execute(command)
            if trace is not None:
                trace.add_span(
                    "server_execute", self.server.store.now, 0.0, kind="server"
                )
        self.stats.bytes_out += len(out)
        self._bytes_out_total.inc(len(out))
        return bytes(out)


# --- byte streams -------------------------------------------------------------------

KEYS = st.sampled_from([b"a", b"b", b"key-1", b"n"]) | st.lists(
    st.integers(min_value=33, max_value=126), min_size=1, max_size=12
).map(bytes)
DATA = st.sampled_from([b"", b"x", b"12", b"hello"]) | st.binary(max_size=12)
EXPTIMES = st.sampled_from([0, 0, 100, -1])
NOREPLY = st.sampled_from([b"", b" noreply"])


@st.composite
def _storage(draw):
    verb = draw(st.sampled_from(sorted(STORAGE_VERBS)))
    data = draw(DATA)
    # Now and then the advertised length is wrong: a short block waits
    # for bytes, a long one leaves a bad line behind.
    length = len(data) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    line = b"%s %s %d %d %d" % (
        verb.encode(),
        draw(KEYS),
        draw(st.integers(min_value=0, max_value=3)),
        draw(EXPTIMES),
        length,
    )
    if verb == "cas":
        line += b" %d" % draw(st.integers(min_value=0, max_value=12))
    return line + draw(NOREPLY) + _CRLF + data + _CRLF


@st.composite
def _retrieval(draw):
    verb = draw(st.sampled_from(sorted(RETRIEVAL_VERBS)))
    keys = draw(st.lists(KEYS, min_size=1, max_size=4))
    return verb.encode() + b" " + b" ".join(keys) + _CRLF


@st.composite
def _simple(draw):
    key = draw(KEYS)
    return draw(
        st.sampled_from(
            [
                b"delete %s" % key,
                b"incr %s %d" % (key, draw(st.integers(0, 2**64 + 1))),
                b"decr %s %d" % (key, draw(st.integers(0, 20))),
                b"touch %s %d" % (key, draw(EXPTIMES)),
                b"flush_all",
                b"version",
                b"verbosity 1",
                b"stats",
                b"stats slabs",
                b"stats items",
                b"stats reset",
            ]
        )
    ) + draw(NOREPLY) + _CRLF


@st.composite
def _mset(draw):
    blocks = draw(st.lists(st.tuples(KEYS, DATA), max_size=4))
    frame = b"mset %d" % (len(blocks) + draw(st.sampled_from([0, 0, 0, 1]))) + _CRLF
    for key, data in blocks:
        frame += b"%s 0 0 %d" % (key, len(data)) + _CRLF + data + _CRLF
    return frame


FRAGMENTS = st.one_of(
    _storage(),
    _retrieval(),
    _simple(),
    _mset(),
    st.sampled_from([b"\r\n", b"bogus\r\n", b"get\r\n", b"quit\r\n", b"set k\r\n"]),
    st.binary(max_size=24),
)


def _replay(connection_class, chunks):
    """Feed ``chunks`` through a fresh server; what the client and the
    connection show after each chunk, then the store's contents."""
    saved = items_module._cas_counter
    items_module._cas_counter = itertools.count(1)
    try:
        server = MemcachedServer(KVStore(2 * MB))
        connection = connection_class(server)
        server._connections.append(connection)
        server.total_connections += 1
        seen = []
        for chunk in chunks:
            try:
                reply = connection.feed(chunk)
            except ProtocolError as error:
                reply = ("error", str(error))
            seen.append((reply, connection._buffer, connection.closed))
        server.store.check_invariants()
        contents = [
            (item.key, item.value, item.flags, item.cas, item.expire_at)
            for item in server.store.items_live()
        ]
        return seen, connection.stats, contents
    finally:
        items_module._cas_counter = saved


def _split(stream: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({cut % (len(stream) + 1) for cut in cuts})
    bounds = [0, *points, len(stream)]
    return [stream[start:end] for start, end in zip(bounds, bounds[1:])]


def _fields(command) -> tuple:
    """A command's field values, subcommands included, as plain tuples."""
    return (
        command.verb,
        command.keys,
        command.flags,
        command.exptime,
        command.data,
        command.cas,
        command.delta,
        command.noreply,
        tuple(_fields(sub) for sub in command.subcommands),
    )


def _parse_outcome(parse, blob: bytes):
    try:
        command, rest = parse(blob)
    except ProtocolError as error:
        return "error", str(error)
    return _fields(command), rest


class TestWireDifferential:
    @given(
        fragments=st.lists(FRAGMENTS, max_size=12),
        cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_feed_matches_the_reference(self, fragments, cuts):
        chunks = _split(b"".join(fragments), cuts)
        assert _replay(Connection, chunks) == _replay(ReferenceConnection, chunks)

    @given(fragments=st.lists(FRAGMENTS, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_parse_command_matches_the_reference(self, fragments):
        blob = b"".join(fragments)
        assert _parse_outcome(protocol.parse_command, blob) == _parse_outcome(
            parse_command, blob
        )

    @given(
        status=st.sampled_from(["END", "STORED", ""]),
        values=st.lists(
            st.tuples(
                KEYS,
                st.integers(min_value=0, max_value=_MAX_FLAGS),
                DATA,
                st.none() | st.integers(min_value=0, max_value=2**64 - 1),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_render_response_matches_the_reference(self, status, values):
        assert protocol.render_response(
            protocol.Response(status=status, values=tuple(values))
        ) == render_response(Response(status=status, values=tuple(values)))

    def test_a_lone_reply_is_returned_as_rendered(self):
        connection = MemcachedServer(KVStore(2 * MB)).connect()
        assert connection.feed(b"set k 0 0 1\r\nv\r\n") == b"STORED\r\n"
        reply = connection.feed(b"get k\r\n")
        assert type(reply) is bytes and reply == b"VALUE k 0 1\r\nv\r\nEND\r\n"
        assert connection.feed(b"get k\r\nget z\r\n") == reply + b"END\r\n"
        assert connection.feed(b"") == b""


# --- record contracts ---------------------------------------------------------------

#: (record, field names in order, defaults, a full positional argument
#: list, another value for the first field)
RECORDS = [
    (
        protocol.Command,
        ("verb", "keys", "flags", "exptime", "data", "cas", "delta", "noreply",
         "subcommands"),
        {"keys": (), "flags": 0, "exptime": 0.0, "data": b"", "cas": 0,
         "delta": 0, "noreply": False, "subcommands": ()},
        ("set", (b"k",), 1, 2.0, b"v", 3, 4, True, ()),
        "add",
    ),
    (
        protocol.Response,
        ("status", "values"),
        {"values": ()},
        ("END", ((b"k", 0, b"v", None),)),
        "STORED",
    ),
    (
        Request,
        ("verb", "key", "value_bytes"),
        {},
        ("GET", b"key-1", 64),
        "PUT",
    ),
    (
        TierOpCost,
        ("service_s", "found", "tier", "pages_read", "false_positive_reads",
         "probes", "background"),
        {"pages_read": 0, "false_positive_reads": 0, "probes": (),
         "background": ()},
        (1e-4, True, "hash", 1, 0, (("hash", 1e-4),), ()),
        2e-4,
    ),
]


@pytest.mark.parametrize(
    "record, names, defaults, args, other",
    RECORDS,
    ids=[entry[0].__name__ for entry in RECORDS],
)
class TestRecordContracts:
    def test_fields_order_and_defaults(self, record, names, defaults, args, other):
        assert record._fields == names
        assert record._field_defaults == defaults

    def test_keyword_and_positional_construction(self, record, names, defaults, args, other):
        by_position = record(*args)
        by_keyword = record(**dict(zip(names, args)))
        assert by_position == by_keyword
        assert tuple(getattr(by_keyword, name) for name in names) == args
        required = [a for name, a in zip(names, args) if name not in defaults]
        minimal = record(*required)
        for name, value in defaults.items():
            assert getattr(minimal, name) == value

    def test_equality_and_hash(self, record, names, defaults, args, other):
        assert record(*args) == record(*args)
        assert hash(record(*args)) == hash(record(*args))
        assert len({record(*args), record(*args)}) == 1
        assert record(other, *args[1:]) != record(*args)

    def test_attributes_cannot_be_assigned(self, record, names, defaults, args, other):
        instance = record(*args)
        with pytest.raises(AttributeError):
            setattr(instance, names[0], args[0])
        with pytest.raises(AttributeError):
            instance.not_a_field = 1


class TestRecordChecks:
    def test_command_key_needs_a_key(self):
        assert protocol.Command("get", (b"a", b"b")).key == b"a"
        with pytest.raises(ProtocolError, match="carries no key"):
            protocol.Command(verb="stats").key

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"verb": "DELETE", "key": b"k", "value_bytes": 1},
            {"verb": "get", "key": b"k", "value_bytes": 1},
            {"verb": "PUT", "key": b"k", "value_bytes": -1},
        ],
    )
    def test_request_rejects_bad_verbs_and_sizes(self, kwargs):
        with pytest.raises(ConfigurationError):
            Request(**kwargs)
        with pytest.raises(ConfigurationError):
            Request(*kwargs.values())

    @pytest.mark.parametrize("key", [b"", b"k" * 251, b"a b", b"a\rb", b"a\nb"])
    def test_item_keeps_its_key_checks(self, key):
        with pytest.raises(StorageError):
            Item(key=key, value=b"")

    def test_item_draws_one_cas_id_per_construction(self):
        saved = items_module._cas_counter
        items_module._cas_counter = itertools.count(100)
        try:
            first = Item(key=b"a", value=b"")
            second = Item(b"b", b"v", 1, 0.0)
            with pytest.raises(StorageError):
                Item(key=b"", value=b"")
            third = Item(key=b"c", value=b"")
            assert (first.cas, second.cas, third.cas) == (100, 101, 103)
            assert Item(key=b"d", value=b"", cas=7).cas == 7
            assert next(items_module._cas_counter) == 104
        finally:
            items_module._cas_counter = saved

    def test_item_fields_keep_their_defaults(self):
        item = Item(key=b"a", value=b"v")
        assert (
            item.flags, item.expire_at, item.stored_at, item.last_access,
            item.seq, item.slab_class,
        ) == (0, 0.0, 0.0, 0.0, 0, -1)
        assert item == Item(key=b"a", value=b"v", cas=item.cas)
