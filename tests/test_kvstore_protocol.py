"""Tests for the memcached ASCII protocol parser/renderer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.kvstore import (
    Command,
    KVStore,
    Response,
    parse_command,
    parse_response,
    render_command,
    render_response,
)
from repro.kvstore.protocol import reply_len
from repro.kvstore.server_loop import MemcachedServer
from repro.kvstore.store import StoreResult
from repro.units import MB

safe_keys = st.lists(
    st.integers(min_value=33, max_value=126), min_size=1, max_size=64
).map(bytes)


class TestParseCommands:
    def test_get_single_key(self):
        cmd, rest = parse_command(b"get foo\r\n")
        assert cmd.verb == "get"
        assert cmd.keys == (b"foo",)
        assert rest == b""

    def test_get_multi_key(self):
        cmd, _ = parse_command(b"get a b c\r\n")
        assert cmd.keys == (b"a", b"b", b"c")

    def test_set_with_data_block(self):
        cmd, rest = parse_command(b"set foo 7 60 5\r\nhello\r\n")
        assert cmd.verb == "set"
        assert cmd.key == b"foo"
        assert cmd.flags == 7
        assert cmd.exptime == 60
        assert cmd.data == b"hello"
        assert rest == b""

    def test_cas_carries_id(self):
        cmd, _ = parse_command(b"cas foo 0 0 2 99\r\nhi\r\n")
        assert cmd.verb == "cas"
        assert cmd.cas == 99

    def test_noreply_flag(self):
        cmd, _ = parse_command(b"set foo 0 0 1 noreply\r\nx\r\n")
        assert cmd.noreply
        cmd, _ = parse_command(b"delete foo noreply\r\n")
        assert cmd.noreply

    def test_incr_decr_touch(self):
        cmd, _ = parse_command(b"incr counter 5\r\n")
        assert (cmd.verb, cmd.delta) == ("incr", 5)
        cmd, _ = parse_command(b"decr counter 2\r\n")
        assert (cmd.verb, cmd.delta) == ("decr", 2)
        cmd, _ = parse_command(b"touch foo 300\r\n")
        assert (cmd.verb, cmd.exptime) == ("touch", 300.0)

    def test_bare_verbs(self):
        for verb in ("flush_all", "version", "stats", "quit"):
            cmd, _ = parse_command(verb.encode() + b"\r\n")
            assert cmd.verb == verb

    def test_pipelined_commands_leave_remainder(self):
        blob = b"get a\r\nget b\r\n"
        cmd, rest = parse_command(blob)
        assert cmd.keys == (b"a",)
        cmd2, rest2 = parse_command(rest)
        assert cmd2.keys == (b"b",)
        assert rest2 == b""

    def test_data_spanning_value_with_crlf_inside(self):
        payload = b"line1\r\nline2"
        blob = b"set k 0 0 %d\r\n%s\r\n" % (len(payload), payload)
        cmd, rest = parse_command(blob)
        assert cmd.data == payload
        assert rest == b""


class TestParseErrors:
    @pytest.mark.parametrize(
        "blob",
        [
            b"",                             # no CRLF
            b"\r\n",                          # empty line
            b"frobnicate foo\r\n",            # unknown verb
            b"get\r\n",                       # missing key
            b"set foo 0 0\r\n",               # missing length
            b"set foo 0 0 5\r\nhi\r\n",       # short data block
            b"set foo 0 0 2\r\nhixx",         # unterminated data
            b"set foo 0 0 x\r\nhi\r\n",       # non-numeric length
            b"incr foo\r\n",                  # missing delta
            b"incr foo -3\r\n",               # negative delta
            b"get " + b"k" * 251 + b"\r\n",   # key too long
            b"get bad\x07key\r\n",            # unprintable key byte
        ],
    )
    def test_malformed_input_raises(self, blob):
        with pytest.raises(ProtocolError):
            parse_command(blob)

    @pytest.mark.parametrize(
        "blob",
        [
            b"set k -1 0 1\r\nx\r\n",
            b"set k 4294967296 0 1\r\nx\r\n",
            b"add k 99999999999 0 1\r\nx\r\n",
            b"cas k -1 0 1 7\r\nx\r\n",
            b"mset 2\r\na 0 0 1\r\nx\r\nb -3 0 1\r\ny\r\n",
        ],
    )
    def test_flags_outside_unsigned_32_bit_raise(self, blob):
        with pytest.raises(ProtocolError, match="flags out of range"):
            parse_command(blob)

    @pytest.mark.parametrize("flags", [0, 1, 65535, 65536, (1 << 32) - 1])
    def test_flags_inside_unsigned_32_bit_parse(self, flags):
        cmd, _ = parse_command(b"set k %d 0 1\r\nx\r\n" % flags)
        assert cmd.flags == flags
        cmd, _ = parse_command(b"mset 1\r\nk %d 0 1\r\nx\r\n" % flags)
        assert cmd.subcommands[0].flags == flags

    def test_command_key_accessor_requires_keys(self):
        with pytest.raises(ProtocolError):
            Command(verb="stats").key


class TestRenderRoundtrip:
    @given(
        key=safe_keys,
        flags=st.integers(min_value=0, max_value=65535),
        exptime=st.integers(min_value=0, max_value=10_000),
        data=st.binary(max_size=512),
        noreply=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_set_roundtrip(self, key, flags, exptime, data, noreply):
        original = Command(
            verb="set", keys=(key,), flags=flags, exptime=float(exptime),
            data=data, noreply=noreply,
        )
        parsed, rest = parse_command(render_command(original))
        assert rest == b""
        assert parsed == original

    @given(keys=st.lists(safe_keys, min_size=1, max_size=5, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_get_roundtrip(self, keys):
        original = Command(verb="get", keys=tuple(keys))
        parsed, _ = parse_command(render_command(original))
        assert parsed == original

    @given(key=safe_keys, delta=st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=50, deadline=None)
    def test_incr_roundtrip(self, key, delta):
        original = Command(verb="incr", keys=(key,), delta=delta)
        parsed, _ = parse_command(render_command(original))
        assert parsed == original

    def test_cas_roundtrip(self):
        original = Command(verb="cas", keys=(b"k",), data=b"v", cas=1234)
        parsed, _ = parse_command(render_command(original))
        assert parsed == original


class TestResponses:
    def test_render_value_response(self):
        response = Response(status="END", values=((b"k", 7, b"data", None),))
        assert render_response(response) == b"VALUE k 7 4\r\ndata\r\nEND\r\n"

    def test_render_with_cas(self):
        response = Response(status="END", values=((b"k", 0, b"d", 42),))
        assert b"VALUE k 0 1 42\r\n" in render_response(response)

    def test_render_status_only(self):
        assert render_response(Response(status="STORED")) == b"STORED\r\n"

    @given(
        values=st.lists(
            st.tuples(
                safe_keys,
                st.integers(min_value=0, max_value=255),
                st.binary(max_size=256),
                st.one_of(st.none(), st.integers(min_value=1, max_value=1 << 30)),
            ),
            max_size=4,
        ),
        status=st.sampled_from(["END", "STORED", "NOT_FOUND", "DELETED"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_response_roundtrip(self, values, status):
        original = Response(status=status, values=tuple(values))
        parsed = parse_response(render_response(original))
        assert parsed == original

    def test_parse_truncated_value_raises(self):
        with pytest.raises(ProtocolError):
            parse_response(b"VALUE k 0 10\r\nshort\r\n")

    def test_parse_empty_raises(self):
        with pytest.raises(ProtocolError):
            parse_response(b"no terminator")


class TestReplyLen:
    """``reply_len`` against the bytes a connection actually returns."""

    @staticmethod
    def _set(connection, key: bytes, value_len: int) -> bytes:
        value = b"x" * value_len
        return connection.feed(b"set %s 0 0 %d\r\n%s\r\n" % (key, value_len, value))

    @pytest.mark.parametrize("value_len", [0, 1, 9, 10, 64, 999, 4096, 100_000])
    @pytest.mark.parametrize("key", [b"k", b"key-12345", b"k" * 250])
    def test_hit(self, key, value_len):
        connection = MemcachedServer(KVStore(4 * MB)).connect()
        self._set(connection, key, value_len)
        reply = connection.feed(b"get %s\r\n" % key)
        assert reply.startswith(b"VALUE ")
        assert reply_len("END", len(key), value_len) == len(reply)

    def test_miss(self):
        connection = MemcachedServer(KVStore(4 * MB)).connect()
        assert reply_len("END") == len(connection.feed(b"get absent\r\n"))

    def test_stored(self):
        connection = MemcachedServer(KVStore(4 * MB)).connect()
        reply = self._set(connection, b"k", 64)
        assert reply_len(StoreResult.STORED.value) == len(reply)

    def test_out_of_memory(self):
        connection = MemcachedServer(KVStore(4 * MB)).connect()
        reply = self._set(connection, b"k", 2 * MB)
        assert reply.startswith(b"SERVER_ERROR")
        assert reply_len(StoreResult.OUT_OF_MEMORY.value) == len(reply)
