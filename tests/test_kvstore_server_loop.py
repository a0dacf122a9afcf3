"""Tests for the functional server loop (fragmented input, sessions)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.kvstore import KVStore
from repro.kvstore.server_loop import MemcachedServer, VERSION_STRING
from repro.units import MB


def make_server() -> MemcachedServer:
    return MemcachedServer(KVStore(4 * MB))


class TestBasicSessions:
    def test_set_get_session(self):
        server = make_server()
        conn = server.connect()
        assert conn.feed(b"set k 0 0 5\r\nhello\r\n") == b"STORED\r\n"
        reply = conn.feed(b"get k\r\n")
        assert reply == b"VALUE k 0 5\r\nhello\r\nEND\r\n"

    def test_gets_includes_cas(self):
        server = make_server()
        conn = server.connect()
        conn.feed(b"set k 0 0 1\r\nx\r\n")
        reply = conn.feed(b"gets k\r\n")
        assert reply.startswith(b"VALUE k 0 1 ")

    def test_version(self):
        reply = make_server().handle(b"version\r\n")
        assert reply == b"VERSION %s\r\n" % VERSION_STRING.encode()

    def test_stats(self):
        server = make_server()
        server.handle(b"set k 0 0 1\r\nx\r\nget k\r\n")
        reply = server.handle(b"stats\r\n")
        assert b"STAT cmd_get 1\r\n" in reply
        assert b"STAT curr_items 1\r\n" in reply
        assert reply.endswith(b"END\r\n")

    def test_stats_slabs(self):
        server = make_server()
        server.handle(b"set k 0 0 100\r\n" + b"x" * 100 + b"\r\n")
        reply = server.handle(b"stats slabs\r\n")
        assert b"STAT active_slabs 1\r\n" in reply
        assert b"total_malloced" in reply
        assert reply.endswith(b"END\r\n")

    def test_stats_items(self):
        server = make_server()
        server.handle(b"set a 0 0 10\r\n" + b"x" * 10 + b"\r\n")
        server.handle(b"set b 0 0 10\r\n" + b"y" * 10 + b"\r\n")
        reply = server.handle(b"stats items\r\n")
        assert b":number 2\r\n" in reply
        assert b"evictions_total 0\r\n" in reply

    def test_stats_reset(self):
        server = make_server()
        server.handle(b"set k 0 0 1\r\nx\r\nget k\r\n")
        assert server.handle(b"stats reset\r\n") == b"RESET\r\n"
        reply = server.handle(b"stats\r\n")
        assert b"STAT cmd_get 0\r\n" in reply
        # The data itself survives a stats reset.
        assert server.store.get(b"k") is not None

    def test_stats_connection_counters(self):
        server = make_server()
        conn = server.connect()
        conn.feed(b"set k 0 0 1\r\nx\r\n")
        reply = conn.feed(b"stats\r\n")
        assert b"STAT curr_connections 1\r\n" in reply
        assert b"STAT total_connections 1\r\n" in reply
        assert b"STAT cmd_total 2\r\n" in reply  # the set + this stats
        assert b"STAT conn_bytes_in %d\r\n" % (
            len(b"set k 0 0 1\r\nx\r\n") + len(b"stats\r\n")
        ) in reply
        assert b"STAT protocol_errors 0\r\n" in reply

    def test_stats_reset_clears_connection_counters(self):
        server = make_server()
        conn = server.connect()
        conn.feed(b"set k 0 0 1\r\nx\r\n")
        conn.feed(b"bogus\r\n")  # one protocol error
        assert server.connection_stats().protocol_errors == 1
        conn.feed(b"stats reset\r\n")
        aggregated = server.connection_stats()
        assert aggregated.commands == 0
        assert aggregated.bytes_in == 0
        # The RESET reply itself is post-reset traffic.
        assert aggregated.bytes_out == len(b"RESET\r\n")
        assert aggregated.protocol_errors == 0
        # Lifetime accept count survives, like memcached's.
        assert server.total_connections == 1

    def test_stats_surfaces_attached_queue(self):
        from repro.sim.events import Simulator
        from repro.sim.resources import FifoResource

        server = make_server()
        sim = Simulator()
        queue = FifoResource(sim, name="core0")
        queue.submit(1e-5, lambda wait: None)
        queue.submit(1e-5, lambda wait: None)  # queued behind the first
        server.attach_queue(queue)
        reply = server.handle(b"stats\r\n")
        assert b"STAT queue_depth 1\r\n" in reply
        assert b"STAT queue_depth_hwm 1\r\n" in reply
        assert b"STAT queue_wait_total_usec 0\r\n" in reply
        sim.run()
        reply = server.handle(b"stats\r\n")
        assert b"STAT queue_depth 0\r\n" in reply
        assert b"STAT queue_jobs_served 2\r\n" in reply
        assert b"STAT queue_wait_total_usec 10\r\n" in reply

    def test_verbosity(self):
        server = make_server()
        conn = server.connect()
        assert conn.feed(b"verbosity 2\r\n") == b"OK\r\n"
        assert server.verbosity == 2
        assert conn.feed(b"verbosity 0 noreply\r\n") == b""
        assert server.verbosity == 0
        assert conn.feed(b"verbosity banana\r\n") == b"ERROR\r\n"

    def test_quit_closes_connection(self):
        server = make_server()
        conn = server.connect()
        assert conn.feed(b"quit\r\n") == b""
        assert conn.closed
        with pytest.raises(ProtocolError):
            conn.feed(b"get k\r\n")
        assert server.connection_count == 0

    def test_incr_decr_session(self):
        server = make_server()
        conn = server.connect()
        conn.feed(b"set n 0 0 1\r\n7\r\n")
        assert conn.feed(b"incr n 3\r\n") == b"10\r\n"
        assert conn.feed(b"decr n 20\r\n") == b"0\r\n"
        assert conn.feed(b"incr ghost 1\r\n") == b"NOT_FOUND\r\n"

    def test_incr_non_numeric_is_client_error(self):
        server = make_server()
        conn = server.connect()
        conn.feed(b"set k 0 0 3\r\nabc\r\n")
        assert conn.feed(b"incr k 1\r\n").startswith(b"CLIENT_ERROR")

    def test_noreply_mutations_silent(self):
        server = make_server()
        conn = server.connect()
        assert conn.feed(b"set k 0 0 1 noreply\r\nx\r\n") == b""
        assert conn.feed(b"delete k noreply\r\n") == b""

    def test_flush_all(self):
        server = make_server()
        conn = server.connect()
        conn.feed(b"set k 0 0 1\r\nx\r\n")
        server.store.advance_time(1.0)
        assert conn.feed(b"flush_all\r\n") == b"OK\r\n"
        assert conn.feed(b"get k\r\n") == b"END\r\n"


class TestFragmentation:
    def test_byte_at_a_time_delivery(self):
        server = make_server()
        conn = server.connect()
        wire = b"set key 0 0 4\r\ndata\r\nget key\r\n"
        replies = bytearray()
        for i in range(len(wire)):
            replies += conn.feed(wire[i : i + 1])
        assert bytes(replies) == b"STORED\r\nVALUE key 0 4\r\ndata\r\nEND\r\n"
        assert conn.pending_bytes == 0

    def test_data_block_split_across_feeds(self):
        server = make_server()
        conn = server.connect()
        assert conn.feed(b"set k 0 0 10\r\n01234") == b""
        assert conn.pending_bytes > 0
        assert conn.feed(b"56789\r\n") == b"STORED\r\n"

    def test_value_containing_command_like_bytes(self):
        server = make_server()
        conn = server.connect()
        payload = b"get x\r\nset y"  # looks like commands, is data
        wire = b"set k 0 0 %d\r\n%s\r\n" % (len(payload), payload)
        assert conn.feed(wire) == b"STORED\r\n"
        reply = conn.feed(b"get k\r\n")
        assert payload in reply

    @given(
        chunks=st.lists(st.integers(min_value=1, max_value=7), max_size=30)
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_fragmentation_equivalent_to_whole(self, chunks):
        wire = b"set a 0 0 3\r\nxyz\r\nget a\r\ndelete a\r\nget a\r\n"
        whole = make_server().connect().feed(wire)
        conn = make_server().connect()
        fragments = bytearray()
        position = 0
        for size in chunks:
            fragments += conn.feed(wire[position : position + size])
            position += size
        fragments += conn.feed(wire[position:])
        assert bytes(fragments) == whole


class TestErrors:
    def test_unknown_verb_is_error_line(self):
        server = make_server()
        conn = server.connect()
        assert conn.feed(b"frobnicate now\r\n") == b"ERROR\r\n"
        # The connection recovers for subsequent commands.
        assert conn.feed(b"version\r\n").startswith(b"VERSION")
        assert conn.stats.protocol_errors == 1

    def test_bad_line_between_good_commands(self):
        server = make_server()
        conn = server.connect()
        reply = conn.feed(b"set k 0 0 1\r\nx\r\nnonsense!\r\nget k\r\n")
        assert reply == b"STORED\r\nERROR\r\nVALUE k 0 1\r\nx\r\nEND\r\n"

    @pytest.mark.parametrize(
        "wire",
        [
            b"set k -1 0 1\r\nx\r\n",
            b"set k 99999999999 0 1\r\nx\r\n",
        ],
    )
    def test_out_of_range_flags_store_nothing(self, wire):
        server = make_server()
        conn = server.connect()
        # Like any malformed storage line (``set k abc 0 1``): the
        # header and then the orphaned data line are each an ERROR.
        assert conn.feed(wire) == b"ERROR\r\nERROR\r\n"
        assert conn.feed(b"get k\r\n") == b"END\r\n"

    def test_out_of_range_mset_flags_store_nothing(self):
        server = make_server()
        conn = server.connect()
        reply = conn.feed(b"mset 2\r\na 0 0 1\r\nx\r\nb -3 0 1\r\ny\r\n")
        assert b"STORED" not in reply
        assert conn.feed(b"get a b\r\n") == b"END\r\n"

    def test_connection_stats_track_traffic(self):
        server = make_server()
        conn = server.connect()
        conn.feed(b"set k 0 0 1\r\nx\r\n")
        assert conn.stats.commands == 1
        assert conn.stats.bytes_in == len(b"set k 0 0 1\r\nx\r\n")
        assert conn.stats.bytes_out == len(b"STORED\r\n")

    def test_multiple_connections_share_store(self):
        server = make_server()
        a, b = server.connect(), server.connect()
        a.feed(b"set shared 0 0 2\r\nhi\r\n")
        assert b.feed(b"get shared\r\n") == b"VALUE shared 0 2\r\nhi\r\nEND\r\n"
        assert server.connection_count == 2
