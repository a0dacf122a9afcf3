"""Tests for the UDP transport server."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.kvstore import KVStore
from repro.kvstore.server_loop import MemcachedServer
from repro.kvstore.udp_server import (
    FRAME_HEADER_BYTES,
    UdpFrame,
    UdpMemcachedServer,
    decode_frame,
    encode_frame,
    multiget_request,
    reassemble,
    split_response,
)
from repro.units import MB


def make_udp(mtu_payload: int | None = None) -> UdpMemcachedServer:
    return UdpMemcachedServer(
        MemcachedServer(KVStore(4 * MB)), mtu_payload=mtu_payload
    )


def request_datagram(payload: bytes, request_id: int = 7) -> bytes:
    return encode_frame(
        UdpFrame(request_id=request_id, sequence=0, total=1, payload=payload)
    )


class TestFraming:
    def test_encode_decode_roundtrip(self):
        frame = UdpFrame(request_id=300, sequence=2, total=5, payload=b"data")
        assert decode_frame(encode_frame(frame)) == frame

    def test_short_datagram_rejected(self):
        with pytest.raises(ProtocolError, match="short"):
            decode_frame(b"\x00\x01")

    def test_bad_sequence_rejected(self):
        with pytest.raises(ProtocolError):
            UdpFrame(request_id=1, sequence=3, total=3, payload=b"")

    def test_nonzero_reserved_rejected(self):
        raw = bytearray(request_datagram(b"x"))
        raw[7] = 1
        with pytest.raises(ProtocolError, match="reserved"):
            decode_frame(bytes(raw))

    @given(
        request_id=st.integers(min_value=0, max_value=0xFFFF),
        payload=st.binary(max_size=4000),
        mtu=st.integers(min_value=32, max_value=1400),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_reassemble_roundtrip(self, request_id, payload, mtu):
        datagrams = split_response(request_id, payload, mtu)
        assert all(len(d) <= mtu for d in datagrams)
        assert reassemble(datagrams) == payload

    def test_reassemble_detects_loss(self):
        datagrams = split_response(5, b"x" * 1000, 108)
        assert len(datagrams) > 2
        with pytest.raises(ProtocolError, match="missing"):
            reassemble(datagrams[:-1])

    def test_reassemble_detects_mixed_ids(self):
        a = split_response(1, b"x" * 10, 100)
        b = split_response(2, b"y" * 10, 100)
        with pytest.raises(ProtocolError, match="mixed"):
            reassemble(a + b)

    def test_reassemble_detects_duplicates(self):
        datagrams = split_response(5, b"x" * 300, 108)
        with pytest.raises(ProtocolError, match="duplicate|inconsistent|missing"):
            reassemble([datagrams[0], datagrams[0]])

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ProtocolError):
            split_response(1, b"x", FRAME_HEADER_BYTES)


class TestUdpServer:
    def test_get_over_udp(self):
        udp = make_udp()
        udp.server.handle(b"set k 0 0 5\r\nhello\r\n")  # warm over "TCP"
        responses = udp.handle_datagram(request_datagram(b"get k\r\n"))
        assert len(responses) == 1
        payload = reassemble(responses)
        assert payload == b"VALUE k 0 5\r\nhello\r\nEND\r\n"

    def test_response_request_id_echoed(self):
        udp = make_udp()
        responses = udp.handle_datagram(request_datagram(b"get k\r\n", request_id=999))
        assert decode_frame(responses[0]).request_id == 999

    def test_large_response_splits_across_datagrams(self):
        udp = make_udp(mtu_payload=256)
        value = b"x" * 2000
        udp.server.handle(b"set big 0 0 %d\r\n%s\r\n" % (len(value), value))
        responses = udp.handle_datagram(request_datagram(b"get big\r\n"))
        assert len(responses) > 5
        assert value in reassemble(responses)

    def test_set_over_udp_works_too(self):
        udp = make_udp()
        responses = udp.handle_datagram(
            request_datagram(b"set u 0 0 2\r\nok\r\n")
        )
        assert reassemble(responses) == b"STORED\r\n"
        assert udp.server.store.get(b"u").value == b"ok"

    def test_multi_datagram_request_rejected(self):
        udp = make_udp()
        frame = encode_frame(
            UdpFrame(request_id=1, sequence=0, total=2, payload=b"get k\r\n")
        )
        with pytest.raises(ProtocolError, match="multi-datagram"):
            udp.handle_datagram(frame)

    def test_incomplete_command_rejected(self):
        udp = make_udp()
        with pytest.raises(ProtocolError, match="incomplete"):
            udp.handle_datagram(request_datagram(b"set k 0 0 100\r\nshort"))

    def test_requests_are_stateless(self):
        udp = make_udp()
        udp.handle_datagram(request_datagram(b"get a\r\n"))
        udp.handle_datagram(request_datagram(b"get b\r\n"))
        assert udp.requests_served == 2

    def test_multiget_request_matches_the_tcp_multiget(self):
        udp = make_udp(mtu_payload=64)
        tcp = udp.server.connect()
        for key, value in ((b"k1", b"one"), (b"k3", b"three" * 20)):
            tcp.feed(b"set %s 0 0 %d\r\n%s\r\n" % (key, len(value), value))
        responses = udp.handle_datagram(
            multiget_request(41, [b"k1", b"k2", b"k3"])
        )
        assert len(responses) > 1  # the reply spans datagrams
        assert reassemble(responses) == tcp.feed(b"get k1 k2 k3\r\n")
        assert udp.multigets_served == 1
