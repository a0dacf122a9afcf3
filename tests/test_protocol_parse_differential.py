"""Differential test of the ASCII request parse against a frozen reference.

The reference below is the parser as it stood before its checks were
rewritten to format an error message only on failure, copied verbatim.
Hypothesis draws wire blobs of every request shape the parser handles,
well-formed and not, and both parsers must return equal ``(command,
remainder)`` pairs or raise :class:`ProtocolError` with the same
message.  The one intended difference is the flags range: the current
parser rejects flags outside memcached's unsigned 32-bit range, which
the reference accepted.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.kvstore import protocol as current
from repro.kvstore.batching import MAX_BATCH_OPS
from repro.kvstore.protocol import RETRIEVAL_VERBS, STORAGE_VERBS, Command

_CRLF = b"\r\n"
MAX_FLAGS = (1 << 32) - 1


# --- reference parser (verbatim) ----------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _parse_int(token: bytes, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ProtocolError(f"bad {what}: {token!r}") from None


def _check_key(key: bytes) -> bytes:
    _require(0 < len(key) <= 250, f"bad key length {len(key)}")
    _require(
        all(33 <= b <= 126 for b in key),
        "keys must be printable ASCII without spaces",
    )
    return key


def parse_command(blob: bytes) -> tuple[Command, bytes]:
    """Parse one command off the front of ``blob``.

    Returns ``(command, remainder)`` so a connection buffer can be drained
    by repeated calls.

    Raises:
        ProtocolError: on malformed input or an incomplete data block.
    """
    end = blob.find(_CRLF)
    _require(end >= 0, "no CRLF-terminated command line")
    line = blob[:end]
    rest = blob[end + 2 :]
    parts = line.split()
    _require(bool(parts), "empty command line")
    verb = parts[0].decode("ascii", "replace").lower()

    if verb in STORAGE_VERBS:
        return _parse_storage(verb, parts, rest)
    if verb in RETRIEVAL_VERBS:
        _require(len(parts) >= 2, f"{verb} needs at least one key")
        keys = tuple(_check_key(k) for k in parts[1:])
        return Command(verb=verb, keys=keys), rest
    if verb == "delete":
        _require(len(parts) in (2, 3), "delete <key> [noreply]")
        noreply = len(parts) == 3 and parts[2] == b"noreply"
        return Command(verb=verb, keys=(_check_key(parts[1]),), noreply=noreply), rest
    if verb in ("incr", "decr"):
        _require(len(parts) in (3, 4), f"{verb} <key> <delta> [noreply]")
        delta = _parse_int(parts[2], "delta")
        _require(delta >= 0, "delta must be unsigned")
        noreply = len(parts) == 4 and parts[3] == b"noreply"
        return (
            Command(verb=verb, keys=(_check_key(parts[1]),), delta=delta, noreply=noreply),
            rest,
        )
    if verb == "touch":
        _require(len(parts) in (3, 4), "touch <key> <exptime> [noreply]")
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
        _require(len(parts) <= 2, "stats [topic]")
        keys = (_check_key(parts[1]),) if len(parts) == 2 else ()
        return Command(verb=verb, keys=keys), rest
    if verb == "verbosity":
        _require(len(parts) in (2, 3), "verbosity <level> [noreply]")
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
    _require(len(parts) == 2, "mset <count>")
    count = _parse_int(parts[1], "mset count")
    _require(0 <= count <= MAX_BATCH_OPS, f"mset count out of range: {count}")
    subcommands = []
    for _ in range(count):
        end = rest.find(_CRLF)
        _require(end >= 0, "incomplete data block")
        sub_parts = rest[:end].split()
        _require(len(sub_parts) == 4, "mset sub-block: <key> <flags> <exptime> <bytes>")
        key = _check_key(sub_parts[0])
        flags = _parse_int(sub_parts[1], "flags")
        exptime = _parse_int(sub_parts[2], "exptime")
        length = _parse_int(sub_parts[3], "bytes")
        _require(length >= 0, "negative data length")
        body_start = end + 2
        _require(len(rest) >= body_start + length + 2, "incomplete data block")
        data = rest[body_start : body_start + length]
        _require(
            rest[body_start + length : body_start + length + 2] == _CRLF,
            "data block not CRLF-terminated",
        )
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
    _require(
        len(parts) in (base_args, base_args + 1),
        f"{verb} <key> <flags> <exptime> <bytes>"
        + (" <cas>" if verb == "cas" else "")
        + " [noreply]",
    )
    key = _check_key(parts[1])
    flags = _parse_int(parts[2], "flags")
    exptime = _parse_int(parts[3], "exptime")
    length = _parse_int(parts[4], "bytes")
    _require(length >= 0, "negative data length")
    cas = _parse_int(parts[5], "cas id") if verb == "cas" else 0
    noreply = len(parts) == base_args + 1 and parts[base_args] == b"noreply"
    _require(len(rest) >= length + 2, "incomplete data block")
    data = rest[:length]
    _require(rest[length : length + 2] == _CRLF, "data block not CRLF-terminated")
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


# --- wire strategies ----------------------------------------------------------

#: Key lengths at and around the parser's bounds.
KEY_LENGTHS = (0, 1, 250, 251)


@st.composite
def boundary_keys(draw) -> bytes:
    """A key of a boundary length, printable or holding any one byte."""
    n = draw(st.sampled_from(KEY_LENGTHS))
    key = bytearray([draw(st.integers(33, 126))]) * n
    if n and draw(st.booleans()):
        key[draw(st.integers(0, n - 1))] = draw(st.integers(0, 255))
    return bytes(key)


@st.composite
def keys(draw) -> bytes:
    if draw(st.integers(0, 2)):
        return draw(st.sampled_from([b"k", b"foo", b"user:42", b"~!"]))
    return draw(boundary_keys())


#: Numeric fields: in and out of range, negative, and not numbers.
odd_numbers = st.one_of(
    st.integers(min_value=-5, max_value=10).map(lambda n: b"%d" % n),
    st.sampled_from([MAX_FLAGS, MAX_FLAGS + 1, 1 << 40]).map(lambda n: b"%d" % n),
    st.sampled_from([b"abc", b"1.5", b"+3", b"0x10", b"-0", b"1_0"]),
)


def numeric(draw, valid: bytes) -> bytes:
    """``valid`` three times in four, else an odd number or non-number."""
    return valid if draw(st.integers(0, 3)) else draw(odd_numbers)


def terminator(draw) -> bytes:
    if draw(st.integers(0, 3)):
        return b"\r\n"
    return draw(st.sampled_from([b"\n\r", b"xx", b"\r", b""]))


tails = st.sampled_from([b"", b"get k\r\n", b"garbage"])


@st.composite
def retrieval_blobs(draw) -> bytes:
    verb = draw(st.sampled_from([b"get", b"gets", b"GET"]))
    words = draw(st.lists(keys(), min_size=1, max_size=3))
    return verb + b" " + b" ".join(words) + b"\r\n" + draw(tails)


@st.composite
def storage_blobs(draw) -> bytes:
    verb = draw(st.sampled_from(sorted(STORAGE_VERBS)))
    data = draw(st.binary(max_size=8))
    fields = [
        draw(keys()),
        numeric(draw, b"0"),
        numeric(draw, b"60"),
        numeric(draw, b"%d" % len(data)),
    ]
    if verb == "cas":
        fields.append(numeric(draw, b"7"))
    if draw(st.booleans()):
        fields.append(draw(st.sampled_from([b"noreply", b"reply"])))
    # Wrong argument counts: drop or add a field.
    arity = draw(st.integers(0, 5))
    if arity == 0:
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif arity == 1:
        fields.append(b"9")
    line = verb.encode() + b" " + b" ".join(fields) + b"\r\n"
    return line + data + terminator(draw) + draw(tails)


@st.composite
def mset_blobs(draw) -> bytes:
    blocks = draw(st.integers(0, 3))
    count = numeric(draw, b"%d" % blocks)
    if not draw(st.integers(0, 9)):
        count = b"%d" % (MAX_BATCH_OPS + 1)
    header = b"mset " + count if draw(st.integers(0, 9)) else b"mset"
    out = header + b"\r\n"
    for _ in range(blocks):
        data = draw(st.binary(max_size=6))
        fields = [
            draw(keys()),
            numeric(draw, b"0"),
            numeric(draw, b"0"),
            numeric(draw, b"%d" % len(data)),
        ]
        if not draw(st.integers(0, 9)):
            del fields[draw(st.integers(0, 3))]
        out += b" ".join(fields) + b"\r\n" + data + terminator(draw)
    return out + draw(tails)


@st.composite
def other_blobs(draw) -> bytes:
    verb = draw(
        st.sampled_from(
            [b"delete", b"incr", b"decr", b"touch", b"stats", b"verbosity",
             b"flush_all", b"version", b"quit", b"frobnicate", b""]
        )
    )
    words = draw(st.lists(st.one_of(keys(), odd_numbers), max_size=3))
    line = b" ".join([verb, *words])
    return line + draw(st.sampled_from([b"\r\n", b"\r\n", b""])) + draw(tails)


# --- the differential -----------------------------------------------------------


def outcome(parse, blob: bytes):
    try:
        return ("ok", parse(blob))
    except ProtocolError as error:
        return ("error", str(error))


def flags_of(command: Command) -> list[int]:
    return [command.flags] + [sub.flags for sub in command.subcommands]


def assert_same_parse(blob: bytes) -> None:
    expected = outcome(parse_command, blob)
    actual = outcome(current.parse_command, blob)
    if actual[0] == "ok":
        assert all(0 <= flags <= MAX_FLAGS for flags in flags_of(actual[1][0]))
    prefix = "flags out of range: "
    if actual[0] == "error" and actual[1].startswith(prefix):
        # The intended difference: the reference accepted these flags,
        # or failed on a later field of the same line.
        flags = int(actual[1][len(prefix):])
        assert not 0 <= flags <= MAX_FLAGS
        if expected[0] == "ok":
            assert flags in flags_of(expected[1][0])
        return
    assert actual == expected


@settings(max_examples=150, deadline=None)
@given(blob=retrieval_blobs())
def test_retrieval_parse_matches_reference(blob):
    assert_same_parse(blob)


@settings(max_examples=250, deadline=None)
@given(blob=storage_blobs())
def test_storage_parse_matches_reference(blob):
    assert_same_parse(blob)


@settings(max_examples=200, deadline=None)
@given(blob=mset_blobs())
def test_mset_parse_matches_reference(blob):
    assert_same_parse(blob)


@settings(max_examples=100, deadline=None)
@given(blob=other_blobs())
def test_other_verbs_parse_matches_reference(blob):
    assert_same_parse(blob)


@pytest.mark.parametrize(
    "blob",
    [
        b"set k -1 0 1\r\nx\r\n",
        b"set k 4294967296 0 1\r\nx\r\n",
        b"cas k 99999999999 0 1 5 noreply\r\nx\r\n",
        b"mset 2\r\na 0 0 1\r\nx\r\nb -3 0 1\r\ny\r\n",
    ],
)
def test_out_of_range_flags_are_the_one_difference(blob):
    assert outcome(parse_command, blob)[0] == "ok"
    with pytest.raises(ProtocolError, match="flags out of range"):
        current.parse_command(blob)


def test_check_key_matches_reference_on_every_byte():
    probes = [bytes([value]) for value in range(256)]
    probes += [b"", b"k" * 250, b"k" * 251, b"k" * 249 + b" "]
    for key in probes:
        assert outcome(current._check_key, key) == outcome(_check_key, key)
